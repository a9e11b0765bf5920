import math

import numpy as np
import pytest

from qchan import (
    amplitude_damping,
    apply,
    channel_rank,
    choi_matrix,
    dft_matrix,
    hermitian_eigenvalues,
    ndim_family,
    ndim_theta0,
    qubit_family_a,
    qubit_family_b,
    qutrit_family,
    selfcomplementarity_defect,
    tensor_channel,
    validate_channel,
    validate_states,
)
from qchan.channels import completeness_residuals
from qchan.families import FAMILIES, family_ids

from conftest import random_density_matrix, random_unitary

SQ2 = 1.0 / np.sqrt(2.0)


def test_family_a_special_points():
    ad_half = qubit_family_a(np.pi / 2, 0.0)
    assert np.abs(ad_half[0] - np.diag([1.0, SQ2])).max() <= 1e-15
    assert np.abs(ad_half[1] - np.array([[0, SQ2], [0, 0]])).max() <= 1e-15

    at_zero = qubit_family_a(0.0, 0.0)
    assert np.abs(at_zero[0] - np.diag([0.0, SQ2])).max() <= 1e-15
    assert np.abs(at_zero[1] - np.array([[0, SQ2], [1, 0]])).max() <= 1e-15


def test_family_b_special_points():
    deph = qubit_family_b(0.0, 0.0)
    assert np.abs(deph[0] - np.diag([1.0, 0.0])).max() <= 1e-15
    assert np.abs(deph[1] - np.diag([0.0, 1.0])).max() <= 1e-15

    half = qubit_family_b(np.pi / 2, 0.0)
    assert np.abs(half[0] - np.diag([1.0, SQ2])).max() <= 1e-15
    assert np.abs(half[1] - np.array([[0, SQ2], [0, 0]])).max() <= 1e-15


def test_qubit_family_grid_is_cptp_and_selfcomplementary():
    thetas = np.linspace(0.0, np.pi, 50)
    phis = np.linspace(0.0, 2 * np.pi, 8)
    for build in (qubit_family_a, qubit_family_b):
        for theta in thetas:
            for phi in phis:
                ch = build(float(theta), float(phi))
                assert completeness_residuals(ch[None])[0] <= 1e-12
                assert selfcomplementarity_defect(ch) <= 1e-12


def test_family_choi_spectrum_is_phi_independent():
    for theta in (0.0, 0.6, 1.4):
        base = hermitian_eigenvalues(choi_matrix(qubit_family_a(theta, 0.0)))
        for phi in (0.5, 2.0, 5.5):
            other = hermitian_eigenvalues(choi_matrix(qubit_family_a(theta, phi)))
            assert np.abs(base - other).max() <= 1e-10


def test_family_parameter_ranges():
    with pytest.raises(ValueError):
        qubit_family_a(9.0)
    with pytest.raises(ValueError):
        qubit_family_a(-0.1)
    with pytest.raises(ValueError):
        qubit_family_b(0.5, 7.0)


def test_amplitude_damping():
    ad0 = amplitude_damping(0.0)
    assert np.abs(ad0[0] - np.eye(2)).max() <= 1e-15
    assert np.abs(ad0[1]).max() <= 1e-15

    half = amplitude_damping(0.5)
    family = qubit_family_a(np.pi / 2, 0.0)
    for a, b in zip(half, family):
        assert np.abs(a - b).max() <= 1e-15

    full = amplitude_damping(1.0)
    rho = np.array([[0.3, 0.1], [0.1, 0.7]])
    out = apply(full, rho)
    assert np.abs(out - np.diag([1.0, 0.0])).max() <= 1e-12

    with pytest.raises(ValueError):
        amplitude_damping(1.2)


def test_amplitude_damping_selfcomplementary_only_at_half():
    assert selfcomplementarity_defect(amplitude_damping(0.5)) <= 1e-12
    assert selfcomplementarity_defect(amplitude_damping(0.3)) > 1e-6


def test_ndim_theta0_structure_and_validity():
    for n in range(2, 7):
        ch = ndim_theta0(n)
        assert completeness_residuals(ch[None])[0] <= 1e-15
        assert selfcomplementarity_defect(ch) <= 1e-12
        assert channel_rank(choi_matrix(ch)) == n
    two = ndim_theta0(2)
    for a, b in zip(two, qubit_family_b(np.pi / 2, 0.0)):
        assert np.abs(a - b).max() <= 1e-15
    for a, b in zip(two, amplitude_damping(0.5)):
        assert np.abs(a - b).max() <= 1e-15


def test_qutrit_family_reduces_to_theta0(rng):
    w = random_unitary(3, rng)
    ch = qutrit_family(0.0, w)
    expected = ndim_theta0(3)
    for a, b in zip(ch, expected):
        assert np.abs(a - b).max() <= 1e-15


def test_qutrit_family_validation_reports():
    ok = validate_channel(qutrit_family(0.0, np.eye(3)))[0]
    assert ok["cptp_residual"] <= 1e-12
    # Away from theta = 0 every member is a self-complementary channel too.
    report = validate_channel(qutrit_family(np.pi / 4, np.eye(3)))[0]
    assert report["cptp_residual"] <= 1e-14
    assert report["selfcomplementary"]


def test_qutrit_family_rejects_non_unitary_parameter():
    with pytest.raises(ValueError, match="unitary"):
        qutrit_family(0.1, np.ones((3, 3)))


def test_ndim_family_reduces_to_theta0(rng):
    for n in range(2, 6):
        w = random_unitary(n, rng)
        ch = ndim_family(n, 0.0, w)
        expected = ndim_theta0(n)
        for a, b in zip(ch, expected):
            assert np.abs(a - b).max() <= 1e-15


def test_ndim_family_matches_qutrit_at_shared_point():
    a = ndim_family(3, 0.0, np.eye(3))
    b = qutrit_family(0.0, np.eye(3))
    for x, y in zip(a, b):
        assert np.abs(x - y).max() <= 1e-15


def test_ndim_family_two_dimensional_case_reports():
    ch = ndim_family(2, 0.7, np.eye(2))
    assert ch.shape == (2, 2, 2)
    report = validate_channel(ch)[0]
    assert report["cptp_residual"] >= 0.0  # report-only contract away from theta = 0


def test_ndim_family_dimension_guard():
    with pytest.raises(ValueError):
        ndim_family(1, 0.0, np.eye(1))
    with pytest.raises(ValueError):
        ndim_theta0(1)


def test_tensor_products_of_family_members_stay_selfcomplementary(rng):
    pool = [
        qubit_family_a(float(rng.uniform(0, np.pi)), float(rng.uniform(0, 2 * np.pi))),
        qubit_family_b(float(rng.uniform(0, np.pi)), float(rng.uniform(0, 2 * np.pi))),
        ndim_theta0(3),
    ]
    for a in pool:
        for b in pool:
            assert selfcomplementarity_defect(tensor_channel(a, b)) <= 1e-12


def test_dft_matrix_is_unitary():
    for n in (2, 3, 5):
        f = dft_matrix(n)
        assert np.abs(f.conj().T @ f - np.eye(n)).max() <= 1e-12


def test_family_table_dispatch():
    assert FAMILIES["qubit-a"].build(0.4, 0.0).shape[0] == 2
    assert FAMILIES["ad"].build(0.25).shape[0] == 2
    assert FAMILIES["ndim-theta0"].build(4).shape[0] == 4
    assert FAMILIES["qutrit"].build(0.0, np.eye(3)).shape[0] == 3
    assert FAMILIES["ndim"].build(4, 0.0, np.eye(4)).shape[0] == 4
    assert FAMILIES["identity"].build().shape[0] == 1


def test_driven_families_build_two_operator_qubit_stacks():
    # dynamics hands each block of a driven family to choi_measures, which
    # takes two-operator qubit stacks (N, 2, 2, 2) and refuses any other shape.
    times = np.linspace(0.0, 5.0, 7)
    driven = {name: row for name, row in FAMILIES.items() if row.schedule is not None}
    assert sorted(driven) == sorted(family_ids("dynamics"))
    for name, row in driven.items():
        assert row.build(row.schedule(1.3, times)).shape == (7, 2, 2, 2), name


def test_random_inputs_spread_through_family(rng):
    # family channels keep states valid
    ch = qubit_family_a(1.0, 1.0)
    for _ in range(5):
        out = apply(ch, random_density_matrix(2, rng))
        validate_states(out[None])
        assert abs(np.trace(out) - 1.0) <= 1e-12


# ------------------------------------- bitwise against the explicit builds


def assert_same_bits(a, b):
    """Equal dtype, shape and bytes: -0.0 differs from +0.0."""
    assert a.dtype == b.dtype and a.shape == b.shape
    assert a.tobytes() == b.tobytes()


def ndim_by_permutation(n, theta, w):
    """The ndim family built with the cyclic permutation matrix P, e_j ->
    e_(j+1), as P^(-i) W = P^(n - i) W, one row of each operator at a time."""
    s, c = np.sin(theta), np.cos(theta)
    ch = c * SQ2
    w = np.asarray(w, dtype=complex)
    p = np.roll(np.eye(n), 1, axis=0)
    ops = np.zeros((n, n, n), dtype=complex)
    ops[0] = np.diag([c] + [ch] * (n - 1))
    for i in range(1, n):
        wp = np.linalg.matrix_power(p, n - i) @ w
        ops[i, 0, i] = ch
        for r in range(1, n - 1):
            ops[i, r, :] = wp[:, r - 1] * s / np.sqrt(n - 2)
        ops[i, n - 1, :] = wp[:, n - 1] * s / np.sqrt(n - 1)
    return ops


def qutrit_by_rows(theta, w):
    """The qutrit family laid out row by row."""
    s, c = np.sin(theta), np.cos(theta)
    ch = c * SQ2
    w = np.asarray(w, dtype=complex)
    shared = [w[0, 1] * s * SQ2, w[1, 1] * s * SQ2, w[2, 1] * s * SQ2]
    k1 = np.diag([c, ch, ch]).astype(complex)
    k2 = np.array([[0.0, ch, 0.0], [w[0, 0] * s, w[1, 0] * s, w[2, 0] * s], shared], dtype=complex)
    k3 = np.array([[0.0, 0.0, ch], shared, [w[0, 2] * s, w[1, 2] * s, w[2, 2] * s]], dtype=complex)
    return np.array([k1, k2, k3])


def qubit_a_by_entries(theta, phi):
    """The first qubit family laid out entry by entry, at one theta or a
    stack of them."""
    theta = np.asarray(theta, dtype=float)
    k = np.zeros(theta.shape + (2, 2, 2), dtype=complex)
    k[..., 0, 0, 0] = np.sin(theta)
    k[..., 0, 1, 1] = SQ2
    k[..., 1, 0, 1] = SQ2
    k[..., 1, 1, 0] = np.cos(theta) * np.exp(1j * phi)
    return k


def qubit_b_by_entries(theta, phi):
    """The second qubit family laid out entry by entry."""
    theta = np.asarray(theta, dtype=float)
    k = np.zeros(theta.shape + (2, 2, 2), dtype=complex)
    k[..., 0, 0, 0] = 1.0
    k[..., 0, 1, 1] = np.sin(theta) * SQ2
    k[..., 1, 0, 1] = np.sin(theta) * SQ2
    k[..., 1, 1, 1] = np.cos(theta) * np.exp(1j * phi)
    return k


def ndim_theta0_by_entries(n):
    """ndim_theta0 laid out entry by entry."""
    k = np.zeros((n, n, n), dtype=complex)
    k[0, 0, 0] = 1.0
    for a in range(1, n):
        k[0, a, a] = SQ2
        k[a, 0, a] = SQ2
    return k


def symmetric_members(rng):
    """(name, Kraus array, its entry-by-entry build) for the four families
    built through the Sym^2 embedding: qubit-a and qubit-b as 1001-theta
    stacks over [0, pi] and at 101 scalar theta, each at five phi; qutrit at
    101 theta for W = 1, -1, Fourier and Haar; ndim-theta0 for n = 2..32."""
    thetas = np.linspace(0.0, np.pi, 1001)
    for phi in (0.0, 0.9, 2.1, 4.4, 2 * np.pi):
        for name, build, by_entries in (("qubit-a", qubit_family_a, qubit_a_by_entries),
                                        ("qubit-b", qubit_family_b, qubit_b_by_entries)):
            yield name, build(thetas, phi), by_entries(thetas, phi)
            for theta in thetas[::10].tolist():
                yield name, build(theta, phi), by_entries(theta, phi)
    for w in (np.eye(3), -np.eye(3, dtype=complex), dft_matrix(3), random_unitary(3, rng)):
        for theta in np.linspace(0.0, np.pi, 101):
            yield "qutrit", qutrit_family(theta, w), qutrit_by_rows(theta, w)
    for n in range(2, 33):
        yield "ndim-theta0", ndim_theta0(n), ndim_theta0_by_entries(n)


def test_symmetric_families_are_bitwise_their_entry_builds(rng):
    count = 0
    for _, kraus, expected in symmetric_members(rng):
        assert_same_bits(kraus, expected)
        count += 1
    assert count == 10 * 102 + 4 * 101 + 31


def test_symmetric_families_are_exactly_symmetric_and_complete(rng):
    # The bytes of K equal those of its complementary tensor, signed zeros
    # included, and every member is complete to within 1e-15.
    for name, kraus, _ in symmetric_members(rng):
        stack = kraus.reshape((-1,) + kraus.shape[-3:])
        assert kraus.tobytes() == kraus.swapaxes(-3, -2).tobytes(), name
        assert completeness_residuals(stack).max() <= 1e-15, name


def unitaries(n, rng):
    """W = identity, Fourier, -identity (every zero part -0.0) and a random
    unitary."""
    return {
        "identity": np.eye(n),
        "fourier": dft_matrix(n),
        "minus-identity": -np.eye(n, dtype=complex),
        "random": random_unitary(n, rng),
    }


@pytest.mark.parametrize("n", range(2, 9))
def test_ndim_family_is_bitwise_the_permutation_build(rng, n):
    for w in unitaries(n, rng).values():
        for theta in (0.0, 0.5, np.pi):
            assert_same_bits(ndim_family(n, theta, w), ndim_by_permutation(n, theta, w))


def test_qutrit_family_is_bitwise_the_row_build(rng):
    ws = [*unitaries(3, rng).values(), dft_matrix(3).conj()]
    ws += [random_unitary(3, rng) for _ in range(7)]
    thetas = np.linspace(0.0, np.pi, 12)
    for w in ws:
        for theta in thetas:
            assert_same_bits(qutrit_family(theta, w), qutrit_by_rows(theta, w))
    assert len(ws) * len(thetas) == 144


def test_decay_schedule_is_bitwise_the_per_sample_loop(rng):
    # One grid saturates: p is exactly 1.0 from t = 0.9375 on.
    grids = [(40.0, np.linspace(0.0, 30.0, 8193))]
    for _ in range(250):
        omega = 10.0 ** rng.uniform(-3.0, 3.0)
        n = int(rng.integers(1, 600))
        times = np.linspace(0.0, 10.0 ** rng.uniform(-2.0, 2.0), n)
        grids.append((omega, times if rng.random() < 0.5 else np.sort(rng.uniform(0.0, 50.0, n))))
    decay = FAMILIES["ad"].schedule
    for omega, times in grids:
        loop = np.array([1.0 - math.exp(-omega * t) for t in times.tolist()])
        assert decay(omega, times).tobytes() == loop.tobytes()
    saturated = decay(*grids[0])
    assert (saturated == 1.0).sum() == 8193 - 256 and saturated[255] < 1.0
