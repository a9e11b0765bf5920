import numpy as np
import pytest

from qchan import (
    amplitude_damping,
    apply,
    channel_rank,
    choi_matrix,
    dephasing,
    dft_matrix,
    hermitian_eigenvalues,
    is_selfcomplementary,
    ndim_family,
    ndim_theta0,
    qubit_family_a,
    qubit_family_b,
    qutrit_family,
    tensor_channel,
    validate_channel,
    validate_states,
)
from qchan.channels import completeness_residuals
from qchan.families import FAMILIES

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
                assert is_selfcomplementary(ch, 1e-12)


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
    assert is_selfcomplementary(amplitude_damping(0.5), 1e-12)
    assert not is_selfcomplementary(amplitude_damping(0.3), 1e-6)


def test_dephasing_alias():
    for a, b in zip(dephasing(), qubit_family_b(0.0, 0.0)):
        assert np.array_equal(a, b)


def test_ndim_theta0_structure_and_validity():
    for n in range(2, 7):
        ch = ndim_theta0(n)
        assert completeness_residuals(ch[None])[0] <= 1e-15
        assert is_selfcomplementary(ch, 1e-12)
        assert channel_rank(choi_matrix(ch), 1e-10) == n
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
    ok = validate_channel(qutrit_family(0.0, np.eye(3)))
    assert ok.cptp_ok and ok.cptp_residual <= 1e-12
    # Away from theta = 0 this parameterization fails completeness; the
    # report carries the residual instead of asserting.
    report = validate_channel(qutrit_family(np.pi / 4, np.eye(3)))
    assert not report.cptp_ok
    assert abs(report.cptp_residual - 0.5) <= 1e-12


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
    report = validate_channel(ch)
    assert report.cptp_residual >= 0.0  # report-only contract away from theta = 0


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
            assert is_selfcomplementary(tensor_channel(a, b), 1e-12)


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


def test_random_inputs_spread_through_family(rng):
    # family channels keep states valid
    ch = qubit_family_a(1.0, 1.0)
    for _ in range(5):
        out = apply(ch, random_density_matrix(2, rng))
        validate_states(out[None])
        assert abs(np.trace(out) - 1.0) <= 1e-12
