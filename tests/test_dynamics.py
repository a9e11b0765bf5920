import math

import numpy as np
import pytest

from qchan import (
    DensityMatrix,
    Trajectory,
    affine_of_channel,
    amplitude_damping,
    apply,
    bloch_image,
    bloch_vector,
    coherent_information,
    dephasing,
    density_from_bloch,
    fibonacci_sphere,
    identity_channel,
    increase_duration,
    kraus,
    non_markovianity_measure,
    positive_variation,
    qubit_family_a,
    qubit_family_b,
    random_density_matrix,
    run_trajectory,
    svd_values,
)
from qchan.families import FAMILIES
from qchan.linalg import STACK_BLOCK, sanitize_nonnegative_spectrum
from qchan.measures import ENTROPY_EIGENVALUE_FLOOR, WOOTTERS_EIGENVALUE_FLOOR

PAULIS = (
    np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    np.array([[0.0, -1.0j], [1.0j, 0.0]]),
    np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
)
YY = np.kron(PAULIS[1], PAULIS[1])
SQ2 = 1.0 / math.sqrt(2.0)


def bits(values) -> bytes:
    return np.ascontiguousarray(values, dtype=float).tobytes()


# ---------------------------------------------- per-sample reference loop
#
# The loop that the stacked evaluation replaced, one channel and one state
# at a time, with the same arithmetic: the stacked results must equal it
# bit for bit.  The driven families' Kraus operators are written out from
# their definitions with math, not taken from qchan's constructors.


def reference_kraus(family, param, phi=0.0) -> np.ndarray:
    """Kraus operators (2, 2, 2) of a driven family at one parameter value."""
    if family == "ad":
        k1 = [[1.0, 0.0], [0.0, math.sqrt(1.0 - param)]]
        k2 = [[0.0, math.sqrt(param)], [0.0, 0.0]]
    else:
        s, c = math.sin(param), math.cos(param) * complex(math.cos(phi), math.sin(phi))
        if family == "qubit-a":
            k1 = [[s, 0.0], [0.0, SQ2]]
            k2 = [[0.0, SQ2], [c, 0.0]]
        else:
            k1 = [[1.0, 0.0], [0.0, s * SQ2]]
            k2 = [[0.0, s * SQ2], [0.0, c]]
    return np.array([k1, k2], dtype=complex)


def reference_entropy(ev) -> float:
    ev = ev[ev > ENTROPY_EIGENVALUE_FLOOR]
    return 0.0 - float((ev * np.log(ev)).sum())


def reference_choi_measures(operators) -> tuple[float, float, float]:
    superop = sum(np.kron(op, op.conj()) for op in operators)
    omega = superop.reshape(2, 2, 2, 2).transpose(2, 0, 3, 1).reshape(4, 4) / 2
    pt = omega.reshape(2, 2, 2, 2).transpose(2, 1, 0, 3).reshape(4, 4)
    neg = max(0.0, float((np.abs(np.linalg.eigvalsh(pt)).sum() - 1.0) / 2.0))
    product = omega @ (YY @ omega.conj() @ YY)
    ev = sanitize_nonnegative_spectrum(np.linalg.eigvals(product))
    ev[ev < WOOTTERS_EIGENVALUE_FLOOR * max(1.0, float(np.abs(product).max()))] = 0.0
    lam = np.sqrt(np.sort(ev)[::-1])
    conc = max(0.0, float(lam[0] - lam[1] - lam[2] - lam[3]))
    return neg, conc, reference_entropy(np.linalg.eigvalsh(omega))


def reference_trajectory(family, omega, t_max, n_steps):
    rows = []
    for t in np.linspace(0.0, t_max, n_steps):
        if family == "ad":
            param = 1.0 - math.exp(-omega * float(t))
        else:
            param = math.fmod(omega * float(t), math.pi)
        rows.append((param, *reference_choi_measures(reference_kraus(family, param))))
    return np.array(rows).T


def reference_bloch_image(channel, n_points):
    rows = []
    for r in fibonacci_sphere(n_points):
        rho = 0.5 * (np.eye(2, dtype=complex) + sum(r[i] * PAULIS[i] for i in range(3)))
        out = sum(op @ rho @ np.conj(op).T for op in channel.operators)
        rows.append([float(np.real(np.trace(p @ out))) for p in PAULIS])
    return np.array(rows)


def test_affine_of_unitary_channel(rng):
    from qchan import random_unitary

    u = random_unitary(2, rng)
    linear, shift = affine_of_channel(kraus([u]))
    assert np.abs(svd_values(linear) - 1.0).max() <= 1e-10
    assert np.abs(shift).max() <= 1e-12


def test_affine_of_dephasing():
    linear, shift = affine_of_channel(dephasing())
    assert np.abs(linear - np.diag([0.0, 0.0, 1.0])).max() <= 1e-12
    assert np.abs(shift).max() <= 1e-12


def test_affine_of_line_channel_is_rank_one():
    linear, shift = affine_of_channel(qubit_family_a(math.pi / 4))
    sv = svd_values(linear)
    assert sv[0] > 1e-10
    assert np.abs(sv[1:]).max() <= 1e-10
    assert np.abs(shift).max() <= 1e-12  # bistochastic at pi/4


def test_affine_rejects_non_qubit_channels():
    with pytest.raises(ValueError, match="qubit"):
        affine_of_channel(identity_channel(3))


def test_affine_matches_apply_on_random_states(rng):
    ch = qubit_family_a(0.9, 0.7)
    linear, shift = affine_of_channel(ch)
    for _ in range(100):
        rho = random_density_matrix(2, rng)  # mixed states of varying purity
        direct = bloch_vector(apply(ch, rho))
        via_affine = linear @ bloch_vector(rho) + shift
        assert np.abs(direct - via_affine).max() <= 1e-10


def test_fibonacci_sphere_points_are_unit_and_deterministic():
    pts = fibonacci_sphere(200)
    assert np.abs(np.linalg.norm(pts, axis=1) - 1.0).max() <= 1e-12
    assert np.array_equal(pts, fibonacci_sphere(200))
    with pytest.raises(ValueError):
        fibonacci_sphere(0)


def test_bloch_image_of_identity_is_unit_sphere():
    pts = bloch_image(identity_channel(2), 64)
    assert np.abs(np.linalg.norm(pts, axis=1) - 1.0).max() <= 1e-12


def test_bloch_image_of_line_channel_is_one_dimensional():
    pts = bloch_image(qubit_family_a(math.pi / 4), 500)
    centered = pts - pts.mean(axis=0)
    sv = np.linalg.svd(centered, compute_uv=False)
    assert sv[0] > 1e-3
    assert np.abs(sv[1:]).max() <= 1e-9


def test_bloch_image_centroid_shift_at_theta_zero():
    pts = bloch_image(qubit_family_a(0.0), 500)
    # channel is not bistochastic here: the mixed-state image sits at z = -1/2
    out = apply(qubit_family_a(0.0), DensityMatrix.maximally_mixed(2))
    assert abs(bloch_vector(out)[2] + 0.5) <= 1e-12
    assert abs(pts[:, 2].mean() + 0.5) <= 0.01


def test_density_from_bloch_round_trip(rng):
    r = rng.standard_normal(3)
    r = 0.9 * r / np.linalg.norm(r)
    assert np.abs(bloch_vector(density_from_bloch(r)) - r).max() <= 1e-12
    with pytest.raises(ValueError):
        density_from_bloch([1.5, 0.0, 0.0])


# ------------------------------------------------------- trajectories


def test_trajectory_negativity_record_matches_closed_form():
    traj = run_trajectory("qubit-a", omega=1.0, t_max=math.pi, n_steps=257)
    expected = np.abs(np.cos(2.0 * traj.times)) / 4.0
    assert np.abs(traj.negativity - expected).max() <= 1e-9


def test_trajectory_two_step_grid():
    traj = run_trajectory("qubit-a", omega=1.0, t_max=1.0, n_steps=2)
    assert traj.times.size == 2
    assert traj.times[0] == 0.0 and traj.times[-1] == 1.0


def test_trajectory_reparameterization_invariance():
    slow = run_trajectory("qubit-a", omega=1.0, t_max=math.pi, n_steps=65)
    fast = run_trajectory("qubit-a", omega=2.0, t_max=math.pi / 2.0, n_steps=65)
    assert np.abs(slow.parameter - fast.parameter).max() <= 1e-12
    assert np.abs(slow.negativity - fast.negativity).max() <= 1e-12
    assert np.abs(slow.map_entropy - fast.map_entropy).max() <= 1e-12


def test_trajectory_argument_validation():
    with pytest.raises(ValueError):
        run_trajectory("qubit-a", 1.0, math.pi, 1)
    with pytest.raises(ValueError):
        run_trajectory("qubit-a", -1.0, math.pi, 8)
    with pytest.raises(ValueError, match="unknown trajectory family"):
        run_trajectory("bogus", 1.0, math.pi, 8)


def test_positive_variation_of_family_period():
    # 4096 intervals put the kinks and peaks of |cos 2t|/4 exactly on the
    # grid, so the two rises of 1/4 accumulate to exactly 1/2.
    traj = run_trajectory("qubit-a", omega=1.0, t_max=math.pi, n_steps=4097)
    assert abs(non_markovianity_measure(traj, "negativity") - 0.5) <= 1e-6
    assert abs(increase_duration(traj, "negativity") - math.pi / 2.0) <= 1e-2


def test_positive_variation_stable_under_grid_refinement():
    coarse = run_trajectory("qubit-a", omega=1.0, t_max=math.pi, n_steps=2049)
    fine = run_trajectory("qubit-a", omega=1.0, t_max=math.pi, n_steps=4097)
    a = non_markovianity_measure(coarse, "negativity")
    b = non_markovianity_measure(fine, "negativity")
    assert abs(a - b) <= 1e-6


def test_amplitude_damping_schedule_is_markovian_by_this_witness():
    traj = run_trajectory("ad", omega=1.0, t_max=5.0, n_steps=512)
    assert non_markovianity_measure(traj, "negativity") == 0.0
    assert increase_duration(traj, "negativity") == 0.0
    # sanity: the record is (1 - p(t)) / 2 = exp(-t) / 2
    expected = np.exp(-traj.times) / 2.0
    assert np.abs(traj.negativity - expected).max() <= 1e-9


def test_constant_record_scores_zero():
    times = np.linspace(0.0, 1.0, 16)
    flat = np.full(16, 0.125)
    traj = Trajectory("qubit-a", 1.0, times, flat, flat, flat, flat)
    assert non_markovianity_measure(traj, "negativity") == 0.0
    assert positive_variation(flat) == 0.0


def test_capacity_witness_is_inert_while_entanglement_witness_fires(rng):
    traj = run_trajectory("qubit-a", omega=1.0, t_max=math.pi, n_steps=33)
    assert non_markovianity_measure(traj, "negativity") > 0.1
    probes = [DensityMatrix.maximally_mixed(2)] + [random_density_matrix(2, rng) for _ in range(3)]
    for t in traj.times:
        ch = qubit_family_a(math.fmod(t, math.pi))
        for rho in probes:
            assert abs(coherent_information(ch, rho)) <= 1e-10


def test_trajectory_record_selector():
    traj = run_trajectory("qubit-a", omega=1.0, t_max=1.0, n_steps=4)
    with pytest.raises(ValueError, match="unknown measure"):
        traj.record("fidelity")


def test_trajectory_alignment_validation():
    times = np.linspace(0.0, 1.0, 8)
    with pytest.raises(ValueError, match="aligned"):
        Trajectory("qubit-a", 1.0, times, times, times[:-1], times, times)
    with pytest.raises(ValueError, match="ascending"):
        Trajectory("qubit-a", 1.0, times[::-1], times, times, times, times)


@pytest.mark.parametrize("family", ["qubit-a", "qubit-b", "ad"])
@pytest.mark.parametrize("n_steps", [2, STACK_BLOCK + 1, 4097])
def test_stacked_trajectory_equals_per_sample_loop_bitwise(family, n_steps):
    # 257 and 4097 samples end in a partial block of one sample.
    traj = run_trajectory(family, omega=1.3, t_max=2.9, n_steps=n_steps)
    param, neg, conc, ent = reference_trajectory(family, 1.3, 2.9, n_steps)
    assert bits(traj.parameter) == bits(param)
    assert bits(traj.negativity) == bits(neg)
    assert bits(traj.concurrence) == bits(conc)
    assert bits(traj.map_entropy) == bits(ent)


@pytest.mark.parametrize("family", ["qubit-a", "qubit-b", "ad"])
def test_stacked_constructors_equal_written_out_operators_bitwise(family):
    hi = 1.0 if family == "ad" else math.pi
    rng = np.random.default_rng(7)
    values = np.concatenate([[0.0, hi], np.linspace(0.0, hi, 1001), rng.uniform(0.0, hi, 1000)])
    stack = FAMILIES[family].stack
    for phi in [0.0] if family == "ad" else [0.0, 0.7, 2 * math.pi]:
        got = stack(values) if family == "ad" else stack(values, phi)
        expected = np.array([reference_kraus(family, float(v), phi) for v in values])
        assert got.shape == (values.size, 2, 2, 2)
        assert got.tobytes() == expected.tobytes()
        single = FAMILIES[family].build(*[values[3]] + ([] if family == "ad" else [phi]))
        assert np.array(single.operators).tobytes() == expected[3].tobytes()


@pytest.mark.parametrize("family", ["qubit-a", "qubit-b", "ad"])
def test_stacked_constructors_refuse_the_first_bad_value_like_one_channel(family):
    hi = 1.0 if family == "ad" else math.pi
    row = FAMILIES[family]
    for bad in (hi + 1e-9, -1e-12, math.nan):
        values = np.linspace(0.0, hi, 9)
        values[4] = bad
        with pytest.raises(ValueError) as single:
            row.build(bad)
        with pytest.raises(ValueError) as stacked:
            row.stack(values)
        assert str(stacked.value) == str(single.value)
    values = np.array([0.5, -1e-12, math.nan, hi + 1e-9])
    with pytest.raises(ValueError) as single:
        row.build(-1e-12)
    with pytest.raises(ValueError) as stacked:
        row.stack(values)
    assert str(stacked.value) == str(single.value)


@pytest.mark.parametrize(
    "channel",
    [qubit_family_a(0.0), qubit_family_a(1.1, 2.3), qubit_family_b(2.7, 0.4), identity_channel(2)],
)
@pytest.mark.parametrize("n_points", [1, STACK_BLOCK, 600])
def test_stacked_bloch_image_equals_per_point_loop_bitwise(channel, n_points):
    image = bloch_image(channel, n_points)
    assert image.shape == (n_points, 3)
    assert bits(image) == bits(reference_bloch_image(channel, n_points))


def test_trajectory_rejects_non_finite_arguments():
    for omega, t_max in ((math.nan, 1.0), (1.0, math.inf), (1e200, 1e200)):
        with pytest.raises(ValueError, match="finite"):
            run_trajectory("qubit-a", omega, t_max, 8)


def test_amplitude_damping_choi_negativity_closed_form():
    # independent anchor for the "ad" trajectory: Neg = (1 - p) / 2
    from qchan import choi_state, negativity

    for p in (0.0, 0.3, 0.8):
        got = negativity(choi_state(amplitude_damping(p)), (2, 2))
        assert abs(got - (1.0 - p) / 2.0) <= 1e-12
