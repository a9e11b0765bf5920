import math

import numpy as np
import pytest

from qchan import (
    Trajectory,
    affine_of_channel,
    amplitude_damping,
    apply,
    bloch_image,
    bloch_vector,
    coherent_information,
    dephasing,
    fibonacci_sphere,
    identity_channel,
    increase_duration,
    non_markovianity_measure,
    positive_variation,
    qubit_family_a,
    qubit_family_b,
    run_trajectory,
)
from qchan.channels import require_cptp_stack
from qchan.families import FAMILIES
from qchan.linalg import STACK_BLOCK
from qchan.measures import ENTROPY_EIGENVALUE_FLOOR

from conftest import random_cptp, random_density_matrix, random_unitary

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
    # Wootters' lambdas as singular values of tau = V^T YY V; V's columns
    # are the vectorised K_a / sqrt(2) in the Choi ordering.
    rows = np.array([op.T.reshape(-1) for op in operators])
    lam = np.linalg.svd(rows @ YY @ rows.T / 2, compute_uv=False)
    conc = max(0.0, float(lam[0] - lam[1:4].sum()))
    # The map entropy from the Gram state G / 2, G_ab = tr(K_a^dagger K_b).
    flat = np.array([op.reshape(-1) for op in operators])
    gram = flat.conj() @ flat.T
    return neg, conc, reference_entropy(np.linalg.eigvalsh((gram + gram.conj().T) / 2 / 2))


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
    linear, shift = affine_of_channel(channel)
    points = fibonacci_sphere(n_points)
    return np.array([shift + sum(r[j] * linear[:, j] for j in range(3)) for r in points])


def kraus_route_bloch_image(channel, n_points):
    """Each sampled pure state pushed through the Kraus operators, and its
    Pauli expectation values read off: no affine form."""
    rows = []
    for r in fibonacci_sphere(n_points):
        rho = 0.5 * (np.eye(2, dtype=complex) + sum(r[i] * PAULIS[i] for i in range(3)))
        out = sum(op @ rho @ np.conj(op).T for op in channel)
        rows.append([float(np.real(np.trace(p @ out))) for p in PAULIS])
    return np.array(rows)


def test_affine_of_unitary_channel(rng):
    u = random_unitary(2, rng)
    linear, shift = affine_of_channel(u[None])
    assert np.abs(np.linalg.svd(linear, compute_uv=False) - 1.0).max() <= 1e-10
    assert np.abs(shift).max() <= 1e-12


def test_affine_of_dephasing():
    linear, shift = affine_of_channel(dephasing())
    assert np.abs(linear - np.diag([0.0, 0.0, 1.0])).max() <= 1e-12
    assert np.abs(shift).max() <= 1e-12


def test_affine_of_line_channel_is_rank_one():
    linear, shift = affine_of_channel(qubit_family_a(math.pi / 4))
    sv = np.linalg.svd(linear, compute_uv=False)
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
    out = apply(qubit_family_a(0.0), np.eye(2) / 2)
    assert abs(bloch_vector(out)[2] + 0.5) <= 1e-12
    assert abs(pts[:, 2].mean() + 0.5) <= 0.01


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
    probes = [np.eye(2) / 2] + [random_density_matrix(2, rng) for _ in range(3)]
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
    build = FAMILIES[family].build
    for phi in [0.0] if family == "ad" else [0.0, 0.7, 2 * math.pi]:
        got = build(values) if family == "ad" else build(values, phi)
        expected = np.array([reference_kraus(family, float(v), phi) for v in values])
        assert got.shape == (values.size, 2, 2, 2)
        assert got.tobytes() == expected.tobytes()
        single = build(*[values[3]] + ([] if family == "ad" else [phi]))
        assert single.shape == (2, 2, 2)
        assert single.tobytes() == expected[3].tobytes()


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
            row.build(values)
        assert str(stacked.value) == str(single.value)
    values = np.array([0.5, -1e-12, math.nan, hi + 1e-9])
    with pytest.raises(ValueError) as single:
        row.build(-1e-12)
    with pytest.raises(ValueError) as stacked:
        row.build(values)
    assert str(stacked.value) == str(single.value)


@pytest.mark.parametrize(
    "channel",
    [qubit_family_a(0.0), qubit_family_a(1.1, 2.3), qubit_family_b(2.7, 0.4), identity_channel(2)],
)
# bloch_image maps a whole point cloud at once; it does not use STACK_BLOCK.
@pytest.mark.parametrize("n_points", [1, 256, 600])
def test_stacked_bloch_image_equals_per_point_loop_bitwise(channel, n_points):
    image = bloch_image(channel, n_points)
    assert image.shape == (n_points, 3)
    assert bits(image) == bits(reference_bloch_image(channel, n_points))


def bloch_channels():
    """Both qubit families at theta = k pi/8 and two phases, random channels
    of 1 to 5 Kraus operators, and the identity."""
    rng = np.random.default_rng(29)
    chans = [
        family(k * math.pi / 8, phi)
        for family in (qubit_family_a, qubit_family_b)
        for k in range(9)
        for phi in (0.0, 1.234)
    ]
    return chans + [random_cptp(2, 2, k, rng) for k in range(1, 6)] + [identity_channel(2)]


def test_bloch_image_matches_the_kraus_route():
    # The affine form against each state pushed through the Kraus operators,
    # at the benchmark's Bloch tolerance.
    for channel in bloch_channels():
        image = bloch_image(channel, 256)
        assert np.abs(image - kraus_route_bloch_image(channel, 256)).max() <= 1e-12


def test_bloch_image_accepts_a_nearly_trace_preserving_channel():
    # The completeness residual 5e-11 passes the tolerance 1e-10: the channel
    # is accepted, and its images are not re-judged at the trace tolerance.
    scale = 1 + 5e-11
    channel = math.sqrt(scale) * np.eye(2, dtype=complex)[None]
    require_cptp_stack(channel[None])
    points = fibonacci_sphere(10)
    assert np.abs(bloch_image(channel, 10) - scale * points).max() <= 1e-12
    linear, shift = affine_of_channel(channel)
    assert np.abs(linear - scale * np.eye(3)).max() <= 1e-12 and np.abs(shift).max() <= 1e-12
    with pytest.raises(ValueError, match="not trace preserving"):
        bloch_image(1.001 * np.eye(2, dtype=complex)[None], 10)


def test_bloch_image_needs_no_eigensolver(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("eigensolver called")

    for name in ("eigvalsh", "eigvals", "eigh", "eig", "svd"):
        monkeypatch.setattr(np.linalg, name, refuse)
    for channel in bloch_channels():
        bloch_image(channel, 300)


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


# ------------------------------------- CP-divisibility behind the witness
#
# A rise of an entanglement record of the Choi state between t1 and t2 is
# impossible when the intermediate map Phi_t2 Phi_t1^-1 is completely
# positive, since a CP map on one side cannot raise entanglement.  The
# intermediate map's Pauli transfer matrix is R(t2) R(t1)^-1, and its Choi
# matrix, on (input copy) (x) (output), is 1/2 sum_ij M_ij sigma_j^T (x) sigma_i.

DIVISIBILITY_STEPS = 513  # samples of one period at omega = 1
SINGULAR_DET = 1e-12
CP_TOL = 1e-12
PAULI_BASIS = (np.eye(2, dtype=complex),) + PAULIS


def transfer_matrix(channel) -> np.ndarray:
    """The 4 x 4 Pauli transfer matrix of a trace-preserving qubit channel."""
    linear, shift = affine_of_channel(channel)
    r = np.zeros((4, 4))
    r[0, 0] = 1.0
    r[1:, 0] = shift
    r[1:, 1:] = linear
    return r


def choi_of_transfer(m) -> np.ndarray:
    return sum(
        m[i, j] * np.kron(PAULI_BASIS[j].T, PAULI_BASIS[i]) for i in range(4) for j in range(4)
    ) / 2


def intermediate_maps(family):
    """For each interval of the grid: whether R(t1) is singular, and the
    smallest Choi eigenvalue of the intermediate map (nan where singular)."""
    times = np.linspace(0.0, math.pi, DIVISIBILITY_STEPS)
    driven = FAMILIES[family]
    transfers = [transfer_matrix(driven.build(p)) for p in driven.schedule(1.0, times)]
    singular = np.array([abs(np.linalg.det(r)) < SINGULAR_DET for r in transfers[:-1]])
    lowest = np.full(singular.shape, np.nan)
    for i in np.flatnonzero(~singular):
        m = transfers[i + 1] @ np.linalg.inv(transfers[i])
        lowest[i] = np.linalg.eigvalsh(choi_of_transfer(m)).min()
    return singular, lowest


@pytest.mark.parametrize("measure", ["negativity", "concurrence"])
@pytest.mark.parametrize("family", ["qubit-a", "qubit-b"])
def test_every_rise_of_a_record_has_a_non_cp_intermediate_map(family, measure):
    traj = run_trajectory(family, 1.0, math.pi, DIVISIBILITY_STEPS)
    rising = np.diff(traj.record(measure)) > 0
    singular, lowest = intermediate_maps(family)
    assert rising.sum() >= DIVISIBILITY_STEPS // 4  # the witness fires on this grid
    not_cp = singular | (np.nan_to_num(lowest, nan=0.0) < -CP_TOL)
    assert not (rising & ~not_cp).any()


def test_amplitude_damping_intermediate_maps_are_cp():
    singular, lowest = intermediate_maps("ad")
    assert not singular.any()
    assert lowest.min() >= -CP_TOL
