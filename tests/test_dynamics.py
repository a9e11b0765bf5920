import math

import numpy as np
import pytest

from qchan import (
    affine_of_channel,
    amplitude_damping,
    apply,
    bloch_image,
    coherent_information,
    fibonacci_sphere,
    identity_channel,
    increase_duration,
    positive_variation,
    qubit_family_a,
    qubit_family_b,
    run_trajectory,
)
from qchan.channels import require_cptp_stack
from qchan.dynamics import _transfer_matrices
from qchan.families import FAMILIES
from qchan.linalg import STACK_BLOCK
from qchan.measures import ENTROPY_EIGENVALUE_FLOOR, choi_measures

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
# at a time, on LAPACK: the stacked results must equal it bit for bit where
# they still take the same arithmetic, and within 1e-15 where they take the
# 2 x 2 closed forms.  The driven families' Kraus operators are written out
# from their definitions with math, not taken from qchan's constructors.


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
    linear, shift = affine_of_channel(qubit_family_b(0.0))
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
        # The Bloch vectors tr(sigma_i rho) of the output and the input.
        direct, r = np.einsum("iab,nba->ni", PAULIS, [apply(ch, rho), rho]).real
        assert np.abs(direct - (linear @ r + shift)).max() <= 1e-10


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
    assert abs(np.trace(PAULIS[2] @ out).real + 0.5) <= 1e-12
    assert abs(pts[:, 2].mean() + 0.5) <= 0.01


# ------------------------------------------------------- trajectories


def test_trajectory_negativity_record_matches_closed_form():
    times, _, (negativity, _, _) = run_trajectory("qubit-a", omega=1.0, t_max=math.pi, n_steps=257)
    expected = np.abs(np.cos(2.0 * times)) / 4.0
    assert np.abs(negativity - expected).max() <= 1e-9


def test_trajectory_two_step_grid():
    times, parameter, records = run_trajectory("qubit-a", omega=1.0, t_max=1.0, n_steps=2)
    assert times.shape == parameter.shape == (2,) and records.shape == (3, 2)
    assert times[0] == 0.0 and times[-1] == 1.0


def test_trajectory_reparameterization_invariance():
    _, slow_param, slow = run_trajectory("qubit-a", omega=1.0, t_max=math.pi, n_steps=65)
    _, fast_param, fast = run_trajectory("qubit-a", omega=2.0, t_max=math.pi / 2.0, n_steps=65)
    assert np.abs(slow_param - fast_param).max() <= 1e-12
    assert np.abs(slow[0] - fast[0]).max() <= 1e-12  # negativity
    assert np.abs(slow[2] - fast[2]).max() <= 1e-12  # map entropy


def test_trajectory_argument_validation():
    with pytest.raises(ValueError):
        run_trajectory("qubit-a", 1.0, math.pi, 1)
    with pytest.raises(ValueError):
        run_trajectory("qubit-a", -1.0, math.pi, 8)
    with pytest.raises(ValueError, match="unknown trajectory family"):
        run_trajectory("bogus", 1.0, math.pi, 8)


@pytest.mark.parametrize("t_max", [1e-320, 5e-324])
def test_trajectory_refuses_a_grid_with_repeated_samples(t_max, monkeypatch):
    # linspace of 4097 subnormal samples repeats values; the grid is refused
    # before any channel is built.
    def refuse(*args, **kwargs):
        raise AssertionError("measures evaluated")

    monkeypatch.setattr("qchan.dynamics.choi_measures", refuse)
    message = "^times must be strictly ascending with at least two entries$"
    with pytest.raises(ValueError, match=message):
        run_trajectory("qubit-a", 1.0, t_max, 4097)


def test_positive_variation_of_family_period():
    # 4096 intervals put the kinks and peaks of |cos 2t|/4 exactly on the
    # grid, so the two rises of 1/4 accumulate to exactly 1/2.
    times, _, (negativity, _, _) = run_trajectory("qubit-a", omega=1.0, t_max=math.pi, n_steps=4097)
    assert abs(positive_variation(negativity) - 0.5) <= 1e-6
    assert abs(increase_duration(times, negativity) - math.pi / 2.0) <= 1e-2


def test_positive_variation_stable_under_grid_refinement():
    _, _, coarse = run_trajectory("qubit-a", omega=1.0, t_max=math.pi, n_steps=2049)
    _, _, fine = run_trajectory("qubit-a", omega=1.0, t_max=math.pi, n_steps=4097)
    assert abs(positive_variation(coarse[0]) - positive_variation(fine[0])) <= 1e-6


def test_amplitude_damping_schedule_is_markovian_by_this_witness():
    times, _, (negativity, _, _) = run_trajectory("ad", omega=1.0, t_max=5.0, n_steps=512)
    assert positive_variation(negativity) == 0.0
    assert increase_duration(times, negativity) == 0.0
    # sanity: the record is (1 - p(t)) / 2 = exp(-t) / 2
    expected = np.exp(-times) / 2.0
    assert np.abs(negativity - expected).max() <= 1e-9


def test_constant_record_scores_zero():
    times = np.linspace(0.0, 1.0, 16)
    flat = np.full(16, 0.125)
    assert positive_variation(flat) == 0.0
    assert increase_duration(times, flat) == 0.0


def test_capacity_witness_is_inert_while_entanglement_witness_fires(rng):
    times, _, (negativity, _, _) = run_trajectory("qubit-a", omega=1.0, t_max=math.pi, n_steps=33)
    assert positive_variation(negativity) > 0.1
    probes = [np.eye(2) / 2] + [random_density_matrix(2, rng) for _ in range(3)]
    for t in times:
        ch = qubit_family_a(math.fmod(t, math.pi))
        for rho in probes:
            assert abs(coherent_information(ch, rho)) <= 1e-10


def test_increase_duration_refuses_unaligned_or_unordered_grids():
    times = np.linspace(0.0, 1.0, 8)
    with pytest.raises(ValueError, match="aligned"):
        increase_duration(times, times[:-1])
    with pytest.raises(ValueError, match="ascending"):
        increase_duration(times[::-1], times)
    with pytest.raises(ValueError, match="ascending"):
        increase_duration(np.zeros(8), times)


@pytest.mark.parametrize("family", ["qubit-a", "qubit-b", "ad"])
@pytest.mark.parametrize("n_steps", [2, STACK_BLOCK + 1, 4097])
def test_stacked_trajectory_equals_per_sample_loop_bitwise(family, n_steps):
    # 1025 samples are one block; 4097 are four, the first of 1025 samples.
    _, parameter, records = run_trajectory(family, omega=1.3, t_max=2.9, n_steps=n_steps)
    param, neg, conc, ent = reference_trajectory(family, 1.3, 2.9, n_steps)
    # The per-sample N = 1 calls of the library give the stacked bits.
    singles = np.array([choi_measures(reference_kraus(family, p)[None]) for p in param])
    assert bits(records) == bits(singles[:, :, 0].T)
    # The parameter equals the independent LAPACK loop bit for bit.  The
    # negativity, read off the Gram state, the concurrence and the map
    # entropy are held to the loop's eigvalsh of the partial transpose, its
    # SVD and its eigvalsh of the Choi state.
    assert bits(parameter) == bits(param)
    assert np.abs(records[0] - neg).max() <= 1e-15
    assert np.abs(records[1] - conc).max() <= 1e-15
    assert np.abs(records[2] - ent).max() <= 1e-15


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


def test_stacked_transfer_matrices_equal_each_members_bitwise():
    # 250 stacks of 1 to 12 members with k = 1..5 operators: random channels
    # and, for k >= 2, members of both families padded with zero operators.
    rng = np.random.default_rng(26)
    families = (qubit_family_a, qubit_family_b)
    for trial in range(250):
        k = trial % 5 + 1
        members = []
        for _ in range(rng.integers(1, 13)):
            if k == 1 or rng.random() < 0.5:
                members.append(random_cptp(2, 2, k, rng))
                continue
            theta = rng.choice([rng.uniform(0.0, math.pi), rng.integers(9) * math.pi / 8])
            phi = rng.choice([0.0, rng.uniform(0.0, 2 * math.pi)])
            channel = families[rng.integers(2)](theta, phi)
            members.append(np.concatenate([channel, np.zeros((k - 2, 2, 2))]))
        stack = np.array(members)
        transfers = _transfer_matrices(stack)
        assert transfers.shape == (len(stack), 4, 4)
        for member, transfer in zip(stack, transfers):
            assert bits(transfer) == bits(_transfer_matrices(member[None])[0])
            linear, shift = affine_of_channel(member)
            assert bits(linear) == bits(transfer[1:, 1:]) and bits(shift) == bits(transfer[1:, 0])


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


def test_amplitude_damping_stacked_record_follows_its_closed_forms():
    # ad's Choi partial transpose is an X-matrix, with spectrum {-(1 - p) / 2,
    # (1 - p) / 2, 1 / 2, 1 / 2}: negativity (1 - p) / 2, concurrence sqrt(1 - p).
    _, p, (neg, conc, _) = run_trajectory("ad", omega=0.7, t_max=30.0, n_steps=4097)
    assert np.abs(neg - (1.0 - p) / 2.0).max() <= 5e-16
    assert np.abs(conc - np.sqrt(1.0 - p)).max() <= 5e-16


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


def transfer_matrices(kraus) -> np.ndarray:
    """The Pauli transfer matrices R_ij = tr(sigma_i Phi(sigma_j)) / 2 of a
    stack (N, k, 2, 2) of qubit channels, from their Kraus entries."""
    basis = np.array(PAULI_BASIS)
    images = sum(
        op[:, None] @ basis @ op[:, None].conj().swapaxes(-1, -2) for op in np.moveaxis(kraus, 1, 0)
    )
    return np.einsum("iab,njba->nij", basis, images).real / 2


# CHOI_OF_TRANSFER[i, j] = sigma_j^T (x) sigma_i / 2.
CHOI_OF_TRANSFER = np.array([[np.kron(q.T, p) for q in PAULI_BASIS] for p in PAULI_BASIS]) / 2


def intermediate_chois(family, n_steps):
    """For each interval of a grid of n_steps samples of one period: whether
    R(t1) is singular; and, for the other intervals, the Choi matrices (trace
    2) of the intermediate maps R(t2) R(t1)^-1."""
    driven = FAMILIES[family]
    times = np.linspace(0.0, math.pi, n_steps)
    transfers = transfer_matrices(driven.build(driven.schedule(1.0, times)))
    singular = np.abs(np.linalg.det(transfers[:-1])) < SINGULAR_DET
    maps = transfers[1:][~singular] @ np.linalg.inv(transfers[:-1][~singular])
    return singular, np.einsum("nij,ijxy->nxy", maps, CHOI_OF_TRANSFER)


def intermediate_maps(family):
    """For each interval of the grid: whether R(t1) is singular, and the
    smallest Choi eigenvalue of the intermediate map (nan where singular)."""
    singular, chois = intermediate_chois(family, DIVISIBILITY_STEPS)
    lowest = np.full(singular.shape, np.nan)
    lowest[~singular] = np.linalg.eigvalsh(chois).min(axis=-1)
    return singular, lowest


@pytest.mark.parametrize("row", [0, 1], ids=["negativity", "concurrence"])
@pytest.mark.parametrize("family", ["qubit-a", "qubit-b"])
def test_every_rise_of_a_record_has_a_non_cp_intermediate_map(family, row):
    _, _, records = run_trajectory(family, 1.0, math.pi, DIVISIBILITY_STEPS)
    rising = np.diff(records[row]) > 0
    singular, lowest = intermediate_maps(family)
    assert rising.sum() >= DIVISIBILITY_STEPS // 4  # the witness fires on this grid
    not_cp = singular | (np.nan_to_num(lowest, nan=0.0) < -CP_TOL)
    assert not (rising & ~not_cp).any()


def test_amplitude_damping_intermediate_maps_are_cp():
    singular, lowest = intermediate_maps("ad")
    assert not singular.any()
    assert lowest.min() >= -CP_TOL


# Rivas-Huelga-Plenio: an intermediate map is |J|_1 - 1 away from CP, for J
# its unit-trace Choi state, and the measure sums this over the intervals.
# For qubit-a it diverges.  det R(t) vanishes at t = pi/4 and 3 pi/4, where
# the two skipped intervals start, and near each such t* the terms fall off
# as 1 / |t - t*|, so each doubling of the grid adds ln 2 per point.  Over
# the grids below the sums are 9.936, 11.332, 12.723, 14.112 and 15.499,
# and the increments 1.3960, 1.3911, 1.3887 and 1.3875 approach
# 2 ln 2 = 1.3863: their excess halves with each doubling (ratios 0.4987 to
# 0.4993, 1.2e-3 at the last), the 1 / N error of a Riemann sum, so the
# limit is 2 ln 2.  The largest term approaches 1 from below.
RHP_GRIDS = (257, 513, 1025, 2049, 4097)
RHP_RATIO_TOL = 0.01


def rhp_terms(family, n_steps):
    """|J|_1 - 1 of the intermediate map of each interval whose start is not
    singular, and the number of singular starts."""
    singular, chois = intermediate_chois(family, n_steps)
    return np.abs(np.linalg.eigvalsh(chois / 2)).sum(axis=-1) - 1.0, int(singular.sum())


def test_rhp_measure_of_qubit_a_diverges_logarithmically():
    sums = []
    for n_steps in RHP_GRIDS:
        terms, skipped = rhp_terms("qubit-a", n_steps)
        assert skipped == 2 and terms.max() <= 1.0
        sums.append(terms.sum())
    excess = np.diff(sums) - 2 * math.log(2)
    assert (excess > 0).all()
    assert np.abs(excess[1:] / excess[:-1] - 0.5).max() <= RHP_RATIO_TOL
    assert excess[-1] <= 1.3e-3


def test_rhp_measure_of_amplitude_damping_is_zero():
    terms, skipped = rhp_terms("ad", RHP_GRIDS[-1])
    assert skipped == 0 and abs(terms.sum()) <= 1e-12


# The trace distance of the images of the antipodal pair (1 +- e_i . sigma) / 2
# is |M(t) e_i|, for M the linear part of the affine form.  Its extrema sit
# at multiples of pi/4, which lie on every grid of 2^k + 1 samples of
# [0, pi]: there the positive variation telescopes to the exact rises, and
# refining the grid moves it by rounding only (0.99999999999999978 on each
# axis at every grid below).  The tolerance bounds the rounding of a sum of
# up to 2048 terms, 2048 eps = 4.5e-13.
BLP_GRIDS = (257, 513, 1025, 2049)
BLP_TOL = 1e-12


def test_trace_distance_variation_of_antipodal_pairs_is_one():
    # Breuer-Laine-Piilo: a rise of the distance of two states witnesses
    # memory effects; over one period of qubit-a each axis rises by 1 in total.
    driven = FAMILIES["qubit-a"]
    for n_steps in BLP_GRIDS:
        times = np.linspace(0.0, math.pi, n_steps)
        params = driven.schedule(1.0, times)
        linear = np.array([affine_of_channel(driven.build(p))[0] for p in params])
        distances = np.linalg.norm(linear, axis=1)  # column i is |M(t) e_i|
        for axis in range(3):
            assert abs(positive_variation(distances[:, axis]) - 1.0) <= BLP_TOL
