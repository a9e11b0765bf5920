import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from qchan import (
    DensityMatrix,
    Ensemble,
    amplitude_damping,
    apply,
    capacity_lower_bounds,
    channel_rank,
    choi_matrix,
    choi_state,
    choi_states,
    classical_capacity_lower_bound,
    coherent_information,
    concurrence,
    concurrence_closed_form,
    concurrence_from_negativity,
    dephasing,
    dft_matrix,
    entanglement_evolution_factor,
    holevo_chi,
    identity_channel,
    kraus,
    map_entropies,
    map_entropy,
    ndim_family,
    negativities,
    negativity,
    negativity_closed_form,
    ndim_theta0,
    qubit_family_a,
    qubit_family_b,
    qutrit_family,
    random_cptp,
    random_density_matrix,
    spin_flip,
    validate_channel,
    validate_states,
    von_neumann_entropies,
    von_neumann_entropy,
    wootters_spectrum,
)
from qchan.families import FAMILIES
from qchan.linalg import STACK_BLOCK
from qchan.measures import ENTROPY_EIGENVALUE_FLOOR

from conftest import bell_state, pure_concurrence, x_state_concurrence

LN2 = math.log(2.0)
# High-precision anchors, each derived analytically:
#   S(diag(1/4, 3/4)) and chi = S(diag(1/4, 3/4)) - ln(2)/2
ANCHOR_ENTROPY = 0.25 * math.log(4.0) + 0.75 * math.log(4.0 / 3.0)
ANCHOR_CHI = ANCHOR_ENTROPY - LN2 / 2.0

GRID = np.linspace(0.0, math.pi / 2.0, 100)


def basis_states(dim=2):
    return [DensityMatrix.pure(np.eye(dim)[:, i]) for i in range(dim)]


# ------------------------------------------------------------ entropy


def test_entropy_of_pure_state_is_zero(rng):
    v = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    assert von_neumann_entropy(DensityMatrix.pure(v)) <= 1e-12


def test_entropy_anchor_value():
    s = von_neumann_entropy(DensityMatrix(np.diag([0.25, 0.75]).astype(complex)))
    assert abs(s - 0.56233) <= 1e-4
    assert abs(s - ANCHOR_ENTROPY) <= 1e-12


def test_entropy_of_maximally_mixed():
    assert abs(von_neumann_entropy(DensityMatrix.maximally_mixed(2)) - LN2) <= 1e-12


def test_entropy_rejects_non_state():
    with pytest.raises(ValueError):
        von_neumann_entropy(np.diag([1.5, -0.5]))


def test_map_entropy_values():
    assert map_entropy(identity_channel(2)) <= 1e-12
    paulis = [
        np.eye(2, dtype=complex),
        np.array([[0, 1], [1, 0]], dtype=complex),
        np.array([[0, -1j], [1j, 0]]),
        np.array([[1, 0], [0, -1]], dtype=complex),
    ]
    depolarizing = kraus([p / 2 for p in paulis])
    assert abs(map_entropy(depolarizing) - math.log(4.0)) <= 1e-12
    assert abs(map_entropy(qubit_family_a(0.0)) - ANCHOR_ENTROPY) <= 1e-12


def test_map_entropy_refuses_broken_channels():
    with pytest.raises(ValueError, match="trace preserving"):
        map_entropy(qutrit_family(np.pi / 4, np.eye(3)))


def test_map_entropy_equals_output_entropy_of_maximally_mixed():
    for theta in GRID:
        ch = qubit_family_a(float(theta))
        out = apply(ch, DensityMatrix.maximally_mixed(2))
        assert abs(map_entropy(ch) - von_neumann_entropy(out)) <= 1e-9


def test_map_entropy_bounds_for_family_members():
    for theta in GRID:
        s = map_entropy(qubit_family_a(float(theta)))
        assert 0.5 * LN2 <= s <= LN2 + 1e-12
        assert s - 0.5 * LN2 >= 0.2
    for n in range(2, 7):
        s = map_entropy(ndim_theta0(n))
        assert 0.5 * math.log(n) - 1e-12 <= s <= math.log(n) + 1e-12


# ------------------------------------------------- coherent information


def test_coherent_information_vanishes_for_selfcomplementary(rng):
    for ch in (qubit_family_a(0.35, 1.1), qubit_family_b(2.0, 0.4), ndim_theta0(3)):
        for _ in range(25):
            rho = random_density_matrix(ch.n_in, rng)
            assert abs(coherent_information(ch, rho)) <= 1e-10


def test_coherent_information_of_identity():
    got = coherent_information(identity_channel(2), DensityMatrix.maximally_mixed(2))
    assert abs(got - LN2) <= 1e-12


def test_coherent_information_of_dephasing_on_classical_input():
    # dephasing is self-complementary, so system and environment outputs
    # coincide and the coherent information is exactly zero.
    rho = DensityMatrix(np.diag([0.2, 0.8]).astype(complex))
    assert abs(coherent_information(dephasing(), rho)) <= 1e-12


# ------------------------------------------------------------ Holevo


def test_holevo_chi_of_identical_states():
    rho = DensityMatrix.maximally_mixed(2)
    assert holevo_chi(Ensemble((0.5, 0.5), (rho, rho))) <= 1e-12


def test_holevo_chi_of_orthogonal_pure_states():
    ens = Ensemble((0.5, 0.5), tuple(basis_states()))
    assert abs(holevo_chi(ens) - LN2) <= 1e-12


def test_holevo_chi_anchor():
    ch = qubit_family_a(0.0)
    outputs = tuple(apply(ch, s) for s in basis_states())
    chi = holevo_chi(Ensemble((0.5, 0.5), outputs))
    assert abs(chi - 0.215761) <= 1e-5
    assert abs(chi - ANCHOR_CHI) <= 1e-12


def test_holevo_chi_nonnegative_on_random_ensembles(rng):
    for _ in range(30):
        states = tuple(random_density_matrix(2, rng) for _ in range(3))
        w = rng.random(3)
        w = w / w.sum()
        assert holevo_chi(Ensemble(tuple(w), states)) >= -1e-12


def test_ensemble_validation():
    rho = DensityMatrix.maximally_mixed(2)
    with pytest.raises(ValueError, match="sum"):
        Ensemble((0.5, 0.4), (rho, rho))
    with pytest.raises(ValueError, match="nonnegative"):
        Ensemble((1.5, -0.5), (rho, rho))
    with pytest.raises(ValueError, match="dimensions"):
        Ensemble((0.5, 0.5), (rho, DensityMatrix.maximally_mixed(3)))


def test_capacity_bound_anchor_and_positivity():
    assert abs(
        classical_capacity_lower_bound(qubit_family_a(0.0), basis_states()) - ANCHOR_CHI
    ) <= 1e-5
    assert abs(classical_capacity_lower_bound(dephasing(), basis_states()) - LN2) <= 1e-12
    for theta in GRID:
        chi = classical_capacity_lower_bound(qubit_family_a(float(theta)), basis_states())
        assert chi > 0.0


def test_capacity_bound_rejects_bad_alphabets():
    plus = DensityMatrix.pure([1.0, 1.0])
    with pytest.raises(ValueError, match="overlap"):
        classical_capacity_lower_bound(qubit_family_a(0.3), [basis_states()[0], plus])
    mixed = DensityMatrix.maximally_mixed(2)
    with pytest.raises(ValueError, match="pure"):
        classical_capacity_lower_bound(qubit_family_a(0.3), [mixed])
    # The first failure in state order is reported, also past the first pair.
    e = [DensityMatrix.pure(v) for v in np.eye(3)]
    tilted = DensityMatrix.pure([0.0, 1.0, 1.0])
    mixed = DensityMatrix.maximally_mixed(3)
    with pytest.raises(ValueError, match=r"basis states 1 and 2 overlap by 5\.000e-01"):
        classical_capacity_lower_bound(ndim_theta0(3), [e[0], e[1], tilted, mixed])
    diagonal = DensityMatrix.pure([1.0, 1.0, 1.0])
    with pytest.raises(ValueError, match=r"basis states 0 and 2 overlap by 3\.333e-01"):
        classical_capacity_lower_bound(ndim_theta0(3), [e[0], e[1], diagonal])
    with pytest.raises(ValueError, match="basis state 2 is not pure"):
        classical_capacity_lower_bound(ndim_theta0(3), [e[0], e[1], mixed, tilted])


# ------------------------------------------------------- entanglement


def test_spin_flip_examples():
    bell = bell_state()
    assert np.abs(spin_flip(bell) - bell).max() <= 1e-12
    ket00 = np.zeros((4, 4), dtype=complex)
    ket00[0, 0] = 1.0
    ket11 = np.zeros((4, 4), dtype=complex)
    ket11[3, 3] = 1.0
    assert np.abs(spin_flip(ket00) - ket11).max() <= 1e-12
    with pytest.raises(ValueError, match="4x4"):
        spin_flip(np.eye(2))


def test_wootters_spectrum_of_family_point():
    lam = wootters_spectrum(choi_state(qubit_family_a(0.0)))
    assert abs(lam[0] - math.sqrt(0.5)) <= 1e-12
    assert np.abs(lam[1:]).max() <= 1e-12


def test_concurrence_of_bell_state():
    assert abs(concurrence(bell_state()) - 1.0) <= 1e-12


def test_concurrence_at_entanglement_breaking_point():
    assert concurrence(choi_state(qubit_family_a(math.pi / 4))) <= 1e-9


def test_concurrence_of_family_endpoint():
    got = concurrence(choi_state(qubit_family_a(0.0)))
    assert abs(got - 1.0 / math.sqrt(2.0)) <= 1e-12


def test_concurrence_against_pure_state_oracle(rng):
    for _ in range(25):
        v = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        v /= np.linalg.norm(v)
        got = concurrence(DensityMatrix.pure(v))
        assert abs(got - pure_concurrence(v)) <= 1e-10


def test_concurrence_against_x_state_oracle(rng):
    for theta in np.linspace(0.0, math.pi / 2.0, 25):
        omega = choi_state(qubit_family_a(float(theta)))
        assert abs(concurrence(omega) - x_state_concurrence(omega.matrix)) <= 1e-10
    for _ in range(20):
        # random X-shaped states
        d = rng.random(4)
        d /= d.sum()
        z = min(math.sqrt(d[1] * d[2]), math.sqrt(d[0] * d[3])) * rng.random()
        m = np.diag(d).astype(complex)
        m[1, 2] = m[2, 1] = z
        omega = DensityMatrix(m)
        assert abs(concurrence(omega) - x_state_concurrence(m)) <= 1e-10


def test_concurrence_closed_form_matches_numeric_on_grid():
    for theta in list(GRID) + [math.pi / 4]:
        omega = choi_state(qubit_family_a(float(theta)))
        assert abs(concurrence(omega) - concurrence_closed_form(float(theta))) <= 1e-9


def test_concurrence_closed_form_values_and_domain():
    root = 1.0 / math.sqrt(2.0)
    assert abs(concurrence_closed_form(0.0) - root) <= 1e-15
    assert concurrence_closed_form(math.pi / 4) == 0.0
    assert abs(concurrence_closed_form(math.pi / 2) - root) <= 1e-15
    with pytest.raises(ValueError):
        concurrence_closed_form(-0.1)
    with pytest.raises(ValueError):
        concurrence_closed_form(2.0)


def test_negativity_examples():
    assert abs(negativity(bell_state(), (2, 2)) - 0.5) <= 1e-12
    assert abs(negativity(choi_state(qubit_family_a(0.0)), (2, 2)) - 0.25) <= 1e-12
    product = DensityMatrix(np.kron(np.diag([0.3, 0.7]), np.diag([0.4, 0.6])).astype(complex))
    assert negativity(product, (2, 2)) <= 1e-12
    with pytest.raises(ValueError, match="dimension"):
        negativity(bell_state(), (2, 3))


def test_negativity_closed_form_matches_numeric_on_grid():
    for theta in GRID:
        omega = choi_state(qubit_family_a(float(theta)))
        assert abs(negativity(omega, (2, 2)) - negativity_closed_form(float(theta))) <= 1e-9


def test_negativity_closed_form_values():
    assert abs(negativity_closed_form(0.0) - 0.25) <= 1e-15
    assert negativity_closed_form(math.pi / 4) <= 1e-15
    assert abs(negativity_closed_form(math.pi / 2) - 0.25) <= 1e-15


def test_concurrence_negativity_ordering():
    for theta in GRID:
        omega = choi_state(qubit_family_a(float(theta)))
        assert concurrence(omega) >= negativity(omega, (2, 2)) - 1e-10


def test_concurrence_from_negativity():
    root = 1.0 / math.sqrt(2.0)
    assert abs(concurrence_from_negativity(0.25) - root) <= 1e-12
    assert concurrence_from_negativity(0.0) == 0.0
    for theta in GRID:
        via_neg = concurrence_from_negativity(negativity_closed_form(float(theta)))
        assert abs(via_neg - concurrence_closed_form(float(theta))) <= 1e-10
    with pytest.raises(ValueError):
        concurrence_from_negativity(0.3)


def test_entanglement_evolution_factor():
    bell = DensityMatrix(bell_state())
    predicted, direct = entanglement_evolution_factor(qubit_family_a(math.pi / 4), bell)
    assert predicted <= 1e-9 and direct <= 1e-9

    predicted, direct = entanglement_evolution_factor(qubit_family_a(0.0), bell)
    root = 1.0 / math.sqrt(2.0)
    assert abs(predicted - root) <= 1e-9
    assert abs(direct - root) <= 1e-9

    product = DensityMatrix.pure([1.0, 0.0, 0.0, 0.0])
    predicted, direct = entanglement_evolution_factor(qubit_family_a(0.9), product)
    assert predicted <= 1e-12 and direct <= 1e-9


def test_entanglement_evolution_factor_on_random_pure_inputs(rng):
    for _ in range(20):
        v = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        theta = float(rng.uniform(0.0, math.pi))
        predicted, direct = entanglement_evolution_factor(
            qubit_family_a(theta), DensityMatrix.pure(v)
        )
        assert abs(predicted - direct) <= 1e-8


def test_entanglement_evolution_factor_rejects_bad_dims():
    with pytest.raises(ValueError, match="qubit channel"):
        entanglement_evolution_factor(ndim_theta0(3), DensityMatrix(bell_state()))
    with pytest.raises(ValueError, match="two-qubit"):
        entanglement_evolution_factor(qubit_family_a(0.1), DensityMatrix.maximally_mixed(2))


def test_amplitude_damping_choi_concurrence_is_sqrt_one_minus_p(rng):
    # independent known value for the damping family
    for p in (0.0, 0.25, 0.5, 0.9):
        got = concurrence(choi_state(amplitude_damping(p)))
        assert abs(got - math.sqrt(1.0 - p)) <= 1e-10


# Within ~1e-5 of the axes the smaller Wootters root (min(sin, cos)^2 / 2)
# drops below what a double-precision eigensolver can resolve, so the
# 1e-9 agreement is tested on the resolvable interior; the exact axis
# points are covered by test_concurrence_closed_form_values_and_domain.
@given(theta=st.floats(1e-4, math.pi / 2 - 1e-4))
def test_closed_forms_agree_with_numeric_everywhere(theta):
    omega = choi_state(qubit_family_a(theta))
    assert abs(concurrence(omega) - concurrence_closed_form(theta)) <= 1e-9
    assert abs(negativity(omega, (2, 2)) - negativity_closed_form(theta)) <= 1e-9


def test_closed_form_agreement_at_exact_axes():
    for theta in (0.0, math.pi / 2):
        omega = choi_state(qubit_family_a(theta))
        assert abs(concurrence(omega) - concurrence_closed_form(theta)) <= 1e-12
        assert abs(negativity(omega, (2, 2)) - negativity_closed_form(theta)) <= 1e-12


# ------------------------------------------------------- stacked evaluation


def bits(values) -> bytes:
    return np.ascontiguousarray(values, dtype=float).tobytes()


def reference_entropy(rho) -> float:
    """The per-state entropy that the stacked kernel replaced."""
    ev = np.linalg.eigvalsh(rho)
    ev = ev[ev > ENTROPY_EIGENVALUE_FLOOR]
    return 0.0 - float((ev * np.log(ev)).sum())


def reference_capacity_bound(channel) -> float:
    outputs = [
        sum(op @ s.matrix @ np.conj(op).T for op in channel.operators) for s in basis_states()
    ]
    mixed = reference_entropy(sum(0.5 * out for out in outputs))
    return max(0.0, mixed - sum(0.5 * reference_entropy(out) for out in outputs))


def test_stacked_sweep_capacity_bound_equals_per_sample_loop_bitwise():
    channels = [qubit_family_a(float(t), 0.7) for t in np.linspace(0.0, math.pi / 2, 1001)]
    got = capacity_lower_bounds(np.array([c.operators for c in channels]), basis_states())
    assert bits(got) == bits([reference_capacity_bound(ch) for ch in channels])
    assert bits(got[:1]) == bits([classical_capacity_lower_bound(channels[0], basis_states())])


@pytest.mark.parametrize("n", [2, 8, 16])
def test_map_entropy_is_the_single_case_of_the_stack_bitwise(rng, n):
    channels = [ndim_theta0(n), random_cptp(n, n, n, rng)]
    for ch in channels:
        flat = np.array([op.reshape(-1) for op in ch.operators])
        gram = flat.conj() @ flat.T  # G_ab = tr(K_a^dagger K_b)
        gram_state = (gram + gram.conj().T) / 2 / n
        assert bits([map_entropy(ch)]) == bits([reference_entropy(gram_state)])
    assert bits(map_entropies(np.array([c.operators for c in channels]))) == bits([map_entropy(c) for c in channels])


def gram_vs_choi_channels():
    """Every family id, random channels, two non-CPTP maps, an isometry and
    two channels at the rank tolerance."""
    rng = np.random.default_rng(31)
    params = [
        ("qubit-a", 0.3, 0.7),
        ("qubit-b", 1.1, 0.2),
        ("ad", 0.25),
        ("qutrit", 0.0, dft_matrix(3)),
        ("qutrit", 0.4, np.eye(3)),
        ("ndim", 5, 0.0, np.eye(5)),
        ("ndim-theta0", 6),
        ("identity",),
    ]
    chans = {"-".join(str(x) for x in p[:2]): FAMILIES[p[0]].build(*p[1:]) for p in params}
    chans["ndim-fourier"] = ndim_family(8, 0.7, dft_matrix(8))  # not CPTP
    chans["isometry-2-3"] = random_cptp(2, 3, 1, rng)
    # The second Choi eigenvalue, 2 eps, lies on either side of the rank tolerance.
    for eps in (1e-8, 1e-12):
        chans[f"near-unitary-{eps}"] = kraus(
            [math.sqrt(1.0 - eps) * np.eye(2), math.sqrt(eps) * np.array([[0.0, 1.0], [1.0, 0.0]])]
        )
    for n in range(2, 17):
        for k in (1, n, 2 * n):
            chans[f"random-{n}-{k}"] = random_cptp(n, n, k, rng)
    return chans


def test_gram_route_matches_choi_route():
    chans = gram_vs_choi_channels()
    assert not validate_channel(chans["ndim-fourier"]).cptp_ok
    for name, ch in chans.items():
        report = validate_channel(ch, 1e-10)
        assert report.choi_rank == channel_rank(choi_matrix(ch), 1e-10), name
        if report.cptp_ok:
            choi_route = von_neumann_entropy(choi_state(ch))
            assert abs(map_entropy(ch) - choi_route) <= 1e-12, name


def test_zero_entropies_are_positive_zero():
    for value in (
        map_entropy(identity_channel(2)),
        map_entropy(amplitude_damping(0.0)),
        von_neumann_entropy(DensityMatrix.pure([0.6, 0.8j])),
    ):
        assert value == 0.0 and math.copysign(1.0, value) == 1.0


GOOD_STATE = choi_state(qubit_family_a(0.3)).matrix
BAD_STATES = {
    "non-Hermitian": GOOD_STATE + np.triu(np.full((4, 4), 1e-3), 1),
    "non-PSD": np.diag([0.75, 0.75, -0.25, -0.25]).astype(complex),
    "wrong trace": 2.0 * GOOD_STATE,
    "NaN entry": np.where(np.eye(4) > 0, np.nan, GOOD_STATE),
}


@pytest.mark.parametrize("bad", BAD_STATES)
def test_state_stack_with_one_bad_sample_raises_like_its_single_call(bad):
    stack = np.array([GOOD_STATE] * (STACK_BLOCK + 44))
    stack[STACK_BLOCK + 7] = BAD_STATES[bad]
    with pytest.raises(ValueError) as single:
        DensityMatrix(BAD_STATES[bad])
    with pytest.raises(type(single.value)):
        validate_states(stack)
    with pytest.raises(ValueError) as single:
        von_neumann_entropy(BAD_STATES[bad])
    with pytest.raises(type(single.value)):
        von_neumann_entropies(stack)
    validate_states(stack[:STACK_BLOCK])  # the good samples pass


BAD_KRAUS = {
    "non-CPTP": np.array([np.eye(2), np.eye(2)], dtype=complex),
    "NaN entry": np.array([[[np.nan, 0.0], [0.0, 1.0]], np.zeros((2, 2))], dtype=complex),
}


@pytest.mark.parametrize("bad", BAD_KRAUS)
def test_kraus_stack_with_one_bad_sample_raises_like_its_single_call(bad):
    channels = [qubit_family_a(float(t)) for t in np.linspace(0.0, math.pi, STACK_BLOCK + 1)]
    stack = np.array([c.operators for c in channels])
    stack[100] = BAD_KRAUS[bad]
    with pytest.raises(ValueError) as single:
        map_entropy(kraus(list(BAD_KRAUS[bad])))
    for stacked in (choi_states, map_entropies, lambda k: capacity_lower_bounds(k, basis_states())):
        with pytest.raises(type(single.value)):
            stacked(stack)


def test_stacked_measures_equal_per_state_loop_on_full_rank_states(rng):
    stack = np.array([random_density_matrix(4, rng).matrix for _ in range(STACK_BLOCK + 3)])
    pts = stack.reshape(-1, 2, 2, 2, 2).transpose(0, 3, 2, 1, 4).reshape(stack.shape)
    negs = [max(0.0, float((np.abs(np.linalg.eigvalsh(pt)).sum() - 1.0) / 2.0)) for pt in pts]
    assert bits(negativities(stack, (2, 2))) == bits(negs)
    assert bits(von_neumann_entropies(stack)) == bits([reference_entropy(m) for m in stack])
