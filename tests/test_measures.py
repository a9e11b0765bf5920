import math
import re
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from qchan import (
    amplitude_damping,
    apply,
    apply_kraus,
    capacity_lower_bounds,
    channel_rank,
    choi_matrix,
    choi_state,
    classical_capacity_lower_bound,
    coherent_information,
    complementary,
    concurrence,
    concurrence_closed_form,
    concurrences,
    dephasing,
    dft_matrix,
    entanglement_evolution_factor,
    holevo_chis,
    identity_channel,
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
    selfcomplementarity_defect,
    spin_flip,
    validate_channel,
    validate_states,
    von_neumann_entropies,
    von_neumann_entropy,
)
from qchan.cli import main
from qchan.channels import completeness_residuals
from qchan.families import FAMILIES
from qchan.linalg import STACK_BLOCK
from qchan.measures import (
    ENTROPY_EIGENVALUE_FLOOR,
    choi_measures,
    information_quantities,
)

from conftest import (
    bell_state,
    pure_concurrence,
    pure_state,
    random_cptp,
    random_density_matrix,
    random_symmetric_channel,
    random_unitary,
    x_state_concurrence,
)

LN2 = math.log(2.0)
# High-precision anchors, each derived analytically:
#   S(diag(1/4, 3/4)) and chi = S(diag(1/4, 3/4)) - ln(2)/2
ANCHOR_ENTROPY = 0.25 * math.log(4.0) + 0.75 * math.log(4.0 / 3.0)
ANCHOR_CHI = ANCHOR_ENTROPY - LN2 / 2.0

GRID = np.linspace(0.0, math.pi / 2.0, 100)


def basis_states(dim=2):
    return np.array([pure_state(np.eye(dim)[:, i]) for i in range(dim)])


# ------------------------------------------------------------ entropy


def test_entropy_of_pure_state_is_zero(rng):
    v = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    assert von_neumann_entropy(pure_state(v)) <= 1e-12


def test_entropy_anchor_value():
    s = von_neumann_entropy(np.diag([0.25, 0.75]))
    assert abs(s - 0.56233) <= 1e-4
    assert abs(s - ANCHOR_ENTROPY) <= 1e-12


def test_entropy_of_maximally_mixed():
    assert abs(von_neumann_entropy(np.eye(2) / 2) - LN2) <= 1e-12


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
    depolarizing = np.array([p / 2 for p in paulis])
    assert abs(map_entropy(depolarizing) - math.log(4.0)) <= 1e-12
    assert abs(map_entropy(qubit_family_a(0.0)) - ANCHOR_ENTROPY) <= 1e-12


def test_map_entropy_refuses_broken_channels():
    with pytest.raises(ValueError, match="trace preserving"):
        map_entropy(qutrit_family(np.pi / 4, np.eye(3)))


def test_map_entropy_equals_output_entropy_of_maximally_mixed():
    for theta in GRID:
        ch = qubit_family_a(float(theta))
        out = apply(ch, np.eye(2) / 2)
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
            rho = random_density_matrix(ch.shape[-1], rng)
            assert abs(coherent_information(ch, rho)) <= 1e-10


def test_coherent_information_of_identity():
    got = coherent_information(identity_channel(2), np.eye(2) / 2)
    assert abs(got - LN2) <= 1e-12


def test_coherent_information_of_dephasing_on_classical_input():
    # dephasing is self-complementary, so system and environment outputs
    # coincide and the coherent information is exactly zero.
    rho = np.diag([0.2, 0.8])
    assert abs(coherent_information(dephasing(), rho)) <= 1e-12


# ------------------------------------------------------------ Holevo


def test_holevo_chi_of_identical_states():
    rho = np.eye(2) / 2
    assert holevo_chis((0.5, 0.5), np.array([[rho, rho]]))[0] <= 1e-12


def test_holevo_chi_of_orthogonal_pure_states():
    chi = holevo_chis((0.5, 0.5), basis_states()[None])[0]
    assert abs(chi - LN2) <= 1e-12


def test_holevo_chi_anchor():
    ch = qubit_family_a(0.0)
    outputs = np.array([apply(ch, s) for s in basis_states()])
    chi = holevo_chis((0.5, 0.5), outputs[None])[0]
    assert abs(chi - 0.215761) <= 1e-5
    assert abs(chi - ANCHOR_CHI) <= 1e-12


def test_holevo_chi_nonnegative_on_random_ensembles(rng):
    for _ in range(30):
        states = np.array([random_density_matrix(2, rng) for _ in range(3)])
        w = rng.random(3)
        w = w / w.sum()
        assert holevo_chis(w, states[None])[0] >= -1e-12


def test_ensemble_validation():
    pair = np.array([[np.eye(2) / 2] * 2])
    with pytest.raises(ValueError, match="sum"):
        holevo_chis((0.5, 0.4), pair)
    with pytest.raises(ValueError, match="nonnegative"):
        holevo_chis((1.5, -0.5), pair)
    with pytest.raises(ValueError, match="stack of ensembles"):
        holevo_chis((0.5, 0.5), pair[0])


@pytest.mark.parametrize(
    "weights, m, match",
    [
        ([1.0], 2, "one probability per state: 1 for 2"),
        ([0.5, 0.5, 0.0], 2, "one probability per state: 3 for 2"),
        ([], 2, "one probability per state: 0 for 2"),
        ([], 0, "one probability per state: 0 for 0"),
        ([1.5, -0.5], 2, "nonnegative"),
        ([0.5, 0.5 + 2e-12], 2, "sum"),
    ],
    ids=["short", "long", "empty", "empty-ensemble", "negative", "sum"],
)
def test_holevo_chis_refuses_bad_weights(weights, m, match):
    states = np.tile(np.eye(2) / 2, (3, m, 1, 1))
    with pytest.raises(ValueError, match=match):
        holevo_chis(weights, states)


def test_capacity_bound_anchor_and_positivity():
    assert abs(classical_capacity_lower_bound(qubit_family_a(0.0), np.eye(2)) - ANCHOR_CHI) <= 1e-5
    assert abs(classical_capacity_lower_bound(dephasing(), np.eye(2)) - LN2) <= 1e-12
    for theta in GRID:
        chi = classical_capacity_lower_bound(qubit_family_a(float(theta)), np.eye(2))
        assert chi > 0.0


def test_capacity_bound_rejects_bad_alphabets():
    plus = np.array([1.0, 1.0]) / math.sqrt(2.0)
    with pytest.raises(ValueError, match="overlap"):
        classical_capacity_lower_bound(qubit_family_a(0.3), [[1.0, 0.0], plus])
    with pytest.raises(ValueError, match="not normalised"):
        classical_capacity_lower_bound(qubit_family_a(0.3), [[1.0, 1.0]])
    # The first failure in state order is reported, also past the first pair.
    e = np.eye(3)
    tilted = np.array([0.0, 1.0, 1.0]) / math.sqrt(2.0)
    short = np.array([0.0, 0.0, 0.5])
    with pytest.raises(ValueError, match=r"basis states 1 and 2 overlap by 5\.000e-01"):
        classical_capacity_lower_bound(ndim_theta0(3), [e[0], e[1], tilted, short])
    diagonal = np.ones(3) / math.sqrt(3.0)
    with pytest.raises(ValueError, match=r"basis states 0 and 2 overlap by 3\.333e-01"):
        classical_capacity_lower_bound(ndim_theta0(3), [e[0], e[1], diagonal])
    with pytest.raises(ValueError, match="basis state 2 is not normalised"):
        classical_capacity_lower_bound(ndim_theta0(3), [e[0], e[1], short, tilted])
    with pytest.raises(ValueError, match="state dimension 2 != channel input dimension 3"):
        classical_capacity_lower_bound(ndim_theta0(3), np.eye(2))
    with pytest.raises(ValueError, match="non-finite"):
        classical_capacity_lower_bound(qubit_family_a(0.3), [[np.nan, 0.0]])


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
        got = concurrence(pure_state(v))
        assert abs(got - pure_concurrence(v)) <= 1e-10


def test_concurrence_against_x_state_oracle(rng):
    for theta in np.linspace(0.0, math.pi / 2.0, 25):
        omega = choi_state(qubit_family_a(float(theta)))
        assert abs(concurrence(omega) - x_state_concurrence(omega)) <= 1e-10
    for _ in range(20):
        # random X-shaped states
        d = rng.random(4)
        d /= d.sum()
        z = min(math.sqrt(d[1] * d[2]), math.sqrt(d[0] * d[3])) * rng.random()
        m = np.diag(d).astype(complex)
        m[1, 2] = m[2, 1] = z
        assert abs(concurrence(m) - x_state_concurrence(m)) <= 1e-10


def test_concurrence_closed_form_matches_numeric_on_grid():
    for theta in list(GRID) + [math.pi / 4]:
        omega = choi_state(qubit_family_a(float(theta)))
        assert abs(concurrence(omega) - concurrence_closed_form(float(theta))) <= 1e-9


# ------------------------------------- Choi measures from the k x k factors


def factor_route_channels():
    """Driven-family stacks over a period, and random qubit channels of 1 to
    6 Kraus operators, k > 4 included."""
    rng = np.random.default_rng(53)
    theta = np.concatenate([np.linspace(0.0, math.pi, 2001), rng.uniform(0.0, math.pi, 500)])
    stacks = [qubit_family_a(theta, 0.0), qubit_family_b(theta, 1.3)]
    stacks.append(FAMILIES["ad"].build(np.linspace(0.0, 1.0, 501)))
    for k in range(1, 7):
        stacks.append(np.array([random_cptp(2, 2, k, rng) for _ in range(50)]))
    return stacks


def test_choi_measures_match_the_choi_state_routes():
    # concurrences() factors each Choi state by its eigensolve, cut to
    # numerical rank; choi_measures() factors it by the Kraus rows.  Without
    # the cut the ad states differ by 6.0e-9.
    for kraus in factor_route_channels():
        neg, conc, ent = choi_measures(kraus)
        states = np.array([choi_state(ops) for ops in kraus])
        assert bits(neg) == bits(negativities(states, (2, 2)))
        assert np.abs(conc - concurrences(states)).max() <= 1e-12
        assert np.abs(ent - von_neumann_entropies(states)).max() <= 1e-12


@pytest.mark.parametrize("shape", [(1, 3, 3, 3), (4, 2, 2, 3), (2, 2, 2), (1, 1, 4, 4)])
def test_choi_measures_refuse_a_non_qubit_stack_up_front(shape, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("validated before the shape was checked")

    monkeypatch.setattr("qchan.measures.gram_states", refuse)
    with pytest.raises(ValueError, match=re.escape(str(shape))):
        choi_measures(np.zeros(shape, dtype=complex))


def test_choi_measures_of_pure_choi_states(rng):
    # k = 1: the Choi state is pure, and its concurrence is 2 |ad - bc|.
    for _ in range(20):
        u = random_unitary(2, rng)
        _, conc, ent = choi_measures(u[None, None])
        assert abs(conc[0] - pure_concurrence(u.T.reshape(4) / math.sqrt(2))) <= 1e-14
        assert abs(conc[0] - 1.0) <= 1e-14 and abs(ent[0]) <= 1e-15


def complex_products(a, b):
    """Product of two square matrices of (re, im) Decimal pairs."""
    side = len(a)
    out = [[(Decimal(0), Decimal(0))] * side for _ in range(side)]
    for i in range(side):
        for j in range(side):
            re = sum(a[i][m][0] * b[m][j][0] - a[i][m][1] * b[m][j][1] for m in range(side))
            im = sum(a[i][m][0] * b[m][j][1] + a[i][m][1] * b[m][j][0] for m in range(side))
            out[i][j] = (re, im)
    return out


def decimal_concurrence(operators) -> float:
    """Wootters' concurrence of the Choi state of two Kraus operators, taken
    exactly as floats, at 50 digits: rho rho~ has rank at most 2, and its
    eigenvalues mu_1, mu_2 give C = sqrt(mu_1 + mu_2 - 2 sqrt(mu_1 mu_2))."""
    with localcontext() as ctx:
        ctx.prec = 50
        # v_a[(j, i)] = K_a[i, j]: the Choi ordering, input index first.
        vs = [[(Decimal(z.real), Decimal(z.imag)) for z in op.T.reshape(4)] for op in operators]
        rho = [
            [
                (
                    sum(v[x][0] * v[y][0] + v[x][1] * v[y][1] for v in vs) / 2,
                    sum(v[x][1] * v[y][0] - v[x][0] * v[y][1] for v in vs) / 2,
                )
                for y in range(4)
            ]
            for x in range(4)
        ]
        # sigma_y (x) sigma_y is the antidiagonal (-1, 1, 1, -1).
        sign = (-1, 1, 1, -1)
        tilde = [
            [(sign[x] * sign[y] * rho[3 - x][3 - y][0], -sign[x] * sign[y] * rho[3 - x][3 - y][1])
             for y in range(4)]
            for x in range(4)
        ]
        m = complex_products(rho, tilde)
        square = complex_products(m, m)
        t1 = sum(m[i][i][0] for i in range(4))
        t2 = sum(square[i][i][0] for i in range(4))
        # mu_1 mu_2 can lie below the 50th digit (at theta = pi/2 as a float,
        # about 1e-66), where it may round to -5e-51.
        product = (t1 * t1 - t2) / 2
        return float((t1 - 2 * max(product, Decimal(0)).sqrt()).sqrt())


def test_choi_concurrence_of_qubit_b_near_half_pi_to_1e_12():
    # Both factor routes: the Kraus rows of choi_measures() and the
    # eigensolve of concurrences().  An eigenvalue route through rho rho~ is
    # off by up to 3.5e-8 on these points against this reference.
    rng = np.random.default_rng(61)
    offsets = np.logspace(-9, -1, 17)
    theta = np.concatenate(
        [
            math.pi / 2 - offsets,
            math.pi / 2 + offsets,
            np.linspace(math.pi / 2 - 0.01, math.pi / 2 + 0.01, 21),
            rng.uniform(0.0, math.pi, 10),
        ]
    )
    for phi in (0.0, 0.7):
        kraus = qubit_family_b(theta, phi)
        _, conc, _ = choi_measures(kraus)
        expected = [decimal_concurrence(ops) for ops in kraus]
        assert np.abs(conc - expected).max() <= 1e-12
        states = np.array([choi_state(ops) for ops in kraus])
        assert np.abs(concurrences(states) - expected).max() <= 1e-12


def test_choi_measures_solve_no_general_or_4x4_validation_eigenproblem(monkeypatch):
    shapes = []
    eigvalsh = np.linalg.eigvalsh

    def record(m, *args, **kwargs):
        shapes.append(np.shape(m))
        return eigvalsh(m, *args, **kwargs)

    def refuse(*args, **kwargs):
        raise AssertionError("general eigensolver called")

    monkeypatch.setattr(np.linalg, "eigvalsh", record)
    monkeypatch.setattr(np.linalg, "eigvals", refuse)
    choi_measures(qubit_family_a(np.linspace(0.0, 1.0, 7), 0.3))
    # The 2 x 2 Gram states, then the partial transposes for the negativity.
    assert shapes == [(7, 2, 2), (7, 4, 4)]


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
    product = np.kron(np.diag([0.3, 0.7]), np.diag([0.4, 0.6]))
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


def test_entanglement_evolution_factor():
    bell = bell_state()
    predicted, direct = entanglement_evolution_factor(qubit_family_a(math.pi / 4), bell)
    assert predicted <= 1e-9 and direct <= 1e-9

    predicted, direct = entanglement_evolution_factor(qubit_family_a(0.0), bell)
    root = 1.0 / math.sqrt(2.0)
    assert abs(predicted - root) <= 1e-9
    assert abs(direct - root) <= 1e-9

    product = pure_state([1.0, 0.0, 0.0, 0.0])
    predicted, direct = entanglement_evolution_factor(qubit_family_a(0.9), product)
    assert predicted <= 1e-12 and direct <= 1e-9

    # The figure script's inputs cos a|00> + sin a|11> at the unitary ends
    # theta = 0 and pi/2, where the output's factor has more columns than
    # tau has rank: without the rank cut they are off by 3.8e-9.
    for theta in (0.0, math.pi / 2):
        factor = abs(math.sin(theta) - math.cos(theta)) / math.sqrt(2.0)
        for alpha in np.linspace(0.0, math.pi / 4, 41):
            ket = np.array([math.cos(alpha), 0.0, 0.0, math.sin(alpha)], dtype=complex)
            ket /= np.linalg.norm(ket)
            rho = np.outer(ket, ket.conj())
            _, direct = entanglement_evolution_factor(qubit_family_a(theta), rho)
            assert abs(direct - abs(math.sin(2 * alpha)) * factor) <= 1e-12


def test_entanglement_evolution_factor_on_random_pure_inputs(rng):
    for _ in range(20):
        v = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        theta = float(rng.uniform(0.0, math.pi))
        predicted, direct = entanglement_evolution_factor(
            qubit_family_a(theta), pure_state(v)
        )
        assert abs(predicted - direct) <= 1e-12


def test_entanglement_evolution_factor_rejects_bad_dims():
    with pytest.raises(ValueError, match="qubit channel"):
        entanglement_evolution_factor(ndim_theta0(3), bell_state())
    with pytest.raises(ValueError, match="two-qubit"):
        entanglement_evolution_factor(qubit_family_a(0.1), np.eye(2) / 2)


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
    """The environment-side capacity bound of the computational basis, one
    channel at a time: the output of |i> is W_i W_i^dagger, where column a of
    W_i is K_a |i>, and the average output is Y Y^dagger / 2 for Y = [W_0 W_1]."""
    w = [channel[:, :, i].T for i in range(2)]
    parts = [reference_entropy(x @ x.conj().T) for x in w]
    y = np.concatenate(w, axis=1)
    return max(0.0, reference_entropy(y @ y.conj().T / 2) - sum(parts) / 2)


def test_stacked_sweep_capacity_bound_equals_per_sample_loop_bitwise():
    channels = [qubit_family_a(float(t), 0.7) for t in np.linspace(0.0, math.pi / 2, 1001)]
    got = capacity_lower_bounds(np.array(channels), np.eye(2))
    assert bits(got) == bits([reference_capacity_bound(ch) for ch in channels])
    assert bits(got[:1]) == bits([classical_capacity_lower_bound(channels[0], np.eye(2))])


@pytest.mark.parametrize("n", [2, 8, 16])
def test_map_entropy_is_the_single_case_of_the_stack_bitwise(rng, n):
    channels = [ndim_theta0(n), random_cptp(n, n, n, rng)]
    for ch in channels:
        flat = np.array([op.reshape(-1) for op in ch])
        gram = flat.conj() @ flat.T  # G_ab = tr(K_a^dagger K_b)
        gram_state = (gram + gram.conj().T) / 2 / n
        assert bits([map_entropy(ch)]) == bits([reference_entropy(gram_state)])
    assert bits(map_entropies(np.array(channels))) == bits([map_entropy(c) for c in channels])


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
        chans[f"near-unitary-{eps}"] = np.array(
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
        von_neumann_entropy(pure_state([0.6, 0.8j])),
    ):
        assert value == 0.0 and math.copysign(1.0, value) == 1.0


GOOD_STATE = choi_state(qubit_family_a(0.3))
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
        validate_states(BAD_STATES[bad][None])
    with pytest.raises(type(single.value)):
        validate_states(stack)
    pairs = (
        (von_neumann_entropy, von_neumann_entropies),
        (lambda rho: negativity(rho, (2, 2)), lambda s: negativities(s, (2, 2))),
        (concurrence, concurrences),
    )
    for scalar, plural in pairs:
        with pytest.raises(ValueError) as single:
            scalar(BAD_STATES[bad])
        with pytest.raises(type(single.value)):
            plural(stack)
    validate_states(stack[:STACK_BLOCK])  # the good samples pass


BAD_KRAUS = {
    "non-CPTP": np.array([np.eye(2), np.eye(2)], dtype=complex),
    "NaN entry": np.array([[[np.nan, 0.0], [0.0, 1.0]], np.zeros((2, 2))], dtype=complex),
}


@pytest.mark.parametrize("bad", BAD_KRAUS)
def test_kraus_stack_with_one_bad_sample_raises_like_its_single_call(bad):
    channels = [qubit_family_a(float(t)) for t in np.linspace(0.0, math.pi, STACK_BLOCK + 1)]
    stack = np.array(channels)
    stack[100] = BAD_KRAUS[bad]
    with pytest.raises(ValueError) as single:
        map_entropy(BAD_KRAUS[bad])
    stacked_calls = (
        choi_measures,
        map_entropies,
        lambda k: capacity_lower_bounds(k, np.eye(2)),
    )
    for stacked in stacked_calls:
        with pytest.raises(type(single.value)):
            stacked(stack)


def test_stacked_measures_equal_per_state_loop_on_full_rank_states(rng):
    stack = np.array([random_density_matrix(4, rng) for _ in range(STACK_BLOCK + 3)])
    pts = stack.reshape(-1, 2, 2, 2, 2).transpose(0, 3, 2, 1, 4).reshape(stack.shape)
    negs = [max(0.0, float((np.abs(np.linalg.eigvalsh(pt)).sum() - 1.0) / 2.0)) for pt in pts]
    assert bits(negativities(stack, (2, 2))) == bits(negs)
    assert bits(von_neumann_entropies(stack)) == bits([reference_entropy(m) for m in stack])


# ------------------------------------------ capacity bound, environment side


def apply_kraus_route(channel, alphabet) -> tuple[float, float]:
    """The capacity bound and the coherent information at 1/n_in by the route
    the environment side replaced: each |psi><psi| of the alphabet through
    apply_kraus, then holevo_chis; the complementary channel's output."""
    alphabet = np.asarray(alphabet, dtype=complex)
    outputs = apply_kraus(channel, np.einsum("ij,ik->ijk", alphabet, alphabet.conj()))
    chi = holevo_chis(np.full(len(alphabet), 1.0 / len(alphabet)), outputs[None])[0]
    n_in = channel.shape[-1]
    return float(chi), coherent_information(channel, np.eye(n_in) / n_in)


def route_channels():
    """Random channels with n_in != n_out, k = 1, k < n_out and k > n_out,
    one with k = n_out, and family members."""
    rng = np.random.default_rng(47)
    shapes = [(3, 5, 1), (4, 6, 2), (6, 4, 3), (5, 3, 4), (2, 3, 7), (4, 4, 4)]
    chans = {f"random-{a}-{b}-{c}": random_cptp(a, b, c, rng) for a, b, c in shapes}
    chans.update(
        {
            "qubit-a": qubit_family_a(0.3, 0.7),
            "ad": amplitude_damping(0.3),
            "ndim-theta0": ndim_theta0(5),
            "identity": identity_channel(3),
        }
    )
    return chans


@pytest.mark.parametrize("name", list(route_channels()))
def test_environment_side_matches_the_apply_kraus_route(rng, name):
    ch = route_channels()[name]
    entropy, coherent, chi = information_quantities(ch, validate_channel(ch).gram_spectrum)
    n_in = ch.shape[-1]
    old_chi, old_coherent = apply_kraus_route(ch, np.eye(n_in))
    assert abs(entropy - von_neumann_entropy(choi_state(ch))) <= 1e-12
    assert abs(coherent - old_coherent) <= 1e-12
    assert abs(chi - old_chi) <= 1e-12
    assert abs(classical_capacity_lower_bound(ch, np.eye(n_in)) - old_chi) <= 1e-12
    # An incomplete rotated alphabet, whose average output is not Phi(1/n_in).
    alphabet = random_unitary(n_in, rng)[: max(1, n_in - 1)]
    got = classical_capacity_lower_bound(ch, alphabet)
    assert abs(got - apply_kraus_route(ch, alphabet)[0]) <= 1e-12


def test_sweep_chi_column_matches_the_apply_kraus_route(tmp_path):
    thetas = np.linspace(0.0, math.pi / 2, 101)
    old = [apply_kraus_route(qubit_family_a(float(t), 0.7), np.eye(2))[0] for t in thetas]
    stack = np.array([qubit_family_a(float(t), 0.7) for t in thetas])
    assert np.abs(capacity_lower_bounds(stack, np.eye(2)) - old).max() <= 1e-12
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--points", "101", "--phi", "0.7", "--out", str(out)]) == 0
    column = np.loadtxt(out, delimiter=",", skiprows=1)[:, 5]
    assert np.abs(column - old).max() <= 1e-12  # 12 significant digits of chi < 1


# ------------------------------- the strictly self-complementary class


@given(
    seed=st.integers(0, 2**32 - 1),
    shape=st.integers(1, 4).flatmap(
        lambda m: st.tuples(st.integers(1, m * (m + 1) // 2), st.just(m))
    ),
)
def test_isometries_into_the_symmetric_subspace_are_selfcomplementary(seed, shape):
    n_in, m = shape
    rng = np.random.default_rng(seed)
    ch = random_symmetric_channel(n_in, m, rng)
    assert selfcomplementarity_defect(ch) == 0.0
    assert completeness_residuals(ch[None])[0] <= 1e-12
    entropy, coherent, _ = information_quantities(ch, validate_channel(ch).gram_spectrum)
    assert abs(coherent) <= 1e-10
    for _ in range(3):
        rho = random_density_matrix(n_in, rng)
        assert abs(coherent_information(ch, rho)) <= 1e-10
        assert np.abs(apply(ch, rho) - apply(complementary(ch), rho)).max() <= 1e-13
    # Criterion 3's identity, on which the coherent information of analyze rests.
    assert abs(entropy - von_neumann_entropy(apply(ch, np.eye(n_in) / n_in))) <= 1e-12
    # ln n_in = S(R) = S(BE) <= S(B) + S(E) = 2 S(B), by subadditivity.
    assert 0.5 * math.log(n_in) - 1e-12 <= entropy <= math.log(m) + 1e-12
