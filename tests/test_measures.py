import math
import re
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from qchan import (
    DEFAULT_TOL,
    amplitude_damping,
    apply,
    apply_kraus,
    capacity_lower_bounds,
    channel_rank,
    choi_matrix,
    choi_state,
    coherent_information,
    complementary,
    concurrence,
    concurrence_closed_form,
    concurrences,
    dft_matrix,
    entanglement_evolution_factor,
    gram_states,
    hermitian_eigenvalues,
    identity_channel,
    map_entropies,
    map_entropy,
    ndim_family,
    negativities,
    negativity,
    negativity_closed_form,
    ndim_theta0,
    partial_transpose,
    qubit_family_a,
    qubit_family_b,
    qutrit_family,
    selfcomplementarity_defect,
    validate_channel,
    validate_states,
    von_neumann_entropies,
    von_neumann_entropy,
)
from qchan.cli import main
from qchan.channels import _grams, completeness_residuals
from qchan.families import FAMILIES
from qchan.linalg import STACK_BLOCK, _product, dagger
from qchan.measures import (
    ENTROPY_EIGENVALUE_FLOOR,
    _capacity_bounds,
    _concurrence_of_factors,
    _entropies,
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
    two_operator_qubit_stacks,
    x_state_concurrence,
)

LN2 = math.log(2.0)
# High-precision anchors, each derived analytically:
#   S(diag(1/4, 3/4)) and chi = S(diag(1/4, 3/4)) - ln(2)/2
ANCHOR_ENTROPY = 0.25 * math.log(4.0) + 0.75 * math.log(4.0 / 3.0)
ANCHOR_CHI = ANCHOR_ENTROPY - LN2 / 2.0

GRID = np.linspace(0.0, math.pi / 2.0, 100)


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
        map_entropy(ndim_family(4, np.pi / 4, np.eye(4)))


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
    assert abs(coherent_information(qubit_family_b(0.0), rho)) <= 1e-12


# ------------------------------------------------------------ Holevo


def test_holevo_chi_of_identical_states():
    # The completely depolarizing channel, K_ij = |i><j| / sqrt2, maps both
    # basis states to 1/2.
    e = np.eye(2)
    kraus = np.array([np.outer(e[i], e[j]) for i in range(2) for j in range(2)]) / math.sqrt(2.0)
    assert capacity_lower_bounds(kraus[None])[0] <= 1e-12


def test_holevo_chi_of_orthogonal_pure_states():
    # The identity channel keeps the n orthogonal basis states: chi = ln n.
    for n in (2, 3, 5):
        assert abs(capacity_lower_bounds(identity_channel(n)[None])[0] - math.log(n)) <= 1e-12


def test_holevo_chi_anchor():
    chi = capacity_lower_bounds(qubit_family_a(0.0)[None])[0]
    assert abs(chi - 0.215761) <= 1e-5
    assert abs(chi - ANCHOR_CHI) <= 1e-12


def test_capacity_bound_anchor_and_positivity():
    assert abs(capacity_lower_bounds(qubit_family_b(0.0)[None])[0] - LN2) <= 1e-12
    assert (capacity_lower_bounds(qubit_family_a(GRID)) > 0.0).all()


# ------------------------------------------------------- entanglement


def test_concurrence_of_bell_state():
    assert abs(concurrence(bell_state()) - 1.0) <= 1e-12


def test_concurrence_at_entanglement_breaking_point():
    assert concurrence(choi_state(qubit_family_a(math.pi / 4))) <= 1e-9


def test_concurrence_of_family_endpoint():
    got = concurrence(choi_state(qubit_family_a(0.0)))
    assert abs(got - 1.0 / math.sqrt(2.0)) <= 1e-12


@pytest.mark.parametrize("name", sorted(two_operator_qubit_stacks()))
def test_two_operator_concurrence_matches_the_svd(name):
    kraus = two_operator_qubit_stacks()[name]
    rows = kraus.swapaxes(-1, -2).reshape(len(kraus), 2, 4)
    sigma_y = np.array([[0.0, -1.0j], [1.0j, 0.0]])
    tau = rows @ np.kron(sigma_y, sigma_y) @ rows.swapaxes(-1, -2) / 2
    lam = np.linalg.svd(tau, compute_uv=False)
    got = _concurrence_of_factors(np.moveaxis(rows, 0, -1), 2)
    assert np.abs(got - (lam[:, 0] - lam[:, 1])).max() <= 1e-15
    assert bits(choi_measures(kraus)[1]) == bits(got)


def test_qubit_a_concurrence_near_the_breaking_point():
    # The zero at pi/4 keeps its absolute accuracy: no difference of nearly
    # equal singular values is taken.
    steps = [0.0] + [s * 10.0**-e for e in range(1, 17) for s in (-1, 1)]
    thetas = np.concatenate([math.pi / 4 + np.linspace(-1e-2, 1e-2, 4001), math.pi / 4 + np.array(steps)])
    for phi in (0.0, 0.9):
        conc = choi_measures(qubit_family_a(thetas, phi))[1]
        expected = [abs(math.sin(t) - math.cos(t)) / math.sqrt(2.0) for t in thetas]
        assert np.abs(conc - expected).max() <= 1e-15


def test_reset_channel_concurrence_is_positive_zero():
    # ad at p = 1 has tau = 0; the closed form gives +0.0 with no 0 / 0
    # (the suite turns a RuntimeWarning into an error).
    conc = choi_measures(amplitude_damping(np.array([1.0, 1.0])))[1]
    assert conc.tolist() == [0.0, 0.0]
    assert all(math.copysign(1.0, c) == 1.0 for c in conc)
    predicted, direct = entanglement_evolution_factor(amplitude_damping(1.0), bell_state())
    assert math.copysign(1.0, predicted) == 1.0 and predicted == 0.0 and direct <= 1e-15


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
    # the cut the ad states differ by 6.0e-9.  negativities() takes the
    # partial transpose, choi_measures() the Gram spectrum.
    for kraus in factor_route_channels():
        neg, conc, ent = choi_measures(kraus)
        states = np.array([choi_state(ops) for ops in kraus])
        assert np.abs(neg - negativities(states, (2, 2))).max() <= 1e-15
        assert np.abs(conc - concurrences(states)).max() <= 1e-12
        assert np.abs(ent - von_neumann_entropies(states)).max() <= 1e-12


def identity_channels():
    """Random qubit channels of 1 to 6 Kraus operators, both qubit families
    at phi = 0 and 0.9, and strictly self-complementary qubit channels."""
    rng = np.random.default_rng(33)
    theta = np.linspace(0.0, math.pi, 101)
    stacks = [np.array([random_cptp(2, 2, k, rng) for _ in range(100)]) for k in range(1, 7)]
    for phi in (0.0, 0.9):
        stacks += [qubit_family_a(theta, phi), qubit_family_b(theta, phi)]
    stacks.append(np.array([random_symmetric_channel(2, 2, rng) for _ in range(100)]))
    return stacks


def test_partial_transpose_spectrum_is_half_less_the_gram_spectrum():
    # For a trace-preserving qubit channel, spec(rho^T) = 1/2 - spec(rho),
    # and rho's nonzero spectrum is the Gram state's: at most 4 of its k
    # eigenvalues are nonzero, and k < 4 is padded with zeros.
    for kraus in identity_channels():
        states = np.array([choi_state(ops) for ops in kraus])
        pt = hermitian_eigenvalues(partial_transpose(states, (2, 2)))
        mu = gram_states(kraus)[1]
        mu = np.concatenate([np.zeros((len(mu), 4)), mu], axis=1)[:, -4:]
        assert np.abs(pt - np.sort(0.5 - mu, axis=1)).max() <= 2e-15
        assert np.abs(choi_measures(kraus)[0] - negativities(states, (2, 2))).max() <= 1e-15


def test_choi_negativity_at_the_completeness_tolerance_stays_within_the_residual():
    # K_0 scaled by 1 + 2.4e-11 leaves a residual of up to 4.8e-11, inside
    # DEFAULT_TOL; the identity then holds to the residual.
    rng = np.random.default_rng(34)
    theta = np.linspace(0.0, math.pi, 101)
    stacks = [qubit_family_a(theta, 0.4), qubit_family_b(theta, 0.4),
              amplitude_damping(np.linspace(0.0, 1.0, 101))]
    stacks += [np.array([random_cptp(2, 2, k, rng) for _ in range(100)]) for k in range(1, 7)]
    for kraus in stacks:
        kraus = kraus.copy()
        kraus[:, 0] *= 1 + 2.4e-11
        residual = completeness_residuals(kraus)
        assert 2e-11 <= residual.max() <= DEFAULT_TOL
        # The Choi states' traces are off by up to the residual, which
        # negativities() would refuse: the partial transpose directly.
        states = np.array([choi_state(ops) for ops in kraus])
        ev = hermitian_eigenvalues(partial_transpose(states, (2, 2)))
        gap = np.abs(choi_measures(kraus)[0] - (0.0 - np.minimum(ev, 0.0).sum(axis=-1)))
        assert (gap <= residual).all()


def test_negativities_of_amplitude_damping_keep_their_relative_accuracy():
    # The Choi state of amplitude damping has negativity (1 - p) / 2, exact
    # in floats for p >= 1/2.  (sum |ev| - 1) / 2 cancels to an absolute
    # error of eps, a relative error of 1e-3 at 1 - p = 1e-13; the sum of
    # the negative eigenvalues keeps a few eps relative.
    p = 1.0 - np.logspace(-13, -1, 49)
    states = np.array([choi_state(amplitude_damping(x)) for x in p])
    exact = (1.0 - p) / 2
    ev = hermitian_eigenvalues(partial_transpose(states, (2, 2)))
    old = (np.abs(ev).sum(axis=-1) - 1.0) / 2.0
    new_error = (np.abs(negativities(states, (2, 2)) - exact) / exact).max()
    old_error = (np.abs(old - exact) / exact).max()
    assert new_error <= 1e-15 < 1e-6 <= old_error


@pytest.mark.parametrize("shape", [(1, 3, 3, 3), (4, 2, 2, 3), (2, 2, 2), (1, 1, 4, 4)])
def test_choi_measures_refuse_a_non_qubit_stack_up_front(shape, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("validated before the shape was checked")

    for name in ("_as_kraus_stack", "_require_complete"):
        monkeypatch.setattr(f"qchan.measures.{name}", refuse)
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
    monkeypatch.setattr(np.linalg, "svd", refuse)
    # The 2 x 2 Gram states and tau take closed forms, and the negativity
    # is read off the Gram state: nothing reaches LAPACK, for qubit-b's
    # dense Choi states either.
    choi_measures(qubit_family_a(np.linspace(0.0, 1.0, 7), 0.3))
    assert shapes == []
    choi_measures(qubit_family_b(np.linspace(0.1, 1.0, 7), 0.3))
    assert shapes == []


# The matrix route of choi_measures before it went entry-major: gram_states'
# Gram states, the negativity from them, and _concurrence_of_factors' tau,
# each from linalg._product as it was; and the partial transpose as one
# broadcast product per operator, the negativity's independent route.


def broadcast_product(a, b):
    """a @ b over stacks, one broadcast elementwise product per index of a
    contraction of at most 4."""
    out = a[..., :, 0, None] * b[..., 0, None, :]
    for j in range(1, a.shape[-1]):
        out += a[..., :, j, None] * b[..., j, None, :]
    return out


def broadcast_choi_measures(kraus):
    n, k, _, n_in = kraus.shape
    flat = kraus.reshape(n, k, 4)
    g = broadcast_product(flat.conj(), flat.swapaxes(-1, -2))
    states = (g + g.conj().swapaxes(-1, -2)) / 2 / n_in
    spectra = hermitian_eigenvalues(states)
    clamp = lambda x: np.where(x > 0.0, x, 0.0)  # noqa: E731
    if k == 2:
        neg = np.hypot((states[:, 0, 0].real - states[:, 1, 1].real) / 2, np.abs(states[:, 1, 0]))
    else:
        neg = clamp(spectra[:, -1] - 0.5)
    ops = np.moveaxis(kraus, 1, 0)
    pt = sum(op[:, None, :, :, None] * op.conj().swapaxes(-1, -2)[:, :, None, None, :] for op in ops)
    ev = hermitian_eigenvalues(pt.reshape(n, 4, 4) / n_in)
    pt_neg = clamp((np.abs(ev).sum(axis=-1) - 1.0) / 2.0)
    rows = kraus.swapaxes(-1, -2).reshape(n, k, 4)
    tau = broadcast_product(rows[..., ::-1] * [-1, 1, 1, -1], rows.swapaxes(-1, -2)) / n_in
    if k == 2:
        (t00, t01), (t10, t11) = tau[:, 0].T, tau[:, 1].T
        p, q = abs(t00) ** 2 + abs(t10) ** 2, abs(t01) ** 2 + abs(t11) ** 2
        gap = np.hypot(p - q, 2 * abs(t00.conj() * t01 + t10.conj() * t11))
        total = np.sqrt(p + q + 2 * abs(t00 * t11 - t01 * t10))
        conc = np.divide(gap, total, out=np.zeros_like(gap), where=total > 0)
    else:
        lam = np.linalg.svd(tau, compute_uv=False)
        conc = clamp(lam[:, 0] - lam[:, 1:4].sum(axis=-1))
    return (neg, conc, _entropies(spectra)), pt_neg


def pauli_channels(rng, n):
    """sqrt(p_i) sigma_i for random weights: four operators whose Gram state
    is diagonal, a 4 x 4 X-matrix."""
    paulis = np.array([np.eye(2), [[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])
    return np.sqrt(rng.dirichlet(np.ones(4), n))[:, :, None, None] * paulis


def real_cptp_stack(k, n, rng):
    """n real qubit channels of k operators, each a random real isometry
    V (2k, 2), read as K[a, i, j] = V[(a, i), j]: up to two rows of V are
    exact zeros, every row's sign is flipped at random, so some zeros are
    -0.0, and the imaginary parts are +-0.0 at random.  Stored as complex,
    as the families store theirs.  Real arithmetic gives some exact zeros of
    a Gram state or tau the other sign, which moves LAPACK's bits on 2-4 %
    of these samples at k = 3, 4 and 5: choi_measures keeps those complex."""
    v = np.zeros((n, 2 * k, 2))
    for sample in v:
        keep = rng.permutation(2 * k)[: max(2, 2 * k - rng.integers(0, 3))]
        q, r = np.linalg.qr(rng.standard_normal((len(keep), 2)))
        sample[np.sort(keep)] = q * np.sign(np.diagonal(r))
    v *= rng.choice([-1.0, 1.0], size=(n, 2 * k, 1))
    kraus = v.reshape(n, k, 2, 2).astype(complex)
    kraus.imag = rng.choice([-0.0, 0.0], size=kraus.shape)
    return kraus


def entry_major_stacks():
    rng = np.random.default_rng(23)
    theta = np.linspace(0.0, math.pi, 4097)
    stacks = {
        "qubit-a-0": qubit_family_a(theta, 0.0),
        "qubit-a-0.9": qubit_family_a(theta, 0.9),
        "qubit-b": qubit_family_b(theta, 0.4),
        "ad": amplitude_damping(np.linspace(0.0, 1.0, 4097)),
    }
    mixed = np.concatenate([qubit_family_a(rng.uniform(0.0, math.pi, 60), 0.9),
                            amplitude_damping(rng.uniform(0.0, 1.0, 60)),
                            qubit_family_b(rng.uniform(0.1, 3.0, 60), 1.3),
                            np.array([random_cptp(2, 2, 2, rng) for _ in range(60)])])
    stacks["mixed"] = mixed[rng.permutation(len(mixed))]
    for k in range(1, 5):
        stacks[f"random-k{k}"] = np.array([random_cptp(2, 2, k, rng) for _ in range(200)])
    for k in range(1, 6):
        stacks[f"real-k{k}"] = real_cptp_stack(k, 200, rng)
    stacks["pauli"] = pauli_channels(rng, 200)
    # The paper's class: self-complementary, with dense partial transposes.
    stacks["symmetric"] = np.array([random_symmetric_channel(2, 2, rng) for _ in range(200)])
    stacks["one"] = qubit_family_b(np.array([0.7]), 0.2)
    return stacks


@pytest.mark.parametrize("name", list(entry_major_stacks()))
def test_choi_measures_equal_the_broadcast_route_bitwise(name):
    kraus = entry_major_stacks()[name]
    got, (expected, pt_neg) = choi_measures(kraus), broadcast_choi_measures(kraus)
    for g, e in zip(got, expected):
        assert g.shape == (len(kraus),) and bits(g) == bits(e)
    # The partial transpose's negativity, across routes.
    assert np.abs(got[0] - pt_neg).max() <= 1e-15


@pytest.mark.parametrize("k", range(1, 6))
def test_choi_measures_check_completeness_as_completeness_residuals_bitwise(k, monkeypatch):
    # The real stack takes the real route at k = 2, which forms only c00, c10 and c11.
    rng = np.random.default_rng(40 + k)
    handed = []
    monkeypatch.setattr("qchan.measures._require_complete", handed.append)
    for kraus in (np.array([random_cptp(2, 2, k, rng) for _ in range(300)]), real_cptp_stack(k, 300, rng)):
        handed.clear()
        choi_measures(kraus)
        assert len(handed) == 1 and bits(handed[0]) == bits(completeness_residuals(kraus))


def test_the_entry_major_stacks_reach_every_route(monkeypatch):
    # 2 x 2 Gram states of every family in one stack, and 4 x 4 Gram states
    # both X-shaped (Pauli channels) and dense: no partial transpose.
    stacks = entry_major_stacks()
    shapes = []
    eigvalsh = np.linalg.eigvalsh

    def record(m, *args, **kwargs):
        shapes.append(np.shape(m))
        return eigvalsh(m, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", record)
    choi_measures(stacks["mixed"])
    assert shapes == []
    shapes.clear()
    choi_measures(stacks["pauli"])
    assert shapes == []
    shapes.clear()
    choi_measures(stacks["random-k4"])
    assert shapes == [(200, 4, 4)]


@pytest.mark.parametrize("k", range(1, 6))
def test_real_samples_keep_their_bits_beside_a_complex_sample(k):
    rng = np.random.default_rng(70 + k)
    real = real_cptp_stack(k, 300, rng)
    mixed = np.insert(real, 137, random_cptp(2, 2, k, rng), axis=0)
    for alone, beside in zip(choi_measures(real), choi_measures(mixed)):
        assert bits(alone) == bits(np.delete(beside, 137))


@pytest.mark.parametrize("k", range(1, 6))
def test_choi_measures_hand_lapack_complex_arrays(k, monkeypatch):
    # Real operands would round LAPACK's reflectors apart from the complex
    # route's, so a real block must not reach eigvalsh or svd as real.  At
    # k = 2, where blocks run real, every measure takes a closed form and
    # nothing reaches LAPACK.
    dtypes = []
    for name in ("eigvalsh", "svd"):
        solver = getattr(np.linalg, name)

        def record(m, *args, solver=solver, **kwargs):
            dtypes.append(np.asarray(m).dtype)
            return solver(m, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, record)
    choi_measures(real_cptp_stack(k, 100, np.random.default_rng(80 + k)))
    if k == 2:
        assert dtypes == []
    else:
        assert dtypes and set(dtypes) == {np.dtype(complex)}


def test_a_real_block_reaches_the_concurrence_as_float64(monkeypatch):
    # The float64 route of choi_measures, pinned: its speed comes from it.
    dtypes = []

    def record(rows, n_in):
        dtypes.append(rows.dtype)
        return _concurrence_of_factors(rows, n_in)

    monkeypatch.setattr("qchan.measures._concurrence_of_factors", record)
    theta = np.linspace(0.0, math.pi, 9)
    real = [qubit_family_a(theta, 0.0), qubit_family_b(theta, 0.0),
            amplitude_damping(np.linspace(0.0, 1.0, 9)),
            real_cptp_stack(2, 9, np.random.default_rng(9))]
    for kraus in real:
        choi_measures(kraus)
    choi_measures(qubit_family_b(theta, 0.3))
    assert dtypes == [np.dtype(float)] * 4 + [np.dtype(complex)]


EMPTY_STACK_CALLS = {
    "gram_states": lambda: gram_states(np.zeros((0, 2, 2, 2))),
    "map_entropies": lambda: (map_entropies(np.zeros((0, 3, 2, 2))),),
    "choi_measures": lambda: choi_measures(np.zeros((0, 2, 2, 2))),
    "choi_measures-k4": lambda: choi_measures(np.zeros((0, 4, 2, 2))),
    "capacity_lower_bounds": lambda: (capacity_lower_bounds(np.zeros((0, 2, 2, 2))),),
    "von_neumann_entropies": lambda: (von_neumann_entropies(np.zeros((0, 2, 2))),),
    "negativities": lambda: (negativities(np.zeros((0, 4, 4)), (2, 2)),),
    "concurrences": lambda: (concurrences(np.zeros((0, 4, 4))),),
}


@pytest.mark.parametrize("name", list(EMPTY_STACK_CALLS))
def test_an_empty_stack_gives_empty_results(name):
    for result in EMPTY_STACK_CALLS[name]():
        assert isinstance(result, np.ndarray) and len(result) == 0


def test_concurrence_closed_form_values_and_domain():
    root = 1.0 / math.sqrt(2.0)
    assert abs(concurrence_closed_form(0.0) - root) <= 1e-15
    assert concurrence_closed_form(math.pi / 4) == 0.0
    assert abs(concurrence_closed_form(math.pi / 2) - root) <= 1e-15
    with pytest.raises(ValueError):
        concurrence_closed_form(-0.1)
    with pytest.raises(ValueError):
        concurrence_closed_form(2.0)


# The grids of sweep: --points 100, 101, 1001 and 4097 up to pi/2, and 57
# points up to 1.0.
SWEEP_GRIDS = [(100, math.pi / 2), (101, math.pi / 2), (1001, math.pi / 2), (4097, math.pi / 2),
               (57, 1.0)]


@pytest.mark.parametrize("points,theta_max", SWEEP_GRIDS)
def test_closed_forms_of_an_array_are_the_scalar_calls_bit_for_bit(points, theta_max):
    thetas = np.linspace(0.0, theta_max, points)
    for closed_form in (negativity_closed_form, concurrence_closed_form):
        values = closed_form(thetas)
        scalars = [closed_form(theta) for theta in thetas.tolist()]
        assert all(type(value) is float for value in scalars)
        assert values.shape == thetas.shape and values.tobytes() == np.array(scalars).tobytes()


def test_closed_forms_keep_the_scalar_contract():
    assert type(concurrence_closed_form(np.float64(0.3))) is float
    assert type(negativity_closed_form(np.array(0.3))) is float
    values = concurrence_closed_form([0.0, math.pi / 4, math.pi / 2])
    assert values[1] == 0.0 and not np.signbit(values[1])
    with pytest.raises(ValueError, match=r"^theta = -0.5 outside \[0, pi/2\]$"):
        concurrence_closed_form([0.1, -0.5, 2.0])
    with pytest.raises(ValueError, match=r"^theta = nan outside"):
        concurrence_closed_form(np.array([math.nan]))


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
    return reference_spectrum_entropy(np.linalg.eigvalsh(rho))


def reference_spectrum_entropy(ev) -> float:
    """-sum ev ln ev over the eigenvalues above the floor alone, compacted."""
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
    got = capacity_lower_bounds(np.array(channels))
    singles = [capacity_lower_bounds(ch[None])[0] for ch in channels]
    assert bits(got) == bits(singles)
    # The 2 x 2 output spectra take the closed form; the LAPACK loop holds it.
    assert np.abs(got - [reference_capacity_bound(ch) for ch in channels]).max() <= 1e-15


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
    assert validate_channel(chans["ndim-fourier"]).cptp_residual > DEFAULT_TOL
    for name, ch in chans.items():
        report = validate_channel(ch)
        assert report.choi_rank == channel_rank(choi_matrix(ch)), name
        if report.cptp_residual <= DEFAULT_TOL:
            choi_route = von_neumann_entropy(choi_state(ch))
            assert abs(map_entropy(ch) - choi_route) <= 1e-12, name


def test_zero_entropies_are_positive_zero():
    for value in (
        map_entropy(identity_channel(2)),
        map_entropy(amplitude_damping(0.0)),
        von_neumann_entropy(pure_state([0.6, 0.8j])),
    ):
        assert value == 0.0 and math.copysign(1.0, value) == 1.0


def test_entropies_refuse_an_eigenvalue_beyond_the_tolerance():
    with pytest.raises(ValueError, match=r"^state has eigenvalue -1\.100e-10 below tolerance$"):
        _entropies(np.array([[0.5, 0.5, -1.1e-10]]))
    # An eigenvalue at exactly -DEFAULT_TOL is a rounding zero: its term is +0.0.
    at_tol = _entropies(np.array([[0.5, 0.5, -DEFAULT_TOL]]))
    assert at_tol.tobytes() == _entropies(np.array([[0.5, 0.5, 0.0]])).tobytes()
    assert abs(at_tol[0] - math.log(2)) <= 1e-16


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
        capacity_lower_bounds,
    )
    for stacked in stacked_calls:
        with pytest.raises(type(single.value)):
            stacked(stack)


def test_stacked_measures_equal_per_state_loop_on_full_rank_states(rng):
    stack = np.array([random_density_matrix(4, rng) for _ in range(STACK_BLOCK + 3)])
    pts = stack.reshape(-1, 2, 2, 2, 2).transpose(0, 3, 2, 1, 4).reshape(stack.shape)
    negs = [0.0 - float(np.minimum(np.linalg.eigvalsh(pt), 0.0).sum()) for pt in pts]
    assert bits(negativities(stack, (2, 2))) == bits(negs)
    assert bits(von_neumann_entropies(stack)) == bits([reference_entropy(m) for m in stack])


# Values at or below the floor, as eigensolves give them.
FLOORED = [0.0, -0.0, ENTROPY_EIGENVALUE_FLOOR, 1e-15, 5e-324, -1e-17, -DEFAULT_TOL]


def floored_spectra(rng, length, rows) -> np.ndarray:
    """Rows of normalised random spectra, each eigenvalue floored with a
    probability drawn per row, so that rows keep from none to all of them;
    the first two rows are a single 1 and all floored."""
    ev = rng.uniform(0.0, 1.0, (rows, length)) ** 4
    ev /= ev.sum(axis=-1, keepdims=True)
    floored = rng.random((rows, length)) < rng.random((rows, 1))
    floored[0], floored[1] = np.arange(length) > 0, True
    ev[0, 0] = 1.0
    return np.where(floored, rng.choice(FLOORED, (rows, length)), ev)


def test_entropies_of_a_row_are_its_bits_alone_and_in_any_stack(rng):
    for length in range(1, 41):
        stack = floored_spectra(rng, length, 60)
        got = _entropies(stack)
        for i, row in enumerate(stack):
            assert bits(_entropies(stack[i : i + 1])) == bits(got[i : i + 1])
            ref = reference_spectrum_entropy(row)
            assert abs(got[i] - ref) <= 2e-15 * ref, (length, i, got[i], ref)
        perm = rng.permutation(len(stack))
        assert bits(_entropies(stack[perm])) == bits(got[perm])
        assert bits(_entropies(stack[::2])) == bits(got[::2])
        # A zero entropy is +0.0: a single 1, or every eigenvalue floored.
        assert bits(got[:2]) == bits([0.0, 0.0])


# ------------------------------------------ capacity bound, environment side


def product_route_capacity_bounds(kraus) -> tuple[np.ndarray, np.ndarray]:
    """The capacity route that multiplied the computational basis into the
    Kraus stack with _product, before _capacity_bounds read the channel's
    own input basis: the reference that it keeps bit for bit.  The mixture
    is the Gram state of the complementary tensor, w[:, j, a, i] = K_i[a, j]
    read in (a, i, j) order, by the kernel of validate_channel."""
    kraus = np.asarray(kraus, dtype=complex)
    n, k, n_out, n_in = kraus.shape
    w = _product(np.eye(n_in), kraus.transpose(0, 3, 2, 1).reshape(n, n_in, n_out * k))
    w = w.reshape(n, n_in, n_out, k)
    small = _product(dagger(w), w) if k < n_out else _product(w, dagger(w))
    side = small.shape[-1]
    parts = _entropies(hermitian_eigenvalues(small.reshape(n * n_in, side, side))).reshape(n, n_in)
    env = np.ascontiguousarray(w.transpose(0, 2, 3, 1))
    mixed = _entropies(hermitian_eigenvalues(_grams(env) / n_in))
    chi = mixed - parts.mean(axis=-1)
    return mixed, np.where(chi > 0.0, chi, 0.0)


def capacity_draws():
    """240 stacks of 0 to 3 random channels with n_in = 1..7 and random n_out
    and k, then family members, whose zero entries carry both signs."""
    rng = np.random.default_rng(2027)
    for draw in range(240):
        n_in = 1 + draw % 7
        n_out = int(rng.integers(1, 8))
        k = int(rng.integers(-(-n_in // n_out), 8))
        n = int(rng.integers(0, 4))
        stack = np.array([random_cptp(n_in, n_out, k, rng) for _ in range(n)], dtype=complex)
        yield stack.reshape(n, k, n_out, n_in)
    members = [qubit_family_a(0.3, 0.7), qubit_family_b(1.1, 0.2), amplitude_damping(0.25),
               qutrit_family(0.0, dft_matrix(3)), ndim_theta0(5), identity_channel(7)]
    for ch in members:
        yield ch[None].astype(complex)


def test_capacity_lower_bounds_equal_the_alphabet_product_route_bitwise():
    for stack in capacity_draws():
        own = _capacity_bounds(stack)
        assert bits(capacity_lower_bounds(stack)) == bits(own[1])
        assert bits(own) == bits(product_route_capacity_bounds(stack))


def apply_kraus_route(channel) -> tuple[float, float]:
    """The capacity bound and the coherent information at 1/n_in by the route
    the environment side replaced: each |i><i| of the computational basis
    through apply_kraus, the Holevo quantity of their per-state entropies,
    and the complementary channel's output."""
    n_in = channel.shape[-1]
    basis = np.eye(n_in, dtype=complex)
    outputs = apply_kraus(channel, np.einsum("ij,ik->ijk", basis, basis))
    parts = np.mean([reference_entropy(out) for out in outputs])
    chi = max(0.0, reference_entropy(outputs.mean(axis=0)) - parts)
    return chi, coherent_information(channel, np.eye(n_in) / n_in)


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
def test_environment_side_matches_the_apply_kraus_route(name):
    ch = route_channels()[name]
    entropy, coherent, chi = information_quantities(ch, validate_channel(ch).gram_spectrum)
    old_chi, old_coherent = apply_kraus_route(ch)
    assert abs(entropy - von_neumann_entropy(choi_state(ch))) <= 1e-12
    assert abs(coherent - old_coherent) <= 1e-12
    assert abs(chi - old_chi) <= 1e-12
    assert abs(capacity_lower_bounds(ch[None])[0] - old_chi) <= 1e-12


def test_sweep_chi_column_matches_the_apply_kraus_route(tmp_path):
    thetas = np.linspace(0.0, math.pi / 2, 101)
    old = [apply_kraus_route(qubit_family_a(float(t), 0.7))[0] for t in thetas]
    stack = np.array([qubit_family_a(float(t), 0.7) for t in thetas])
    assert np.abs(capacity_lower_bounds(stack) - old).max() <= 1e-12
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
