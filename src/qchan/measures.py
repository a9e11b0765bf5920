"""Entropies, capacity quantities, and entanglement monotones.

All entropic quantities are in nats (natural logarithm); callers wanting
bits divide by ln 2.

Each measure is evaluated on stacks: a plural function takes an (N, d, d)
stack of states or an (N, k, n_out, n_in) Kraus stack, and returns one value
per sample.  The singular function is its N = 1 call.

A channel is checked once, for completeness within DEFAULT_TOL, and a caller's
state once, by ``validate_states``.  A derived state (a Gram state, an output,
a mixture) is W W^dagger, Hermitian and PSD by construction, and is not
re-judged: a 1e-12 trace check would refuse the outputs at a residual 5e-11.

The closed forms for the first qubit family (``qubit_family_a`` at phi = 0)
were derived from the exact spectra of the family's Choi states and agree
with the numeric pipeline to machine precision:

* Choi spectrum: {1/4 + sin^2(t)/2, 1/4 + cos^2(t)/2, 0, 0}
* spectrum of the spin-flip product omega (sigma_y (x) sigma_y) conj(omega)
  (sigma_y (x) sigma_y): {sin^2(t)/2, cos^2(t)/2, 0, 0}
* negativity: |cos 2t| / 4
* concurrence: |sin t - cos t| / sqrt2
"""

from __future__ import annotations

import math

import numpy as np

from .channels import (
    _as_kraus,
    _as_kraus_stack,
    _grams,
    _require_complete,
    apply,
    apply_kraus,
    complementary,
    completeness_residuals,
    gram_states,
    require_cptp_stack,
)
from .linalg import (
    DEFAULT_TOL,
    _eigenvalues,
    _pair_spectra,
    _product,
    as_matrix,
    as_stack,
    dagger,
    partial_transpose,
    validate_states,
)

# Entropy eigenvalues below this are exact zeros (avoids 0 * log 0 noise).
ENTROPY_EIGENVALUE_FLOOR = 1e-14

# The antidiagonal of sigma_y (x) sigma_y, from the top right.
_YY_ANTIDIAGONAL = np.array([-1, 1, 1, -1])


def _clamp_nonnegative(x) -> np.ndarray:
    """max(0.0, x) per sample, as Python's max gives it: every x <= 0,
    -0.0 included, becomes +0.0 (np.maximum(0.0, -0.0) is -0.0)."""
    return np.where(x > 0.0, x, 0.0)


def _entropies(spectra) -> np.ndarray:
    """-sum ev ln ev of each row of a stack of state spectra, in nats.

    Eigenvalues at or below ENTROPY_EIGENVALUE_FLOOR are exact zeros: each
    is replaced by 1, whose term 1 ln 1 is +0.0.  Every row is summed whole,
    at its full length, so a row's bits never depend on its stack.
    """
    lo = float(spectra.min(initial=0.0))
    if lo < -DEFAULT_TOL:
        raise ValueError(f"state has eigenvalue {lo:.3e} below tolerance")
    ev = np.where(spectra > ENTROPY_EIGENVALUE_FLOOR, spectra, 1.0)
    # 0.0 - x, not -x: a zero entropy is +0.0, never -0.0.
    return 0.0 - (ev * np.log(ev)).sum(axis=-1)


def von_neumann_entropies(states) -> np.ndarray:
    """S(rho) = -tr(rho ln rho) in nats of each state of a stack, which
    :func:`validate_states` checks."""
    return _entropies(validate_states(states))


def von_neumann_entropy(rho) -> float:
    """S(rho) = -tr(rho ln rho) in nats."""
    return float(von_neumann_entropies(np.asarray(rho)[None])[0])


def map_entropies(kraus) -> np.ndarray:
    """Entropy of the normalized Choi state of each channel of a Kraus stack,
    from the spectrum that validated its Gram state, the Choi state's
    nonzero spectrum."""
    return _entropies(gram_states(kraus)[1])


def map_entropy(kraus) -> float:
    """Entropy of the normalized Choi state; 0 for unitary channels."""
    return float(map_entropies(_as_kraus(kraus)[None])[0])


def coherent_information(kraus, rho) -> float:
    """Output entropy minus environment entropy; zero for self-complementary maps.

    :func:`apply` checks the channel and the input state; the complementary
    channel, CPTP with the channel, takes the same state, and both outputs
    are eigensolved unchecked.
    """
    out = apply(kraus, rho)
    env = apply_kraus(complementary(kraus), np.asarray(rho, dtype=complex))
    s_out, s_env = (float(_entropies(_eigenvalues(s))) for s in (out, env))
    return s_out - s_env


def _capacity_bounds(kraus: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Entropy of the average output, and Holevo quantity, of the
    equiprobable computational basis of the input, for each channel of an
    accepted Kraus stack (N, k, n_out, n_in), from small spectra.

    The output of |i> is W W^dagger, where the columns of W are the vectors
    K_a |i>, so its nonzero spectrum is that of the smaller of W W^dagger
    (n_out x n_out) and W^dagger W (k x k).  The average output Phi(1/n_in)
    is the transposed Gram state G^c / n_in of the complementary tensor,
    from the Gram kernel of validate_channel.  All are eigensolved unchecked.
    """
    n, k, n_out, n_in = kraus.shape
    # w[:, i, :, a] = K_a |i>, column a of W for the i-th state; contiguous,
    # since at n > 4 _product is BLAS's a @ b, whose bits can depend on the
    # memory layout of its operands.
    w = np.ascontiguousarray(kraus.transpose(0, 3, 2, 1))
    small = _product(dagger(w), w) if k < n_out else _product(w, dagger(w))
    side = small.shape[-1]
    parts = _entropies(_eigenvalues(small.reshape(n * n_in, side, side))).reshape(n, n_in)
    mixed = _entropies(_eigenvalues(_grams(np.ascontiguousarray(kraus.swapaxes(1, 2))) / n_in))
    return mixed, _clamp_nonnegative(mixed - parts.mean(axis=-1))


def capacity_lower_bounds(kraus) -> np.ndarray:
    """Holevo quantity of the equiprobable computational basis of the input,
    for each channel of a Kraus stack (N, k, n_out, n_in), checked for
    completeness within DEFAULT_TOL; lower-bounds the classical capacity."""
    return _capacity_bounds(require_cptp_stack(kraus))[1]


def information_quantities(kraus: np.ndarray, gram_spectrum) -> tuple[float, float, float]:
    """Map entropy, coherent information at the maximally mixed input, and the
    capacity bound of the computational basis, all from small spectra, for a
    Kraus array (k, n_out, n_in) that the caller accepted: ``gram_spectrum``
    is the spectrum of its Gram state G / n_in from
    :func:`channels.validate_channel`, whose ``cptp_residual`` the caller
    compared with its tolerance.  Nothing is checked here.

    The basis is complete, so its average output Phi(1/n_in) serves the
    capacity bound and the coherent information S(Phi(1/n_in)) -
    S(Phi^c(1/n_in)), where Phi^c(1/n_in) = G^T / n_in.  One Gram kernel
    solves both, so a strictly symmetric tensor, its own complement, gives
    exactly 0 (Watrous, The Theory of Quantum Information, 2018, ch. 2).
    """
    entropy = float(_entropies(np.asarray(gram_spectrum)[None])[0])
    mixed, chi = _capacity_bounds(kraus[None])
    return entropy, float(mixed[0]) - entropy, float(chi[0])


def _concurrence_of_factors(rows: np.ndarray, n_in: int) -> np.ndarray:
    """Two-qubit concurrence max{0, l1 - l2 - l3 - l4} of each state rho =
    V V^dagger / n_in of a stack, given the rows of V^T entry-major, (m, 4,
    N): rows[a, e] is entry e of row a, an array over the stack.

    Wootters' lambda_i are the singular values of tau = V^T (sigma_y (x)
    sigma_y) V / n_in, as rho rho~ and conj(tau) tau share their nonzero
    spectrum: no root of rounding noise.  sigma_y (x) sigma_y is the
    antidiagonal (-1, 1, 1, -1), so a row times it is the row reversed and
    signed.

    A 2 x 2 tau takes the closed form C = gap / (s1 + s2), with tau^dagger tau
    = [[p, r], [r*, q]], gap = sqrt((p - q)^2 + 4|r|^2) and s1 + s2 = sqrt(p
    + q + 2|det tau|): nothing cancels as C -> 0, unlike sqrt(|tau|_F^2 -
    2|det tau|), and tau = 0 gives +0.0.  Every other size takes the SVD.
    """
    tau = _pair_sums(rows[:, ::-1] * _YY_ANTIDIAGONAL[:, None], rows, range(4)) / n_in
    if len(tau) == 2:
        (t00, t01), (t10, t11) = tau
        p, q = abs(t00) ** 2 + abs(t10) ** 2, abs(t01) ** 2 + abs(t11) ** 2
        gap = np.hypot(p - q, 2 * abs(t00.conj() * t01 + t10.conj() * t11))
        total = np.sqrt(p + q + 2 * abs(t00 * t11 - t01 * t10))
        return np.divide(gap, total, out=np.zeros_like(gap), where=total > 0)
    lam = np.linalg.svd(np.moveaxis(tau, -1, 0), compute_uv=False)
    return _clamp_nonnegative(lam[:, 0] - lam[:, 1:4].sum(axis=-1))


def _state_rows(states: np.ndarray) -> np.ndarray:
    """The rows of V^T for each state rho = V V^dagger of a stack, V = U
    sqrt(w) from its eigensolve, cut to numerical rank: w <= d eps max(w),
    numpy's matrix_rank rule, is a zero.  Without the cut, rounding
    eigenvalues of 1e-19 give columns of 1e-9, which move the concurrence by
    about sqrt(eps) wherever tau has lower rank than rho."""
    w, u = np.linalg.eigh(states)
    cut = states.shape[-1] * np.finfo(float).eps * w[..., -1:]
    return (u * np.sqrt(np.where(w > cut, w, 0.0))[..., None, :]).swapaxes(-1, -2)


def concurrences(states) -> np.ndarray:
    """Two-qubit concurrence max{0, l1 - l2 - l3 - l4} of each state of a
    stack, which :func:`validate_states` checks: :func:`_concurrence_of_factors`
    of the factor V = U sqrt(w) that :func:`_state_rows` cuts to numerical
    rank."""
    states = as_stack(states)
    validate_states(states)
    if states.shape[-1] != 4:
        raise ValueError(f"concurrence needs a two-qubit state, got dim {states.shape[-1]}")
    return _concurrence_of_factors(np.moveaxis(_state_rows(states), 0, -1), 1)


def concurrence(omega) -> float:
    """Two-qubit concurrence max{0, l1 - l2 - l3 - l4}."""
    return float(concurrences(np.asarray(omega)[None])[0])


def negativities(states, dims: tuple[int, int]) -> np.ndarray:
    """Sum of the moduli of the negative eigenvalues of the partial
    transpose of each state of a stack, which :func:`validate_states`
    checks: (trace norm - 1) / 2 at unit trace, without its cancellation."""
    states = as_stack(states)
    validate_states(states)
    d1, d2 = dims
    if states.shape[-1] != d1 * d2:
        raise ValueError(f"state dimension {states.shape[-1]} != {d1} * {d2}")
    ev = _eigenvalues(partial_transpose(states, dims))
    return 0.0 - np.minimum(ev, 0.0).sum(axis=-1)  # +0.0, never -0.0


def negativity(omega, dims: tuple[int, int]) -> float:
    """Sum of the moduli of the negative eigenvalues of the partial transpose."""
    return float(negativities(np.asarray(omega)[None], dims)[0])


def choi_measures(kraus) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Negativity, concurrence and map entropy of the Choi state of each qubit
    channel of a Kraus stack (N, k, 2, 2), from its Kraus entries.

    The stack is coerced once and laid out entry-major: v[a, e] is entry e of
    vec(K_a), one contiguous (N,) array, so numpy loops over the samples, not
    over axes of length 2 and 4.  Only the entries the closed forms read are
    formed, each a sum of elementwise products over the stack added in the
    order of the matrix route: a sample's bits are that route's, in any
    stack.  Completeness is checked first, from the K_a^dagger K_a summed as
    :func:`channels.completeness_residuals` sums them.  The Choi state rho =
    V V^dagger / n_in, V with the columns vec(K_a), has the nonzero spectrum
    mu of the Gram state V^dagger V / n_in = G / n_in: the map entropy's.

    No partial transpose is formed.  For a trace-preserving qubit channel
    Phi, the swap F and r = (i s_y (x) 1) rho (i s_y (x) 1)^dagger, rho^T_R
    = (id (x) Phi)(F) / 2 = 1 (x) rho_out - r and the spin flip r~ = 1 - r_1
    (x) 1 - 1 (x) r_2 + r with r_1 = 1/2 give rho^T_R = 1/2 - r~, of spectrum
    1/2 - mu (M. and P. Horodecki, PRA 59, 4206, 1999).  Only mu_max can
    exceed 1/2, so the negativity (Vidal and Werner, PRA 65, 032314, 2002)
    is max(0, mu_max - 1/2); at k = 2, the half-gap hypot((a - d) / 2, |b|)
    of the Gram state [[a, b*], [b, d]] (:func:`linalg._pair_spectra`),
    mu_max - 1/2 at a + d = 1 with no cancellation.  Off trace preservation,
    sum_a K_a^dagger K_a = 1 + E adds (E / 2) (x) 1 to rho^T_R and tr E / 2
    to a + d: to first order the two routes stay within the completeness
    residual max|E_ij|.  The concurrence is :func:`_concurrence_of_factors`
    of the rows v.  A real block of two operators, as in dynamics, runs in
    float64 (the routes differ only in the sign of an exact zero, which no
    closed form reads, but LAPACK's reflectors do, so other k stay complex)
    and forms c00, c10, c11 of sum_a K_a^T K_a and g00, g10, g11 of G from
    explicit row products: real products commute bit for bit, so c01 and
    g01 would repeat c10 and g10, and (G + G^T) / 2 changes no bit.  A
    complex block forms all four entries and takes b = (g10 + conj g01) / 2
    / n_in: numpy's complex products do not give g10 and conj g01 the same
    bits, and a lower triangle moved the bits of random k = 2, 3, 4 stacks.
    """
    if np.ndim(kraus) != 4 or np.shape(kraus)[2:] != (2, 2):
        raise ValueError(f"need a qubit Kraus stack (N, k, 2, 2), got shape {np.shape(kraus)}")
    kraus = _as_kraus_stack(kraus)
    n, k, _, n_in = kraus.shape
    kraus = kraus.real if k == 2 and not kraus.imag.any() else kraus
    # v[a, 2c + r] = K_a[r, c]: row a of V^T, vec(K_a) in the Choi ordering.
    v = np.ascontiguousarray(kraus.transpose(1, 3, 2, 0)).reshape(k, 4, n)
    if not np.iscomplexobj(v):
        # The entries on and below the diagonals, summed in the order of the complex route.
        (p0, p1, p2, p3), (q0, q1, q2, q3) = v
        (s0, s1, s2, s3), (t0, t1, t2, t3) = v * v
        c00, c11 = s0 + s1 + (t0 + t1), s2 + s3 + (t2 + t3)
        c10 = p2 * p0 + p3 * p1 + (q2 * q0 + q3 * q1)
        _require_complete(np.maximum(np.maximum(np.abs(c00 - 1), np.abs(c10)), np.abs(c11 - 1)))
        a, d = (s0 + s2 + s1 + s3) / n_in, (t0 + t2 + t1 + t3) / n_in
        b = np.abs(q0 * p0 + q2 * p2 + q1 * p1 + q3 * p3) / n_in
    else:
        vc = v.conj()
        # (K_a^dagger K_a)[l, m] = sum_r vc[a, 2l + r] v[a, 2m + r], as completeness_residuals sums it.
        columns = zip(vc.reshape(k, 2, 2, n), v.reshape(k, 2, 2, n))
        acc = sum(_pair_sums(left, right, range(2)) for left, right in columns)
        _require_complete(np.abs(acc - np.eye(2)[..., None]).max(axis=(0, 1)))
        # G_ab = tr(K_a^dagger K_b), over K's entries row by row as _grams sums them.
        gram = _pair_sums(vc, v, [0, 2, 1, 3])
        states = (gram + gram.conj().swapaxes(0, 1)) / 2 / n_in
        if k != 2:
            spectra = _eigenvalues(np.moveaxis(states, -1, 0))
            neg = _clamp_nonnegative(spectra[:, -1] - 0.5)
            return neg, _concurrence_of_factors(v, n_in), _entropies(spectra)
        a, d, b = states[0, 0].real, states[1, 1].real, np.abs(states[1, 0])
    spectra = np.stack(_pair_spectra(a, d, b), axis=-1)
    return np.hypot((a - d) / 2, b), _concurrence_of_factors(v, n_in), _entropies(spectra)


def _pair_sums(left: np.ndarray, right: np.ndarray, order) -> np.ndarray:
    """out[a, b] = sum_e left[a, e] right[b, e] for entry-major factors
    (m, terms, N), added over e in the given order, as :func:`_product` adds
    the matrix product that these entries stand for."""
    first, *rest = order
    out = left[:, None, first] * right[None, :, first]
    for e in rest:
        out += left[:, None, e] * right[None, :, e]
    return out


def concurrence_closed_form(theta):
    """Choi-state concurrence of the first qubit family at phi = 0, a float
    at one theta and an array at an array of them.

    The spin-flip product of the family's Choi state has exact spectrum
    {sin^2(t)/2, cos^2(t)/2, 0, 0}, so the concurrence is the difference of
    the two square roots, written in the usual three-branch arrangement with
    the entanglement-breaking zero at theta = pi/4.
    """
    t = np.asarray(theta, dtype=float)
    bad = ~((t >= 0.0) & (t <= math.pi / 2))
    if bad.any():
        raise ValueError(f"theta = {float(t[bad][0])} outside [0, pi/2]")
    cos, sin, quarter = np.cos(t), np.sin(t), math.pi / 4
    conc = np.where(t < quarter, cos - sin, np.where(t == quarter, 0.0, sin - cos)) / math.sqrt(2.0)
    return float(conc) if conc.ndim == 0 else conc


def negativity_closed_form(theta):
    """Choi-state negativity of the first qubit family, |cos 2t| / 4: a
    float at one theta and an array at an array of them."""
    neg = np.abs(np.cos(2.0 * np.asarray(theta, dtype=float))) / 4.0
    return float(neg) if neg.ndim == 0 else neg


def entanglement_evolution_factor(kraus, rho_in) -> tuple[float, float]:
    """Check the product rule for one-sided entanglement evolution.

    For a pure two-qubit input with the channel acting on the second qubit,
    the output concurrence equals the input concurrence times the
    concurrence of the channel's Choi state.  Returns (predicted, direct)
    where predicted = C(rho_in) * C(omega) and direct = C(rho_out).  The
    channel and the input are checked.  Each concurrence is
    :func:`_concurrence_of_factors` of a factor: the input's from its
    eigensolve, the Choi state's from the Kraus rows, and the output's
    columns (1 (x) K_a) V_in from the input's.
    """
    ops = _as_kraus(kraus)
    if ops.shape[1:] != (2, 2):
        raise ValueError("entanglement evolution factor needs a qubit channel")
    state = as_matrix(rho_in)
    if state.shape != (4, 4):
        raise ValueError(f"input must be a two-qubit state, got shape {state.shape}")
    _require_complete(completeness_residuals(ops[None]))
    validate_states(state[None])
    rows_in = _state_rows(state[None])
    # Row (a, j) of the output's V^T is v_j^T (1 (x) K_a)^T, for v_j^T row j of the input's.
    extended = np.array([np.kron(np.eye(2), op) for op in ops])
    rows_out = (rows_in @ extended.swapaxes(-1, -2)).reshape(1, -1, 4)
    c_in = _concurrence_of_factors(np.moveaxis(rows_in, 0, -1), 1)[0]
    c_omega = _concurrence_of_factors(ops.swapaxes(-1, -2).reshape(-1, 4, 1), 2)[0]
    c_out = _concurrence_of_factors(np.moveaxis(rows_out, 0, -1), 1)[0]
    return float(c_in * c_omega), float(c_out)
