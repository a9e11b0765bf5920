"""Entropies, capacity quantities, and entanglement monotones.

All entropic quantities are in nats (natural logarithm); callers wanting
bits divide by ln 2.

Each measure is evaluated on stacks: a plural function takes an (N, d, d)
stack of states or an (N, k, n_out, n_in) Kraus stack, and returns one value
per sample.  The singular function is its N = 1 call.

A channel is checked once, for completeness at the caller's tolerance, and
a state from the caller once, with ``validate_states``.  A state derived from
accepted input (a Gram state, an output, a mixture) is W W^dagger for some W,
Hermitian and PSD by construction: it is eigensolved as it is, not re-judged.

The closed forms for the first qubit family (``qubit_family_a`` at phi = 0)
were derived from the exact spectra of the family's Choi states and agree
with the numeric pipeline to machine precision:

* Choi spectrum: {1/4 + sin^2(t)/2, 1/4 + cos^2(t)/2, 0, 0}
* spin-flip product spectrum: {sin^2(t)/2, cos^2(t)/2, 0, 0}
* negativity: |cos 2t| / 4
* concurrence: |sin t - cos t| / sqrt2
"""

from __future__ import annotations

import math

import numpy as np

from .channels import (
    _as_kraus,
    apply,
    apply_kraus,
    complementary,
    gram_states,
    require_cptp_stack,
)
from .linalg import (
    DEFAULT_TOL,
    _finite,
    _matrices,
    as_matrix,
    as_stack,
    dagger,
    hermitian_eigenvalues,
    partial_transpose,
    validate_states,
)

# Entropy eigenvalues below this are exact zeros (avoids 0 * log 0 noise).
ENTROPY_EIGENVALUE_FLOOR = 1e-14

_SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]])
_YY = np.kron(_SIGMA_Y, _SIGMA_Y)


def _clamp_nonnegative(x) -> np.ndarray:
    """max(0.0, x) per sample, as Python's max gives it: every x <= 0,
    -0.0 included, becomes +0.0 (np.maximum(0.0, -0.0) is -0.0)."""
    return np.where(x > 0.0, x, 0.0)


def _entropies(spectra) -> np.ndarray:
    """-sum ev ln ev of each row of a stack of state spectra, in nats.

    Eigenvalues at or below ENTROPY_EIGENVALUE_FLOOR are exact zeros.  Rows
    are summed in groups of equal length after the floor, so each sum runs
    over the kept eigenvalues alone, as the sum of one row by itself does.
    """
    lo = float(spectra.min())
    if lo < -DEFAULT_TOL:
        raise ValueError(f"state has eigenvalue {lo:.3e} below tolerance")
    keep = spectra > ENTROPY_EIGENVALUE_FLOOR
    counts = keep.sum(axis=-1)
    out = np.empty(len(spectra))
    for m in np.flatnonzero(np.bincount(counts)):
        rows = counts == m
        ev = spectra[rows][keep[rows]].reshape(-1, m)
        # 0.0 - x, not -x: a zero entropy is +0.0, never -0.0.
        out[rows] = 0.0 - (ev * np.log(ev)).sum(axis=-1)
    return out


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
    s_out, s_env = (float(_entropies(hermitian_eigenvalues(s[None]))[0]) for s in (out, env))
    return s_out - s_env


def holevo_chis(probabilities, states) -> np.ndarray:
    """S(sum p_i rho_i) - sum p_i S(rho_i) of each row of a stack of ensembles.

    ``states`` has shape (N, M, d, d): N ensembles of M states, all weighted
    by the M ``probabilities``, which must be nonnegative and sum to 1 within
    1e-12.  The states are checked by :func:`validate_states`; their mixture
    is eigensolved unchecked.  Nonnegative by concavity; rounding below zero
    is clamped.
    """
    states = _finite(states, (4,), "a stack of ensembles (N, M, d, d)")
    n, m, d, _ = states.shape
    probabilities = [float(p) for p in probabilities]
    if len(probabilities) != m or not probabilities:
        raise ValueError(f"need one probability per state: {len(probabilities)} for {m} states")
    if min(probabilities) < 0:
        raise ValueError("probabilities must be nonnegative")
    if abs(sum(probabilities) - 1.0) > 1e-12:
        raise ValueError(f"probabilities sum to {sum(probabilities)}, not 1")
    parts = von_neumann_entropies(states.reshape(n * m, d, d)).reshape(n, m)
    mixture = sum(p * states[:, i] for i, p in enumerate(probabilities))
    mixed = _entropies(hermitian_eigenvalues(mixture))
    chi = mixed - sum(p * parts[:, i] for i, p in enumerate(probabilities))
    return _clamp_nonnegative(chi)


def _capacity_bounds(kraus: np.ndarray, vectors: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Entropy of the average output, and Holevo quantity, of an equiprobable
    alphabet of orthonormal state vectors, the rows of the complex array
    ``vectors`` (M, n_in), for each channel of an accepted Kraus stack (N, k,
    n_out, n_in), from small spectra.

    The output of psi is W W^dagger, where the columns of W are the vectors
    K_a psi, so its nonzero spectrum is that of the smaller of W W^dagger
    (n_out x n_out) and W^dagger W (k x k).  The average output is
    Y Y^dagger / M, where Y holds the columns of every W; for a complete
    basis it is Phi(1/n_in).  These states are eigensolved unchecked.
    """
    n, k, n_out, n_in = kraus.shape
    m = len(vectors)
    # w[:, i, :, a] = K_a psi_i, column a of W for the i-th state.
    w = vectors @ kraus.transpose(0, 3, 2, 1).reshape(n, n_in, n_out * k)
    w = w.reshape(n, m, n_out, k)
    small = dagger(w) @ w if k < n_out else w @ dagger(w)
    side = small.shape[-1]
    parts = _entropies(hermitian_eigenvalues(small.reshape(n * m, side, side))).reshape(n, m)
    y = w.transpose(0, 2, 1, 3).reshape(n, n_out, m * k)
    mixed = _entropies(hermitian_eigenvalues(y @ dagger(y) / m))
    return mixed, _clamp_nonnegative(mixed - parts.mean(axis=-1))


def capacity_lower_bounds(kraus, alphabet, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Holevo quantity of the channel outputs for an equiprobable alphabet of
    orthonormal state vectors, the rows of ``alphabet`` (M, n_in), for each
    channel of a Kraus stack (N, k, n_out, n_in); lower-bounds the classical
    capacity.  ``tol`` bounds both the overlaps of the alphabet and the
    completeness residual of every channel."""
    vectors = _finite(alphabet, (2,), "an alphabet (M, n_in) of state vectors")
    if not len(vectors):
        raise ValueError("need at least one basis state")
    inner = vectors.conj() @ vectors.T
    # |<psi_j|psi_i>|^2 = tr(rho_j rho_i), the overlap of the pure states.
    overlaps = np.abs(inner) ** 2
    for i in range(len(vectors)):
        norm = float(np.real(inner[i, i]))
        if abs(norm - 1.0) > 1e-9:
            raise ValueError(f"basis state {i} is not normalised (<psi|psi> = {norm})")
        bad = np.flatnonzero(overlaps[:i, i] > tol)
        if bad.size:
            j = int(bad[0])
            raise ValueError(f"basis states {j} and {i} overlap by {overlaps[j, i]:.3e}")
    kraus = require_cptp_stack(kraus, tol)
    n_in = kraus.shape[-1]
    if vectors.shape[1] != n_in:
        raise ValueError(f"state dimension {vectors.shape[1]} != channel input dimension {n_in}")
    return _capacity_bounds(kraus, vectors)[1]


def classical_capacity_lower_bound(kraus, alphabet, tol: float = DEFAULT_TOL) -> float:
    """Holevo quantity of the channel outputs for an equiprobable alphabet of
    orthonormal state vectors, the rows of ``alphabet``; lower-bounds the
    classical capacity."""
    return float(capacity_lower_bounds(_as_kraus(kraus)[None], alphabet, tol)[0])


def information_quantities(kraus: np.ndarray, gram_spectrum) -> tuple[float, float, float]:
    """Map entropy, coherent information at the maximally mixed input, and the
    capacity bound of the computational basis, all from small spectra, for a
    Kraus array (k, n_out, n_in) that the caller accepted: ``gram_spectrum``
    is the spectrum of its Gram state G / n_in from
    :func:`channels.validate_channel`, whose ``cptp_ok`` is the one
    completeness check.  Nothing is checked here.

    The computational basis is complete, so its average output is
    Phi(1/n_in), whose entropy serves the capacity bound and the coherent
    information S(Phi(1/n_in)) - S(Phi^c(1/n_in)) alike; Phi^c(1/n_in) is
    G^T / n_in, whose entropy is the map entropy (Watrous, The Theory of
    Quantum Information, 2018, ch. 2).
    """
    entropy = float(_entropies(np.asarray(gram_spectrum)[None])[0])
    mixed, chi = _capacity_bounds(kraus[None], np.eye(kraus.shape[-1], dtype=complex))
    return entropy, float(mixed[0]) - entropy, float(chi[0])


def spin_flip(omega) -> np.ndarray:
    """(sigma_y (x) sigma_y) conj(omega) (sigma_y (x) sigma_y) on two qubits,
    matrix by matrix for a stack."""
    m = _matrices(omega)
    if m.shape[-2:] != (4, 4):
        raise ValueError(f"spin flip needs a 4x4 two-qubit matrix, got {m.shape}")
    return _YY @ m.conj() @ _YY


def _concurrence_of_factors(rows: np.ndarray, n_in: int) -> np.ndarray:
    """Two-qubit concurrence max{0, l1 - l2 - l3 - l4} of each state rho =
    V V^dagger / n_in of a stack, given the rows (N, m, 4) of V^T.

    Wootters' lambda_i are the singular values of tau = V^T (sigma_y (x)
    sigma_y) V / n_in, as rho rho~ and conj(tau) tau share their nonzero
    spectrum: no root of rounding noise.  sigma_y (x) sigma_y is the
    antidiagonal (-1, 1, 1, -1), so a row times it is the row reversed and
    signed.
    """
    tau = rows[..., ::-1] * [-1, 1, 1, -1] @ rows.swapaxes(-1, -2) / n_in
    lam = np.linalg.svd(tau, compute_uv=False)
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
    return _concurrence_of_factors(_state_rows(states), 1)


def concurrence(omega) -> float:
    """Two-qubit concurrence max{0, l1 - l2 - l3 - l4}."""
    return float(concurrences(np.asarray(omega)[None])[0])


def negativities(states, dims: tuple[int, int]) -> np.ndarray:
    """(trace norm of the partial transpose - 1) / 2 of each state of a
    stack, which :func:`validate_states` checks."""
    states = as_stack(states)
    validate_states(states)
    d1, d2 = dims
    if states.shape[-1] != d1 * d2:
        raise ValueError(f"state dimension {states.shape[-1]} != {d1} * {d2}")
    ev = hermitian_eigenvalues(partial_transpose(states, dims))
    neg = (np.abs(ev).sum(axis=-1) - 1.0) / 2.0
    return _clamp_nonnegative(neg)


def negativity(omega, dims: tuple[int, int]) -> float:
    """(trace norm of the partial transpose - 1) / 2."""
    return float(negativities(np.asarray(omega)[None], dims)[0])


def choi_measures(kraus) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Negativity, concurrence and map entropy of the Choi state of each qubit
    channel of a Kraus stack (N, k, 2, 2), from its Kraus entries.

    The Choi state is rho = V V^dagger, Hermitian and PSD by construction, for
    V with the vectorised K_a / sqrt(n_in) as columns, so the Gram states
    V^dagger V = G / n_in are validated in its place and give the map entropy.
    rho's partial transpose PT[(k,i),(l,j)] = sum_a K_a[i,l] conj(K_a[j,k])
    / n_in is summed as the superoperator is; mirrored entries are conjugate
    products, so PT is exactly Hermitian.  The concurrence is
    :func:`_concurrence_of_factors` of the Kraus rows.
    """
    if np.ndim(kraus) != 4 or np.shape(kraus)[2:] != (2, 2):
        raise ValueError(f"need a qubit Kraus stack (N, k, 2, 2), got shape {np.shape(kraus)}")
    _, spectra = gram_states(kraus)
    kraus = np.asarray(kraus, dtype=complex)
    n, k, _, n_in = kraus.shape
    ops = np.moveaxis(kraus, 1, 0)
    pt = sum(op[:, None, :, :, None] * dagger(op)[:, :, None, None, :] for op in ops)
    ev = hermitian_eigenvalues(pt.reshape(n, 4, 4) / n_in)
    neg = _clamp_nonnegative((np.abs(ev).sum(axis=-1) - 1.0) / 2.0)
    # Row a is vec(K_a) in the Choi ordering: rho = V V^dagger / n_in for these rows of V^T.
    conc = _concurrence_of_factors(kraus.swapaxes(-1, -2).reshape(n, k, 4), n_in)
    return neg, conc, _entropies(spectra)


def concurrence_closed_form(theta: float) -> float:
    """Choi-state concurrence of the first qubit family at phi = 0.

    The spin-flip product of the family's Choi state has exact spectrum
    {sin^2(t)/2, cos^2(t)/2, 0, 0}, so the concurrence is the difference of
    the two square roots, written in the usual three-branch arrangement with
    the entanglement-breaking zero at theta = pi/4.
    """
    theta = float(theta)
    if not 0.0 <= theta <= math.pi / 2:
        raise ValueError(f"theta = {theta} outside [0, pi/2]")
    if theta < math.pi / 4:
        return (math.cos(theta) - math.sin(theta)) / math.sqrt(2.0)
    if theta == math.pi / 4:
        return 0.0
    return (math.sin(theta) - math.cos(theta)) / math.sqrt(2.0)


def negativity_closed_form(theta: float) -> float:
    """Choi-state negativity of the first qubit family: |cos 2t| / 4."""
    return abs(math.cos(2.0 * float(theta))) / 4.0


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
    require_cptp_stack(ops[None])
    validate_states(state[None])
    rows_in = _state_rows(state[None])
    # Row (a, j) of the output's V^T is v_j^T (1 (x) K_a)^T, for v_j^T row j of the input's.
    extended = np.array([np.kron(np.eye(2), op) for op in ops])
    rows_out = (rows_in @ extended.swapaxes(-1, -2)).reshape(1, -1, 4)
    c_in = _concurrence_of_factors(rows_in, 1)[0]
    c_omega = _concurrence_of_factors(ops.swapaxes(-1, -2).reshape(1, -1, 4), 2)[0]
    c_out = _concurrence_of_factors(rows_out, 1)[0]
    return float(c_in * c_omega), float(c_out)
