"""Channel representations, conversions among them, and structural validators.

Conventions fixed across the package:

* A channel with ``k`` Kraus operators of shape ``(n_out, n_in)`` acts as
  ``rho -> sum_i K_i rho K_i^dagger``.  Its operators are one C-contiguous
  complex array of shape ``(k, n_out, n_in)``, the Kraus 3-tensor
  ``T[i, a, j] = (K_i)_(aj)``, and every other representation is a plain
  array: functions that need the ``n_in`` / ``n_out`` split of a square
  matrix take it as arguments.  A stack of channels is ``(N, k, n_out,
  n_in)``; a single channel's operators are its ``N = 1`` stack
  ``operators[None]``.
* The superoperator is ``S = sum_i K_i (x) conj(K_i)``, a
  ``(n_out^2, n_in^2)`` matrix acting on row-major vectorized density
  matrices.
* The Choi matrix ``D`` lives on (input copy) (x) (output): it is
  ``sum_kl E_kl (x) Phi(E_kl)``, of trace ``n_in``; tracing out the second
  (output) factor of a trace-preserving channel gives the identity on the
  input space.  ``D / n_in`` is a density matrix whenever the channel is
  completely positive and trace preserving.
* The Gram matrix of a Kraus set is ``G_ab = tr(K_a^dagger K_b)``, a
  ``k x k`` matrix of trace ``n_in`` for a trace-preserving channel, and
  ``G / n_in`` is its Gram state.  The environment output of the
  complementary channel at the maximally mixed input, ``Phi^c(1/n_in)``,
  is ``G^T / n_in``.  The Choi matrix is ``V V^dagger`` for the matrix
  ``V`` whose columns are the vectorized Kraus operators, and ``G`` is
  ``V^dagger V``, so the Choi matrix and ``G`` share their nonzero
  spectrum.  Map entropy and Choi rank are read off ``G``, at a cost of
  ``O(k^2 n_in n_out + k^3)``, not off the ``(n_in n_out)^2`` Choi matrix.
* The complementary channel swaps the Kraus index with the output row index
  of the Kraus 3-tensor; a channel is self-complementary when that swap
  fixes the tensor entrywise.
* A Stinespring dilation uses environment-major ordering env (x) sys with
  the environment prepared in the first basis state, so the Kraus operators
  are the successive ``n x n`` blocks of the first block-column of ``U``:
  ``K_i = U[i*n:(i+1)*n, :n]``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import (
    DEFAULT_TOL,
    DensityMatrix,
    _finite,
    _matrices,
    as_matrix,
    as_state,
    dagger,
    hermitian_eigenvalues,
    max_abs,
    validate_states,
)

__all__ = [
    "KrausSet",
    "ChannelValidation",
    "kraus",
    "apply",
    "apply_kraus",
    "complementary",
    "selfcomplementarity_defect",
    "is_selfcomplementary",
    "kraus_to_superop",
    "superop_to_choi",
    "choi_to_superop",
    "choi_to_kraus",
    "choi_matrix",
    "choi_state",
    "choi_states",
    "gram_states",
    "completeness_residuals",
    "require_cptp_stack",
    "channel_rank",
    "stinespring",
    "kraus_from_unitary",
    "tensor_channel",
    "compose",
    "validate_channel",
    "random_cptp",
]


@dataclass(frozen=True, eq=False)
class KrausSet:
    """Ordered Kraus operators of a linear map from n_in to n_out dimensions.

    ``operators`` is one C-contiguous complex array (k, n_out, n_in).  An
    array already of that form is kept as it is, without a copy; a sequence
    of matrices is stacked once.

    Maps that violate the completeness relation are representable (so that
    questionable parameterizations can be inspected numerically), but they
    carry a nonzero ``completeness_residual`` and are refused by operations
    whose contracts require a CPTP channel.
    """

    n_in: int
    n_out: int
    operators: np.ndarray

    def __post_init__(self):
        if self.n_in < 1 or self.n_out < 1:
            raise ValueError("dimensions must be positive")
        ops = self.operators
        if isinstance(ops, np.ndarray):
            ops = _finite(ops, (3,), "a Kraus array (k, n_out, n_in)")
        else:
            ops = [as_matrix(op) for op in ops]
        if not len(ops):
            raise ValueError("a channel needs at least one Kraus operator")
        for op in ops:
            if op.shape != (self.n_out, self.n_in):
                raise ValueError(
                    f"Kraus operator shape {op.shape} differs from ({self.n_out}, {self.n_in})"
                )
        object.__setattr__(self, "operators", np.ascontiguousarray(ops))

    @property
    def k(self) -> int:
        """Number of Kraus operators (environment dimension of the dilation)."""
        return len(self.operators)

    @property
    def completeness_residual(self) -> float:
        """max |sum_i K_i^dagger K_i - 1|."""
        return float(completeness_residuals(self.operators[None])[0])

    def require_cptp(self, tol: float = DEFAULT_TOL) -> None:
        require_cptp_stack(self.operators[None], tol)


def _as_kraus_stack(kraus) -> np.ndarray:
    """Coerce to a finite complex Kraus stack of shape (N, k, n_out, n_in)."""
    return _finite(kraus, (4,), "a Kraus stack (N, k, n_out, n_in)")


def completeness_residuals(kraus) -> np.ndarray:
    """max |sum_i K_i^dagger K_i - 1| of each channel of a Kraus stack."""
    kraus = _as_kraus_stack(kraus)
    acc = sum(dagger(op) @ op for op in np.moveaxis(kraus, 1, 0))
    return np.abs(acc - np.eye(kraus.shape[-1])).max(axis=(-2, -1))


def require_cptp_stack(kraus, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Coerce a Kraus stack, refusing it unless every channel in it is trace
    preserving within ``tol``."""
    kraus = _as_kraus_stack(kraus)
    res = float(completeness_residuals(kraus).max())
    if res > tol:
        raise ValueError(f"channel is not trace preserving: residual {res:.3e} > {tol:.3e}")
    return kraus


def _square(matrix, what: str, side: int | None = None) -> np.ndarray:
    """A finite matrix, refused unless it is square (of the given side)."""
    m = as_matrix(matrix)
    side = m.shape[0] if side is None else side
    if m.shape != (side, side):
        raise ValueError(f"{what} shape {m.shape} != ({side}, {side})")
    return m


@dataclass(frozen=True)
class ChannelValidation:
    """Structural report attached to generated channels by the CLI."""

    cptp_residual: float
    cptp_ok: bool
    selfcomplementary: bool
    selfcomplementarity_defect: float
    choi_rank: int


def kraus(operators, n_in: int | None = None, n_out: int | None = None) -> KrausSet:
    """Build a KrausSet, inferring dimensions from the first operator."""
    ops = [as_matrix(op) for op in operators]
    if not ops:
        raise ValueError("empty operator list")
    m, n = ops[0].shape
    return KrausSet(n_in if n_in is not None else n, n_out if n_out is not None else m, ops)


def apply(channel: KrausSet, rho, tol: float = DEFAULT_TOL) -> DensityMatrix:
    """Push a state through the channel: rho -> sum_i K_i rho K_i^dagger."""
    channel.require_cptp(tol)
    state = as_state(rho)
    if state.dim != channel.n_in:
        raise ValueError(f"state dimension {state.dim} != channel input dimension {channel.n_in}")
    return DensityMatrix(apply_kraus(channel.operators, state.matrix))


def apply_kraus(kraus, states) -> np.ndarray:
    """sum_i K_i rho K_i^dagger, broadcast over leading axes.

    ``kraus`` holds the operators on its third-to-last axis, shape
    (..., k, n_out, n_in), and ``states`` has shape (..., n_in, n_in).
    Nothing is checked: :func:`apply` is the checked call for one state,
    and callers of the stacked form validate what they pass and get.
    """
    return sum(op @ states @ dagger(op) for op in np.moveaxis(kraus, -3, 0))


def complementary(channel: KrausSet) -> KrausSet:
    """Channel into the environment: swap Kraus index and output row index.

    A channel with k operators of shape (M, N) yields M operators of shape
    (k, N); applying the swap twice returns the original operator list.
    """
    return KrausSet(channel.n_in, channel.k, channel.operators.transpose(1, 0, 2))


def selfcomplementarity_defect(channel: KrausSet) -> float:
    """max |K^i_(aj) - K^a_(ij)|, or inf when the tensor is not square."""
    if channel.k != channel.n_out:
        return math.inf
    t = channel.operators
    return max_abs(t - t.transpose(1, 0, 2))


def is_selfcomplementary(channel: KrausSet, tol: float = DEFAULT_TOL) -> bool:
    """Strict tensor-symmetry check: the complementary operator list is the same list."""
    return selfcomplementarity_defect(channel) <= tol


def kraus_to_superop(channel: KrausSet) -> np.ndarray:
    """S = sum_i K_i (x) conj(K_i), an (n_out^2, n_in^2) matrix."""
    return _superops(channel.operators[None])[0]


def _superops(kraus: np.ndarray) -> np.ndarray:
    """S = sum_i K_i (x) conj(K_i) for each channel of a Kraus stack."""
    n, _, n_out, n_in = kraus.shape
    return sum(
        (op[:, :, None, :, None] * op.conj()[:, None, :, None, :]).reshape(n, n_out**2, n_in**2)
        for op in np.moveaxis(kraus, 1, 0)
    )


def superop_to_choi(matrix, n_in: int, n_out: int) -> np.ndarray:
    """Reindex a superoperator, or each of a stack, into a Choi matrix on
    (input copy) (x) (output).

    D[(k,i),(l,j)] = S[(i,j),(k,l)] with i,j output indices and k,l input
    indices; applied to ``sum K (x) conj(K)`` this gives
    ``sum_kl E_kl (x) Phi(E_kl)``.
    """
    m = _matrices(matrix)
    if m.shape[-2:] != (n_out**2, n_in**2):
        raise ValueError(f"shape {m.shape} does not match ({n_out**2}, {n_in**2})")
    lead = m.shape[:-2]
    t = m.reshape(*lead, n_out, n_out, n_in, n_in)
    return t.transpose(*range(len(lead)), -2, -4, -1, -3).reshape(*lead, n_in * n_out, n_in * n_out)


def choi_to_superop(matrix, n_in: int, n_out: int) -> np.ndarray:
    """Exact inverse of :func:`superop_to_choi` on one Choi matrix."""
    m = _square(matrix, "Choi matrix", n_in * n_out)
    t = m.reshape(n_in, n_out, n_in, n_out)
    return t.transpose(1, 3, 0, 2).reshape(n_out**2, n_in**2)


def choi_matrix(channel: KrausSet) -> np.ndarray:
    """Choi matrix of a channel (via the superoperator reshuffle), trace n_in."""
    return superop_to_choi(kraus_to_superop(channel), channel.n_in, channel.n_out)


def choi_state(channel: KrausSet) -> DensityMatrix:
    """Normalized Choi state D / n_in of a CPTP channel.

    The single-channel case of :func:`choi_states`: the same completeness
    check, Choi build and state validation, each at N = 1.
    """
    channel.require_cptp()
    return DensityMatrix(choi_matrix(channel) / channel.n_in)


def choi_states(kraus, tol: float = DEFAULT_TOL) -> tuple[np.ndarray, np.ndarray]:
    """Validated Choi states D / n_in of a stack of channels, with their spectra.

    ``kraus`` has shape (N, k, n_out, n_in).  Every channel must pass the
    completeness check of :meth:`KrausSet.require_cptp` and every Choi
    state the checks of :func:`validate_states`; the first failure raises
    ValueError.  Returns the states (N, d, d), d = n_in * n_out, and their
    ascending spectra (N, d), which the entropies reuse.
    """
    kraus = require_cptp_stack(kraus, tol)
    _, _, n_out, n_in = kraus.shape
    states = superop_to_choi(_superops(kraus), n_in, n_out) / n_in
    return states, validate_states(states)


def _grams(kraus: np.ndarray) -> np.ndarray:
    """G_ab = tr(K_a^dagger K_b) for each channel of a Kraus stack."""
    n, k = kraus.shape[:2]
    flat = kraus.reshape(n, k, -1)
    g = flat.conj() @ flat.swapaxes(-1, -2)
    # The product rounds G_ab and G_ba apart; their mean is exactly
    # Hermitian, as the Choi matrix built from K (x) conj(K) is.
    return (g + dagger(g)) / 2


def gram_states(kraus, tol: float = DEFAULT_TOL) -> tuple[np.ndarray, np.ndarray]:
    """Validated Gram states G / n_in of a stack of channels, with their spectra.

    The environment-side analogue of :func:`choi_states`, with the same
    checks: completeness of every channel, then :func:`validate_states`.
    A Gram state has the Choi state's trace and nonzero spectrum.  Returns
    the states (N, k, k) and their ascending spectra (N, k).
    """
    kraus = require_cptp_stack(kraus, tol)
    states = _grams(kraus) / kraus.shape[-1]
    return states, validate_states(states)


def channel_rank(choi, tol: float = DEFAULT_TOL) -> int:
    """Number of eigenvalues above tol of a square Choi matrix: the minimal
    Kraus count."""
    ev = hermitian_eigenvalues(_square(choi, "Choi matrix"))
    return int(np.count_nonzero(ev > tol))


def choi_to_kraus(choi, n_in: int, n_out: int, tol: float = DEFAULT_TOL) -> KrausSet:
    """Minimal Kraus representation from the Choi eigendecomposition.

    ``choi`` is an (n_in n_out, n_in n_out) Choi matrix.  One operator per
    eigenvalue above ``tol``, ordered by descending eigenvalue with ties
    broken lexicographically on the real parts of the eigenvector entries.
    Raises on non-PSD input.
    """
    ev, vec = np.linalg.eigh(_square(choi, "Choi matrix", n_in * n_out))
    lo = float(ev.min())
    if lo < -tol:
        raise ValueError(f"Choi matrix is not PSD: eigenvalue {lo:.3e}")
    picked = [
        (float(ev[i]), tuple(np.real(vec[:, i])), i) for i in range(len(ev)) if ev[i] > tol
    ]
    picked.sort(key=lambda item: (-item[0], item[1]))
    ops = []
    for lam, _, i in picked:
        # Eigenvector components are indexed (input k, output i); the Kraus
        # operator is the transpose of that reshape.
        g = (math.sqrt(lam) * vec[:, i]).reshape(n_in, n_out)
        ops.append(g.T)
    if not ops:
        raise ValueError("Choi matrix has no eigenvalue above tolerance")
    return KrausSet(n_in, n_out, ops)


def stinespring(channel: KrausSet, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Dilation unitary on env (x) sys for a square channel.

    The first block-column is the stacked Kraus operators; the remaining
    columns are completed deterministically by Gram-Schmidt against the
    canonical basis vectors in ascending index order.
    """
    if channel.n_in != channel.n_out:
        raise ValueError("square dilation requires n_in == n_out")
    n = channel.n_in
    res = channel.completeness_residual
    if res > tol:
        raise ValueError(
            f"completeness residual {res:.3e} > {tol:.3e}: block-column is not orthonormal"
        )
    side = n * channel.k
    cols = list(np.ascontiguousarray(channel.operators.reshape(side, n).T))
    for idx in range(side):
        if len(cols) == side:
            break
        cand = np.zeros(side, dtype=complex)
        cand[idx] = 1.0
        for _ in range(2):  # re-orthogonalize once for full precision
            for c in cols:
                cand = cand - np.vdot(c, cand) * c
        norm = float(np.linalg.norm(cand))
        if norm > 1e-8:
            cols.append(cand / norm)
    if len(cols) != side:
        raise ValueError("orthonormal completion failed")
    return np.column_stack(cols)


def kraus_from_unitary(u, n_env: int) -> KrausSet:
    """Read the Kraus operators off the first block-column of a square
    dilation unitary on env (x) sys."""
    m = _square(u, "unitary")
    side = m.shape[0]
    if side % n_env:
        raise ValueError(f"unitary side {side} not divisible by environment dimension {n_env}")
    n = side // n_env
    return KrausSet(n, n, m[:, :n].reshape(n_env, n, n))


def tensor_channel(a: KrausSet, b: KrausSet) -> KrausSet:
    """Tensor product channel; operator (i, j) = A_i (x) B_j, i-major."""
    ops = [np.kron(x, y) for x in a.operators for y in b.operators]
    return KrausSet(a.n_in * b.n_in, a.n_out * b.n_out, ops)


def compose(outer: KrausSet, inner: KrausSet) -> KrausSet:
    """Concatenation outer after inner; operator (i, j) = A_i B_j, i-major."""
    if inner.n_out != outer.n_in:
        raise ValueError(
            f"inner output dimension {inner.n_out} != outer input dimension {outer.n_in}"
        )
    ops = [x @ y for x in outer.operators for y in inner.operators]
    return KrausSet(inner.n_in, outer.n_out, ops)


def validate_channel(channel: KrausSet, tol: float = DEFAULT_TOL) -> ChannelValidation:
    """Structural report; the Choi rank is counted on the Gram matrix, which
    needs no completeness, so non-channels are reported too."""
    residual = channel.completeness_residual
    defect = selfcomplementarity_defect(channel)
    ev = hermitian_eigenvalues(_grams(channel.operators[None])[0])
    rank = int(np.count_nonzero(ev > tol))
    return ChannelValidation(
        cptp_residual=residual,
        cptp_ok=residual <= tol,
        selfcomplementary=defect <= tol,
        selfcomplementarity_defect=defect,
        choi_rank=rank,
    )


def random_cptp(n_in: int, n_out: int, k: int, rng: np.random.Generator) -> KrausSet:
    """Random CPTP channel from a Haar isometry (QR of a Ginibre block)."""
    if n_out * k < n_in:
        raise ValueError(f"no isometry exists: n_out * k = {n_out * k} < n_in = {n_in}")
    g = rng.standard_normal((n_out * k, n_in)) + 1j * rng.standard_normal((n_out * k, n_in))
    q, r = np.linalg.qr(g)
    q = q * (np.diagonal(r) / np.abs(np.diagonal(r)))
    return KrausSet(n_in, n_out, q.reshape(k, n_out, n_in))
