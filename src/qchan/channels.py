"""Channel representations, conversions among them, and structural validators.

Conventions fixed across the package:

* A channel with ``k`` Kraus operators of shape ``(n_out, n_in)`` acts as
  ``rho -> sum_i K_i rho K_i^dagger``.  Its operators are one C-contiguous
  complex array of shape ``(k, n_out, n_in)``, the Kraus 3-tensor
  ``T[i, a, j] = (K_i)_(aj)``, and every other representation is a plain
  array: functions that need the ``n_in`` / ``n_out`` split of a square
  matrix take it as arguments.  A channel is that array, with no wrapper:
  ``k``, ``n_out`` and ``n_in`` are its shape.  A stack of channels is
  ``(N, k, n_out, n_in)``; a single channel is its ``N = 1`` stack
  ``kraus[None]``.
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
from dataclasses import dataclass, field

import numpy as np

from .linalg import (
    DEFAULT_TOL,
    _finite,
    _matrices,
    as_matrix,
    dagger,
    hermitian_eigenvalues,
    max_abs,
    validate_states,
)

__all__ = [
    "ChannelValidation",
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
    "gram_states",
    "completeness_residuals",
    "require_cptp_stack",
    "channel_rank",
    "stinespring",
    "kraus_from_unitary",
    "tensor_channel",
    "compose",
    "validate_channel",
]


def _as_kraus_stack(kraus) -> np.ndarray:
    """Coerce to a finite C-contiguous complex Kraus stack (N, k, n_out,
    n_in), of at least one operator per channel and positive dimensions.

    Maps that violate the completeness relation pass (so that questionable
    parameterizations can be inspected numerically); operations whose
    contracts require a CPTP channel refuse them with
    :func:`require_cptp_stack`.
    """
    kraus = _finite(kraus, (4,), "a Kraus stack (N, k, n_out, n_in)")
    if not kraus.shape[1]:
        raise ValueError("a channel needs at least one Kraus operator")
    if not all(kraus.shape[2:]):
        raise ValueError("dimensions must be positive")
    return np.ascontiguousarray(kraus)


def _as_kraus(kraus) -> np.ndarray:
    """Coerce one channel to its Kraus array (k, n_out, n_in):
    :func:`_as_kraus_stack` at N = 1."""
    kraus = np.asarray(kraus, dtype=complex)
    if kraus.ndim != 3:
        raise ValueError(f"expected a Kraus array (k, n_out, n_in), got shape {kraus.shape}")
    return _as_kraus_stack(kraus[None])[0]


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
    """Structural report attached to generated channels by the CLI, with the
    ascending spectrum of the Gram state G / n_in."""

    cptp_residual: float
    cptp_ok: bool
    selfcomplementary: bool
    selfcomplementarity_defect: float
    choi_rank: int
    gram_spectrum: np.ndarray = field(repr=False, compare=False)


def apply(kraus, rho, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Push a state through the channel: rho -> sum_i K_i rho K_i^dagger.

    The channel's completeness and the input state (:func:`validate_states`)
    are checked; the output, a state by construction, is not checked again.
    """
    kraus = _as_kraus(kraus)
    require_cptp_stack(kraus[None], tol)
    state = as_matrix(rho)
    validate_states(state[None])
    n_in = kraus.shape[-1]
    if len(state) != n_in:
        raise ValueError(f"state dimension {len(state)} != channel input dimension {n_in}")
    return apply_kraus(kraus, state)


def apply_kraus(kraus, states) -> np.ndarray:
    """sum_i K_i rho K_i^dagger, broadcast over leading axes.

    ``kraus`` holds the operators on its third-to-last axis, shape
    (..., k, n_out, n_in), and ``states`` has shape (..., n_in, n_in).
    Nothing is checked: :func:`apply` is the checked call for one state,
    and callers of the stacked form validate what they pass and get.
    """
    return sum(op @ states @ dagger(op) for op in np.moveaxis(kraus, -3, 0))


def complementary(kraus) -> np.ndarray:
    """Channel into the environment: swap Kraus index and output row index.

    A channel with k operators of shape (M, N) yields M operators of shape
    (k, N), as a contiguous copy; applying the swap twice returns the
    original operator list.
    """
    return np.ascontiguousarray(_as_kraus(kraus).transpose(1, 0, 2))


def selfcomplementarity_defect(kraus) -> float:
    """max |K^i_(aj) - K^a_(ij)|, or inf when the tensor is not square."""
    t = _as_kraus(kraus)
    if t.shape[0] != t.shape[1]:
        return math.inf
    return max_abs(t - t.transpose(1, 0, 2))


def is_selfcomplementary(kraus, tol: float = DEFAULT_TOL) -> bool:
    """Strict tensor-symmetry check: the complementary operator list is the same list."""
    return selfcomplementarity_defect(kraus) <= tol


def kraus_to_superop(kraus) -> np.ndarray:
    """S = sum_i K_i (x) conj(K_i), an (n_out^2, n_in^2) matrix."""
    return _superops(_as_kraus(kraus)[None])[0]


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


def choi_matrix(kraus) -> np.ndarray:
    """Choi matrix of a channel (via the superoperator reshuffle), trace n_in."""
    kraus = _as_kraus(kraus)
    _, n_out, n_in = kraus.shape
    return superop_to_choi(kraus_to_superop(kraus), n_in, n_out)


def choi_state(kraus) -> np.ndarray:
    """Normalized Choi state D / n_in of a CPTP channel: exactly Hermitian and
    PSD by construction, of unit trace within the completeness residual."""
    kraus = require_cptp_stack(_as_kraus(kraus)[None])[0]
    return choi_matrix(kraus) / kraus.shape[-1]


def _grams(kraus: np.ndarray) -> np.ndarray:
    """G_ab = tr(K_a^dagger K_b) for each channel of a Kraus stack."""
    n, k = kraus.shape[:2]
    flat = kraus.reshape(n, k, -1)
    g = flat.conj() @ flat.swapaxes(-1, -2)
    # The product rounds G_ab and G_ba apart; their mean is exactly
    # Hermitian, as the Choi matrix built from K (x) conj(K) is.
    return (g + dagger(g)) / 2


def gram_states(kraus, tol: float = DEFAULT_TOL) -> tuple[np.ndarray, np.ndarray]:
    """Gram states G / n_in of a stack of channels, each trace preserving
    within ``tol``, with their spectra (N, k, k) and (N, k), ascending.

    The environment side of the Choi state D / n_in, with its trace and
    nonzero spectrum.  Completeness is the one check: a Gram state is
    Hermitian and PSD by construction and is eigensolved as it is.
    """
    kraus = require_cptp_stack(kraus, tol)
    states = _grams(kraus) / kraus.shape[-1]
    return states, hermitian_eigenvalues(states)


def channel_rank(choi, tol: float = DEFAULT_TOL) -> int:
    """Number of eigenvalues above tol of a square Choi matrix: the minimal
    Kraus count.  Raises ValueError if the matrix is not Hermitian within
    DEFAULT_TOL."""
    m = _square(choi, "Choi matrix")
    defect = max_abs(m - dagger(m))
    if defect > DEFAULT_TOL:
        raise ValueError(f"matrix is not Hermitian: defect {defect:.3e} > tol {DEFAULT_TOL:.3e}")
    return int(np.count_nonzero(hermitian_eigenvalues(m) > tol))


def choi_to_kraus(choi, n_in: int, n_out: int, tol: float = DEFAULT_TOL) -> np.ndarray:
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
    return np.array(ops)


def stinespring(kraus, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Dilation unitary on env (x) sys for a square channel.

    The first block-column is the stacked Kraus operators; the remaining
    columns are completed deterministically by Gram-Schmidt against the
    canonical basis vectors in ascending index order.
    """
    kraus = _as_kraus(kraus)
    k, n_out, n = kraus.shape
    if n != n_out:
        raise ValueError("square dilation requires n_in == n_out")
    require_cptp_stack(kraus[None], tol)
    side = n * k
    cols = list(np.ascontiguousarray(kraus.reshape(side, n).T))
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


def kraus_from_unitary(u, n_env: int) -> np.ndarray:
    """Read the Kraus operators off the first block-column of a square
    dilation unitary on env (x) sys."""
    m = _square(u, "unitary")
    side = m.shape[0]
    if side % n_env:
        raise ValueError(f"unitary side {side} not divisible by environment dimension {n_env}")
    n = side // n_env
    return np.ascontiguousarray(m[:, :n].reshape(n_env, n, n))


def tensor_channel(a, b) -> np.ndarray:
    """Tensor product channel; operator (i, j) = A_i (x) B_j, i-major."""
    return np.array([np.kron(x, y) for x in _as_kraus(a) for y in _as_kraus(b)])


def compose(outer, inner) -> np.ndarray:
    """Concatenation outer after inner; operator (i, j) = A_i B_j, i-major."""
    outer, inner = _as_kraus(outer), _as_kraus(inner)
    if inner.shape[1] != outer.shape[2]:
        raise ValueError(
            f"inner output dimension {inner.shape[1]} != outer input dimension {outer.shape[2]}"
        )
    return np.array([x @ y for x in outer for y in inner])


def validate_channel(kraus, tol: float = DEFAULT_TOL) -> ChannelValidation:
    """Structural report from one completeness sum, one Gram build and one
    eigensolve of the Gram state G / n_in.  ``cptp_ok`` is the one check of
    the channel; the Choi rank counts the eigenvalues of G above ``tol`` and
    needs no completeness, so non-channels are reported too."""
    kraus = _as_kraus(kraus)
    n_in = kraus.shape[-1]
    residual = float(completeness_residuals(kraus[None])[0])
    defect = selfcomplementarity_defect(kraus)
    spectrum = hermitian_eigenvalues(_grams(kraus[None]) / n_in)[0]
    return ChannelValidation(
        cptp_residual=residual,
        cptp_ok=residual <= tol,
        selfcomplementary=defect <= tol,
        selfcomplementarity_defect=defect,
        choi_rank=int(np.count_nonzero(n_in * spectrum > tol)),
        gram_spectrum=spectrum,
    )

