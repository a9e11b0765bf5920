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

import numpy as np

from .linalg import (
    DEFAULT_TOL,
    _eigenvalues,
    _finite,
    _product,
    as_matrix,
    dagger,
    max_abs,
    validate_states,
)

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


def completeness_residuals(kraus: np.ndarray) -> np.ndarray:
    """max |sum_i K_i^dagger K_i - 1| of each channel of an accepted Kraus
    stack (:func:`_as_kraus_stack`), each K_i^dagger K_i summed over the
    output index in order, as :func:`_product` sums it, and the operators
    added one at a time; nothing is checked here."""
    acc = sum(_product(dagger(op), op) for op in np.moveaxis(kraus, 1, 0))
    return np.abs(acc - np.eye(kraus.shape[-1])).max(axis=(-2, -1))


def _require_complete(residuals: np.ndarray) -> None:
    """Refuse a stack unless every completeness residual in it is within
    DEFAULT_TOL."""
    res = float(residuals.max(initial=0.0))
    if res > DEFAULT_TOL:
        raise ValueError(f"channel is not trace preserving: residual {res:.3e} > {DEFAULT_TOL:.3e}")


def require_cptp_stack(kraus) -> np.ndarray:
    """Coerce a Kraus stack, refusing it unless every channel in it is trace
    preserving within DEFAULT_TOL."""
    kraus = _as_kraus_stack(kraus)
    _require_complete(completeness_residuals(kraus))
    return kraus


def _square(matrix, side: int | None = None) -> np.ndarray:
    """A finite Choi matrix, refused unless it is square (of the given side)."""
    m = as_matrix(matrix)
    side = m.shape[0] if side is None else side
    if m.shape != (side, side):
        raise ValueError(f"Choi matrix shape {m.shape} != ({side}, {side})")
    return m


def apply(kraus, rho) -> np.ndarray:
    """Push a state through the channel: rho -> sum_i K_i rho K_i^dagger.

    The channel's completeness and the input state (:func:`validate_states`)
    are checked; the output, a state by construction, is not checked again.
    """
    kraus = _as_kraus(kraus)
    _require_complete(completeness_residuals(kraus[None]))
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


def is_selfcomplementary(kraus) -> bool:
    """Strict tensor-symmetry check: the complementary operator list is the
    same list, within DEFAULT_TOL."""
    return selfcomplementarity_defect(kraus) <= DEFAULT_TOL


def kraus_to_superop(kraus) -> np.ndarray:
    """S = sum_i K_i (x) conj(K_i), an (n_out^2, n_in^2) matrix."""
    return sum(np.kron(op, op.conj()) for op in _as_kraus(kraus))


def superop_to_choi(matrix, n_in: int, n_out: int) -> np.ndarray:
    """Reindex a superoperator into a Choi matrix on (input copy) (x) (output).

    D[(k,i),(l,j)] = S[(i,j),(k,l)] with i,j output indices and k,l input
    indices; applied to ``sum K (x) conj(K)`` this gives
    ``sum_kl E_kl (x) Phi(E_kl)``.
    """
    m = as_matrix(matrix)
    if m.shape != (n_out**2, n_in**2):
        raise ValueError(f"shape {m.shape} does not match ({n_out**2}, {n_in**2})")
    t = m.reshape(n_out, n_out, n_in, n_in)
    return t.transpose(2, 0, 3, 1).reshape(n_in * n_out, n_in * n_out)


def choi_matrix(kraus) -> np.ndarray:
    """Choi matrix of a channel (via the superoperator reshuffle), trace n_in."""
    kraus = _as_kraus(kraus)
    _, n_out, n_in = kraus.shape
    return superop_to_choi(kraus_to_superop(kraus), n_in, n_out)


def choi_state(kraus) -> np.ndarray:
    """Normalized Choi state D / n_in of a CPTP channel: exactly Hermitian and
    PSD by construction, of unit trace within the completeness residual."""
    kraus = _as_kraus(kraus)
    _require_complete(completeness_residuals(kraus[None]))
    return choi_matrix(kraus) / kraus.shape[-1]


def _grams(kraus: np.ndarray) -> np.ndarray:
    """G_ab = tr(K_a^dagger K_b) for each channel of a Kraus stack."""
    n, k, n_out, n_in = kraus.shape
    flat = kraus.reshape(n, k, n_out * n_in)
    g = _product(flat.conj(), flat.swapaxes(-1, -2))
    # The product rounds G_ab and G_ba apart; their mean is exactly
    # Hermitian, as the Choi matrix built from K (x) conj(K) is.
    return (g + dagger(g)) / 2


def gram_states(kraus) -> tuple[np.ndarray, np.ndarray]:
    """Gram states G / n_in of a stack of channels, each trace preserving
    within DEFAULT_TOL, with their spectra (N, k, k) and (N, k), ascending.

    The environment side of the Choi state D / n_in, with its trace and
    nonzero spectrum.  Completeness is the one check: a Gram state is
    Hermitian and PSD by construction and is eigensolved as it is.
    """
    kraus = require_cptp_stack(kraus)
    states = _grams(kraus) / kraus.shape[-1]
    return states, _eigenvalues(states)


def channel_rank(choi) -> int:
    """Number of eigenvalues above DEFAULT_TOL of a square Choi matrix: the
    minimal Kraus count.  Raises ValueError if the matrix is not Hermitian
    within DEFAULT_TOL."""
    m = _square(choi)
    defect = max_abs(m - dagger(m))
    if defect > DEFAULT_TOL:
        raise ValueError(f"matrix is not Hermitian: defect {defect:.3e} > tol {DEFAULT_TOL:.3e}")
    return int(np.count_nonzero(_eigenvalues(m) > DEFAULT_TOL))


def choi_to_kraus(choi, n_in: int, n_out: int) -> np.ndarray:
    """Minimal Kraus representation from the Choi eigendecomposition.

    ``choi`` is an (n_in n_out, n_in n_out) Choi matrix.  One operator per
    eigenvalue above DEFAULT_TOL, ordered by descending eigenvalue with ties
    broken lexicographically on the real parts of the eigenvector entries.
    Raises on input with an eigenvalue below -DEFAULT_TOL.
    """
    ev, vec = np.linalg.eigh(_square(choi, n_in * n_out))
    lo = float(ev.min())
    if lo < -DEFAULT_TOL:
        raise ValueError(f"Choi matrix is not PSD: eigenvalue {lo:.3e}")
    keep = np.flatnonzero(ev > DEFAULT_TOL)
    if not keep.size:
        raise ValueError("Choi matrix has no eigenvalue above tolerance")
    # lexsort's last key is the primary one: descending eigenvalue, then the
    # eigenvector's real parts, first entry first.
    order = keep[np.lexsort([*np.real(vec[::-1, keep]), -ev[keep]])]
    # Eigenvector components are indexed (input k, output i); the Kraus
    # operator is the transpose of that reshape.
    ops = (np.sqrt(ev[order]) * vec[:, order]).reshape(n_in, n_out, -1)
    return np.ascontiguousarray(ops.transpose(2, 1, 0))


def stinespring(kraus) -> np.ndarray:
    """Dilation unitary on env (x) sys for a square channel.

    The first block-column is the stacked Kraus operators; the remaining
    columns are their orthonormal complement, the trailing columns of the
    complete QR factor of the first block-column.
    """
    kraus = _as_kraus(kraus)
    k, n_out, n = kraus.shape
    if n != n_out:
        raise ValueError("square dilation requires n_in == n_out")
    _require_complete(completeness_residuals(kraus[None]))
    column = kraus.reshape(n * k, n)
    return np.concatenate([column, np.linalg.qr(column, mode="complete")[0][:, n:]], axis=1)


def tensor_channel(a, b) -> np.ndarray:
    """Tensor product channel; operator (i, j) = A_i (x) B_j, i-major."""
    return np.array([np.kron(x, y) for x in _as_kraus(a) for y in _as_kraus(b)])


def validate_channel(kraus) -> tuple[dict, np.ndarray]:
    """Structural report ``{"cptp_residual", "selfcomplementary",
    "choi_rank"}``, the ``validation`` block of a ``family`` document, with
    the ascending spectrum of the Gram state G / n_in, from one completeness
    sum, one Gram build and one eigensolve.  The completeness residual is
    reported, not judged: the caller compares it with its own tolerance.
    Self-complementarity and the Choi rank, the eigenvalues of G above
    DEFAULT_TOL, are judged as :func:`is_selfcomplementary` and
    :func:`channel_rank` judge them.  The rank needs no completeness, so
    non-channels are reported too."""
    kraus = _as_kraus(kraus)
    n_in = kraus.shape[-1]
    spectrum = _eigenvalues(_grams(kraus[None]) / n_in)[0]
    return {
        "cptp_residual": float(completeness_residuals(kraus[None])[0]),
        "selfcomplementary": is_selfcomplementary(kraus),
        "choi_rank": int(np.count_nonzero(n_in * spectrum > DEFAULT_TOL)),
    }, spectrum
