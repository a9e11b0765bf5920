"""Dense complex linear algebra for small quantum objects.

Everything operates on plain complex ``numpy.ndarray`` matrices with
row-major (C-order) index conventions: composite indices of Kronecker
products run lexicographically, and a vectorized matrix lists its entries
row by row.  All comparisons use absolute entrywise tolerances; the objects
handled here are O(1)-normed, so relative scaling is unnecessary.

A state is a plain ``(d, d)`` array and a stack of states an ``(N, d, d)``
array; :func:`validate_states` is the one density-matrix check.
"""

from __future__ import annotations

import numpy as np

DEFAULT_TOL = 1e-10

# Density-matrix admissibility tolerances.
HERMITICITY_TOL = 1e-12
TRACE_TOL = 1e-12
PSD_TOL = 1e-10

# Long stacks are evaluated about this many samples at a time: those of the
# qubit commands dynamics and sweep, whose numpy temporaries take about 256 KB
# each, and the rows of their CSV tables.  blocks(n) cuts n samples into
# max(1, round(n / STACK_BLOCK)) near-equal blocks, each of fewer than
# 1.5 * STACK_BLOCK samples.
STACK_BLOCK = 1024


def as_matrix(a) -> np.ndarray:
    """Coerce to a finite 2-D complex array."""
    return _finite(a, (2,), "a 2-D matrix")


def as_stack(a) -> np.ndarray:
    """Coerce to a finite 3-D complex array: a stack of matrices (N, rows, cols)."""
    return _finite(a, (3,), "a stack of matrices")


def _matrices(a) -> np.ndarray:
    return _finite(a, (2, 3), "a 2-D matrix or a stack of matrices")


def _finite(a, ndims: tuple, what: str) -> np.ndarray:
    m = np.asarray(a, dtype=complex)
    if m.ndim not in ndims:
        raise ValueError(f"expected {what}, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix has non-finite entries")
    return m


def dagger(a) -> np.ndarray:
    """Conjugate transpose of a matrix, or of each matrix in a stack."""
    return np.conj(np.asarray(a)).swapaxes(-1, -2)


def blocks(n: int) -> list:
    """Slices that cover ``range(n)`` in max(1, round(n / STACK_BLOCK)) runs
    whose lengths differ by at most one, the longer runs first."""
    k = max(1, round(n / STACK_BLOCK))
    bounds = [i * (n // k) + min(i, n % k) for i in range(k + 1)]
    return [slice(lo, hi) for lo, hi in zip(bounds, bounds[1:])]


def max_abs(a) -> float:
    m = np.asarray(a)
    return 0.0 if m.size == 0 else float(np.abs(m).max())


def _product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b over stacks.  A contraction of at most 4 is summed entry by
    entry, one elementwise product per index: matmul makes one BLAS call per
    matrix of a stack, whose overhead outweighs a tiny product's arithmetic."""
    n = a.shape[-1]
    if n > 4:
        return a @ b
    out = a[..., :, 0, None] * b[..., 0, None, :]
    for j in range(1, n):
        out += a[..., :, j, None] * b[..., j, None, :]
    return out


def _pair_spectra(a, d, b) -> tuple[np.ndarray, np.ndarray]:
    """Ascending spectra m -+ h of 2 x 2 Hermitian matrices [[a, b*], [b, d]],
    given the real diagonals a, d and the moduli b = |b| entry by entry;
    m = (a + d) / 2 and h = hypot((a - d) / 2, b).  The one of smaller
    magnitude is det / (m +- h), as LAPACK's dlae2 writes it: m - h would
    cancel to eps * m at a near-singular state."""
    mid, half = (a + d) / 2, np.hypot((a - d) / 2, b)
    big = np.where(mid >= 0, mid + half, mid - half)
    scale = np.where(big != 0, big, 1.0)  # big = 0 only at the zero matrix
    small = a / scale * d - b / scale * b
    return np.minimum(small, big), np.maximum(small, big)


def _spectra_4x4(m: np.ndarray) -> np.ndarray:
    """Ascending spectra of a stack (N, 4, 4) of Hermitian matrices.

    A matrix whose couplings (1,0), (2,0), (3,1) and (3,2) are exactly zero
    is an X-matrix, the direct sum of its {0, 3} and {1, 2} blocks, and takes
    the sorted :func:`_pair_spectra` of both.  The others go to LAPACK's
    eigvalsh as they are, in one call.  The route is chosen matrix by
    matrix, so a matrix's bits never depend on its stack.
    """
    x = ~m[:, [1, 2, 3, 3], [0, 0, 1, 2]].any(axis=1)
    out = np.empty(m.shape[:-1])
    if x.any():
        # A slice, not a mask, where every matrix is an X-matrix: no copies.
        rows = slice(None) if x.all() else x
        xs = m[rows]
        # Both blocks at once: [[m00, m03], [m30, m33]] and [[m11, m12], [m21, m22]].
        lo, hi = _pair_spectra(xs[:, [0, 1], [0, 1]].real, xs[:, [3, 2], [3, 2]].real,
                               np.abs(xs[:, [3, 2], [0, 1]]))
        out[rows] = np.sort(np.stack([lo, hi], axis=-1).reshape(-1, 4), axis=-1)
    if not x.all():
        out[~x] = np.linalg.eigvalsh(m[~x])
    return out


def hermitian_eigenvalues(a) -> np.ndarray:
    """Real spectrum of a Hermitian matrix, ascending; row by row for a stack.

    Hermiticity is not checked: only the lower triangle and the real part of
    the diagonal are read.  Callers pass matrices that are Hermitian by
    construction, or check them first.  The input is coerced and checked
    for finiteness once; the routes are those of :func:`_eigenvalues`.
    """
    return _eigenvalues(_matrices(a))


def _eigenvalues(m: np.ndarray) -> np.ndarray:
    """:func:`hermitian_eigenvalues` of an array (..., d, d) that the caller
    built or accepted: nothing is coerced or checked.  A 2 x 2 side takes
    :func:`_pair_spectra`, a 4 x 4 side :func:`_spectra_4x4`, which solves
    X-matrices in closed form, and every other side LAPACK's eigvalsh."""
    if m.shape[-2:] == (2, 2):
        spectra = _pair_spectra(m[..., 0, 0].real, m[..., 1, 1].real, np.abs(m[..., 1, 0]))
        return np.stack(spectra, axis=-1)
    if m.shape[-2:] == (4, 4):
        return _spectra_4x4(m.reshape(-1, 4, 4)).reshape(m.shape[:-1])
    return np.linalg.eigvalsh(m)


def partial_transpose(a, dims: tuple[int, int]) -> np.ndarray:
    """Transpose the first tensor factor of a bipartite matrix, or of each
    matrix in a stack."""
    d1, d2 = dims
    m = _matrices(a)
    if m.shape[-2:] != (d1 * d2, d1 * d2):
        raise ValueError(f"matrix shape {m.shape} does not match dims {dims}")
    t = m.reshape(*m.shape[:-2], d1, d2, d1, d2)
    return np.swapaxes(t, -4, -2).reshape(m.shape)


def validate_states(states) -> np.ndarray:
    """Check a stack (N, d, d) of density matrices, sample by sample.

    Every sample must be finite, Hermitian within HERMITICITY_TOL, of unit
    trace within TRACE_TOL and positive semidefinite within PSD_TOL; the
    first check that some sample fails raises ValueError.  Returns the
    spectra, ascending, one row per sample: the eigensolve of the PSD check.
    """
    m = as_stack(states)
    if m.shape[-2] != m.shape[-1]:
        raise ValueError(f"density matrix must be square, got {m.shape[-2:]}")
    defect = max_abs(m - dagger(m))
    if defect > HERMITICITY_TOL:
        raise ValueError(f"density matrix not Hermitian: defect {defect:.3e}")
    spectra = _eigenvalues(m)
    traces = np.trace(m, axis1=-2, axis2=-1)
    off = np.abs(traces - 1.0) > TRACE_TOL
    if off.any():
        raise ValueError(f"density matrix trace {complex(traces[off][0])} differs from 1")
    lo = float(spectra.min()) if spectra.size else 0.0
    if lo < -PSD_TOL:
        raise ValueError(f"density matrix has eigenvalue {lo:.3e} below -{PSD_TOL}")
    return spectra

