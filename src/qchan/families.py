"""Parameterized families of self-complementary channels.

The two qubit families, the qutrit family and the theta = 0 family in
arbitrary dimension are exactly CPTP and exactly self-complementary for
every parameter value.  The general N-dimensional parameterization is
exploratory, reported on by :func:`qchan.channels.validate_channel` and
refused by operations that need a genuine channel.  Off theta = 0 the
ndim members are not symmetric: defect 0.21-0.60 for theta in [0.3, 1] at
n = 4 with W = 1 or the Fourier W; a Haar W moves that range.

Every constructor returns the channel's Kraus array (k, n_out, n_in).  The
driven families, ``qubit_family_a``, ``qubit_family_b`` and
``amplitude_damping``, take a scalar or an array of their driving
parameter: a scalar gives one channel (2, 2, 2), an array of shape S the
Kraus stack S + (2, 2, 2), built in one pass.

:data:`FAMILIES` is the one table of the families: their constructors, the
CLI options each takes, the commands that accept it, and for the driven
families the schedule of the driving parameter.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .linalg import DEFAULT_TOL, as_matrix, dagger, max_abs

SQRT_HALF = 1.0 / math.sqrt(2.0)


def _check_range(name: str, values, hi) -> np.ndarray:
    """Values as a float array, refusing the first one outside [0, hi] (nan too)."""
    v = np.asarray(values, dtype=float)
    bad = ~((v >= 0.0) & (v <= hi))
    if bad.any():
        raise ValueError(f"{name} = {float(v[bad][0])} outside [0, {hi}]")
    return v


def _check_angle(name: str, value: float, hi: float) -> float:
    return float(_check_range(name, [value], hi)[0])


def _check_unitary(w, dim: int) -> np.ndarray:
    m = as_matrix(w)
    if m.shape != (dim, dim):
        raise ValueError(f"unitary parameter has shape {m.shape}, expected ({dim}, {dim})")
    defect = max_abs(dagger(m) @ m - np.eye(dim))
    if defect > DEFAULT_TOL:
        raise ValueError(f"matrix parameter is not unitary: defect {defect:.3e}")
    return m


def _symmetric(shape: tuple[int, ...], n: int, rows) -> np.ndarray:
    """Kraus array shape + (n, n, n) of an isometry V: C^n -> Sym^2(C^n),
    read as K[a, i, j] = V[(a, i), j]: a strictly self-complementary channel.

    ``rows`` lists the nonzero rows of V as (a, b, j, value), a <= b, with j
    an input index or ``slice(None)``.  Row (a, b) fills K[a, b, j] and
    K[b, a, j] from one value, times SQRT_HALF when a != b, so mirrored
    entries share their bits; CPTP is then V^dagger V = 1.
    """
    kraus = np.zeros(shape + (n, n, n), dtype=complex)
    for a, b, j, value in rows:
        kraus[..., a, b, j] = kraus[..., b, a, j] = value if a == b else value * SQRT_HALF
    return kraus


def qubit_family_a(theta, phi: float = 0.0) -> np.ndarray:
    """First qubit family, (2, 2, 2) at one theta, (N, 2, 2, 2) at N of them:

        K1 = [[sin t, 0      ],      K2 = [[0,            1/sqrt2],
              [0,     1/sqrt2]],           [cos t e^(i p), 0      ]]

    CPTP and self-complementary for every theta in [0, pi], phi in [0, 2pi].
    theta = pi/2 is amplitude damping with decay probability 1/2.
    """
    theta = _check_range("theta", theta, math.pi)
    phi = _check_angle("phi", phi, 2 * math.pi)
    return _symmetric(theta.shape, 2, [(0, 0, 0, np.sin(theta)), (0, 1, 1, 1.0),
                                       (1, 1, 0, np.cos(theta) * np.exp(1j * phi))])


def qubit_family_b(theta, phi: float = 0.0) -> np.ndarray:
    """Second qubit family, (2, 2, 2) at one theta, (N, 2, 2, 2) at N of them:

        K1 = [[1, 0            ],    K2 = [[0, sin t / sqrt2],
              [0, sin t / sqrt2]],         [0, cos t e^(i p)]]

    theta = phi = 0 gives the dephasing channel.
    """
    theta = _check_range("theta", theta, math.pi)
    phi = _check_angle("phi", phi, 2 * math.pi)
    return _symmetric(theta.shape, 2, [(0, 0, 0, 1.0), (0, 1, 1, np.sin(theta)),
                                       (1, 1, 1, np.cos(theta) * np.exp(1j * phi))])


def amplitude_damping(p) -> np.ndarray:
    """Decay to the ground state with probability p: (2, 2, 2) at one p,
    (N, 2, 2, 2) at N of them."""
    p = _check_range("p", p, 1)
    kraus = np.zeros(p.shape + (2, 2, 2), dtype=complex)
    kraus[..., 0, 0, 0] = 1.0
    kraus[..., 0, 1, 1] = np.sqrt(1.0 - p)
    kraus[..., 1, 0, 1] = np.sqrt(p)
    return kraus


def identity_channel(dim: int = 2) -> np.ndarray:
    return np.eye(dim, dtype=complex)[None]


def qutrit_family(theta: float, w) -> np.ndarray:
    """General qutrit parameterization, CPTP and self-complementary for
    every theta in [0, pi] and every unitary W.

    Rows of V: (0, a) cos t e_a, (1, 1) W[:, 0] sin t, (2, 2) W[:, 2] sin t
    and (1, 2) W[:, 1] sin t.  At theta = 0 the family coincides with
    ``ndim_theta0(3)`` regardless of W.
    """
    theta = _check_angle("theta", theta, math.pi)
    w = _check_unitary(w, 3)
    s, c = math.sin(theta), math.cos(theta)
    every = slice(None)
    return _symmetric((), 3, [(0, a, a, c) for a in range(3)] + [
        (1, 1, every, w[:, 0] * s), (2, 2, every, w[:, 2] * s), (1, 2, every, w[:, 1] * s)])


def ndim_family(n: int, theta: float, w) -> np.ndarray:
    """N-dimensional parameterization built from a cyclic permutation P and
    a unitary W.

    Operator i (i = 1..n-1, zero-based) has first row cos(t)/sqrt2 placed in
    column i (the cyclic shift of the theta = 0 pattern), middle rows taken
    from columns 1..n-2 of P^(-i) W scaled by sin(t)/sqrt(n-2), and last row
    from column n of P^(-i) W scaled by sin(t)/sqrt(n-1).  This is generally
    not CPTP away from theta = 0 and carries its verdict in the validation
    report.
    """
    if n < 2:
        raise ValueError("dimension must be at least 2")
    theta = _check_angle("theta", theta, math.pi)
    w = _check_unitary(w, n)
    s, c = math.sin(theta), math.cos(theta)
    ch = c * SQRT_HALF
    ops = np.zeros((n, n, n), dtype=complex)
    ops[0] = np.diag([c] + [ch] * (n - 1))
    rest = np.arange(1, n)
    ops[rest, 0, rest] = ch
    # wp[i - 1] = P^(-i) W, whose row r is row r + i of W; + 0.0 gives each
    # zero of W the sign +0.0 that the matrix product P^(-i) W gives it.
    wp = w[(np.arange(n) + rest[:, None]) % n] + 0.0
    ops[1:, 1:-1] = wp[:, :, : n - 2].swapaxes(-1, -2) * s / math.sqrt(n - 2)
    ops[1:, -1] = wp[:, :, n - 1] * s / math.sqrt(n - 1)
    return ops


def ndim_theta0(n: int) -> np.ndarray:
    """theta = 0 member in dimension n: exactly CPTP and self-complementary.

    K1 = diag(1, 1/sqrt2, ..., 1/sqrt2); K_i (i >= 2) has its only entry
    1/sqrt2 at row 1, column i.  For n = 2 this is amplitude damping with
    p = 1/2.
    """
    if n < 2:
        raise ValueError("dimension must be at least 2")
    return _symmetric((), n, [(0, a, a, 1.0) for a in range(n)])


def dft_matrix(n: int) -> np.ndarray:
    """Unitary discrete Fourier transform matrix."""
    j, k = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    return np.exp(2j * math.pi * j * k / n) / math.sqrt(n)


def _wrapped_phase(omega: float, times: np.ndarray) -> np.ndarray:
    """theta = (omega t) mod pi."""
    return np.fmod(omega * times, math.pi)


def _decay(omega: float, times: np.ndarray) -> np.ndarray:
    """p = 1 - exp(-omega t), sample by sample through math.exp: np.exp
    differs from it in the last bit at some t.  The product and the
    difference are numpy's, the same IEEE operations as Python's."""
    return 1.0 - np.fromiter(map(math.exp, (-omega * times).tolist()), float, len(times))


@dataclass(frozen=True)
class Family:
    """One row of :data:`FAMILIES`.

    ``build`` takes the CLI options named in ``params``, in that order, and
    returns the Kraus array; ``commands`` are the CLI commands that accept
    the family.  A driven family also has ``schedule``, the driving
    parameter at (omega, times), and its ``build`` takes an array of that
    parameter for a Kraus stack.
    """

    build: Callable[..., np.ndarray]
    params: tuple[str, ...]
    commands: tuple[str, ...]
    schedule: Callable[[float, np.ndarray], np.ndarray] | None = None


FAMILIES = {
    "qubit-a": Family(qubit_family_a, ("theta", "phi"), ("family", "bloch", "dynamics"),
                      _wrapped_phase),
    "qubit-b": Family(qubit_family_b, ("theta", "phi"), ("family", "bloch", "dynamics"),
                      _wrapped_phase),
    "ad": Family(amplitude_damping, ("p",), ("family", "dynamics"), _decay),
    "qutrit": Family(qutrit_family, ("theta", "w"), ("family",)),
    "ndim": Family(ndim_family, ("dim", "theta", "w"), ("family",)),
    "ndim-theta0": Family(ndim_theta0, ("dim",), ("family",)),
    "identity": Family(identity_channel, (), ("bloch",)),
}


def family_ids(command: str) -> tuple[str, ...]:
    """Ids of the families that a CLI command accepts, in table order."""
    return tuple(name for name, family in FAMILIES.items() if command in family.commands)
