import math

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from qchan import amplitude_damping, qubit_family_a, qubit_family_b

settings.register_profile(
    "qchan",
    deadline=None,
    max_examples=30,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("qchan")


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)


def pure_concurrence(vector) -> float:
    """Independent oracle: C(|psi>) = 2 |ad - bc| for a 2-qubit ket."""
    a, b, c, d = np.asarray(vector, dtype=complex).reshape(4)
    return 2.0 * abs(a * d - b * c)


def x_state_concurrence(m) -> float:
    """Independent oracle for X-shaped two-qubit states.

    C = 2 max{0, |m23| - sqrt(m11 m44), |m14| - sqrt(m22 m33)}.
    """
    m = np.asarray(m)
    inner = abs(m[1, 2]) - np.sqrt(abs(m[0, 0] * m[3, 3]))
    outer = abs(m[0, 3]) - np.sqrt(abs(m[1, 1] * m[2, 2]))
    return 2.0 * max(0.0, inner, outer)


def pure_state(vector) -> np.ndarray:
    """|v><v| / <v|v>, the density matrix of a (not necessarily normalised) ket."""
    v = np.asarray(vector, dtype=complex)
    v = v / np.linalg.norm(v)
    return np.outer(v, v.conj())


def bell_state() -> np.ndarray:
    v = np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2.0)
    return np.outer(v, v)


def random_density_matrix(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Full-rank random state from the Ginibre ensemble, a (dim, dim) array."""
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    m = g @ g.conj().T
    return m / np.trace(m)


def random_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary via phase-fixed QR of a Ginibre matrix."""
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(g)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def random_cptp(n_in: int, n_out: int, k: int, rng: np.random.Generator) -> np.ndarray:
    """Random CPTP channel from a Haar isometry (QR of a Ginibre block)."""
    if n_out * k < n_in:
        raise ValueError(f"no isometry exists: n_out * k = {n_out * k} < n_in = {n_in}")
    g = rng.standard_normal((n_out * k, n_in)) + 1j * rng.standard_normal((n_out * k, n_in))
    q, r = np.linalg.qr(g)
    q = q * (np.diagonal(r) / np.abs(np.diagonal(r)))
    return q.reshape(k, n_out, n_in)


def random_symmetric_channel(n_in: int, m: int, rng: np.random.Generator) -> np.ndarray:
    """A strictly self-complementary CPTP channel: a Haar isometry from C^n_in
    into Sym^2(C^m), read as the Kraus tensor K[a, i, j] = V[(a, i), j].

    Row (a, b) of V is row pair(a, b) of a Haar isometry onto the orthonormal
    basis (e_a e_b + e_b e_a) / sqrt(2 (1 + delta_ab)) of Sym^2(C^m), so the
    tensor symmetry K[a, i, j] = K[i, a, j] holds exactly.
    """
    pairs = [(a, b) for a in range(m) for b in range(a, m)]
    g = rng.standard_normal((len(pairs), n_in)) + 1j * rng.standard_normal((len(pairs), n_in))
    q, r = np.linalg.qr(g)
    q = q * (np.diagonal(r) / np.abs(np.diagonal(r)))
    v = np.empty((m, m, n_in), dtype=complex)
    for row, (a, b) in enumerate(pairs):
        v[a, b] = v[b, a] = q[row] * (1.0 if a == b else math.sqrt(0.5))
    return v


def two_operator_qubit_stacks() -> dict:
    """Kraus stacks (N, 2, 2, 2) of two-operator qubit channels: the three
    driven families over their whole parameter ranges, the qubit families at
    phi = 0 and phi = 0.9, and random channels."""
    thetas = np.linspace(0.0, math.pi, 1001)
    stacks = {"ad": amplitude_damping(np.linspace(0.0, 1.0, 1001))}
    for phi in (0.0, 0.9):
        stacks[f"qubit-a-{phi}"] = qubit_family_a(thetas, phi)
        stacks[f"qubit-b-{phi}"] = qubit_family_b(thetas, phi)
    rng = np.random.default_rng(16)
    stacks["random"] = np.array([random_cptp(2, 2, 2, rng) for _ in range(300)])
    return stacks
