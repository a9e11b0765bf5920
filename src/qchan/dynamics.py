"""Bloch-ball geometry of qubit channels and driven-parameter trajectories.

A qubit channel acts on Bloch vectors affinely, r -> M r + t.  Driving the
family phase linearly in time (theta = omega * t) yields a trajectory whose
Choi-state entanglement record witnesses memory effects: any increase along
the record is impossible for a concatenation of CPTP steps, so the
accumulated increase scores non-Markovianity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channels import _as_kraus, apply_kraus, require_cptp_stack
from .families import FAMILIES, family_ids
from .linalg import as_matrix, blocks, validate_states
from .measures import choi_measures

# sigma_0 = 1, then sigma_x, sigma_y, sigma_z: the Pauli transfer basis.
_PAULI_BASIS = np.array(
    [[[1, 0], [0, 1]], [[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]], dtype=complex
)
_PAULIS = _PAULI_BASIS[1:]


def bloch_vector(rho) -> np.ndarray:
    """Pauli expectation values of a qubit state, which :func:`validate_states`
    checks."""
    m = as_matrix(rho)
    validate_states(m[None])
    if m.shape != (2, 2):
        raise ValueError(f"Bloch coordinates need a qubit state, got dim {len(m)}")
    return np.trace(_PAULIS @ m, axis1=-2, axis2=-1).real


def _bloch_images(kraus, points) -> tuple[np.ndarray, np.ndarray]:
    """The Pauli transfer matrix R_ij = tr(sigma_i Phi(sigma_j)) / 2 of a CPTP
    qubit channel, and the rows R (1, r), trace and Bloch vector of
    Phi((1 + r . sigma) / 2), for each row r of ``points``.

    The channel's completeness is the one check: the points are this
    module's own (sphere samples, or 0 and the axes), and their images are
    states of an accepted channel.  R (1, r) is summed entry by entry, so each row is the one its
    point gets alone; a BLAS product rounds a row differently inside a
    larger block.
    """
    kraus = _as_kraus(kraus)
    if kraus.shape[1:] != (2, 2):
        raise ValueError("affine form is defined for qubit channels only")
    require_cptp_stack(kraus[None])
    transfer = np.einsum("iab,jba->ij", _PAULI_BASIS, apply_kraus(kraus, _PAULI_BASIS))
    transfer = transfer.real / 2
    images = transfer[:, 0] + sum(points[:, j, None] * transfer[:, j + 1] for j in range(3))
    return transfer, images


def affine_of_channel(kraus) -> tuple[np.ndarray, np.ndarray]:
    """The action r -> linear @ r + shift of a qubit channel on Bloch vectors:
    ``(R[1:, 1:], R[1:, 0])`` of its Pauli transfer matrix R."""
    transfer, _ = _bloch_images(kraus, np.vstack([np.zeros(3), np.eye(3)]))
    return transfer[1:, 1:], transfer[1:, 0]


def fibonacci_sphere(n_points: int) -> np.ndarray:
    """Deterministic quasi-uniform sample of the unit sphere."""
    if n_points < 1:
        raise ValueError("need at least one point")
    i = np.arange(n_points)
    z = 1.0 - (2.0 * i + 1.0) / n_points
    radius = np.sqrt(np.maximum(0.0, 1.0 - z * z))
    golden = math.pi * (3.0 - math.sqrt(5.0))
    phi = golden * i
    return np.column_stack([radius * np.cos(phi), radius * np.sin(phi), z])


def bloch_image(kraus, n_points: int) -> np.ndarray:
    """Image of a Fibonacci-sphere sample of pure states, as Bloch rows.

    Each point r goes to linear @ r + shift (:func:`affine_of_channel`); no
    state matrix is built and no eigensolver runs.
    """
    return np.ascontiguousarray(_bloch_images(kraus, fibonacci_sphere(n_points))[1][:, 1:])


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Per-time channel measures along a driven family.

    ``parameter`` holds the driving value at each time: the wrapped phase
    theta = (omega t) mod pi for the qubit families, the decay probability
    p(t) = 1 - exp(-omega t) for the amplitude-damping schedule.
    """

    family: str
    omega: float
    times: np.ndarray
    parameter: np.ndarray
    negativity: np.ndarray
    concurrence: np.ndarray
    map_entropy: np.ndarray

    def __post_init__(self):
        arrays = [self.times, self.parameter, self.negativity, self.concurrence, self.map_entropy]
        sizes = {np.asarray(a).shape for a in arrays}
        if len(sizes) != 1:
            raise ValueError("trajectory records are not aligned with the time grid")
        t = np.asarray(self.times, dtype=float)
        if t.size < 2 or np.any(np.diff(t) <= 0):
            raise ValueError("times must be strictly ascending with at least two entries")

    def record(self, measure: str) -> np.ndarray:
        if measure not in ("negativity", "concurrence", "map_entropy"):
            raise ValueError(f"unknown measure {measure!r}")
        return getattr(self, measure)


def run_trajectory(family: str, omega: float, t_max: float, n_steps: int) -> Trajectory:
    """Evaluate Choi-state measures on a uniform time grid of n_steps samples.

    The family's schedule gives the driving parameter on the grid; its
    constructor and choi_measures build and score STACK_BLOCK channels at once.
    """
    if n_steps < 2:
        raise ValueError("need at least two samples")
    if not all(math.isfinite(x) for x in (omega, t_max, omega * t_max)):
        raise ValueError("omega, t_max and omega * t_max must be finite")
    if omega <= 0 or t_max <= 0:
        raise ValueError("omega and t_max must be positive")
    driven = FAMILIES.get(family)
    if driven is None or "dynamics" not in driven.commands:
        raise ValueError(
            f"unknown trajectory family {family!r}; choose from {family_ids('dynamics')}"
        )
    times = np.linspace(0.0, t_max, n_steps)
    params = driven.schedule(omega, times)
    records = np.empty((3, n_steps))
    for block in blocks(n_steps):
        records[:, block] = choi_measures(driven.build(params[block]))
    return Trajectory(family, omega, times, params, *records)


def positive_variation(values) -> float:
    """Sum of the upward moves of a sampled record."""
    diffs = np.diff(np.asarray(values, dtype=float))
    return float(diffs[diffs > 0].sum())


def non_markovianity_measure(traj: Trajectory, measure: str = "negativity") -> float:
    """Accumulated increase of the chosen entanglement record over the run.

    Zero for any record that is monotonically nonincreasing, as produced by
    concatenations of CPTP steps; positive values witness memory effects.
    """
    return positive_variation(traj.record(measure))


def increase_duration(traj: Trajectory, measure: str = "negativity") -> float:
    """Total time spent on strictly increasing segments of the record."""
    values = traj.record(measure)
    diffs = np.diff(values)
    dts = np.diff(traj.times)
    return float(dts[diffs > 0].sum())
