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

from .channels import KrausSet, apply, apply_kraus
from .families import FAMILIES, family_ids
from .linalg import DensityMatrix, as_stack, as_state, blocks, validate_states
from .measures import choi_measures

_PAULIS = (
    np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    np.array([[0.0, -1.0j], [1.0j, 0.0]]),
    np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
)

_PAULI_STACK = np.array(_PAULIS)


def bloch_vectors(states) -> np.ndarray:
    """Pauli expectation values of each qubit state of a validated stack, as rows."""
    states = as_stack(states)
    if states.shape[-1] != 2:
        raise ValueError(f"Bloch coordinates need a qubit state, got dim {states.shape[-1]}")
    return np.trace(_PAULI_STACK[:, None] @ states, axis1=-2, axis2=-1).real.T


def bloch_vector(rho) -> np.ndarray:
    """Pauli expectation values of a qubit state."""
    return bloch_vectors(as_state(rho).matrix[None])[0]


def _bloch_matrices(points) -> np.ndarray:
    """(1 + r . sigma) / 2 for each row r of an (N, 3) array inside the unit ball."""
    r = np.asarray(points, dtype=float)
    if r.ndim != 2 or r.shape[1] != 3 or np.any(np.linalg.norm(r, axis=1) > 1.0 + 1e-9):
        raise ValueError("Bloch vector must be a 3-vector inside the unit ball")
    return 0.5 * (np.eye(2, dtype=complex) + sum(r[:, i, None, None] * _PAULIS[i] for i in range(3)))


def density_from_bloch(r) -> DensityMatrix:
    return DensityMatrix(_bloch_matrices(np.asarray(r, dtype=float)[None])[0])


def affine_of_channel(channel: KrausSet) -> tuple[np.ndarray, np.ndarray]:
    """The action r -> linear @ r + shift of a qubit channel on Bloch vectors,
    as ``(linear, shift)``: a 3 x 3 matrix and a 3-vector, read off the
    channel's action on the Pauli basis."""
    if channel.n_in != 2 or channel.n_out != 2:
        raise ValueError("affine form is defined for qubit channels only")
    shift = bloch_vector(apply(channel, DensityMatrix.maximally_mixed(2)))
    linear = np.zeros((3, 3))
    for j in range(3):
        # Phi(sigma_j) is traceless; feed (1 + sigma_j)/2 and remove the shift.
        out = apply(channel, DensityMatrix(0.5 * (np.eye(2, dtype=complex) + _PAULIS[j])))
        linear[:, j] = bloch_vector(out) - shift
    return linear, shift


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


def bloch_image(channel: KrausSet, n_points: int) -> np.ndarray:
    """Image of a Fibonacci-sphere sample of pure states, as Bloch rows.

    Each sampled pure state is pushed through the channel and converted
    back to Bloch coordinates (no affine shortcut, so this doubles as a
    cross-check of :func:`affine_of_channel`), STACK_BLOCK states at a time.
    """
    channel.require_cptp()
    if channel.n_in != 2:
        raise ValueError(f"state dimension 2 != channel input dimension {channel.n_in}")
    points = fibonacci_sphere(n_points)
    image = np.empty((n_points, 3))
    for block in blocks(n_points):
        inputs = _bloch_matrices(points[block])
        validate_states(inputs)
        outputs = apply_kraus(channel.operators, inputs)
        validate_states(outputs)
        image[block] = bloch_vectors(outputs)
    return image


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

    The family's schedule gives the driving parameter on the grid, and its
    stacked constructor builds the channels STACK_BLOCK samples at a time.
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
        records[:, block] = choi_measures(driven.stack(params[block]))
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
