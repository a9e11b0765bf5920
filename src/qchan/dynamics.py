"""Bloch-ball geometry of qubit channels and driven-parameter trajectories.

A qubit channel acts on Bloch vectors affinely, r -> M r + t.  Driving the
family phase linearly in time (theta = omega * t) yields a trajectory whose
Choi-state entanglement record witnesses memory effects: any increase along
the record is impossible for a concatenation of CPTP steps, so the
accumulated increase scores non-Markovianity.
"""

from __future__ import annotations

import math

import numpy as np

from .channels import _as_kraus, apply_kraus, require_cptp_stack
from .families import FAMILIES, family_ids
from .linalg import blocks
from .measures import choi_measures

# sigma_0 = 1, then sigma_x, sigma_y, sigma_z: the Pauli transfer basis.
_PAULI_BASIS = np.array(
    [[[1, 0], [0, 1]], [[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]], dtype=complex
)


def _transfer_matrices(kraus: np.ndarray) -> np.ndarray:
    """The Pauli transfer matrices R_ij = tr(sigma_i Phi(sigma_j)) / 2 of a
    stack of CPTP qubit channels, (N, 4, 4), from a coerced Kraus stack
    (N, k, 2, 2).

    The stack's completeness is the one check: the images of the sphere
    samples that this module maps are states of accepted channels.  A
    channel's matrix has the same bits in any stack.
    """
    if kraus.shape[2:] != (2, 2):
        raise ValueError("affine form is defined for qubit channels only")
    kraus = require_cptp_stack(kraus)
    images = apply_kraus(kraus[:, None], _PAULI_BASIS)
    return np.einsum("iab,njba->nij", _PAULI_BASIS, images).real / 2


def affine_of_channel(kraus) -> tuple[np.ndarray, np.ndarray]:
    """The action r -> linear @ r + shift of a qubit channel on Bloch vectors:
    ``(R[1:, 1:], R[1:, 0])`` of its Pauli transfer matrix R."""
    transfer = _transfer_matrices(_as_kraus(kraus)[None])[0]
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


def _bloch_images(kraus: np.ndarray, n_points: int):
    """Images of one Fibonacci-sphere sample of pure states under each
    channel of a coerced qubit Kraus stack, as Bloch rows, one (n_points, 3)
    array at a time.

    Each point r goes to linear @ r + shift (:func:`affine_of_channel`); no
    state matrix is built and no eigensolver runs.  The sum runs entry by
    entry, so each row is the one its point gets alone; a BLAS product
    rounds a row differently inside a larger block.
    """
    transfers = _transfer_matrices(kraus)
    points = fibonacci_sphere(n_points)
    for transfer in transfers:
        yield transfer[1:, 0] + sum(points[:, j, None] * transfer[1:, j + 1] for j in range(3))


def bloch_image(kraus, n_points: int) -> np.ndarray:
    """Image of a Fibonacci-sphere sample of pure states under one qubit
    channel, as Bloch rows: :func:`_bloch_images` at N = 1."""
    return next(_bloch_images(_as_kraus(kraus)[None], n_points))


def _require_ascending(times: np.ndarray) -> None:
    if times.ndim != 1 or times.size < 2 or np.any(np.diff(times) <= 0):
        raise ValueError("times must be strictly ascending with at least two entries")


def run_trajectory(
    family: str, omega: float, t_max: float, n_steps: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Choi-state measures of a driven family on a uniform time grid of
    n_steps samples: ``(times, parameter, records)``.

    ``parameter`` holds the driving value at each time: the wrapped phase
    theta = (omega t) mod pi for the qubit families, the decay probability
    p(t) = 1 - exp(-omega t) for the amplitude-damping schedule.
    ``records`` is (3, n_steps): negativity, concurrence and map entropy, in
    :func:`~qchan.measures.choi_measures` order.  The family's constructor
    and choi_measures build and score one block of linalg.blocks at once.
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
    # A subnormal t_max gives repeated samples.
    _require_ascending(times)
    params = driven.schedule(omega, times)
    records = np.empty((3, n_steps))
    for block in blocks(n_steps):
        records[:, block] = choi_measures(driven.build(params[block]))
    return times, params, records


def positive_variation(values) -> float:
    """Sum of the upward moves of a sampled record.

    Zero for any record that is monotonically nonincreasing, as the
    Choi-state entanglement of a concatenation of CPTP steps is; a positive
    value witnesses memory effects.
    """
    diffs = np.diff(np.asarray(values, dtype=float))
    return float(diffs[diffs > 0].sum())


def increase_duration(times, values) -> float:
    """Total time spent on strictly increasing segments of a record sampled
    at ``times``."""
    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)
    if times.shape != values.shape:
        raise ValueError("trajectory records are not aligned with the time grid")
    _require_ascending(times)
    return float(np.diff(times)[np.diff(values) > 0].sum())
