"""Entropies, capacity quantities, and entanglement monotones.

All entropic quantities are in nats (natural logarithm); callers wanting
bits divide by ln 2.  Operations that only make sense for genuine channels
refuse Kraus sets whose completeness residual exceeds tolerance.

Each measure is evaluated on stacks: a plural function takes an (N, d, d)
stack of validated states, or an (N, k, n_out, n_in) Kraus stack, and
returns one value per sample.  The singular function is its N = 1 call.

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
from dataclasses import dataclass

import numpy as np

from .channels import (
    KrausSet,
    apply,
    apply_kraus,
    choi_state,
    choi_states,
    complementary,
    gram_states,
    require_cptp_stack,
)
from .linalg import (
    DEFAULT_TOL,
    DensityMatrix,
    _matrices,
    as_state,
    as_stack,
    general_eigenvalues,
    hermitian_eigenvalues,
    partial_transpose,
    sanitize_nonnegative_spectrum,
    validate_states,
)

# Entropy eigenvalues below this are exact zeros (avoids 0 * log 0 noise).
ENTROPY_EIGENVALUE_FLOOR = 1e-14

# Spin-flip product eigenvalues below this are exact zeros.  The product of
# two rank-deficient 4x4 states has structural zero eigenvalues that the
# general eigensolver reports as O(1e-16) noise; taking square roots of that
# noise would pollute the concurrence at the 1e-8 level.
WOOTTERS_EIGENVALUE_FLOOR = 1e-13

_SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]])
_YY = np.kron(_SIGMA_Y, _SIGMA_Y)


@dataclass(frozen=True, eq=False)
class Ensemble:
    """Weighted alphabet of quantum states."""

    probabilities: tuple
    states: tuple

    def __post_init__(self):
        probs = tuple(float(p) for p in self.probabilities)
        states = tuple(as_state(s) for s in self.states)
        if len(probs) != len(states) or not probs:
            raise ValueError("probabilities and states must be equal-length and nonempty")
        if min(probs) < 0:
            raise ValueError("probabilities must be nonnegative")
        if abs(sum(probs) - 1.0) > 1e-12:
            raise ValueError(f"probabilities sum to {sum(probs)}, not 1")
        dims = {s.dim for s in states}
        if len(dims) != 1:
            raise ValueError(f"states have mixed dimensions {sorted(dims)}")
        object.__setattr__(self, "probabilities", probs)
        object.__setattr__(self, "states", states)

    @property
    def average_state(self) -> DensityMatrix:
        acc = sum(p * s.matrix for p, s in zip(self.probabilities, self.states))
        return DensityMatrix(acc)


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
    """S(rho) = -tr(rho ln rho) in nats of each state of a stack, which is
    validated as :class:`DensityMatrix` validates one state."""
    return _entropies(validate_states(states))


def von_neumann_entropy(rho) -> float:
    """S(rho) = -tr(rho ln rho) in nats."""
    return float(von_neumann_entropies(as_state(rho).matrix[None])[0])


def map_entropies(kraus) -> np.ndarray:
    """Entropy of the normalized Choi state of each channel of a Kraus stack,
    from the spectrum that validated its Gram state, the Choi state's
    nonzero spectrum."""
    return _entropies(gram_states(kraus)[1])


def map_entropy(channel: KrausSet) -> float:
    """Entropy of the normalized Choi state; 0 for unitary channels."""
    return float(map_entropies(channel.operators[None])[0])


def coherent_information(channel: KrausSet, rho) -> float:
    """Output entropy minus environment entropy; zero for self-complementary maps."""
    state = as_state(rho)
    out = apply(channel, state)
    env = apply(complementary(channel), state)
    return von_neumann_entropy(out) - von_neumann_entropy(env)


def holevo_chis(probabilities, states) -> np.ndarray:
    """S(sum p_i rho_i) - sum p_i S(rho_i) of each row of a stack of ensembles.

    ``states`` has shape (N, M, d, d): N ensembles of M states, all weighted
    by the M ``probabilities``, which :class:`Ensemble` validates for one
    ensemble.  Nonnegative by concavity; rounding below zero is clamped.
    """
    states = np.asarray(states, dtype=complex)
    n, m, d, _ = states.shape
    mixed = von_neumann_entropies(sum(p * states[:, i] for i, p in enumerate(probabilities)))
    parts = von_neumann_entropies(states.reshape(n * m, d, d)).reshape(n, m)
    chi = mixed - sum(p * parts[:, i] for i, p in enumerate(probabilities))
    return _clamp_nonnegative(chi)


def holevo_chi(ensemble: Ensemble) -> float:
    """S(sum p_i rho_i) - sum p_i S(rho_i); nonnegative by concavity."""
    states = np.array([[s.matrix for s in ensemble.states]])
    return float(holevo_chis(ensemble.probabilities, states)[0])


def capacity_lower_bounds(kraus, basis_states, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Holevo quantity of the channel outputs for an equiprobable orthogonal
    pure-state alphabet, for each channel of a Kraus stack (N, k, n_out,
    n_in); lower-bounds the classical capacity."""
    states = [as_state(s) for s in basis_states]
    if not states:
        raise ValueError("need at least one basis state")
    # tr(rho_j rho_i) of Hermitian states is the flattened inner product.
    flat = np.array([s.matrix.reshape(-1) for s in states])
    overlaps = flat.conj() @ flat.T
    for i in range(len(states)):
        purity = float(np.real(overlaps[i, i]))
        if abs(purity - 1.0) > 1e-9:
            raise ValueError(f"basis state {i} is not pure (purity {purity})")
        bad = np.flatnonzero(np.abs(overlaps[:i, i]) > tol)
        if bad.size:
            j = int(bad[0])
            overlap = float(abs(overlaps[j, i]))
            raise ValueError(f"basis states {j} and {i} overlap by {overlap:.3e}")
    kraus = require_cptp_stack(kraus)
    n_in = kraus.shape[-1]
    if states[0].dim != n_in:
        raise ValueError(f"state dimension {states[0].dim} != channel input dimension {n_in}")
    outputs = apply_kraus(kraus[:, None], np.array([s.matrix for s in states]))
    return holevo_chis(tuple(1.0 / len(states) for _ in states), outputs)


def classical_capacity_lower_bound(
    channel: KrausSet, basis_states, tol: float = DEFAULT_TOL
) -> float:
    """Holevo quantity of the channel outputs for an equiprobable orthogonal
    pure-state alphabet; lower-bounds the classical capacity."""
    return float(capacity_lower_bounds(channel.operators[None], basis_states, tol)[0])


def spin_flip(omega) -> np.ndarray:
    """(sigma_y (x) sigma_y) conj(omega) (sigma_y (x) sigma_y) on two qubits,
    matrix by matrix for a stack."""
    m = _matrices(omega.matrix if isinstance(omega, DensityMatrix) else omega)
    if m.shape[-2:] != (4, 4):
        raise ValueError(f"spin flip needs a 4x4 two-qubit matrix, got {m.shape}")
    return _YY @ m.conj() @ _YY


def wootters_spectra(states) -> np.ndarray:
    """Square roots of the eigenvalues of omega * spin_flip(omega), descending,
    one row per two-qubit state of a validated stack."""
    states = as_stack(states)
    if states.shape[-1] != 4:
        raise ValueError(f"concurrence needs a two-qubit state, got dim {states.shape[-1]}")
    product = states @ spin_flip(states)
    ev = sanitize_nonnegative_spectrum(general_eigenvalues(product))
    scale = np.abs(product).max(axis=(-2, -1))
    scale = np.where(scale > 1.0, scale, 1.0)
    ev[ev < WOOTTERS_EIGENVALUE_FLOOR * scale[:, None]] = 0.0
    return np.sqrt(np.sort(ev, axis=-1)[:, ::-1])


def wootters_spectrum(omega) -> np.ndarray:
    """Square roots of the eigenvalues of omega * spin_flip(omega), descending."""
    return wootters_spectra(as_state(omega).matrix[None])[0]


def concurrences(states) -> np.ndarray:
    """Two-qubit concurrence max{0, l1 - l2 - l3 - l4} of each state of a
    validated stack."""
    lam = wootters_spectra(states)
    c = lam[:, 0] - lam[:, 1] - lam[:, 2] - lam[:, 3]
    return _clamp_nonnegative(c)


def concurrence(omega) -> float:
    """Two-qubit concurrence max{0, l1 - l2 - l3 - l4}."""
    return float(concurrences(as_state(omega).matrix[None])[0])


def negativities(states, dims: tuple[int, int]) -> np.ndarray:
    """(trace norm of the partial transpose - 1) / 2 of each state of a
    validated stack."""
    states = as_stack(states)
    d1, d2 = dims
    if states.shape[-1] != d1 * d2:
        raise ValueError(f"state dimension {states.shape[-1]} != {d1} * {d2}")
    ev = hermitian_eigenvalues(partial_transpose(states, dims))
    neg = (np.abs(ev).sum(axis=-1) - 1.0) / 2.0
    return _clamp_nonnegative(neg)


def negativity(omega, dims: tuple[int, int]) -> float:
    """(trace norm of the partial transpose - 1) / 2."""
    return float(negativities(as_state(omega).matrix[None], dims)[0])


def choi_measures(kraus) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Negativity, concurrence and map entropy of the Choi state of each qubit
    channel of a Kraus stack (N, k, 2, 2), from one Choi build per channel."""
    states, spectra = choi_states(kraus)
    return negativities(states, (2, 2)), concurrences(states), _entropies(spectra)


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


def concurrence_from_negativity(neg: float) -> float:
    """Concurrence of a family Choi state as a monotone function of its
    negativity.

    With N = |cos 2t|/4 the concurrence is sqrt((1 - sqrt(1 - 16 N^2)) / 2)
    on both sides of the entanglement-breaking point t = pi/4.
    """
    neg = float(neg)
    if not 0.0 <= neg <= 0.25 + 1e-12:
        raise ValueError(f"negativity {neg} outside [0, 1/4]")
    inner = max(0.0, 1.0 - 16.0 * min(neg, 0.25) ** 2)
    return math.sqrt(max(0.0, (1.0 - math.sqrt(inner)) / 2.0))


def entanglement_evolution_factor(channel: KrausSet, rho_in) -> tuple[float, float]:
    """Check the product rule for one-sided entanglement evolution.

    For a pure two-qubit input with the channel acting on the second qubit,
    the output concurrence equals the input concurrence times the
    concurrence of the channel's Choi state.  Returns (predicted, direct)
    where predicted = C(rho_in) * C(omega) and direct = C(rho_out).
    """
    if channel.n_in != 2 or channel.n_out != 2:
        raise ValueError("entanglement evolution factor needs a qubit channel")
    state = as_state(rho_in)
    if state.dim != 4:
        raise ValueError(f"input must be a two-qubit state, got dim {state.dim}")
    omega = choi_state(channel)
    predicted = concurrence(state) * concurrence(omega)
    extended = KrausSet(4, 4, [np.kron(np.eye(2), op) for op in channel.operators])
    direct = concurrence(apply(extended, state))
    return predicted, direct
