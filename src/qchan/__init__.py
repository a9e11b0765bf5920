"""Quantum-channel toolkit.

Construct channels from Kraus operators, convert among the Kraus,
superoperator, Choi, and Stinespring representations, generate the
self-complementary channel families, and evaluate entropy, capacity,
entanglement, and non-Markovianity measures on them.
"""

from .channels import (
    apply,
    apply_kraus,
    channel_rank,
    choi_matrix,
    choi_state,
    choi_to_kraus,
    complementary,
    gram_states,
    is_selfcomplementary,
    kraus_to_superop,
    selfcomplementarity_defect,
    stinespring,
    superop_to_choi,
    tensor_channel,
    validate_channel,
)
from .dynamics import (
    affine_of_channel,
    bloch_image,
    fibonacci_sphere,
    increase_duration,
    positive_variation,
    run_trajectory,
)
from .families import (
    amplitude_damping,
    dft_matrix,
    identity_channel,
    ndim_family,
    ndim_theta0,
    qubit_family_a,
    qubit_family_b,
    qutrit_family,
)
from .linalg import (
    DEFAULT_TOL,
    dagger,
    hermitian_eigenvalues,
    partial_transpose,
    validate_states,
)
from .measures import (
    capacity_lower_bounds,
    coherent_information,
    concurrence,
    concurrences,
    concurrence_closed_form,
    entanglement_evolution_factor,
    map_entropies,
    map_entropy,
    negativities,
    negativity,
    negativity_closed_form,
    von_neumann_entropies,
    von_neumann_entropy,
)

__version__ = "0.1.0"
