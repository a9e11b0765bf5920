"""Quantum-channel toolkit.

Construct channels from Kraus operators, convert among the Kraus,
superoperator, Choi, and Stinespring representations, generate the
self-complementary channel families, and evaluate entropy, capacity,
entanglement, and non-Markovianity measures on them.
"""

from .channels import (
    ChannelValidation,
    apply,
    apply_kraus,
    channel_rank,
    choi_matrix,
    choi_state,
    choi_to_kraus,
    choi_to_superop,
    complementary,
    compose,
    gram_states,
    is_selfcomplementary,
    kraus_from_unitary,
    kraus_to_superop,
    selfcomplementarity_defect,
    stinespring,
    superop_to_choi,
    tensor_channel,
    validate_channel,
)
from .dynamics import (
    Trajectory,
    affine_of_channel,
    bloch_image,
    bloch_vector,
    fibonacci_sphere,
    increase_duration,
    non_markovianity_measure,
    positive_variation,
    run_trajectory,
)
from .families import (
    amplitude_damping,
    dephasing,
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
    NumericalError,
    dagger,
    hermitian_eigenvalues,
    partial_trace,
    partial_transpose,
    validate_states,
)
from .measures import (
    capacity_lower_bounds,
    classical_capacity_lower_bound,
    coherent_information,
    concurrence,
    concurrences,
    concurrence_closed_form,
    entanglement_evolution_factor,
    holevo_chis,
    map_entropies,
    map_entropy,
    negativities,
    negativity,
    negativity_closed_form,
    spin_flip,
    von_neumann_entropies,
    von_neumann_entropy,
)

__version__ = "0.1.0"
