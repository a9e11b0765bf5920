import inspect

import qchan

# The names ``import qchan`` exports, sorted.  A change to the public API
# shows up as a diff of this list.
PUBLIC_API = [
    "ChannelValidation",
    "DEFAULT_TOL",
    "affine_of_channel",
    "amplitude_damping",
    "apply",
    "apply_kraus",
    "bloch_image",
    "bloch_vector",
    "capacity_lower_bounds",
    "channel_rank",
    "choi_matrix",
    "choi_state",
    "choi_to_kraus",
    "choi_to_superop",
    "coherent_information",
    "complementary",
    "compose",
    "concurrence",
    "concurrence_closed_form",
    "concurrences",
    "dagger",
    "dephasing",
    "dft_matrix",
    "entanglement_evolution_factor",
    "fibonacci_sphere",
    "gram_states",
    "hermitian_eigenvalues",
    "identity_channel",
    "increase_duration",
    "is_selfcomplementary",
    "kraus_from_unitary",
    "kraus_to_superop",
    "map_entropies",
    "map_entropy",
    "ndim_family",
    "ndim_theta0",
    "negativities",
    "negativity",
    "negativity_closed_form",
    "partial_trace",
    "partial_transpose",
    "positive_variation",
    "qubit_family_a",
    "qubit_family_b",
    "qutrit_family",
    "run_trajectory",
    "selfcomplementarity_defect",
    "stinespring",
    "superop_to_choi",
    "tensor_channel",
    "validate_channel",
    "validate_states",
    "von_neumann_entropies",
    "von_neumann_entropy",
]


def test_public_api_is_the_pinned_list():
    # Submodules (qchan.cli, qchan.serialize, ...) appear as attributes once
    # imported; they are not exports.
    names = sorted(
        name
        for name, value in vars(qchan).items()
        if not name.startswith("_") and not inspect.ismodule(value)
    )
    assert names == PUBLIC_API
