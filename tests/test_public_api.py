import ast
import inspect
import sys
from pathlib import Path

import qchan

ROOT = Path(__file__).resolve().parents[1]

# The names ``import qchan`` exports, sorted.  A change to the public API
# shows up as a diff of this list.
PUBLIC_API = [
    "DEFAULT_TOL",
    "affine_of_channel",
    "amplitude_damping",
    "apply",
    "apply_kraus",
    "bloch_image",
    "capacity_lower_bounds",
    "channel_rank",
    "choi_matrix",
    "choi_state",
    "choi_to_kraus",
    "coherent_information",
    "complementary",
    "concurrence",
    "concurrence_closed_form",
    "concurrences",
    "dagger",
    "dft_matrix",
    "entanglement_evolution_factor",
    "fibonacci_sphere",
    "gram_states",
    "hermitian_eigenvalues",
    "identity_channel",
    "increase_duration",
    "is_selfcomplementary",
    "kraus_to_superop",
    "map_entropies",
    "map_entropy",
    "ndim_family",
    "ndim_theta0",
    "negativities",
    "negativity",
    "negativity_closed_form",
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


def imported_packages(path: Path) -> set[str]:
    """The top-level names of a Python file's absolute imports."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names.add(node.module.split(".")[0])
    return names


def test_imports_are_the_declared_dependencies():
    # numpy is the one runtime dependency, and pytest and hypothesis the test
    # extras (pyproject.toml); a package that merely happens to be installed
    # where the suite runs is not one.
    runtime = set(sys.stdlib_module_names) | {"numpy", "qchan"}
    allowed = {
        "src": runtime,
        "scripts": runtime,
        "tests": runtime | {"pytest", "hypothesis", "conftest"},
    }
    stray = [
        f"{path.relative_to(ROOT)}: {name}"
        for folder, names in allowed.items()
        for path in sorted((ROOT / folder).rglob("*.py"))
        for name in sorted(imported_packages(path) - names)
    ]
    assert not stray
