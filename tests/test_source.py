"""Rules on the package source itself."""

import ast
from pathlib import Path

import setflow
from setflow import chains, geometry, potential, setmaps, solver

# the package's public names, in the order the package lists them
PUBLIC_NAMES = [
    "ACTIVITY_TOL", "Always", "Box", "BudgetExceededError", "Chain", "ClassReport",
    "CompactSet", "DEFAULT_CHAIN_BUDGET", "DEFAULT_TOL", "GridSpec", "Halfspace",
    "HullProjectionError", "PLConvexFunction", "ProblemFormatError", "ProblemSpec",
    "SelectionFailed", "SequenceFamily", "SetValuedMap", "Trajectory",
    "UncoveredPointError", "affine_value", "as_vector", "build_family",
    "check_support_chain", "classify_cyclic_monotone", "classify_monotone",
    "classify_weak_cyclic_monotone", "classify_weakly_monotone",
    "constant_map", "dist_to_hull", "dist_to_set",
    "euler_solve", "extend_exhaustive", "extend_inertial", "extend_support",
    "extension_slack", "family_from_text", "family_to_text", "grow_family",
    "horizon_hint", "inner", "linear_map", "map_from_dict",
    "map_to_dict", "nearest_point", "norm", "parse_problem", "pl_subdifferential_map",
    "polygon_sup_distance", "potential_value", "potential_values", "refine_study",
    "replay_witness", "sample_grid", "serialize_problem", "subgradient_test",
    "submap_contains", "submap_select", "support_argmax", "support_value",
    "table_map", "time_grid", "trajectory_cm_check", "trajectory_residual",
    "verify_chain",
]


def test_no_contract_rests_on_assert():
    # ``python -O`` strips assert statements, so a check that must hold in
    # every run raises an exception instead
    package = Path(setflow.__file__).resolve().parent
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(package.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_package_exports_exactly_its_modules_lists():
    modules = (geometry, setmaps, chains, potential, solver)
    assert setflow.__all__ == PUBLIC_NAMES
    assert len(set(PUBLIC_NAMES)) == len(PUBLIC_NAMES) == 65
    assert setflow.__all__ == sorted(name for m in modules for name in m.__all__)
    for module in modules:
        for name in module.__all__:
            assert getattr(setflow, name) is getattr(module, name), (module.__name__, name)
    # so the package writes no name itself: its only strings are the
    # docstring and the version
    tree = ast.parse(Path(setflow.__file__).read_text())
    strings = [node for node in ast.walk(tree)
               if isinstance(node, ast.Constant) and isinstance(node.value, str)]
    version = next(node.value for node in tree.body
                   if isinstance(node, ast.Assign) and node.targets[0].id == "__version__")
    assert strings == [tree.body[0].value, version]


def test_no_chain_scan_ignores_overflow():
    # a scan forms its terms under the caller's errstate, one row per block
    # where one could overflow (chains._blocks), and never forms them with
    # overflow ignored to replay rows after; verify_chain alone replays
    tree = ast.parse(Path(chains.__file__).read_text())
    found = sorted({
        function.name
        for function in ast.walk(tree) if isinstance(function, ast.FunctionDef)
        for node in ast.walk(function)
        if isinstance(node, ast.Call) and ast.unparse(node.func) == "np.errstate"
        and any(k.arg in ("over", "all") and ast.literal_eval(k.value) == "ignore"
                for k in node.keywords)
    })
    assert found == ["verify_chain"]
