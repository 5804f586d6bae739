"""The top level is the solver's API; QP internals and oracles live in their modules."""

import ast
import collections
import importlib
from pathlib import Path

import pytest

import qlmpc as q

API = {
    "ConfigError", "QlmpcError", "SolverError",
    "LpvModel", "ModelDims", "get_model", "eval_dynamics",
    "StackedProblem", "Weights", "KktPoint",
    "SolverOptions", "solve_ocp", "initial_guess", "warm_shift", "qlmpc_iterate", "IterateTrace",
    "Scenario", "builtin_scenario", "simulate", "run_control_loop", "ScenarioResult",
    "PerStepStats", "dr_series", "rcso",
    "verify_fixpoint_perturbation", "contraction_fit", "sqp_equivalence_max_deviation",
    "PerturbationReport", "ContractionEstimate",
}

# each name below has one address, its module
MODULE_ONLY = {
    "condensing": ["CondensedQp", "condense", "expand", "solve_condensed"],
    "stacked": ["constraint_matrix", "cost_perturbation", "coupling_correction", "fonc_residual",
                "linearized_constraint", "sqp_step", "true_fonc_residual"],
    "models": ["builtin_adip", "builtin_tiny", "builtin_unicycle"],
}

# oracles that only the tests call; they live in tests/oracles.py
TEST_ORACLES = {"kkt_matrix", "fonc_jacobian", "fd_jacobian", "recover_multipliers",
                "certificate_trace"}

SRC = Path(q.__file__).parent
ROOT = SRC.parents[1]


def test_all_is_the_solver_api():
    assert len(q.__all__) == len(API) == 29
    assert set(q.__all__) == API
    assert all(hasattr(q, name) for name in API)


@pytest.mark.parametrize("module", sorted(MODULE_ONLY))
def test_internals_and_oracles_live_in_their_module_only(module):
    mod = importlib.import_module(f"qlmpc.{module}")
    for name in MODULE_ONLY[module]:
        assert hasattr(mod, name), name
        assert not hasattr(q, name), name


def _imported_modules(node):
    """The modules an import statement names, its ``from`` names included."""
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    if isinstance(node, ast.ImportFrom) and node.level == 0:
        return [node.module] + [f"{node.module}.{alias.name}" for alias in node.names]
    return []


def test_src_holds_no_test_oracle_and_imports_scipy_linalg_only_as_the_lapack_fallback():
    # the package holds what it runs; scipy.linalg is imported only where
    # scipy's LAPACK extension file is missing
    linalg_imports, defined = set(), set()
    for path in SRC.glob("*.py"):
        tree = ast.parse(path.read_text())
        owner = {}
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.add(fn.name)
                owner.update((id(node), fn.name) for node in ast.walk(fn))
        for node in ast.walk(tree):
            if any(m == "scipy.linalg" or m.startswith("scipy.linalg.")
                   for m in _imported_modules(node)):
                linalg_imports.add((path.name, owner.get(id(node))))
    assert linalg_imports == {("_lapack.py", "_load")}
    assert not defined & TEST_ORACLES


def _definitions(tree):
    """The module-level functions and classes of a module and its classes'
    non-dunder methods."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node
        if isinstance(node, ast.ClassDef):
            yield from (m for m in node.body
                        if isinstance(m, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and not (m.name.startswith("__") and m.name.endswith("__")))


def _names(nodes) -> collections.Counter:
    """How often each name is read, as an ``ast.Name`` or an ``ast.Attribute``."""
    return collections.Counter(n.id if isinstance(n, ast.Name) else n.attr for n in nodes
                               if isinstance(n, (ast.Name, ast.Attribute)))


def test_every_src_definition_is_named_outside_its_own_definition():
    # the package holds what it runs: each definition in src/qlmpc is named
    # by src/qlmpc outside its own body, by scripts/ or by perfbench/
    trees = [ast.parse(p.read_text()) for p in sorted(SRC.glob("*.py"))]
    in_src = sum((_names(ast.walk(t)) for t in trees), collections.Counter())
    elsewhere = [p for d in ("scripts", "perfbench") for p in sorted((ROOT / d).rglob("*.py"))]
    outside = set(_names(n for p in elsewhere for n in ast.walk(ast.parse(p.read_text()))))
    unnamed = sorted(d.name for t in trees for d in _definitions(t)
                     if d.name not in outside and in_src[d.name] == _names(ast.walk(d))[d.name])
    assert unnamed == []
