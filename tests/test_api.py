"""The top level is the solver's API; QP internals and oracles live in their modules."""

import importlib

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
    "stacked": ["constraint_matrix", "cost_perturbation", "coupling_correction", "fd_jacobian",
                "fonc_jacobian", "fonc_residual", "kkt_matrix", "linearized_constraint",
                "recover_multipliers", "sqp_step", "true_fonc_residual"],
    "models": ["builtin_adip", "builtin_tiny", "builtin_unicycle"],
}


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
