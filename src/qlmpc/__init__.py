"""Iterative quasi-LPV model predictive control without inequality constraints.

Provides the standard (suboptimal) and exact (Gauss-Newton SQP
equivalent) iteration variants, a range-space QP solve with a condensed
fallback, closed-loop benchmark scenarios, and numerical verification of
the convergence and suboptimality properties of the scheme.

The top level is the solver's API. The QP internals live in
``qlmpc.condensing``, the stage-wise checks that ``diagnose`` reads in
``qlmpc.stacked`` and the model factories in ``qlmpc.models``.
"""

from .closed_loop import (
    PerStepStats,
    Scenario,
    ScenarioResult,
    builtin_scenario,
    dr_series,
    rcso,
    run_control_loop,
    simulate,
)
from .diagnostics import (
    ContractionEstimate,
    PerturbationReport,
    contraction_fit,
    sqp_equivalence_max_deviation,
    verify_fixpoint_perturbation,
)
from .errors import ConfigError, QlmpcError, SolverError
from .models import LpvModel, ModelDims, eval_dynamics, get_model
from .solver import (
    IterateTrace,
    SolverOptions,
    initial_guess,
    qlmpc_iterate,
    solve_ocp,
    warm_shift,
)
from .stacked import KktPoint, StackedProblem, Weights

__version__ = "0.1.0"

__all__ = [
    "ConfigError",
    "ContractionEstimate",
    "IterateTrace",
    "KktPoint",
    "LpvModel",
    "ModelDims",
    "PerStepStats",
    "PerturbationReport",
    "QlmpcError",
    "Scenario",
    "ScenarioResult",
    "SolverError",
    "SolverOptions",
    "StackedProblem",
    "Weights",
    "builtin_scenario",
    "contraction_fit",
    "dr_series",
    "eval_dynamics",
    "get_model",
    "initial_guess",
    "qlmpc_iterate",
    "rcso",
    "run_control_loop",
    "simulate",
    "solve_ocp",
    "sqp_equivalence_max_deviation",
    "verify_fixpoint_perturbation",
    "warm_shift",
]
