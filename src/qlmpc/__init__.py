"""Iterative quasi-LPV model predictive control without inequality constraints.

Provides the standard (suboptimal) and exact (Gauss-Newton SQP
equivalent) iteration variants, a range-space QP solve with a condensed
fallback, closed-loop benchmark scenarios, and numerical verification of
the convergence and suboptimality properties of the scheme.
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
from .condensing import CondensedQp, condense, expand, solve_condensed
from .diagnostics import (
    ContractionEstimate,
    PerturbationReport,
    contraction_fit,
    sqp_equivalence_max_deviation,
    verify_fixpoint_perturbation,
)
from .errors import ConfigError, QlmpcError, SolverError
from .models import (
    LpvModel,
    ModelDims,
    builtin_adip,
    builtin_tiny,
    builtin_unicycle,
    eval_dynamics,
    get_model,
)
from .solver import (
    IterateTrace,
    SolverOptions,
    initial_guess,
    qlmpc_iterate,
    solve_ocp,
    warm_shift,
)
from .stacked import (
    KktPoint,
    StackedProblem,
    Weights,
    constraint_matrix,
    cost_perturbation,
    coupling_correction,
    fd_jacobian,
    fonc_jacobian,
    fonc_residual,
    kkt_matrix,
    linearized_constraint,
    recover_multipliers,
    sqp_step,
    true_fonc_residual,
)

__version__ = "0.1.0"

__all__ = [
    "ConfigError",
    "CondensedQp",
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
    "builtin_adip",
    "builtin_scenario",
    "builtin_tiny",
    "builtin_unicycle",
    "condense",
    "constraint_matrix",
    "contraction_fit",
    "cost_perturbation",
    "coupling_correction",
    "dr_series",
    "eval_dynamics",
    "expand",
    "fd_jacobian",
    "fonc_jacobian",
    "fonc_residual",
    "get_model",
    "initial_guess",
    "kkt_matrix",
    "linearized_constraint",
    "qlmpc_iterate",
    "rcso",
    "recover_multipliers",
    "run_control_loop",
    "simulate",
    "solve_condensed",
    "solve_ocp",
    "sqp_equivalence_max_deviation",
    "sqp_step",
    "true_fonc_residual",
    "verify_fixpoint_perturbation",
    "warm_shift",
]
