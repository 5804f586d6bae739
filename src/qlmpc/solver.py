"""Iteration engine for the two qLMPC variants.

Each iteration freezes data extracted from the previous solution and
solves one equality-constrained QP through the condensed path:

* standard: freeze the parameter trajectory rho(y[l]) and use the
  frozen-parameter stage matrices (A(rho_k), B(rho_k)).  Fixpoints are
  feasible but suboptimal for the original NLP; they optimize a linearly
  perturbed cost instead.
* exact: freeze the stage Jacobians at y[l] and carry the coupling
  correction as a constant disturbance offset w_k.  One iterate equals
  a Gauss-Newton SQP step, so fixpoints satisfy the true first-order
  conditions.

The QP data, residual and multipliers are all per stage.

Stopping is variant-specific: the standard variant monitors the
refreshed frozen-parameter residual (the root function its own
iteration solves), the exact variant the true-NLP residual.  The
standard variant cannot drive the true stationarity below the norm of
the cost perturbation, so a shared criterion would be meaningless.
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter

import numpy as np

from .condensing import condense, expand, solve_condensed, stage_multipliers
from .errors import SolverError
from .models import eval_dynamics
from .stacked import (
    VARIANTS,
    KktPoint,
    StackedProblem,
    stage_data,
    stage_residual,
)

Array = np.ndarray

MODES = ("converge", "real_time_single_iteration")


@dataclass(frozen=True)
class SolverOptions:
    variant: str = "standard"
    max_iter: int = 30
    stop_tol: float = 1e-6
    mode: str = "converge"

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"variant must be one of {VARIANTS}, got {self.variant!r}")
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.max_iter < 1:
            raise ValueError(f"max_iter must be >= 1, got {self.max_iter}")
        if not self.stop_tol > 0:
            raise ValueError(f"stop_tol must be positive, got {self.stop_tol}")


@dataclass(frozen=True)
class TraceEntry:
    z: KktPoint
    fonc_inf: float
    prep_time: float
    qp_time: float


@dataclass
class IterateTrace:
    """Iteration record; entry 0 is the initial point, untimed.  A real-time
    trace is the start and one QP solution: lam None, NaN residuals, unconverged."""

    iterates: list
    converged: bool

    @property
    def iterations(self) -> int:
        return len(self.iterates) - 1

    @property
    def final(self) -> KktPoint:
        return self.iterates[-1].z

    @property
    def residuals(self) -> Array:
        return np.array([e.fonc_inf for e in self.iterates])


def initial_guess(prob: StackedProblem, x0hat) -> Array:
    """Zero-input rollout from x0hat; feasible for the NLP with u = 0."""
    x0 = prob.check_x0(x0hat)
    n = prob.n_horizon
    xs = np.zeros((n + 1, prob.n_x))
    xs[0] = x0
    zero_u = np.zeros(prob.n_u)
    # unstable rollouts may overflow to inf; solve_ocp reports that as a
    # numerical failure, so silence the intermediate warning here
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(n):
            xs[k + 1] = eval_dynamics(prob.model, xs[k], zero_u)
    return np.concatenate([xs.ravel(), np.zeros(n * prob.n_u)])


def warm_shift(prob: StackedProblem, y_prev, x0hat_new) -> Array:
    """Shift a solution by one stage for the next sampling instant.

    States and inputs move up one slot, the last input is duplicated,
    the new terminal state is the dynamics applied to the old terminal
    state under the duplicated input, and the first state slot is
    overwritten with the new measurement.
    """
    y_prev = prob.check_y(y_prev)
    x0 = prob.check_x0(x0hat_new)
    n = prob.n_horizon
    xs = prob.states(y_prev)
    us = prob.inputs(y_prev)
    xs_new = np.empty_like(xs)
    us_new = np.empty_like(us)
    xs_new[:n] = xs[1:]
    us_new[:n - 1] = us[1:]
    us_new[n - 1] = us[n - 1]
    xs_new[n] = eval_dynamics(prob.model, xs[n], us[n - 1])
    xs_new[0] = x0
    return np.concatenate([xs_new.ravel(), us_new.ravel()])


def _qp_step(prob: StackedProblem, stages, x0) -> tuple:
    """Solve the QP frozen in ``stages``; return y and the seconds of its SPD solve."""
    qp = condense(prob, stages, x0)
    t0 = perf_counter()
    u = solve_condensed(qp)
    qp_s = perf_counter() - t0
    y = expand(qp, u)
    if not np.all(np.isfinite(y)):
        raise SolverError("QP solution is non-finite")
    return y, qp_s


def qlmpc_iterate(prob: StackedProblem, z: KktPoint, x0hat, variant: str = "standard") -> KktPoint:
    """Solve the QP frozen at z.y; return its solution and multipliers there."""
    stages = stage_data(prob, prob.check_y(z.y), variant)
    y, _ = _qp_step(prob, stages, x0hat)
    return KktPoint(y, stage_multipliers(prob, stages, y))


def solve_ocp(prob: StackedProblem, x0hat, y_init, opts: SolverOptions) -> IterateTrace:
    """Iterate the chosen variant from y_init until its residual passes stop_tol.

    Stops at max_iter with ``converged=False``; numerical failures raise
    SolverError.  Real-time mode solves one QP and traces the start and its
    solution with lam None, NaN residuals and ``converged=False``;
    ``qlmpc_iterate`` gives the primal-dual step.
    """
    x0 = prob.check_x0(x0hat)
    y = prob.check_y(y_init)
    if not (np.all(np.isfinite(x0)) and np.all(np.isfinite(y))):
        raise SolverError("solve_ocp received non-finite initial data")

    stages = stage_data(prob, y, opts.variant)
    if opts.mode == "real_time_single_iteration":
        t0 = perf_counter()
        y_next, qp_s = _qp_step(prob, stages, x0)
        prep_s = perf_counter() - t0 - qp_s
        step = TraceEntry(KktPoint(y_next, None), np.nan, prep_s, qp_s)
        return IterateTrace([TraceEntry(KktPoint(y, None), np.nan, 0.0, 0.0), step], converged=False)

    # lam is that of the QP that produced y; the residual reads y's own stages
    frozen, t0, qp_s, entries = stages, None, 0.0, []
    while True:
        z = KktPoint(y, stage_multipliers(prob, frozen, y))
        res = stage_residual(prob, stages, z, x0)
        prep_s = 0.0 if t0 is None else perf_counter() - t0 - qp_s
        if not np.isfinite(res):
            raise SolverError(f"optimality residual is non-finite after {len(entries)} steps")
        entries.append(TraceEntry(z, res, prep_s, qp_s))
        if res <= opts.stop_tol or len(entries) > opts.max_iter:
            return IterateTrace(entries, converged=bool(res <= opts.stop_tol))
        t0 = perf_counter()
        y, qp_s = _qp_step(prob, stages, x0)
        frozen, stages = stages, stage_data(prob, y, opts.variant)
