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

The QP data, residual and multipliers are all per stage.  Every solve
path takes its next iterate from one step, ``_step``, which solves the QP
frozen at the stage data of a trace entry and returns the next entry.

Both variants stop on the a-posteriori error bound of a contraction,
``|y[l+1] - y*| <= k / (1 - k) |y[l+1] - y[l]|``, which needs neither
multipliers nor a residual: the loop stops once the bound, taken with
the larger of the last two step ratios as ``k`` (capped at 0.9, and 0.9
until two ratios exist), is at most ``stop_tol (1 + |y|)``.  The last
ratio alone can understate the error: the ratios of an ADIP solve
alternate between about 0.24 and 0.55.  A QP whose refreshed stage data
equals the frozen data bitwise also ends the loop: its solution is its
own next iterate.  Multipliers and residuals of any trace are computed
only when read.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from functools import cached_property
from time import perf_counter
from typing import Optional

import numpy as np

from .condensing import condense, expand, solve_condensed, stage_multipliers
from .errors import SolverError
from .models import eval_dynamics
from .stacked import (
    VARIANTS,
    KktPoint,
    StackedProblem,
    StageData,
    stage_data,
    stage_residual,
)

Array = np.ndarray

MODES = ("converge", "real_time_single_iteration")

# the contraction rate the stopping bound assumes at most
_MAX_RATE = 0.9


def _is_int(value) -> bool:
    """A Python or numpy integer, not a boolean: ``bool`` subclasses ``int``
    (``np.bool_`` is no ``np.integer``)."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


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
        if not _is_int(self.max_iter) or self.max_iter < 1:
            raise ValueError(f"max_iter must be an integer >= 1, got {self.max_iter!r}")
        tol = self.stop_tol
        if isinstance(tol, bool) or not isinstance(tol, numbers.Real) or not 0.0 < tol < np.inf:
            raise ValueError(f"stop_tol must be a finite positive number, got {tol!r}")


class TraceEntry:
    """One iterate y of the solve ``(prob, x0, variant)``.

    ``frozen`` is the stage data of the QP that produced y (None at the
    start, meaning y's own stage data) and ``qp_time`` the seconds of that
    QP's SPD solve.  ``stages`` (y's own stage data), ``z`` (y and the
    multipliers of the QP that produced it) and ``fonc_inf`` (the residual
    of the QP frozen at y) are computed once each, when first read.
    """

    def __init__(self, solve: tuple, y: Array, frozen: Optional[StageData] = None,
                 qp_time: float = 0.0):
        self.solve, self.y, self.frozen, self.qp_time = solve, y, frozen, qp_time

    @cached_property
    def stages(self) -> StageData:
        prob, _, variant = self.solve
        return stage_data(prob, self.y, variant)

    @cached_property
    def z(self) -> KktPoint:
        frozen = self.stages if self.frozen is None else self.frozen
        return KktPoint(self.y, stage_multipliers(self.solve[0], frozen, self.y))

    @cached_property
    def fonc_inf(self) -> float:
        prob, x0, _ = self.solve
        return stage_residual(prob, self.stages, self.z, x0)


@dataclass
class IterateTrace:
    """Iteration record; entry 0 is the initial point, untimed.  A real-time
    trace is the start and one QP solution, unconverged.  Reading ``final``
    or ``residuals`` computes multipliers or residuals; ``iterates[-1].y``
    computes nothing."""

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


def _step(entry: TraceEntry) -> TraceEntry:
    """The next entry of entry's solve: the solution of the QP frozen at ``entry.stages``."""
    prob, x0, _ = entry.solve
    qp = condense(prob, entry.stages, x0)
    t0 = perf_counter()
    u = solve_condensed(qp)
    qp_s = perf_counter() - t0
    y = expand(qp, u)
    if not np.all(np.isfinite(y)):
        raise SolverError("QP solution is non-finite")
    return TraceEntry(entry.solve, y, entry.stages, qp_s)


def qlmpc_iterate(prob: StackedProblem, z: KktPoint, x0hat, variant: str = "standard") -> KktPoint:
    """Solve the QP frozen at z.y; return its solution and multipliers there."""
    return _step(TraceEntry((prob, prob.check_x0(x0hat), variant), prob.check_y(z.y))).z


def _same_qp(s: StageData, t: StageData) -> bool:
    return all(np.array_equal(getattr(s, f), getattr(t, f)) for f in ("a", "b", "w"))


def _rate(steps: list) -> float:
    """The contraction rate of the stopping bound: the larger of the last two
    step ratios, capped at _MAX_RATE, and _MAX_RATE until two ratios exist."""
    if len(steps) < 3:
        return _MAX_RATE
    return min(_MAX_RATE, max(steps[-1] / steps[-2], steps[-2] / steps[-3]))


def solve_ocp(prob: StackedProblem, x0hat, y_init, opts: SolverOptions) -> IterateTrace:
    """Iterate the chosen variant from y_init until its error bound passes stop_tol.

    Each iteration solves one QP.  The loop stops, converged, when the
    contraction bound ``k / (1 - k) |dy|_inf`` of the latest step ``dy`` is at
    most ``stop_tol (1 + |y|_inf)``, or when the refreshed stage data equals
    the frozen data bitwise; it stops at max_iter with ``converged=False``.
    Numerical failures raise SolverError.  Real-time mode solves one QP and
    traces the start and its solution with ``converged=False``.
    """
    x0 = prob.check_x0(x0hat)
    y = prob.check_y(y_init)
    if not (np.all(np.isfinite(x0)) and np.all(np.isfinite(y))):
        raise SolverError("solve_ocp received non-finite initial data")

    entries = [TraceEntry((prob, x0, opts.variant), y)]
    if opts.mode == "real_time_single_iteration":
        return IterateTrace([entries[0], _step(entries[0])], converged=False)

    steps = []
    while True:
        entry = _step(entries[-1])
        steps.append(float(np.max(np.abs(entry.y - entries[-1].y))))
        entries.append(entry)
        k = _rate(steps)
        if k / (1.0 - k) * steps[-1] <= opts.stop_tol * (1.0 + float(np.max(np.abs(entry.y)))):
            return IterateTrace(entries, converged=True)
        same = _same_qp(entry.frozen, entry.stages)
        if same or len(entries) > opts.max_iter:
            return IterateTrace(entries, converged=same)
