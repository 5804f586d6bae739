"""Receding-horizon simulation and closed-loop cost accounting.

Each step solves the OCP from the current state (warm-shifted guess
after the first step), applies the first input, and propagates the
plant with the same discrete-time model the controller uses, so the
reported suboptimality is not confounded by model mismatch.  A second
run with a tightly converged exact controller provides the reference
for the relative cumulative suboptimality (RCSO).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from time import perf_counter
from typing import Optional

import numpy as np

from .errors import ConfigError, SolverError
from .models import eval_dynamics, get_model
from .solver import IterateTrace, SolverOptions, _is_int, initial_guess, solve_ocp, warm_shift
from .stacked import StackedProblem, Weights

Array = np.ndarray

REFERENCE_OPTIONS = SolverOptions(variant="exact", mode="converge", stop_tol=1e-10, max_iter=100)

# Each preset is the inline scenario object ``--config`` accepts, paired
# with its default mode: the unicycle benchmark runs real-time single
# iterations, the others iterate to convergence.
_UNICYCLE_Q = [1.0, 1.0, 0.1, 1.0, 0.1]
_ADIP_Q = [200.0, 1000.0, 0.1, 10.0]
PRESETS = {
    "unicycle": ({"model": "unicycle", "x0": [1.0, 2.0, 0.0, math.pi, 0.0], "steps": 100,
                  "horizon": 20, "q": _UNICYCLE_Q, "r": [1.0, 1.0], "p": _UNICYCLE_Q},
                 "real_time_single_iteration"),
    "adip": ({"model": "adip", "x0": [math.pi / 3.0, 0.0, 0.0, 0.0], "steps": 200,
              "horizon": 40, "q": _ADIP_Q, "r": 2000.0, "p": _ADIP_Q},
             "converge"),
    "tiny-lti": ({"model": "tiny-lti", "x0": [1.0], "steps": 5, "horizon": 3,
                  "q": 1.0, "r": 1.0, "p": 1.0},
                 "converge"),
    "tiny-qlpv": ({"model": "tiny-qlpv", "x0": [0.5], "steps": 5, "horizon": 1,
                   "q": 1.0, "r": 1.0, "p": 1.0},
                  "converge"),
}


@dataclass(frozen=True)
class Scenario:
    """A closed-loop run that can happen; ``name`` is its output files' stem."""

    name: str
    model_id: str
    x0: Array
    steps: int
    horizon: int
    weights: Weights
    controller: SolverOptions

    def __post_init__(self):
        if (not isinstance(self.name, str) or self.name in ("", ".", "..")
                or "/" in self.name or "\0" in self.name):
            raise ValueError(f"name must be one plain path component, got {self.name!r}")
        for name in ("steps", "horizon"):
            value = getattr(self, name)
            if not _is_int(value) or value < 1:
                raise ValueError(f"{name} must be an integer >= 1, got {value!r}")
        if not np.all(np.isfinite(self.x0)):
            raise ValueError(f"x0 must be finite, got {self.x0}")
        self.problem.check_x0(self.x0)

    @cached_property
    def problem(self) -> StackedProblem:
        """The scenario's stacked OCP; unknown models and misfit weights raise here."""
        return StackedProblem.build(get_model(self.model_id), self.horizon, self.weights)


@dataclass(frozen=True)
class PerStepStats:
    iterations: int
    solve_time_s: float
    prep_time_s: float
    qp_time_s: float
    converged: bool


@dataclass
class ScenarioResult:
    states: Array        # (completed_steps + 1, n_x)
    inputs: Array        # (completed_steps, n_u)
    dr: Array            # cumulative closed-loop cost, per step
    rcso: Array          # relative excess over the reference, nan if undefined
    per_step: list
    reference_dr: Array
    reference_per_step: list
    failed: bool = False
    failure_step: Optional[int] = None
    failure_message: Optional[str] = None


def dr_series(states, inputs, Q, R) -> Array:
    """Cumulative stage costs; ``inputs`` has one row per applied step."""
    Q = np.atleast_2d(np.asarray(Q, dtype=float))
    R = np.atleast_2d(np.asarray(R, dtype=float))
    states = np.asarray(states, dtype=float).reshape(-1, Q.shape[0])
    inputs = np.asarray(inputs, dtype=float).reshape(-1, R.shape[0])
    n = inputs.shape[0]
    if n == 0:
        return np.zeros(0)
    # a cost too large for a double is inf here, and simulate reports it
    with np.errstate(over="ignore", invalid="ignore"):
        stage = np.array([
            states[i] @ (Q @ states[i]) + inputs[i] @ (R @ inputs[i]) for i in range(n)
        ])
        return np.cumsum(stage)


def rcso(dr_controller, dr_reference, k: int) -> float:
    """Relative cumulative suboptimality at step k; nan when undefined."""
    num = float(np.asarray(dr_controller)[k])
    den = float(np.asarray(dr_reference)[k])
    if den <= 0.0:
        return math.nan
    return (num - den) / den


def run_control_loop(prob: StackedProblem, x0, steps: int, opts: SolverOptions):
    """Drive the plant for ``steps`` samples; returns partial data on failure.

    Returns (states, inputs, per_step, failure_step, failure_message);
    failure_step is None when the whole horizon completed.
    """
    x0 = prob.check_x0(x0)
    states = [x0]
    inputs = []
    stats = []
    y_prev = None
    # a diverging loop overflows; the solve and simulate report non-finite values
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(steps):
            xk = states[-1]
            try:
                if y_prev is None:
                    guess = initial_guess(prob, xk)
                else:
                    guess = warm_shift(prob, y_prev, xk)
                t0 = perf_counter()
                trace: IterateTrace = solve_ocp(prob, xk, guess, opts)
                solve_s = perf_counter() - t0
            except SolverError as exc:
                return states, inputs, stats, k, str(exc)
            y = trace.iterates[-1].y  # reading trace.final would compute multipliers
            u0 = prob.inputs(y)[0].copy()
            inputs.append(u0)
            states.append(eval_dynamics(prob.model, xk, u0))
            qp_s = float(sum(e.qp_time for e in trace.iterates))
            stats.append(PerStepStats(
                iterations=trace.iterations,
                solve_time_s=solve_s,
                prep_time_s=solve_s - qp_s,
                qp_time_s=qp_s,
                converged=trace.converged,
            ))
            y_prev = y
    return states, inputs, stats, None, None


def simulate(scn: Scenario) -> ScenarioResult:
    """Run the configured controller and the converged-exact reference.

    Both closed loops start from the same initial state.  DR uses the
    scenario's Q and R; the RCSO series is the controller's relative
    excess over the reference and is truncated on failure.  A DR of
    either loop that is not finite, or an infinite RCSO, fails the run
    at its first such step, like a solve that raises.
    """
    prob = scn.problem
    states, inputs, stats, fail_step, fail_msg = run_control_loop(
        prob, scn.x0, scn.steps, scn.controller)
    ref_states, ref_inputs, ref_stats, ref_fail, ref_msg = run_control_loop(
        prob, scn.x0, scn.steps, REFERENCE_OPTIONS)

    q, r = scn.weights.Q, scn.weights.R
    dr = dr_series(states, inputs, q, r)
    dr_ref = dr_series(ref_states, ref_inputs, q, r)
    n = min(dr.size, dr_ref.size)
    rcso_vals = np.array([rcso(dr, dr_ref, k) for k in range(n)])

    failed = fail_step is not None or ref_fail is not None
    message = fail_msg if fail_msg is not None else ref_msg
    step = fail_step if fail_step is not None else ref_fail
    if not failed:
        # an RCSO is nan where the reference cost is zero, but never infinite
        bad = np.flatnonzero(~np.isfinite(dr) | ~np.isfinite(dr_ref) | np.isinf(rcso_vals))
        if bad.size:
            failed, step = True, int(bad[0])
            message = f"closed-loop cost DR or its RCSO is not finite at step {step}"
    return ScenarioResult(
        states=np.asarray(states),
        inputs=np.asarray(inputs).reshape(len(inputs), prob.n_u),
        dr=dr,
        rcso=rcso_vals,
        per_step=stats,
        reference_dr=dr_ref,
        reference_per_step=ref_stats,
        failed=failed,
        failure_step=step,
        failure_message=message,
    )


def _weight_matrix(value, what: str) -> Array:
    arr = np.asarray(value, dtype=float)
    if arr.ndim == 1:
        return np.diag(arr)
    if arr.ndim <= 2:  # Weights makes a scalar 1x1
        return arr
    raise ConfigError(f"{what} must be a scalar, vector (diagonal) or matrix")


def builtin_scenario(scenario, variant: Optional[str] = None, mode: Optional[str] = None,
                     stop_tol: Optional[float] = None, max_iter: Optional[int] = None) -> Scenario:
    """Build a scenario from a preset name or an inline scenario object.

    An inline object has the keys of ``PRESETS`` entries (``model``,
    ``x0``, ``steps``, ``horizon``, ``q``, ``r``, ``p``) and an optional
    ``name``; weights are a scalar, a diagonal vector or a matrix.  Mode
    defaults to the preset's (``converge`` for inline objects); options
    left None take the ``SolverOptions`` defaults.  Invalid input raises
    ConfigError.
    """
    if isinstance(scenario, str):
        if scenario not in PRESETS:
            raise ConfigError(f"unknown scenario {scenario!r}, expected one of {tuple(PRESETS)}")
        fields, default_mode = PRESETS[scenario]
        fields = dict(fields, name=scenario)
    elif isinstance(scenario, dict):
        fields, default_mode = dict(scenario), "converge"
    else:
        raise ConfigError("scenario must be a builtin name or an inline object")
    given = dict(variant=variant, mode=mode if mode is not None else default_mode,
                 stop_tol=stop_tol, max_iter=max_iter)
    try:
        controller = SolverOptions(**{k: v for k, v in given.items() if v is not None})
        model_id = fields.pop("model")
        x0 = np.asarray(fields.pop("x0"), dtype=float)
        steps = fields.pop("steps")
        horizon = fields.pop("horizon")
        weights = Weights(Q=_weight_matrix(fields.pop("q"), "q"),
                          R=_weight_matrix(fields.pop("r"), "r"),
                          P=_weight_matrix(fields.pop("p"), "p"))
        name = fields.pop("name", "custom")
        if fields:
            raise ConfigError(f"unknown inline scenario keys: {sorted(fields)}")
        return Scenario(name=name, model_id=model_id, x0=x0, steps=steps, horizon=horizon,
                        weights=weights, controller=controller)
    except KeyError as exc:
        raise ConfigError(f"inline scenario is missing field {exc.args[0]!r}") from exc
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid configuration: {exc}") from exc
