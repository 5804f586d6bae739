"""Command-line entry point: run scenarios and diagnostics from configs.

Subcommands ``simulate`` and ``diagnose`` read an optional JSON config,
apply flag overrides, and write CSV/JSON outputs suitable for plotting
and tabulation downstream.  Exit codes: 0 success, 2 usage or config
error, 3 numerical failure (``simulate`` still writes its partial outputs,
flagged; ``diagnose`` writes none).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import statistics
import sys
from pathlib import Path
from typing import Optional

import numpy as np

from .closed_loop import (
    Scenario,
    ScenarioResult,
    builtin_scenario,
    run_control_loop,
    simulate,
)
from .diagnostics import (
    certificate_trace,
    contraction_fit,
    sqp_equivalence_max_deviation,
    verify_fixpoint_perturbation,
)
from .errors import ConfigError, SolverError
from .solver import IterateTrace, _is_int, _step, initial_guess

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3

_MODE_ALIASES = {"rti": "real_time_single_iteration"}


@dataclasses.dataclass
class RunConfig:
    """Merged configuration for one CLI invocation."""

    scenario: object = "unicycle"   # builtin name or inline scenario dict
    variant: Optional[str] = None   # None -> standard
    mode: Optional[str] = None      # None -> scenario default
    tol: Optional[float] = None
    max_iter: Optional[int] = None
    repeat: int = 50
    seed: int = 0
    out: str = "results"

    def __post_init__(self):
        self.mode = _MODE_ALIASES.get(self.mode, self.mode)
        if not _is_int(self.repeat) or self.repeat < 1:
            raise ConfigError(f"repeat must be an integer >= 1, got {self.repeat!r}")
        if not _is_int(self.seed) or self.seed < 0:
            raise ConfigError(f"seed must be an integer >= 0, got {self.seed!r}")
        if not isinstance(self.out, str):
            raise ConfigError(f"out must be a path string, got {self.out!r}")


def _load_config_file(path: str) -> dict:
    p = Path(path)
    if not p.is_file():
        raise ConfigError(f"config file not found: {path}")
    try:
        data = json.loads(p.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"config file {path} must contain a JSON object")
    return data


def resolve_config(args: argparse.Namespace) -> RunConfig:
    """defaults < config file < command-line flags < QLMPC_SEED env var."""
    merged: dict = {}
    if args.config:
        file_cfg = _load_config_file(args.config)
        known = {f.name for f in dataclasses.fields(RunConfig)}
        unknown = set(file_cfg) - known
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        merged.update(file_cfg)
    for key in ("scenario", "variant", "mode", "tol", "max_iter", "repeat", "out"):
        val = getattr(args, key, None)
        if val is not None:
            merged[key] = val

    env_seed = os.environ.get("QLMPC_SEED")
    if env_seed is not None:
        try:
            merged["seed"] = int(env_seed)
        except ValueError as exc:
            raise ConfigError(f"QLMPC_SEED must be an integer, got {env_seed!r}") from exc

    try:
        return RunConfig(**merged)
    except TypeError as exc:
        raise ConfigError(str(exc)) from exc


def make_scenario(cfg: RunConfig) -> Scenario:
    return builtin_scenario(cfg.scenario, variant=cfg.variant or "standard", mode=cfg.mode,
                            stop_tol=cfg.tol, max_iter=cfg.max_iter)


# ---------------------------------------------------------------------------
# output helpers

def _out_dir(cfg: RunConfig) -> Path:
    """The output directory, created; one that cannot be created is a config error."""
    out_dir = Path(cfg.out)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {cfg.out!r}: {exc}") from exc
    return out_dir


def _fmt(v: float) -> str:
    """Shortest decimal string that round-trips to the same double."""
    return repr(float(v))


def _json_safe(v):
    if isinstance(v, (bool, np.bool_)):
        return bool(v)
    if isinstance(v, (np.floating, float)):
        f = float(v)
        return f if math.isfinite(f) else None
    if isinstance(v, (np.integer, int)):
        return int(v)
    if isinstance(v, np.ndarray):
        return [_json_safe(x) for x in v.tolist()]
    if isinstance(v, dict):
        return {k: _json_safe(x) for k, x in v.items()}
    if isinstance(v, (list, tuple)):
        return [_json_safe(x) for x in v]
    return v


def write_trajectory_csv(path: Path, res: ScenarioResult, solve_means, prep_means) -> None:
    n_x = res.states.shape[1]
    n_u = res.inputs.shape[1]
    header = (["step"]
              + [f"x_{i + 1}" for i in range(n_x)]
              + [f"u_{i + 1}" for i in range(n_u)]
              + ["dr", "rcso", "iterations", "solve_time_s", "prep_time_s"])
    lines = [",".join(header)]
    for k in range(res.inputs.shape[0]):
        rc = res.rcso[k] if k < res.rcso.size else math.nan
        row = ([str(k)]
               + [_fmt(v) for v in res.states[k]]
               + [_fmt(v) for v in res.inputs[k]]
               + [_fmt(res.dr[k]), "" if math.isnan(rc) else _fmt(rc)]
               + [str(res.per_step[k].iterations), _fmt(solve_means[k]), _fmt(prep_means[k])])
        lines.append(",".join(row))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")


def _time_stats(values) -> dict:
    vals = [float(v) for v in values]
    if not vals:
        return {"median": None, "min": None, "max": None}
    return {"median": statistics.median(vals), "min": min(vals), "max": max(vals)}


def run_simulate(cfg: RunConfig) -> int:
    scn = make_scenario(cfg)
    ignored = [key for key in ("tol", "max_iter") if getattr(cfg, key) is not None]
    if ignored and scn.controller.mode == "real_time_single_iteration":
        raise ConfigError(f"{' and '.join(ignored)} apply to converge mode only; "
                          f"scenario {scn.name!r} runs in real-time mode")
    out_dir = _out_dir(cfg)

    res = simulate(scn)

    # timing repeats rerun only the configured controller loop
    runs = [res.per_step]
    if not res.failed:
        for _ in range(cfg.repeat - 1):
            _, _, stats, fail, _ = run_control_loop(scn.problem, scn.x0, scn.steps, scn.controller)
            if fail is not None:
                break
            runs.append(stats)
    times = [[[s.solve_time_s, s.prep_time_s, s.qp_time_s] for s in run] for run in runs]
    solve_means, prep_means, qp_means = np.mean(np.reshape(times, (len(runs), -1, 3)), axis=0).T

    stem = f"{scn.name}_{scn.controller.variant}"
    write_trajectory_csv(out_dir / f"{stem}_trajectory.csv", res, solve_means, prep_means)

    final_rcso = float(res.rcso[-1]) if res.rcso.size else math.nan
    summary = {
        "scenario": scn.name,
        "model": scn.model_id,
        "variant": scn.controller.variant,
        "mode": scn.controller.mode,
        "steps_requested": scn.steps,
        "steps_completed": int(res.inputs.shape[0]),
        "repeat": cfg.repeat,
        "terminal_state": res.states[-1],
        "final_dr": float(res.dr[-1]) if res.dr.size else None,
        "final_rcso": final_rcso,
        "iterations_total": int(sum(s.iterations for s in res.per_step)),
        # real-time mode never iterates to tolerance by design
        "unconverged_steps": (None if scn.controller.mode == "real_time_single_iteration"
                              else sum(not s.converged for s in res.per_step)),
        "reference_unconverged_steps": sum(not s.converged for s in res.reference_per_step),
        "solve_time_s": _time_stats(solve_means),
        "prep_time_s": _time_stats(prep_means),
        "qp_time_s": _time_stats(qp_means),
        "failed": res.failed,
        "failure_step": res.failure_step,
        "failure_message": res.failure_message,
        "note": res.note,
    }
    (out_dir / f"{stem}_summary.json").write_text(
        json.dumps(_json_safe(summary), indent=2) + "\n", encoding="utf-8", newline="\n")
    return EXIT_NUMERICAL if res.failed else EXIT_OK


def _solve_prefix(trace: IterateTrace, tol: float, cap: int) -> IterateTrace:
    """The ``certificate_trace`` of tolerance tol and cap iterations, read off the
    longer, tighter ``trace``: iterates do not depend on the tolerance."""
    for i, entry in enumerate(trace.iterates[:cap + 1]):
        if entry.fonc_inf <= tol:
            return IterateTrace(trace.iterates[:i + 1], converged=True)
    return IterateTrace(trace.iterates[:cap + 1], converged=False)


def run_diagnose(cfg: RunConfig) -> int:
    ignored = [key for key in ("variant", "mode", "max_iter") if getattr(cfg, key) is not None]
    if ignored:
        raise ConfigError(f"diagnose does not read {', '.join(ignored)}: it runs its own "
                          f"standard-variant residual-stopped solve")
    scn = make_scenario(cfg)
    prob = scn.problem
    out_dir = _out_dir(cfg)
    # one residual-stopped solve serves every check: each reads the prefix
    # its own (tol, max_iter) solve would return
    fit_tol = cfg.tol if cfg.tol is not None else 1e-6
    trace = certificate_trace(prob, scn.x0, initial_guess(prob, scn.x0),
                              min(fit_tol, 1e-12), 400)

    # multiplier-recovery accuracy bounds the reachable residual; fall
    # back one decade at a time if 1e-10 sits below that floor
    tight_tol = next((tol for tol in (1e-10, 1e-9, 1e-8)
                      if _solve_prefix(trace, tol, 300).converged), None)
    if tight_tol is None:
        raise SolverError("standard variant did not converge to tol 1e-8 at the first timestep")
    report = verify_fixpoint_perturbation(prob, _solve_prefix(trace, tight_tol, 300), scn.x0)

    # pad a one-step solve (LTI degeneration) with iterates at the fixpoint
    fit_trace = _solve_prefix(trace, fit_tol, 100)
    while len(fit_trace.iterates) < 3:
        fit_trace.iterates.append(_step(fit_trace.iterates[-1]))
    ref_trace = _solve_prefix(trace, 1e-12, 400)
    estimate = contraction_fit(fit_trace, ref_trace.final)

    sqp_dev = sqp_equivalence_max_deviation(prob, scn.x0, seed=cfg.seed)

    payload = {
        "scenario": scn.name,
        "model": scn.model_id,
        "seed": cfg.seed,
        "fixpoint_tol": tight_tol,
        "e_norm_inf": float(np.max(np.abs(report.e), initial=0.0)),
        "identity_error_inf": report.identity_error_inf,
        "feasibility_residual_inf": report.feasibility_residual_inf,
        "kappa_hat": estimate.kappa_hat,
        "omega_hat": estimate.omega_hat,
        "radius_bound": estimate.radius_bound,
        "fit_residual_inf": estimate.fit_residual_inf,
        "contraction_errors": estimate.errors,
        "contraction_reference_converged": ref_trace.converged,
        "sqp_equivalence_max_dev": sqp_dev,
        "note": prob.model.note,
    }
    (out_dir / f"{scn.name}_diagnostics.json").write_text(
        json.dumps(_json_safe(payload), indent=2) + "\n", encoding="utf-8", newline="\n")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qlmpc",
        description="Iterative quasi-LPV MPC solver: benchmark scenarios and diagnostics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (("simulate", "run a closed-loop scenario and write CSV/JSON results"),
                            ("diagnose", "run first-timestep diagnostics and write a JSON report")):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="JSON config file; flags override its values")
        p.add_argument("--scenario", help="builtin scenario name")
        p.add_argument("--variant", choices=["standard", "exact"])
        p.add_argument("--mode", choices=["converge", "rti"])
        p.add_argument("--tol", type=float,
                       help="stopping tolerance, converge mode only (diagnose: fit tolerance)")
        p.add_argument("--max-iter", dest="max_iter", type=int,
                       help="iteration cap, converge mode only")
        p.add_argument("--repeat", type=int, help="timing repetitions (simulate only)")
        p.add_argument("--out", help="output directory")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        cfg = resolve_config(args)
        if args.command == "simulate":
            return run_simulate(cfg)
        return run_diagnose(cfg)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (SolverError, np.linalg.LinAlgError) as exc:
        # LinAlgError subclasses ValueError, but it is a numerical failure
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
