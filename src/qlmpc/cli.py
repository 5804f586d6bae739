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
import platform
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
from .diagnostics import first_timestep_report
from .errors import ConfigError, SolverError
from .models import _is_int
from .solver import MODES
from .stacked import VARIANTS

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
        if isinstance(self.mode, str):
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
    except (OSError, ValueError) as exc:  # unreadable, not UTF-8 or not JSON
        raise ConfigError(f"cannot read config file {path} as UTF-8 JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"config file {path} must contain a JSON object")
    return data


def resolve_config(args: argparse.Namespace) -> RunConfig:
    """defaults < config file < command-line flags < QLMPC_SEED env var."""
    merged: dict = {}
    known = [f.name for f in dataclasses.fields(RunConfig)]
    if args.config:
        file_cfg = _load_config_file(args.config)
        unknown = set(file_cfg).difference(known)
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        merged.update(file_cfg)
    for key in known:  # seed has no flag
        val = getattr(args, key, None)
        if val is not None:
            merged[key] = val

    env_seed = os.environ.get("QLMPC_SEED")
    if env_seed is not None:
        try:
            merged["seed"] = int(env_seed)
        except ValueError as exc:
            raise ConfigError(f"QLMPC_SEED must be an integer, got {env_seed!r}") from exc

    return RunConfig(**merged)


def make_scenario(cfg: RunConfig) -> Scenario:
    return builtin_scenario(cfg.scenario, variant=cfg.variant, mode=cfg.mode,
                            stop_tol=cfg.tol, max_iter=cfg.max_iter)


# ---------------------------------------------------------------------------
# output helpers

def _out_paths(cfg: RunConfig, *names: str) -> list:
    """The paths of the named output files, in the output directory, created.

    A directory that cannot be created, or a name longer than its file
    system allows, is a config error, raised before any solve runs.
    """
    out_dir = Path(cfg.out)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except (OSError, ValueError) as exc:  # ValueError: a NUL byte in the path
        raise ConfigError(f"cannot create output directory {cfg.out!r}: {exc}") from exc
    try:
        limit = os.pathconf(out_dir, "PC_NAME_MAX")
    except (AttributeError, OSError, ValueError):
        limit = -1  # no limit reported
    for name in names:
        if 0 <= limit < len(os.fsencode(name)):
            raise ConfigError(f"output file name {name!r} is longer than the {limit} bytes "
                              f"the output directory {cfg.out!r} allows")
    return [out_dir / name for name in names]


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


def _env() -> dict:
    """The machine and libraries an output is written on: numpy's BLAS runs
    the stage algebra, scipy's LAPACK the factorizations.  scipy's record is
    read only here, so ``import qlmpc`` does not load it."""
    import scipy.__config__

    def blas(config):
        dep = getattr(config, "CONFIG", {}).get("Build Dependencies", {}).get("blas") or {}
        return f"{dep.get('name')} {dep.get('version')}"

    threads = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__,
            "blas": {"numpy": blas(np.__config__), "scipy": blas(scipy.__config__)},
            "blas_threads": {var: os.environ.get(var) for var in threads},
            "cpu_count": os.cpu_count()}


def _write_json(path: Path, scn: Scenario, doc: dict) -> None:
    """Write ``doc`` with the model's note and the environment appended."""
    doc = {**doc, "note": scn.problem.model.note, "env": _env()}
    path.write_text(json.dumps(_json_safe(doc), indent=2) + "\n", encoding="utf-8", newline="\n")


def write_trajectory_csv(path: Path, res: ScenarioResult, solve_s, prep_s) -> None:
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
               + [str(res.per_step[k].iterations), _fmt(solve_s[k]), _fmt(prep_s[k])])
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
    stem = f"{scn.name}_{scn.controller.variant}"
    csv_path, summary_path = _out_paths(cfg, f"{stem}_trajectory.csv", f"{stem}_summary.json")

    res = simulate(scn)

    # timing repeats rerun only the configured controller loop
    runs = [res.per_step]
    if not res.failed:
        for _ in range(cfg.repeat - 1):
            _, _, stats, fail, _ = run_control_loop(scn.problem, scn.x0, scn.steps, scn.controller)
            if fail is not None:
                break
            runs.append(stats)
    # each step's times are those of its fastest repeat, so the first
    # loop's cold start does not reach them; preparation is the rest of
    # the solve after the QPs
    times = np.reshape([[[s.solve_time_s, s.qp_time_s] for s in run] for run in runs],
                       (len(runs), -1, 2))
    fastest = np.argmin(times[:, :, 0], axis=0)
    solve_s, qp_s = times[fastest, np.arange(times.shape[1])].T
    prep_s = solve_s - qp_s

    write_trajectory_csv(csv_path, res, solve_s, prep_s)

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
        "solve_time_s": _time_stats(solve_s),
        "prep_time_s": _time_stats(prep_s),
        "qp_time_s": _time_stats(qp_s),
        "failed": res.failed,
        "failure_step": res.failure_step,
        "failure_message": res.failure_message,
    }
    _write_json(summary_path, scn, summary)
    return EXIT_NUMERICAL if res.failed else EXIT_OK


def run_diagnose(cfg: RunConfig) -> int:
    ignored = [key for key in ("variant", "mode", "max_iter") if getattr(cfg, key) is not None]
    if ignored:
        raise ConfigError(f"diagnose does not read {', '.join(ignored)}: it runs its own "
                          f"standard-variant residual-stopped solve")
    scn = make_scenario(cfg)
    [report_path] = _out_paths(cfg, f"{scn.name}_diagnostics.json")
    numbers = first_timestep_report(scn.problem, scn.x0,
                                    fit_tol=1e-6 if cfg.tol is None else cfg.tol, seed=cfg.seed)
    # every number of a report is finite, but the radius bound, which is
    # infinite (written as null) when the fit finds no quadratic term
    bad = [key for key, value in numbers.items()
           if not (key == "radius_bound" and numbers["omega_hat"] == 0.0)
           and not np.all(np.isfinite(value))]
    if bad:
        raise SolverError(f"diagnostics are not finite: {', '.join(bad)}")
    _write_json(report_path, scn, {"scenario": scn.name, "model": scn.model_id,
                                    "seed": cfg.seed, **numbers})
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
        p.add_argument("--variant", choices=VARIANTS)
        p.add_argument("--mode", choices=[*MODES, *_MODE_ALIASES])
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
