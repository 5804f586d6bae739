#!/usr/bin/env python3
"""Run the off-preset ADIP loops and compare them with their checked-in record.

The ADIP preset starts at theta_1 = pi/3.  From theta_1 = 1.5, 1.75 and
2.5 (the preset's weights, horizon and 200 steps otherwise) the standard
and exact controllers and the converged-exact reference cycle or stall at
some steps, and one-ulp changes of the arithmetic move them.  For each
start and each loop the record holds the per-step iteration counts and
verdicts, the unconverged steps, the repr of the final DR (and the final
RCSO of the two controllers against the reference) and a sha256 of the
states and inputs.  It also holds a step-0 sweep over 25 angles
theta_1 in [-3, 3], each variant solved from the zero-input rollout at
the reference's tolerance and cap (1e-10, 100 iterations), so that a miss
shows where the map stops contracting rather than where the preset's 30
iterations run out: each solve's iterations, verdict and a sha256 of its
last iterate.

Usage:
    PYTHONPATH=src python scripts/offpreset.py            # write the record
    PYTHONPATH=src python scripts/offpreset.py --check    # exit 1 if a run differs

The record is ``scripts/offpreset.json`` unless ``--record`` names
another file.  A change that claims bitwise equal numerics shows
``--check`` passing; a change that moves them writes the record anew.
"""

import argparse
import dataclasses
import hashlib
import json
import re
import sys
from pathlib import Path

import numpy as np

from qlmpc.closed_loop import (
    PRESETS,
    REFERENCE_OPTIONS,
    builtin_scenario,
    dr_series,
    rcso,
    run_control_loop,
)
from qlmpc.errors import SolverError
from qlmpc.solver import SolverOptions, initial_guess, solve_ocp

THETAS = (1.5, 1.75, 2.5)
SWEEP = np.linspace(-3.0, 3.0, 25)
# the controllers at the preset's options, and the RCSO's reference
LOOPS = {"standard": SolverOptions(variant="standard"), "exact": SolverOptions(variant="exact"),
         "reference": REFERENCE_OPTIONS}
SWEEP_LOOPS = {variant: dataclasses.replace(REFERENCE_OPTIONS, variant=variant)
               for variant in ("standard", "exact")}
RECORD = Path(__file__).resolve().with_name("offpreset.json")


def _scenario(theta: float):
    fields = dict(PRESETS["adip"][0], x0=[theta, 0.0, 0.0, 0.0], name=f"adip-theta-{theta}")
    return builtin_scenario(fields)


def _sha256(*arrays) -> str:
    digest = hashlib.sha256()
    for a in arrays:
        digest.update(np.ascontiguousarray(a, dtype="<f8").tobytes())
    return digest.hexdigest()


def _loop(scn, opts):
    states, inputs, stats, fail_step, fail_msg = run_control_loop(
        scn.problem, scn.x0, scn.steps, opts)
    states = np.asarray(states)
    inputs = np.asarray(inputs).reshape(len(inputs), scn.problem.n_u)
    dr = dr_series(states, inputs, scn.weights.Q, scn.weights.R)
    run = {
        "iterations_total": sum(s.iterations for s in stats),
        "iterations": [s.iterations for s in stats],
        "converged": [s.converged for s in stats],
        "unconverged_steps": [k for k, s in enumerate(stats) if not s.converged],
        "final_dr": repr(float(dr[-1])) if dr.size else None,
        "states_inputs_sha256": _sha256(states, inputs),
        "failure_step": fail_step,
        "failure_message": fail_msg,
    }
    return run, dr


def _theta_runs(theta: float) -> dict:
    scn = _scenario(theta)
    runs, drs = {}, {}
    for name, opts in LOOPS.items():
        runs[name], drs[name] = _loop(scn, opts)
    for name in ("standard", "exact"):
        n = min(drs[name].size, drs["reference"].size)
        runs[name]["final_rcso"] = repr(rcso(drs[name], drs["reference"], n - 1)) if n else None
    return runs


def _sweep() -> list:
    rows = []
    for theta in SWEEP:
        row = {"theta_1": repr(float(theta))}
        scn = _scenario(float(theta))
        prob = scn.problem
        for name, opts in SWEEP_LOOPS.items():
            try:
                tr = solve_ocp(prob, scn.x0, initial_guess(prob, scn.x0), opts)
                row[name] = {"iterations": tr.iterations, "converged": tr.converged,
                             "y_sha256": _sha256(tr.iterates[-1].y)}
            except SolverError as exc:
                row[name] = {"failure_message": str(exc)}
        rows.append(row)
    return rows


def run_all() -> dict:
    with np.errstate(over="ignore", invalid="ignore"):
        return {"loops": {f"theta_1={theta!r}": _theta_runs(theta) for theta in THETAS},
                "step0_sweep": _sweep()}


def _dumps(doc) -> str:
    """Indented JSON with every list of integers and booleans on one line."""
    scalar = r"(?:-?\d+|true|false|null)"
    return re.sub(rf"\[\s*{scalar}(?:,\s*{scalar})*\s*\]",
                  lambda m: re.sub(r"\s+", "", m.group(0)).replace(",", ", "),
                  json.dumps(doc, indent=2)) + "\n"


def _differences(old, new, path="") -> list:
    if isinstance(old, dict) and isinstance(new, dict):
        return [d for key in sorted(set(old) | set(new), key=str)
                for d in _differences(old.get(key), new.get(key), f"{path}/{key}")]
    if isinstance(old, list) and isinstance(new, list) and len(old) == len(new) \
            and any(isinstance(v, (dict, list)) for v in old + new):
        return [d for i, (a, b) in enumerate(zip(old, new)) for d in _differences(a, b, f"{path}/{i}")]
    return [] if old == new else [f"{path}: {old!r} -> {new!r}"]


def _table(doc) -> str:
    lines = [f"{'start':<16} {'loop':<10} {'iterations':>10} {'unconverged':>12} {'final RCSO':>22}"]
    for start, runs in doc["loops"].items():
        for name, run in runs.items():
            lines.append(f"{start:<16} {name:<10} {run['iterations_total']:>10} "
                         f"{len(run['unconverged_steps']):>12} {run.get('final_rcso') or '':>22}")
    for name in SWEEP_LOOPS:
        missed = [row["theta_1"] for row in doc["step0_sweep"] if not row[name].get("converged")]
        lines.append(f"step-0 sweep, {name}: not converged at theta_1 = {', '.join(missed) or 'none'}")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true",
                        help="compare a fresh run with the record instead of writing it")
    parser.add_argument("--record", default=str(RECORD), help="the record's JSON file")
    args = parser.parse_args(argv)

    text = _dumps(run_all())
    doc = json.loads(text)
    print(_table(doc))
    record = Path(args.record)
    if not args.check:
        record.write_text(text, encoding="utf-8", newline="\n")
        print(f"wrote {record}")
        return 0
    diffs = _differences(json.loads(record.read_text(encoding="utf-8")), doc)
    for line in diffs:
        print(line)
    print(f"{len(diffs)} differences from {record}" if diffs else f"matches {record}")
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main())
