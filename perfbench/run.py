#!/usr/bin/env python3
"""Closed-loop qLMPC benchmark.

Usage (from the repository root):
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each run drives one workload's closed loop in this process, with BLAS
pinned to one thread, repeating whole loops from the seed's initial
state until ``--seconds`` is used up (at least one loop with tracing
off, one untraced/traced pair with tracing on).

--trace 0  end-to-end metrics, timed from outside the program with
           tracing off: each step's fastest time over the loops, and
           ``setup_s`` as the fastest of fresh processes spawned between
           the loops.
--trace 1  per-layer metrics from traced loops, alternated with
           untraced loops that give the tracing overhead.

Stdout ends with an ``{"env": ...}`` line and then the JSON result.
The exit code is 1 when an output check fails.
"""

from __future__ import annotations

import benchenv

benchenv.pin_blas_threads()
benchenv.add_program_path()

import argparse  # noqa: E402
import dataclasses  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402

import qlmpc  # noqa: E402
import qlmpc.closed_loop as closed_loop  # noqa: E402
from tracing import QUALNAMES, Tracer, summarize, warn  # noqa: E402
from workloads import ANGLE_TOL, FINAL_DR_RTOL, WORKLOADS  # noqa: E402

HERE = Path(__file__).resolve().parent
SETUP_PROBES = 15         # timed fresh-process set-ups per run, after one warm-up
WARMUP_STEPS = 2          # closed-loop steps run once before timing
SPAN_DIR = benchenv.ROOT / ".perfbench_out"


@dataclasses.dataclass
class Loop:
    """One closed loop as the benchmark saw it."""

    wall_s: float
    step_ms: np.ndarray      # per-step latency
    iterations: list
    converged: list
    failed_solves: int
    final_dr: float
    final_state: np.ndarray
    spans: tuple = (0, 0)

    @property
    def attempted(self) -> int:
        return self.step_ms.size


class StepProbe:
    """Wraps the solver entry the closed loop looks up, marking step boundaries.

    Records when each step's solve starts and the iteration count and
    convergence flag of what it returns; nothing else is timed.
    """

    def __init__(self):
        self.marks = []
        self.outcomes = []

    def wrap(self, solve):
        def probed(*args, **kwargs):
            self.marks.append(perf_counter())
            trace = solve(*args, **kwargs)
            self.outcomes.append((trace.iterations, trace.converged))
            return trace
        return probed


def run_loop(wl, prob, x0, tracer=None) -> Loop:
    probe = StepProbe()
    solve = closed_loop.solve_ocp
    closed_loop.solve_ocp = probe.wrap(solve)
    try:
        lo = len(tracer) if tracer else 0
        t0 = perf_counter()
        states, inputs, _, fail_step, fail_msg = closed_loop.run_control_loop(
            prob, x0, wl.steps, wl.options)
        t1 = perf_counter()
        hi = len(tracer) if tracer else 0
    finally:
        closed_loop.solve_ocp = solve
    attempted = len(inputs) + (fail_step is not None)
    if len(probe.marks) != attempted:
        raise RuntimeError(f"step probe saw {len(probe.marks)} solves for {attempted} steps")
    if fail_msg is not None:
        warn(f"{wl.name}: step {fail_step} raised SolverError: {fail_msg}")
    bounds = np.array([t0] + probe.marks[1:] + [t1])
    return Loop(
        wall_s=t1 - t0,
        step_ms=1e3 * np.diff(bounds),
        iterations=[it for it, _ in probe.outcomes],
        converged=[ok for _, ok in probe.outcomes],
        failed_solves=int(fail_step is not None),
        final_dr=wl.closed_loop_cost(states, inputs),
        final_state=np.asarray(states[-1]),
        spans=(lo, hi),
    )


def ok_steps(wl, loop: Loop) -> int:
    """Steps that returned a solution and, in converge mode, converged."""
    if wl.real_time:
        return len(loop.converged)
    return sum(loop.converged)


def unconverged(wl, loop: Loop) -> list:
    """Iteration counts of the steps that ended unconverged in converge mode."""
    if wl.real_time:
        return []
    return [it for it, ok in zip(loop.iterations, loop.converged) if not ok]


def measure_setup(name: str) -> float:
    """Seconds from spawning a fresh process to its being ready for the first step."""
    t0 = perf_counter()
    with subprocess.Popen([sys.executable, str(HERE / "setup_probe.py"), name],
                          stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        t1 = perf_counter()
        proc.stdout.read()
        code = proc.wait()
    if line.strip() != "ready" or code != 0:
        raise RuntimeError(f"set-up probe failed with exit code {code}")
    return t1 - t0


class SetupProbes:
    """``count`` set-up timings, spread evenly over ``span_s`` seconds of loop time.

    ``between(elapsed_s)`` takes the probes that are due once ``elapsed_s``
    seconds of loops have run; ``finish`` takes the rest.  Probes never
    overlap a timed loop.
    """

    def __init__(self, name: str, count: int, span_s: float):
        self.name, self.count, self.span_s = name, count, span_s
        self.times = []
        measure_setup(name)    # warm-up: page cache and bytecode

    def between(self, elapsed_s: float) -> None:
        due = min(self.count, int(self.count * elapsed_s / self.span_s) + 1)
        while len(self.times) < due:
            self.times.append(measure_setup(self.name))

    def finish(self) -> list:
        self.between(self.span_s)
        return self.times


def run_until(deadline_s: float, body, between=None) -> list:
    """Call ``body`` once, then until the next call would end past the deadline.

    ``between(elapsed_s)``, if given, runs before each call with the
    seconds spent in ``body`` so far; its own time does not count.
    """
    results = []
    spent = 0.0
    while True:
        if between is not None:
            between(spent)
        t0 = perf_counter()
        results.append(body())
        last = perf_counter() - t0
        spent += last
        if spent + last > deadline_s:
            return results


def check_outputs(wl, seed, loops) -> list:
    """Names of the failed output checks."""
    failed = []
    for loop in loops:
        if not np.all(np.isfinite(loop.final_state)):
            failed.append("closed-loop state is not finite")
        if wl.real_time and any(it != 1 for it in loop.iterations):
            failed.append("real-time mode ran more than one iteration in a step")
        if loop.failed_solves:
            # Seed 0 completes every step at this commit.  At other seeds a
            # failure is counted in ok_step_frac and the cut-short loop's end
            # state says nothing.
            if seed == 0:
                failed.append(f"seed-0 loop raised SolverError at step {loop.attempted - 1}")
            continue
        if wl.angles and np.max(np.abs(loop.final_state[list(wl.angles)])) >= ANGLE_TOL:
            failed.append(f"final angles {loop.final_state[list(wl.angles)]} not within {ANGLE_TOL} rad")
        if seed == 0 and wl.final_dr_error(loop.final_dr) > FINAL_DR_RTOL:
            failed.append(f"seed-0 final_dr {loop.final_dr!r} differs from recorded "
                          f"{wl.seed0_final_dr!r}")
    return sorted(set(failed))


def step_latencies(loops) -> np.ndarray:
    """Each step's fastest time, in ms, over the run's loops.

    Every loop of a run does the same work from the same state, so its
    repeats of a step differ only by what the host did to them.
    """
    steps = min(loop.attempted for loop in loops)
    return np.min([loop.step_ms[:steps] for loop in loops], axis=0)


def latency_metrics(loops) -> dict:
    step_ms = step_latencies(loops)
    return {
        "steps_per_s": (float(1e3 * step_ms.size / step_ms.sum()), "1/s"),
        "step_ms_p50": (float(np.percentile(step_ms, 50)), "ms"),
        "step_ms_p95": (float(np.percentile(step_ms, 95)), "ms"),
    }


def end_to_end(wl, seed, seconds) -> tuple:
    probes = SetupProbes(wl.name, SETUP_PROBES, seconds)
    prob = wl.problem()
    x0 = wl.initial_state(seed)
    closed_loop.run_control_loop(prob, x0, WARMUP_STEPS, wl.options)
    loops = run_until(seconds, lambda: run_loop(wl, prob, x0), probes.between)

    attempted = sum(loop.attempted for loop in loops)
    metrics = {
        "setup_s": (min(probes.finish()), "s"),
        **latency_metrics(loops),
        "ok_step_frac": (sum(ok_steps(wl, loop) for loop in loops) / attempted, "fraction"),
        "final_dr": (statistics.median(loop.final_dr for loop in loops), "cost"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    return loops, check_outputs(wl, seed, loops), metrics


def layer_metrics(wl, loop: Loop, self_s: dict, calls: dict) -> dict:
    """Per-layer numbers of one traced loop, normalized per iteration or step."""
    iters = sum(loop.iterations)
    steps = loop.attempted
    ms = {q: 1e3 * self_s[q] for q in QUALNAMES}
    total_ms = sum(ms.values())

    def layer(name):
        return [q for q in QUALNAMES if q.startswith(name + ".")]

    def share(name):
        return sum(ms[q] for q in layer(name)) / total_ms

    wasted = unconverged(wl, loop)
    return {
        "condensing.condense.self_ms_per_iter": ms["condensing.condense"] / iters,
        "condensing.recover_multipliers.self_ms_per_iter":
            ms["condensing.recover_multipliers"] / iters,
        "condensing.recover_multipliers.calls_per_iter":
            calls["condensing.recover_multipliers"] / iters,
        "condensing.solve_condensed.self_ms_per_iter": ms["condensing.solve_condensed"] / iters,
        "condensing.expand.self_ms_per_iter": ms["condensing.expand"] / iters,
        "condensing.self_share": share("condensing"),
        "stacked.frozen_constraint_matrix.self_ms_per_iter":
            ms["stacked.frozen_constraint_matrix"] / iters,
        "stacked.linearized_constraint.self_ms_per_iter":
            ms["stacked.linearized_constraint"] / iters,
        "stacked.calls_per_iter": sum(calls[q] for q in layer("stacked")) / iters,
        "stacked.self_share": share("stacked"),
        "models.self_ms_per_iter": sum(ms[q] for q in layer("models")) / iters,
        "models.calls_per_iter": sum(calls[q] for q in layer("models")) / iters,
        "models.stage_jacobian.calls_per_iter": calls["models.stage_jacobian"] / iters,
        "models.self_share": share("models"),
        "solver.iterations_per_step": iters / steps,
        "solver.max_iter_steps": len(wasted),
        "solver.wasted_iter_frac": sum(wasted) / iters,
        "solver.solve_ocp.self_ms_per_iter": ms["solver.solve_ocp"] / iters,
        "solver.warm_shift.self_ms_per_step": ms["solver.warm_shift"] / steps,
        "closed_loop.run_control_loop.self_ms_per_step": ms["closed_loop.run_control_loop"] / steps,
    }


LAYER_UNITS = {
    "self_ms_per_iter": "ms/iter",
    "self_ms_per_step": "ms/step",
    "calls_per_iter": "calls/iter",
    "self_share": "fraction",
    "iterations_per_step": "iter/step",
    "max_iter_steps": "steps",
    "wasted_iter_frac": "fraction",
    "overhead_frac": "fraction",
}


def traced(wl, seed, seconds) -> tuple:
    prob = wl.problem()
    x0 = wl.initial_state(seed)
    tracer = Tracer()
    traced_prob = dataclasses.replace(prob, model=tracer.wrap_model(prob.model))
    closed_loop.run_control_loop(prob, x0, WARMUP_STEPS, wl.options)

    def pair():
        plain = run_loop(wl, prob, x0)
        # the tracer wraps closed_loop.solve_ocp before run_loop's probe does
        with tracer.installed():
            return plain, run_loop(wl, traced_prob, x0, tracer)

    pairs = run_until(seconds, pair)
    plain = [p for p, _ in pairs]
    traced_loops = [t for _, t in pairs]
    spans = tracer.spans()
    per_loop = [layer_metrics(wl, loop, *summarize(spans, *loop.spans))
                for loop in traced_loops]
    SPAN_DIR.mkdir(exist_ok=True)
    np.savez(SPAN_DIR / f"spans-{wl.name}.npz", names=np.array(QUALNAMES), **spans)

    _, calls = summarize(spans, 0, len(tracer))
    for q in QUALNAMES:
        if calls[q] == 0:
            warn(f"{wl.name}: {q} recorded 0 calls")

    failed = check_outputs(wl, seed, plain + traced_loops)
    reference = plain[0]
    for loop in plain[1:] + traced_loops:
        if loop.iterations != reference.iterations or loop.final_dr != reference.final_dr:
            failed.append("traced run does not reproduce the untraced iteration counts and final_dr")
            break

    metrics = {}
    for name in per_loop[0]:
        metrics[name] = (statistics.median(m[name] for m in per_loop),
                         LAYER_UNITS[name.rsplit(".", 1)[1]])
    overhead = (statistics.median(t.wall_s for t in traced_loops)
                / statistics.median(p.wall_s for p in plain) - 1.0)
    metrics["trace.overhead_frac"] = (overhead, LAYER_UNITS["overhead_frac"])
    return plain + traced_loops, failed, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    benchenv.check_program_origin(qlmpc)

    wl = WORKLOADS[args.workload]
    run = traced if args.trace else end_to_end
    loops, failed, metrics = run(wl, args.seed, args.seconds)
    for check in failed:
        print(f"perfbench: check failed: {check}", file=sys.stderr)

    print(json.dumps({"env": benchenv.env_block(), "loops": len(loops)}))
    print(json.dumps({
        "correct": not failed,
        "attempted": sum(loop.attempted for loop in loops),
        "failed": sum(loop.failed_solves for loop in loops),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
