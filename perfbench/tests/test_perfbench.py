"""Self-tests of the benchmark.

Run from the repository root: python3 -m pytest perfbench/tests
"""

import json
import shutil
import subprocess
import sys
from itertools import count

import numpy as np
import pytest

import benchenv
import qlmpc.closed_loop as closed_loop
import run
import qlmpc.condensing as condensing
import qlmpc.solver as solver
from qlmpc import builtin_scenario
from qlmpc.closed_loop import REFERENCE_OPTIONS
from tracing import QUALNAMES, Tracer, self_times, summarize
from workloads import X0_BOX, WORKLOADS

BENCHMARK = json.loads((benchenv.ROOT / "BENCHMARK.json").read_text())


def test_self_time_subtracts_union_of_children_clipped_to_parent():
    #        0: root [0, 10]
    # 1, 2, 3: children [1, 4], [3, 6] (overlap), [8, 12] (runs past root)
    #        4: grandchild [2, 3] under span 1
    start = [0.0, 1.0, 3.0, 8.0, 2.0]
    end = [10.0, 4.0, 6.0, 12.0, 3.0]
    parent = [-1, 0, 0, 0, 1]
    # root: 10 - |[1, 6] u [8, 10]| = 10 - 7
    np.testing.assert_allclose(self_times(start, end, parent), [3.0, 2.0, 3.0, 4.0, 1.0])


def test_tracer_records_nested_spans_and_reports_unwrapped_functions_as_zero():
    ticks = count()
    tracer = Tracer(clock=lambda: float(next(ticks)))
    leaf = tracer.wrap("models.rho", lambda: None)

    def build():
        leaf()
        leaf()

    mid = tracer.wrap("stacked.linearized_constraint", build)
    root = tracer.wrap("closed_loop.run_control_loop", mid)
    root()
    # clock reads: root 0, mid 1, leaf 2-3, leaf 4-5, mid 6, root 7
    spans = tracer.spans()
    assert spans["parent"].tolist() == [-1, 0, 1, 1]
    self_s, calls = summarize(spans, 0, len(tracer))
    assert set(self_s) == set(QUALNAMES)
    assert self_s["closed_loop.run_control_loop"] == 2.0
    assert self_s["stacked.linearized_constraint"] == 3.0
    assert self_s["models.rho"] == 2.0 and calls["models.rho"] == 2
    assert self_s["condensing.condense"] == 0.0 and calls["condensing.condense"] == 0


def test_installed_wraps_functions_where_they_are_looked_up_and_restores_them():
    condense, solve_ocp = condensing.condense, solver.solve_ocp
    with Tracer().installed():
        assert solver.condense.__wrapped__ is condense
        assert condensing.condense.__wrapped__ is condense
        assert closed_loop.solve_ocp.__wrapped__ is solve_ocp
    assert solver.condense is condense and closed_loop.solve_ocp is solve_ocp


@pytest.mark.parametrize("name, scenario, variant, reference", [
    ("adip-standard-converge", "adip", "standard", False),
    ("unicycle-exact-rti", "unicycle", "exact", False),
    ("adip-exact-reference", "adip", "exact", True),
])
def test_seed0_workloads_equal_the_program_scenarios(name, scenario, variant, reference):
    wl = WORKLOADS[name]
    scn = builtin_scenario(scenario, variant=variant)
    assert wl.model_id == scn.model_id
    np.testing.assert_array_equal(wl.initial_state(0), scn.x0)
    assert (wl.steps, wl.horizon) == (scn.steps, scn.horizon)
    for m in ("Q", "R", "P"):
        np.testing.assert_array_equal(getattr(wl.weights, m), getattr(scn.weights, m))
    assert wl.options == (REFERENCE_OPTIONS if reference else scn.controller)


def test_other_seeds_draw_x0_from_the_box_reproducibly():
    wl = WORKLOADS["adip-standard-converge"]
    a, b = wl.initial_state(7), wl.initial_state(7)
    np.testing.assert_array_equal(a, b)
    assert np.max(np.abs(a - wl.initial_state(0))) <= X0_BOX
    assert not np.array_equal(a, wl.initial_state(8))


def _run(trace, cwd=benchenv.ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "unicycle-exact-rti",
         "--seed", "3", "--seconds", "0.5", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace, declared", [(0, "end_to_end"), (1, "per_layer")])
def test_printed_metrics_equal_those_declared(trace, declared):
    out = _run(trace)
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    printed = {k: v["unit"] for k, v in result["metrics"].items()}
    assert printed == {m["name"]: m["unit"] for m in BENCHMARK[declared]}


def test_fails_without_the_program_source(tmp_path):
    shutil.copytree(benchenv.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(benchenv.ROOT / "BENCHMARK.json", tmp_path)
    out = _run(0, cwd=tmp_path)
    assert out.returncode != 0
    assert "correct" not in out.stdout



def _loop(step_ms, failed_solves=0, final_state=(0.0, 0.0, 0.0, 0.0)):
    solved = len(step_ms) - failed_solves
    return run.Loop(wall_s=1e-3 * sum(step_ms), step_ms=np.array(step_ms, dtype=float),
                    iterations=[2] * solved, converged=[True] * solved,
                    failed_solves=failed_solves, final_dr=1.0,
                    final_state=np.array(final_state))


def test_step_latency_is_each_steps_fastest_repeat():
    loops = [_loop([1.0, 5.0, 2.0]), _loop([2.0, 3.0, 4.0])]
    np.testing.assert_array_equal(run.step_latencies(loops), [1.0, 3.0, 2.0])


def test_seed0_loop_that_raised_fails_the_check_while_other_seeds_count_it():
    wl = WORKLOADS["adip-standard-converge"]
    # 151 steps attempted, the last one raised SolverError
    cut_short = _loop([1.0] * 151, failed_solves=1, final_state=(1.0, 1.0, 0.0, 0.0))
    assert run.check_outputs(wl, 0, [cut_short]) == ["seed-0 loop raised SolverError at step 150"]
    assert run.check_outputs(wl, 3, [cut_short]) == []
