import argparse
import csv
import dataclasses
import importlib.util
import json
import math
import os
import platform
import subprocess
import sys
import tempfile
import warnings
from datetime import timedelta
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
import scipy
from hypothesis import example, given, settings, strategies as st

import qlmpc as q
import qlmpc.cli as cli
import qlmpc.diagnostics as diagnostics
import qlmpc.models as models
import qlmpc.solver as solver
import qlmpc.stacked as stacked
from qlmpc.cli import build_parser, main, make_scenario, resolve_config
from qlmpc.closed_loop import PRESETS, PerStepStats, Scenario
from qlmpc.models import MODEL_IDS

import oracles

TINY_INLINE = {
    "scenario": {
        "model": "tiny-qlpv",
        "x0": [0.4],
        "steps": 5,
        "horizon": 2,
        "q": 1.0,
        "r": 1.0,
        "p": 1.0,
        "name": "toy",
    },
    "repeat": 2,
}


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


class TestExitCodes:
    def test_missing_config_file(self, tmp_path):
        assert main(["simulate", "--config", str(tmp_path / "nope.json")]) == 2

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json", encoding="utf-8")
        assert main(["simulate", "--config", str(path)]) == 2

    def test_unknown_scenario(self, tmp_path):
        assert main(["simulate", "--scenario", "rocket", "--out", str(tmp_path)]) == 2

    def test_unknown_config_key(self, tmp_path):
        cfg = write_config(tmp_path, {"scenario": "tiny-lti", "color": "red"})
        assert main(["simulate", "--config", cfg]) == 2

    def test_invalid_weights(self, tmp_path):
        payload = json.loads(json.dumps(TINY_INLINE))
        payload["scenario"]["r"] = 0.0
        cfg = write_config(tmp_path, payload)
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == 2

    def test_bad_flag_value(self):
        assert main(["simulate", "--variant", "quick"]) == 2

    def test_numerical_failure_is_exit_3(self, tmp_path, outputs):
        payload = json.loads(json.dumps(TINY_INLINE))
        payload["scenario"]["x0"] = [1e200]
        cfg = write_config(tmp_path, payload)
        out = tmp_path / "res"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 3
        summary = json.loads((out / "toy_standard_summary.json").read_text())
        assert summary["failed"] is True
        assert summary["failure_step"] == 0
        # the flagged partial CSV keeps a completed run's columns, with no rows
        partial = (out / "toy_standard_trajectory.csv").read_text().splitlines()
        assert partial == outputs[0].read_text().splitlines()[:1]

    def test_cost_overflow_is_exit_3(self, tmp_path):
        # every solve succeeds, but x'Qx of the first state overflows a double
        payload = {"scenario": dict(PRESETS["tiny-lti"][0], x0=[8.52e155], name="big"),
                   "variant": "exact", "repeat": 1}
        out = tmp_path / "res"
        assert main(["simulate", "--config", write_config(tmp_path, payload),
                     "--out", str(out)]) == 3
        summary = json.loads((out / "big_exact_summary.json").read_text())
        assert summary["steps_completed"] == 5 and summary["final_dr"] is None
        assert summary["failed"] is True and summary["failure_step"] == 0
        assert "not finite" in summary["failure_message"]

    def test_bad_env_seed(self, tmp_path, monkeypatch):
        monkeypatch.setenv("QLMPC_SEED", "many")
        cfg = write_config(tmp_path, TINY_INLINE)
        assert main(["diagnose", "--config", cfg, "--out", str(tmp_path / "o")]) == 2

    @pytest.mark.parametrize("source", ["env", "config"])
    def test_negative_seed_writes_nothing(self, tmp_path, monkeypatch, capsys, source):
        payload = dict(TINY_INLINE)
        if source == "env":
            monkeypatch.setenv("QLMPC_SEED", "-1")
        else:
            payload["seed"] = -3
        out = tmp_path / "res"
        assert main(["diagnose", "--config", write_config(tmp_path, payload),
                     "--out", str(out)]) == 2
        assert "seed must be an integer >= 0" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["simulate", "diagnose"])
    def test_uncreatable_out_is_a_config_error(self, tmp_path, capsys, command):
        taken = tmp_path / "taken"
        taken.write_text("", encoding="utf-8")
        cfg = write_config(tmp_path, TINY_INLINE)
        assert main([command, "--config", cfg, "--out", str(taken)]) == 2
        assert "cannot create output directory" in capsys.readouterr().err
        assert taken.read_text(encoding="utf-8") == ""

    @pytest.mark.parametrize("key", ["max_iter", "tol", "seed"])
    def test_wrong_type_in_config(self, tmp_path, key):
        cfg = write_config(tmp_path, dict(TINY_INLINE, **{key: "abc"}))
        assert main(["diagnose", "--config", cfg, "--out", str(tmp_path / "o")]) == 2

    def test_wrong_type_max_iter_in_simulate_config(self, tmp_path, capsys):
        # diagnose rejects max_iter by name, so its type is checked here
        cfg = write_config(tmp_path, dict(TINY_INLINE, max_iter="abc"))
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert "invalid configuration" in capsys.readouterr().err

    @pytest.mark.parametrize("key,value", [
        ("repeat", 2.5),
        ("out", 5),
        ("steps", 2.7),
        ("horizon", "3"),
        ("max_iter", 2.5),
        ("x0", [math.inf]),
        # bool subclasses int, and an infinite tolerance stops every solve at once
        ("repeat", True),
        ("steps", True),
        ("horizon", True),
        ("max_iter", True),
        ("seed", True),
        ("tol", True),
        ("tol", math.inf),
        ("q", [[[1.0]]]),
        # a falsy variant is no default, and a mode is looked up as a name only
        ("variant", ""),
        ("variant", False),
        ("variant", []),
        ("mode", []),
    ], ids=["repeat", "out", "steps", "horizon", "max_iter", "x0", "repeat-true", "steps-true",
            "horizon-true", "max_iter-true", "seed-true", "tol-true", "tol-inf", "q-3d",
            "variant-empty", "variant-false", "variant-list", "mode-list"])
    def test_wrong_value_type_writes_nothing(self, tmp_path, monkeypatch, capsys, key, value):
        monkeypatch.chdir(tmp_path)
        payload = json.loads(json.dumps(TINY_INLINE))
        target = payload["scenario"] if key in payload["scenario"] else payload
        target[key] = value
        cfg = write_config(tmp_path, payload)
        assert main(["simulate", "--config", cfg]) == 2
        # Weights checks the weights and names them Q, R and P
        assert f"{key.upper() if key == 'q' else key} must be" in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["config.json"]

    @pytest.mark.parametrize("value", [math.inf, math.nan], ids=["Infinity", "NaN"])
    @pytest.mark.parametrize("key", ["q", "r", "p"])
    def test_non_finite_weights_write_nothing(self, tmp_path, capsys, key, value):
        payload = json.loads(json.dumps(TINY_INLINE))
        payload["scenario"][key] = value
        out = tmp_path / "res"
        assert main(["simulate", "--config", write_config(tmp_path, payload), "--out", str(out)]) == 2
        assert f"{key.upper()} must be finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("name", ["../escaped", "sub/toy"])
    @pytest.mark.parametrize("command", ["simulate", "diagnose"])
    def test_name_that_is_not_a_file_stem_writes_nothing(self, tmp_path, capsys, command, name):
        # the name is the stem of every output file, so it must not reach another directory
        payload = json.loads(json.dumps(TINY_INLINE))
        payload["scenario"]["name"] = name
        cfg = write_config(tmp_path, payload)
        assert main([command, "--config", cfg, "--out", str(tmp_path / "res")]) == 2
        assert "name must be one plain path component" in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["config.json"]

    @pytest.mark.parametrize("command", ["simulate", "diagnose"])
    def test_name_too_long_for_the_file_system_fails_before_any_solve(
            self, tmp_path, monkeypatch, capsys, command):
        def no_solve(*args, **kwargs):
            raise AssertionError("solved before the output names were checked")

        monkeypatch.setattr(cli, "simulate", no_solve)
        monkeypatch.setattr(diagnostics, "_prefix", no_solve)
        payload = json.loads(json.dumps(TINY_INLINE))
        payload["scenario"]["name"] = "x" * 300
        out = tmp_path / "res"
        assert main([command, "--config", write_config(tmp_path, payload), "--out", str(out)]) == 2
        assert "is longer than the" in capsys.readouterr().err
        assert list(out.iterdir()) == []

    def test_config_that_is_not_utf8_writes_nothing(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "config.json").write_bytes(b'{"scenario": "tiny-lti", "out": "r\xe9s"}')
        assert main(["simulate", "--config", "config.json"]) == 2
        assert capsys.readouterr().err.startswith("error: cannot read config file")
        assert [p.name for p in tmp_path.iterdir()] == ["config.json"]

    def test_config_whose_read_fails_writes_nothing(self, tmp_path, monkeypatch, capsys):
        # the read itself fails: a mode-000 file stays readable to root
        def refuse(self, *args, **kwargs):
            raise PermissionError(13, "Permission denied", str(self))

        monkeypatch.chdir(tmp_path)
        cfg = write_config(tmp_path, TINY_INLINE)
        monkeypatch.setattr(Path, "read_text", refuse)
        assert main(["simulate", "--config", cfg]) == 2
        assert capsys.readouterr().err.startswith("error: cannot read config file")
        assert [p.name for p in tmp_path.iterdir()] == ["config.json"]

    @pytest.mark.parametrize("command", ["simulate", "diagnose"])
    def test_out_with_a_nul_byte_writes_nothing(self, tmp_path, monkeypatch, capsys, command):
        # argv cannot carry a NUL byte, but a JSON string can
        monkeypatch.chdir(tmp_path)
        cfg = write_config(tmp_path, dict(TINY_INLINE, out="res\0x"))
        assert main([command, "--config", cfg]) == 2
        assert capsys.readouterr().err.startswith("error: cannot create output directory")
        assert [p.name for p in tmp_path.iterdir()] == ["config.json"]

    @pytest.mark.parametrize("command", ["simulate", "diagnose"])
    def test_scenario_problem_is_built_once(self, tmp_path, monkeypatch, command):
        calls = {"get_model": 0, "problem": 0}
        get_model, post_init = q.closed_loop.get_model, stacked.StackedProblem.__post_init__

        def counted_get_model(model_id):
            calls["get_model"] += 1
            return get_model(model_id)

        def counted_post_init(prob):
            calls["problem"] += 1
            post_init(prob)

        monkeypatch.setattr(q.closed_loop, "get_model", counted_get_model)
        monkeypatch.setattr(stacked.StackedProblem, "__post_init__", counted_post_init)
        assert main([command, "--scenario", "tiny-qlpv", "--out", str(tmp_path)]
                    + (["--repeat", "2"] if command == "simulate" else [])) == 0
        assert calls == {"get_model": 1, "problem": 1}

    @pytest.mark.parametrize("command", ["simulate", "diagnose"])
    def test_x0_dimension_error_writes_nothing(self, tmp_path, capsys, command):
        payload = {"scenario": dict(PRESETS["unicycle"][0], x0=[1.0])}
        out = tmp_path / "res"
        assert main([command, "--config", write_config(tmp_path, payload), "--out", str(out)]) == 2
        assert "initial state must have length 5" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("payload,message", [
        ([1, 2], "must contain a JSON object"),
        ({"scenario": dict(TINY_INLINE["scenario"], color="red")},
         "unknown inline scenario keys: ['color']"),
        ({"scenario": {k: v for k, v in TINY_INLINE["scenario"].items() if k != "p"}},
         "inline scenario is missing field 'p'"),
        ({"scenario": 5}, "scenario must be a builtin name or an inline object"),
        ({"scenario": dict(PRESETS["unicycle"][0], p=[1.0, 1.0, 1.0])}, "P must be 5x5"),
    ], ids=["file-holds-list", "unknown-inline-key", "missing-p", "scenario-number",
            "unicycle-p-of-3"])
    @pytest.mark.parametrize("command", ["simulate", "diagnose"])
    def test_config_error_writes_nothing(self, tmp_path, capsys, command, payload, message):
        out = tmp_path / "res"
        assert main([command, "--config", write_config(tmp_path, payload), "--out", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_max_iter_zero(self, tmp_path):
        assert main(["simulate", "--scenario", "tiny-lti", "--max-iter", "0",
                     "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize("args,payload", [
        (["--mode", "rti", "--tol", "1e-3"], None),
        (["--max-iter", "5"], None),
        ([], {"scenario": "unicycle", "tol": 1e-3}),
    ], ids=["tol-flag", "max-iter-flag", "tol-config"])
    def test_converge_options_in_real_time_mode(self, tmp_path, capsys, args, payload):
        # the unicycle preset runs in real time, one QP per step
        if payload is not None:
            args = ["--config", write_config(tmp_path, payload)]
        else:
            args = ["--scenario", "unicycle", *args]
        out = tmp_path / "res"
        assert main(["simulate", *args, "--repeat", "1", "--out", str(out)]) == 2
        assert "converge mode only" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("args,payload,named", [
        (["--max-iter", "5"], None, "max_iter"),
        (["--variant", "exact"], None, "variant"),
        (["--mode", "rti"], None, "mode"),
        (["--max-iter", "5", "--variant", "exact", "--mode", "rti"], None, "variant, mode, max_iter"),
        ([], {"scenario": "unicycle", "variant": "standard", "mode": "converge"}, "variant, mode"),
    ], ids=["max-iter-flag", "variant-flag", "mode-flag", "all-flags", "config-keys"])
    def test_diagnose_rejects_solver_options(self, tmp_path, capsys, args, payload, named):
        # diagnose runs its own standard-variant converge solves
        if payload is not None:
            args = ["--config", write_config(tmp_path, payload)]
        else:
            args = ["--scenario", "unicycle", *args]
        out = tmp_path / "res"
        assert main(["diagnose", *args, "--out", str(out)]) == 2
        assert f"diagnose does not read {named}" in capsys.readouterr().err
        assert not out.exists()

    def test_diagnose_reads_tol_as_fit_tolerance(self, tmp_path):
        assert main(["diagnose", "--scenario", "unicycle", "--tol", "1e-7",
                     "--out", str(tmp_path)]) == 0

    def test_unconverged_contraction_fit_is_exit_3(self, tmp_path, capsys):
        # the ADIP residual floors near 1e-8, so a fit to 1e-9 runs to its
        # cap of 100 steps unconverged; no fit is written over it
        out = tmp_path / "diag"
        assert main(["diagnose", "--scenario", "adip", "--tol", "1e-9", "--out", str(out)]) == 3
        assert "did not converge to the fit tol 1e-09" in capsys.readouterr().err
        assert not (out / "adip_diagnostics.json").exists()

    def test_infeasible_contraction_fit_is_exit_3(self, tmp_path, monkeypatch):
        # a trace that returns to the reference after leaving it has an
        # error pair (0, e > 0) that no nonnegative envelope bounds
        fit = diagnostics.contraction_fit

        def fit_with_return(trace, z_bar):
            at_ref = SimpleNamespace(z=z_bar)  # all contraction_fit reads of an entry
            away = solver.IterateTrace([at_ref, trace.iterates[0], at_ref], False)
            return fit(away, z_bar)

        monkeypatch.setattr(diagnostics, "contraction_fit", fit_with_return)
        assert main(["diagnose", "--scenario", "tiny-qlpv", "--out", str(tmp_path)]) == 3

    def test_linalg_error_is_exit_3(self, tmp_path, monkeypatch, capsys):
        # LinAlgError subclasses ValueError; it must not pass for a config error
        def failing_fit(trace, z_bar):
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setattr(diagnostics, "contraction_fit", failing_fit)
        assert main(["diagnose", "--scenario", "tiny-qlpv", "--out", str(tmp_path)]) == 3
        assert "numerical failure: SVD did not converge" in capsys.readouterr().err

    def test_a_nan_sqp_step_is_exit_3(self, tmp_path, monkeypatch, capsys):
        # one NaN step among the 50 sample points makes the deviation NaN,
        # which the report's finiteness check turns into exit 3 with no report
        sqp_step, calls = diagnostics.sqp_step, []

        def nan_at_the_seventh_point(prob, z, x0hat):
            calls.append(None)
            step = sqp_step(prob, z, x0hat)
            return q.KktPoint(np.full_like(step.y, np.nan), step.lam) if len(calls) == 7 else step

        monkeypatch.setattr(diagnostics, "sqp_step", nan_at_the_seventh_point)
        scn = q.builtin_scenario("tiny-qlpv")
        assert np.isnan(q.sqp_equivalence_max_deviation(scn.problem, scn.x0))
        calls.clear()
        assert main(["diagnose", "--scenario", "tiny-qlpv", "--out", str(tmp_path)]) == 3
        assert "diagnostics are not finite: sqp_equivalence_max_dev" in capsys.readouterr().err
        assert len(calls) == 50
        assert not (tmp_path / "tiny-qlpv_diagnostics.json").exists()

    def test_singular_sqp_kkt_is_exit_3(self, tmp_path, monkeypatch, capsys):
        # a zero band makes the SQP step's band LU meet a zero pivot; the
        # fixpoint check reads the stage data and runs first
        band_solve = stacked.dgbsv

        def zero_band(kl, ku, ab, b, **kwargs):
            return band_solve(kl, ku, np.zeros_like(ab), b, **kwargs)

        monkeypatch.setattr(stacked, "dgbsv", zero_band)
        assert main(["diagnose", "--scenario", "tiny-qlpv", "--out", str(tmp_path)]) == 3
        assert "SQP step KKT solve failed" in capsys.readouterr().err


@st.composite
def inline_configs(draw):
    """Inline scenarios of every model: x0 entries up to 1e300 in size, and
    diagonal weights in 1e+-8 (Q and P may have zeros).  One in ten has an
    x0 of the wrong length."""

    def rarely():
        return draw(st.integers(0, 9)) == 9

    def power(lo, hi):
        return 10.0 ** draw(st.floats(lo, hi))

    model = draw(st.sampled_from(MODEL_IDS))
    dims = q.get_model(model).dims
    n_x0 = draw(st.integers(1, 5)) if rarely() else dims.n_x
    scenario = {
        "model": model,
        "x0": [0.0 if rarely() else draw(st.sampled_from([1.0, -1.0])) * power(-300.0, 300.0)
               for _ in range(n_x0)],
        "steps": draw(st.integers(1, 3)),
        "horizon": draw(st.integers(1, 7)),
        "q": [0.0 if rarely() else power(-8.0, 8.0) for _ in range(dims.n_x)],
        "r": [power(-8.0, 8.0) for _ in range(dims.n_u)],
        "p": [0.0 if rarely() else power(-8.0, 8.0) for _ in range(dims.n_x)],
        "name": "fuzz",
    }
    return {"scenario": scenario, "variant": draw(st.sampled_from(["standard", "exact"])),
            "mode": draw(st.sampled_from(["converge", "rti"]))}


@settings(max_examples=100, deadline=None)
@given(inline_configs())
@example({"scenario": {"model": "tiny-lti", "x0": [8.521014827369616e+155], "steps": 2,
                       "horizon": 2, "q": 0.00037031988017991276, "r": 56.044632404674346,
                       "p": 241261.97369068142, "name": "f51"}, "variant": "exact"})
@example({"scenario": {"model": "adip", "x0": [0.0, 1.0, 1.0, 1e45], "steps": 2, "horizon": 2,
                       "q": [0.0, 0.0, 1.0, 1.0], "r": [1.0], "p": [1.0, 1.0, 1.0, 1.0],
                       "name": "fuzz"}, "variant": "standard", "mode": "converge"})
def test_simulate_exit_code_contract(config):
    # exit 0 writes finite numbers, 2 writes nothing, 3 writes flagged
    # partial output, and no warning escapes on the way (the second example
    # overflows the reference run's stage Jacobian)
    with tempfile.TemporaryDirectory() as tmp:
        cfg, out = write_config(Path(tmp), config), Path(tmp) / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["simulate", "--config", cfg, "--repeat", "1", "--out", str(out)])
        assert code in (0, 2, 3)
        written = sorted(out.iterdir()) if out.exists() else []
        if code == 2:
            assert written == []
            return
        stem = f"{config['scenario']['name']}_{config['variant']}"
        summary = json.loads((out / f"{stem}_summary.json").read_text())
        if code == 3:
            assert summary["failed"] is True and summary["failure_message"]
            return
        assert summary["failed"] is False
        rows = list(csv.DictReader((out / f"{stem}_trajectory.csv").read_text().splitlines()))
        # README's nulls: unconverged_steps in real-time mode, and an RCSO
        # where the reference cost is zero (an empty CSV cell)
        nulls = {"failure_step", "failure_message", "note"}
        if summary["mode"] == "real_time_single_iteration":
            nulls.add("unconverged_steps")
        if rows[-1]["rcso"] == "":
            nulls.add("final_rcso")
        for key, value in summary.items():
            values = value.values() if isinstance(value, dict) else (
                value if isinstance(value, list) else [value])
            for v in values:
                if v is None:
                    assert key in nulls, key
                elif isinstance(v, (int, float)):
                    assert math.isfinite(v), key


@settings(max_examples=60, deadline=None)
@given(inline_configs())
@example({"scenario": {"model": "tiny-lti", "x0": [1e300], "steps": 2, "horizon": 2,
                       "q": 1e8, "r": 1.0, "p": 1e8, "name": "fuzz"}})
@example({"scenario": {"model": "tiny-qlpv", "x0": [-1.2712454514816378e-153], "steps": 3,
                       "horizon": 2, "q": 2.7669212212565014e-05, "r": 32.86883953626763,
                       "p": 0.0, "name": "fuzz"}})
@example({"scenario": {"model": "unicycle",
                       "x0": [-1.3383550991536285e-31, 6.650343907690095e-47,
                              1.1896928721075422e+293, 5.402748845718895e-42,
                              2.0642836191687925e-262],
                       "steps": 3, "horizon": 1,
                       "q": [0.16818555124294865, 7.990327587037057e-07,
                             0.00012696230373505465, 89670154.5369308, 94.32815511823654],
                       "r": [4.7214460444596816e-07, 0.21603729441950575],
                       "p": [5.524083022390191, 4.7417703013920886e-07, 0.0,
                             2.368275779107666e-06, 163.61259158372945],
                       "name": "fuzz"}})
@example({"scenario": {"model": "tiny-qlpv", "x0": [1.2], "steps": 5, "horizon": 5,
                       "q": 0.01, "r": 1.0, "p": 0.01, "name": "fuzz"}})
def test_diagnose_exit_code_contract(config):
    # exit 0 writes a report of finite numbers, 2 and 3 write none, and no
    # warning escapes on the way.  The examples all exit 3: multiplier
    # corrections that overflow, an omega fit that overflows, a cost
    # perturbation that overflows, and a scenario without a fixpoint
    config = {"scenario": config["scenario"]}  # diagnose runs its own standard solve
    with tempfile.TemporaryDirectory() as tmp:
        cfg, out = write_config(Path(tmp), config), Path(tmp) / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["diagnose", "--config", cfg, "--out", str(out)])
        assert code in (0, 2, 3)
        written = sorted(out.iterdir()) if out.exists() else []
        if code != 0:
            assert written == []
            return
        report = json.loads((out / "fuzz_diagnostics.json").read_text())
        # README's nulls: the model note, and the radius bound of a fit
        # without a quadratic term
        nulls = {"note"} | ({"radius_bound"} if report["omega_hat"] == 0.0 else set())
        for key, value in report.items():
            for v in value if isinstance(value, list) else [value]:
                if v is None:
                    assert key in nulls, key
                elif isinstance(v, (int, float)):
                    assert math.isfinite(v), key


@st.composite
def box_configs(draw):
    """A command and its inline config from the box of scenarios over which the
    exit-code contract is checked:
    - the four models;
    - x0 at scales 1e-3 to 10 (its entries in the box of that half-width);
    - Q and R with eigenvalues from 1e-3 to 1e3, each as a diagonal vector,
      a diagonal matrix or a randomly rotated matrix;
    - P = Q, P = 0, or a random PSD matrix (rank 1 to n_x, its nonzero
      eigenvalues from 1e-3 to 1e3);
    - horizons 1-11 and 1-7 steps;
    - simulate (one repeat) with both variants and both modes, or diagnose."""
    model = draw(st.sampled_from(MODEL_IDS))
    dims = q.get_model(model).dims

    def powers(n, lo, hi):
        return 10.0 ** np.array(draw(st.lists(st.floats(lo, hi), min_size=n, max_size=n)))

    def rotated(d, rank):
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        v = np.linalg.qr(rng.standard_normal((len(d), len(d))))[0][:, :rank]
        m = (v * d[:rank]) @ v.T
        return 0.5 * (m + m.T)

    def weight(n):
        d = powers(n, -3.0, 3.0)
        form = draw(st.sampled_from(["vector", "diagonal", "rotated"]))
        return d if form == "vector" else np.diag(d) if form == "diagonal" else rotated(d, n)

    q_w, p_form = weight(dims.n_x), draw(st.sampled_from(["q", "zero", "psd"]))
    p_w = (q_w if p_form == "q" else np.zeros(dims.n_x) if p_form == "zero"
           else rotated(powers(dims.n_x, -3.0, 3.0), draw(st.integers(1, dims.n_x))))
    scale = 10.0 ** draw(st.floats(-3.0, 1.0))
    scenario = {
        "model": model,
        "x0": [scale * draw(st.floats(-1.0, 1.0)) for _ in range(dims.n_x)],
        "steps": draw(st.integers(1, 7)),
        "horizon": draw(st.integers(1, 11)),
        "q": q_w.tolist(), "r": weight(dims.n_u).tolist(), "p": p_w.tolist(),
        "name": "box",
    }
    if draw(st.booleans()):
        return "diagnose", {"scenario": scenario}
    return "simulate", {"scenario": scenario, "repeat": 1,
                        "variant": draw(st.sampled_from(["standard", "exact"])),
                        "mode": draw(st.sampled_from(["converge", "rti"]))}


@settings(max_examples=100, deadline=timedelta(seconds=5))
@given(box_configs())
# an ADIP draw whose residual floors above 1e-12: its contraction
# reference is the converged fixpoint cut of tol 1e-10
@example(("diagnose", {"scenario": {"model": "adip", "x0": [0.0, 1.0, 0.0, 0.0], "steps": 1,
                                    "horizon": 5, "q": [1.0, 0.01, 1.0, 1.0], "r": [1.0],
                                    "p": [1.0, 0.01, 1.0, 1.0], "name": "box"}}))
def test_box_of_inline_scenarios_keeps_the_exit_code_contract(case):
    # every config of the box is valid, so it runs: exit 0, or 3 with
    # simulate's output flagged failed and no diagnose report; and no
    # warning escapes on the way
    command, config = case
    with tempfile.TemporaryDirectory() as tmp:
        cfg, out = write_config(Path(tmp), config), Path(tmp) / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main([command, "--config", cfg, "--out", str(out)])
        assert code in (0, 3)
        if command == "diagnose":
            assert (out / "box_diagnostics.json").exists() == (code == 0)
            if code == 0:
                report = json.loads((out / "box_diagnostics.json").read_text())
                assert report["kappa_hat"] < 1.0
                assert report["contraction_reference_converged"] is True
            return
        summary = json.loads((out / f"box_{config['variant']}_summary.json").read_text())
        assert summary["failed"] is (code == 3)


def _flags(command):
    parser = build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return {a.dest: a for a in sub.choices[command]._actions if a.dest != "help"}


@pytest.mark.parametrize("command", ["simulate", "diagnose"])
def test_every_flag_is_a_run_config_field(command):
    # resolve_config merges the flags over RunConfig's fields, so a flag
    # that is no field would be dropped by the merge
    flags = _flags(command)
    assert set(flags) - {"config"} <= {f.name for f in dataclasses.fields(cli.RunConfig)}
    assert flags["variant"].choices is stacked.VARIANTS


def test_python_m_qlmpc_runs_the_console_entry_point(tmp_path):
    # every other test calls cli.main; this one runs __main__, whose exit
    # code is main's
    src = Path(q.__file__).resolve().parents[1]

    def run(*args):
        return subprocess.run([sys.executable, "-m", "qlmpc", *args], cwd=src,
                              capture_output=True, text=True)

    ok = run("simulate", "--scenario", "tiny-lti", "--repeat", "1", "--out", str(tmp_path))
    assert ok.returncode == 0, ok.stderr
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "tiny-lti_standard_summary.json", "tiny-lti_standard_trajectory.csv"]
    assert run("simulate", "--variant", "quick").returncode == 2
    # the standard iteration has no fixpoint on this case, so diagnose exits 3
    no_fixpoint = write_config(tmp_path, {"scenario": {
        "model": "tiny-qlpv", "x0": [1.2], "steps": 5, "horizon": 5,
        "q": 0.01, "r": 1.0, "p": 0.01}}, name="no_fixpoint.json")
    failed = run("diagnose", "--config", no_fixpoint, "--out", str(tmp_path / "diag"))
    assert failed.returncode == 3, failed.stderr
    assert "numerical failure" in failed.stderr


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("sim")
    cfg = write_config(tmp, TINY_INLINE)
    code = main(["simulate", "--config", cfg, "--out", str(tmp / "res")])
    assert code == 0
    csv_path = tmp / "res" / "toy_standard_trajectory.csv"
    json_path = tmp / "res" / "toy_standard_summary.json"
    return csv_path, json_path


class TestSimulateOutputs:
    def test_csv_schema(self, outputs):
        csv_path, _ = outputs
        with open(csv_path, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["step", "x_1", "u_1", "dr", "rcso",
                           "iterations", "solve_time_s", "prep_time_s"]
        assert len(rows) == 1 + 5
        assert [r[0] for r in rows[1:]] == ["0", "1", "2", "3", "4"]

    def test_csv_roundtrips_doubles(self, outputs):
        csv_path, _ = outputs
        with open(csv_path, newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        for row in rows:
            for key in ("x_1", "u_1", "dr", "solve_time_s", "prep_time_s"):
                val = float(row[key])
                assert repr(val) == row[key]

    def test_csv_is_lf_utf8(self, outputs):
        csv_path, _ = outputs
        raw = csv_path.read_bytes()
        assert b"\r" not in raw

    def test_summary_fields(self, outputs):
        _, json_path = outputs
        summary = json.loads(json_path.read_text(encoding="utf-8"))
        for key in ("scenario", "variant", "mode", "final_rcso", "final_dr",
                    "terminal_state", "solve_time_s", "prep_time_s", "qp_time_s",
                    "steps_completed", "repeat", "failed"):
            assert key in summary
        assert summary["scenario"] == "toy"
        assert summary["steps_completed"] == 5
        assert summary["repeat"] == 2
        assert isinstance(summary["final_rcso"], float)
        assert set(summary["solve_time_s"]) == {"median", "min", "max"}
        assert summary["unconverged_steps"] == 0
        assert summary["reference_unconverged_steps"] == 0


def test_simulate_reports_each_steps_fastest_repeat(tmp_path, monkeypatch):
    # the two timing repeats after the simulated loop each hold the fastest
    # solve of every other step; a mean over the repeats would be about 333 s
    def stats(step, fast):
        solve = (step + 1) * 1e-9 if fast else 1e3
        return PerStepStats(1, solve, solve / 4.0, True)

    repeats = iter([[stats(k, k % 2 == 0) for k in range(5)],
                    [stats(k, k % 2 == 1) for k in range(5)]])
    monkeypatch.setattr(cli, "run_control_loop",
                        lambda *args: (None, None, next(repeats), None, None))
    cfg = write_config(tmp_path, {**TINY_INLINE, "repeat": 3})
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "res")]) == 0
    want = [stats(k, True) for k in range(5)]
    with open(tmp_path / "res" / "toy_standard_trajectory.csv", newline="",
              encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    assert [float(r["solve_time_s"]) for r in rows] == [s.solve_time_s for s in want]
    # preparation is the solve time minus the QP time of the same repeat
    prep = [s.solve_time_s - s.qp_time_s for s in want]
    assert [float(r["prep_time_s"]) for r in rows] == prep
    summary = json.loads((tmp_path / "res" / "toy_standard_summary.json").read_text())
    for key, times in (("solve_time_s", [s.solve_time_s for s in want]), ("prep_time_s", prep),
                       ("qp_time_s", [s.qp_time_s for s in want])):
        assert summary[key] == {"median": times[2], "min": times[0], "max": times[4]}


def test_unicycle_csv_has_one_row_per_step(tmp_path):
    out = tmp_path / "res"
    code = main(["simulate", "--scenario", "unicycle", "--variant", "standard",
                 "--repeat", "1", "--out", str(out)])
    assert code == 0
    lines = (out / "unicycle_standard_trajectory.csv").read_text().splitlines()
    assert len(lines) == 1 + 100  # header + one row per applied step
    summary = json.loads((out / "unicycle_standard_summary.json").read_text())
    assert len(summary["terminal_state"]) == 5


class TestDiagnose:
    def test_tiny_lti_degeneration(self, tmp_path):
        out = tmp_path / "diag"
        assert main(["diagnose", "--scenario", "tiny-lti", "--out", str(out)]) == 0
        payload = json.loads((out / "tiny-lti_diagnostics.json").read_text())
        assert payload["kappa_hat"] == 0.0
        assert payload["e_norm_inf"] == 0.0
        assert payload["identity_error_inf"] <= 1e-10
        assert payload["radius_bound"] is None  # infinite, json-safe
        assert payload["sqp_equivalence_max_dev"] <= 1e-9

    def test_tiny_qlpv_values(self, tmp_path):
        out = tmp_path / "diag"
        assert main(["diagnose", "--scenario", "tiny-qlpv", "--out", str(out)]) == 0
        payload = json.loads((out / "tiny-qlpv_diagnostics.json").read_text())
        assert payload["e_norm_inf"] == pytest.approx(0.125, abs=1e-10)
        assert payload["identity_error_inf"] <= 1e-8
        assert payload["kappa_hat"] < 1.0

    def test_unicycle_report_values(self, tmp_path):
        out = tmp_path / "diag"
        assert main(["diagnose", "--scenario", "unicycle", "--out", str(out)]) == 0
        payload = json.loads((out / "unicycle_diagnostics.json").read_text())
        assert payload["identity_error_inf"] <= 1e-8
        assert payload["e_norm_inf"] > 0.0
        assert payload["fixpoint_tol"] == 1e-10
        assert payload["kappa_hat"] < 1.0
        assert payload["sqp_equivalence_max_dev"] <= 1e-9
        assert payload["contraction_reference_converged"] is True

    def test_adip_contraction_reference_is_the_fixpoint_cut(self, tmp_path, monkeypatch):
        # the contraction errors are distances to the certified fixpoint: the
        # tol-1e-8 cut, converged.  All checks cut one solve, so its steps
        # are the fixpoint ladder's: the tol-1e-10 attempt runs to its cap.
        steps = []

        def counted_step(entry):
            steps.append(entry)
            return solver._step(entry)

        monkeypatch.setattr(diagnostics, "_step", counted_step)
        out = tmp_path / "diag"
        assert main(["diagnose", "--scenario", "adip", "--out", str(out)]) == 0
        payload = json.loads((out / "adip_diagnostics.json").read_text())
        assert payload["fixpoint_tol"] == 1e-8
        assert payload["contraction_reference_converged"] is True
        assert len(steps) == 300

    def test_a_rate_of_one_or_more_is_no_contraction(self, tmp_path, capsys):
        # the ADIP fit cut of tol 1e-7 ends at a pair whose fitted rate is
        # 1.3055: no contraction, so exit 3 and no report
        out = tmp_path / "diag"
        assert main(["diagnose", "--scenario", "adip", "--tol", "1e-7", "--out", str(out)]) == 3
        assert "kappa_hat 1.3055 is not below 1" in capsys.readouterr().err
        assert not (out / "adip_diagnostics.json").exists()

    def test_lti_one_step_convergence_gives_zero_rate(self, tmp_path):
        # the solve stops after one step; the fit reads on to three iterates
        out = tmp_path / "diag"
        assert main(["diagnose", "--scenario", "tiny-lti", "--out", str(out)]) == 0
        payload = json.loads((out / "tiny-lti_diagnostics.json").read_text())
        assert len(payload["contraction_errors"]) == 3
        assert payload["kappa_hat"] == 0.0
        assert payload["omega_hat"] == 0.0

    @pytest.mark.parametrize("scenario", ["tiny-qlpv", "unicycle"])
    def test_report_solves_no_dense_system(self, tmp_path, monkeypatch, scenario):
        # the SQP step is a band LU; no check of the report solves densely
        def dense_solve(*args, **kwargs):
            raise AssertionError("diagnose solved a dense linear system")

        monkeypatch.setattr(np.linalg, "solve", dense_solve)
        assert main(["diagnose", "--scenario", scenario, "--out", str(tmp_path)]) == 0

    def test_seed_env_override(self, tmp_path, monkeypatch):
        monkeypatch.setenv("QLMPC_SEED", "7")
        out = tmp_path / "diag"
        assert main(["diagnose", "--scenario", "tiny-lti", "--out", str(out)]) == 0
        payload = json.loads((out / "tiny-lti_diagnostics.json").read_text())
        assert payload["seed"] == 7


def _tiny_qlpv_horizon_2():
    prob = q.StackedProblem.build(models.builtin_tiny("qlpv"), 2,
                                  q.Weights(Q=np.eye(1), R=np.eye(1), P=np.eye(1)))
    return prob, np.array([0.8])


@pytest.mark.parametrize("scenario,pairs", [
    ("adip", [(1e-10, 60), (1e-9, 100), (1e-6, 100), (1e-6, 10), (1e-8, 3)]),
    ("unicycle", [(1e-10, 300), (1e-12, 100), (1e-3, 100), (1e-6, 1)]),
    ("tiny-qlpv", [(1e-10, 300), (1e-6, 100), (1e-6, 4), (1e-12, 10), (1e-12, 9)]),
    # the last cut reads past every earlier cut's reach, and past the 400
    # steps of diagnose's longest cut
    ("adip", [(1e-6, 10), (1e-8, 3), (1e-10, 60), (1e-12, 450)]),
])
def test_solve_prefix_equals_its_own_solve(request, scenario, pairs):
    # diagnose cuts each check's trace from one residual-stopped solve,
    # which steps only as far as the cuts read
    if scenario == "tiny-qlpv":
        prob, x0 = _tiny_qlpv_horizon_2()
    else:
        prob = request.getfixturevalue(f"{scenario}_problem")
        x0 = request.getfixturevalue(f"{scenario}_x0")
    y0 = q.initial_guess(prob, x0)
    entries = [solver.TraceEntry((prob, prob.check_x0(x0), "standard"), y0)]
    for tol, max_iter in pairs:
        reach = len(entries)
        own = oracles.certificate_trace(prob, x0, y0, tol, max_iter)
        read = diagnostics._prefix(entries, tol, max_iter)
        assert len(entries) == max(reach, len(read.iterates)), (tol, max_iter)
        assert read.converged == own.converged, (tol, max_iter)
        assert len(read.iterates) == len(own.iterates), (tol, max_iter)
        for a, b in zip(read.iterates, own.iterates):
            np.testing.assert_array_equal(a.z.y, b.z.y)
            np.testing.assert_array_equal(a.z.lam, b.z.lam)
            assert a.fonc_inf == b.fonc_inf


class TestFlagPrecedence:
    def test_flags_override_config(self, tmp_path):
        cfg = write_config(tmp_path, {"scenario": "tiny-lti", "variant": "standard", "repeat": 1})
        out = tmp_path / "res"
        assert main(["simulate", "--config", cfg, "--variant", "exact",
                     "--out", str(out)]) == 0
        summary = json.loads((out / "tiny-lti_exact_summary.json").read_text())
        assert summary["variant"] == "exact"

    def test_mode_alias_rti(self, tmp_path):
        out = tmp_path / "res"
        assert main(["simulate", "--scenario", "tiny-lti", "--mode", "rti",
                     "--repeat", "1", "--out", str(out)]) == 0
        summary = json.loads((out / "tiny-lti_standard_summary.json").read_text())
        assert summary["mode"] == "real_time_single_iteration"
        assert summary["iterations_total"] == 5
        assert summary["unconverged_steps"] is None


@pytest.mark.parametrize("command", ["simulate", "diagnose"])
def test_mode_flag_takes_every_spelling_a_config_takes(command):
    # the flag's choices are the solver's modes and the CLI's aliases
    flag = _flags(command)["mode"]
    assert flag.choices == [*solver.MODES, *cli._MODE_ALIASES]


def test_mode_flag_spelled_out_runs_like_rti(tmp_path):
    summaries = []
    for mode in ("rti", "real_time_single_iteration"):
        out = tmp_path / mode
        assert main(["simulate", "--scenario", "tiny-qlpv", "--mode", mode,
                     "--repeat", "1", "--out", str(out)]) == 0
        summary = json.loads((out / "tiny-qlpv_standard_summary.json").read_text())
        summaries.append({k: v for k, v in summary.items()
                          if not k.endswith("time_s") and k != "env"})
        assert (out / "tiny-qlpv_standard_trajectory.csv").exists()
    assert summaries[0] == summaries[1]
    assert summaries[1]["mode"] == "real_time_single_iteration"


def test_help_exits_zero():
    assert main(["--help"]) == 0


def test_missing_subcommand_is_usage_error():
    assert main([]) == 2


def _scenario_from(tmp_path, argv, payload=None):
    if payload is not None:
        argv = argv + ["--config", write_config(tmp_path, payload)]
    return make_scenario(resolve_config(build_parser().parse_args(["simulate"] + argv)))


@pytest.mark.parametrize("variant", ["standard", "exact"])
@pytest.mark.parametrize("name", sorted(PRESETS))
def test_preset_equals_its_inline_object(tmp_path, name, variant):
    fields, mode = PRESETS[name]
    inline = _scenario_from(tmp_path, [], {"scenario": dict(fields, name=name),
                                           "variant": variant, "mode": mode})
    builtin = _scenario_from(tmp_path, ["--scenario", name, "--variant", variant])
    for f in dataclasses.fields(Scenario):
        a, b = getattr(inline, f.name), getattr(builtin, f.name)
        if f.name == "weights":
            for m in ("Q", "R", "P"):
                np.testing.assert_array_equal(getattr(a, m), getattr(b, m), strict=True)
        elif isinstance(a, np.ndarray):
            np.testing.assert_array_equal(a, b, strict=True)
        else:
            assert a == b, f.name


def test_run_benchmarks_script(tmp_path, monkeypatch, capsys):
    path = Path(__file__).resolve().parents[1] / "scripts" / "run_benchmarks.py"
    spec = importlib.util.spec_from_file_location("run_benchmarks", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    monkeypatch.setattr(script, "SCENARIOS", ("tiny-lti", "tiny-qlpv"))
    assert script.main(["--out", str(tmp_path), "--repeat", "1"]) == 0
    rows = [line for line in capsys.readouterr().out.splitlines()
            if line.split()[:1] in (["tiny-lti"], ["tiny-qlpv"])]
    assert len(rows) == 4


SUMMARY_KEYS = [
    "scenario", "model", "variant", "mode", "steps_requested", "steps_completed", "repeat",
    "terminal_state", "final_dr", "final_rcso", "iterations_total", "unconverged_steps",
    "reference_unconverged_steps", "solve_time_s", "prep_time_s", "qp_time_s", "failed",
    "failure_step", "failure_message", "note",
]
REPORT_KEYS = [
    "scenario", "model", "seed", "fixpoint_tol", "e_norm_inf", "identity_error_inf",
    "feasibility_residual_inf", "kappa_hat", "omega_hat", "radius_bound", "fit_residual_inf",
    "contraction_errors", "contraction_reference_converged", "sqp_equivalence_max_dev", "note",
]


def test_outputs_record_their_environment(tmp_path, monkeypatch):
    # env is one key added after the others; every other key and value is
    # the one written without it
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
    runs = {
        "tiny-qlpv_standard_summary.json": ["simulate", "--scenario", "tiny-qlpv", "--repeat", "1"],
        "tiny-qlpv_diagnostics.json": ["diagnose", "--scenario", "tiny-qlpv"],
    }
    written = {}
    for name, argv in runs.items():
        assert main(argv + ["--out", str(tmp_path / "env")]) == 0
        written[name] = json.loads((tmp_path / "env" / name).read_text())
    monkeypatch.setattr(cli, "_env", lambda: None)
    for name, argv in runs.items():
        assert main(argv + ["--out", str(tmp_path / "none")]) == 0
        bare = json.loads((tmp_path / "none" / name).read_text())
        with_env = written[name]
        keys = SUMMARY_KEYS if "summary" in name else REPORT_KEYS
        assert list(with_env) == list(bare) == keys + ["env"]
        env = with_env.pop("env")
        assert bare.pop("env") is None
        timing = {"solve_time_s", "prep_time_s", "qp_time_s"}
        for key in set(keys) - timing:
            assert with_env[key] == bare[key], key
        assert list(env) == ["python", "numpy", "scipy", "blas", "blas_threads", "cpu_count"]
        assert env["python"] == platform.python_version()
        assert env["numpy"] == np.__version__
        assert env["scipy"] == scipy.__version__
        assert set(env["blas"]) == {"numpy", "scipy"}
        assert all(isinstance(v, str) and v for v in env["blas"].values())
        assert env["blas_threads"] == {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": None,
                                       "MKL_NUM_THREADS": os.environ.get("MKL_NUM_THREADS")}
        assert env["cpu_count"] == os.cpu_count()
