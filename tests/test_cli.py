import csv
import dataclasses
import importlib.util
import json
import math
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import qlmpc as q
import qlmpc.cli as cli
import qlmpc.diagnostics as diagnostics
import qlmpc.solver as solver
import qlmpc.stacked as stacked
from qlmpc.cli import build_parser, main, make_scenario, resolve_config
from qlmpc.closed_loop import PRESETS, Scenario

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
    ], ids=["repeat", "out", "steps", "horizon", "max_iter", "x0", "repeat-true", "steps-true",
            "horizon-true", "max_iter-true", "seed-true", "tol-true", "tol-inf", "q-3d"])
    def test_wrong_value_type_writes_nothing(self, tmp_path, monkeypatch, capsys, key, value):
        monkeypatch.chdir(tmp_path)
        payload = json.loads(json.dumps(TINY_INLINE))
        target = payload["scenario"] if key in payload["scenario"] else payload
        target[key] = value
        cfg = write_config(tmp_path, payload)
        assert main(["simulate", "--config", cfg]) == 2
        assert f"{key} must be" in capsys.readouterr().err
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

    def test_infeasible_contraction_fit_is_exit_3(self, tmp_path, monkeypatch):
        # a trace that returns to the reference after leaving it has an
        # error pair (0, e > 0) that no nonnegative envelope bounds
        def fit_with_return(trace, z_bar):
            at_ref = SimpleNamespace(z=z_bar)  # all contraction_fit reads of an entry
            away = solver.IterateTrace([at_ref, trace.iterates[0], at_ref], False)
            return diagnostics.contraction_fit(away, z_bar)

        monkeypatch.setattr(cli, "contraction_fit", fit_with_return)
        assert main(["diagnose", "--scenario", "tiny-qlpv", "--out", str(tmp_path)]) == 3

    def test_linalg_error_is_exit_3(self, tmp_path, monkeypatch, capsys):
        # LinAlgError subclasses ValueError; it must not pass for a config error
        def failing_fit(trace, z_bar):
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setattr(cli, "contraction_fit", failing_fit)
        assert main(["diagnose", "--scenario", "tiny-qlpv", "--out", str(tmp_path)]) == 3
        assert "numerical failure: SVD did not converge" in capsys.readouterr().err

    def test_singular_sqp_kkt_is_exit_3(self, tmp_path, monkeypatch, capsys):
        # a zero constraint Jacobian makes the SQP step's KKT matrix
        # singular; the zero disturbance lets the fixpoint check run first
        def zero_jacobian(prob, y):
            zero = np.zeros((prob.n_eq, prob.n_y))
            return zero, zero

        monkeypatch.setattr(stacked, "linearized_constraint", zero_jacobian)
        assert main(["diagnose", "--scenario", "tiny-qlpv", "--out", str(tmp_path)]) == 3
        assert "SQP step KKT solve failed" in capsys.readouterr().err


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

    def test_adip_contraction_reference_is_unconverged(self, tmp_path, monkeypatch):
        # the tol-1e-12 ADIP reference stalls near 5e-9 and runs out of
        # iterations; the report must say so.  All checks read one solve.
        traces = []

        def recording_solve(*args):
            traces.append(diagnostics.certificate_trace(*args))
            return traces[-1]

        monkeypatch.setattr(cli, "certificate_trace", recording_solve)
        out = tmp_path / "diag"
        assert main(["diagnose", "--scenario", "adip", "--out", str(out)]) == 0
        payload = json.loads((out / "adip_diagnostics.json").read_text())
        assert payload["contraction_reference_converged"] is False
        assert [t.iterations for t in traces] == [400]

    def test_lti_one_step_convergence_gives_zero_rate(self, tmp_path):
        # the solve stops after one step; the fit pads it to three iterates
        out = tmp_path / "diag"
        assert main(["diagnose", "--scenario", "tiny-lti", "--out", str(out)]) == 0
        payload = json.loads((out / "tiny-lti_diagnostics.json").read_text())
        assert len(payload["contraction_errors"]) == 3
        assert payload["kappa_hat"] == 0.0
        assert payload["omega_hat"] == 0.0

    def test_seed_env_override(self, tmp_path, monkeypatch):
        monkeypatch.setenv("QLMPC_SEED", "7")
        out = tmp_path / "diag"
        assert main(["diagnose", "--scenario", "tiny-lti", "--out", str(out)]) == 0
        payload = json.loads((out / "tiny-lti_diagnostics.json").read_text())
        assert payload["seed"] == 7


def _tiny_qlpv_horizon_2():
    prob = q.StackedProblem.build(q.builtin_tiny("qlpv"), 2,
                                  q.Weights(Q=np.eye(1), R=np.eye(1), P=np.eye(1)))
    return prob, np.array([0.8])


@pytest.mark.parametrize("scenario,pairs", [
    ("adip", [(1e-10, 60), (1e-9, 100), (1e-6, 100), (1e-6, 10), (1e-8, 3)]),
    ("unicycle", [(1e-10, 300), (1e-12, 100), (1e-3, 100), (1e-6, 1)]),
    ("tiny-qlpv", [(1e-10, 300), (1e-6, 100), (1e-6, 4), (1e-12, 10), (1e-12, 9)]),
])
def test_solve_prefix_equals_its_own_solve(request, scenario, pairs):
    # diagnose reads each check's trace off one tighter, longer
    # residual-stopped solve
    if scenario == "tiny-qlpv":
        prob, x0 = _tiny_qlpv_horizon_2()
    else:
        prob = request.getfixturevalue(f"{scenario}_problem")
        x0 = request.getfixturevalue(f"{scenario}_x0")
    y0 = q.initial_guess(prob, x0)
    cap = max(c for _, c in pairs)
    full = diagnostics.certificate_trace(prob, x0, y0, 1e-12, cap)
    for tol, max_iter in pairs:
        own = diagnostics.certificate_trace(prob, x0, y0, tol, max_iter)
        read = cli._solve_prefix(full, tol, max_iter)
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
