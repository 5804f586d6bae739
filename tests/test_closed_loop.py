import dataclasses
import math

import numpy as np
import pytest

import qlmpc as q
from qlmpc.closed_loop import PRESETS, REFERENCE_OPTIONS


def tiny_scenario(**overrides):
    base = dict(
        name="tiny",
        model_id="tiny-qlpv",
        x0=np.array([0.4]),
        steps=6,
        horizon=2,
        weights=q.Weights(Q=np.eye(1), R=np.eye(1), P=np.eye(1)),
        controller=q.SolverOptions(variant="standard", stop_tol=1e-8, max_iter=20),
    )
    base.update(overrides)
    return q.Scenario(**base)


class TestDistanceToReference:
    def test_zero_trajectory(self):
        states = np.zeros((4, 2))
        inputs = np.zeros((3, 1))
        assert q.dr_series(states, inputs, np.eye(2), np.eye(1))[2] == 0.0

    def test_single_step_value(self):
        qm = np.diag([1.0, 1.0, 0.1, 1.0, 0.1])
        states = np.array([[1.0, 0, 0, 0, 0], [0, 0, 0, 0, 0]])
        inputs = np.zeros((1, 2))
        assert q.dr_series(states, inputs, qm, np.eye(2))[0] == pytest.approx(1.0)

    def test_monotone_in_k(self):
        rng = np.random.default_rng(0)
        states = rng.normal(size=(9, 3))
        inputs = rng.normal(size=(8, 2))
        series = q.dr_series(states, inputs, np.eye(3), 2 * np.eye(2))
        assert np.all(np.diff(series) >= 0.0)
        assert np.all(series >= 0.0)


class TestRcso:
    def test_identical_series_is_zero(self):
        dr = np.array([1.0, 2.0, 3.0])
        assert q.rcso(dr, dr, 2) == 0.0

    def test_arithmetic(self):
        assert q.rcso([1.05], [1.00], 0) == pytest.approx(0.05)

    def test_zero_reference_is_missing(self):
        assert math.isnan(q.rcso([0.0], [0.0], 0))


def test_simulate_equilibrium_stays_at_origin():
    res = q.simulate(tiny_scenario(x0=np.array([0.0])))
    assert np.all(res.states == 0.0)
    assert np.all(res.inputs == 0.0)
    assert np.all(res.dr == 0.0)
    assert np.all(np.isnan(res.rcso))
    assert not res.failed


def test_simulate_reference_rcso_is_zero():
    res = q.simulate(tiny_scenario())
    for k in range(len(res.reference_dr)):
        assert q.rcso(res.reference_dr, res.reference_dr, k) == 0.0


def test_simulate_is_deterministic():
    a = q.simulate(tiny_scenario())
    b = q.simulate(tiny_scenario())
    assert np.array_equal(a.states, b.states)
    assert np.array_equal(a.inputs, b.inputs)
    assert np.array_equal(a.dr, b.dr)


def test_simulate_shapes_and_stats():
    scn = tiny_scenario()
    res = q.simulate(scn)
    assert res.states.shape == (scn.steps + 1, 1)
    assert res.inputs.shape == (scn.steps, 1)
    assert res.dr.shape == (scn.steps,)
    assert len(res.per_step) == scn.steps
    assert all(s.iterations >= 0 for s in res.per_step)
    assert all(s.solve_time_s >= s.qp_time_s >= 0.0 for s in res.per_step)
    # preparation is defined as solve time minus QP time, so the two add up
    assert all(abs(s.prep_time_s + s.qp_time_s - s.solve_time_s) <= 1e-12 for s in res.per_step)
    assert len(res.reference_per_step) == scn.steps
    assert all(s.converged for s in res.per_step + res.reference_per_step)


def test_adip_reference_converges_at_every_step(adip_problem, adip_x0, adip_loops):
    # the reference's step bound is reachable at tol 1e-10 on every step
    stats = adip_loops["reference"][2]
    assert all(s.converged for s in stats)
    assert max(s.iterations for s in stats) < REFERENCE_OPTIONS.max_iter
    # a solve cut at max_iter says so rather than passing as converged
    capped = dataclasses.replace(REFERENCE_OPTIONS, max_iter=3)
    stats = q.run_control_loop(adip_problem, adip_x0, 3, capped)[2]
    unconverged = [s for s in stats if not s.converged]
    assert unconverged
    assert all(s.iterations == capped.max_iter for s in unconverged)


def test_simulate_truncates_on_failure():
    res = q.simulate(tiny_scenario(x0=np.array([1e200]), steps=4))
    assert res.failed
    assert res.failure_step == 0
    assert res.inputs.shape[0] == 0
    assert res.failure_message


def test_simulate_standard_controller_costs_at_least_reference():
    # suboptimal but feasible: cumulative cost must not beat the
    # converged reference by more than solver noise
    res = q.simulate(tiny_scenario(x0=np.array([0.8]), steps=8))
    assert res.dr[-1] >= res.reference_dr[-1] - 1e-9


def test_scenario_validation():
    with pytest.raises(ValueError):
        tiny_scenario(steps=0)


def test_builtin_scenario_unknown_name():
    with pytest.raises(q.ConfigError):
        q.builtin_scenario("rocket")


@pytest.mark.parametrize("overrides, message", [
    ({"q": 1.0, "p": 1.0}, "Q must be 4x4"),
    ({"r": [1.0, 1.0]}, "R must be 1x1"),
    ({"x0": [0.1, 0.2]}, "initial state must have length 4"),
    ({"model": "rocket"}, "unknown model id 'rocket'"),
    *[({"name": name}, "name must be one plain path component")
      for name in ("sub/toy", "../escaped", "", ".", "..", "nul\0", ["x"])],
], ids=["q-size", "r-size", "x0-length", "model", "name-slash", "name-parent", "name-empty",
        "name-dot", "name-dotdot", "name-nul", "name-list"])
def test_builtin_scenario_rejects_what_cannot_run(overrides, message):
    # every scenario the builder returns can run: its problem is built and checked
    with pytest.raises(q.ConfigError, match=message):
        q.builtin_scenario(dict(PRESETS["adip"][0], **overrides))


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_matrix_weights_equal_their_diagonal(name):
    fields = PRESETS[name][0]
    as_matrix = {k: np.diag(np.atleast_1d(fields[k])).tolist() for k in ("q", "r", "p")}
    a = q.builtin_scenario(fields).problem.weights
    b = q.builtin_scenario(dict(fields, **as_matrix)).problem.weights
    for m in ("Q", "R", "P"):
        np.testing.assert_array_equal(getattr(a, m), getattr(b, m), strict=True)


def test_builtin_scenario_defaults():
    uni = q.builtin_scenario("unicycle")
    assert uni.controller.mode == "real_time_single_iteration"
    assert uni.steps == 100 and uni.horizon == 20
    adip = q.builtin_scenario("adip", variant="exact")
    assert adip.controller.mode == "converge"
    assert adip.steps == 200 and adip.horizon == 40
    assert REFERENCE_OPTIONS.stop_tol == 1e-10
    assert REFERENCE_OPTIONS.variant == "exact"


class TestUnicycleClosedLoop:
    def test_single_iteration_at_every_step(self, unicycle_sims):
        for variant in ("standard", "exact"):
            iters = [s.iterations for s in unicycle_sims[variant].per_step]
            assert iters == [1] * 100

    def test_does_not_reach_origin_exactly(self, unicycle_sims):
        # non-holonomic: position error remains at the end
        for variant in ("standard", "exact"):
            final = unicycle_sims[variant].states[-1]
            assert np.abs(final[:2]).max() > 1e-3

    def test_standard_costs_more_than_exact(self, unicycle_sims):
        assert unicycle_sims["standard"].rcso[-1] > unicycle_sims["exact"].rcso[-1] > 0.0
