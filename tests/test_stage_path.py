"""The solver's per-stage path against the dense stacked oracles.

``solve_ocp`` and ``qlmpc_iterate`` work on per-stage data only; the
dense stacked matrices (G, the KKT matrix, the SQP step) are kept as
independent oracles.  The property tests check the stage data against a
per-stage loop over the model closures, and the stage-wise multipliers
and residual against the dense oracles, at arbitrary points; the guard
tests check that the solver never calls the dense oracles, evaluates
each model closure once per trajectory, not once per stage, solves a
real-time step from one stage-data evaluation without multipliers or a
residual, and that the certificate loop evaluates stage data once per
iterate.
"""

import collections
import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

import qlmpc as q
import qlmpc.condensing as condensing
import qlmpc.solver as solver
import qlmpc.stacked as stacked
from qlmpc.condensing import stage_multipliers
from qlmpc.diagnostics import certificate_trace
from qlmpc.stacked import stage_data, stage_residual

VARIANTS = ["standard", "exact"]
MODELS = ["tiny-qlpv", "unicycle", "adip"]


@pytest.fixture(scope="module")
def problems(unicycle_problem, adip_problem):
    tiny = q.StackedProblem.build(q.builtin_tiny("qlpv"), 4,
                                  q.Weights(Q=np.eye(1), R=np.eye(1), P=np.eye(1)))
    return {"tiny-qlpv": tiny, "unicycle": unicycle_problem, "adip": adip_problem}


def points(n):
    return arrays(np.float64, n, elements=st.floats(-3.0, 3.0, allow_subnormal=False))


def dense_constraint(prob, y, variant):
    """The constraint matrix of the QP the variant freezes at y, assembled densely."""
    if variant == "standard":
        return q.constraint_matrix(prob, prob.rho_trajectory(y))
    return q.linearized_constraint(prob, y)[0]


def looped_stage_data(prob, y, variant):
    """Stage data from one call of each model closure per stage."""
    m = prob.model
    xs, us = prob.states(y)[:-1], prob.inputs(y)
    if variant == "standard":
        rhos = [m.rho(x, u) for x, u in zip(xs, us)]
        a = np.array([m.a_of_rho(r) for r in rhos])
        return a, np.array([m.b_of_rho(r) for r in rhos]), np.zeros(xs.shape)
    jac = np.array([m.stage_jacobian(x, u) for x, u in zip(xs, us)])
    w = [q.eval_dynamics(m, x, u) - j @ np.concatenate([x, u]) for x, u, j in zip(xs, us, jac)]
    return jac[:, :, :prob.n_x], jac[:, :, prob.n_x:], np.array(w)


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("name", MODELS)
def test_stage_data_matches_per_stage_loop(problems, name, variant):
    prob = problems[name]

    @settings(max_examples=25, deadline=None)
    @given(points(prob.n_y))
    def check(y):
        stages = stage_data(prob, y, variant)
        for got, ref in zip((stages.a, stages.b, stages.w), looped_stage_data(prob, y, variant)):
            assert got.shape == ref.shape
            assert np.abs(got - ref).max() <= 1e-13 * max(1.0, np.abs(ref).max())

    check()


# A tiny-qlpv (N = 4) point where the dense oracle returns [0, 0, 0, 0,
# 5.6e-77] and the exact least-squares multipliers are [-2 y_0, 0, 0, 0, 0]:
# both leave the same residual |G' lam + 2 W y| = 2.83, so lam is only
# determined to the scale of 2 W y, not to that of either solution.
TINY_SMALL_Y = np.array([1.1244175e-76, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0])


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("name", MODELS)
def test_stage_multipliers_match_dense_least_squares(problems, name, variant):
    prob = problems[name]

    @settings(max_examples=25, deadline=None)
    @given(points(prob.n_y))
    def check(y):
        lam = stage_multipliers(prob, stage_data(prob, y, variant), y)
        if np.array_equal(y, TINY_SMALL_Y):
            exact = np.zeros(prob.n_eq)
            exact[0] = -2.0 * y[0]
            assert np.abs(lam - exact).max() <= 1e-12 * np.abs(exact).max()
        ref = q.recover_multipliers(prob, dense_constraint(prob, y, variant), y)
        scale = max(np.abs(ref).max(), np.abs(2.0 * prob.weight_matrix @ y).max())
        assert np.abs(lam - ref).max() <= 1e-9 * scale

    if name == "tiny-qlpv":
        check = example(TINY_SMALL_Y)(check)
    check()


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("name", MODELS)
def test_stage_residual_matches_dense_residual(problems, name, variant):
    prob = problems[name]
    dense = q.fonc_residual if variant == "standard" else q.true_fonc_residual

    @settings(max_examples=25, deadline=None)
    @given(points(prob.n_y), points(prob.n_eq), points(prob.n_x))
    def check(y, lam, x0):
        z = q.KktPoint(y, lam)
        res = stage_residual(prob, stage_data(prob, y, variant), z, x0)
        ref = float(np.max(np.abs(dense(prob, z, x0))))
        assert abs(res - ref) <= 1e-12 * max(1.0, ref)

    check()


DENSE = {
    stacked: ("constraint_matrix", "linearized_constraint", "coupling_correction",
              "kkt_matrix", "fonc_residual", "true_fonc_residual", "fonc_jacobian",
              "recover_multipliers", "sqp_step"),
}


def test_solver_calls_no_dense_stacked_function(monkeypatch, unicycle_problem, unicycle_x0):
    def forbidden(*args, **kwargs):
        raise AssertionError("dense stacked algebra called on the solver path")

    for module, names in DENSE.items():
        for name in names:
            monkeypatch.setattr(module, name, forbidden)
            for binder in (solver, condensing):
                if hasattr(binder, name):
                    monkeypatch.setattr(binder, name, forbidden)

    prob, x0 = unicycle_problem, unicycle_x0
    y0 = q.initial_guess(prob, x0)
    for variant in VARIANTS:
        tr = q.solve_ocp(prob, x0, y0, q.SolverOptions(variant=variant, mode="converge"))
        assert tr.iterations >= 1 and np.all(np.isfinite(tr.final.stack()))
        rti = q.SolverOptions(variant=variant, mode="real_time_single_iteration")
        tr = q.solve_ocp(prob, x0, y0, rti)
        assert np.all(np.isfinite(tr.final.stack()))
        z = q.qlmpc_iterate(prob, q.KktPoint(y0, np.zeros(prob.n_eq)), x0, variant)
        assert np.all(np.isfinite(z.stack()))


def counted(model, calls):
    """Copy of a model whose closures count their calls in ``calls``."""
    def wrap(field, fn):
        def counting(*args):
            calls[field] += 1
            return fn(*args)
        return counting

    fields = ("rho", "a_of_rho", "b_of_rho", "stage_jacobian")
    return dataclasses.replace(model, **{f: wrap(f, getattr(model, f)) for f in fields})


@pytest.mark.parametrize("name", ["adip", "unicycle"])
def test_model_closures_run_once_per_trajectory(name, adip_problem, adip_x0,
                                                unicycle_problem, unicycle_x0):
    base, x0 = {"adip": (adip_problem, adip_x0), "unicycle": (unicycle_problem, unicycle_x0)}[name]
    calls = collections.Counter()
    prob = q.StackedProblem.build(counted(base.model, calls), base.n_horizon, base.weights)
    y0 = q.initial_guess(base, x0)
    for variant in VARIANTS:
        calls.clear()
        stage_data(prob, y0, variant)
        assert max(calls.values()) == 1
        calls.clear()
        tr = q.solve_ocp(prob, x0, y0, q.SolverOptions(variant=variant, mode="converge"))
        # one stage-data evaluation at the start and one per iteration
        assert tr.iterations >= 1
        assert max(calls.values()) <= tr.iterations + 1


@pytest.mark.parametrize("name", ["adip", "unicycle"])
def test_real_time_step_is_one_qp(monkeypatch, name, adip_problem, adip_x0,
                                  unicycle_problem, unicycle_x0):
    base, x0 = {"adip": (adip_problem, adip_x0), "unicycle": (unicycle_problem, unicycle_x0)}[name]
    calls = collections.Counter()
    prob = q.StackedProblem.build(counted(base.model, calls), base.n_horizon, base.weights)
    y0 = q.initial_guess(base, x0)
    z0 = q.KktPoint(y0, np.zeros(base.n_eq))
    expected = {v: q.qlmpc_iterate(base, z0, x0, v).y for v in VARIANTS}

    def forbidden(*args, **kwargs):
        raise AssertionError("a real-time step evaluated multipliers or a residual")

    monkeypatch.setattr(solver, "stage_multipliers", forbidden)
    monkeypatch.setattr(solver, "stage_residual", forbidden)
    for variant in VARIANTS:
        calls.clear()
        rti = q.SolverOptions(variant=variant, mode="real_time_single_iteration")
        tr = q.solve_ocp(prob, x0, y0, rti)
        # one stage-data evaluation: every closure it uses runs once
        assert set(calls.values()) == {1}
        assert calls["stage_jacobian"] == (variant == "exact")
        assert np.array_equal(tr.iterates[-1].y, expected[variant])


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("name", ["adip", "unicycle"])
def test_certificate_trace_runs_model_closures_once_per_iterate(name, variant, adip_problem,
                                                                 adip_x0, unicycle_problem,
                                                                 unicycle_x0):
    base, x0 = {"adip": (adip_problem, adip_x0), "unicycle": (unicycle_problem, unicycle_x0)}[name]
    calls = collections.Counter()
    prob = q.StackedProblem.build(counted(base.model, calls), base.n_horizon, base.weights)
    tr = certificate_trace(prob, x0, q.initial_guess(base, x0), 1e-9, 50, variant)
    assert tr.iterations >= 2
    # the residual and the next QP of an iterate share its one stage-data evaluation
    assert max(calls.values()) == len(tr.iterates)
