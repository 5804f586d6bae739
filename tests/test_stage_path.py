"""The solver's per-stage path against the dense stacked oracles.

``solve_ocp`` and ``qlmpc_iterate`` work on per-stage data only; the
dense stacked matrices (G, the KKT matrix, the SQP step) are kept as
independent oracles.  The property tests check the stage data against a
per-stage loop over the model closures, and the stage-wise multipliers
and residual against the dense oracles, at arbitrary points; the guard
tests check that the solver never calls the dense oracles and evaluates
each model closure once per trajectory, not once per stage.
"""

import collections
import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

import qlmpc as q
import qlmpc.condensing as condensing
import qlmpc.solver as solver
import qlmpc.stacked as stacked
from qlmpc.condensing import stage_multipliers
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


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("name", MODELS)
def test_stage_multipliers_match_dense_least_squares(problems, name, variant):
    prob = problems[name]

    @settings(max_examples=25, deadline=None)
    @given(points(prob.n_y))
    def check(y):
        lam = stage_multipliers(prob, stage_data(prob, y, variant), y)
        ref = q.recover_multipliers(prob, dense_constraint(prob, y, variant), y)
        assert np.abs(lam - ref).max() <= 1e-9 * np.abs(ref).max()

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
              "kkt_matrix", "fonc_residual", "true_fonc_residual", "fonc_jacobian"),
    condensing: ("recover_multipliers",),
    solver: ("sqp_step",),
}


def test_solver_calls_no_dense_stacked_function(monkeypatch, unicycle_problem, unicycle_x0):
    def forbidden(*args, **kwargs):
        raise AssertionError("dense stacked algebra called on the solver path")

    for module, names in DENSE.items():
        for name in names:
            monkeypatch.setattr(module, name, forbidden)
            if hasattr(solver, name):
                monkeypatch.setattr(solver, name, forbidden)

    prob, x0 = unicycle_problem, unicycle_x0
    y0 = q.initial_guess(prob, x0)
    for variant in VARIANTS:
        for mode in ("converge", "real_time_single_iteration"):
            tr = q.solve_ocp(prob, x0, y0, q.SolverOptions(variant=variant, mode=mode))
            assert tr.iterations >= 1 and np.all(np.isfinite(tr.final.stack()))
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
