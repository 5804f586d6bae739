"""The solver's per-stage path against the dense stacked oracles.

``solve_ocp`` and ``qlmpc_iterate`` work on per-stage data only; the
dense stacked matrices (G, the KKT matrix, the SQP step) are kept as
independent oracles.  The property tests check the stage data against a
per-stage loop over the model closures and the stage-wise residual
against the dense oracle at arbitrary points, and the stage-wise
multipliers against the dense oracle at QP solutions; the guard
tests check that the solver never calls the dense oracles, evaluates
each model closure once per trajectory, not once per stage, solves a
real-time step from one stage-data evaluation without multipliers or a
residual, and that the certificate loop evaluates stage data once per
iterate.  A warm-started real-time closed-loop step evaluates the model
for its stage data and the plant only: the warm shift needs no model,
because the first QP never reads the guess's terminal state.  A
closed-loop step checks its data once per solve, not once per QP.
"""

import collections
import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

import qlmpc as q
import qlmpc.condensing as condensing
import qlmpc.models as models
import qlmpc.solver as solver
import qlmpc.stacked as stacked
from qlmpc.condensing import stage_multipliers
from qlmpc.stacked import stage_data, stage_residual

import oracles

VARIANTS = ["standard", "exact"]
MODELS = ["tiny-qlpv", "unicycle", "adip"]


@pytest.fixture(scope="module")
def problems(unicycle_problem, adip_problem):
    unit = q.Weights(Q=np.eye(1), R=np.eye(1), P=np.eye(1))
    tiny = {f"tiny-{kind}": q.StackedProblem.build(models.builtin_tiny(kind), 4, unit)
            for kind in ("lti", "qlpv")}
    return {**tiny, "unicycle": unicycle_problem, "adip": adip_problem}


def points(n):
    return arrays(np.float64, n, elements=st.floats(-3.0, 3.0, allow_subnormal=False))


def dense_constraint(prob, y, variant):
    """The constraint matrix of the QP the variant freezes at y, assembled densely."""
    if variant == "standard":
        return stacked.constraint_matrix(prob, prob.rho_trajectory(y))
    return stacked.linearized_constraint(prob, y)[0]


def looped_stage_data(prob, y, variant):
    """Stage data from one call of each model closure per stage."""
    m = prob.model
    xs, us = prob.states(y)[:-1], prob.inputs(y)
    if variant == "standard":
        rhos = [m.rho(x, u) for x, u in zip(xs, us)]
        a = np.array([m.a_of_rho(r) for r in rhos])
        return a, np.array([m.b_of_rho(r) for r in rhos]), np.zeros(xs.shape)
    jac = np.array([m.stage_jacobian(x, u)[1] for x, u in zip(xs, us)])
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
@pytest.mark.parametrize("name", ["tiny-lti", *MODELS])
def test_stage_multipliers_match_dense_least_squares(problems, name, variant):
    # at a QP solution the stationarity system is consistent, so the
    # recursion's multipliers are the dense least-squares ones; P = 0
    # leaves the QP to condensing, P = Q to the range-space solve
    base = problems[name]
    weights = dataclasses.replace(base.weights, P=np.zeros_like(base.weights.P))
    singular = dataclasses.replace(base, weights=weights)

    @settings(max_examples=25, deadline=None)
    @given(points(base.n_y), points(base.n_x), st.booleans())
    def check(y, x0, singular_p):
        prob = singular if singular_p else base
        assert (prob.inverse_weights is None) == singular_p
        step = solver._step(solver.TraceEntry((prob, x0, variant), y))
        ref = oracles.recover_multipliers(prob, dense_constraint(prob, y, variant), step.y)
        scale = max(np.abs(ref).max(), np.abs(2.0 * prob.weight_matrix @ step.y).max())
        assert np.abs(step.z.lam - ref).max() <= 1e-9 * scale

    check()


# A tiny-qlpv (N = 4) point with x_0 = 1.1e-76, x_4 = 1 and x_1 = x_2 =
# x_3 = 0, so A_1 = A_2 = A_3 = 0: the recursion gives
# lam = [-2 x_0, 0, 0, 0, -2 x_4], each entry to its own scale, although
# the entries lie 76 decades apart.
TINY_SMALL_Y = np.array([1.1244175e-76, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0])


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("name", ["tiny-lti", *MODELS])
def test_stage_multipliers_zero_the_state_rows(problems, name, variant):
    # at any y the recursion solves the state rows of stationarity; only
    # the input rows keep a residual
    prob = problems[name]

    @settings(max_examples=25, deadline=None)
    @given(points(prob.n_y))
    def check(y):
        stages = stage_data(prob, y, variant)
        lam = stage_multipliers(prob, stages, y)
        if np.array_equal(y, TINY_SMALL_Y):
            exact = np.zeros(prob.n_eq)
            exact[[0, -1]] = -2.0 * y[[0, prob.n_eq - 1]]
            np.testing.assert_allclose(lam, exact, rtol=1e-12, atol=0.0)
        stat_x, _ = stacked.stage_stationarity(prob, stages, y, lam)
        scale = max(np.abs(lam).max(), np.abs(2.0 * prob.weight_matrix @ y).max())
        assert np.abs(stat_x).max() <= 1e-12 * scale

    if name == "tiny-qlpv":
        check = example(TINY_SMALL_Y)(check)
    check()


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("name", MODELS)
def test_stage_residual_matches_dense_residual(problems, name, variant):
    prob = problems[name]
    dense = stacked.fonc_residual if variant == "standard" else stacked.true_fonc_residual

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
              "fonc_residual", "true_fonc_residual", "sqp_step"),
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
        # one stage-data evaluation: every closure it uses runs once, and
        # the exact variant uses stage_jacobian alone
        if variant == "exact":
            assert calls == {"stage_jacobian": 1}
        else:
            assert calls == {"rho": 1, "a_of_rho": 1, "b_of_rho": 1}
        assert np.array_equal(tr.iterates[-1].y, expected[variant])


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("name", ["tiny-lti", "tiny-qlpv", "unicycle", "adip"])
def test_first_qp_ignores_the_guess_terminal_state(problems, name, variant):
    # the stage data read stages 0..N-1 only; warm_shift relies on this
    # when it duplicates the last state instead of rolling the model on
    prob = problems[name]
    rng = np.random.default_rng(11)
    for mode in ("real_time_single_iteration", "converge"):
        opts = q.SolverOptions(variant=variant, mode=mode, max_iter=1)
        for _ in range(5):
            y0 = 0.5 * rng.normal(size=prob.n_y)
            x0 = rng.normal(size=prob.n_x)
            moved = y0.copy()
            prob.states(moved)[-1] += rng.normal(size=prob.n_x)
            first = q.solve_ocp(prob, x0, y0, opts).iterates[1].y
            assert first.tobytes() == q.solve_ocp(prob, x0, moved, opts).iterates[1].y.tobytes()


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("name", ["adip", "unicycle"])
def test_warm_started_real_time_step_evaluates_stage_data_and_plant_only(
        name, variant, adip_problem, adip_x0, unicycle_problem, unicycle_x0):
    base, x0 = {"adip": (adip_problem, adip_x0), "unicycle": (unicycle_problem, unicycle_x0)}[name]
    calls = collections.Counter()
    prob = q.StackedProblem.build(counted(base.model, calls), base.n_horizon, base.weights)
    q.warm_shift(prob, q.initial_guess(base, x0), x0)
    assert not calls
    rti = q.SolverOptions(variant=variant, mode="real_time_single_iteration")
    totals = []
    for steps in (1, 2):
        calls.clear()
        states = q.run_control_loop(prob, x0, steps, rti)[0]
        assert len(states) == steps + 1
        totals.append(calls.copy())
    # the second step is warm-started: one stage-data evaluation, one plant step
    plant = collections.Counter(rho=1, a_of_rho=1, b_of_rho=1)
    stage = collections.Counter(stage_jacobian=1) if variant == "exact" else plant
    assert totals[1] - totals[0] == plant + stage


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("name", ["adip", "unicycle", "adip-p0", "unicycle-p0"])
def test_converge_step_validates_its_data_once_per_solve(monkeypatch, name, variant, adip_problem,
                                                        adip_x0, unicycle_problem, unicycle_x0):
    # solve_ocp checks x0 once; its QPs take the checked x0 as it is, so a
    # closed-loop step's vector checks do not grow with its iteration count.
    # With P = 0 there are no inverse weights and every QP condenses.
    prob, x0 = {"adip": (adip_problem, adip_x0),
                "unicycle": (unicycle_problem, unicycle_x0)}[name.removesuffix("-p0")]
    if name.endswith("-p0"):
        weights = dataclasses.replace(prob.weights, P=np.zeros_like(prob.weights.P))
        prob = dataclasses.replace(prob, weights=weights)
        assert prob.inverse_weights is None
    checks = []
    as_vector = models._as_vector

    def counted_as_vector(*args):
        checks.append(None)
        return as_vector(*args)

    monkeypatch.setattr(models, "_as_vector", counted_as_vector)
    monkeypatch.setattr(stacked, "_as_vector", counted_as_vector)
    counts, iterations = [], []
    for max_iter in (1, 3):
        checks.clear()
        opts = q.SolverOptions(variant=variant, max_iter=max_iter, stop_tol=1e-300)
        _, _, stats, fail_step, _ = q.run_control_loop(prob, x0, 2, opts)
        assert fail_step is None
        counts.append(len(checks))
        iterations.append(sum(s.iterations for s in stats))
    assert iterations[0] == 2 and iterations[1] >= 4
    assert counts[0] == counts[1]


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("name", ["adip", "unicycle"])
def test_certificate_trace_runs_model_closures_once_per_iterate(name, variant, adip_problem,
                                                                 adip_x0, unicycle_problem,
                                                                 unicycle_x0):
    base, x0 = {"adip": (adip_problem, adip_x0), "unicycle": (unicycle_problem, unicycle_x0)}[name]
    calls = collections.Counter()
    prob = q.StackedProblem.build(counted(base.model, calls), base.n_horizon, base.weights)
    tr = oracles.certificate_trace(prob, x0, q.initial_guess(base, x0), 1e-9, 50, variant)
    assert tr.iterations >= 2
    # the residual and the next QP of an iterate share its one stage-data evaluation
    assert max(calls.values()) == len(tr.iterates)
