"""The solver's per-stage path against the dense stacked oracles.

``solve_ocp`` and ``qlmpc_iterate`` work on per-stage data only; the
dense stacked matrices (G, the KKT matrix, the SQP step) are kept as
independent oracles.  The property tests check the stage data against a
per-stage loop over the model closures, the stage-wise residual and the
paper's ``e`` against the dense oracles at arbitrary points, and the
stage-wise multipliers against the dense oracle at QP solutions; the
band SQP step agrees with the dense one to within the KKT matrix's
conditioning.  The guard tests check that the solver never calls the
SQP cross-check or computes ``e``, evaluates each model closure once
per trajectory, not once per stage, solves a real-time step from one
stage-data evaluation without multipliers or a residual, and that the
certificate loop evaluates stage data once per iterate, and the
perturbed-fixpoint report each variant's once.  A warm-started real-time
closed-loop step evaluates the model for its stage data and the plant
only: the warm shift needs no model, because the first QP never reads
the guess's terminal state.  A closed-loop step checks its data once
per solve, not once per QP.
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
        return oracles.constraint_matrix(prob, prob.rho_trajectory(y))
    return oracles.linearized_constraint(prob, y)[0]


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


def condensing_misses(n_y, n_x):
    """The two ADIP points (y, x0) of a seeded sweep at which condensing's
    multipliers missed the bound of the test below, by 1.74x and 1.15x,
    while ``solve_condensed`` did not refine its solution: draws 1735 and
    3377 of ``np.random.default_rng(0)``, each a y and then an x0, the even
    draws picking entries from edge values and the odd ones uniform in [-3, 3]."""
    rng = np.random.default_rng(0)

    def draw(i, n):
        return rng.choice([3, -3, 1, -1, 0, 2.5, 1e-5], n) if i % 2 == 0 else rng.uniform(-3, 3, n)

    draws = [(draw(i, n_y), draw(i, n_x)) for i in range(3378)]
    return [draws[1735], draws[3377]]


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
        scale = max(np.abs(ref).max(), np.abs(2.0 * oracles.weight_matrix(prob) @ step.y).max())
        assert np.abs(step.z.lam - ref).max() <= 1e-9 * scale

    if (name, variant) == ("adip", "exact"):
        for y, x0 in condensing_misses(base.n_y, base.n_x):
            check = example(y, x0, True)(check)
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
        scale = max(np.abs(lam).max(), np.abs(2.0 * oracles.weight_matrix(prob) @ y).max())
        assert np.abs(stat_x).max() <= 1e-12 * scale

    if name == "tiny-qlpv":
        check = example(TINY_SMALL_Y)(check)
    check()


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("name", MODELS)
def test_stage_residual_matches_dense_residual(problems, name, variant):
    prob = problems[name]
    dense = oracles.fonc_residual if variant == "standard" else oracles.true_fonc_residual

    @settings(max_examples=25, deadline=None)
    @given(points(prob.n_y), points(prob.n_eq), points(prob.n_x))
    def check(y, lam, x0):
        z = q.KktPoint(y, lam)
        res = stage_residual(prob, stage_data(prob, y, variant), z, x0)
        ref = float(np.max(np.abs(dense(prob, z, x0))))
        assert abs(res - ref) <= 1e-12 * max(1.0, ref)

    check()


@pytest.mark.parametrize("horizon", [1, 7, 40])
@pytest.mark.parametrize("name", ["tiny-lti", *MODELS])
def test_stage_wise_cost_perturbation_matches_dense_oracle(name, horizon):
    # e_k = (J^ex_k - J^std_k)' lam_{k+1} against the dense -corr(y)' lam,
    # relative to the size of the terms summed: a draw whose terms cancel
    # leaves e far below them
    prob = q.StackedProblem.build(q.get_model(name), horizon, q.builtin_scenario(name).weights)
    rng = np.random.default_rng(horizon)
    for _ in range(20):
        y, lam = rng.normal(size=prob.n_y), rng.normal(size=prob.n_eq)
        e = stacked.cost_perturbation(prob, stage_data(prob, y, "exact"),
                                      stage_data(prob, y, "standard"), lam)
        ref = oracles.cost_perturbation(prob, y, lam)
        assert e.shape == ref.shape and not e[prob.n_eq - prob.n_x:prob.n_eq].any()
        if name == "tiny-lti":
            assert not e.any() and not ref.any()
        scale = (np.abs(oracles.coupling_correction(prob, y)).T @ np.abs(lam)).max()
        assert np.abs(e - ref).max() <= 1e-14 * scale


@pytest.mark.parametrize("name", ["tiny-lti", *MODELS])
def test_band_sqp_step_matches_the_dense_oracle(problems, name):
    # two backward-stable solves of one system agree to within its
    # conditioning: 1e-12 (1 + |z|) where the KKT matrix is well conditioned
    # (tiny models, unicycle: cond <= 3.4e3), 4 eps cond (1 + |z|) on ADIP,
    # whose KKT matrix has cond 1.2e9 to 2.6e9 at these points
    prob = problems[name]
    rng = np.random.default_rng(5)
    for _ in range(20):
        z = q.KktPoint(rng.standard_normal(prob.n_y), rng.standard_normal(prob.n_eq))
        x0 = rng.standard_normal(prob.n_x)
        jac, _ = oracles.linearized_constraint(prob, z.y)
        cond = np.linalg.cond(oracles._kkt(prob, jac.T, jac), np.inf)
        tol = max(1e-12, 4.0 * np.finfo(float).eps * cond) * (1.0 + np.abs(z.stack()).max())
        got = stacked.sqp_step(prob, z, x0).stack()
        assert np.abs(got - oracles.sqp_step(prob, z, x0).stack()).max() <= tol


@pytest.mark.parametrize("horizon", [1, 2, 7, 40])
@pytest.mark.parametrize("name", ["tiny-lti", *MODELS])
def test_saddle_point_band_is_the_dense_kkt_matrix_in_stage_order(monkeypatch, name, horizon):
    # the band that sqp_step hands dgbsv, expanded, is the dense oracle's
    # [[2W, G'], [G, 0]] of the exact stage data with its unknowns permuted
    # into (lam_0, x_0, u_0, ..., lam_N, x_N), bit for bit; dgbsv's fill rows are 0
    prob = q.StackedProblem.build(q.get_model(name), horizon, q.builtin_scenario(name).weights)
    n, n_x, n_u = prob.n_horizon, prob.n_x, prob.n_u
    rng = np.random.default_rng(horizon)
    y = rng.standard_normal(prob.n_y)
    bands = []

    def dgbsv(kl, ku, ab, b, **kwargs):
        bands.append(ab.copy())
        return stacked_dgbsv(kl, ku, ab, b, **kwargs)

    stacked_dgbsv = stacked.dgbsv
    monkeypatch.setattr(stacked, "dgbsv", dgbsv)
    stacked.sqp_step(prob, q.KktPoint(y, np.zeros(prob.n_eq)), rng.standard_normal(n_x))
    [band] = bands

    g = oracles._assemble_g(prob, stage_data(prob, y, "exact"))
    xs, us = np.arange(prob.n_eq), np.arange(prob.n_eq, prob.n_y)
    lam = prob.n_y + np.arange(prob.n_eq)
    order = np.concatenate([np.r_[lam[k * n_x:(k + 1) * n_x], xs[k * n_x:(k + 1) * n_x],
                                  us[k * n_u:(k + 1) * n_u]] for k in range(n + 1)])
    dense = oracles._kkt(prob, g.T, g)[np.ix_(order, order)]
    bw, size = 2 * n_x + n_u - 1, len(order)
    assert band.shape == (3 * bw + 1, size) and not band[:bw].any()
    expanded = np.zeros((size, size))
    for off in range(-bw, bw + 1):  # off = i - j
        j = np.arange(max(0, -off), min(size, size - off))
        expanded[j + off, j] = band[2 * bw + off, j]
    assert expanded.tobytes() == dense.tobytes()


DENSE = {
    stacked: ("sqp_step", "cost_perturbation"),
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


@pytest.mark.parametrize("name", ["adip", "unicycle"])
def test_perturbation_report_evaluates_each_variant_s_stage_data_once(name):
    # the final entry of a residual-stopped trace holds the standard stages
    # already; the report adds one exact stage-data evaluation and equals
    # a report that evaluates the standard stages afresh, bitwise
    scn = q.builtin_scenario(name)
    calls = collections.Counter()
    prob = q.StackedProblem.build(counted(scn.problem.model, calls), scn.problem.n_horizon,
                                  scn.weights)
    tr = oracles.certificate_trace(prob, scn.x0, q.initial_guess(prob, scn.x0), 1e-8, 300)
    assert tr.converged
    calls.clear()
    rep = q.verify_fixpoint_perturbation(prob, tr, scn.x0)
    assert calls == {"stage_jacobian": 1}
    last = tr.iterates[-1]
    fresh = solver.TraceEntry(last.solve, last.y, last.frozen, last.qp_time)
    ref = q.verify_fixpoint_perturbation(prob, q.IterateTrace([fresh], True), scn.x0)
    assert calls == {"stage_jacobian": 2, "rho": 1, "a_of_rho": 1, "b_of_rho": 1}
    for got, want in zip(dataclasses.astuple(rep), dataclasses.astuple(ref)):
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes()
