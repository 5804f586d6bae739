import time
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from numpy.testing import assert_allclose

import qlmpc as q
import qlmpc.condensing as condensing
import qlmpc.models as models
import qlmpc.solver as solver
import qlmpc.stacked as stacked

import oracles
from oracles import certificate_trace


class TestInitialGuess:
    def test_zero_state_gives_zero_vector(self, tiny_lti_problem):
        assert np.all(q.initial_guess(tiny_lti_problem, [0.0]) == 0.0)

    def test_tiny_lti_rollout_is_constant(self):
        m = models.builtin_tiny("lti")
        prob = q.StackedProblem.build(m, 2, q.Weights(Q=np.eye(1), R=np.eye(1), P=np.eye(1)))
        assert_allclose(q.initial_guess(prob, [1.0]), [1.0, 1.0, 1.0, 0.0, 0.0])

    def test_unicycle_at_rest_stays_put(self, unicycle_problem, unicycle_x0):
        y = q.initial_guess(unicycle_problem, unicycle_x0)
        xs = unicycle_problem.states(y)
        for k in range(21):
            assert_allclose(xs[k], unicycle_x0)
        assert np.all(unicycle_problem.inputs(y) == 0.0)

    def test_rollout_is_feasible(self, unicycle_problem, unicycle_x0):
        y = q.initial_guess(unicycle_problem, unicycle_x0)
        g = oracles.constraint_matrix(unicycle_problem, unicycle_problem.rho_trajectory(y))
        resid = g @ y + oracles.x0_map(unicycle_problem) @ unicycle_x0
        assert np.abs(resid).max() <= 1e-12


def stacked_shift(prob, y_prev, x0hat_new):
    """The shift built stage by stage from states and inputs (test oracle)."""
    n = prob.n_horizon
    xs, us = prob.states(y_prev), prob.inputs(y_prev)
    xs_new = np.vstack([x0hat_new, xs[2:], xs[n]])
    us_new = np.vstack([us[1:], us[n - 1]])
    return np.concatenate([xs_new.ravel(), us_new.ravel()])


class TestWarmShift:
    def test_zeros_shift_to_zeros(self, tiny_lti_problem):
        assert np.all(q.warm_shift(tiny_lti_problem, np.zeros(3), [0.0]) == 0.0)

    def test_tiny_lti_shift_rule(self):
        m = models.builtin_tiny("lti")
        prob = q.StackedProblem.build(m, 2, q.Weights(Q=np.eye(1), R=np.eye(1), P=np.eye(1)))
        y_prev = np.array([1.0, 0.5, 0.25, -0.5, -0.25])
        shifted = q.warm_shift(prob, y_prev, [0.5])
        assert_allclose(shifted, [0.5, 0.25, 0.25, -0.25, -0.25])

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.floats(-10, 10), min_size=5, max_size=5), st.floats(-10, 10))
    def test_shift_preserves_length(self, vals, x0_new):
        m = models.builtin_tiny("qlpv")
        prob = q.StackedProblem.build(m, 2, q.Weights(Q=np.eye(1), R=np.eye(1), P=np.eye(1)))
        shifted = q.warm_shift(prob, np.array(vals), [x0_new])
        assert shifted.shape == (5,)
        assert shifted[0] == x0_new

    @pytest.mark.parametrize("name,horizon", [("unicycle", 20), ("adip", 40), ("unicycle", 1),
                                              ("adip", 1), ("tiny-qlpv", 1)])
    def test_equals_stacked_shift(self, name, horizon):
        m = q.get_model(name)
        w = q.Weights(Q=np.eye(m.dims.n_x), R=np.eye(m.dims.n_u), P=np.eye(m.dims.n_x))
        prob = q.StackedProblem.build(m, horizon, w)
        rng = np.random.default_rng(horizon)
        for _ in range(5):
            y_prev, x0 = 0.1 * rng.normal(size=prob.n_y), rng.normal(size=prob.n_x)
            shifted = q.warm_shift(prob, y_prev, x0)
            assert shifted.dtype == np.float64
            assert shifted.tobytes() == stacked_shift(prob, y_prev, x0).tobytes()


class TestSolverOptions:
    def test_defaults(self):
        opts = q.SolverOptions()
        assert opts.variant == "standard" and opts.mode == "converge"

    @pytest.mark.parametrize("kwargs", [
        dict(variant="fast"),
        dict(mode="sometimes"),
        dict(max_iter=0),
        dict(stop_tol=0.0),
        dict(max_iter=2.5),
        dict(max_iter=True),
        dict(max_iter=np.True_),
        dict(stop_tol=True),
        dict(stop_tol=np.inf),
        dict(stop_tol=np.nan),
        dict(stop_tol="1e-6"),
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            q.SolverOptions(**kwargs)

    def test_numpy_integer_max_iter(self):
        assert q.SolverOptions(max_iter=np.int64(3)).max_iter == 3

    def test_numpy_and_integer_stop_tol(self):
        assert q.SolverOptions(stop_tol=np.float32(1e-3)).stop_tol == np.float32(1e-3)
        assert q.SolverOptions(stop_tol=1).stop_tol == 1


class TestIterate:
    def test_tiny_lti_one_iterate_hits_optimum(self, tiny_lti_problem):
        z0 = q.KktPoint(np.array([5.0, -2.0, 1.0]), np.zeros(2))
        z1 = q.qlmpc_iterate(tiny_lti_problem, z0, [1.0], "standard")
        assert_allclose(z1.y, [1.0, 0.5, -0.5], atol=1e-12)
        assert_allclose(z1.lam, [-3.0, -1.0], atol=1e-12)

    def test_tiny_qlpv_fixpoint_in_one_iterate(self, tiny_qlpv_problem):
        # rho_0 = x_0 is pinned by the initial condition, so the first
        # QP already freezes the right parameter
        y0 = q.initial_guess(tiny_qlpv_problem, [0.5])
        z1 = q.qlmpc_iterate(tiny_qlpv_problem, q.KktPoint(y0, np.zeros(2)), [0.5], "standard")
        assert_allclose(z1.y, [0.5, 0.125, -0.125], atol=1e-12)

    def test_lti_variants_agree(self, tiny_lti_problem):
        rng = np.random.default_rng(0)
        z0 = q.KktPoint(rng.normal(size=3), rng.normal(size=2))
        a = q.qlmpc_iterate(tiny_lti_problem, z0, [1.0], "standard")
        b = q.qlmpc_iterate(tiny_lti_problem, z0, [1.0], "exact")
        c = stacked.sqp_step(tiny_lti_problem, z0, [1.0])
        assert_allclose(a.stack(), b.stack(), atol=1e-12)
        assert_allclose(a.stack(), c.stack(), atol=1e-10)

    @pytest.mark.parametrize("bad", ["y", "x0"])
    def test_nonfinite_start_raises_before_any_qp(self, monkeypatch, unicycle_problem,
                                                   unicycle_x0, bad):
        # the start's check, as in solve_ocp: no QP is built from a NaN y or an inf x0
        prob, x0 = unicycle_problem, np.array(unicycle_x0, dtype=float)
        y = q.initial_guess(prob, x0)
        if bad == "y":
            y[5] = np.nan
        else:
            x0[1] = np.inf
        solved = []
        for name in ("solve_range_space", "condense"):
            monkeypatch.setattr(solver, name, lambda *args, name=name, run=getattr(solver, name):
                                solved.append(name) or run(*args))
        with pytest.raises(q.SolverError, match="non-finite initial data"):
            q.qlmpc_iterate(prob, q.KktPoint(y, np.zeros(prob.n_eq)), x0, "exact")
        assert solved == []

    def test_unknown_variant(self, tiny_lti_problem):
        with pytest.raises(ValueError):
            q.qlmpc_iterate(tiny_lti_problem, q.KktPoint(np.zeros(3), np.zeros(2)), [0.0], "best")


@pytest.mark.parametrize("name,horizon", [("unicycle", 20), ("tiny-qlpv", 3)])
def test_sqp_step_equals_exact_iterate(name, horizon):
    m = q.get_model(name)
    w = q.Weights(Q=np.eye(m.dims.n_x), R=np.eye(m.dims.n_u), P=np.eye(m.dims.n_x))
    prob = q.StackedProblem.build(m, horizon, w)
    rng = np.random.default_rng(123)
    x0 = rng.normal(size=m.dims.n_x)
    for _ in range(25):
        z = q.KktPoint(rng.standard_normal(prob.n_y), rng.standard_normal(prob.n_eq))
        a = stacked.sqp_step(prob, z, x0)
        b = q.qlmpc_iterate(prob, z, x0, "exact")
        dev = np.abs(a.stack() - b.stack()).max()
        assert dev <= 1e-9 * (1.0 + np.abs(z.stack()).max())


def test_sqp_step_is_fixed_at_exact_fixpoint(unicycle_problem, unicycle_x0):
    tr = q.solve_ocp(unicycle_problem, unicycle_x0, q.initial_guess(unicycle_problem, unicycle_x0),
                     q.SolverOptions(variant="exact", stop_tol=1e-11, max_iter=60))
    assert tr.converged
    z = tr.final
    z_next = stacked.sqp_step(unicycle_problem, z, unicycle_x0)
    assert np.abs(z_next.y - z.y).max() <= 1e-9

def _qp_path_problem(path, pd_problem):
    """A problem whose QPs take the given path: the positive definite preset
    solves in range space, and with a singular Q it is left to condensing."""
    if path == "range_space":
        return pd_problem
    w = pd_problem.weights
    q_psd = np.diag(np.diag(w.Q) * (np.arange(pd_problem.n_x) > 0))
    return q.StackedProblem.build(pd_problem.model, pd_problem.n_horizon,
                                  q.Weights(Q=q_psd, R=w.R, P=w.P))


def _inject_nonfinite_solution(monkeypatch, path, prob, from_call):
    """Make the path's QP solutions non-finite from the given call on."""
    calls = []
    if path == "range_space":
        solve = solver.solve_range_space

        def injected(*args):
            calls.append(None)
            y = solve(*args)
            return y if len(calls) < from_call else np.full_like(y, np.inf)

        def condense(*args):
            raise AssertionError("a positive definite QP was condensed")

        monkeypatch.setattr(solver, "solve_range_space", injected)
        monkeypatch.setattr(solver, "condense", condense)
    else:
        # no inverse weights: solve_range_space hands every QP to condensing
        assert prob.inverse_weights is None
        expand = solver.expand

        def injected(qp, u):
            calls.append(None)
            y = expand(qp, u)
            return y if len(calls) < from_call else np.full_like(y, np.inf)

        monkeypatch.setattr(solver, "expand", injected)


class TestSolveOcp:
    def test_lti_converges_in_one_iteration(self):
        m = models.builtin_tiny("lti")
        prob = q.StackedProblem.build(m, 3, q.Weights(Q=np.eye(1), R=np.eye(1), P=np.eye(1)))
        tr = q.solve_ocp(prob, [1.0], q.initial_guess(prob, [1.0]), q.SolverOptions())
        assert tr.converged and tr.iterations == 1

    def test_general_lti_converges_in_one_iteration(self):
        # a non-scalar LTI instance exercises the same degeneration
        rng = np.random.default_rng(5)
        a = rng.normal(size=(3, 3)) * 0.4
        b = rng.normal(size=(3, 2))
        m = q.LpvModel(
            name="lti3", dims=q.ModelDims(3, 2, 1),
            rho=lambda x, u: np.zeros(1),
            a_of_rho=lambda r: a, b_of_rho=lambda r: b,
            stage_jacobian=lambda x, u: (x @ a.T + u @ b.T, np.hstack([a, b])),
        )
        prob = q.StackedProblem.build(m, 4, q.Weights(Q=np.eye(3), R=np.eye(2), P=np.eye(3)))
        # the standard stage data repeats bitwise, which ends the loop; the
        # exact offset w rounds differently at each iterate, so its loop
        # takes a second, rounding-sized step to stop on the bound
        for variant, most in (("standard", 1), ("exact", 2)):
            tr = q.solve_ocp(prob, [1.0, -2.0, 0.5], q.initial_guess(prob, [1.0, -2.0, 0.5]),
                             q.SolverOptions(variant=variant))
            assert tr.converged and 1 <= tr.iterations <= most
            first = tr.iterates[1].y
            assert np.abs(tr.iterates[-1].y - first).max() <= 1e-12 * (1.0 + np.abs(first).max())

    def test_exact_variant_unicycle_converges(self, unicycle_problem, unicycle_x0):
        y0 = q.initial_guess(unicycle_problem, unicycle_x0)
        tr = q.solve_ocp(unicycle_problem, unicycle_x0, y0,
                         q.SolverOptions(variant="exact", stop_tol=1e-8, max_iter=50))
        assert tr.converged
        # the stop is within tol of the residual-certified fixpoint
        ref = certificate_trace(unicycle_problem, unicycle_x0, y0, 1e-12, 400, "exact")
        assert ref.converged
        y = tr.iterates[-1].y
        assert np.abs(y - ref.final.y).max() <= 1e-8 * (1.0 + np.abs(y).max())

    def test_exact_fixpoint_satisfies_true_fonc(self, unicycle_problem, unicycle_x0):
        tol = 1e-8
        tr = q.solve_ocp(unicycle_problem, unicycle_x0, q.initial_guess(unicycle_problem, unicycle_x0),
                         q.SolverOptions(variant="exact", stop_tol=tol, max_iter=50))
        r = oracles.true_fonc_residual(unicycle_problem, tr.final, unicycle_x0)
        assert np.abs(r).max() <= 10 * tol

    def test_standard_fixpoint_feasible_but_perturbed(self, unicycle_problem, unicycle_x0):
        tol = 1e-8
        tr = q.solve_ocp(unicycle_problem, unicycle_x0, q.initial_guess(unicycle_problem, unicycle_x0),
                         q.SolverOptions(variant="standard", stop_tol=tol, max_iter=50))
        assert tr.converged
        r = oracles.fonc_residual(unicycle_problem, tr.final, unicycle_x0)
        assert np.abs(r).max() <= tol
        feas = r[unicycle_problem.n_y:]
        assert np.abs(feas).max() <= tol
        # true stationarity stays pinned at -e, which is far above tol here
        true_stat = oracles.true_fonc_residual(unicycle_problem, tr.final,
                                               unicycle_x0)[:unicycle_problem.n_y]
        prob, y = unicycle_problem, tr.final.y
        e = stacked.cost_perturbation(prob, stacked.stage_data(prob, y, "exact"),
                                      stacked.stage_data(prob, y, "standard"), tr.final.lam)
        assert np.abs(e).max() > 1e3 * tol
        assert_allclose(true_stat, -e, atol=1e-8)

    @pytest.mark.parametrize("variant", ["standard", "exact"])
    def test_monotone_residual_tail_unicycle(self, unicycle_problem, unicycle_x0, variant):
        tr = q.solve_ocp(unicycle_problem, unicycle_x0, q.initial_guess(unicycle_problem, unicycle_x0),
                         q.SolverOptions(variant=variant, stop_tol=1e-8, max_iter=50))
        res = np.array([e.fonc_inf for e in tr.iterates])
        assert np.all(res[2:] < res[1:-1])

    @pytest.mark.parametrize("variant", ["standard", "exact"])
    def test_monotone_residual_tail_adip(self, adip_problem, adip_x0, variant):
        # a short transient may overshoot; once the contraction region
        # is reached the residual decreases strictly to the tolerance
        tr = q.solve_ocp(adip_problem, adip_x0, q.initial_guess(adip_problem, adip_x0),
                         q.SolverOptions(variant=variant, stop_tol=1e-6, max_iter=60))
        assert tr.converged
        res = np.array([e.fonc_inf for e in tr.iterates])
        start = len(res) - 1
        while start > 0 and res[start - 1] > res[start]:
            start -= 1
        assert start <= 5
        assert len(res) - start >= 0.8 * len(res)

    def test_real_time_mode_always_one_iteration(self, unicycle_problem, unicycle_x0):
        opts = q.SolverOptions(variant="standard", mode="real_time_single_iteration")
        y0 = q.initial_guess(unicycle_problem, unicycle_x0)
        tr = q.solve_ocp(unicycle_problem, unicycle_x0, y0, opts)
        assert tr.iterations == 1
        # even when already converged at the initial point
        tr0 = q.solve_ocp(unicycle_problem, np.zeros(5),
                          np.zeros(unicycle_problem.n_y), opts)
        assert tr0.iterations == 1

    @pytest.mark.parametrize("variant", ["standard", "exact"])
    def test_loop_rule_at_a_converged_point(self, unicycle_problem, unicycle_x0, variant):
        tight = q.SolverOptions(variant=variant, stop_tol=1e-10, max_iter=100)
        start = q.solve_ocp(unicycle_problem, unicycle_x0,
                            q.initial_guess(unicycle_problem, unicycle_x0), tight)
        assert start.converged
        y = start.final.y
        # the step bound needs one QP, which confirms the point and barely moves it
        tr = q.solve_ocp(unicycle_problem, unicycle_x0, y, q.SolverOptions(variant=variant))
        assert tr.iterations == 1 and tr.converged
        assert np.abs(tr.iterates[-1].y - y).max() <= 1e-9
        # real-time mode solves one QP and never reports convergence
        rti = q.SolverOptions(variant=variant, mode="real_time_single_iteration")
        tr = q.solve_ocp(unicycle_problem, unicycle_x0, y, rti)
        assert tr.iterations == 1 and not tr.converged

    @pytest.mark.parametrize("variant", ["standard", "exact"])
    def test_real_time_final_is_the_primal_dual_step(self, unicycle_problem, unicycle_x0,
                                                     variant):
        # a real-time trace computes the multipliers of its QP when read
        y0 = q.initial_guess(unicycle_problem, unicycle_x0)
        rti = q.SolverOptions(variant=variant, mode="real_time_single_iteration")
        tr = q.solve_ocp(unicycle_problem, unicycle_x0, y0, rti)
        z0 = q.KktPoint(y0, np.zeros(unicycle_problem.n_eq))
        z = q.qlmpc_iterate(unicycle_problem, z0, unicycle_x0, variant)
        np.testing.assert_array_equal(tr.final.y, z.y)
        np.testing.assert_array_equal(tr.final.lam, z.lam)
        assert np.isfinite(np.array([e.fonc_inf for e in tr.iterates])).all()

    def test_exact_fixpoint_costs_no_more_than_standard(self, unicycle_problem, unicycle_x0):
        y0 = q.initial_guess(unicycle_problem, unicycle_x0)
        cost = {}
        for variant in ("standard", "exact"):
            tr = q.solve_ocp(unicycle_problem, unicycle_x0, y0,
                             q.SolverOptions(variant=variant, stop_tol=1e-9, max_iter=60))
            assert tr.converged
            y = tr.final.y
            cost[variant] = float(y @ (oracles.weight_matrix(unicycle_problem) @ y))
        assert cost["exact"] <= cost["standard"] + 1e-9

    def test_max_iter_reported_not_raised(self, unicycle_problem, unicycle_x0):
        tr = q.solve_ocp(unicycle_problem, unicycle_x0, q.initial_guess(unicycle_problem, unicycle_x0),
                         q.SolverOptions(variant="exact", stop_tol=1e-12, max_iter=2))
        assert not tr.converged and tr.iterations == 2

    @pytest.mark.parametrize("variant", ["standard", "exact"])
    def test_a_budget_of_m_qps_evaluates_m_stage_data(self, monkeypatch, adip_problem, adip_x0,
                                                      variant):
        # the cap is tested before the same-QP test, so the stage data of a
        # QP that the budget does not run are never built
        calls = []

        def counted_stage_data(*args):
            calls.append(args)
            return stacked.stage_data(*args)

        monkeypatch.setattr(solver, "stage_data", counted_stage_data)
        y0 = q.initial_guess(adip_problem, adip_x0)
        for m in (1, 2, 3, 5):
            calls.clear()
            tr = q.solve_ocp(adip_problem, adip_x0, y0,
                             q.SolverOptions(variant=variant, stop_tol=1e-12, max_iter=m))
            assert not tr.converged and tr.iterations == m
            assert len(calls) == m

    def test_lti_at_a_budget_of_one_qp_is_unconverged(self, tiny_lti_problem):
        # its second QP would repeat the first, but a verdict at the cap
        # comes from the error bound alone
        tr = q.solve_ocp(tiny_lti_problem, [1.0], q.initial_guess(tiny_lti_problem, [1.0]),
                         q.SolverOptions(max_iter=1))
        assert not tr.converged and tr.iterations == 1
        assert q.solve_ocp(tiny_lti_problem, [1.0], q.initial_guess(tiny_lti_problem, [1.0]),
                           q.SolverOptions(max_iter=2)).converged

    def test_wrong_length_initial_guess_raises(self, tiny_lti_problem):
        guess = q.initial_guess(tiny_lti_problem, [1.0])
        with pytest.raises(ValueError, match=r"decision vector must have length 3, got \(2,\)"):
            q.solve_ocp(tiny_lti_problem, [1.0], guess[:-1], q.SolverOptions())

    def test_nonfinite_initial_data_raises(self, tiny_qlpv_problem):
        with pytest.raises(q.SolverError):
            q.solve_ocp(tiny_qlpv_problem, [1e200], q.initial_guess(tiny_qlpv_problem, [1.0]),
                        q.SolverOptions())

    @pytest.mark.parametrize("path", ["range_space", "condensing"])
    def test_nonfinite_qp_solution_raises(self, monkeypatch, path, unicycle_problem,
                                          unicycle_x0):
        prob = _qp_path_problem(path, unicycle_problem)
        _inject_nonfinite_solution(monkeypatch, path, prob, from_call=1)
        y0 = q.initial_guess(prob, unicycle_x0)
        for mode in ("converge", "real_time_single_iteration"):
            with pytest.raises(q.SolverError, match="non-finite"):
                q.solve_ocp(prob, unicycle_x0, y0, q.SolverOptions(mode=mode))
        with pytest.raises(q.SolverError, match="non-finite"):
            q.qlmpc_iterate(prob, q.KktPoint(y0, np.zeros(prob.n_eq)), unicycle_x0)

    @pytest.mark.parametrize("path", ["range_space", "condensing"])
    def test_nonfinite_qp_solution_is_a_failed_step(self, monkeypatch, path, unicycle_problem,
                                                    unicycle_x0):
        # the third QP solution is non-finite: steps 0 and 1 complete
        prob = _qp_path_problem(path, unicycle_problem)
        _inject_nonfinite_solution(monkeypatch, path, prob, from_call=3)
        opts = q.SolverOptions(variant="exact", mode="real_time_single_iteration")
        states, inputs, stats, step, msg = q.run_control_loop(prob, unicycle_x0, 5, opts)
        assert step == 2 and "non-finite" in msg
        assert len(states) == 3 and len(inputs) == len(stats) == 2
        assert np.all(np.isfinite(states))

    def test_trace_bookkeeping(self, tiny_lti_problem):
        tr = q.solve_ocp(tiny_lti_problem, [1.0], q.initial_guess(tiny_lti_problem, [1.0]),
                         q.SolverOptions())
        assert tr.iterations == len(tr.iterates) - 1
        assert tr.iterates[0].qp_time == 0.0
        assert tr.iterates[1].qp_time >= 0.0

    @pytest.mark.parametrize("path, slowed", [("range_space", "solve_range_space"),
                                              ("condensing", "condense")])
    def test_qp_time_covers_the_whole_qp(self, monkeypatch, unicycle_problem, unicycle_x0,
                                         path, slowed):
        # a delay in the range-space solve, or in the condensing of a QP
        # that it hands on, is QP time
        delay = 0.02
        run = getattr(solver, slowed)
        monkeypatch.setattr(solver, slowed, lambda *args: time.sleep(delay) or run(*args))
        prob = _qp_path_problem(path, unicycle_problem)
        entry = solver._start(prob, unicycle_x0, q.initial_guess(prob, unicycle_x0), "exact")
        assert solver._step(entry).qp_time >= delay


def _bounds_and_errors(trace, y_star):
    """The stopping bound k / (1 - k) |dy|_inf at each iterate from the first
    on, recomputed from its definition, and the true error there."""
    ys = [e.y for e in trace.iterates]
    steps = [np.abs(b - a).max() for a, b in zip(ys, ys[1:])]
    bounds = []
    for l in range(1, len(steps) + 1):
        ratios = [steps[i] / steps[i - 1] for i in range(max(1, l - 2), l)]
        k = min(0.9, max(ratios)) if len(ratios) == 2 else 0.9
        bounds.append(k / (1.0 - k) * steps[l - 1])
    return np.array(bounds), np.array([np.abs(y - y_star).max() for y in ys[1:]])


@pytest.mark.parametrize("tol", [1e-5, 1e-6, 1e-10])
def test_step_bound_is_at_least_the_error_on_adip(adip_problem, adip_x0, tol):
    # ADIP step 0: the step ratios alternate between about 0.24 and 0.55, so
    # the last ratio alone would understate the error
    y0 = q.initial_guess(adip_problem, adip_x0)
    y_star = certificate_trace(adip_problem, adip_x0, y0, 1e-12, 400).final.y
    tr = q.solve_ocp(adip_problem, adip_x0, y0, q.SolverOptions(stop_tol=tol, max_iter=100))
    assert tr.converged and tr.iterations >= 3
    bounds, errors = _bounds_and_errors(tr, y_star)
    assert np.all(bounds[2:] >= errors[2:])
    # the loop stops at the first iterate whose bound passes
    sizes = np.array([1.0 + np.abs(e.y).max() for e in tr.iterates[1:]])
    passed = bounds <= tol * sizes
    assert passed[-1] and not np.any(passed[:-1])
    assert errors[-1] <= tol * sizes[-1]


def test_converge_loop_computes_no_multipliers_or_residual(monkeypatch, adip_problem, adip_x0,
                                                           unicycle_problem, unicycle_x0):
    def forbidden(*args, **kwargs):
        raise AssertionError("the converge loop evaluated multipliers or a residual")

    for module in (solver, condensing, stacked):
        for name in ("stage_multipliers", "stage_residual"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, forbidden)
    for prob, x0, variant in ((adip_problem, adip_x0, "standard"),
                              (unicycle_problem, unicycle_x0, "exact")):
        opts = q.SolverOptions(variant=variant, mode="converge")
        _, inputs, stats, fail_step, _ = q.run_control_loop(prob, x0, 20, opts)
        assert fail_step is None and len(inputs) == 20
        assert all(s.converged for s in stats)


@pytest.mark.parametrize("variant", ["standard", "exact"])
def test_trace_values_read_on_demand_equal_the_certificate_loop(adip_problem, adip_x0, variant):
    # a converge trace computes lam and the residual only when read, from
    # the stage data the loop built; they equal the residual-stopped loop's
    y0 = q.initial_guess(adip_problem, adip_x0)
    tr = q.solve_ocp(adip_problem, adip_x0, y0, q.SolverOptions(variant=variant, max_iter=100))
    cert = certificate_trace(adip_problem, adip_x0, y0, 1e-15, tr.iterations, variant)
    assert len(cert.iterates) == len(tr.iterates)
    for a, b in zip(tr.iterates, cert.iterates):
        np.testing.assert_array_equal(a.y, b.z.y)
        np.testing.assert_array_equal(a.z.lam, b.z.lam)
        assert a.fonc_inf == b.fonc_inf


@st.composite
def far_warm_starts(draw):
    """A model, a variant, an x0 in the unit box and a warm start whose
    unit-box entries are scaled by 10^0 to 10^300, at horizon 3."""
    name = draw(st.sampled_from(models.MODEL_IDS))
    dims = q.get_model(name).dims
    n_y = 4 * dims.n_x + 3 * dims.n_u
    unit = st.floats(-1.0, 1.0)
    return (name, draw(st.sampled_from(stacked.VARIANTS)),
            draw(st.lists(unit, min_size=dims.n_x, max_size=dims.n_x)),
            10.0 ** draw(st.floats(0.0, 300.0)) * np.array(draw(st.lists(unit, min_size=n_y,
                                                                         max_size=n_y))))


@settings(max_examples=150, deadline=None)
@given(far_warm_starts())
# x^2 of tiny-qlpv overflows; ADIP's Coriolis term squares a velocity of 1e160
@example(("tiny-qlpv", "exact", [0.5], np.full(7, 1e200)))
@example(("adip", "exact", [0.1, 0.0, 0.0, 0.0], np.eye(1, 19, 3)[0] * 1e160))
def test_model_closures_that_overflow_end_in_a_solver_error(case):
    # the model closures run inside the stage data's one floating-point
    # guard: a far warm start gives finite iterates or a SolverError, and
    # no warning escapes
    name, variant, x0, y = case
    m = q.get_model(name)
    prob = q.StackedProblem.build(m, 3, q.Weights(Q=np.eye(m.dims.n_x), R=np.eye(m.dims.n_u),
                                                  P=np.eye(m.dims.n_x)))
    solves = (lambda: [e.y for e in q.solve_ocp(prob, x0, y, q.SolverOptions(
                  variant=variant, max_iter=3)).iterates],
              lambda: q.qlmpc_iterate(prob, q.KktPoint(y, np.zeros(prob.n_eq)), x0,
                                      variant).stack())
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for solve in solves:
            try:
                out = solve()
            except q.SolverError:
                continue
            assert np.all(np.isfinite(out))
