import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.optimize
from hypothesis import assume, example, given, settings, strategies as st
from numpy.testing import assert_allclose

import qlmpc as q
import qlmpc.models as models
from qlmpc.diagnostics import _ENVELOPE_SLACK, _contraction_tail, _envelope_lstsq, _prefix
from qlmpc.solver import IterateTrace, TraceEntry
from qlmpc.stacked import StageData, stage_residual

import oracles


class TestFdJacobian:
    def test_identity(self):
        j = oracles.fd_jacobian(lambda z: z, np.array([1.0, -2.0, 3.0]), 1e-6)
        assert_allclose(j, np.eye(3), atol=1e-9)

    def test_square(self):
        j = oracles.fd_jacobian(lambda z: z * z, np.array([3.0]), 1e-6)
        assert_allclose(j, [[6.0]], atol=1e-9)

    def test_rejects_bad_step(self):
        with pytest.raises(ValueError):
            oracles.fd_jacobian(lambda z: z, np.zeros(1), 0.0)

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.floats(-100, 100), min_size=2, max_size=2))
    def test_exact_for_linear_maps(self, vals):
        a = np.array([[2.0, -1.0], [0.5, 3.0]])
        j = oracles.fd_jacobian(lambda z: a @ z, np.array(vals), 1e-4)
        assert_allclose(j, a, atol=1e-8)


def _converged_standard_trace(prob, x0, tol=1e-12, max_iter=60):
    return q.solve_ocp(prob, x0, q.initial_guess(prob, x0),
                       q.SolverOptions(variant="standard", stop_tol=tol, max_iter=max_iter))


class TestFixpointPerturbation:
    def test_lti_has_zero_perturbation(self, tiny_lti_problem):
        tr = _converged_standard_trace(tiny_lti_problem, [1.0])
        rep = q.verify_fixpoint_perturbation(tiny_lti_problem, tr, [1.0])
        assert_allclose(rep.e, 0.0)
        assert_allclose(rep.true_stationarity_residual, 0.0, atol=1e-12)
        assert rep.identity_error_inf <= 1e-12

    def test_tiny_qlpv_analytic_value(self, tiny_qlpv_problem):
        tr = _converged_standard_trace(tiny_qlpv_problem, [0.5])
        rep = q.verify_fixpoint_perturbation(tiny_qlpv_problem, tr, [0.5])
        assert_allclose(rep.e, [-0.125, 0.0, 0.0], atol=1e-12)
        assert rep.identity_error_inf <= 1e-10
        assert rep.feasibility_residual_inf <= 1e-12

    def test_unicycle_identity(self, unicycle_problem, unicycle_x0):
        tr = _converged_standard_trace(unicycle_problem, unicycle_x0, tol=1e-10, max_iter=100)
        assert tr.converged
        rep = q.verify_fixpoint_perturbation(unicycle_problem, tr, unicycle_x0)
        assert rep.identity_error_inf <= 1e-8
        assert rep.feasibility_residual_inf <= 1e-8
        assert np.abs(rep.e).max() > 0.0

    @pytest.mark.parametrize("name", ["tiny-lti", "tiny-qlpv", "unicycle", "adip"])
    def test_stage_wise_report_matches_the_dense_route(self, name):
        # e, the NLP stationarity and its feasibility from the stage data,
        # against the dense oracles at the preset's fixpoint
        scn = q.builtin_scenario(name)
        prob, x0 = scn.problem, scn.x0
        tr = _converged_standard_trace(prob, x0, tol=1e-8, max_iter=300)
        assert tr.converged
        rep = q.verify_fixpoint_perturbation(prob, tr, x0)
        z = tr.final
        full = oracles.true_fonc_residual(prob, z, x0)
        scale = max(np.abs(z.lam).max(), np.abs(2.0 * oracles.weight_matrix(prob) @ z.y).max())
        assert np.abs(rep.e - oracles.cost_perturbation(prob, z.y, z.lam)).max() <= 1e-14 * scale
        assert np.abs(rep.true_stationarity_residual - full[:prob.n_y]).max() <= 1e-14 * scale
        feas = float(np.abs(full[prob.n_y:]).max())
        assert abs(rep.feasibility_residual_inf - feas) <= 1e-14 * max(1.0, np.abs(z.y).max())

    def test_requires_converged_trace(self):
        # with horizon 2 the second-stage parameter moves, so one
        # iteration cannot reach the fixpoint
        m = models.builtin_tiny("qlpv")
        prob = q.StackedProblem.build(m, 2, q.Weights(Q=np.eye(1), R=np.eye(1), P=np.eye(1)))
        tr = q.solve_ocp(prob, [0.8], q.initial_guess(prob, [0.8]),
                         q.SolverOptions(variant="standard", stop_tol=1e-15, max_iter=1))
        assert not tr.converged
        with pytest.raises(ValueError):
            q.verify_fixpoint_perturbation(prob, tr, [0.8])


def envelope_lstsq_loop(design, target, cons, cons_target):
    """Reference for ``_envelope_lstsq`` at unit scale: the active sets
    enumerated one at a time, each vertex by its own 2x2 solve."""
    scale = np.linalg.norm(design, axis=0)
    scale[scale == 0.0] = 1.0
    design, cons = design / scale, np.vstack([np.eye(2), cons / scale])
    bounds = np.concatenate([np.zeros(2), cons_target - _ENVELOPE_SLACK])
    row_tol = 1e-12 * (1.0 + np.abs(bounds))
    candidates = [np.linalg.lstsq(design, target, rcond=None)[0]]
    for i in range(cons.shape[0]):
        gi = cons[i]
        nrm = gi @ gi
        if nrm == 0.0:
            continue
        xp = gi * (bounds[i] / nrm)
        d = np.array([-gi[1], gi[0]])
        ad = design @ d
        denom = ad @ ad
        t = (ad @ (target - design @ xp)) / denom if denom > 0 else 0.0
        candidates.append(xp + t * d)
        for j in range(i + 1, cons.shape[0]):
            mat = np.array([gi, cons[j]])
            if abs(np.linalg.det(mat)) >= 1e-14:
                candidates.append(np.linalg.solve(mat, bounds[[i, j]]))
    best, best_val = None, np.inf
    for x in candidates:
        x = np.maximum(x, 0.0)
        if np.all(np.isfinite(x)) and np.all(cons @ x >= bounds - row_tol):
            val = float(np.sum((design @ x - target) ** 2))
            if val < best_val:
                best, best_val = x, val
    return None if best is None else best / scale


def synthetic_trace(errors, direction=None):
    # contraction_fit reads only each entry's z
    dim = 2 if direction is None else len(direction)
    v = np.array([1.0, 0.0]) if direction is None else np.asarray(direction)
    entries = [SimpleNamespace(z=q.KktPoint(e * v, np.zeros(1))) for e in errors]
    return IterateTrace(entries, True), q.KktPoint(np.zeros(dim), np.zeros(1))


class TestContractionFit:
    def test_geometric_sequence(self):
        tr, zbar = synthetic_trace([0.5 ** l for l in range(8)])
        est = q.contraction_fit(tr, zbar)
        assert est.kappa_hat == pytest.approx(0.5, abs=1e-10)
        assert est.omega_hat == pytest.approx(0.0, abs=1e-10)
        assert est.radius_bound > 1e10  # effectively unbounded

    def test_quadratic_sequence(self):
        # err+ = 0.25 err + 0.05 err^2 exactly
        errs = [1.0]
        for _ in range(7):
            e = errs[-1]
            errs.append(0.25 * e + 0.05 * e * e)
        tr, zbar = synthetic_trace(errs)
        est = q.contraction_fit(tr, zbar)
        assert est.kappa_hat == pytest.approx(0.25, abs=1e-9)
        assert est.omega_hat == pytest.approx(0.1, abs=1e-8)
        assert est.radius_bound == pytest.approx(2.0 * 0.75 / 0.1, rel=1e-6)

    def test_needs_three_iterates(self):
        tr, zbar = synthetic_trace([1.0, 0.5])
        with pytest.raises(ValueError):
            q.contraction_fit(tr, zbar)

    def test_errors_recorded(self):
        tr, zbar = synthetic_trace([4.0, 2.0, 1.0])
        est = q.contraction_fit(tr, zbar)
        assert_allclose(est.errors, [4.0, 2.0, 1.0])

    @settings(max_examples=200, deadline=None)
    @given(st.floats(-12.0, 0.0), st.floats(0.0, 1.2), st.floats(0.0, 5.0),
           st.lists(st.floats(-0.2, 0.2), min_size=2, max_size=11))
    # optima on the bound faces kappa = 0 and omega = 0
    @example(-2.0, 0.0, 1.0, [0.125, 0.0])
    @example(-10.0, 1.0, 0.0, [0.125, 0.0])
    def test_exact_fit_matches_nnls_and_holds_envelope(self, log_e0, kappa, omega, noise):
        # perturbed samples of err+ = kappa err + omega/2 err^2
        errors = [10.0 ** log_e0]
        for eta in noise:
            e = errors[-1]
            errors.append((kappa * e + 0.5 * omega * e * e) * (1.0 + eta))
        errors = np.array(errors)
        # errors below 1e-60 lie far under any trace's rounding floor; near
        # 1e-154 and 1e154 their squares leave the normal double range
        assume(np.all((errors > 1e-60) & (errors < 1e3)))
        est = q.contraction_fit(*synthetic_trace(errors))
        coeff = np.array([est.kappa_hat, est.omega_hat])
        prev, nxt = errors[:-1], errors[1:]
        cons = np.column_stack([prev, 0.5 * prev * prev])
        # the slack plus the active-set solve's row tolerance 1e-12 (1 + |bound|)
        assert np.all(nxt - cons @ coeff <= _ENVELOPE_SLACK + 2e-12 * (1.0 + nxt))

        # where plain NNLS on the tail already satisfies the envelope it is
        # the constrained optimum too; compare where that optimum is unique
        # and well-conditioned, in the design's column scaling
        start = _contraction_tail(prev, nxt)
        design, target = cons[start:], nxt[start:]
        ref, _ = scipy.optimize.nnls(design, target)
        scale = np.linalg.norm(design, axis=0)
        if (np.all(nxt - cons @ ref <= _ENVELOPE_SLACK) and len(target) >= 2
                and np.all(scale > 0.0) and np.linalg.cond(design / scale) <= 1e3):
            assert np.max(np.abs(coeff - ref) * scale) <= 1e-12 * np.max(np.abs(ref) * scale)

    @settings(max_examples=200, deadline=None)
    @given(st.floats(-6.0, 0.0), st.floats(0.0, 1.2), st.floats(0.0, 5.0),
           st.lists(st.floats(-0.2, 0.2), min_size=2, max_size=11))
    def test_envelope_equals_its_pairwise_loop(self, log_e0, kappa, omega, noise):
        # all-pairs Cramer candidates score as the one-pair-at-a-time solves
        errors = [10.0 ** log_e0]
        for eta in noise:
            e = errors[-1]
            errors.append((kappa * e + 0.5 * omega * e * e) * (1.0 + eta))
        errors = np.array(errors)
        assume(np.all((errors > 1e-30) & (errors < 1e3)))
        prev, nxt = errors[:-1], errors[1:]
        cons = np.column_stack([prev, 0.5 * prev * prev])
        start = _contraction_tail(prev, nxt)
        design, target = cons[start:], nxt[start:]
        ref = envelope_lstsq_loop(design, target, cons, nxt)
        if ref is None:
            with pytest.raises(q.SolverError):
                _envelope_lstsq(design, target, cons, nxt)
            return
        coeff = _envelope_lstsq(design, target, cons, nxt)
        vals = [np.sum((design @ c - target) ** 2) for c in (coeff, ref)]
        assert abs(vals[0] - vals[1]) <= 1e-12 * (vals[1] + target @ target)

    @settings(max_examples=200, deadline=None)
    @given(st.floats(-300.0, 300.0), st.integers(3, 12))
    @example(-300.0, 12)
    @example(300.0, 12)
    @example(-160.0, 8)
    @example(160.0, 8)
    def test_geometric_trace_at_any_scale(self, log_e0, length):
        # the fit runs in errors over their largest value: squares of the
        # raw errors would be subnormal or overflow at either end
        errors = 10.0 ** log_e0 * 0.5 ** np.arange(length)
        est = q.contraction_fit(*synthetic_trace(errors))
        assert est.kappa_hat == pytest.approx(0.5, abs=1e-12)
        assert est.omega_hat * errors[0] <= 1e-12
        assert_allclose(est.errors, errors, rtol=1e-15)

    def test_envelope_vertex_matches_its_pairwise_solve(self):
        # a noisy quadratic trace whose optimum sits on two envelope rows:
        # the all-pairs Cramer candidate equals the 2x2 solve of those rows
        errors = np.array([0.7686437548416307, 0.6522765451377811, 0.5363548013029523,
                           0.4983458295379595, 0.39046513386169174, 0.32269401373059775,
                           0.22409348374654103, 0.14835062953874104, 0.06962913189270387,
                           0.030793065886765954, 0.01312018726987416])
        est = q.contraction_fit(*synthetic_trace(errors))
        coeff = np.array([est.kappa_hat, est.omega_hat])
        prev, nxt = errors[:-1], errors[1:]
        cons = np.column_stack([prev, 0.5 * prev * prev])
        tight = np.flatnonzero(np.abs(nxt - cons @ coeff - _ENVELOPE_SLACK) <= 1e-13)
        assert len(tight) == 2 and np.all(coeff > 0.0)
        ref = np.linalg.solve(cons[tight], nxt[tight] - _ENVELOPE_SLACK)
        assert_allclose(coeff, ref, rtol=1e-12)

    @pytest.mark.parametrize("scenario", ["unicycle", "adip"])
    def test_benchmark_first_timestep(self, scenario, request):
        prob = request.getfixturevalue(f"{scenario}_problem")
        x0 = request.getfixturevalue(f"{scenario}_x0")
        fit = q.solve_ocp(prob, x0, q.initial_guess(prob, x0),
                          q.SolverOptions(variant="standard", stop_tol=1e-6, max_iter=100))
        ref = q.solve_ocp(prob, x0, q.initial_guess(prob, x0),
                          q.SolverOptions(variant="standard", stop_tol=1e-12, max_iter=80))
        est = q.contraction_fit(fit, ref.final)
        assert est.kappa_hat < 1.0
        assert est.fit_residual_inf <= 0.05 * est.errors.max()
        pred = est.kappa_hat * est.errors[:-1] + 0.5 * est.omega_hat * est.errors[:-1] ** 2
        assert np.all(est.errors[1:] <= pred + 1e-10)


def test_import_skips_scipy_linalg_optimize_and_numpy_f2py_testing():
    # qlmpc loads scipy's LAPACK extension itself; scipy.linalg's __init__
    # would pull in numpy.f2py and numpy.testing through scipy's array-API layer
    src = Path(q.__file__).resolve().parents[1]
    code = ("import sys, qlmpc; print([m for m in ('scipy.linalg', 'scipy.optimize', "
            "'numpy.f2py', 'numpy.testing') if m in sys.modules])")
    out = subprocess.run([sys.executable, "-c", code], cwd=src, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_a_nan_in_one_input_block_reaches_the_residual_guard(unicycle_problem, unicycle_x0):
    # the residual keeps the NaN that one B block carries into its
    # stationarity and feasibility rows, so the certificate loop stops on it
    prob = unicycle_problem
    entry = TraceEntry((prob, unicycle_x0, "standard"), q.initial_guess(prob, unicycle_x0))
    jac = entry.stages.jac.copy()
    jac[7, 0, prob.n_x] = np.nan
    entry.stages = StageData(jac, entry.stages.w)
    assert np.isnan(stage_residual(prob, entry.stages, entry.z, unicycle_x0))
    with pytest.raises(q.SolverError, match="optimality residual is non-finite after 0 steps"):
        _prefix([entry], 1e-8, 5)


def test_sqp_equivalence_helper(unicycle_problem, unicycle_x0):
    dev = q.sqp_equivalence_max_deviation(unicycle_problem, unicycle_x0, seed=3)
    assert dev <= 1e-9


def test_exact_variant_rate_not_asserted_superlinear(unicycle_problem, unicycle_x0):
    # Gauss-Newton converges linearly here (curvature-multiplier products
    # stay finite at the fixpoint); document the measured tail rate range
    tr = q.solve_ocp(unicycle_problem, unicycle_x0, q.initial_guess(unicycle_problem, unicycle_x0),
                     q.SolverOptions(variant="exact", stop_tol=1e-10, max_iter=60))
    assert tr.converged
    res = np.array([e.fonc_inf for e in tr.iterates])
    tail = res[-4:]
    ratios = tail[1:] / tail[:-1]
    assert np.all(ratios < 1.0)
