import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

import qlmpc as q
from qlmpc.solver import IterateTrace, TraceEntry


class TestFdJacobian:
    def test_identity(self):
        j = q.fd_jacobian(lambda z: z, np.array([1.0, -2.0, 3.0]), 1e-6)
        assert_allclose(j, np.eye(3), atol=1e-9)

    def test_square(self):
        j = q.fd_jacobian(lambda z: z * z, np.array([3.0]), 1e-6)
        assert_allclose(j, [[6.0]], atol=1e-9)

    def test_rejects_bad_step(self):
        with pytest.raises(ValueError):
            q.fd_jacobian(lambda z: z, np.zeros(1), 0.0)

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.floats(-100, 100), min_size=2, max_size=2))
    def test_exact_for_linear_maps(self, vals):
        a = np.array([[2.0, -1.0], [0.5, 3.0]])
        j = q.fd_jacobian(lambda z: a @ z, np.array(vals), 1e-4)
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

    def test_requires_converged_trace(self):
        # with horizon 2 the second-stage parameter moves, so one
        # iteration cannot reach the fixpoint
        m = q.builtin_tiny("qlpv")
        prob = q.StackedProblem.build(m, 2, q.Weights(Q=np.eye(1), R=np.eye(1), P=np.eye(1)))
        tr = q.solve_ocp(prob, [0.8], q.initial_guess(prob, [0.8]),
                         q.SolverOptions(variant="standard", stop_tol=1e-15, max_iter=1))
        assert not tr.converged
        with pytest.raises(ValueError):
            q.verify_fixpoint_perturbation(prob, tr, [0.8])


def synthetic_trace(errors, direction=None):
    dim = 2 if direction is None else len(direction)
    v = np.array([1.0, 0.0]) if direction is None else np.asarray(direction)
    entries = [TraceEntry(q.KktPoint(e * v, np.zeros(1)), 0.0, 0.0, 0.0) for e in errors]
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


def test_sqp_equivalence_helper(unicycle_problem, unicycle_x0):
    dev = q.sqp_equivalence_max_deviation(unicycle_problem, unicycle_x0, seed=3)
    assert dev <= 1e-9


def test_exact_variant_rate_not_asserted_superlinear(unicycle_problem, unicycle_x0):
    # Gauss-Newton converges linearly here (curvature-multiplier products
    # stay finite at the fixpoint); document the measured tail rate range
    tr = q.solve_ocp(unicycle_problem, unicycle_x0, q.initial_guess(unicycle_problem, unicycle_x0),
                     q.SolverOptions(variant="exact", stop_tol=1e-10, max_iter=60))
    assert tr.converged
    res = tr.residuals
    tail = res[-4:]
    ratios = tail[1:] / tail[:-1]
    assert np.all(ratios < 1.0)
