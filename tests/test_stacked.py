import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

import qlmpc as q
from qlmpc.stacked import stage_data

ALL_MODEL_IDS = ["unicycle", "adip", "tiny-lti", "tiny-qlpv"]


def build_problem(name, horizon):
    m = q.get_model(name)
    n_x, n_u = m.dims.n_x, m.dims.n_u
    w = q.Weights(Q=np.eye(n_x), R=np.eye(n_u), P=np.eye(n_x))
    return q.StackedProblem.build(m, horizon, w)


def random_point(prob, rng, scale=1.0):
    return q.KktPoint(scale * rng.standard_normal(prob.n_y),
                      scale * rng.standard_normal(prob.n_eq))


class TestWeights:
    def test_accepts_psd(self):
        q.Weights(Q=np.zeros((2, 2)), R=np.eye(1), P=np.eye(2))

    def test_rejects_indefinite_q(self):
        with pytest.raises(ValueError):
            q.Weights(Q=np.diag([1.0, -1.0]), R=np.eye(1), P=np.eye(2))

    def test_rejects_singular_r(self):
        with pytest.raises(ValueError):
            q.Weights(Q=np.eye(2), R=np.zeros((1, 1)), P=np.eye(2))

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            q.Weights(Q=np.array([[1.0, 0.5], [0.0, 1.0]]), R=np.eye(1), P=np.eye(2))


def test_direct_construction_checks_horizon(unit_weights):
    with pytest.raises(ValueError, match="horizon"):
        q.StackedProblem(q.builtin_tiny("lti"), 0, unit_weights)


def test_constraint_matrix_tiny_lti(tiny_lti_problem):
    g = q.constraint_matrix(tiny_lti_problem, np.zeros((1, 1)))
    assert_allclose(g, [[1.0, 0.0, 0.0], [-1.0, 1.0, -1.0]])


def test_constraint_matrix_unicycle_shape(unicycle_problem):
    g = q.constraint_matrix(unicycle_problem, np.zeros((20, 1)))
    assert g.shape == (105, 145)


@pytest.mark.parametrize("name", ALL_MODEL_IDS)
def test_constraint_matrix_full_row_rank(name):
    prob = build_problem(name, 5)
    rng = np.random.default_rng(5)
    for _ in range(100):
        rho_traj = rng.normal(scale=2.0, size=(5, prob.model.dims.n_rho))
        smallest = np.linalg.svd(q.constraint_matrix(prob, rho_traj), compute_uv=False).min()
        assert smallest > 1e-10


def test_fonc_residual_zero_at_tiny_lti_optimum(tiny_lti_problem):
    z = q.KktPoint(np.array([1.0, 0.5, -0.5]), np.array([-3.0, -1.0]))
    assert_allclose(q.fonc_residual(tiny_lti_problem, z, [1.0]), 0.0, atol=1e-14)


def test_fonc_residual_zero_at_origin(unicycle_problem):
    z = q.KktPoint(np.zeros(unicycle_problem.n_y), np.zeros(unicycle_problem.n_eq))
    assert_allclose(q.fonc_residual(unicycle_problem, z, np.zeros(5)), 0.0)


def test_kkt_matrix_exactly_symmetric(unicycle_problem):
    rng = np.random.default_rng(0)
    z = random_point(unicycle_problem, rng)
    j = q.kkt_matrix(unicycle_problem, z)
    assert np.array_equal(j, j.T)


def test_kkt_matrix_nonsingular_near_solution(unicycle_problem, unicycle_x0):
    y0 = q.initial_guess(unicycle_problem, unicycle_x0)
    tr = q.solve_ocp(unicycle_problem, unicycle_x0, y0,
                     q.SolverOptions(variant="standard", stop_tol=1e-8))
    j = q.kkt_matrix(unicycle_problem, tr.final)
    assert np.abs(np.linalg.eigvalsh(j)).min() > 0.0


def test_jacobians_coincide_for_lti(tiny_lti_problem):
    rng = np.random.default_rng(1)
    z = random_point(tiny_lti_problem, rng)
    assert_allclose(q.fonc_jacobian(tiny_lti_problem, z),
                    q.kkt_matrix(tiny_lti_problem, z), atol=1e-9)


@pytest.mark.parametrize("name", ALL_MODEL_IDS)
def test_fonc_jacobian_matches_finite_differences(name):
    prob = build_problem(name, 3)
    rng = np.random.default_rng(2)
    x0 = rng.normal(size=prob.n_x)
    for _ in range(20):
        z = random_point(prob, rng)

        def residual(v):
            return q.fonc_residual(prob, q.KktPoint(v[:prob.n_y], v[prob.n_y:]), x0)

        j_fd = q.fd_jacobian(residual, z.stack(), 1e-6)
        j = q.fonc_jacobian(prob, z)
        assert np.abs(j - j_fd).max() <= 1e-5 * max(1.0, np.abs(j_fd).max())


class TestCouplingCorrection:
    def test_zero_for_lti(self, tiny_lti_problem):
        delta = q.coupling_correction(tiny_lti_problem, np.array([1.0, 2.0, 3.0]))
        assert np.all(delta == 0.0)

    def test_tiny_qlpv_single_entry(self, tiny_qlpv_problem):
        # dynamics row of d[G y]/dy - G picks up -x0 from x1 - x0^2 - u0
        delta = q.coupling_correction(tiny_qlpv_problem, np.array([0.5, 0.0, 0.0]))
        expect = np.zeros((2, 3))
        expect[1, 0] = -0.5
        assert_allclose(delta, expect)

    def test_unicycle_heading_columns(self, unicycle_problem):
        rng = np.random.default_rng(4)
        y = rng.normal(size=unicycle_problem.n_y)
        delta = q.coupling_correction(unicycle_problem, y)
        dt = 0.1  # the unicycle's sampling time
        xs = unicycle_problem.states(y)
        for k in range(unicycle_problem.n_horizon):
            v, phi = xs[k][2], xs[k][3]
            block = delta[unicycle_problem.x_slice(k + 1), unicycle_problem.x_slice(k)]
            expect = np.zeros((5, 5))
            expect[0, 3] = dt * v * math.sin(phi)
            expect[1, 3] = -dt * v * math.cos(phi)
            assert_allclose(block, expect, atol=1e-14)
            assert np.all(delta[unicycle_problem.x_slice(k + 1), unicycle_problem.u_slice(k)] == 0.0)


@pytest.mark.parametrize("name", ALL_MODEL_IDS)
def test_linearized_constraint_identities(name):
    prob = build_problem(name, 4)
    rng = np.random.default_rng(6)
    for _ in range(100):
        y = rng.normal(scale=2.0, size=prob.n_y)
        jac, dist = q.linearized_constraint(prob, y)
        g = q.constraint_matrix(prob, prob.rho_trajectory(y))
        delta = q.coupling_correction(prob, y)
        assert np.abs(jac - (g + delta)).max() <= 1e-12
        assert np.abs(dist + delta).max() <= 1e-12
        assert np.abs((jac + dist) @ y - g @ y).max() <= 1e-12 * max(1.0, np.abs(g @ y).max())


def test_linearized_constraint_matches_unicycle_extension(unicycle_problem):
    # the dense Jacobian holds the exact variant's stage matrices
    rng = np.random.default_rng(8)
    y = rng.normal(size=unicycle_problem.n_y)
    jac, _ = q.linearized_constraint(unicycle_problem, y)
    stages = stage_data(unicycle_problem, y, "exact")
    for k in range(unicycle_problem.n_horizon):
        assert_allclose(jac[unicycle_problem.x_slice(k + 1), unicycle_problem.x_slice(k)],
                        -stages.a[k], atol=1e-14)
        assert_allclose(jac[unicycle_problem.x_slice(k + 1), unicycle_problem.u_slice(k)],
                        -stages.b[k], atol=1e-14)


def test_cost_perturbation_zero_for_lti(tiny_lti_problem):
    e = q.cost_perturbation(tiny_lti_problem, np.array([1.0, 0.5, -0.5]), np.array([-3.0, -1.0]))
    assert np.all(e == 0.0)


def test_cost_perturbation_tiny_qlpv_fixpoint(tiny_qlpv_problem):
    tr = q.solve_ocp(tiny_qlpv_problem, [0.5], q.initial_guess(tiny_qlpv_problem, [0.5]),
                     q.SolverOptions(variant="standard", stop_tol=1e-12))
    e = q.cost_perturbation(tiny_qlpv_problem, tr.final.y, tr.final.lam)
    assert_allclose(e, [-0.125, 0.0, 0.0], atol=1e-12)


@pytest.mark.parametrize("name", ALL_MODEL_IDS)
def test_cost_positive_definite_on_constraint_nullspace(name):
    prob = build_problem(name, 4)
    rng = np.random.default_rng(9)
    for _ in range(10):
        rho_traj = rng.normal(size=(4, prob.model.dims.n_rho))
        g = q.constraint_matrix(prob, rho_traj)
        basis = scipy.linalg.null_space(g)
        reduced = basis.T @ (2.0 * prob.weight_matrix) @ basis
        assert np.linalg.eigvalsh(reduced).min() > 0.0


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(-5.0, 5.0), min_size=3, max_size=3))
def test_linearized_constraint_identity_property(vals):
    m = q.builtin_tiny("qlpv")
    prob = q.StackedProblem.build(m, 1, q.Weights(Q=np.eye(1), R=np.eye(1), P=np.eye(1)))
    y = np.array(vals)
    jac, dist = q.linearized_constraint(prob, y)
    g = q.constraint_matrix(prob, prob.rho_trajectory(y))
    assert np.abs((jac + dist) - g).max() <= 1e-12


@pytest.mark.parametrize("variant", ["Standard", "bogus"])
def test_unknown_variant_rejected(unicycle_problem, variant):
    y = np.zeros(unicycle_problem.n_y)
    with pytest.raises(ValueError, match="variant"):
        stage_data(unicycle_problem, y, variant)
