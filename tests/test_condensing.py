import numpy as np
import pytest
from numpy.testing import assert_allclose

import qlmpc as q
from qlmpc.condensing import stage_multipliers
from qlmpc.stacked import StageData, stage_data


def gaussian_elimination(a, b):
    """Brute-force linear solve with partial pivoting (test oracle)."""
    a = np.array(a, dtype=float)
    b = np.array(b, dtype=float)
    n = len(b)
    for col in range(n):
        piv = col + int(np.argmax(np.abs(a[col:, col])))
        a[[col, piv]] = a[[piv, col]]
        b[[col, piv]] = b[[piv, col]]
        for row in range(col + 1, n):
            f = a[row, col] / a[col, col]
            a[row, col:] -= f * a[col, col:]
            b[row] -= f * b[col]
    x = np.zeros(n)
    for row in range(n - 1, -1, -1):
        x[row] = (b[row] - a[row, row + 1:] @ x[row + 1:]) / a[row, row]
    return x


def test_condense_tiny_lti(tiny_lti_problem):
    qp = q.condense(tiny_lti_problem, np.zeros((1, 1)), [1.0])
    assert_allclose(qp.hess, [[4.0]])
    assert_allclose(qp.grad, [2.0])
    assert_allclose(qp.gamma, [[0.0], [1.0]])
    assert_allclose(qp.free, [1.0, 1.0])


def test_condense_zero_initial_state(tiny_lti_problem):
    qp = q.condense(tiny_lti_problem, np.zeros((1, 1)), [0.0])
    assert_allclose(qp.grad, [0.0])
    assert_allclose(q.solve_condensed(qp), [0.0])


def test_condense_unicycle_shape_and_pd(unicycle_problem):
    rng = np.random.default_rng(0)
    qp = q.condense(unicycle_problem, rng.normal(size=(20, 1)), rng.normal(size=5))
    assert qp.hess.shape == (40, 40)
    assert np.linalg.eigvalsh(qp.hess).min() > 0.0


def test_condense_adip_pd(adip_problem, adip_x0):
    rho_traj = adip_problem.rho_trajectory(q.initial_guess(adip_problem, adip_x0))
    qp = q.condense(adip_problem, rho_traj, adip_x0)
    assert np.linalg.eigvalsh(qp.hess).min() > 0.0


@pytest.mark.parametrize("variant", ["standard", "exact"])
def test_condensed_hessian_equals_dense_weight_product(unicycle_problem, variant):
    # a non-diagonal R has entries off the diagonal of each input block;
    # with R = I an R entry added at the wrong place could not show
    w = unicycle_problem.weights
    r = np.array([[2.0, 0.7], [0.7, 1.5]])
    prob = q.StackedProblem.build(unicycle_problem.model, unicycle_problem.n_horizon,
                                  q.Weights(Q=w.Q, R=r, P=w.P))
    rng = np.random.default_rng(4)
    stages = stage_data(prob, rng.normal(size=prob.n_y), variant)
    qp = q.condense(prob, stages, rng.normal(size=prob.n_x))
    n_s, dense = prob.n_eq, prob.weight_matrix
    ref = 2.0 * (qp.gamma.T @ (dense[:n_s, :n_s] @ qp.gamma) + dense[n_s:, n_s:])
    assert np.array_equal(qp.hess, 0.5 * (ref + ref.T))


def test_solve_condensed_tiny_lti(tiny_lti_problem):
    qp = q.condense(tiny_lti_problem, np.zeros((1, 1)), [1.0])
    u = q.solve_condensed(qp)
    assert_allclose(u, [-0.5])
    y = q.expand(qp, u)
    assert_allclose(y, [1.0, 0.5, -0.5])


def test_solve_condensed_against_gaussian_elimination():
    rng = np.random.default_rng(42)
    for _ in range(10):
        n = rng.integers(2, 12)
        m = rng.normal(size=(n, n))
        hess = m @ m.T + n * np.eye(n)
        grad = rng.normal(size=n)
        qp = q.CondensedQp(gamma=np.zeros((1, n)), free=np.zeros(1), hess=hess, grad=grad)
        u = q.solve_condensed(qp)
        assert_allclose(u, gaussian_elimination(hess, -grad), atol=1e-12, rtol=1e-12)


def test_solve_condensed_rejects_indefinite():
    qp = q.CondensedQp(gamma=np.zeros((1, 2)), free=np.zeros(1),
                       hess=np.diag([1.0, -1.0]), grad=np.zeros(2))
    with pytest.raises(q.SolverError) as err:
        q.solve_condensed(qp)
    assert err.value.min_eigenvalue == pytest.approx(-1.0)


def test_solve_condensed_rejects_nonfinite():
    qp = q.CondensedQp(gamma=np.zeros((1, 1)), free=np.zeros(1),
                       hess=np.array([[np.nan]]), grad=np.zeros(1))
    with pytest.raises(q.SolverError):
        q.solve_condensed(qp)


def test_expand_feasibility(unicycle_problem):
    rng = np.random.default_rng(1)
    rho_traj = rng.normal(size=(20, 1))
    x0 = rng.normal(size=5)
    qp = q.condense(unicycle_problem, rho_traj, x0)
    y = q.expand(qp, q.solve_condensed(qp))
    g = q.constraint_matrix(unicycle_problem, rho_traj)
    resid = g @ y + unicycle_problem.x0_map @ x0
    assert np.abs(resid).max() <= 1e-10


def test_expand_zero_input_zero_state(tiny_lti_problem):
    qp = q.condense(tiny_lti_problem, np.zeros((1, 1)), [0.0])
    assert np.all(q.expand(qp, np.zeros(1)) == 0.0)


def test_recover_multipliers_tiny_lti(tiny_lti_problem):
    g = q.constraint_matrix(tiny_lti_problem, np.zeros((1, 1)))
    lam = q.recover_multipliers(tiny_lti_problem, g, np.array([1.0, 0.5, -0.5]))
    assert_allclose(lam, [-3.0, -1.0], atol=1e-12)


def test_recover_multipliers_zero_point(tiny_lti_problem):
    g = q.constraint_matrix(tiny_lti_problem, np.zeros((1, 1)))
    assert_allclose(q.recover_multipliers(tiny_lti_problem, g, np.zeros(3)), np.zeros(2))


def test_recover_multipliers_rank_deficient(tiny_lti_problem):
    g = np.zeros((2, 3))
    with pytest.raises(q.SolverError) as err:
        q.recover_multipliers(tiny_lti_problem, g, np.zeros(3))
    assert err.value.smallest_singular_value == pytest.approx(0.0)


@pytest.mark.parametrize("name,horizon", [("unicycle", 6), ("adip", 5), ("tiny-qlpv", 4)])
def test_condensed_matches_dense_kkt_solve(name, horizon):
    # independent oracle: solve the full equality-constrained QP as one
    # dense saddle-point system
    m = q.get_model(name)
    w = q.Weights(Q=np.eye(m.dims.n_x), R=np.eye(m.dims.n_u), P=np.eye(m.dims.n_x))
    prob = q.StackedProblem.build(m, horizon, w)
    rng = np.random.default_rng(10)
    for _ in range(20):
        rho_traj = rng.normal(size=(horizon, m.dims.n_rho))
        x0 = rng.normal(size=m.dims.n_x)
        qp = q.condense(prob, rho_traj, x0)
        y = q.expand(qp, q.solve_condensed(qp))
        g = q.constraint_matrix(prob, rho_traj)
        lam = q.recover_multipliers(prob, g, y)

        n_y, n_eq = prob.n_y, prob.n_eq
        kkt = np.zeros((n_y + n_eq, n_y + n_eq))
        kkt[:n_y, :n_y] = 2.0 * prob.weight_matrix
        kkt[:n_y, n_y:] = g.T
        kkt[n_y:, :n_y] = g
        rhs = np.concatenate([np.zeros(n_y), -(prob.x0_map @ x0)])
        sol = np.linalg.solve(kkt, rhs)
        assert np.abs(y - sol[:n_y]).max() <= 1e-8
        assert np.abs(lam - sol[n_y:]).max() <= 1e-8

        # stationarity of the frozen QP at the recovered pair
        stat = 2.0 * prob.weight_matrix @ y + g.T @ lam
        feas = g @ y + prob.x0_map @ x0
        assert np.abs(stat).max() <= 1e-8
        assert np.abs(feas).max() <= 1e-8


def test_condense_from_stages_equals_condense_from_rho(unicycle_problem):
    rng = np.random.default_rng(2)
    y = rng.normal(size=unicycle_problem.n_y)
    x0 = rng.normal(size=5)
    qp_rho = q.condense(unicycle_problem, unicycle_problem.rho_trajectory(y), x0)
    qp_stages = q.condense(unicycle_problem, stage_data(unicycle_problem, y, "standard"), x0)
    assert_allclose(qp_rho.hess, qp_stages.hess)
    assert_allclose(qp_rho.grad, qp_stages.grad)
    assert_allclose(qp_rho.gamma, qp_stages.gamma)
    assert_allclose(qp_rho.free, qp_stages.free)


def test_condense_exact_offset_shifts_prediction(tiny_qlpv_problem):
    # the disturbance offset enters the free response; the dense
    # linearized constraint is the feasibility oracle
    y_lin = np.array([0.5, 0.25, 0.0])
    stages = stage_data(tiny_qlpv_problem, y_lin, "exact")
    qp = q.condense(tiny_qlpv_problem, stages, [0.5])
    no_offset = StageData(stages.a, stages.b, np.zeros_like(stages.w))
    qp_no_offset = q.condense(tiny_qlpv_problem, no_offset, [0.5])
    assert np.any(qp.free != qp_no_offset.free)
    y = q.expand(qp, q.solve_condensed(qp))
    jac, dist = q.linearized_constraint(tiny_qlpv_problem, y_lin)
    resid = jac @ y + dist @ y_lin + tiny_qlpv_problem.x0_map @ np.array([0.5])
    assert np.abs(resid).max() <= 1e-12


@pytest.mark.parametrize("variant", ["standard", "exact"])
@pytest.mark.parametrize("name", ["unicycle", "adip"])
def test_expand_zero_input_is_free_rollout(request, name, variant):
    # with u = 0 the prediction is the free response: x0hat rolled out
    # through x_{k+1} = a_k x_k + w_k
    prob = request.getfixturevalue(f"{name}_problem")
    rng = np.random.default_rng(3)
    stages = stage_data(prob, rng.normal(size=prob.n_y), variant)
    x0 = rng.normal(size=prob.n_x)
    y = q.expand(q.condense(prob, stages, x0), np.zeros(prob.n_horizon * prob.n_u))
    xs = [x0]
    for k in range(prob.n_horizon):
        xs.append(stages.a[k] @ xs[-1] + stages.w[k])
    assert_allclose(prob.states(y), xs, rtol=1e-12, atol=1e-12)
    assert np.all(prob.inputs(y) == 0.0)


def test_stage_multipliers_reject_nonfinite(tiny_qlpv_problem):
    y = np.array([0.5, np.nan, 0.0])
    stages = stage_data(tiny_qlpv_problem, np.zeros(3), "standard")
    with pytest.raises(q.SolverError):
        stage_multipliers(tiny_qlpv_problem, stages, y)
