import dataclasses

import numpy as np
import pytest
import scipy.linalg
from numpy.testing import assert_allclose

import qlmpc as q
import qlmpc.condensing as condensing
import qlmpc.stacked as stacked
from qlmpc.condensing import stage_multipliers
from qlmpc.stacked import StageData, stage_data

import oracles


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


def condense_rho(prob, rho_traj, x0):
    """Condense the QP frozen at a parameter trajectory, with no offset."""
    return condensing.condense(prob, stacked.frozen_stages(prob.model, rho_traj), x0)


def test_condense_tiny_lti(tiny_lti_problem):
    qp = condense_rho(tiny_lti_problem, np.zeros((1, 1)), [1.0])
    assert_allclose(qp.hess, [[4.0]])
    assert_allclose(qp.grad, [2.0])
    assert_allclose(qp.gamma, [[0.0], [1.0]])
    assert_allclose(qp.free, [1.0, 1.0])


def test_condense_zero_initial_state(tiny_lti_problem):
    qp = condense_rho(tiny_lti_problem, np.zeros((1, 1)), [0.0])
    assert_allclose(qp.grad, [0.0])
    assert_allclose(condensing.solve_condensed(qp), [0.0])


def test_condense_unicycle_shape_and_pd(unicycle_problem):
    rng = np.random.default_rng(0)
    qp = condense_rho(unicycle_problem, rng.normal(size=(20, 1)), rng.normal(size=5))
    assert qp.hess.shape == (40, 40)
    assert np.linalg.eigvalsh(qp.hess).min() > 0.0


def test_condense_adip_pd(adip_problem, adip_x0):
    rho_traj = adip_problem.rho_trajectory(q.initial_guess(adip_problem, adip_x0))
    qp = condense_rho(adip_problem, rho_traj, adip_x0)
    assert np.linalg.eigvalsh(qp.hess).min() > 0.0


@pytest.mark.parametrize("variant", ["standard", "exact"])
def test_condensed_hessian_equals_dense_weight_product(unicycle_problem, variant):
    # a non-diagonal R has entries off the diagonal of each input block;
    # with R = I an R entry added at the wrong place could not show.  N = 1
    # and N = 2 are the shortest rollouts
    w = unicycle_problem.weights
    r = np.array([[2.0, 0.7], [0.7, 1.5]])
    for horizon in (1, 2, unicycle_problem.n_horizon):
        prob = q.StackedProblem.build(unicycle_problem.model, horizon,
                                      q.Weights(Q=w.Q, R=r, P=w.P))
        rng = np.random.default_rng(4)
        stages = stage_data(prob, rng.normal(size=prob.n_y), variant)
        qp = condensing.condense(prob, stages, rng.normal(size=prob.n_x))
        n_s, dense = prob.n_eq, oracles.weight_matrix(prob)
        ref = 2.0 * (qp.gamma.T @ (dense[:n_s, :n_s] @ qp.gamma) + dense[n_s:, n_s:])
        assert np.array_equal(qp.hess, 0.5 * (ref + ref.T))
        assert_allclose(qp.grad, 2.0 * ((dense[:n_s, :n_s] @ qp.gamma).T @ qp.free),
                        rtol=1e-13, atol=0.0)


def test_replaced_problem_condenses_with_its_own_weights(unicycle_problem, adip_problem):
    # dimensions and inverse weights are cached per instance; a problem
    # made by dataclasses.replace must derive its own, not inherit the
    # original's
    base = q.StackedProblem.build(unicycle_problem.model, 3, unicycle_problem.weights)
    cached = base.inverse_weights
    assert (base.n_x, base.n_u) == (unicycle_problem.n_x, unicycle_problem.n_u)
    w = base.weights
    r = np.array([[2.0, 0.7], [0.7, 1.5]])
    new_r = dataclasses.replace(base, weights=q.Weights(Q=w.Q, R=r, P=w.P))
    adip = dataclasses.replace(base, model=adip_problem.model, weights=adip_problem.weights)
    assert base.inverse_weights is cached
    assert (adip.n_x, adip.n_u) == (adip_problem.n_x, adip_problem.n_u)
    rng = np.random.default_rng(6)
    for prob in (base, new_r, adip):
        stages = stage_data(prob, rng.normal(size=prob.n_y), "exact")
        qp = condensing.condense(prob, stages, rng.normal(size=prob.n_x))
        assert qp.gamma.shape == (prob.n_eq, 3 * prob.n_u)
        n_s, dense = prob.n_eq, oracles.weight_matrix(prob)
        ref = 2.0 * (qp.gamma.T @ (dense[:n_s, :n_s] @ qp.gamma) + dense[n_s:, n_s:])
        assert np.array_equal(qp.hess, 0.5 * (ref + ref.T))


def test_solve_condensed_tiny_lti(tiny_lti_problem):
    qp = condense_rho(tiny_lti_problem, np.zeros((1, 1)), [1.0])
    u = condensing.solve_condensed(qp)
    assert_allclose(u, [-0.5])
    y = condensing.expand(qp, u)
    assert_allclose(y, [1.0, 0.5, -0.5])


def test_solve_condensed_against_gaussian_elimination():
    rng = np.random.default_rng(42)
    for _ in range(10):
        n = rng.integers(2, 12)
        m = rng.normal(size=(n, n))
        hess = m @ m.T + n * np.eye(n)
        grad = rng.normal(size=n)
        qp = condensing.CondensedQp(gamma=np.zeros((1, n)), free=np.zeros(1), hess=hess, grad=grad)
        u = condensing.solve_condensed(qp)
        assert_allclose(u, gaussian_elimination(hess, -grad), atol=1e-12, rtol=1e-12)


def test_solve_condensed_rejects_indefinite():
    qp = condensing.CondensedQp(gamma=np.zeros((1, 2)), free=np.zeros(1),
                       hess=np.diag([1.0, -1.0]), grad=np.zeros(2))
    with pytest.raises(q.SolverError, match=r"not positive definite \(min eigenvalue -1\.000e\+00\)"):
        condensing.solve_condensed(qp)


def test_solve_condensed_rejects_nonfinite():
    qp = condensing.CondensedQp(gamma=np.zeros((1, 1)), free=np.zeros(1),
                       hess=np.array([[np.nan]]), grad=np.zeros(1))
    with pytest.raises(q.SolverError):
        condensing.solve_condensed(qp)


def test_solve_condensed_rejects_a_nan_residual(monkeypatch, unicycle_problem):
    # a Cholesky solve that returns NaN leaves a NaN residual, which no
    # tolerance passes
    qp = condense_rho(unicycle_problem, np.zeros((20, 1)), np.ones(5))
    monkeypatch.setattr(condensing, "dpotrs",
                        lambda factor, b, lower: (np.full_like(b, np.nan), 0))
    with pytest.raises(q.SolverError, match=r"condensed solve residual nan exceeds tolerance"):
        condensing.solve_condensed(qp)


def test_expand_feasibility(unicycle_problem):
    rng = np.random.default_rng(1)
    rho_traj = rng.normal(size=(20, 1))
    x0 = rng.normal(size=5)
    qp = condense_rho(unicycle_problem, rho_traj, x0)
    y = condensing.expand(qp, condensing.solve_condensed(qp))
    g = oracles.constraint_matrix(unicycle_problem, rho_traj)
    resid = g @ y + oracles.x0_map(unicycle_problem) @ x0
    assert np.abs(resid).max() <= 1e-10


def test_expand_zero_input_zero_state(tiny_lti_problem):
    qp = condense_rho(tiny_lti_problem, np.zeros((1, 1)), [0.0])
    assert np.all(condensing.expand(qp, np.zeros(1)) == 0.0)


def test_recover_multipliers_tiny_lti(tiny_lti_problem):
    g = oracles.constraint_matrix(tiny_lti_problem, np.zeros((1, 1)))
    lam = oracles.recover_multipliers(tiny_lti_problem, g, np.array([1.0, 0.5, -0.5]))
    assert_allclose(lam, [-3.0, -1.0], atol=1e-12)


def test_recover_multipliers_zero_point(tiny_lti_problem):
    g = oracles.constraint_matrix(tiny_lti_problem, np.zeros((1, 1)))
    assert_allclose(oracles.recover_multipliers(tiny_lti_problem, g, np.zeros(3)), np.zeros(2))


def test_recover_multipliers_rank_deficient(tiny_lti_problem):
    g = np.zeros((2, 3))
    with pytest.raises(q.SolverError, match=r"rank deficient \(smallest singular value 0\.000e\+00\)"):
        oracles.recover_multipliers(tiny_lti_problem, g, np.zeros(3))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("where", ["g", "y"])
def test_recover_multipliers_reject_nonfinite(tiny_lti_problem, where, bad):
    g = oracles.constraint_matrix(tiny_lti_problem, np.zeros((1, 1)))
    y = np.array([1.0, 0.5, -0.5])
    (g if where == "g" else y)[-1] = bad
    with pytest.raises(q.SolverError, match="non-finite"):
        oracles.recover_multipliers(tiny_lti_problem, g, y)


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
        qp = condense_rho(prob, rho_traj, x0)
        y = condensing.expand(qp, condensing.solve_condensed(qp))
        g = oracles.constraint_matrix(prob, rho_traj)
        lam = oracles.recover_multipliers(prob, g, y)

        n_y, n_eq = prob.n_y, prob.n_eq
        kkt = np.zeros((n_y + n_eq, n_y + n_eq))
        kkt[:n_y, :n_y] = 2.0 * oracles.weight_matrix(prob)
        kkt[:n_y, n_y:] = g.T
        kkt[n_y:, :n_y] = g
        rhs = np.concatenate([np.zeros(n_y), -(oracles.x0_map(prob) @ x0)])
        sol = np.linalg.solve(kkt, rhs)
        assert np.abs(y - sol[:n_y]).max() <= 1e-8
        assert np.abs(lam - sol[n_y:]).max() <= 1e-8

        # stationarity of the frozen QP at the recovered pair
        stat = 2.0 * oracles.weight_matrix(prob) @ y + g.T @ lam
        feas = g @ y + oracles.x0_map(prob) @ x0
        assert np.abs(stat).max() <= 1e-8
        assert np.abs(feas).max() <= 1e-8


def test_condense_from_stages_equals_condense_from_rho(unicycle_problem):
    rng = np.random.default_rng(2)
    y = rng.normal(size=unicycle_problem.n_y)
    x0 = rng.normal(size=5)
    qp_rho = condense_rho(unicycle_problem, unicycle_problem.rho_trajectory(y), x0)
    qp_stages = condensing.condense(unicycle_problem,
                                    stage_data(unicycle_problem, y, "standard"), x0)
    assert_allclose(qp_rho.hess, qp_stages.hess)
    assert_allclose(qp_rho.grad, qp_stages.grad)
    assert_allclose(qp_rho.gamma, qp_stages.gamma)
    assert_allclose(qp_rho.free, qp_stages.free)


def test_condense_exact_offset_shifts_prediction(tiny_qlpv_problem):
    # the disturbance offset enters the free response; the dense
    # linearized constraint is the feasibility oracle
    y_lin = np.array([0.5, 0.25, 0.0])
    stages = stage_data(tiny_qlpv_problem, y_lin, "exact")
    qp = condensing.condense(tiny_qlpv_problem, stages, [0.5])
    no_offset = StageData(stages.jac, np.zeros_like(stages.w))
    qp_no_offset = condensing.condense(tiny_qlpv_problem, no_offset, [0.5])
    assert np.any(qp.free != qp_no_offset.free)
    y = condensing.expand(qp, condensing.solve_condensed(qp))
    jac, dist = oracles.linearized_constraint(tiny_qlpv_problem, y_lin)
    resid = jac @ y + dist @ y_lin + oracles.x0_map(tiny_qlpv_problem) @ np.array([0.5])
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
    y = condensing.expand(condensing.condense(prob, stages, x0),
                          np.zeros(prob.n_horizon * prob.n_u))
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


def test_stage_multipliers_reject_overflowing_recursion(unicycle_problem):
    # A' lam overflows to inf; the multipliers must be rejected, not
    # returned as inf or NaN (and the overflow must not warn)
    scn = q.builtin_scenario("unicycle")
    prob = q.StackedProblem.build(unicycle_problem.model, 4, scn.weights)
    jac = np.concatenate([np.full((4, 5, 5), 1e160), np.zeros((4, 5, 2))], axis=2)
    stages = StageData(jac=jac, w=np.zeros((4, 5)))
    with pytest.raises(q.SolverError, match="multipliers are non-finite"):
        stage_multipliers(prob, stages, np.ones(prob.n_y))


def _unicycle_qp(prob):
    rng = np.random.default_rng(3)
    return condense_rho(prob, rng.normal(size=(20, 1)), rng.normal(size=5))


def test_solve_condensed_raises_after_one_solve_on_a_missed_residual(monkeypatch,
                                                                     unicycle_problem):
    # a solve that misses the residual after its two refinement steps is an
    # error: no further dpotrs call
    qp = _unicycle_qp(unicycle_problem)
    dpotrs, log = condensing.dpotrs, []

    def perturbed(*args, **kwargs):
        log.append(None)
        x, info = dpotrs(*args, **kwargs)
        return x + 1e-3, info

    monkeypatch.setattr(condensing, "dpotrs", perturbed)
    with pytest.raises(q.SolverError, match="exceeds tolerance"):
        condensing.solve_condensed(qp)
    assert len(log) == 3


@pytest.mark.parametrize("horizon", [1, 2, 3, 4, 7, 8, 9, 15, 16, 17, 40])
@pytest.mark.parametrize("name", ["unicycle", "adip"])
def test_condense_matches_sequential_rollout(request, name, horizon):
    # the oracle adds b_k and w_k stage by stage, where condense writes
    # them into one buffer before its rollout
    base = request.getfixturevalue(f"{name}_problem")
    prob = q.StackedProblem.build(base.model, horizon, base.weights)
    n, n_x, n_u = prob.n_horizon, prob.n_x, prob.n_u
    rng = np.random.default_rng(horizon)
    # near-identity transitions keep the N = 40 products at a moderate scale
    a = np.eye(n_x) + 0.3 * rng.normal(size=(n, n_x, n_x)) / np.sqrt(n_x)
    stages = StageData(jac=np.concatenate([a, rng.normal(size=(n, n_x, n_u))], axis=2),
                       w=rng.normal(size=(n, n_x)))
    x0 = rng.normal(size=n_x)

    free = [x0]
    gamma = [np.zeros((n_x, n * n_u))]
    for k in range(n):
        free.append(stages.a[k] @ free[k] + stages.w[k])
        nxt = stages.a[k] @ gamma[k]
        nxt[:, k * n_u:(k + 1) * n_u] += stages.b[k]
        gamma.append(nxt)
    free, gamma = np.concatenate(free), np.concatenate(gamma)
    n_s, dense = prob.n_eq, oracles.weight_matrix(prob)
    hess = 2.0 * (gamma.T @ dense[:n_s, :n_s] @ gamma + dense[n_s:, n_s:])
    grad = 2.0 * (gamma.T @ dense[:n_s, :n_s] @ free)

    qp = condensing.condense(prob, stages, x0)
    for got, want in ((qp.gamma, gamma), (qp.free, free), (qp.hess, hess), (qp.grad, grad)):
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


@pytest.mark.parametrize("variant", ["standard", "exact"])
@pytest.mark.parametrize("name", ["unicycle", "adip"])
def test_lapack_solves_equal_scipy_wrappers(request, name, variant):
    # the wrappers call the same LAPACK routines, so results agree bit for bit
    prob = request.getfixturevalue(f"{name}_problem")
    rng = np.random.default_rng(5)
    y = q.initial_guess(prob, request.getfixturevalue(f"{name}_x0"))
    stages = stage_data(prob, y, variant)
    qp = condensing.condense(prob, stages, rng.normal(size=prob.n_x))

    factor = scipy.linalg.cho_factor(qp.hess, lower=True)
    u = scipy.linalg.cho_solve(factor, -qp.grad)
    for _ in range(2):  # solve_condensed's refinement steps
        u -= scipy.linalg.cho_solve(factor, qp.hess @ u + qp.grad)
    assert np.array_equal(condensing.solve_condensed(qp), u)
