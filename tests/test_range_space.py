"""The range-space QP solve against condensing, its fallback, and its guard.

``solver._step`` solves each QP from the stage data in range space,
through one banded Cholesky factorization of ``G W^-1 G'``, when Q and P
are positive definite; condensing solves the QPs of singular weights and
any QP the range-space solve hands on.  The solve is one pass over the
stage arrays; ``_composed`` keeps it as separate steps (band, ``dpbsv``,
y, feasibility residual), and the pass must equal it bitwise.
"""

import dataclasses

import numpy as np
import pytest
from scipy.linalg.lapack import dpbsv

import qlmpc as q
import qlmpc.condensing as condensing
import qlmpc.solver as solver
from qlmpc.closed_loop import REFERENCE_OPTIONS
from qlmpc.condensing import solve_range_space
from qlmpc.stacked import stage_data, stage_feasibility

from oracles import _assemble_g, _kkt

MODELS = ["tiny-lti", "tiny-qlpv", "unicycle", "adip"]


def _problem(name, horizon):
    """The preset's model and weights at the given horizon."""
    return q.StackedProblem.build(q.get_model(name), horizon, q.builtin_scenario(name).weights)


def _condensed_y(prob, stages, x0):
    qp = condensing.condense(prob, stages, x0)
    return condensing.expand(qp, condensing.solve_condensed(qp))


def _dense_kkt_y(prob, stages, x0):
    """The QP's solution from one dense saddle-point solve."""
    g = _assemble_g(prob, stages)
    rhs = np.concatenate([np.zeros(prob.n_y), x0, stages.w.ravel()])
    return np.linalg.solve(_kkt(prob, g.T, g), rhs)[:prob.n_y]


def _lower_band(blocks, n, n_x):
    """The lower band, in LAPACK storage, of the block tridiagonal matrix
    whose N+1 diagonal and N sub-diagonal blocks ``blocks`` holds in turn."""
    m = (n + 1) * n_x * n_x
    diag, sub = blocks[:m].reshape(n + 1, n_x, n_x), blocks[m:m + n * n_x * n_x]
    dense = np.zeros(((n + 1) * n_x,) * 2)
    for k in range(n + 1):
        dense[k * n_x:(k + 1) * n_x, k * n_x:(k + 1) * n_x] = diag[k]
    for k, block in enumerate(sub.reshape(n, n_x, n_x)):
        dense[(k + 1) * n_x:(k + 2) * n_x, k * n_x:(k + 1) * n_x] = block
    return np.array([np.append(np.diagonal(dense, -d), np.zeros(d)) for d in range(2 * n_x)])


def _composed(prob, stages, x0):
    """The range-space solve as four separate steps, each on its own
    arrays: the band of G W^-1 G', one dpbsv call, y, and y's feasibility
    residual.  The reference that the one-pass solve equals bitwise."""
    inv = prob.inverse_weights
    if inv is None:
        return None
    data = np.concatenate([x0, stages.w.ravel()])
    tol = condensing._RESIDUAL_RTOL * max(1.0, float(np.abs(data).max()))
    with np.errstate(over="ignore", invalid="ignore"):
        jac = stages.jac
        n, n_x, n_z = jac.shape
        jw = (jac.reshape(-1, n_z) @ inv.w).reshape(jac.shape)
        m = (n + 1) * n_x * n_x
        blocks = np.zeros(m + n * n_x * n_x)
        diag = blocks[:m].reshape(n + 1, n_x, n_x)
        np.matmul(jw, jac.transpose(0, 2, 1), out=diag[1:])
        diag += inv.x
        np.negative(jw[:, :, :n_x], out=blocks[m:].reshape(n, n_x, n_x))
        _, lam, info = dpbsv(_lower_band(blocks, n, n_x), -2.0 * data, lower=True)
        if info != 0:
            return None
        lam = lam.reshape(n + 1, n_x)
        t = (lam[1:, None, :] @ jw)[:, 0, :]
        y = np.empty(prob.n_y)
        xs = prob.states(y)
        np.matmul(lam[:, None, :], inv.x, out=xs[:, None, :])
        xs[:-1] -= t[:, :n_x]
        xs *= -0.5
        prob.inputs(y)[:] = 0.5 * t[:, n_x:]
        if np.abs(stage_feasibility(prob, stages, y, x0)).max() <= tol < np.inf:
            return y
    return None


def _ill_conditioned(prob):
    """The unicycle problem prob with Q = P positive definite of condition number 1e10."""
    rng = np.random.default_rng(0)
    v = np.linalg.qr(rng.normal(size=(prob.n_x,) * 2))[0]
    q_ill = v @ np.diag([1.0, 1.0, 1.0, 1.0, 1e-10]) @ v.T
    q_ill = 0.5 * (q_ill + q_ill.T)
    return dataclasses.replace(prob, weights=q.Weights(Q=q_ill, R=prob.weights.R, P=q_ill))


@pytest.mark.parametrize("variant", ["standard", "exact"])
@pytest.mark.parametrize("horizon", [1, 2, 7, 20, 40])
@pytest.mark.parametrize("name", MODELS)
def test_one_pass_equals_the_composed_solve_bitwise(name, horizon, variant):
    prob = _problem(name, horizon)
    rng = np.random.default_rng(100 + horizon)
    for _ in range(5):
        x0 = rng.normal(size=prob.n_x)
        stages = stage_data(prob, 0.5 * rng.normal(size=prob.n_y), variant)
        want = _composed(prob, stages, x0)
        y = solve_range_space(prob, stages, x0)
        assert want is not None and np.array_equal(y, want)


def test_one_pass_and_the_composed_solve_miss_together(unicycle_problem, unicycle_x0):
    prob = _ill_conditioned(unicycle_problem)
    stages = stage_data(prob, q.initial_guess(prob, unicycle_x0), "exact")
    assert _composed(prob, stages, unicycle_x0) is None
    assert solve_range_space(prob, stages, unicycle_x0) is None


@pytest.mark.parametrize("variant", ["standard", "exact"])
@pytest.mark.parametrize("horizon", [1, 2, 20, 40])
@pytest.mark.parametrize("name", MODELS)
def test_range_space_equals_condensing(name, horizon, variant):
    # iterates of half unit scale: at unit scale the exact tiny-qlpv stages
    # A_k = 2 x_k grow the condensed rollout like prod |A_k|, and condensing
    # itself drifts from a dense KKT solve (1.2e-5 relative at N = 40)
    prob = _problem(name, horizon)
    rng = np.random.default_rng(horizon)
    for _ in range(5):
        x0 = rng.normal(size=prob.n_x)
        stages = stage_data(prob, 0.5 * rng.normal(size=prob.n_y), variant)
        y = solve_range_space(prob, stages, x0)
        want = _condensed_y(prob, stages, x0)
        assert y is not None
        assert np.abs(y - want).max() <= 1e-10 * np.abs(want).max()


def test_range_space_equals_dense_kkt_where_the_rollout_grows():
    prob = _problem("tiny-qlpv", 40)
    rng = np.random.default_rng(40)
    for _ in range(5):
        x0 = rng.normal(size=1)
        stages = stage_data(prob, rng.normal(size=prob.n_y), "exact")
        want = _dense_kkt_y(prob, stages, x0)
        y = solve_range_space(prob, stages, x0)
        assert np.abs(y - want).max() <= 1e-10 * np.abs(want).max()


@pytest.mark.parametrize("singular", ["Q", "P"])
def test_singular_weights_take_the_condensing_path(monkeypatch, unicycle_problem, unicycle_x0,
                                                   singular):
    w = dataclasses.asdict(unicycle_problem.weights)
    w[singular] = np.zeros((unicycle_problem.n_x, unicycle_problem.n_x))
    prob = dataclasses.replace(unicycle_problem, weights=q.Weights(**w))
    assert prob.inverse_weights is None
    condensed = []
    condense = solver.condense
    monkeypatch.setattr(solver, "condense", lambda *args: condensed.append(None) or condense(*args))
    y0 = q.initial_guess(prob, unicycle_x0)
    for variant in ("standard", "exact"):
        entry = solver.TraceEntry((prob, unicycle_x0, variant), y0)
        assert solve_range_space(prob, entry.stages, unicycle_x0) is None
        np.testing.assert_array_equal(solver._step(entry).y,
                                      _condensed_y(prob, entry.stages, unicycle_x0))
    assert len(condensed) == 2


def test_residual_miss_falls_back_to_condensing(monkeypatch, adip_problem, adip_x0):
    # multipliers off by 1e-3 give a y that misses the feasibility residual:
    # one band solve, then condensing, which reads no band
    solved = []
    dpbsv = condensing.dpbsv

    def off(*args, **kwargs):
        solved.append(None)
        band, lam, info = dpbsv(*args, **kwargs)
        return band, lam + 1e-3, info

    monkeypatch.setattr(condensing, "dpbsv", off)
    entry = solver.TraceEntry((adip_problem, adip_x0, "standard"),
                              q.initial_guess(adip_problem, adip_x0))
    assert solve_range_space(adip_problem, entry.stages, adip_x0) is None
    assert len(solved) == 1
    np.testing.assert_array_equal(solver._step(entry).y,
                                  _condensed_y(adip_problem, entry.stages, adip_x0))


def test_band_that_fails_to_factor_falls_back_to_condensing(monkeypatch, adip_problem, adip_x0):
    # dpbsv reports a leading minor that is not positive definite
    factored = []

    def not_positive_definite(band, rhs, **kwargs):
        factored.append(None)
        return band, rhs, 1

    monkeypatch.setattr(condensing, "dpbsv", not_positive_definite)
    entry = solver.TraceEntry((adip_problem, adip_x0, "standard"),
                              q.initial_guess(adip_problem, adip_x0))
    assert solve_range_space(adip_problem, entry.stages, adip_x0) is None
    np.testing.assert_array_equal(solver._step(entry).y,
                                  _condensed_y(adip_problem, entry.stages, adip_x0))
    assert len(factored) == 2


def test_replaced_problem_derives_its_own_inverse_weights(unicycle_problem):
    base = q.StackedProblem.build(unicycle_problem.model, 3, unicycle_problem.weights)
    cached = base.inverse_weights
    w = base.weights
    p = 2.0 * w.P + 0.1 * np.ones_like(w.P)
    r = np.array([[2.0, 0.7], [0.7, 1.5]])
    new = dataclasses.replace(base, n_horizon=5, weights=q.Weights(Q=w.Q, R=r, P=p))
    assert base.inverse_weights is cached and len(cached.x) == 4
    inv = new.inverse_weights
    assert len(inv.x) == 6
    eye_x, eye_u = np.eye(new.n_x), np.eye(new.n_u)
    np.testing.assert_allclose(inv.x[:-1] @ w.Q, np.broadcast_to(eye_x, (5, 5, 5)), atol=1e-12)
    np.testing.assert_allclose(inv.x[-1] @ p, eye_x, atol=1e-12)
    np.testing.assert_allclose(inv.w[:new.n_x, :new.n_x] @ w.Q, eye_x, atol=1e-12)
    np.testing.assert_allclose(inv.w[new.n_x:, new.n_x:] @ r, eye_u, atol=1e-12)
    assert not inv.w[:new.n_x, new.n_x:].any()
    singular = dataclasses.replace(base, weights=q.Weights(Q=w.Q, R=w.R, P=0.0 * p))
    assert singular.inverse_weights is None


@pytest.mark.parametrize("scenario, variant, reference, qps", [
    pytest.param("adip", "standard", False, 613, id="adip-standard-613"),
    pytest.param("unicycle", "exact", False, 100, id="unicycle-exact-100"),
    pytest.param("adip", "exact", True, 835, id="adip-reference-835"),
])
def test_preset_qps_all_solve_in_range_space(monkeypatch, scenario, variant, reference, qps):
    # the presets at their seed-0 start, and the ADIP reference loop: a
    # change that sends any of their QPs to condensing, or changes how many
    # they take, fails here, however little it moves the result
    solved, condensed = [], []
    solve, condense = solver.solve_range_space, solver.condense

    def counted_solve(*args):
        y = solve(*args)
        solved.append(y is not None)
        return y

    monkeypatch.setattr(solver, "solve_range_space", counted_solve)
    monkeypatch.setattr(solver, "condense", lambda *args: condensed.append(None) or condense(*args))
    scn = q.builtin_scenario(scenario, variant=variant)
    opts = REFERENCE_OPTIONS if reference else scn.controller
    _, inputs, stats, fail_step, _ = q.run_control_loop(scn.problem, scn.x0, scn.steps, opts)
    assert fail_step is None and len(inputs) == scn.steps
    assert sum(s.iterations for s in stats) == qps
    if opts.mode == "converge":
        assert all(s.converged for s in stats)
    assert len(solved) == qps and all(solved) and not condensed


def test_ill_conditioned_weights_fall_back_to_condensing(unicycle_problem, unicycle_x0):
    # Q and P positive definite with condition number 1e10: W^-1 loses too
    # many digits for the feasibility residual, and condensing solves the QP
    prob = _ill_conditioned(unicycle_problem)
    assert prob.inverse_weights is not None
    entry = solver.TraceEntry((prob, unicycle_x0, "exact"), q.initial_guess(prob, unicycle_x0))
    assert solve_range_space(prob, entry.stages, unicycle_x0) is None
    np.testing.assert_array_equal(solver._step(entry).y,
                                  _condensed_y(prob, entry.stages, unicycle_x0))


@pytest.mark.parametrize("q_min", [1e-3, 1e-4, 1e-6])
def test_small_state_weight_misses_are_solved_by_condensing(adip_problem, adip_x0, q_min):
    # Q = P = diag(q_min, 1, 1, 1) is positive definite, but a small q_min
    # costs W^-1 digits: at random iterates some range-space solves miss
    # the residual, and condensing must still land on the QP's solution
    w = np.diag([q_min, 1.0, 1.0, 1.0])
    prob = q.StackedProblem.build(adip_problem.model, 20, q.Weights(Q=w, R=np.eye(1), P=w))
    assert prob.inverse_weights is not None
    condensed = 0
    for variant in ("standard", "exact"):
        rng = np.random.default_rng(1)
        for scale in np.linspace(0.1, 3.0, 10):
            entry = solver.TraceEntry((prob, adip_x0, variant), scale * rng.normal(size=prob.n_y))
            condensed += solve_range_space(prob, entry.stages, adip_x0) is None
            want = _dense_kkt_y(prob, entry.stages, adip_x0)
            y = solver._step(entry).y
            assert np.abs(y - want).max() <= 1e-8 * np.abs(want).max()
    assert condensed >= 1
