import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

import qlmpc as q
from qlmpc.stacked import per_stage, stage_data

ALL_MODEL_IDS = ["unicycle", "adip", "tiny-lti", "tiny-qlpv"]


def exact_stage(m, x, u):
    """Exact-variant stage data (a, b, w) of one stage linearized at (x, u)."""
    n_x, n_u = m.dims.n_x, m.dims.n_u
    prob = q.StackedProblem.build(m, 1, q.Weights(Q=np.eye(n_x), R=np.eye(n_u), P=np.eye(n_x)))
    stages = stage_data(prob, np.concatenate([x, np.zeros(n_x), u]), "exact")
    return stages.a[0], stages.b[0], stages.w[0]


def test_rho_unicycle_is_heading():
    m = q.builtin_unicycle()
    assert_allclose(m.rho(np.array([1.0, 2.0, 0.0, math.pi, 0.0]), np.zeros(2)), [math.pi])
    assert_allclose(m.rho(np.zeros(5), np.zeros(2)), [0.0])


def test_rho_tiny_qlpv_is_state():
    m = q.builtin_tiny("qlpv")
    assert_allclose(m.rho(np.array([0.5]), np.zeros(1)), [0.5])


def test_eval_dynamics_unicycle_drives_forward():
    m = q.builtin_unicycle()
    x_next = q.eval_dynamics(m, [0.0, 0.0, 1.0, 0.0, 0.0], [0.0, 0.0])
    assert_allclose(x_next, [0.1, 0.0, 1.0, 0.0, 0.0], atol=1e-15)


def test_eval_dynamics_tiny_lti():
    m = q.builtin_tiny("lti")
    assert_allclose(q.eval_dynamics(m, [1.0], [-0.5]), [0.5])


@pytest.mark.parametrize("name", ALL_MODEL_IDS)
def test_origin_is_equilibrium(name):
    m = q.get_model(name)
    x_next = q.eval_dynamics(m, np.zeros(m.dims.n_x), np.zeros(m.dims.n_u))
    assert np.all(x_next == 0.0)


def test_unicycle_is_euler_step_of_its_field():
    # continuous unicycle field; its Euler step must match the builtin model
    def field(x, u):
        s, qq, v, phi, omega = x
        return np.array([v * math.cos(phi), v * math.sin(phi), u[0], omega, u[1]])

    m = q.builtin_unicycle()
    rng = np.random.default_rng(3)
    for _ in range(20):
        x = rng.normal(size=5)
        u = rng.normal(size=2)
        assert_allclose(x + 0.1 * field(x, u), q.eval_dynamics(m, x, u), atol=1e-14)


# The exact variant's offset w is the paper's disturbance input: for the
# unicycle, w = Bd(v, phi) d with d = phi and
# Bd = dt (v sin phi, -v cos phi, 0, 0, 0).

def test_unicycle_disturbance_column():
    phi = math.pi / 2.0
    _, _, w = exact_stage(q.builtin_unicycle(), np.array([0.0, 0.0, 1.0, phi, 0.0]), np.zeros(2))
    assert_allclose(w / phi, [0.1, 0.0, 0.0, 0.0, 0.0], atol=1e-15)


def test_unicycle_linearized_matrix_entries():
    a, _, _ = exact_stage(q.builtin_unicycle(), np.array([0.0, 0.0, 1.0, 0.0, 0.0]), np.zeros(2))
    assert a[0, 3] == 0.0
    assert a[1, 3] == pytest.approx(0.1, abs=1e-15)


def test_unicycle_disturbance_is_previous_heading():
    m = q.builtin_unicycle()
    rng = np.random.default_rng(12)
    for _ in range(20):
        x = rng.normal(scale=2.0, size=5)
        v, phi = x[2], x[3]
        _, _, w = exact_stage(m, x, rng.normal(size=2))
        b_d = 0.1 * np.array([v * math.sin(phi), -v * math.cos(phi), 0.0, 0.0, 0.0])
        assert_allclose(w, b_d * phi, atol=1e-12)


@pytest.mark.parametrize("name", ALL_MODEL_IDS)
def test_stage_jacobian_matches_finite_differences(name):
    m = q.get_model(name)
    n_x = m.dims.n_x

    def dynamics(xu):
        return q.eval_dynamics(m, xu[:n_x], xu[n_x:])

    rng = np.random.default_rng(11)
    for _ in range(100):
        x = rng.normal(scale=1.5, size=n_x)
        u = rng.normal(scale=1.5, size=m.dims.n_u)
        ja = m.stage_jacobian(x, u)
        jf = q.fd_jacobian(dynamics, np.concatenate([x, u]), 1e-6)
        assert np.abs(ja - jf).max() <= 1e-5 * max(1.0, np.abs(jf).max())


def closure_shapes(m):
    """Per-stage result shape of each model closure."""
    n_x, n_u, n_rho = m.dims.n_x, m.dims.n_u, m.dims.n_rho
    return {"rho": (n_rho,), "a_of_rho": (n_x, n_x), "b_of_rho": (n_x, n_u),
            "stage_jacobian": (n_x, n_x + n_u)}


def random_batch(m, n, seed):
    rng = np.random.default_rng(seed)
    return (rng.normal(scale=1.5, size=(n, m.dims.n_x)),
            rng.normal(scale=1.5, size=(n, m.dims.n_u)))


@pytest.mark.parametrize("name", ALL_MODEL_IDS)
def test_closures_broadcast_over_stages(name):
    # one batched call equals the per-point calls stacked; array and
    # scalar sin may differ by an ulp
    m = q.get_model(name)
    shapes = closure_shapes(m)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(1, 40), st.integers(0, 2**32 - 1))
    def check(n, seed):
        xs, us = random_batch(m, n, seed)
        rs = per_stage("rho", m.rho(xs, us), n, shapes["rho"])
        points = [m.rho(x, u) for x, u in zip(xs, us)]
        batched = {"rho": rs, "a_of_rho": m.a_of_rho(rs), "b_of_rho": m.b_of_rho(rs),
                   "stage_jacobian": m.stage_jacobian(xs, us)}
        pointwise = {"rho": points, "a_of_rho": [m.a_of_rho(r) for r in points],
                     "b_of_rho": [m.b_of_rho(r) for r in points],
                     "stage_jacobian": [m.stage_jacobian(x, u) for x, u in zip(xs, us)]}
        for closure, out in batched.items():
            ref = np.array(pointwise[closure])
            assert ref.shape == (n, *shapes[closure])
            got = per_stage(closure, out, n, shapes[closure])
            assert np.abs(got - ref).max() <= 1e-14 * max(1.0, np.abs(ref).max())

    check()


@pytest.mark.parametrize("name", ALL_MODEL_IDS)
def test_batched_stage_jacobian_matches_finite_differences(name):
    m = q.get_model(name)
    n_x = m.dims.n_x

    def dynamics(xu):
        return q.eval_dynamics(m, xu[:n_x], xu[n_x:])

    @settings(max_examples=10, deadline=None)
    @given(st.integers(1, 40), st.integers(0, 2**32 - 1))
    def check(n, seed):
        xs, us = random_batch(m, n, seed)
        jac = per_stage("stage_jacobian", m.stage_jacobian(xs, us), n, (n_x, n_x + m.dims.n_u))
        for ja, x, u in zip(jac, xs, us):
            jf = q.fd_jacobian(dynamics, np.concatenate([x, u]), 1e-6)
            assert np.abs(ja - jf).max() <= 1e-5 * max(1.0, np.abs(jf).max())

    check()


@settings(max_examples=50, deadline=None)
@given(st.floats(-1e-6, 1e-6), st.floats(-1e-6, 1e-6))
def test_adip_near_zero_angles_is_finite_and_silent(th1, th2):
    # the sin(t)/t gravity factor takes its series branch at and near
    # t = 0, without a division warning
    m = q.get_model("adip")
    xs = np.array([[0.0, 0.0, 0.3, -0.2], [th1, th2, 0.3, -0.2], [th1, 0.0, 0.0, 0.0]])
    us = np.ones((3, 1))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        outs = [m.a_of_rho(m.rho(xs, us)), m.b_of_rho(m.rho(xs, us)), m.stage_jacobian(xs, us)]
        outs += [m.a_of_rho(m.rho(x, u)) for x, u in zip(xs, us)]
        outs += [q.eval_dynamics(m, x, u) for x, u in zip(xs, us)]
    assert all(np.all(np.isfinite(o)) for o in outs)
    # the gravity entry dt M^-1[0, 0] kg1 sinc(th1) is continuous at 0
    a = outs[0]
    assert a[1, 2, 0] == pytest.approx(a[0, 2, 0], rel=1e-10)
    assert a[2, 2, 0] == pytest.approx(a[0, 2, 0], rel=1e-10)


def test_pointwise_only_closure_is_rejected():
    # a scheduling map written for one point sees the whole trajectory;
    # broadcasting its (1, 1) result would freeze stage 0's parameter on
    # every stage
    m = dataclasses.replace(q.builtin_tiny("qlpv"), rho=lambda x, u: np.array([x[0]]))
    prob = q.StackedProblem.build(m, 4, q.Weights(Q=np.eye(1), R=np.eye(1), P=np.eye(1)))
    y = np.arange(1.0, prob.n_y + 1.0)
    for variant in ("standard", "exact"):
        with pytest.raises(ValueError, match=r"rho returned shape \(1, 1\).*\(4, 1\).*\(1,\)"):
            stage_data(prob, y, variant)
    with pytest.raises(ValueError, match="rho"):
        prob.rho_trajectory(y)


@pytest.mark.parametrize("name", ALL_MODEL_IDS)
def test_exact_extension_reproduces_dynamics(name):
    # the exact stage data with the offset evaluated at the same point
    # must equal the plain dynamics
    m = q.get_model(name)
    rng = np.random.default_rng(7)
    for _ in range(100):
        x = rng.normal(scale=2.0, size=m.dims.n_x)
        u = rng.normal(scale=2.0, size=m.dims.n_u)
        a, b, w = exact_stage(m, x, u)
        assert_allclose(a @ x + b @ u + w, q.eval_dynamics(m, x, u), atol=1e-12)


def test_adip_has_standin_note_and_no_extension():
    m = q.get_model("adip")
    assert m.note is not None
    # the sampling time: th1+ = th1 + 0.01 w1
    assert q.eval_dynamics(m, [0.0, 0.0, 1.0, 0.0], [0.0])[0] == 0.01


def test_model_dims_validation():
    with pytest.raises(ValueError):
        q.ModelDims(n_x=0, n_u=1, n_rho=1)


def test_get_model_unknown_id():
    with pytest.raises(q.ConfigError):
        q.get_model("hovercraft")


def test_builtin_tiny_unknown_kind():
    with pytest.raises(q.ConfigError):
        q.builtin_tiny("nonlinear")
