import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

import qlmpc as q
from qlmpc.stacked import stage_data

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
        b_d = m.dt * np.array([v * math.sin(phi), -v * math.cos(phi), 0.0, 0.0, 0.0])
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
    assert m.dt == 0.01


def test_model_dims_validation():
    with pytest.raises(ValueError):
        q.ModelDims(n_x=0, n_u=1, n_rho=1)


def test_get_model_unknown_id():
    with pytest.raises(q.ConfigError):
        q.get_model("hovercraft")


def test_builtin_tiny_unknown_kind():
    with pytest.raises(q.ConfigError):
        q.builtin_tiny("nonlinear")
