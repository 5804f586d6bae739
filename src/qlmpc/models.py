"""Quasi-LPV plant models and the builtin benchmark instances.

A model is the discrete-time system ``x+ = A(rho) x + B(rho) u`` together
with the scheduling map ``rho(x, u)``.  Because the parameter depends on
the state and input, the system is only quasi linear; evaluating the
matrices at a frozen parameter trajectory yields an ordinary linear
time-varying model.  All builtin instances keep the origin as an
unforced equilibrium.

The model closures broadcast over leading stage axes, so the stacked OCP
calls each once per trajectory with the ``(N, n_x)`` states and
``(N, n_u)`` inputs (or ``(N, n_rho)`` parameters); 1-D arrays give one
point.  A result of the per-stage shape is a constant, broadcast over
the stages; any other shape is rejected.

The exact solver variant freezes the linearization of the dynamics
instead, ``x+ = J_x x + J_u u + w`` with ``w = f(xb, ub) - J [xb; ub]``
at the previous iterate ``(xb, ub)``.  This is the paper's
disturbance-augmented reading: a fictitious system
``x+ = At(rt) x + Bt(rt) u + Bd(rt) d`` whose frozen matrices are the
dynamics Jacobian, driven by a disturbance ``d`` computed from the
previous iterate (for the unicycle ``rt = (v, phi)``, ``d = phi`` and
``Bd = dt (v sin phi, -v cos phi, 0, 0, 0)'``); with ``d`` taken at the
same point it reproduces the original dynamics exactly.  ``f`` and ``J``
come together from one closure, ``stage_jacobian``; models carry no extension.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import ConfigError

Array = np.ndarray


def _is_int(value) -> bool:
    """A Python or numpy integer, not a boolean: ``bool`` subclasses ``int``
    (``np.bool_`` is no ``np.integer``)."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _check_count(name: str, value) -> None:
    """The one rule for a count (a dimension, horizon, step count or cap):
    an integer >= 1, where ``True`` is no integer."""
    if not _is_int(value) or value < 1:
        raise ValueError(f"{name} must be an integer >= 1, got {value!r}")


@dataclass(frozen=True)
class ModelDims:
    """State, input and scheduling-parameter dimensions, each an integer >= 1."""

    n_x: int
    n_u: int
    n_rho: int

    def __post_init__(self):
        for name in ("n_x", "n_u", "n_rho"):
            _check_count(name, getattr(self, name))


@dataclass(frozen=True)
class LpvModel:
    """Immutable quasi-LPV model; all evaluation maps are pure.

    The closures broadcast over leading stage axes: ``rho(xs, us)`` gives
    ``(..., n_rho)``, ``a_of_rho(r)`` ``(..., n_x, n_x)``, ``b_of_rho(r)``
    ``(..., n_x, n_u)`` and ``stage_jacobian(xs, us)`` the tuple ``(f, J)`` of
    the dynamics ``f = A(rho) x + B(rho) u``, ``(..., n_x)``, which must equal
    what the closed loop simulates, and their Jacobian ``(..., n_x, n_x + n_u)``.
    A result of the per-stage shape alone is a constant for every stage.
    """

    name: str
    dims: ModelDims
    rho: Callable[[Array, Array], Array]
    a_of_rho: Callable[[Array], Array]
    b_of_rho: Callable[[Array], Array]
    stage_jacobian: Callable[[Array, Array], Array]
    note: Optional[str] = None


def _as_vector(v, n, what):
    arr = np.atleast_1d(np.asarray(v, dtype=float))
    if arr.shape != (n,):
        raise ValueError(f"{what} must have length {n}, got {arr.shape}")
    return arr


def eval_dynamics(model: LpvModel, x, u) -> Array:
    """One step of the discrete dynamics, A(rho(x,u)) x + B(rho(x,u)) u."""
    x = _as_vector(x, model.dims.n_x, "state")
    u = _as_vector(u, model.dims.n_u, "input")
    r = model.rho(x, u)
    return model.a_of_rho(r) @ x + model.b_of_rho(r) @ u


# ---------------------------------------------------------------------------
# Dynamic unicycle: x = (s, q, v, phi, omega), u = (F, tau), rho = phi.

def builtin_unicycle() -> LpvModel:
    """Euler-discretized dynamic unicycle (T = 0.1 s) with analytic stage Jacobian."""
    dims = ModelDims(n_x=5, n_u=2, n_rho=1)
    dt = 0.1

    b_mat = np.zeros((5, 2))
    b_mat[2, 0] = dt
    b_mat[4, 1] = dt

    a_base = np.eye(5)
    a_base[3, 4] = dt

    def rho(x, u):
        return x[..., 3:4]

    def a_of_rho(r):
        phi = r[..., 0]
        a = np.empty(phi.shape + (5, 5))
        a[...] = a_base
        a[..., 0, 2] = dt * np.cos(phi)
        a[..., 1, 2] = dt * np.sin(phi)
        return a

    def b_of_rho(r):
        return b_mat

    jac_base = np.hstack([a_base, b_mat])

    def stage_jacobian(x, u):
        # f = x + dt (v cos, v sin, F, omega, tau); J = A(phi) plus the heading column
        v, phi = x[..., 2], x[..., 3]
        cos, sin = np.cos(phi), np.sin(phi)
        jac = np.empty(phi.shape + (5, 7))
        jac[...] = jac_base
        jac[..., 0, 2] = dt * cos
        jac[..., 1, 2] = dt * sin
        jac[..., 0, 3] = -dt * v * sin
        jac[..., 1, 3] = dt * v * cos
        step = np.empty(x.shape)
        step[..., :2] = jac[..., :2, 2] * v[..., None]
        step[..., 2::2] = dt * u
        step[..., 3] = dt * x[..., 4]
        return x + step, jac

    return LpvModel("unicycle", dims, rho, a_of_rho, b_of_rho, stage_jacobian)


# ---------------------------------------------------------------------------
# Arm-driven inverted pendulum: x = (th1, th2, th1dot, th2dot), scalar torque.
#
# Physical parameters are package defaults picked for this benchmark
# (point-mass two-link model), not identified hardware values.  The
# scale is a small desktop device; with heavier links the benchmark
# weights price the torque out of stabilizing the upright equilibrium.

ADIP_PARAMS = {
    "arm_mass": 0.1,       # kg
    "arm_length": 0.1,     # m
    "pend_mass": 0.05,     # kg
    "pend_length": 0.1,    # m
    "gravity": 9.81,       # m/s^2
}

ADIP_NOTE = "ADIP physical parameters are package stand-ins, not identified hardware values"


def builtin_adip() -> LpvModel:
    """Euler-discretized arm-driven inverted pendulum (T = 0.01 s); rho is the full state.

    Rows 2:4 of ``[A B]`` are those of the identity plus
    ``dt M(th)^-1 [[g1, 0, 0, -cw w2, 1], [0, g2, cw w1, 0, 0]]``, ``cw = m12 sin(th1 - th2)``.
    The gravity factors ``g_i = kg_i sin(th_i)/th_i``, ``kg_i`` at 0, keep the embedding
    exact and the upright origin an equilibrium of the frozen parameter model.
    """
    dims = ModelDims(n_x=4, n_u=1, n_rho=4)
    dt = 0.01
    m1 = ADIP_PARAMS["arm_mass"]
    l1 = ADIP_PARAMS["arm_length"]
    m2 = ADIP_PARAMS["pend_mass"]
    l2 = ADIP_PARAMS["pend_length"]
    g = ADIP_PARAMS["gravity"]

    m11 = (m1 + m2) * l1 * l1
    m22 = m2 * l2 * l2
    m12_amp = m2 * l1 * l2
    kg1 = (m1 + m2) * g * l1
    kg2 = m2 * g * l2
    kg = np.array([kg1, kg2])

    a_base = np.eye(4)
    a_base[0, 2] = dt
    a_base[1, 3] = dt

    def rho(x, u):
        return np.asarray(x, dtype=float)

    def _mass_inverse_entries(c12):
        m12 = m12_amp * c12
        det = m11 * m22 - m12 * m12
        return m22 / det, -m12 / det, m11 / det

    def a_of_rho(r):
        th = r[..., :2]
        th12 = r[..., 0] - r[..., 1]
        mc = m12_amp * np.cos(th12)
        scale = dt / (m11 * m22 - mc * mc)
        i11, i12, i22 = m22 * scale, -mc * scale, m11 * scale  # of dt M^-1
        g = kg * np.divide(np.sin(th), th, out=np.ones(th.shape), where=th != 0.0)
        g1, g2 = g[..., 0], g[..., 1]
        cw = m12_amp * np.sin(th12)
        cw1, cw2 = cw * r[..., 2], cw * r[..., 3]
        a = np.empty(th12.shape + (4, 4))
        a[..., :2, :] = a_base[:2]
        a[..., 2, 0] = i11 * g1
        a[..., 2, 1] = i12 * g2
        a[..., 3, 0] = i12 * g1
        a[..., 3, 1] = i22 * g2
        a[..., 2, 2] = 1.0 + i12 * cw1
        a[..., 2, 3] = -(i11 * cw2)
        a[..., 3, 2] = i22 * cw1
        a[..., 3, 3] = 1.0 - i12 * cw2
        return a

    def b_of_rho(r):
        i11, i12, _ = _mass_inverse_entries(np.cos(r[..., 0] - r[..., 1]))
        b = np.zeros(i11.shape + (4, 1))
        b[..., 2, 0] = dt * i11
        b[..., 3, 0] = dt * i12
        return b

    jac_base = np.zeros((4, 5))
    jac_base[:, :4] = a_base

    def stage_jacobian(x, u):
        # f = x + dt * (w1, w2, acc) and its Jacobian, with acc = M(th)^{-1} F and
        # F = tau e1 - coriolis(th, w) + gravity(th); uses
        # d(M^{-1} F)/dq = M^{-1} (dF/dq - dM/dq acc).
        w1, w2, tau = x[..., 2], x[..., 3], u[..., 0]
        th12 = x[..., 0] - x[..., 1]
        c12 = np.cos(th12)
        mc = m12_amp * c12
        cw = m12_amp * np.sin(th12)
        i11, i12, i22 = _mass_inverse_entries(c12)
        kg_sin = kg * np.sin(x[..., :2])
        kg_cos = kg * np.cos(x[..., :2])
        f1 = tau - cw * w2 * w2 + kg_sin[..., 0]
        f2 = cw * w1 * w1 + kg_sin[..., 1]
        acc1 = i11 * f1 + i12 * f2
        acc2 = i12 * f1 + i22 * f2
        # rows dF/d(th1, th2, w1, w2, tau); dM/dth1 @ acc = (-cw*acc2,
        # -cw*acc1) and dM/dth2 is its negative
        df = np.zeros(th12.shape + (2, 5))
        df[..., 0, 0] = kg_cos[..., 0] - mc * w2 * w2 + cw * acc2
        df[..., 0, 1] = mc * w2 * w2 - cw * acc2
        df[..., 0, 3] = -2.0 * cw * w2
        df[..., 0, 4] = 1.0
        df[..., 1, 0] = mc * w1 * w1 + cw * acc1
        df[..., 1, 1] = kg_cos[..., 1] - mc * w1 * w1 - cw * acc1
        df[..., 1, 2] = 2.0 * cw * w1
        jac = np.empty(th12.shape + (4, 5))
        jac[...] = jac_base
        jac[..., 2, :] += dt * (i11[..., None] * df[..., 0, :] + i12[..., None] * df[..., 1, :])
        jac[..., 3, :] += dt * (i12[..., None] * df[..., 0, :] + i22[..., None] * df[..., 1, :])
        rate = np.empty(x.shape)
        rate[..., :2] = x[..., 2:]
        rate[..., 2], rate[..., 3] = acc1, acc2
        return x + dt * rate, jac

    return LpvModel("adip", dims, rho, a_of_rho, b_of_rho, stage_jacobian, note=ADIP_NOTE)


# ---------------------------------------------------------------------------
# Tiny scalar instances used for analytic cross-checks.

def builtin_tiny(kind: str) -> LpvModel:
    """Scalar test instances: ``lti`` (x+ = x + u) or ``qlpv`` (x+ = x^2 + u)."""
    dims = ModelDims(n_x=1, n_u=1, n_rho=1)
    one = np.ones((1, 1))

    if kind == "lti":
        return LpvModel(
            name="tiny-lti",
            dims=dims,
            rho=lambda x, u: np.zeros(1),
            a_of_rho=lambda r: one,
            b_of_rho=lambda r: one,
            stage_jacobian=lambda x, u: (x + u, np.array([[1.0, 1.0]])),
        )
    if kind == "qlpv":
        return LpvModel(
            name="tiny-qlpv",
            dims=dims,
            rho=lambda x, u: x[..., :1],
            a_of_rho=lambda r: r[..., None],
            b_of_rho=lambda r: one,
            stage_jacobian=lambda x, u: (x * x + u, np.stack([2.0 * x, np.ones_like(x)], axis=-1)),
        )
    raise ConfigError(f"unknown tiny model kind {kind!r}, expected 'lti' or 'qlpv'")


_BUILTINS = {
    "unicycle": builtin_unicycle,
    "adip": builtin_adip,
    "tiny-lti": lambda: builtin_tiny("lti"),
    "tiny-qlpv": lambda: builtin_tiny("qlpv"),
}
MODEL_IDS = tuple(_BUILTINS)


def get_model(name: str) -> LpvModel:
    """Look up a builtin model by its string identifier."""
    if name in _BUILTINS:
        return _BUILTINS[name]()
    raise ConfigError(f"unknown model id {name!r}, expected one of {MODEL_IDS}")
