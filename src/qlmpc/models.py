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
same point it reproduces the original dynamics exactly.  It is built
from ``stage_jacobian`` alone, so models carry no separate extension.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import ConfigError

Array = np.ndarray

MODEL_IDS = ("unicycle", "adip", "tiny-lti", "tiny-qlpv")


@dataclass(frozen=True)
class ModelDims:
    """State, input and scheduling-parameter dimensions."""

    n_x: int
    n_u: int
    n_rho: int

    def __post_init__(self):
        for name in ("n_x", "n_u", "n_rho"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")


@dataclass(frozen=True)
class LpvModel:
    """Immutable quasi-LPV model; all evaluation maps are pure.

    The closures broadcast over leading stage axes: ``rho(xs, us)`` gives
    ``(..., n_rho)``, ``a_of_rho(r)`` ``(..., n_x, n_x)``, ``b_of_rho(r)``
    ``(..., n_x, n_u)`` and ``stage_jacobian(xs, us)`` ``(..., n_x, n_x + n_u)``.
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
        raise ValueError(f"{what} must have shape ({n},), got {arr.shape}")
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
        # d/d(x,u) of A(phi(x)) x + B u: A(phi) plus the heading column
        v, phi = x[..., 2], x[..., 3]
        cos, sin = np.cos(phi), np.sin(phi)
        jac = np.empty(phi.shape + (5, 7))
        jac[...] = jac_base
        jac[..., 0, 2] = dt * cos
        jac[..., 1, 2] = dt * sin
        jac[..., 0, 3] = -dt * v * sin
        jac[..., 1, 3] = dt * v * cos
        return jac

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
    """Euler-discretized arm-driven inverted pendulum (T = 0.01 s).

    The gravity terms enter through sin(th)/th factors so the embedding
    is exact and the upright origin stays an equilibrium of the frozen
    parameter model.  rho is the full state.
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

    def _sinc(t):
        # sin(t)/t with the removable singularity filled by its series
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where(np.abs(t) < 1e-6, 1.0 - t * t / 6.0, np.sin(t) / t)

    def rho(x, u):
        return np.asarray(x, dtype=float)

    def _mass_inverse_entries(c12):
        m12 = m12_amp * c12
        det = m11 * m22 - m12 * m12
        return m22 / det, -m12 / det, m11 / det

    def a_of_rho(r):
        th12 = r[..., 0] - r[..., 1]
        w1, w2 = r[..., 2], r[..., 3]
        cw = m12_amp * np.sin(th12)
        i11, i12, i22 = (dt * i for i in _mass_inverse_entries(np.cos(th12)))  # of dt M^-1
        g = kg * _sinc(r[..., :2])
        g1, g2 = g[..., 0], g[..., 1]
        i12_cw = i12 * cw
        a = np.empty(th12.shape + (4, 4))
        a[...] = a_base
        a[..., 2, 0] = i11 * g1
        a[..., 2, 1] = i12 * g2
        a[..., 3, 0] = i12 * g1
        a[..., 3, 1] = i22 * g2
        # coriolis block -dt * Minv @ [[0, cw*w2], [-cw*w1, 0]]
        a[..., 2, 2] += i12_cw * w1
        a[..., 2, 3] = -(i11 * cw * w2)
        a[..., 3, 2] = i22 * cw * w1
        a[..., 3, 3] -= i12_cw * w2
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
        # Jacobian of x + dt * (w1, w2, acc) with acc = M(th)^{-1} F and
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
        return jac

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
            stage_jacobian=lambda x, u: np.array([[1.0, 1.0]]),
        )
    if kind == "qlpv":
        return LpvModel(
            name="tiny-qlpv",
            dims=dims,
            rho=lambda x, u: x[..., :1],
            a_of_rho=lambda r: r[..., None],
            b_of_rho=lambda r: one,
            stage_jacobian=lambda x, u: np.stack([2.0 * x, np.ones_like(x)], axis=-1),
        )
    raise ConfigError(f"unknown tiny model kind {kind!r}, expected 'lti' or 'qlpv'")


def get_model(name: str) -> LpvModel:
    """Look up a builtin model by its string identifier."""
    if name == "unicycle":
        return builtin_unicycle()
    if name == "adip":
        return builtin_adip()
    if name in ("tiny-lti", "tiny-qlpv"):
        return builtin_tiny(name.removeprefix("tiny-"))
    raise ConfigError(f"unknown model id {name!r}, expected one of {MODEL_IDS}")
