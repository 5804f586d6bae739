"""Stacked equality-constrained form of the finite-horizon OCP.

The decision vector is ``y = (x_0, ..., x_N, u_0, ..., u_{N-1})``.  The
initial condition and the dynamics are collected into one constraint
``G(rho(y)) y + C x0hat = 0`` with block rows

    row 0:    x_0                              (pairs with C x0hat = -x0hat)
    row k+1:  x_{k+1} - A(rho_k) x_k - B(rho_k) u_k

and the cost is ``y' W y`` with ``W = diag(Q, ..., Q, P, R, ..., R)``.
Because the scheduling parameter is a function of y, the constraint map
carries a hidden coupling: its derivative is G plus a correction term
assembled from the per-stage dynamics Jacobians.

The solver works on per-stage data only: ``stage_data`` gives the QP
that a variant freezes at an iterate as ``x_{k+1} = J_k [x_k; u_k] + w_k``
with ``J_k = [A_k B_k]``, and ``stage_residual`` evaluates its
optimality residual stage by stage.  ``stage_data`` takes the iterate's
state and input views once; the range-space solve in ``condensing``
checks its solution's feasibility in its own pass, on the x0 that the
caller validated.  The dense stacked functions
below them (``constraint_matrix``, ``linearized_constraint``,
``coupling_correction``, ``cost_perturbation``, the residuals and the
Gauss-Newton ``sqp_step``) are what ``diagnose`` reads and independent
oracles for the tests; the solver never calls them.  The oracles that
only the tests call (the KKT matrix, the residual's Jacobian, a
finite-difference Jacobian and least-squares multipliers) are in
``tests/oracles.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple, Optional

import numpy as np

from ._lapack import dpotrf, dpotrs
from .errors import SolverError
from .models import LpvModel, _as_vector

Array = np.ndarray

VARIANTS = ("standard", "exact")

# tolerances for entries of size <= 1; both scale with the largest entry
_SYMMETRY_ATOL = 1e-12
_PSD_EIG_FLOOR = -1e-10


def _scale(m: Array) -> float:
    return max(1.0, float(np.max(np.abs(m))))


def _check_square_symmetric(m, n, what):
    m = np.asarray(m, dtype=float)
    if m.ndim == 0:
        m = m.reshape(1, 1)
    if m.shape != (n, n):
        raise ValueError(f"{what} must be {n}x{n}, got {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError(f"{what} must be finite")
    if not np.allclose(m, m.T, rtol=0.0, atol=_SYMMETRY_ATOL * _scale(m)):
        raise ValueError(f"{what} must be symmetric")
    return 0.5 * (m + m.T)


@dataclass(frozen=True)
class Weights:
    """Stage, input and terminal cost matrices.

    Q and P must be positive semidefinite, R positive definite.  The
    symmetry and semidefiniteness tolerances (1e-12 and -1e-10) scale
    with a matrix's largest entry once that exceeds 1.
    """

    Q: Array
    R: Array
    P: Array

    def __post_init__(self):
        nq = np.atleast_2d(np.asarray(self.Q, dtype=float)).shape[0]
        nr = np.atleast_2d(np.asarray(self.R, dtype=float)).shape[0]
        q = _check_square_symmetric(self.Q, nq, "Q")
        r = _check_square_symmetric(self.R, nr, "R")
        p = _check_square_symmetric(self.P, nq, "P")
        if np.linalg.eigvalsh(q).min() < _PSD_EIG_FLOOR * _scale(q):
            raise ValueError("Q must be positive semidefinite")
        if np.linalg.eigvalsh(p).min() < _PSD_EIG_FLOOR * _scale(p):
            raise ValueError("P must be positive semidefinite")
        if np.linalg.eigvalsh(r).min() <= 0.0:
            raise ValueError("R must be positive definite")
        object.__setattr__(self, "Q", q)
        object.__setattr__(self, "R", r)
        object.__setattr__(self, "P", p)


@dataclass(frozen=True)
class KktPoint:
    """Primal-dual pair z = (y, lambda)."""

    y: Array
    lam: Array

    def stack(self) -> Array:
        return np.concatenate([self.y, self.lam])


class InverseWeights(NamedTuple):
    """The inverse weights of the range-space solve: ``x`` stacks
    W_k^-1 = (Q^-1, ..., Q^-1, P^-1) over the N+1 states and ``w`` is
    blkdiag(Q^-1, R^-1), the inverse weight of one stage's ``(x_k, u_k)``."""

    x: Array
    w: Array


def _spd_inverse(m: Array) -> Optional[Array]:
    """The inverse of m from its Cholesky factor; None when m has none."""
    factor, info = dpotrf(m, lower=1, clean=0)
    if info != 0:
        return None
    inv, _ = dpotrs(factor, np.eye(len(m)), lower=1)
    return 0.5 * (inv + inv.T)


def _block_diag(blocks) -> Array:
    """The block-diagonal matrix of the square ``blocks``."""
    out = np.zeros((sum(len(b) for b in blocks),) * 2)
    i = 0
    for b in blocks:
        out[i:i + len(b), i:i + len(b)] = b
        i += len(b)
    return out


@dataclass(frozen=True)
class StackedProblem:
    """Immutable problem data for one horizon; all operations are pure.

    The dimensions, the dense cost and initial-condition matrices and
    the ``inverse_weights`` are derived from the model, the weights and
    the horizon on first use and cached, so they cannot disagree with
    them.  ``states`` and ``inputs`` are the views of a decision vector's
    state and input blocks.
    """

    model: LpvModel
    n_horizon: int
    weights: Weights

    def __post_init__(self):
        if self.n_horizon < 1:
            raise ValueError(f"horizon must be >= 1, got {self.n_horizon}")
        n_x, n_u = self.model.dims.n_x, self.model.dims.n_u
        if self.weights.Q.shape != (n_x, n_x):
            raise ValueError(f"Q must be {n_x}x{n_x}, got {self.weights.Q.shape}")
        if self.weights.R.shape != (n_u, n_u):
            raise ValueError(f"R must be {n_u}x{n_u}, got {self.weights.R.shape}")

    @classmethod
    def build(cls, model: LpvModel, horizon: int, weights: Weights) -> "StackedProblem":
        return cls(model=model, n_horizon=horizon, weights=weights)

    @cached_property
    def weight_matrix(self) -> Array:
        """Block-diagonal cost matrix acting on y."""
        w, n = self.weights, self.n_horizon
        return _block_diag([w.Q] * n + [w.P] + [w.R] * n)

    @cached_property
    def x0_map(self) -> Array:
        """Injects x0hat into the constraint stack."""
        c = np.zeros((self.n_eq, self.n_x))
        c[:self.n_x] = -np.eye(self.n_x)
        return c

    @cached_property
    def inverse_weights(self) -> Optional[InverseWeights]:
        """The range-space solve's inverse weights; None when a Cholesky
        factorization of Q, P or R fails."""
        q, p, r = (_spd_inverse(m) for m in (self.weights.Q, self.weights.P, self.weights.R))
        if q is None or p is None or r is None:
            return None
        x = np.empty((self.n_horizon + 1, self.n_x, self.n_x))
        x[:-1], x[-1] = q, p
        return InverseWeights(x=x, w=_block_diag([q, r]))

    # -- layout helpers ----------------------------------------------------

    @cached_property
    def n_x(self) -> int:
        return self.model.dims.n_x

    @cached_property
    def n_u(self) -> int:
        return self.model.dims.n_u

    @cached_property
    def n_y(self) -> int:
        return (self.n_horizon + 1) * self.n_x + self.n_horizon * self.n_u

    @cached_property
    def n_eq(self) -> int:
        return (self.n_horizon + 1) * self.n_x

    def states(self, y: Array) -> Array:
        return np.asarray(y)[:self.n_eq].reshape(self.n_horizon + 1, self.n_x)

    def inputs(self, y: Array) -> Array:
        return np.asarray(y)[self.n_eq:].reshape(self.n_horizon, self.n_u)

    def check_y(self, y) -> Array:
        y = np.asarray(y, dtype=float).ravel()
        if y.shape != (self.n_y,):
            raise ValueError(f"decision vector must have length {self.n_y}, got {y.shape}")
        return y

    def check_x0(self, x0hat) -> Array:
        return _as_vector(x0hat, self.n_x, "initial state")

    def rho_trajectory(self, y: Array) -> Array:
        """Scheduling parameters of the N stages of y, shape (N, n_rho)."""
        rho = self.model.rho(self.states(y)[:-1], self.inputs(y))
        return per_stage("rho", rho, self.n_horizon, (self.model.dims.n_rho,))


def per_stage(closure: str, out, n: int, shape: tuple) -> Array:
    """A closure's result for n stages as (n, *shape); a ``shape`` result is a constant."""
    out = np.asarray(out, dtype=float)
    if out.shape == (n, *shape):
        return out
    if out.shape == shape:
        return np.broadcast_to(out, (n, *shape))
    raise ValueError(f"model closure {closure} returned shape {out.shape}; "
                     f"expected {(n, *shape)} for {n} stages or the per-stage {shape}")


@dataclass(frozen=True)
class StageData:
    """Per-stage data of one frozen QP: ``x_{k+1} = jac[k] [x_k; u_k] + w[k]``.

    Arrays are stacked over the N stages: ``jac`` holds ``J_k = [A_k B_k]``,
    shape (N, n_x, n_x + n_u), and ``w`` is (N, n_x).  ``a`` and ``b``
    are views of ``jac``.
    """

    jac: Array
    w: Array

    @property
    def a(self) -> Array:
        return self.jac[:, :, :self.jac.shape[1]]

    @property
    def b(self) -> Array:
        return self.jac[:, :, self.jac.shape[1]:]


def frozen_stages(model: LpvModel, rho_traj) -> StageData:
    """Frozen-parameter stage data ([A(rho_k) B(rho_k)], 0) of a parameter trajectory."""
    n, n_x, n_u = len(rho_traj), model.dims.n_x, model.dims.n_u
    a = per_stage("a_of_rho", model.a_of_rho(rho_traj), n, (n_x, n_x))
    b = per_stage("b_of_rho", model.b_of_rho(rho_traj), n, (n_x, n_u))
    return StageData(np.concatenate((a, b), axis=2), np.zeros((n, n_x)))


def stage_data(prob: StackedProblem, y, variant: str) -> StageData:
    """Stage data of the QP that the given variant freezes at the iterate y.

    standard: the frozen-parameter matrices ``[A(rho_k) B(rho_k)]`` with
    no offset.  exact: the stage Jacobian ``J_k = [A_k B_k]`` of the
    dynamics f at ``z_k = [x_k; u_k]`` and the offset
    ``w_k = f(x_k, u_k) - J_k z_k``, i.e. the linearization of the
    dynamics at y, both from one call of the model's ``stage_jacobian``.
    """
    if variant not in VARIANTS:
        raise ValueError(f"variant must be one of {VARIANTS}, got {variant!r}")
    if variant == "standard":
        return frozen_stages(prob.model, prob.rho_trajectory(y))
    xs, us = prob.states(y)[:-1], prob.inputs(y)
    out = prob.model.stage_jacobian(xs, us)
    if not (isinstance(out, tuple) and len(out) == 2):
        raise ValueError(f"model closure stage_jacobian returned {type(out).__name__}; "
                         "expected the tuple (f, J)")
    f = per_stage("stage_jacobian (f)", out[0], prob.n_horizon, (prob.n_x,))
    jac = per_stage("stage_jacobian (J)", out[1], prob.n_horizon, (prob.n_x, prob.n_x + prob.n_u))
    with np.errstate(over="ignore", invalid="ignore"):
        w = f - (jac @ np.concatenate((xs, us), axis=1)[:, :, None])[:, :, 0]
    return StageData(jac, w)


def stage_stationarity(prob: StackedProblem, stages: StageData, y: Array, lam: Array):
    """State and input rows of ``2 W y + G' lam``, with G built from the stages.

    Returns arrays of shape (N+1, n_x) and (N, n_u); ``lam`` holds one
    row per constraint block (initial condition, then each stage).
    """
    xs = prob.states(y)
    lam = np.asarray(lam, dtype=float).reshape(prob.n_horizon + 1, prob.n_x)
    weights = prob.weights
    lam_j = (lam[1:, None, :] @ stages.jac)[:, 0, :]
    stat_x = lam.copy()
    stat_x[:-1] += 2.0 * (xs[:-1] @ weights.Q) - lam_j[:, :prob.n_x]
    stat_x[-1] += 2.0 * (weights.P @ xs[-1])
    stat_u = 2.0 * (prob.inputs(y) @ weights.R) - lam_j[:, prob.n_x:]
    return stat_x, stat_u


def stage_feasibility(prob: StackedProblem, stages: StageData, y: Array, x0hat) -> Array:
    """Rows ``x_0 - x0hat`` and ``x_{k+1} - jac[k] [x_k; u_k] - w[k]`` of
    ``G y + C x0hat``, shape (N+1, n_x)."""
    xs = prob.states(y)
    feas = np.empty(xs.shape)
    feas[0] = xs[0] - x0hat
    z = np.concatenate((xs[:-1], prob.inputs(y)), axis=1)
    feas[1:] = xs[1:] - ((stages.jac @ z[:, :, None])[:, :, 0] + stages.w)
    return feas


def stage_residual(prob: StackedProblem, stages: StageData, z: KktPoint, x0hat) -> float:
    """Infinity norm of the optimality residual of the QP frozen in ``stages``.

    Stationarity ``2 W y + G' lam`` and feasibility ``stage_feasibility``,
    evaluated stage by stage.
    """
    # non-finite values surface as a non-finite residual, reported by
    # the caller; suppress the intermediate overflow warning
    with np.errstate(over="ignore", invalid="ignore"):
        stat_x, stat_u = stage_stationarity(prob, stages, z.y, z.lam)
        feas = stage_feasibility(prob, stages, z.y, x0hat)
        return float(max(np.max(np.abs(stat_x)), np.max(np.abs(stat_u)), np.max(np.abs(feas))))


def _assemble_g(prob: StackedProblem, stages: StageData) -> Array:
    """Dense constraint matrix with the stages' (A_k, B_k) blocks."""
    n_x, n_u, n = prob.n_x, prob.n_u, prob.n_horizon
    g = np.zeros((prob.n_eq, prob.n_y))
    np.fill_diagonal(g[:, :prob.n_eq], 1.0)
    # -a_k and -b_k go into block row k+1 through einsum's writeable diagonal views
    np.einsum("kikj->kij", g[n_x:, :n * n_x].reshape(n, n_x, n, n_x))[...] = -stages.a
    np.einsum("kiku->kiu", g[n_x:, prob.n_eq:].reshape(n, n_x, n, n_u))[...] = -stages.b
    return g


def constraint_matrix(prob: StackedProblem, rho_traj) -> Array:
    """Constraint matrix G for a frozen parameter trajectory."""
    rho_traj = np.asarray(rho_traj, dtype=float).reshape(prob.n_horizon, prob.model.dims.n_rho)
    return _assemble_g(prob, frozen_stages(prob.model, rho_traj))


def _kkt(prob: StackedProblem, top: Array, bottom: Array) -> Array:
    """Saddle-point matrix [[2W, top], [bottom, 0]] acting on (y, lam)."""
    n_y, n_eq = prob.n_y, prob.n_eq
    out = np.zeros((n_y + n_eq, n_y + n_eq))
    out[:n_y, :n_y] = 2.0 * prob.weight_matrix
    out[:n_y, n_y:] = top
    out[n_y:, :n_y] = bottom
    return out


def _residual(prob: StackedProblem, top: Array, bottom: Array, y: Array, lam, x0: Array) -> Array:
    """Optimality residual [2 W y + top lam; bottom y + C x0hat]."""
    stat = 2.0 * (prob.weight_matrix @ y) + top @ lam
    feas = bottom @ y + prob.x0_map @ x0
    return np.concatenate([stat, feas])


def fonc_residual(prob: StackedProblem, z: KktPoint, x0hat) -> Array:
    """First-order optimality residual with the parameter refreshed from y.

    Stationarity block: 2 W y + G(rho(y))' lam.  Feasibility block:
    G(rho(y)) y + C x0hat.  Both solver variants drive the feasibility
    block to zero; only the standard variant zeroes this stationarity.
    """
    y = prob.check_y(z.y)
    x0 = prob.check_x0(x0hat)
    g = constraint_matrix(prob, prob.rho_trajectory(y))
    return _residual(prob, g.T, g, y, z.lam, x0)


def coupling_correction(prob: StackedProblem, y) -> Array:
    """Hidden-coupling term: d[G(rho(y)) y]/dy - G(rho(y)).

    The difference between the dynamics Jacobian and the
    frozen-parameter matrices [A(rho_k) B(rho_k)], stage by stage; zero
    for LTI models.
    """
    return -linearized_constraint(prob, y)[1]


def linearized_constraint(prob: StackedProblem, y) -> tuple[Array, Array]:
    """Jacobian of the constraint map and its disturbance companion.

    Returns ``(jac, dist)`` with ``jac = d[G(rho(y)) y]/dy`` and
    ``dist`` the negated coupling correction, so that
    ``(jac + dist) y == G(rho(y)) y`` for every y.
    """
    y = prob.check_y(y)
    g = _assemble_g(prob, stage_data(prob, y, "standard"))
    jac = _assemble_g(prob, stage_data(prob, y, "exact"))
    return jac, g - jac


def cost_perturbation(prob: StackedProblem, y, lam) -> Array:
    """Linear cost perturbation picked up by the standard fixpoint.

    e = -correction(y)' lam; a converged standard iterate is a
    stationary point of the cost ``y' W y + e' y`` under the true
    constraint.  Vanishes for LTI models and for the exact variant.
    """
    delta = coupling_correction(prob, y)
    return -delta.T @ np.asarray(lam, dtype=float)


def true_fonc_residual(prob: StackedProblem, z: KktPoint, x0hat) -> Array:
    """Optimality residual of the original NLP (full constraint Jacobian)."""
    y = prob.check_y(z.y)
    x0 = prob.check_x0(x0hat)
    jac, dist = linearized_constraint(prob, y)
    return _residual(prob, jac.T, jac + dist, y, z.lam, x0)


def sqp_step(prob: StackedProblem, z: KktPoint, x0hat) -> KktPoint:
    """Gauss-Newton SQP step in the update variable p, via a dense KKT solve.

    Solves for p with the constraint linearized at y[l] and the cost
    Hessian replaced by 2W, then returns (y[l] + p, lam).  The
    right-hand side is the negated frozen-parameter residual at lam = 0.
    Agrees with the exact variant's iterate up to solver tolerance; kept
    on a separate dense solve path so the equivalence is a real
    cross-check.
    """
    y = prob.check_y(z.y)
    jac, _ = linearized_constraint(prob, y)
    rhs = -fonc_residual(prob, KktPoint(y, np.zeros(prob.n_eq)), x0hat)
    try:
        sol = np.linalg.solve(_kkt(prob, jac.T, jac), rhs)
    except np.linalg.LinAlgError as exc:
        raise SolverError(f"SQP step KKT solve failed: {exc}") from None
    return KktPoint(y + sol[:prob.n_y], sol[prob.n_y:])
