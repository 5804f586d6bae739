"""Dense oracles that only the tests call.

The cost matrix W and the initial-condition map C, the constraint
matrix G of a parameter trajectory and the linearized constraint, the
frozen-parameter and the NLP optimality residuals, the hidden-coupling
correction and the paper's cost perturbation ``e`` from it, the
fixed-parameter KKT matrix, the dense Gauss-Newton SQP step, the exact
Jacobian of the optimality residual map, a central-difference Jacobian
and the least-squares multipliers of a QP solution.  Each builds the
dense stacked algebra of ``qlmpc.stacked`` independently of the
solver's per-stage path and of the stage-wise ``e``, residuals and band
SQP step that ``diagnose`` reads, so the tests can check one against
the other.
``certificate_trace`` is the residual-stopped solve from a given start:
a cut of a fresh one-entry list, where ``qlmpc diagnose`` cuts one
shared list.
"""

import numpy as np
import scipy.linalg

from qlmpc.diagnostics import _prefix
from qlmpc.errors import SolverError
from qlmpc.solver import IterateTrace, TraceEntry
from qlmpc.stacked import (
    KktPoint,
    StackedProblem,
    StageData,
    frozen_stages,
    stage_data,
)

Array = np.ndarray


def weight_matrix(prob: StackedProblem) -> Array:
    """Block-diagonal cost matrix acting on y."""
    w, n = prob.weights, prob.n_horizon
    return scipy.linalg.block_diag(*([w.Q] * n + [w.P] + [w.R] * n))


def x0_map(prob: StackedProblem) -> Array:
    """Injects x0hat into the constraint stack."""
    c = np.zeros((prob.n_eq, prob.n_x))
    c[:prob.n_x] = -np.eye(prob.n_x)
    return c


def _assemble_g(prob: StackedProblem, stages: StageData) -> Array:
    """Dense constraint matrix with the stages' (A_k, B_k) blocks."""
    n_x, n_u, n = prob.n_x, prob.n_u, prob.n_horizon
    g = np.zeros((prob.n_eq, prob.n_y))
    np.fill_diagonal(g[:, :prob.n_eq], 1.0)
    # -a_k and -b_k go into block row k+1 through einsum's writeable diagonal views
    np.einsum("kikj->kij", g[n_x:, :n * n_x].reshape(n, n_x, n, n_x))[...] = -stages.a
    np.einsum("kiku->kiu", g[n_x:, prob.n_eq:].reshape(n, n_x, n, n_u))[...] = -stages.b
    return g


def _kkt(prob: StackedProblem, top: Array, bottom: Array) -> Array:
    """Saddle-point matrix [[2W, top], [bottom, 0]] acting on (y, lam)."""
    n_y, n_eq = prob.n_y, prob.n_eq
    out = np.zeros((n_y + n_eq, n_y + n_eq))
    out[:n_y, :n_y] = 2.0 * weight_matrix(prob)
    out[:n_y, n_y:] = top
    out[n_y:, :n_y] = bottom
    return out


def _residual(prob: StackedProblem, top: Array, bottom: Array, y: Array, lam, x0: Array) -> Array:
    """Optimality residual [2 W y + top lam; bottom y + C x0hat]."""
    stat = 2.0 * (weight_matrix(prob) @ y) + top @ lam
    feas = bottom @ y + x0_map(prob) @ x0
    return np.concatenate([stat, feas])


def linearized_constraint(prob: StackedProblem, y) -> tuple[Array, Array]:
    """Jacobian of the constraint map and its disturbance companion.

    Returns ``(jac, dist)`` with ``jac = d[G(rho(y)) y]/dy`` and
    ``dist = G(rho(y)) - jac``, the negated hidden-coupling correction,
    so that ``(jac + dist) y == G(rho(y)) y`` for every y.
    """
    y = prob.check_y(y)
    g = _assemble_g(prob, stage_data(prob, y, "standard"))
    jac = _assemble_g(prob, stage_data(prob, y, "exact"))
    return jac, g - jac


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
    x0 = prob.check_x0(x0hat)
    jac, _ = linearized_constraint(prob, y)
    g = _assemble_g(prob, stage_data(prob, y, "standard"))
    rhs = -_residual(prob, g.T, g, y, np.zeros(prob.n_eq), x0)
    try:
        sol = np.linalg.solve(_kkt(prob, jac.T, jac), rhs)
    except np.linalg.LinAlgError as exc:
        raise SolverError(f"SQP step KKT solve failed: {exc}") from None
    return KktPoint(y + sol[:prob.n_y], sol[prob.n_y:])


def constraint_matrix(prob: StackedProblem, rho_traj) -> Array:
    """Constraint matrix G for a frozen parameter trajectory."""
    rho_traj = np.asarray(rho_traj, dtype=float).reshape(prob.n_horizon, prob.model.dims.n_rho)
    return _assemble_g(prob, frozen_stages(prob.model, rho_traj))


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


def cost_perturbation(prob: StackedProblem, y, lam) -> Array:
    """Linear cost perturbation picked up by the standard fixpoint, densely.

    e = -correction(y)' lam; a converged standard iterate is a
    stationary point of the cost ``y' W y + e' y`` under the true
    constraint.  e depends on (y, lam) and vanishes where the two
    variants' stage Jacobians agree, as they do on LTI models.
    """
    delta = coupling_correction(prob, y)
    return -delta.T @ np.asarray(lam, dtype=float)


def true_fonc_residual(prob: StackedProblem, z: KktPoint, x0hat) -> Array:
    """Optimality residual of the original NLP (full constraint Jacobian)."""
    y = prob.check_y(z.y)
    x0 = prob.check_x0(x0hat)
    jac, dist = linearized_constraint(prob, y)
    return _residual(prob, jac.T, jac + dist, y, z.lam, x0)


def kkt_matrix(prob: StackedProblem, z: KktPoint) -> Array:
    """Fixed-parameter KKT matrix [[2W, G'], [G, 0]] at rho(y).

    This is the Newton-type matrix the iteration implicitly applies; it
    is symmetric by construction.
    """
    y = prob.check_y(z.y)
    g = constraint_matrix(prob, prob.rho_trajectory(y))
    return _kkt(prob, g.T, g)


def fd_jacobian(f, z, step: float) -> Array:
    """Central-difference Jacobian of a vector function at z."""
    if step <= 0:
        raise ValueError(f"step must be positive, got {step}")
    z = np.atleast_1d(np.asarray(z, dtype=float))
    f0 = np.atleast_1d(np.asarray(f(z), dtype=float))
    out = np.empty((f0.size, z.size))
    for j in range(z.size):
        zp = z.copy()
        zm = z.copy()
        zp[j] += step
        zm[j] -= step
        out[:, j] = (np.asarray(f(zp), dtype=float) - np.asarray(f(zm), dtype=float)) / (2.0 * step)
    return out


def fonc_jacobian(prob: StackedProblem, z: KktPoint) -> Array:
    """Exact Jacobian of the optimality residual map.

    The constraint block is assembled from the per-stage dynamics
    Jacobians; the curvature block d[G' lam]/dy is approximated by
    central finite differences (step 1e-6) since it feeds diagnostics
    only, never the iteration.
    """
    y = prob.check_y(z.y)
    lam = np.asarray(z.lam, dtype=float)

    def gt_lam(yv):
        g = constraint_matrix(prob, prob.rho_trajectory(yv))
        return g.T @ lam

    curvature = fd_jacobian(gt_lam, y, 1e-6)
    g = constraint_matrix(prob, prob.rho_trajectory(y))
    jac_constraint, _ = linearized_constraint(prob, y)
    out = _kkt(prob, g.T, jac_constraint)
    out[:prob.n_y, :prob.n_y] += curvature
    return out


def recover_multipliers(prob: StackedProblem, g_used, y) -> Array:
    """Least-squares multipliers from the stationarity conditions.

    A QR-based least-squares solve of ``G' lam = -2 W y``, exact at a QP
    optimum because the stationarity system is consistent there.  A
    rank-deficient G raises, with its smallest singular value in the
    message.
    """
    g = np.asarray(g_used, dtype=float)
    y = prob.check_y(y)
    if not np.all(np.isfinite(g)) or not np.all(np.isfinite(y)):
        raise SolverError("multiplier recovery received non-finite data")
    rhs = -2.0 * (weight_matrix(prob) @ y)
    lam, _, rank = scipy.linalg.lstsq(g.T, rhs, lapack_driver="gelsy", check_finite=False)[:3]
    if rank < g.shape[0]:
        smallest = float(np.linalg.svd(g, compute_uv=False).min())
        raise SolverError(
            f"constraint matrix is rank deficient (smallest singular value {smallest:.3e})")
    return lam


def certificate_trace(prob: StackedProblem, x0hat, y_init, stop_tol: float, max_iter: int,
                      variant: str = "standard") -> IterateTrace:
    """The residual-stopped solve from y_init: its iterates up to the first
    whose optimality residual is at most stop_tol, or max_iter steps."""
    start = TraceEntry((prob, prob.check_x0(x0hat), variant), prob.check_y(y_init))
    return _prefix([start], stop_tol, max_iter)
