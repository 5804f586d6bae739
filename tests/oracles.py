"""Dense oracles that only the tests call.

The constraint matrix G of a parameter trajectory, the frozen-parameter
and the NLP optimality residuals, the hidden-coupling correction and the
paper's cost perturbation ``e`` from it, the fixed-parameter KKT matrix,
the exact Jacobian of the optimality residual map, a central-difference
Jacobian and the least-squares multipliers of a QP solution.  Each
builds the dense stacked algebra of ``qlmpc.stacked`` independently of
the solver's per-stage path and of the stage-wise ``e`` and residuals
that ``diagnose`` reads, so the tests can check one against the other.
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
    _assemble_g,
    _kkt,
    _residual,
    frozen_stages,
    linearized_constraint,
)

Array = np.ndarray


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
    rhs = -2.0 * (prob.weight_matrix @ y)
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
