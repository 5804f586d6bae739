"""Dense oracles that only the tests call.

The fixed-parameter KKT matrix, the exact Jacobian of the optimality
residual map, a central-difference Jacobian and the least-squares
multipliers of a QP solution.  Each builds the dense stacked algebra of
``qlmpc.stacked`` independently of the solver's per-stage path, so the
tests can check one against the other.  ``certificate_trace`` is the
residual-stopped solve from a given start: a cut of a fresh one-entry
list, where ``qlmpc diagnose`` cuts one shared list.
"""

import numpy as np
import scipy.linalg

from qlmpc.diagnostics import _prefix
from qlmpc.errors import SolverError
from qlmpc.solver import IterateTrace, TraceEntry
from qlmpc.stacked import (
    KktPoint,
    StackedProblem,
    _kkt,
    constraint_matrix,
    linearized_constraint,
)

Array = np.ndarray


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
