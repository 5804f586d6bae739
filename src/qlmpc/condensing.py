"""Condensed form of the per-iteration QP.

Eliminating the states through the (affine) frozen dynamics turns the
equality-constrained QP into an unconstrained quadratic in the stacked
inputs, solved by a single positive-definite factorization.  The state
prediction is ``x = free + Gamma u``, where the free response ``free``
rolls out x0hat together with the stage offsets ``w_k`` (zero for the
standard variant, the linearization offset for the exact variant).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import SolverError
from .stacked import StackedProblem, StageData, frozen_stages, stage_stationarity

Array = np.ndarray

_RESIDUAL_RTOL = 1e-10


@dataclass(frozen=True)
class CondensedQp:
    gamma: Array   # state response to the stacked inputs
    free: Array    # state response to x0hat and the stage offsets
    hess: Array    # quadratic coefficient, 2 (Gamma' Wx Gamma + Wu)
    grad: Array    # linear coefficient, 2 (Wx Gamma)' free


def condense(prob: StackedProblem, stages, x0hat) -> CondensedQp:
    """Eliminate the states and build the input-space quadratic.

    ``stages`` is the StageData of the frozen QP, or a parameter
    trajectory of length N, which freezes ``(A(rho_k), B(rho_k))`` with
    no offset.
    """
    x0 = prob.check_x0(x0hat)
    n_x, n_u, n = prob.n_x, prob.n_u, prob.n_horizon
    if not isinstance(stages, StageData):
        rho_traj = np.asarray(stages, dtype=float).reshape(n, prob.model.dims.n_rho)
        stages = frozen_stages(prob.model, rho_traj)
    a, b, w = stages.a, stages.b, stages.w

    free = np.empty((n + 1, n_x))
    gamma = np.zeros((n + 1, n_x, n * n_u))
    free[0] = x0
    # diverged iterates can overflow the rollout products; the solve
    # rejects the resulting non-finite QP, so do not warn here
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(n):
            cols = k * n_u
            free[k + 1] = a[k] @ free[k] + w[k]
            # inputs from stage k on do not reach x_k
            gamma[k + 1, :, :cols] = a[k] @ gamma[k, :, :cols]
            gamma[k + 1, :, cols:cols + n_u] = b[k]

        # the state weight is block diagonal (Q, ..., Q, P)
        n_states = (n + 1) * n_x
        wx_gamma = np.concatenate([prob.weights.Q @ gamma[:n], prob.weights.P @ gamma[n:]])
        wx_gamma = wx_gamma.reshape(n_states, n * n_u)
        gamma = gamma.reshape(n_states, n * n_u)
        free = free.ravel()
        hess = 2.0 * (gamma.T @ wx_gamma + prob.weight_matrix[n_states:, n_states:])
        hess = 0.5 * (hess + hess.T)
        grad = 2.0 * (wx_gamma.T @ free)
    return CondensedQp(gamma=gamma, free=free, hess=hess, grad=grad)


def solve_condensed(qp: CondensedQp) -> Array:
    """Minimize the condensed quadratic via a Cholesky factorization."""
    if not (np.all(np.isfinite(qp.hess)) and np.all(np.isfinite(qp.grad))):
        raise SolverError("condensed QP contains non-finite entries")
    try:
        factor = scipy.linalg.cho_factor(qp.hess, lower=True, check_finite=False)
    except (np.linalg.LinAlgError, scipy.linalg.LinAlgError):
        min_eig = float(np.linalg.eigvalsh(qp.hess).min())
        raise SolverError(
            f"condensed Hessian is not positive definite (min eigenvalue {min_eig:.3e})",
            min_eigenvalue=min_eig,
        ) from None
    u = scipy.linalg.cho_solve(factor, -qp.grad, check_finite=False)
    scale = max(1.0, float(np.max(np.abs(qp.grad), initial=0.0)))
    resid = qp.hess @ u + qp.grad
    if np.max(np.abs(resid), initial=0.0) > _RESIDUAL_RTOL * scale:
        # one step of iterative refinement before giving up
        u = u - scipy.linalg.cho_solve(factor, resid, check_finite=False)
        resid = qp.hess @ u + qp.grad
        if np.max(np.abs(resid), initial=0.0) > _RESIDUAL_RTOL * scale:
            raise SolverError(
                f"condensed solve residual {np.max(np.abs(resid)):.3e} exceeds tolerance"
            )
    return u


def expand(qp: CondensedQp, u) -> Array:
    """Recover the full decision vector from the condensed minimizer."""
    u = np.asarray(u, dtype=float).ravel()
    if u.shape != (qp.gamma.shape[1],):
        raise ValueError(f"input trajectory must have length {qp.gamma.shape[1]}, got {u.shape}")
    return np.concatenate([qp.free + qp.gamma @ u, u])


def recover_multipliers(prob: StackedProblem, g_used, y) -> Array:
    """Least-squares multipliers from the stationarity conditions.

    Computes lam = -(G G')^{-1} G (2 W y), evaluated through a QR-based
    least-squares solve of ``G' lam = -2 W y`` (same value, avoids
    squaring the conditioning); exact at a QP optimum because the
    stationarity system is consistent there.
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
            f"constraint matrix is rank deficient (smallest singular value {smallest:.3e})",
            smallest_singular_value=smallest,
        )
    return lam


def _normal_band(stages: StageData) -> Array:
    """G G' in LAPACK lower band storage.

    G G' is block tridiagonal: diagonal blocks I (initial condition) and
    I + A_k A_k' + B_k B_k', sub-diagonal blocks -A_k, so its lower
    bandwidth is 2 n_x - 1.  Entry ``[d, j]`` holds ``(G G')[j + d, j]``.
    """
    a, b = stages.a, stages.b
    n, n_x = a.shape[:2]
    # block column k of G G' from its diagonal down, zero padded
    block_cols = np.zeros((n + 1, 3 * n_x, n_x))
    block_cols[:, :n_x] = np.eye(n_x)
    block_cols[1:, :n_x] += a @ a.transpose(0, 2, 1) + b @ b.transpose(0, 2, 1)
    block_cols[:-1, n_x:2 * n_x] = -a
    diag = np.arange(2 * n_x)[:, None]
    col = np.arange(n_x)[None, :]
    band = block_cols[:, diag + col, col]
    return band.transpose(1, 0, 2).reshape(2 * n_x, (n + 1) * n_x)


def stage_multipliers(prob: StackedProblem, stages: StageData, y) -> Array:
    """Least-squares multipliers of the QP frozen in ``stages``, stage by stage.

    Same value as ``recover_multipliers`` on the assembled G, i.e.
    ``argmin |G' lam + 2 W y|``.  Starting from ``lam = 0``, each
    correction ``d = argmin |G' d + s|`` of the stationarity residual s
    comes from the banded normal equations ``G G' d = -G s``.  The
    normal equations square the conditioning of G; a second correction
    removes the error this leaves in the first.
    """
    if not (np.all(np.isfinite(y)) and np.all(np.isfinite(stages.a))
            and np.all(np.isfinite(stages.b))):
        raise SolverError("multiplier recovery received non-finite data")
    try:
        factor = scipy.linalg.cholesky_banded(_normal_band(stages), lower=True,
                                              check_finite=False)
    except (np.linalg.LinAlgError, scipy.linalg.LinAlgError):
        raise SolverError("constraint Gram matrix G G' is not numerically positive definite") from None
    lam = np.zeros((prob.n_horizon + 1, prob.n_x))
    for _ in range(2):
        s_x, s_u = stage_stationarity(prob, stages, y, lam)
        g_s = s_x.copy()
        g_s[1:] -= (stages.a @ s_x[:-1, :, None] + stages.b @ s_u[:, :, None])[:, :, 0]
        d = scipy.linalg.cho_solve_banded((factor, True), -g_s.ravel(), check_finite=False)
        lam += d.reshape(lam.shape)
    return lam.ravel()
