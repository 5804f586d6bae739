"""Condensed form of the per-iteration QP.

Eliminating the states through the (affine) frozen dynamics turns the
equality-constrained QP into an unconstrained quadratic in the stacked
inputs, solved by a single positive-definite factorization.  The state
prediction is ``x = free + Gamma u``, where the free response ``free``
rolls out x0hat together with the stage offsets ``w_k`` (zero for the
standard variant, the linearization offset for the exact variant).

Both are rolled out together as ``X[k] = [Gamma_k | free_k]``, which
solves ``X[k+1] = A_k X[k] + E[k+1]``.  ``condense`` writes x0hat, the
offsets ``w_k`` and the input matrices ``B_k`` into ``X`` at the flat
indices of the problem's cached ``qp_layout``, the same for every QP of
one horizon.  Rather than one stage at a time, it runs a prefix scan by
recursive doubling: ``ceil(log2(N+1))`` levels of batched matrix
products, one that adds the terms ``d`` stages back and, on every level
but the last, one that doubles the transition products to ``2d``
stages.  The Hessian is ``h + h'`` with ``h = Gamma' (Wx Gamma)`` plus
the layout's blkdiag(R, ..., R).  The factorizations call LAPACK
(``dpotrf``/``dpotrs``, ``dpbtrf``/``dpbtrs``) without scipy's checking
wrappers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dpbtrf, dpbtrs, dpotrf, dpotrs

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
    layout = prob.qp_layout

    # X[k] = [Gamma_k | free_k] solves X[k+1] = a_k X[k] + E[k+1] with
    # E[0] = [0 | x0hat] and E[k+1] = [b_k in block column k | w_k]; the
    # layout holds the flat index of each entry of x0hat, w and b in X
    x = np.zeros((n + 1, n_x, n * n_u + 1))
    flat = x.reshape(-1)
    flat[layout.x0] = x0
    flat[layout.w] = stages.w
    flat[layout.b] = stages.b
    # diverged iterates can overflow the rollout products; the solve
    # rejects the resulting non-finite QP, so do not warn here
    with np.errstate(over="ignore", invalid="ignore"):
        # doubling: at offset d, phi[k] holds a_k ... a_{k-d+1} and x[k]
        # the sum of its last d rollout terms; each level doubles both,
        # except that the last level's products would never be read
        phi = stages.a.copy()
        d = 1
        while d <= n:
            x[d:] += phi[d - 1:] @ x[:n + 1 - d]
            if 2 * d <= n:
                phi[2 * d - 1:] = phi[2 * d - 1:] @ phi[d - 1:n - d]
            d *= 2
        gamma, free = x[:, :, :-1], x[:, :, -1]

        # the state weight is block diagonal (Q, ..., Q, P): Q X_k and
        # P X_N go into one buffer
        n_states = (n + 1) * n_x
        wx_gamma = np.empty(gamma.shape)
        np.matmul(prob.weights.Q, gamma[:n], out=wx_gamma[:n])
        np.matmul(prob.weights.P, gamma[n], out=wx_gamma[n])
        wx_gamma = wx_gamma.reshape(n_states, n * n_u)
        gamma = gamma.reshape(n_states, n * n_u)
        # a contiguous copy: numpy multiplies by a strided vector without
        # BLAS, which rounds the gradient differently
        free = free.ravel()
        # the input weight is the layout's blkdiag(R, ..., R); h + h' is
        # the symmetric 2 (Gamma' Wx Gamma + Wu)
        hess = gamma.T @ wx_gamma
        hess += layout.r_block
        hess = hess + hess.T
        # Gamma' (Wx free) is the same gradient, but it rounds differently
        # enough to move the fixpoint tolerance and contraction rate that
        # diagnose reports, so the gradient stays (Wx Gamma)' free
        grad = 2.0 * (wx_gamma.T @ free)
    return CondensedQp(gamma=gamma, free=free, hess=hess, grad=grad)


def solve_condensed(qp: CondensedQp) -> Array:
    """Minimize the condensed quadratic via a Cholesky factorization."""
    if not (np.isfinite(qp.hess).all() and np.isfinite(qp.grad).all()):
        raise SolverError("condensed QP contains non-finite entries")
    factor, info = dpotrf(qp.hess, lower=True, clean=False)
    if info != 0:
        min_eig = float(np.linalg.eigvalsh(qp.hess).min())
        raise SolverError(
            f"condensed Hessian is not positive definite (min eigenvalue {min_eig:.3e})",
            min_eigenvalue=min_eig,
        )
    u, _ = dpotrs(factor, -qp.grad, lower=True)
    scale = max(1.0, float(np.abs(qp.grad).max(initial=0.0)))
    resid = qp.hess @ u + qp.grad
    if np.abs(resid).max(initial=0.0) > _RESIDUAL_RTOL * scale:
        # one step of iterative refinement before giving up
        u = u - dpotrs(factor, resid, lower=True)[0]
        resid = qp.hess @ u + qp.grad
        if np.abs(resid).max(initial=0.0) > _RESIDUAL_RTOL * scale:
            raise SolverError(
                f"condensed solve residual {np.abs(resid).max():.3e} exceeds tolerance"
            )
    return u


def expand(qp: CondensedQp, u) -> Array:
    """Recover the full decision vector from the condensed minimizer."""
    u = np.asarray(u, dtype=float).ravel()
    if u.shape != (qp.gamma.shape[1],):
        raise ValueError(f"input trajectory must have length {qp.gamma.shape[1]}, got {u.shape}")
    return np.concatenate([qp.free + qp.gamma @ u, u])


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

    The least-squares multipliers ``argmin |G' lam + 2 W y|`` of the
    stage-built constraint matrix G.  Starting from ``lam = 0``, each
    correction ``d = argmin |G' d + s|`` of the stationarity residual s
    comes from the banded normal equations ``G G' d = -G s``.  The
    normal equations square the conditioning of G; a second correction
    removes the error this leaves in the first.
    """
    if not (np.all(np.isfinite(y)) and np.all(np.isfinite(stages.a))
            and np.all(np.isfinite(stages.b))):
        raise SolverError("multiplier recovery received non-finite data")
    # an overflowing band is caught below, like a band that fails to factor
    with np.errstate(over="ignore", invalid="ignore"):
        band = _normal_band(stages)
    factor, info = dpbtrf(band, lower=True)
    if info != 0 or not np.all(np.isfinite(band)):
        raise SolverError("constraint Gram matrix G G' is not numerically positive definite")
    lam = np.zeros((prob.n_horizon + 1, prob.n_x))
    for _ in range(2):
        s_x, s_u = stage_stationarity(prob, stages, y, lam)
        g_s = s_x.copy()
        g_s[1:] -= (stages.a @ s_x[:-1, :, None] + stages.b @ s_u[:, :, None])[:, :, 0]
        d, _ = dpbtrs(factor, -g_s.ravel(), lower=True)
        lam += d.reshape(lam.shape)
    return lam.ravel()
