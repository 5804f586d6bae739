"""Condensed form of the per-iteration QP.

Eliminating the states through the (affine) frozen dynamics turns the
equality-constrained QP into an unconstrained quadratic in the stacked
inputs, solved by a single positive-definite factorization.  The state
prediction is ``x = Phi x0hat + Gamma u + Psi``; the affine term Psi is
zero for the standard variant and carries the disturbance offset of the
exact variant.
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
    phi: Array     # state response to the initial condition
    gamma: Array   # state response to the stacked inputs
    psi: Array     # affine state offset (disturbance rollout)
    hess: Array    # quadratic coefficient, 2 (Gamma' Wx Gamma + Wu)
    grad: Array    # linear coefficient
    x0hat: Array
    n_x: int
    n_u: int
    n_horizon: int


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

    n_states = (n + 1) * n_x
    phi = np.zeros((n_states, n_x))
    gamma = np.zeros((n_states, n * n_u))
    psi = np.zeros(n_states)
    # per-stage views of the stacked state rows
    phi_k = phi.reshape(n + 1, n_x, n_x)
    gamma_k = gamma.reshape(n + 1, n_x, n * n_u)
    psi_k = psi.reshape(n + 1, n_x)
    phi_k[0] = np.eye(n_x)
    # diverged iterates can overflow the rollout products; the solve
    # rejects the resulting non-finite QP, so do not warn here
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(n):
            cols = k * n_u
            phi_k[k + 1] = a[k] @ phi_k[k]
            # inputs from stage k on do not reach x_k
            gamma_k[k + 1, :, :cols] = a[k] @ gamma_k[k, :, :cols]
            gamma_k[k + 1, :, cols:cols + n_u] = b[k]
            psi_k[k + 1] = a[k] @ psi_k[k] + w[k]

        wx = prob.weight_matrix[:n_states, :n_states]
        wu = prob.weight_matrix[n_states:, n_states:]
        hess = 2.0 * (gamma.T @ wx @ gamma + wu)
        hess = 0.5 * (hess + hess.T)
        grad = 2.0 * (gamma.T @ (wx @ (phi @ x0 + psi)))
    return CondensedQp(phi=phi, gamma=gamma, psi=psi, hess=hess, grad=grad,
                       x0hat=x0, n_x=n_x, n_u=n_u, n_horizon=n)


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
    if u.shape != (qp.n_horizon * qp.n_u,):
        raise ValueError(f"input trajectory must have length {qp.n_horizon * qp.n_u}, got {u.shape}")
    x = qp.phi @ qp.x0hat + qp.gamma @ u + qp.psi
    return np.concatenate([x, u])


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
    ``argmin |G' lam + 2 W y|``.  The adjoint recursion
    ``lam_N = -2 P x_N``, ``lam_k = A_k' lam_{k+1} - 2 Q x_k`` zeroes
    the state rows of the stationarity and is exact at a QP optimum.
    Alone it would leave all of the condensed solve's rounding error in
    the input rows, so least-squares corrections
    ``d = argmin |G' d + s|`` of its stationarity residual s follow,
    from the banded normal equations ``G G' d = -G s``.  The normal
    equations square the conditioning of G; a second correction removes
    the error this leaves in the first, as d is small.
    """
    xs = prob.states(y)
    if not (np.all(np.isfinite(y)) and np.all(np.isfinite(stages.a))
            and np.all(np.isfinite(stages.b))):
        raise SolverError("multiplier recovery received non-finite data")
    n = prob.n_horizon
    lam = np.empty((n + 1, prob.n_x))
    lam[n] = -2.0 * (prob.weights.P @ xs[n])
    qx = 2.0 * (xs[:-1] @ prob.weights.Q)
    for k in range(n - 1, -1, -1):
        lam[k] = lam[k + 1] @ stages.a[k] - qx[k]

    try:
        factor = scipy.linalg.cholesky_banded(_normal_band(stages), lower=True,
                                              check_finite=False)
    except (np.linalg.LinAlgError, scipy.linalg.LinAlgError):
        raise SolverError("constraint Gram matrix G G' is not numerically positive definite") from None
    for _ in range(2):
        s_x, s_u = stage_stationarity(prob, stages, y, lam)
        g_s = s_x.copy()
        g_s[1:] -= (stages.a @ s_x[:-1, :, None] + stages.b @ s_u[:, :, None])[:, :, 0]
        d = scipy.linalg.cho_solve_banded((factor, True), -g_s.ravel(), check_finite=False)
        lam += d.reshape(lam.shape)
    return lam.ravel()
