"""The two solves of the per-iteration QP, and its stage-wise multipliers.

``solve_range_space`` solves the QP from one banded Cholesky factorization
of ``G W^-1 G'`` when Q and P are positive definite (R always is), in one
pass over the stage arrays that takes x0 as the caller validated it; its
two block placements go through ``stacked.band_index``, the one band layout.
``stage_multipliers`` needs no factorization: at a QP solution the state
rows of stationarity fix the multipliers one stage at a time, backwards
from the terminal cost (the adjoint recursion).

Condensing solves the QPs that the range-space solve hands on; a
condensed solve refines its solution twice from its factor, and raises
if the residual then misses its tolerance.
Eliminating the states through the (affine) frozen dynamics turns the QP
into an unconstrained quadratic in the stacked inputs, solved by a single
positive-definite factorization.  The state prediction is
``x = free + Gamma u``, where the free response ``free`` rolls out x0hat
together with the stage offsets ``w_k`` (zero for the standard variant,
the linearization offset for the exact variant).

Both are rolled out together as ``X[k] = [Gamma_k | free_k]``, which
solves ``X[k+1] = A_k X[k] + E[k+1]``.  ``condense`` writes x0hat and
the offsets ``w_k`` into the free column of ``X`` and each input matrix
``B_k`` into its block column, then rolls out one stage at a time.  The
Hessian is ``h + h'`` with ``h = Gamma' (Wx Gamma)`` plus
blkdiag(R, ..., R).  The factorizations call LAPACK (``dpotrf``/``dpotrs``
and ``dpbsv``) without scipy's checking wrappers, from scipy's compiled
extension as ``_lapack`` loads it, so ``import qlmpc`` never imports ``scipy.linalg``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from ._lapack import dpbsv, dpotrf, dpotrs
from .errors import SolverError
from .stacked import StackedProblem, StageData, band_index, inf_norm

Array = np.ndarray

_RESIDUAL_RTOL = 1e-10


@dataclass(frozen=True)
class CondensedQp:
    gamma: Array   # state response to the stacked inputs
    free: Array    # state response to x0hat and the stage offsets
    hess: Array    # quadratic coefficient, 2 (Gamma' Wx Gamma + Wu)
    grad: Array    # linear coefficient, 2 (Wx Gamma)' free


def condense(prob: StackedProblem, stages: StageData, x0) -> CondensedQp:
    """Eliminate the states of the QP frozen in ``stages`` and build the
    input-space quadratic; ``x0`` is the initial state as the solve's
    start (``solver._start``) checked it."""
    n_x, n_u, n = prob.n_x, prob.n_u, prob.n_horizon

    # X[k] = [Gamma_k | free_k] solves X[k+1] = a_k X[k] + E[k+1] with
    # E[0] = [0 | x0hat] and E[k+1] = [b_k in block column k | w_k]
    x = np.zeros((n + 1, n_x, n * n_u + 1))
    x[0, :, -1] = x0
    x[1:, :, -1] = stages.w
    # b_k into block column k through einsum's writeable diagonal view
    np.einsum("kiku->kiu", x[1:, :, :-1].reshape(n, n_x, n, n_u))[...] = stages.b
    # diverged iterates can overflow the rollout products; the solve
    # rejects the resulting non-finite QP, so do not warn here
    with np.errstate(over="ignore", invalid="ignore"):
        for k, a in enumerate(stages.a):
            x[k + 1] += a @ x[k]
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
        # the input weight is blkdiag(R, ..., R), added through einsum's
        # writeable view of the diagonal blocks; h + h' is the symmetric
        # 2 (Gamma' Wx Gamma + Wu)
        hess = gamma.T @ wx_gamma
        np.einsum("kikj->kij", hess.reshape(n, n_u, n, n_u))[...] += prob.weights.R
        hess = hess + hess.T
        # the gradient reuses Wx Gamma, which the Hessian needs anyway;
        # Gamma' (Wx free) is the same vector but rounds differently, so it
        # would move the solution of every QP that condensing solves
        grad = 2.0 * (wx_gamma.T @ free)
    return CondensedQp(gamma=gamma, free=free, hess=hess, grad=grad)


def solve_condensed(qp: CondensedQp) -> Array:
    """Minimize the condensed quadratic via a Cholesky factorization and two
    steps of iterative refinement; a residual that misses the tolerance raises."""
    if not (np.isfinite(qp.hess).all() and np.isfinite(qp.grad).all()):
        raise SolverError("condensed QP contains non-finite entries")
    factor, info = dpotrf(qp.hess, lower=True, clean=False)
    if info != 0:
        min_eig = float(np.linalg.eigvalsh(qp.hess).min())
        raise SolverError("condensed Hessian is not positive definite "
                          f"(min eigenvalue {min_eig:.3e})")
    u, _ = dpotrs(factor, -qp.grad, lower=True)
    # two steps of iterative refinement: at the Hessian's condition number
    # (up to 2e7 on ADIP with P = 0) the first solve's forward error moved
    # the multipliers that the adjoint recursion reads from the expanded
    # states by up to 1.7e-9 of their scale
    for _ in range(2):
        u -= dpotrs(factor, qp.hess @ u + qp.grad, lower=True)[0]
    resid = inf_norm(qp.hess @ u + qp.grad)
    if not resid <= _RESIDUAL_RTOL * inf_norm(qp.grad, floor=1.0):  # a NaN residual fails
        raise SolverError(f"condensed solve residual {resid:.3e} exceeds tolerance")
    return u


def expand(qp: CondensedQp, u: Array) -> Array:
    """Recover the full decision vector from the condensed minimizer u,
    as ``solve_condensed`` returns it."""
    return np.concatenate([qp.free + qp.gamma @ u, u])


@lru_cache(maxsize=16)
def _band_index(n: int, n_x: int) -> Array:
    """Where ``solve_range_space`` reads the lower band of ``G W^-1 G'`` in its
    flat source: the N+1 diagonal blocks, the N sub-diagonal blocks and a zero."""
    blocks = np.arange((2 * n + 1) * n_x * n_x).reshape(2 * n + 1, n_x, n_x)
    k = np.arange(n + 1) * n_x  # where block row and column k start
    return band_index((n + 1) * n_x, 2 * n_x - 1, 0, blocks.size,
                      [(k, k, blocks[:n + 1]), (k[1:], k[:-1], blocks[n + 1:])])


def solve_range_space(prob: StackedProblem, stages: StageData, x0) -> Array | None:
    """Solve the QP frozen in ``stages`` in range space, when W is positive definite.

    The multipliers solve ``G W^-1 G' lam = -2 [x0hat; w]``, a banded SPD
    system that one ``dpbsv`` call factors and solves, and
    ``y = -1/2 W^-1 G' lam`` satisfies stationarity by construction, up
    to the rounding of W^-1.  Its stage-wise feasibility residual must be
    within ``_RESIDUAL_RTOL`` of the data's scale.  One pass builds the
    band, solves it, forms y and checks it on buffers made once; ``x0``
    is the initial state as the solve's start (``solver._start``) checked
    it.

    Returns y, or None when Q or P is singular, or the band fails to
    factor, or the residual misses (as a non-finite band or solution
    does): the QP is then left to condensing.  ``solver._step`` times both.
    """
    inv = prob.inverse_weights
    if inv is None:
        return None
    jac = stages.jac
    n, n_x, n_z = jac.shape
    # [x0hat; w]: the right side, its scale, and then what y's states must meet
    data = np.empty((n + 1, n_x))
    data[0] = x0
    data[1:] = stages.w
    tol = _RESIDUAL_RTOL * inf_norm(data, floor=1.0)
    # overflow, in the data or on the way, surfaces as a residual that
    # misses the tolerance
    with np.errstate(over="ignore", invalid="ignore"):
        # G W^-1 G' is block tridiagonal, of lower bandwidth 2 n_x - 1:
        # diagonal blocks W_0^-1 (initial condition) and
        # W_{k+1}^-1 + J_k blkdiag(Q^-1, R^-1) J_k', sub-diagonal blocks
        # -A_k Q^-1; one gather takes its lower band from them
        jw = (jac.reshape(-1, n_z) @ inv.w).reshape(jac.shape)
        m = prob.n_eq * n_x
        blocks = np.zeros(m + n * n_x * n_x + 1)
        diag = blocks[:m].reshape(n + 1, n_x, n_x)
        np.matmul(jw, jac.transpose(0, 2, 1), out=diag[1:])
        diag += inv.x
        np.negative(jw[:, :, :n_x], out=blocks[m:-1].reshape(n, n_x, n_x))
        _, lam, info = dpbsv(blocks.take(_band_index(n, n_x)).T, -2.0 * data.ravel(),
                             lower=True, overwrite_ab=True, overwrite_b=True)
        if info != 0:
            return None
        # with t_k = lam_{k+1}' J_k blkdiag(Q^-1, R^-1):
        # x_k = -1/2 (lam_k' W_k^-1 - t_k[:n_x]) and u_k = 1/2 t_k[n_x:]
        lam = lam.reshape(n + 1, n_x)
        t = (lam[1:, None, :] @ jw)[:, 0, :]
        y = np.empty(prob.n_y)
        xs, us = prob.states(y), prob.inputs(y)
        np.matmul(lam[:, None, :], inv.x, out=xs[:, None, :])
        xs[:-1] -= t[:, :n_x]
        xs *= -0.5
        np.multiply(t[:, n_x:], 0.5, out=us)
        # feasibility: x_0 = x0hat and x_{k+1} = J_k [x_k; u_k] + w_k
        data[1:] += (jac @ np.concatenate((xs[:-1], us), axis=1)[:, :, None])[:, :, 0]
        if inf_norm(xs - data) <= tol < np.inf:
            return y
    return None


def stage_multipliers(prob: StackedProblem, stages: StageData, y) -> Array:
    """Multipliers of the QP frozen in ``stages``, by the adjoint recursion.

    The state rows of ``2 W y + G' lam = 0`` give ``lam_N = -2 P x_N`` and
    ``lam_k = A_k' lam_{k+1} - 2 Q x_k``: the QP's multipliers at its
    solution; at any other y the input rows keep the stationarity residual.
    """
    a, xs = stages.a, prob.states(y)
    lam = np.empty(xs.shape)
    # the recursion reads only the states and A_k: a non-finite one, or an
    # overflow, is caught below as non-finite multipliers
    with np.errstate(over="ignore", invalid="ignore"):
        lam[-1] = -2.0 * (prob.weights.P @ xs[-1])
        grad = -2.0 * (xs[:-1] @ prob.weights.Q)
        for k in range(prob.n_horizon - 1, -1, -1):
            lam[k] = lam[k + 1] @ a[k] + grad[k]
    if not np.all(np.isfinite(lam)):
        raise SolverError("multipliers are non-finite")
    return lam.ravel()
