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
with ``J_k = [A_k B_k]``, and ``stage_stationarity``,
``stage_feasibility`` and ``stage_residual`` evaluate its optimality
residual stage by stage.  ``cost_perturbation`` gives the paper's ``e``
from the stage data too: ``e_k = (J^ex_k - J^std_k)' lam_{k+1}``.
``inf_norm`` is the package's one infinity norm, for every residual,
scale and deviation: it keeps a NaN, so a NaN in the data gives a NaN
residual and never a small one.

``sqp_step``, the SQP cross-check that ``diagnose`` runs, solves the
saddle-point matrix of the exact stage data in stage order, where it is
banded, by one pivoted band LU; the solver never calls it.  ``band_index``
places stage blocks in LAPACK band storage, for this LU and for the
range-space Cholesky in ``condensing``.  G, W, the KKT matrix and the
dense SQP step are test oracles (``tests/oracles.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import NamedTuple, Optional

import numpy as np

from ._lapack import dgbsv, dpotrf, dpotrs
from .errors import SolverError
from .models import LpvModel, _as_vector, _check_count

Array = np.ndarray

VARIANTS = ("standard", "exact")

# tolerances for entries of size <= 1; both scale with the largest entry
_SYMMETRY_ATOL = 1e-12
_PSD_EIG_FLOOR = -1e-10


def inf_norm(*arrays, floor: float = 0.0) -> float:
    """The largest absolute entry of the arrays, or ``floor`` if that is larger.

    Empty arrays give ``floor`` and any NaN entry gives NaN, which Python's
    ``max`` would drop; a max is exact, so on finite data this equals any
    other way of writing the norm bitwise.
    """
    norm = floor
    for a in arrays:
        norm = np.abs(a).max(initial=norm)
    return float(norm)


def _weight_matrix(m, what):
    """A scalar, diagonal vector or square matrix weight as a symmetric matrix."""
    m = np.asarray(m, dtype=float)
    if m.ndim < 2:
        m = np.diag(np.atleast_1d(m))
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"{what} must be a scalar, a diagonal vector or a square matrix, "
                         f"got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError(f"{what} must be finite")
    if not np.allclose(m, m.T, rtol=0.0, atol=_SYMMETRY_ATOL * inf_norm(m, floor=1.0)):
        raise ValueError(f"{what} must be symmetric")
    return 0.5 * (m + m.T)


@dataclass(frozen=True)
class Weights:
    """Stage, input and terminal cost matrices.

    Each is given as a scalar (a 1x1 matrix), a vector (the diagonal) or a
    square matrix, finite and symmetric, and is kept as a matrix; P has
    Q's size.  Q and P must be positive semidefinite, R positive definite.
    The symmetry and semidefiniteness tolerances (1e-12 and -1e-10) scale
    with a matrix's largest entry once that exceeds 1.
    """

    Q: Array
    R: Array
    P: Array

    def __post_init__(self):
        q, r, p = (_weight_matrix(getattr(self, what), what) for what in "QRP")
        if p.shape != q.shape:
            raise ValueError(f"P must be {len(q)}x{len(q)}, got {p.shape}")
        if np.linalg.eigvalsh(q).min() < _PSD_EIG_FLOOR * inf_norm(q, floor=1.0):
            raise ValueError("Q must be positive semidefinite")
        if np.linalg.eigvalsh(p).min() < _PSD_EIG_FLOOR * inf_norm(p, floor=1.0):
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


@dataclass(frozen=True)
class StackedProblem:
    """Immutable problem data for one horizon; all operations are pure.

    The horizon is an integer >= 1 (``True`` is none) and the weights are
    sized to the model.  The dimensions and the ``inverse_weights`` are
    derived from the model, the weights and the horizon on first use and
    cached, so they cannot disagree with them; no dense cost matrix is
    kept.  ``states`` and ``inputs`` are the views of a decision vector's
    state and input blocks.
    """

    model: LpvModel
    n_horizon: int
    weights: Weights

    def __post_init__(self):
        _check_count("horizon", self.n_horizon)
        n_x, n_u = self.model.dims.n_x, self.model.dims.n_u
        if self.weights.Q.shape != (n_x, n_x):
            raise ValueError(f"Q must be {n_x}x{n_x}, got {self.weights.Q.shape}")
        if self.weights.R.shape != (n_u, n_u):
            raise ValueError(f"R must be {n_u}x{n_u}, got {self.weights.R.shape}")

    @classmethod
    def build(cls, model: LpvModel, horizon: int, weights: Weights) -> "StackedProblem":
        return cls(model=model, n_horizon=horizon, weights=weights)

    @cached_property
    def inverse_weights(self) -> Optional[InverseWeights]:
        """The range-space solve's inverse weights; None when a Cholesky
        factorization of Q, P or R fails."""
        q, p, r = (_spd_inverse(m) for m in (self.weights.Q, self.weights.P, self.weights.R))
        if q is None or p is None or r is None:
            return None
        x = np.empty((self.n_horizon + 1, self.n_x, self.n_x))
        x[:-1], x[-1] = q, p
        return InverseWeights(x=x, w=np.block([[q, np.zeros((self.n_x, self.n_u))],
                                               [np.zeros((self.n_u, self.n_x)), r]]))

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
        return _as_vector(y, self.n_y, "decision vector")

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
    # the model closures and the offset may overflow far from the origin;
    # the solve rejects what is not finite, so nothing warns here
    with np.errstate(over="ignore", invalid="ignore"):
        if variant == "standard":
            return frozen_stages(prob.model, prob.rho_trajectory(y))
        xs, us = prob.states(y)[:-1], prob.inputs(y)
        out = prob.model.stage_jacobian(xs, us)
        if not (isinstance(out, tuple) and len(out) == 2):
            raise ValueError(f"model closure stage_jacobian returned {type(out).__name__}; "
                             "expected the tuple (f, J)")
        f = per_stage("stage_jacobian (f)", out[0], prob.n_horizon, (prob.n_x,))
        jac = per_stage("stage_jacobian (J)", out[1], prob.n_horizon,
                        (prob.n_x, prob.n_x + prob.n_u))
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
    evaluated stage by stage.  A NaN anywhere in the data gives NaN.
    """
    # non-finite values surface as a non-finite residual, reported by
    # the caller; suppress the intermediate overflow warning
    with np.errstate(over="ignore", invalid="ignore"):
        stat_x, stat_u = stage_stationarity(prob, stages, z.y, z.lam)
        return inf_norm(stat_x, stat_u, stage_feasibility(prob, stages, z.y, x0hat))


def cost_perturbation(prob: StackedProblem, exact: StageData, standard: StageData, lam) -> Array:
    """Linear cost perturbation picked up by the standard fixpoint.

    e = -correction(y)' lam; a converged standard iterate is a
    stationary point of the cost ``y' W y + e' y`` under the true
    constraint.  From the two variants' stage data at y,
    ``e_k = (J^ex_k - J^std_k)' lam_{k+1}`` in the ``(x_k, u_k)`` slots
    and zero in the ``x_N`` slot, so e vanishes where the two variants'
    stage Jacobians agree, as on LTI models.
    """
    lam = np.asarray(lam, dtype=float).reshape(prob.n_horizon + 1, prob.n_x)
    e_z = (lam[1:, None, :] @ (exact.jac - standard.jac))[:, 0, :]
    n_x = prob.n_x
    return np.concatenate([e_z[:, :n_x].ravel(), np.zeros(n_x), e_z[:, n_x:].ravel()])


def band_index(size: int, below: int, above: int, zero: int, blocks) -> Array:
    """Where a LAPACK band solve reads a ``size``-square band matrix, transposed.

    ``index[j, above + i - j]`` locates entry ``[i, j]`` in a flat source,
    so taking it gives the band's transpose in LAPACK's column order
    (``dpbsv``'s lower band has ``above = 0``, and ``dgbsv``'s counts its
    fill rows in ``above = kl + ku``).  Each ``(row0, col0, src)`` of
    ``blocks`` places a ``(K, h, w)`` array of source indices as K blocks
    at those row and column starts; entries outside the band are dropped,
    and every other band entry reads ``zero``."""
    index = np.full((size, above + below + 1), zero)
    for row0, col0, src in blocks:
        _, a, b = np.indices(src.shape)
        i, j = row0[:, None, None] + a, col0[:, None, None] + b
        d = above + i - j
        keep = (0 <= d) & (d <= above + below)
        index[j[keep], d[keep]] = src[keep]
    index.flags.writeable = False
    return index


@lru_cache(maxsize=16)
def _kkt_band_index(n: int, n_x: int, n_u: int) -> Array:
    """Where ``sqp_step`` reads ``[[2W, J'], [J, 0]]`` in stage order ``(lam_0,
    x_0, u_0, ..., lam_N, x_N)``, banded with ``kl = ku = 2 n_x + n_u - 1``,
    from the flat source ``[1, 0, 2Q, 2P, 2R, -J_0, ..., -J_{N-1}]``: I and
    I' between lam_k and x_k, 2Q (2P at stage N) and 2R on the diagonal,
    and -J_k and -J_k' between lam_{k+1} and (x_k, u_k); the rest reads 0."""
    step, n_z = 2 * n_x + n_u, n_x + n_u
    k = np.arange(n + 1) * step  # where stage k starts
    eye = np.tile(1 - np.eye(n_x, dtype=int), (n + 1, 1, 1))  # reads 1 on the diagonal, 0 off it
    qp = 2 + np.arange(2 * n_x * n_x).reshape(2, n_x, n_x)[np.arange(n + 1) // n]  # 2P at stage N
    r = np.broadcast_to(2 + 2 * n_x * n_x + np.arange(n_u * n_u).reshape(n_u, n_u), (n, n_u, n_u))
    jac = 2 + 2 * n_x * n_x + n_u * n_u + np.arange(n * n_x * n_z).reshape(n, n_x, n_z)
    x, u = k + n_x, k[:-1] + 2 * n_x
    return band_index(n * step + 2 * n_x, step - 1, 2 * step - 2, 1, [
        (k, x, eye), (x, k, eye), (x, x, qp), (u, u, r),
        (k[1:], x[:-1], jac), (x[:-1], k[1:], jac.transpose(0, 2, 1))])


def sqp_step(prob: StackedProblem, z: KktPoint, x0hat) -> KktPoint:
    """Gauss-Newton SQP step in the update variable p, via a band LU.

    Solves for p with the constraint linearized at y[l] and the cost
    Hessian replaced by 2W, then returns (y[l] + p, lam); the right side
    is the negated NLP residual at lam = 0, from the exact stage data.
    One pivoted band LU in stage order, apart from the exact iterate's
    range-space Cholesky solve, makes the equivalence a real cross-check.
    """
    y = prob.check_y(z.y)
    x0 = prob.check_x0(x0hat)
    n, n_x, n_u, w = prob.n_horizon, prob.n_x, prob.n_u, prob.weights
    stages = stage_data(prob, y, "exact")
    rows = np.zeros((n + 1, 2 * n_x + n_u))  # (lam_k, x_k, u_k) of stage k; stage N has no u_N
    rows[:, :n_x] = stage_feasibility(prob, stages, y, x0)
    rows[:, n_x:2 * n_x], rows[:-1, 2 * n_x:] = stage_stationarity(prob, stages, y,
                                                                    np.zeros(prob.n_eq))
    flat = rows.reshape(-1)[:prob.n_y + prob.n_eq]
    source = np.concatenate(((1.0, 0.0), (2.0 * w.Q).ravel(), (2.0 * w.P).ravel(),
                             (2.0 * w.R).ravel(), (-stages.jac).ravel()))
    bw = 2 * n_x + n_u - 1
    _, _, sol, info = dgbsv(bw, bw, source.take(_kkt_band_index(n, n_x, n_u)).T, -flat,
                            overwrite_ab=True, overwrite_b=True)
    if info != 0:
        raise SolverError(f"SQP step KKT solve failed: dgbsv info {info}")
    flat[:] = sol
    p = np.concatenate((rows[:, n_x:2 * n_x].ravel(), rows[:-1, 2 * n_x:].ravel()))
    return KktPoint(y + p, rows[:, :n_x].ravel())
