"""Numerical verification tools for the iteration theory.

Three independent checks live here: the perturbed-fixpoint identity of
the standard variant (its converged iterates are stationary points of a
linearly perturbed cost), an empirical contraction-rate fit for the
error recursion  err[l+1] <= kappa err[l] + omega/2 err[l]^2, and the
agreement of exact-variant iterates with a dense Gauss-Newton SQP step.
The finite-difference Jacobian oracle is ``stacked.fd_jacobian``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SolverError
from .solver import IterateTrace, qlmpc_iterate
from .stacked import (
    KktPoint,
    StackedProblem,
    cost_perturbation,
    sqp_step,
    true_fonc_residual,
)

Array = np.ndarray


@dataclass(frozen=True)
class PerturbationReport:
    """Perturbed-fixpoint identity data at a converged standard iterate."""

    e: Array
    true_stationarity_residual: Array
    feasibility_residual_inf: float
    identity_error_inf: float


def verify_fixpoint_perturbation(prob: StackedProblem, trace: IterateTrace, x0hat) -> PerturbationReport:
    """Check that a converged standard fixpoint solves the perturbed NLP.

    At the fixpoint (y, lam) the true stationarity residual
    ``2 W y + jac(y)' lam`` must equal ``-e`` with
    ``e = -correction(y)' lam``; their sum measures only multiplier
    recovery error.  Requires a converged trace.
    """
    if not trace.converged:
        raise ValueError("perturbation check requires a converged trace")
    z = trace.final
    x0 = prob.check_x0(x0hat)
    e = cost_perturbation(prob, z.y, z.lam)
    full = true_fonc_residual(prob, z, x0)
    stat = full[:prob.n_y]
    feas = full[prob.n_y:]
    return PerturbationReport(
        e=e,
        true_stationarity_residual=stat,
        feasibility_residual_inf=float(np.max(np.abs(feas))),
        identity_error_inf=float(np.max(np.abs(stat + e))),
    )


@dataclass(frozen=True)
class ContractionEstimate:
    """Empirical contraction coefficients fitted from an iterate trace.

    These are sampled estimates, not certificates; ``radius_bound`` is
    the induced attraction-radius value 2 (1 - kappa) / omega.
    """

    kappa_hat: float
    omega_hat: float
    errors: Array
    radius_bound: float
    fit_residual_inf: float


# half the pairwise-bound allowance asserted downstream, so boundary
# rounding cannot push a fitted envelope past the documented slack
_ENVELOPE_SLACK = 5e-11


def _envelope_lstsq(design, target, cons, cons_target):
    """Exact minimizer of |design @ x - target|^2 over x >= 0 with the
    one-sided constraints cons @ x >= cons_target - _ENVELOPE_SLACK.

    Two variables only, so the optimum is found by enumerating active
    sets: the unconstrained minimizer, each constraint boundary, and
    each boundary intersection.  It runs in column-scaled coefficients: at
    small errors an unscaled least-squares solve drops the omega column.
    """
    scale = np.linalg.norm(design, axis=0)
    scale[scale == 0.0] = 1.0
    design, cons = design / scale, np.vstack([np.eye(2), cons / scale])
    bounds = np.concatenate([np.zeros(2), cons_target - _ENVELOPE_SLACK])
    row_tol = 1e-12 * (1.0 + np.abs(bounds))
    candidates = [np.linalg.lstsq(design, target, rcond=None)[0]]
    for i in range(cons.shape[0]):
        gi = cons[i]
        nrm = gi @ gi
        if nrm == 0.0:
            continue
        xp = gi * (bounds[i] / nrm)
        d = np.array([-gi[1], gi[0]])
        ad = design @ d
        denom = ad @ ad
        t = (ad @ (target - design @ xp)) / denom if denom > 0 else 0.0
        candidates.append(xp + t * d)
        for j in range(i + 1, cons.shape[0]):
            mat = np.array([gi, cons[j]])
            if abs(np.linalg.det(mat)) < 1e-14:
                continue
            candidates.append(np.linalg.solve(mat, bounds[[i, j]]))

    best, best_val = None, np.inf
    for x in candidates:
        x = np.maximum(x, 0.0)  # score each candidate at its projection onto x >= 0
        if not (np.all(np.isfinite(x)) and np.all(cons @ x >= bounds - row_tol)):
            continue
        val = float(np.sum((design @ x - target) ** 2))
        if val < best_val:
            best, best_val = x, val
    if best is None:
        raise SolverError("contraction envelope fit is infeasible")
    return best / scale


def _contraction_tail(prev, nxt):
    """Index where the contraction regime starts.

    The rate model kappa + omega/2 * err predicts step ratios that grow
    with the error, so within the regime the observed ratios are
    nonincreasing along the iteration.  Returns the start of the maximal
    suffix with that property; earlier pairs are transient.
    """
    ratios = nxt / prev
    start = 0
    for i in range(len(ratios) - 1):
        if ratios[i] + 1e-12 < ratios[i + 1]:
            start = i + 1
    return start


def contraction_fit(trace: IterateTrace, z_bar: KktPoint) -> ContractionEstimate:
    """Fit nonnegative (kappa, omega) to consecutive error pairs.

    Errors are Euclidean distances of the stacked iterates from z_bar,
    which should come from a fully converged run of the same variant.
    One exact active-set solve gives the fit: least squares over the
    contraction-regime tail of the strictly positive error pairs
    (pre-asymptotic transients and iterations that terminate exactly at
    the fixpoint carry no rate information), subject to one-sided
    envelope constraints over all positive pairs, so the fitted bound
    holds pairwise within ``_ENVELOPE_SLACK``.  Without a positive pair
    every pair is used, and SolverError is raised when no nonnegative
    envelope bounds them.  Needs at least 3 iterates (2 transitions).
    """
    ref = z_bar.stack()
    errors = np.array([float(np.linalg.norm(e.z.stack() - ref)) for e in trace.iterates])
    if errors.size < 3:
        raise ValueError(f"contraction fit needs at least 3 iterates, got {errors.size}")
    keep = (errors[:-1] > 0.0) & (errors[1:] > 0.0)
    if np.any(keep):
        prev, nxt = errors[:-1][keep], errors[1:][keep]
        start = _contraction_tail(prev, nxt)
    else:
        prev, nxt, start = errors[:-1], errors[1:], 0
    cons = np.column_stack([prev, 0.5 * prev * prev])
    design, target = cons[start:], nxt[start:]
    coeff = _envelope_lstsq(design, target, cons, nxt)
    kappa, omega = float(coeff[0]), float(coeff[1])
    fit_residual = float(np.max(np.abs(design @ coeff - target)))
    radius = 2.0 * (1.0 - kappa) / omega if omega > 0 else np.inf
    return ContractionEstimate(
        kappa_hat=kappa,
        omega_hat=omega,
        errors=errors,
        radius_bound=radius,
        fit_residual_inf=fit_residual,
    )


def sqp_equivalence_max_deviation(prob: StackedProblem, x0hat, seed: int = 0) -> float:
    """Largest normalized gap between the SQP step and the exact iterate.

    Samples 50 standard-normal iterates and returns
    ``max_i |sqp(z_i) - exact(z_i)|_inf / (1 + |z_i|_inf)``; the two
    paths solve the same QP through different factorizations, so this
    measures numerical agreement of the whole pipeline.
    """
    rng = np.random.default_rng(seed)
    x0 = prob.check_x0(x0hat)
    worst = 0.0
    for _ in range(50):
        z = KktPoint(rng.standard_normal(prob.n_y), rng.standard_normal(prob.n_eq))
        a = sqp_step(prob, z, x0)
        b = qlmpc_iterate(prob, z, x0, "exact")
        dev = float(np.max(np.abs(a.stack() - b.stack())))
        worst = max(worst, dev / (1.0 + float(np.max(np.abs(z.stack())))))
    return worst
