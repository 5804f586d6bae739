"""Numerical verification tools for the iteration theory.

Three independent checks live here, with the residual-stopped solve
that certifies their fixpoints: the perturbed-fixpoint identity of
the standard variant (its converged iterates are stationary points of a
linearly perturbed cost), an empirical contraction-rate fit for the
error recursion  err[l+1] <= kappa err[l] + omega/2 err[l]^2, and the
agreement of exact-variant iterates with a Gauss-Newton SQP step;
``first_timestep_report`` runs them for ``qlmpc diagnose``.  No check
builds a dense matrix: the SQP step is a band LU in stage order.  Every
norm is ``stacked.inf_norm``, so a NaN in a residual or a deviation makes
that number NaN, which the residual-stopped solve and the CLI reject.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SolverError
from .solver import IterateTrace, _start, _step, initial_guess, qlmpc_iterate
from .stacked import (
    KktPoint,
    StackedProblem,
    cost_perturbation,
    inf_norm,
    sqp_step,
    stage_data,
    stage_feasibility,
    stage_stationarity,
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
    recovery error.  Stationarity reads the exact stages, feasibility the
    standard ones; the final entry's serve for its variant.  Needs a converged trace.
    """
    if not trace.converged:
        raise ValueError("perturbation check requires a converged trace")
    z, last = trace.final, trace.iterates[-1]
    x0 = prob.check_x0(x0hat)
    exact, standard = (last.stages if last.solve[0] is prob and last.solve[2] == variant
                       else stage_data(prob, z.y, variant) for variant in ("exact", "standard"))
    e = cost_perturbation(prob, exact, standard, z.lam)
    stat_x, stat_u = stage_stationarity(prob, exact, z.y, z.lam)
    stat = np.concatenate([stat_x.ravel(), stat_u.ravel()])
    feas = stage_feasibility(prob, standard, z.y, x0)
    return PerturbationReport(
        e=e,
        true_stationarity_residual=stat,
        feasibility_residual_inf=inf_norm(feas),
        identity_error_inf=inf_norm(stat + e),
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

# candidate solutions scored per block, bounding the memory of long traces
_CANDIDATE_BLOCK = 1 << 20


def _envelope_lstsq(design, target, cons, cons_target, unit=1.0):
    """Exact minimizer of |design @ x - target|^2 over x >= 0 with the
    one-sided constraints cons @ x >= cons_target - _ENVELOPE_SLACK unit.

    ``unit`` is the value of an absolute 1 in the caller's scaling of the
    targets; the slack and the row tolerance are absolute.  Two variables
    only, so the optimum is found by enumerating active sets: the
    unconstrained minimizer, each constraint boundary, and each boundary
    intersection (Cramer's rule, all pairs at once).  It runs in
    column-scaled coefficients: at small errors an unscaled least-squares
    solve drops the omega column.
    """
    scale = np.linalg.norm(design, axis=0)
    scale[scale == 0.0] = 1.0
    design, cons = design / scale, np.vstack([np.eye(2), cons / scale])
    bounds = np.concatenate([np.zeros(2), cons_target - _ENVELOPE_SLACK * unit])
    row_tol = 1e-12 * (unit + np.abs(bounds))

    # with an absolute slack far above tiny errors some candidates lie far
    # out; those that overflow are dropped, the rest score far worse
    with np.errstate(over="ignore", invalid="ignore"):
        # the minimizer along each boundary line cons[i] @ x = bounds[i]
        nrm = np.einsum("ij,ij->i", cons, cons)
        rows = nrm > 0.0
        g = cons[rows]
        xp = g * (bounds[rows] / nrm[rows])[:, None]
        d = np.column_stack([-g[:, 1], g[:, 0]])
        ad = design @ d.T
        denom = np.einsum("ij,ij->j", ad, ad)
        num = np.einsum("ij,ij->j", ad, target[:, None] - design @ xp.T)
        t = np.divide(num, denom, out=np.zeros_like(num), where=denom > 0.0)
        # the intersection of each pair of boundaries
        i, j = np.triu_indices(len(cons), 1)
        det = cons[i, 0] * cons[j, 1] - cons[i, 1] * cons[j, 0]
        keep = np.abs(det) >= 1e-14
        i, j, det = i[keep], j[keep], det[keep]
        vertices = np.column_stack([bounds[i] * cons[j, 1] - cons[i, 1] * bounds[j],
                                    cons[i, 0] * bounds[j] - bounds[i] * cons[j, 0]])
        candidates = np.vstack([np.linalg.lstsq(design, target, rcond=None)[0],
                                xp + t[:, None] * d, vertices / det[:, None]])
        # score each candidate at its projection onto x >= 0
        x = np.maximum(candidates[np.all(np.isfinite(candidates), axis=1)], 0.0)
        floor = (bounds - row_tol)[:, None]
        step = max(1, _CANDIDATE_BLOCK // len(cons))
        x = x[np.concatenate([np.all(cons @ x[lo:lo + step].T >= floor, axis=0)
                              for lo in range(0, len(x), step)])]
        if len(x) == 0:
            raise SolverError("contraction envelope fit is infeasible")
        val = np.sum((x @ design.T - target) ** 2, axis=1)
    return x[np.argmin(val)] / scale


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


def _power_of_two_above(top: float) -> float:
    """A power of two in (top, 2 top] for a positive finite top, else 1:
    dividing by it is exact wherever the result stays a normal double."""
    return float(np.ldexp(1.0, np.frexp(top)[1])) if 0.0 < top < np.inf else 1.0


def _norm(v: Array) -> float:
    """Euclidean norm of v taken in a power-of-two scaling, so that squaring
    cannot overflow or underflow; in the normal range it equals
    ``np.linalg.norm(v)`` bitwise."""
    s = _power_of_two_above(inf_norm(v))
    return s * float(np.linalg.norm(v / s))


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

    The fit runs in errors divided by s, a power of two just above their
    largest value: kappa is unchanged, omega is the fitted value over s,
    and squared errors stay in range at any scale.  Being a power of two,
    s changes no rounding where the unscaled squares are normal doubles.
    """
    ref = z_bar.stack()
    errors = np.array([_norm(e.z.stack() - ref) for e in trace.iterates])
    if errors.size < 3:
        raise ValueError(f"contraction fit needs at least 3 iterates, got {errors.size}")
    s = _power_of_two_above(float(errors.max()))
    scaled = errors / s
    keep = (scaled[:-1] > 0.0) & (scaled[1:] > 0.0)
    if np.any(keep):
        prev, nxt = scaled[:-1][keep], scaled[1:][keep]
        start = _contraction_tail(prev, nxt)
    else:
        prev, nxt, start = scaled[:-1], scaled[1:], 0
    cons = np.column_stack([prev, 0.5 * prev * prev])
    design, target = cons[start:], nxt[start:]
    coeff = _envelope_lstsq(design, target, cons, nxt, unit=1.0 / s)
    kappa, omega = float(coeff[0]), float(coeff[1] / s)
    fit_residual = s * inf_norm(design @ coeff - target)
    radius = 2.0 * (1.0 - kappa) / omega if omega > 0 else np.inf
    return ContractionEstimate(
        kappa_hat=kappa,
        omega_hat=omega,
        errors=errors,
        radius_bound=radius,
        fit_residual_inf=fit_residual,
    )


def _prefix(entries: list, tol: float, cap: int) -> IterateTrace:
    """The residual-stopped trace of tolerance tol and at most cap steps from
    entries[0]: the entries up to the first whose optimality residual is at
    most tol, or ``cap + 1`` entries marked unconverged.

    entries holds one solve's iterates, and a cut appends the steps it reads
    past its end, so cuts of one list share their steps: iterates do not
    depend on the tolerance.  A non-finite residual raises SolverError.
    """
    for i in range(cap + 1):
        if i == len(entries):
            entries.append(_step(entries[-1]))
        res = entries[i].fonc_inf
        if not np.isfinite(res):
            raise SolverError(f"optimality residual is non-finite after {i} steps")
        if res <= tol:
            return IterateTrace(entries[:i + 1], converged=True)
    return IterateTrace(entries[:cap + 1], converged=False)


def sqp_equivalence_max_deviation(prob: StackedProblem, x0hat, seed: int = 0) -> float:
    """Largest normalized gap between the SQP step and the exact iterate.

    Samples 50 standard-normal iterates and returns
    ``max_i |sqp(z_i) - exact(z_i)|_inf / (1 + |z_i|_inf)``: the two
    paths solve the same QP through different factorizations, so at
    ill-conditioned points it is the larger of their forward errors (on
    ADIP, KKT condition number 1e9 to 4e9, the exact iterate's range-space
    error reaches 7.6e-9 and the band LU's 3.1e-10).  A NaN step at any
    of the points gives NaN.
    """
    rng = np.random.default_rng(seed)
    x0 = prob.check_x0(x0hat)
    worst = 0.0
    for _ in range(50):
        z = KktPoint(rng.standard_normal(prob.n_y), rng.standard_normal(prob.n_eq))
        a = sqp_step(prob, z, x0)
        b = qlmpc_iterate(prob, z, x0, "exact")
        worst = inf_norm(worst, inf_norm(a.stack() - b.stack()) / (1.0 + inf_norm(z.stack())))
    return worst


def first_timestep_report(prob: StackedProblem, x0hat, fit_tol: float, seed: int) -> dict:
    """The numbers of the ``qlmpc diagnose`` report at x0hat, keyed as written.

    Each check reads a cut of one standard-variant residual-stopped solve
    from the zero-input rollout: the fixpoint check the first of tol 1e-10,
    1e-9, 1e-8 (cap 300) that converges, and the contraction fit tol
    fit_tol (cap 100), its errors measured to that cut's final entry.  The
    solve starts through ``solver._start``, so a non-finite rollout raises
    SolverError before any QP, as does a fixpoint ladder or fit cut that
    does not converge, or a ``kappa_hat`` not below 1.  An overflow shows
    up as a non-finite number, which the caller judges, and raises no warning.
    """
    x0 = prob.check_x0(x0hat)
    with np.errstate(over="ignore", invalid="ignore"):
        entries = [_start(prob, x0, initial_guess(prob, x0), "standard")]
        # the range-space iterates' feasibility rounding floors the residual
        # (1e-8 on ADIP); if 1e-10 is below it, fall back a decade at a time
        tight_tol = next((tol for tol in (1e-10, 1e-9, 1e-8)
                          if _prefix(entries, tol, 300).converged), None)
        if tight_tol is None:
            raise SolverError("standard variant did not converge to tol 1e-8 at the first timestep")
        fixpoint = _prefix(entries, tight_tol, 300)
        report = verify_fixpoint_perturbation(prob, fixpoint, x0)
        fit = _prefix(entries, fit_tol, 100)
        if not fit.converged:
            raise SolverError(f"standard variant did not converge to the fit tol {fit_tol:g} "
                              "in 100 steps at the first timestep")
        if len(fit.iterates) < 3:  # a one-step solve (LTI) reads on past its fixpoint
            fit = _prefix(entries, -np.inf, 2)
        estimate = contraction_fit(fit, fixpoint.final)
        if not estimate.kappa_hat < 1.0:
            raise SolverError(f"kappa_hat {estimate.kappa_hat:.4f} is not below 1: no contraction")
        return {
            "fixpoint_tol": tight_tol,
            "e_norm_inf": inf_norm(report.e),
            "identity_error_inf": report.identity_error_inf,
            "feasibility_residual_inf": report.feasibility_residual_inf,
            "kappa_hat": estimate.kappa_hat,
            "omega_hat": estimate.omega_hat,
            "radius_bound": estimate.radius_bound,
            "fit_residual_inf": estimate.fit_residual_inf,
            "contraction_errors": estimate.errors,
            "contraction_reference_converged": fixpoint.converged,
            "sqp_equivalence_max_dev": sqp_equivalence_max_deviation(prob, x0, seed=seed),
        }
