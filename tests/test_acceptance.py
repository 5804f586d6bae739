"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
PASS/FAIL lines with the measured values.
"""

import numpy as np
import pytest

import qlmpc as q
import qlmpc.condensing as condensing
import qlmpc.models as models
import qlmpc.stacked as stacked

import oracles

ALL_MODEL_IDS = ["unicycle", "adip", "tiny-lti", "tiny-qlpv"]


def _verdict(num, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"\n[criterion {num}] {status}: {detail}")
    assert ok, f"criterion {num} failed: {detail}"


def test_criterion_1_unicycle_suboptimality(timed_unicycle_sims):
    sims, elapsed = timed_unicycle_sims
    rcso_std = float(sims["standard"].rcso[-1])
    rcso_exact = float(sims["exact"].rcso[-1])
    ok = rcso_std < 0.09 and rcso_std > 2.0 * rcso_exact and elapsed < 10.0
    _verdict(1, ok,
             f"unicycle final RCSO standard={rcso_std:.4f} (< 0.09), "
             f"exact={rcso_exact:.4f}, ratio={rcso_std / rcso_exact:.2f} (> 2.0), "
             f"runtime={elapsed:.1f}s (< 10 s)")


def test_criterion_2_sqp_equivalence(unicycle_problem, unicycle_x0):
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(50):
        z = q.KktPoint(rng.standard_normal(unicycle_problem.n_y),
                       rng.standard_normal(unicycle_problem.n_eq))
        a = oracles.sqp_step(unicycle_problem, z, unicycle_x0)
        b = q.qlmpc_iterate(unicycle_problem, z, unicycle_x0, "exact")
        dev = np.abs(a.stack() - b.stack()).max() / (1.0 + np.abs(z.stack()).max())
        worst = max(worst, dev)
    _verdict(2, worst <= 1e-9,
             f"max normalized SQP/exact-iterate deviation over 50 random iterates "
             f"= {worst:.2e} (<= 1e-9)")


def test_criterion_3_perturbed_fixpoint_identity(unicycle_problem, unicycle_x0,
                                                 tiny_qlpv_problem):
    tr = q.solve_ocp(unicycle_problem, unicycle_x0,
                     q.initial_guess(unicycle_problem, unicycle_x0),
                     q.SolverOptions(variant="standard", stop_tol=1e-10, max_iter=100))
    rep = q.verify_fixpoint_perturbation(unicycle_problem, tr, unicycle_x0)

    tr_tiny = q.solve_ocp(tiny_qlpv_problem, [0.5],
                          q.initial_guess(tiny_qlpv_problem, [0.5]),
                          q.SolverOptions(variant="standard", stop_tol=1e-12))
    e_tiny = oracles.cost_perturbation(tiny_qlpv_problem, tr_tiny.final.y, tr_tiny.final.lam)
    tiny_err = np.abs(e_tiny - np.array([-0.125, 0.0, 0.0])).max()

    ok = (tr.converged and rep.identity_error_inf <= 1e-8
          and rep.feasibility_residual_inf <= 1e-8 and tiny_err <= 1e-12)
    _verdict(3, ok,
             f"unicycle identity error={rep.identity_error_inf:.2e} (<= 1e-8), "
             f"feasibility={rep.feasibility_residual_inf:.2e} (<= 1e-8); "
             f"tiny quasi-LPV e deviation={tiny_err:.2e} (<= 1e-12)")


@pytest.mark.parametrize("scenario", ["unicycle", "adip"])
def test_criterion_4_contraction_fit(scenario, request):
    prob = request.getfixturevalue(f"{scenario}_problem")
    x0 = request.getfixturevalue(f"{scenario}_x0")
    y0 = q.initial_guess(prob, x0)
    fit_trace = q.solve_ocp(prob, x0, y0,
                            q.SolverOptions(variant="standard", stop_tol=1e-6, max_iter=100))
    ref_trace = q.solve_ocp(prob, x0, y0,
                            q.SolverOptions(variant="standard", stop_tol=1e-12, max_iter=120))
    est = q.contraction_fit(fit_trace, ref_trace.final)
    pred = est.kappa_hat * est.errors[:-1] + 0.5 * est.omega_hat * est.errors[:-1] ** 2
    worst_violation = float((est.errors[1:] - pred).max())
    fit_budget = 0.05 * est.errors.max()
    ok = (est.kappa_hat < 1.0 and est.fit_residual_inf <= fit_budget
          and worst_violation <= 1e-10)
    _verdict(4, ok,
             f"{scenario} first timestep: kappa={est.kappa_hat:.4f} (< 1), "
             f"omega={est.omega_hat:.3e}, fit residual={est.fit_residual_inf:.3e} "
             f"(<= {fit_budget:.3e}), worst pairwise violation={worst_violation:.2e} "
             f"(<= 1e-10)")


def test_criterion_5_lti_degeneration():
    m = models.builtin_tiny("lti")
    prob = q.StackedProblem.build(m, 3, q.Weights(Q=np.eye(1), R=np.eye(1), P=np.eye(1)))
    iters = {}
    perturbations = {}
    for variant in ("standard", "exact"):
        tr = q.solve_ocp(prob, [1.0], q.initial_guess(prob, [1.0]),
                         q.SolverOptions(variant=variant, stop_tol=1e-8))
        iters[variant] = (tr.converged, tr.iterations)
        perturbations[variant] = np.abs(
            oracles.cost_perturbation(prob, tr.final.y, tr.final.lam)).max()
    rng = np.random.default_rng(1)
    delta_max = max(np.abs(oracles.coupling_correction(prob, rng.normal(size=prob.n_y))).max()
                    for _ in range(10))
    ok = (all(v == (True, 1) for v in iters.values())
          and delta_max == 0.0
          and all(v == 0.0 for v in perturbations.values()))
    _verdict(5, ok,
             f"LTI: iterations standard={iters['standard'][1]}, exact={iters['exact'][1]} "
             f"(both == 1), |coupling|={delta_max:.1e}, |e|={max(perturbations.values()):.1e} "
             f"(both 0)")


def test_criterion_6_jacobian_oracle():
    worst = 0.0
    for name in ALL_MODEL_IDS:
        m = q.get_model(name)
        w = q.Weights(Q=np.eye(m.dims.n_x), R=np.eye(m.dims.n_u), P=np.eye(m.dims.n_x))
        prob = q.StackedProblem.build(m, 3, w)
        rng = np.random.default_rng(6)
        x0 = rng.normal(size=prob.n_x)
        for _ in range(20):
            z = q.KktPoint(rng.standard_normal(prob.n_y), rng.standard_normal(prob.n_eq))

            def residual(v):
                return oracles.fonc_residual(prob, q.KktPoint(v[:prob.n_y], v[prob.n_y:]), x0)

            j_fd = oracles.fd_jacobian(residual, z.stack(), 1e-6)
            j = oracles.fonc_jacobian(prob, z)
            worst = max(worst, np.abs(j - j_fd).max() / max(1.0, np.abs(j_fd).max()))
    _verdict(6, worst <= 1e-5,
             f"exact Jacobian vs finite differences over 4 models x 20 points: "
             f"max relative error={worst:.2e} (<= 1e-5)")


def test_criterion_7_condensed_stacked_equivalence():
    rng = np.random.default_rng(7)
    worst = 0.0
    for trial in range(20):
        name = ALL_MODEL_IDS[trial % len(ALL_MODEL_IDS)]
        m = q.get_model(name)
        w = q.Weights(Q=np.eye(m.dims.n_x), R=np.eye(m.dims.n_u), P=np.eye(m.dims.n_x))
        prob = q.StackedProblem.build(m, 5, w)
        rho_traj = rng.normal(size=(5, m.dims.n_rho))
        x0 = rng.normal(size=m.dims.n_x)
        qp = condensing.condense(prob, stacked.frozen_stages(m, rho_traj), x0)
        y = condensing.expand(qp, condensing.solve_condensed(qp))
        g = oracles.constraint_matrix(prob, rho_traj)
        lam = oracles.recover_multipliers(prob, g, y)
        stat = 2.0 * oracles.weight_matrix(prob) @ y + g.T @ lam
        feas = g @ y + oracles.x0_map(prob) @ x0
        worst = max(worst, np.abs(stat).max(), np.abs(feas).max())
    _verdict(7, worst <= 1e-8,
             f"frozen-parameter optimality residual of expanded condensed solutions "
             f"over 20 random instances: max={worst:.2e} (<= 1e-8)")


def test_criterion_8_adip_stabilization(adip_problem, adip_x0, adip_loops):
    scn = q.builtin_scenario("adip")
    dr_ref = q.dr_series(adip_loops["reference"][0], adip_loops["reference"][1],
                         scn.weights.Q, scn.weights.R)
    details = []
    ok = True
    rcso_std = None
    for variant in ("standard", "exact"):
        states, inputs, stats, fail_step, _ = adip_loops[variant]
        states = np.asarray(states)
        terminal = np.abs(states[-1][:2])
        iters = [s.iterations for s in stats]
        trend_ok = sum(iters[-20:]) <= sum(iters[:20])
        settled = fail_step is None and terminal.max() < 0.01
        ok = ok and settled and trend_ok
        details.append(f"{variant}: |th1|,|th2| at 2 s = ({terminal[0]:.4f}, {terminal[1]:.4f}) "
                       f"(< 0.01), iterations first20={sum(iters[:20])} last20={sum(iters[-20:])}")
        if variant == "standard":
            dr = q.dr_series(states, np.asarray(inputs), scn.weights.Q, scn.weights.R)
            rcso_std = q.rcso(dr, dr_ref, len(dr) - 1)
    ok = ok and rcso_std is not None and rcso_std < 0.10
    _verdict(8, ok,
             "; ".join(details) + f"; standard final RCSO={rcso_std:.4f} "
             f"(< 0.10 hard, target < 0.05)")


def test_criterion_9_real_time_invariance(timed_unicycle_sims):
    sims, _ = timed_unicycle_sims
    counts = {variant: sorted(set(s.iterations for s in sims[variant].per_step))
              for variant in ("standard", "exact")}
    ok = all(c == [1] for c in counts.values())
    _verdict(9, ok,
             f"single-iteration mode iteration counts over 100 steps: "
             f"standard={counts['standard']}, exact={counts['exact']} (all == 1)")
