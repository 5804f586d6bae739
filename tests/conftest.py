import time

import numpy as np
import pytest
from hypothesis import settings

import qlmpc as q
import qlmpc.models as models
from qlmpc.closed_loop import REFERENCE_OPTIONS

# a failing property prints a @reproduce_failure blob: printed floats can
# lose the digits that make a point fail (e.g. 1.1244175e-76)
settings.register_profile("qlmpc", print_blob=True)
settings.load_profile("qlmpc")


@pytest.fixture(scope="session")
def unit_weights():
    return q.Weights(Q=np.eye(1), R=np.eye(1), P=np.eye(1))


@pytest.fixture(scope="session")
def tiny_lti_problem(unit_weights):
    return q.StackedProblem.build(models.builtin_tiny("lti"), 1, unit_weights)


@pytest.fixture(scope="session")
def tiny_qlpv_problem(unit_weights):
    return q.StackedProblem.build(models.builtin_tiny("qlpv"), 1, unit_weights)


@pytest.fixture(scope="session")
def unicycle_scenario():
    return q.builtin_scenario("unicycle")


@pytest.fixture(scope="session")
def unicycle_problem(unicycle_scenario):
    return unicycle_scenario.problem


@pytest.fixture(scope="session")
def unicycle_x0(unicycle_scenario):
    return unicycle_scenario.x0


@pytest.fixture(scope="session")
def adip_scenario():
    return q.builtin_scenario("adip")


@pytest.fixture(scope="session")
def adip_problem(adip_scenario):
    return adip_scenario.problem


@pytest.fixture(scope="session")
def adip_x0(adip_scenario):
    return adip_scenario.x0


# heavy closed-loop runs shared across acceptance and behavior tests

@pytest.fixture(scope="session")
def timed_unicycle_sims():
    """Both unicycle variants' simulations and their wall time in seconds."""
    t0 = time.perf_counter()
    sims = {
        "standard": q.simulate(q.builtin_scenario("unicycle", variant="standard")),
        "exact": q.simulate(q.builtin_scenario("unicycle", variant="exact")),
    }
    return sims, time.perf_counter() - t0


@pytest.fixture(scope="session")
def unicycle_sims(timed_unicycle_sims):
    return timed_unicycle_sims[0]


@pytest.fixture(scope="session")
def adip_loops(adip_scenario):
    """Controller loops for both variants plus the shared reference run."""
    scn = adip_scenario
    out = {}
    for variant in ("standard", "exact"):
        opts = q.SolverOptions(variant=variant, mode="converge", stop_tol=1e-6, max_iter=30)
        out[variant] = q.run_control_loop(scn.problem, scn.x0, scn.steps, opts)
    out["reference"] = q.run_control_loop(scn.problem, scn.x0, scn.steps, REFERENCE_OPTIONS)
    return out
