"""The benchmark's closed-loop workloads.

Each workload is spelled out here rather than read from
``qlmpc.builtin_scenario``, so that a change to the program's presets
cannot change what the benchmark measures; ``tests/test_perfbench.py``
checks that the seed-0 definitions still equal the presets.  Why each
workload was chosen is in ``README.md``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from qlmpc import SolverOptions, StackedProblem, Weights, get_model

# Seeds other than 0 add a uniform draw from [-X0_BOX, X0_BOX] to every
# component of the scenario's initial state.  The box is small enough
# that each workload keeps its iteration profile (same median iteration
# count per step, max-iteration steps within one or two of seed 0).
X0_BOX = 0.001

# Criterion 8 of the acceptance suite: the ADIP loop ends with both link
# angles within this many radians of upright.
ANGLE_TOL = 0.01

# Relative tolerance on the seed-0 closed-loop cost against the value
# recorded for the workload.
FINAL_DR_RTOL = 1e-6

_ADIP_Q = np.diag([200.0, 1000.0, 0.1, 10.0])
_ADIP_WEIGHTS = Weights(Q=_ADIP_Q, R=np.array([[2000.0]]), P=_ADIP_Q)
_UNICYCLE_Q = np.diag([1.0, 1.0, 0.1, 1.0, 0.1])
_UNICYCLE_WEIGHTS = Weights(Q=_UNICYCLE_Q, R=np.diag([1.0, 1.0]), P=_UNICYCLE_Q)


@dataclass(frozen=True)
class Workload:
    name: str
    model_id: str
    x0: tuple
    steps: int
    horizon: int
    weights: Weights
    options: SolverOptions
    seed0_final_dr: float
    # state components that must end within ANGLE_TOL of zero
    angles: tuple = ()

    @property
    def real_time(self) -> bool:
        return self.options.mode == "real_time_single_iteration"

    def initial_state(self, seed: int) -> np.ndarray:
        """The scenario's x0 at seed 0, a draw from a small box around it otherwise."""
        if seed < 0:
            raise ValueError(f"seed must be >= 0, got {seed}")
        x0 = np.array(self.x0, dtype=float)
        if seed == 0:
            return x0
        rng = np.random.default_rng(seed)
        return x0 + rng.uniform(-X0_BOX, X0_BOX, x0.shape)

    def problem(self) -> StackedProblem:
        return StackedProblem.build(get_model(self.model_id), self.horizon, self.weights)

    def closed_loop_cost(self, states, inputs) -> float:
        """Cumulative cost sum x'Qx + u'Ru over the applied steps."""
        xs = np.asarray(states, dtype=float)[:len(inputs)]
        us = np.asarray(inputs, dtype=float).reshape(len(inputs), -1)
        q, r = self.weights.Q, self.weights.R
        return float(np.einsum("ki,ij,kj->", xs, q, xs) + np.einsum("ki,ij,kj->", us, r, us))

    def final_dr_error(self, final_dr: float) -> float:
        """Relative distance of a seed-0 cost from the recorded one."""
        return abs(final_dr - self.seed0_final_dr) / abs(self.seed0_final_dr)


WORKLOADS = {w.name: w for w in (
    Workload(
        name="adip-standard-converge",
        model_id="adip",
        x0=(math.pi / 3.0, 0.0, 0.0, 0.0),
        steps=200,
        horizon=40,
        weights=_ADIP_WEIGHTS,
        options=SolverOptions(variant="standard", mode="converge", stop_tol=1e-6, max_iter=30),
        seed0_final_dr=8870.324062256313,
        angles=(0, 1),
    ),
    Workload(
        name="unicycle-exact-rti",
        model_id="unicycle",
        x0=(1.0, 2.0, 0.0, math.pi, 0.0),
        steps=100,
        horizon=20,
        weights=_UNICYCLE_WEIGHTS,
        options=SolverOptions(variant="exact", mode="real_time_single_iteration",
                              stop_tol=1e-6, max_iter=30),
        seed0_final_dr=290.7929984696908,
    ),
    Workload(
        name="adip-exact-reference",
        model_id="adip",
        x0=(math.pi / 3.0, 0.0, 0.0, 0.0),
        steps=200,
        horizon=40,
        weights=_ADIP_WEIGHTS,
        options=SolverOptions(variant="exact", mode="converge", stop_tol=1e-10, max_iter=100),
        seed0_final_dr=8484.613881537069,
        angles=(0, 1),
    ),
)}
