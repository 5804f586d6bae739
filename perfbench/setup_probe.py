"""Fresh-process set-up of one workload, as a user pays it before the first step.

Usage: python3 perfbench/setup_probe.py WORKLOAD

Imports qlmpc, builds the workload's StackedProblem and prints "ready".
``run.py`` times the process from spawn to that line.
"""

import benchenv

benchenv.pin_blas_threads()
benchenv.add_program_path()

import sys  # noqa: E402

from workloads import WORKLOADS  # noqa: E402

if __name__ == "__main__":
    WORKLOADS[sys.argv[1]].problem()
    print("ready", flush=True)
