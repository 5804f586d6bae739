"""Side measurement behind the BLAS pin: one adip-standard-converge loop per thread setting.

Usage: python3 perfbench/thread_check.py [--repeat N]

Runs the 200-step loop in fresh processes (OpenBLAS fixes its thread
count when it loads), once with the BLAS thread variables unset and once
with them pinned to 1, alternating the order, and prints the loop walls
as one JSON line.  This is not a workload; README.md records its result.
"""

import benchenv

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

WORKLOAD = "adip-standard-converge"


def child() -> None:
    benchenv.add_program_path()
    from time import perf_counter

    import qlmpc.closed_loop as closed_loop
    from workloads import WORKLOADS

    wl = WORKLOADS[WORKLOAD]
    prob = wl.problem()
    x0 = wl.initial_state(0)
    closed_loop.run_control_loop(prob, x0, 2, wl.options)
    t0 = perf_counter()
    closed_loop.run_control_loop(prob, x0, wl.steps, wl.options)
    print(perf_counter() - t0)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeat", type=int, default=2)
    args = parser.parse_args()
    walls = {"default": [], "pinned_1": []}
    for i in range(args.repeat):
        order = ("default", "pinned_1") if i % 2 == 0 else ("pinned_1", "default")
        for setting in order:
            env = {k: v for k, v in os.environ.items() if k not in benchenv.BLAS_THREAD_VARS}
            if setting == "pinned_1":
                benchenv.pin_blas_threads(env)
            out = subprocess.run([sys.executable, __file__, "--child"], env=env,
                                 capture_output=True, text=True, check=True)
            walls[setting].append(float(out.stdout.split()[-1]))
    print(json.dumps({"workload": WORKLOAD, "loop_wall_s": walls,
                      "cpu_count": os.cpu_count()}))


if __name__ == "__main__":
    if sys.argv[1:] == ["--child"]:
        child()
    else:
        main()
