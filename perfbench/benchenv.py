"""Process set-up shared by the benchmark's entry points.

``pin_blas_threads`` must run before numpy is first imported: OpenBLAS
reads its thread count once, when the library loads.
"""

from __future__ import annotations

import os
import platform
import sys
from pathlib import Path

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def pin_blas_threads(env=None) -> None:
    """Set every BLAS thread-count variable in ``env`` (default: this process) to 1."""
    env = os.environ if env is None else env
    for var in BLAS_THREAD_VARS:
        env[var] = "1"


def add_program_path() -> None:
    """Make ``import qlmpc`` load the checkout's own source tree; exit if it is missing."""
    if not (SRC / "qlmpc" / "__init__.py").is_file():
        sys.exit(f"perfbench: program source not found: {SRC / 'qlmpc'}")
    sys.path.insert(0, str(SRC))


def check_program_origin(module) -> None:
    """Exit unless ``module`` was imported from the checkout's source tree."""
    origin = Path(module.__file__).resolve().parent
    if origin != SRC / "qlmpc":
        sys.exit(f"perfbench: qlmpc imported from {origin}, expected {SRC / 'qlmpc'}")


def env_block() -> dict:
    """Machine and library configuration the result was produced on."""
    import numpy as np
    import scipy

    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    return {
        "cpu_count": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
    }
