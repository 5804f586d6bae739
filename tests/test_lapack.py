"""The LAPACK routines that ``qlmpc._lapack`` loads without ``scipy.linalg``."""

import ast
import importlib.machinery
import subprocess
import sys
from pathlib import Path

import pytest

import qlmpc as q
from qlmpc import _lapack

ROUTINES = ("dpotrf", "dpotrs", "dpbsv", "dgbsv")

# solves the band of an ADIP G W^-1 G' and a condensed ADIP Hessian with
# both modules' routines; ORDER says which of qlmpc and scipy.linalg is imported first
_BOTH_ORDERS = """
import sys
if ORDER == "scipy-first":
    import scipy.linalg.lapack
import numpy as np
import qlmpc as q
from qlmpc import _lapack
from qlmpc.condensing import condense
from qlmpc.stacked import stage_data
print("scipy.linalg" in sys.modules)
import scipy.linalg.lapack as lapack
sys.path.insert(0, TESTS)
import oracles

scn = q.builtin_scenario("adip")
prob = scn.problem
stages = stage_data(prob, q.initial_guess(prob, scn.x0), "standard")
g = oracles._assemble_g(prob, stages)
normal = g @ np.linalg.solve(oracles.weight_matrix(prob), g.T)
band = np.array([np.append(np.diagonal(normal, -d), np.zeros(d)) for d in range(2 * prob.n_x)])
hess = condense(prob, stages, scn.x0).hess
rng = np.random.default_rng(0)
b_rhs, h_rhs = rng.normal(size=band.shape[1]), rng.normal(size=len(hess))


def solves(mod):
    b_factor, b_sol, b_info = mod.dpbsv(band, b_rhs, lower=1)
    h_factor, h_info = mod.dpotrf(hess, lower=1, clean=0)
    return (b_info, h_info, b_factor, b_sol, h_factor, mod.dpotrs(h_factor, h_rhs, lower=1)[0])


ours, theirs = solves(_lapack), solves(lapack)
print(*ours[:2], all(np.array_equal(a, b) for a, b in zip(ours, theirs)),
      all(getattr(_lapack, n) is getattr(lapack, n) for n in ROUTINES))
"""


@pytest.mark.parametrize("order", ["qlmpc-first", "scipy-first"])
def test_routines_equal_scipy_linalg_lapack_in_either_import_order(order):
    src = Path(q.__file__).resolve().parents[1]
    tests = str(Path(__file__).resolve().parent)
    code = f"ORDER = {order!r}\nROUTINES = {ROUTINES!r}\nTESTS = {tests!r}\n" + _BOTH_ORDERS
    out = subprocess.run([sys.executable, "-c", code], cwd=src, capture_output=True,
                         text=True, check=True)
    assert out.stdout.split() == [str(order == "scipy-first"), "0", "0", "True", "True"]


def test_falls_back_to_scipy_linalg_lapack_without_the_file(monkeypatch):
    import scipy.linalg.lapack

    monkeypatch.setattr(importlib.machinery, "EXTENSION_SUFFIXES", [])
    assert _lapack._flapack_path() is None
    module = _lapack._load()
    assert module is scipy.linalg.lapack
    for name in ROUTINES:
        assert getattr(module, name) is getattr(_lapack, name)


def test_routines_are_the_ones_the_solves_import():
    # a binding that no solve imports is dead code
    imported = set()
    for path in Path(q.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module == "_lapack":
                imported.update(alias.name for alias in node.names)
    bound = {name for name, value in vars(_lapack).items() if type(value) is type(_lapack.dpbsv)}
    assert imported == bound == set(ROUTINES)
