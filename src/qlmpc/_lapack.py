"""The four LAPACK routines of the solves, loaded without ``scipy.linalg``.

The QP solves call ``dpotrf``/``dpotrs`` and ``dpbsv``, and the SQP
cross-check ``dgbsv``, from scipy's compiled f2py LAPACK extension.
Importing them through ``scipy.linalg`` runs that package's
``__init__``, which pulls in most of scipy's array-API layer and,
through it, ``numpy.f2py``, ``numpy.testing``, ``numpy.random`` and
more: about two thirds of the time ``import qlmpc`` took.  So the
extension module ``scipy/linalg/_flapack`` is loaded here straight from
its file, under its own name and without registering it in
``sys.modules``.  Its routines are the very objects
``scipy.linalg.lapack`` exports, whichever of the two is imported
first.  Only when the file is not where scipy keeps it does this fall
back to ``scipy.linalg.lapack``.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import os
import sys

_NAME = "scipy.linalg._flapack"


def _flapack_path():
    """The file of scipy's LAPACK extension module, or None when there is none."""
    spec = importlib.util.find_spec("scipy")
    roots = spec.submodule_search_locations if spec is not None else None
    for root in roots or ():
        for suffix in importlib.machinery.EXTENSION_SUFFIXES:
            path = os.path.join(root, "linalg", "_flapack" + suffix)
            if os.path.isfile(path):
                return path
    return None


def _load():
    """scipy's LAPACK extension module, or ``scipy.linalg.lapack`` without its file."""
    path = _flapack_path()
    if path is None:
        from scipy.linalg import lapack
        return lapack
    if _NAME in sys.modules:  # scipy.linalg was imported first
        return sys.modules[_NAME]
    loader = importlib.machinery.ExtensionFileLoader(_NAME, path)
    module = importlib.util.module_from_spec(
        importlib.util.spec_from_file_location(_NAME, path, loader=loader))
    loader.exec_module(module)
    # CPython enters a single-phase extension module in sys.modules as it
    # creates it; take it out, so that a later ``import scipy.linalg``
    # imports it as usual (and gets the same routines)
    sys.modules.pop(_NAME, None)
    return module


_flapack = _load()
dpotrf, dpotrs = _flapack.dpotrf, _flapack.dpotrs
dgbsv, dpbsv = _flapack.dgbsv, _flapack.dpbsv
