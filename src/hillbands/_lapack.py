"""scipy's f2py LAPACK wrappers, loaded by file path so that
``scipy/linalg/__init__.py`` does not run.

That ``__init__`` clones the numpy namespace for scipy's array-API layer,
which loads numpy.f2py, numpy.testing, numpy.ma and numpy.random: about half
the start-up time of every ``hillbands`` run. scipy's directory is found by
``importlib.util.find_spec``, so ``scipy/__init__.py`` does not run either
(it loads scipy._lib._testutils among others). ``flapack`` is the module
that ``scipy.linalg.lapack`` re-exports, registered under its own name, so
both routes reach the same wrapper objects.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import os
import sys

_NAME = "scipy.linalg._flapack"


def _load():
    if _NAME in sys.modules:
        return sys.modules[_NAME]
    scipy = importlib.util.find_spec("scipy")
    if scipy is None:
        raise ImportError("scipy is not installed")
    directory = os.path.join(scipy.submodule_search_locations[0], "linalg")
    paths = [os.path.join(directory, "_flapack" + suffix)
             for suffix in importlib.machinery.EXTENSION_SUFFIXES]
    path = next((p for p in paths if os.path.isfile(p)), None)
    if path is None:
        raise ImportError(f"no LAPACK extension of scipy at {paths}")
    loader = importlib.machinery.ExtensionFileLoader(_NAME, path)
    spec = importlib.util.spec_from_file_location(_NAME, path, loader=loader)
    module = importlib.util.module_from_spec(spec)
    loader.exec_module(module)
    sys.modules[_NAME] = module
    return module


flapack = _load()
