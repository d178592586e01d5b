"""scipy's compiled extensions, loaded by file path so that no ``__init__``
of a scipy package runs, and one BLAS thread for scipy and numpy.

``scipy/linalg/__init__.py`` loads numpy.f2py, numpy.testing, numpy.ma and
numpy.random (about half the start-up time of a run), and
``scipy/optimize/__init__.py`` loads scipy.linalg, scipy.sparse and
scipy.special. scipy's directory is found by ``importlib.util.find_spec``,
so ``scipy/__init__.py`` does not run either. Each extension is registered
under its scipy name, so ``scipy.linalg.lapack`` and ``scipy.optimize.brentq``
reach the same objects as ``flapack`` and ``zeros`` here.

The OpenBLAS bundled with scipy's and with numpy's wheel each runs as many
threads as OPENBLAS_NUM_THREADS or the cores say, and its threaded kernels
give other last bits (numpy's eigh, the nu = 2 resolvents).
Both are set to one thread here by their own setters; a BLAS without one
keeps the threads its environment gives it.
"""

from __future__ import annotations

import ctypes
import importlib.machinery
import importlib.util
import os
import sys


def _directory(package: str) -> str:
    spec = importlib.util.find_spec(package)
    if spec is None:
        raise ImportError(f"{package} is not installed")
    return spec.submodule_search_locations[0]


def _load(package: str, name: str):
    """The extension ``scipy.<package>.<name>``, loaded by path."""
    full = f"scipy.{package}.{name}"
    if full in sys.modules:
        return sys.modules[full]
    directory = os.path.join(_directory("scipy"), package)
    paths = [os.path.join(directory, name + suffix)
             for suffix in importlib.machinery.EXTENSION_SUFFIXES]
    path = next((p for p in paths if os.path.isfile(p)), None)
    if path is None:
        raise ImportError(f"no extension {full} at {paths}")
    loader = importlib.machinery.ExtensionFileLoader(full, path)
    spec = importlib.util.spec_from_file_location(full, path, loader=loader)
    module = importlib.util.module_from_spec(spec)
    loader.exec_module(module)
    sys.modules[full] = module
    return module


def _one_blas_thread(libs: str, setter: str) -> bool:
    """setter(1) in the OpenBLAS bundled in the wheel directory libs; False,
    and nothing set, when there is no such library or it has no setter."""
    if not os.path.isdir(libs):
        return False
    for name in sorted(os.listdir(libs)):
        if name.startswith("libscipy_openblas"):
            function = getattr(ctypes.CDLL(os.path.join(libs, name)), setter,
                               None)
            if function is not None:
                function(1)
                return True
    return False


flapack = _load("linalg", "_flapack")
zeros = _load("optimize", "_zeros")
_one_blas_thread(_directory("scipy") + ".libs",
                 "scipy_openblas_set_num_threads")
_one_blas_thread(_directory("numpy") + ".libs",
                 "scipy_openblas_set_num_threads64_")
