"""The package's import surface: what a bare import loads, which scipy
subpackages the entry points pull in, the names the span tracer of the
benchmark (perfbench/tracing.py) rebinds, the number of options the package
exposes, and that every definition in it has a caller in it."""

import ast
import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
# defaulted parameters and defaulted dataclass fields in src/hillbands
MAX_DEFAULTED = 24
# top-level functions, classes and methods of src/hillbands that no code in
# src/hillbands refers to, each with the reason it stays in the package
UNREFERENCED_ALLOWED = {
    "band.gap_resolvent_audit": "acceptance criterion 07 runs it",
    "oracle.bloch_residual": "acceptance criterion 12 runs it",
    "domains.separation_audit": "ROADMAP item 4 gives it a caller",
    "scales.resonance_gap_ordering_audit": "ROADMAP item 2 gives it a caller",
}
# the package needs two compiled extensions of scipy, scipy.linalg._flapack
# and scipy.optimize._zeros, which hillbands._lapack loads by path; these
# cost set-up time on every run (scipy.integrate loads scipy.optimize, which
# loads scipy.fft and scipy.special)
UNWANTED_SCIPY = ("scipy.integrate", "scipy.special", "scipy.fft")
# what PuncturedResolvent and the checked Hermitian solve call
LAPACK_WRAPPERS = ("zhetrd", "zhetrd_lwork", "zunmqr", "dstevd", "zhesv",
                   "zhesv_lwork", "zhecon")


def _fresh_interpreter(code: str) -> str:
    path = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                         os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=path))
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def test_bare_import_loads_no_submodule_numpy_or_scipy():
    assert _fresh_interpreter(
        "import sys, hillbands; print(sorted(m for m in sys.modules "
        "if m.startswith(('hillbands.', 'numpy', 'scipy'))))") == "[]"


def test_entry_points_load_only_the_brentq_extension_of_scipy_optimize():
    # scipy/optimize/__init__.py would load scipy.linalg, scipy.sparse and
    # scipy.special among others
    loaded = _fresh_interpreter(
        "import sys, hillbands.cli, hillbands.verify; print(sorted(m for m "
        "in sys.modules if m.startswith(('scipy.optimize',) + "
        f"{UNWANTED_SCIPY})))")
    assert loaded == "['scipy.optimize._zeros']"


def test_entry_points_load_only_the_lapack_extension_of_scipy_linalg():
    # scipy/linalg/__init__.py loads numpy.f2py, numpy.testing, numpy.ma and
    # numpy.random: about half of the set-up time of a run
    assert _fresh_interpreter(
        "import sys, hillbands.cli, hillbands.verify; print(sorted(m for m "
        "in sys.modules if m.startswith('scipy.linalg')))") == \
        "['scipy.linalg._flapack']"


def test_entry_points_do_not_run_scipy_init():
    # hillbands._lapack finds scipy's directory without importing scipy,
    # whose __init__ loads scipy._lib._testutils among others
    assert _fresh_interpreter(
        "import sys, hillbands.cli; print('scipy' in sys.modules)") == "False"


def test_band_and_verify_runs_leave_scipy_linalg_unloaded(tmp_path):
    config = ROOT / "configs" / "reference.json"
    assert _fresh_interpreter(
        "import sys; from hillbands.cli import main; "
        f"rc = main(['band', {str(config)!r}, '--output-dir', "
        f"{str(tmp_path)!r}]) + main(['verify', '--suite', 'all']); "
        "print(rc, 'scipy.linalg' in sys.modules)").splitlines()[-1] == \
        "0 False"


@pytest.mark.parametrize("first", ["hillbands._lapack", "scipy.linalg"])
def test_loaded_wrappers_are_the_scipy_linalg_lapack_objects(first):
    # either import order gives one module object, so each wrapper is the
    # object scipy.linalg.lapack re-exports
    assert _fresh_interpreter(
        f"import {first}; import scipy.linalg.lapack as lapack; "
        "from hillbands._lapack import flapack; "
        "print(all(getattr(flapack, name) is getattr(lapack, name) for name "
        f"in {LAPACK_WRAPPERS}))") == "True"


@pytest.mark.parametrize("first", ["hillbands._lapack", "scipy.optimize"])
def test_loaded_brentq_is_the_scipy_optimize_object(first):
    # either import order gives one module object, so refine_root runs the
    # loop that scipy.optimize.brentq runs
    assert _fresh_interpreter(
        f"import {first}; from scipy.optimize import _zeros; "
        "from hillbands._lapack import zeros; "
        "print(zeros is _zeros and zeros._brentq is _zeros._brentq)") == \
        "True"


# the thread counts of scipy's and numpy's OpenBLAS, read in a run that the
# environment asks for two threads
_BLAS_THREADS = (
    "import ctypes, os; os.environ['OPENBLAS_NUM_THREADS'] = '2'; "
    "from hillbands import _lapack; "
    "libs = [(_lapack._directory(p) + '.libs', g) for p, g in ("
    "('scipy', 'scipy_openblas_get_num_threads'), "
    "('numpy', 'scipy_openblas_get_num_threads64_'))]; "
    "print([getattr(ctypes.CDLL(os.path.join(d, n)), g)() for d, g in libs "
    "for n in os.listdir(d) if n.startswith('libscipy_openblas')])")


def test_import_sets_scipy_and_numpy_blas_to_one_thread():
    assert _fresh_interpreter(_BLAS_THREADS) == "[1, 1]"


def test_a_blas_without_the_setter_is_left_alone(tmp_path):
    from hillbands import _lapack

    libs = _lapack._directory("scipy") + ".libs"
    assert not _lapack._one_blas_thread(libs, "no_such_setter")
    assert not _lapack._one_blas_thread(str(tmp_path / "missing"),
                                        "no_such_setter")


# a nu = 2 sample of the resonant_2d golden config (a pair route on 359
# modes, reduced by zhetrd) and numpy's eigh of a 256 x 256 Hermitian
# matrix: both give other bits at two BLAS threads unless the import pins one
_THREAD_PROBE = """
import hashlib, os
os.environ["OPENBLAS_NUM_THREADS"] = "{threads}"
import numpy as np
from hillbands.band import compute_point
from hillbands.cli import build_context
from hillbands.oracle import dense_spectrum
config = {{
    "lattice": {{"nu": 2, "omega": ["1", "3/7"]}},
    "potential": {{"kind": "random_phase", "support_radius": 2,
                  "amplitude_scale": 0.5, "kappa0": 0.5, "alpha0": 1.0,
                  "seed": 1}},
    "coupling": 0.05, "mode": "practical",
    "schedule": {{"beta": 0.5, "R1": 9.0, "s_max": 2, "s_cap": 1,
                 "sigma_scale": 1e-8, "eps0": 0.5}},
    "truncation_R": 6, "use_domains": False}}
p = compute_point(build_context(config), 0.05)
rng = np.random.default_rng(0)
A = rng.standard_normal((256, 256)) + 1j * rng.standard_normal((256, 256))
w, V = dense_spectrum(A + A.conj().T)
print(p.klass, len(p.domain), p.E.hex(),
      hashlib.sha256(p.phi.tobytes() + w.tobytes() + V.tobytes()).hexdigest())
"""


def test_outputs_are_the_same_bytes_at_one_and_two_blas_threads():
    one, two = (_fresh_interpreter(_THREAD_PROBE.format(threads=n))
                for n in (1, 2))
    assert one.startswith("GSR-2 359 ")
    assert one == two


def _imports_under(prefixes: tuple[str, ...]) -> list[str]:
    """path:line name of every import in src/hillbands of a module under one
    of prefixes, function bodies included, so a lazy import cannot come
    back."""
    found = []
    for path in sorted((ROOT / "src" / "hillbands").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module:
                names = [node.module] + [f"{node.module}.{alias.name}"
                                         for alias in node.names]
            else:
                continue
            found += [f"{path.name}:{node.lineno} {name}" for name in names
                      if name.startswith(prefixes)]
    return found


def test_no_module_imports_scipy_optimize_or_integrate():
    assert _imports_under(("scipy.optimize", "scipy.integrate")) == []


def test_no_module_imports_scipy_linalg():
    # hillbands._lapack loads the extension by path, without an import
    assert _imports_under(("scipy.linalg",)) == []


def _tracing():
    """perfbench/tracing.py, loaded by path without installing anything."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", ROOT / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


@pytest.mark.parametrize("module, attr", [t[:2] for t in _tracing().TARGETS])
def test_traced_name_resolves(module, attr):
    # the tracer wraps these by name; a rename in src would otherwise only
    # break the traced benchmark run
    obj = importlib.import_module(f"hillbands.{module}")
    for part in attr.split("."):
        obj = getattr(obj, part)
    assert callable(obj)


def test_traced_suites_are_the_verify_suites():
    # install() rebinds each verify.SUITES entry that is the traced
    # suite_<name> function, and wraps QuotientLattice.canonicalize by name
    from hillbands import lattice, verify

    suites = _tracing().SUITES
    assert suites == list(verify.SUITES)
    assert all(verify.SUITES[name] is getattr(verify, f"suite_{name}")
               for name in suites)
    assert callable(lattice.QuotientLattice.canonicalize)


def _has_default(value: ast.expr | None) -> bool:
    """A dataclass field's value gives it a default: any value but a
    ``field(...)`` call without ``default`` or ``default_factory``."""
    if value is None:
        return False
    if isinstance(value, ast.Call) and ast.unparse(value.func) in (
            "field", "dataclasses.field"):
        return any(kw.arg in ("default", "default_factory")
                   for kw in value.keywords)
    return True


def _defaulted_count(root: Path) -> int:
    """Defaults of every function and lambda (positional and keyword-only)
    plus every annotated field with a default in a @dataclass class body."""
    count = 0
    for path in sorted(root.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.Lambda)):
                count += len(node.args.defaults) + sum(
                    d is not None for d in node.args.kw_defaults)
            elif isinstance(node, ast.ClassDef) and any(
                    "dataclass" in ast.unparse(d) for d in node.decorator_list):
                count += sum(isinstance(s, ast.AnnAssign)
                             and _has_default(s.value) for s in node.body)
    return count


def test_defaulted_options_do_not_grow():
    count = _defaulted_count(ROOT / "src" / "hillbands")
    assert count == MAX_DEFAULTED, (
        f"{count} defaulted parameters and dataclass fields in src/hillbands, "
        f"MAX_DEFAULTED is {MAX_DEFAULTED}: make a single-valued option a "
        f"constant, and set MAX_DEFAULTED to the new count whenever an "
        f"option goes")


def _unreferenced(root: Path) -> list[str]:
    """module.name of every top-level function and class whose name no
    ``ast.Name`` or ``ast.Attribute`` under root carries, and
    module.Class.name of every method that is not a dunder whose name no
    ``ast.Attribute`` carries: a local variable of the same name is no call
    of the method. Docstrings and comments do not count as references."""
    defined = []
    names = set()
    attributes = set()
    for path in sorted(root.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.ClassDef)):
                continue
            defined.append((f"{path.stem}.{node.name}", node.name, False))
            if isinstance(node, ast.ClassDef):
                defined += [
                    (f"{path.stem}.{node.name}.{sub.name}", sub.name, True)
                    for sub in node.body
                    if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and not (sub.name.startswith("__")
                             and sub.name.endswith("__"))]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                attributes.add(node.attr)
    return [qualified for qualified, name, method in defined
            if name not in attributes and (method or name not in names)]


def test_every_definition_has_a_caller_in_the_package():
    unreferenced = _unreferenced(ROOT / "src" / "hillbands")
    test_only = sorted(set(unreferenced) - set(UNREFERENCED_ALLOWED))
    assert not test_only, (
        f"only tests reach {test_only}: give each a caller in src/hillbands, "
        f"move it into tests/oracles.py, or delete it")
    called = sorted(set(UNREFERENCED_ALLOWED) - set(unreferenced))
    assert not called, f"{called} gained a caller: drop it from the allowlist"
