"""The package's import surface: what a bare import loads, and the names the
span tracer of the benchmark (perfbench/tracing.py) rebinds."""

import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def test_bare_import_loads_no_submodule_numpy_or_scipy():
    code = ("import sys, hillbands; print(sorted(m for m in sys.modules "
            "if m.startswith(('hillbands.', 'numpy', 'scipy'))))")
    path = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                         os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=path))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def _tracing_targets():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", ROOT / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing.TARGETS


@pytest.mark.parametrize("module, attr", [t[:2] for t in _tracing_targets()])
def test_traced_name_resolves(module, attr):
    # the tracer wraps these by name; a rename in src would otherwise only
    # break the traced benchmark run
    obj = importlib.import_module(f"hillbands.{module}")
    for part in attr.split("."):
        obj = getattr(obj, part)
    assert callable(obj)
