"""Smoke test of the benchmark at tiny sizes.

    python3 -m pytest -q perfbench/test_smoke.py

Checks that a plain run emits every end-to-end metric and a traced run every
per-layer metric named in BENCHMARK.json, and that a gap the CLI fails on
counts as one failed operation although it never reaches report.json.
"""

import json
from pathlib import Path

import pytest

import run
import workloads

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

TINY_BAND = {
    "lattice": {"nu": 1, "omega": ["1"]},
    "potential": {"kind": "cosine", "n0": [1], "kappa0": 1.0, "alpha0": 1.0},
    "coupling": 0.05,
    "mode": "practical",
    "schedule": {"beta": 0.5, "R1": 6.0, "s_max": 2, "s_cap": 1,
                 "sigma_scale": 1e-8, "eps0": 0.5},
    "k_grid": {"list": [0.11, 0.31]},
    "truncation_R": 6,
    "gaps": [[0], [-1]],          # k_m = 0 for m = 0: the CLI only logs it
    "audits": ["symmetry", "monotonicity", "increments"],
}
TINY_VERIFY = ["verify", "--suite", "schur"]


@pytest.mark.parametrize("trace", [False, True])
def test_band_metrics_and_failed_gap(trace):
    record = run.run_job(ROOT, "smoke_band", list(workloads.BAND_ARGV),
                         TINY_BAND, seed=1, seconds=0, trace=trace)
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert sorted(record["metrics"]) == sorted(m["name"] for m in wanted)
    gap_failures = [f for f in record["failures"] if f.startswith("gap ")]
    assert gap_failures == ["gap m=[0]"]
    assert record["correct"]
    if not trace:
        ok = record["metrics"]["ok_frac"]["value"]
        assert ok == pytest.approx(1.0 - len(record["failures"]) / record["attempted"])
        assert 0.0 < ok < 1.0


@pytest.mark.parametrize("trace", [False, True])
def test_verify_metrics(trace):
    record = run.run_job(ROOT, "smoke_verify", TINY_VERIFY, None, seed=1,
                         seconds=0, trace=trace)
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert sorted(record["metrics"]) == sorted(m["name"] for m in wanted)
    assert record["correct"] and not record["failures"]
    if trace:
        assert record["metrics"]["verify.suite_schur_s"]["value"] > 0.0
