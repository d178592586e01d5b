import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

from hillbands import band, cli, oracle, verify
from hillbands.cli import K_GRID_MAX_POINTS, k_grid_from, main, run_band
from hillbands.errors import (ConfigError, HypothesisFailed, IntegratorFailure,
                              NoConvergence)

ROOT = Path(__file__).resolve().parent.parent

BASE_CONFIG = {
    "lattice": {"nu": 1, "omega": ["1"]},
    "potential": {"kind": "cosine", "n0": [1], "kappa0": 1.0, "alpha0": 1.0},
    "coupling": 0.05,
    "mode": "practical",
    "schedule": {"beta": 0.5, "R1": 12.0, "s_max": 2, "s_cap": 1,
                 "sigma_scale": 1e-8, "eps0": 0.5},
    "diophantine": {"a0": 0.5, "b0": 2.0, "Rbar0": 8},
    "k_grid": {"min": 0.05, "max": 0.2, "step": 0.05},
    "truncation_R": 12,
    "gaps": [[-1]],
    "audits": ["symmetry", "monotonicity", "increments"],
}


def write_config(tmp_path, overrides=None):
    config = json.loads(json.dumps(BASE_CONFIG))
    for key, value in (overrides or {}).items():
        config[key] = value
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    return path


def test_run_band_writes_files(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    rc = main(["band", str(cfg), "--output-dir", str(out)])
    assert rc == 0
    for name in ("band.csv", "gaps.csv", "report.json"):
        assert (out / name).stat().st_size > 0
    payload = json.loads((out / "report.json").read_text())
    assert payload["config"]["coupling"] == 0.05
    assert payload["content_hash"]
    assert payload["schedule"]["mode"] == "practical"
    assert payload["report"]["samples"]
    assert payload["report"]["gaps"]
    assert payload["diophantine"]["satisfied"] is True


@pytest.mark.parametrize("audits, floquet", [
    (["increments"], False), (["increments", "floquet"], True)])
def test_run_band_writes_only_its_outputs(tmp_path, audits, floquet):
    cfg = write_config(tmp_path, {"audits": audits,
                                  "floquet_grid": {"count": 5}})
    out = tmp_path / "out"
    assert main(["band", str(cfg), "--output-dir", str(out)]) == 0
    expected = {"band.csv", "gaps.csv", "report.json"}
    if floquet:
        expected.add("floquet.csv")
    assert {f.name for f in out.iterdir()} == expected


def test_export_subcommand_is_gone(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["export", str(tmp_path / "report.json")])
    assert exc.value.code == 2


def test_raising_audit_is_a_failure_and_files_are_written(tmp_path,
                                                          monkeypatch):
    # an audit that raises is listed like a failed gap; the sweep's files
    # are still written
    def broken(*args, **kwargs):
        raise IntegratorFailure("step size underflow")

    monkeypatch.setattr(oracle, "floquet_scan", broken)
    monkeypatch.setattr(band, "gap_spectrum_audit", broken)
    cfg = write_config(tmp_path, {"audits": ["increments", "gap_spectrum",
                                             "floquet"]})
    out = tmp_path / "out"
    assert main(["band", str(cfg), "--output-dir", str(out)]) == 1
    assert {f.name for f in out.iterdir()} == {"band.csv", "gaps.csv",
                                               "report.json"}
    payload = json.loads((out / "report.json").read_text())
    detail = "IntegratorFailure: step size underflow"
    assert payload["failures"] == [
        {"kind": "audit", "name": "gap_spectrum", "detail": detail},
        {"kind": "audit", "name": "floquet", "detail": detail}]
    assert [a["name"] for a in payload["report"]["audits"]] == [
        "scale_increments"]
    assert "floquet_bands" not in payload


def test_failed_k_zero_solve_leaves_e0_null(tmp_path, monkeypatch):
    real = band._ball_fallback

    def no_k_zero(ctx, k):
        if k == 0.0:
            raise NoConvergence(7, 0.5)
        return real(ctx, k)

    monkeypatch.setattr(band, "_ball_fallback", no_k_zero)
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    assert main(["band", str(cfg), "--output-dir", str(out)]) == 0
    assert {f.name for f in out.iterdir()} == {"band.csv", "gaps.csv",
                                               "report.json"}
    payload = json.loads((out / "report.json").read_text())
    assert payload["report"]["E0"] is None
    assert payload["report"]["samples"] and not payload["failures"]


def test_run_band_reads_the_potential_block_once(tmp_path, monkeypatch):
    # the truncation tail comes from the folded coefficients build_context
    # made; a second read would redraw a random_phase potential's phases
    reads = []
    real = cli.from_config
    monkeypatch.setattr(cli, "from_config",
                        lambda *a, **kw: reads.append(a) or real(*a, **kw))
    out = tmp_path / "out"
    assert main(["band", str(write_config(tmp_path)), "--output-dir",
                 str(out)]) == 0
    assert len(reads) == 1
    # cosine n0 = 1 has support radius 1: 2 sum_{r >= 2} exp(-r) is left out
    tail = json.loads((out / "report.json").read_text())[
        "potential_truncation_tail"]
    assert tail == pytest.approx(2 * math.exp(-2) / (1 - math.exp(-1)),
                                 rel=1e-12)


def test_run_band_symmetric_across_resonance(tmp_path):
    # the shipped config on a k grid that crosses k_{-1} = 1/2: the pair
    # route must give E(k) = E(-k) on both sides of the resonance
    with open(ROOT / "configs" / "reference.json", encoding="utf-8") as fh:
        config = json.load(fh)
    config.update({"k_grid": {"min": 0.41, "max": 0.6, "step": 0.02},
                   "gaps": [], "audits": ["symmetry"]})
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "out"
    assert main(["band", str(path), "--output-dir", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())["report"]
    pair_ks = [s["k"] for s in report["samples"] if s["class"] == "OPR"]
    assert min(pair_ks) < 0.5 < max(pair_ks)
    audits = {a["name"]: a for a in report["audits"]}
    for name in ("symmetry", "conjugate_reflection"):
        assert audits[name]["passed"], audits[name]

def test_failed_gap_exits_nonzero_and_reaches_report(tmp_path, capsys):
    # k_m = 0 for m = 0, so that gap raises; the m = -1 gap still runs
    cfg = write_config(tmp_path, {"gaps": [[0], [-1]]})
    out = tmp_path / "out"
    assert main(["band", str(cfg), "--output-dir", str(out)]) == 1
    payload = json.loads((out / "report.json").read_text())
    assert payload["failures"] == [{
        "kind": "gap", "name": "m=[0]",
        "detail": "PreconditionFailed: k_m must be nonzero"}]
    assert [g["m"] for g in payload["report"]["gaps"]] == [[-1]]
    assert "failed gap m=[0]" in capsys.readouterr().err


def test_failed_audit_and_error_sample_exit_nonzero(tmp_path, monkeypatch):
    import hillbands.band as band_mod

    def failing_increments(points):
        return band_mod.AuditRecord(name="increments", passed=False,
                                    checked=len(points), details={})

    monkeypatch.setattr(band_mod, "increment_audit", failing_increments)
    # k = 0.25 is no k_m; there Brent stops unconverged
    real_solve = band_mod.solve_simple

    def solve_simple(matrix, m0):
        if matrix.spec.k != 0.25:
            return real_solve(matrix, m0)
        with monkeypatch.context() as patch:
            patch.setattr(oracle, "brent_root",
                          lambda f, a, b, xtol: (a, 100, False))
            return real_solve(matrix, m0)

    monkeypatch.setattr(band_mod, "solve_simple", solve_simple)
    cfg = write_config(tmp_path, {"k_grid": {"list": [0.1, 0.25]}})
    out = tmp_path / "out"
    assert main(["band", str(cfg), "--output-dir", str(out)]) == 1
    failures = json.loads((out / "report.json").read_text())["failures"]
    assert [(f["kind"], f["name"]) for f in failures] == [
        ("sample", "k=0.25"), ("audit", "increments")]
    assert failures[0]["detail"].startswith("NoConvergence")


def test_report_carries_per_k_numerics(tmp_path):
    # the shipped config on k around k_{-1} = 1/2: simple and pair routes
    with open(ROOT / "configs" / "reference.json", encoding="utf-8") as fh:
        config = json.load(fh)
    config.update({"k_grid": {"list": [0.45, 0.49, 0.51]}, "gaps": [],
                   "audits": ["increments"]})
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "out"
    assert main(["band", str(path), "--output-dir", str(out)]) == 0
    payload = json.loads((out / "report.json").read_text())
    assert payload["failures"] == []
    samples = payload["report"]["samples"]
    assert [s["class"] for s in samples] == ["N", "OPR", "OPR"]
    simple = samples[0]
    assert simple["iterations"] >= 1 and simple["pair"] is None
    assert 0.0 <= simple["residual"] < 1e-10
    for s in samples[1:]:
        pair = s["pair"]
        assert s["iterations"] is None
        assert set(pair) == {"tau0", "abs_beta_minus", "abs_beta_plus",
                             "residual_minus", "residual_plus"}
        assert pair["tau0"] > 0.0
        assert 0.0 <= pair["abs_beta_minus"] <= 1.0
        assert 0.0 <= pair["abs_beta_plus"] <= 1.0
        # the sample's residual is that of the branch it reports
        assert s["residual"] in (pair["residual_minus"], pair["residual_plus"])
        assert max(pair["residual_minus"], pair["residual_plus"]) < 1e-10
    # band.csv keeps its four columns
    assert (out / "band.csv").read_text().splitlines()[0] == "k,E,scale,class"


def test_run_band_free_case_matches_parabola(tmp_path):
    cfg = write_config(tmp_path, {"coupling": 0.0, "gaps": []})
    out = tmp_path / "out"
    assert main(["band", str(cfg), "--output-dir", str(out)]) == 0
    lines = (out / "band.csv").read_text().strip().splitlines()
    assert lines[0] == "k,E,scale,class"
    for line in lines[1:]:
        k, E, scale, klass = line.split(",")
        assert float(E) == pytest.approx((2 * math.pi) ** 2 * float(k) ** 2,
                                         abs=1e-12)


def test_run_band_deterministic(tmp_path):
    cfg = write_config(tmp_path)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["band", str(cfg), "--output-dir", str(out1)]) == 0
    assert main(["band", str(cfg), "--output-dir", str(out2)]) == 0
    assert (out1 / "report.json").read_bytes() == \
        (out2 / "report.json").read_bytes()
    assert (out1 / "band.csv").read_bytes() == (out2 / "band.csv").read_bytes()


def test_gaps_csv_header_only_when_no_gaps(tmp_path):
    cfg = write_config(tmp_path, {"gaps": []})
    out = tmp_path / "out"
    assert main(["band", str(cfg), "--output-dir", str(out)]) == 0
    lines = (out / "gaps.csv").read_text().strip().splitlines()
    assert lines == ["m,k_m,E_minus,E_plus,width,bound"]


def test_config_error_exit_code(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["band", str(bad)]) == 2
    missing = write_config(tmp_path, {"coupling": None})
    assert main(["band", str(missing)]) == 2


def test_grid_of_resonance_momenta_is_a_config_error(tmp_path, capsys):
    # 0.5 and 1.0 are k_m, which band_curve drops: no sample would be left
    cfg = write_config(tmp_path, {"k_grid": {"list": [0.5, 1.0]},
                                  "gaps": []})
    out = tmp_path / "out"
    assert main(["band", str(cfg), "--output-dir", str(out)]) == 2
    assert not out.exists()
    assert "[0.5, 1.0]" in capsys.readouterr().err


@pytest.mark.parametrize("overrides", [
    {"coupling": math.nan},
    {"coupling": math.inf},
    {"k_grid": {"list": [math.nan, 0.11]}},
    {"k_grid": {"list": [0.11, "abc"]}},
    {"k_grid": {"min": -math.inf, "max": 0.2, "step": 0.05}},
    {"k_grid": {"min": 0.05, "max": 0.2, "step": 0}},
    {"audits": ["floquet"], "floquet_grid": {"count": 1}},
    {"audits": ["floquet"], "floquet_grid": {"max": "abc"}},
    {"audits": ["floquet"], "floquet_grid": {"max": math.nan}},
])
def test_nonfinite_inputs_are_config_errors(tmp_path, overrides):
    cfg = write_config(tmp_path, overrides)
    out = tmp_path / "out"
    assert main(["band", str(cfg), "--output-dir", str(out)]) == 2
    assert not out.exists()
    if "k_grid" in overrides:
        assert main(["verify", str(cfg), "--suite", "band"]) == 2


@pytest.mark.parametrize("grid", [
    {"min": 0.45, "max": 0.05, "step": 0.02},
    {"min": 0.05, "max": 0.45, "step": -0.02},
])
def test_k_grid_of_the_wrong_direction_is_a_config_error(tmp_path, capsys,
                                                         grid):
    cfg = write_config(tmp_path, {"k_grid": grid})
    out = tmp_path / "out"
    assert main(["band", str(cfg), "--output-dir", str(out)]) == 2
    err = capsys.readouterr().err
    assert (f"min={grid['min']!r}, max={grid['max']!r}, "
            f"step={grid['step']!r}") in err
    assert "k_m is dropped" not in err


def test_k_grid_point_cap():
    # a count just above the cap; a tiny step would otherwise build an
    # unbounded list
    cap = {"min": 0.0, "step": 1.0}
    assert len(k_grid_from({"k_grid": dict(cap, max=K_GRID_MAX_POINTS - 1.0)})) \
        == K_GRID_MAX_POINTS
    with pytest.raises(ConfigError, match="must give 1 to"):
        k_grid_from({"k_grid": dict(cap, max=float(K_GRID_MAX_POINTS))})
    with pytest.raises(ConfigError, match="must give 1 to"):
        k_grid_from({"k_grid": {"min": -1e308, "max": 1e308, "step": 1.0}})


def test_run_band_floquet_outputs(tmp_path):
    cfg = write_config(tmp_path, {
        "audits": ["floquet"],
        "floquet_grid": {"min": 0.5, "max": 25.0, "count": 12},
    })
    out = tmp_path / "out"
    assert main(["band", str(cfg), "--output-dir", str(out)]) == 0
    payload = json.loads((out / "report.json").read_text())
    assert payload["floquet_bands"]
    assert 0.0 <= payload["floquet_wronskian_drift"] <= 1e-9
    rows = (out / "floquet.csv").read_text().strip().splitlines()
    assert rows[0] == "E,Delta" and len(rows) == 13
    assert rows[1].split(",")[0] == "0.5" and rows[-1].split(",")[0] == "25.0"


def test_output_dir_env_override(tmp_path, monkeypatch):
    cfg = write_config(tmp_path)
    target = tmp_path / "env_out"
    monkeypatch.setenv("HILLBANDS_OUTDIR", str(target))
    assert main(["band", str(cfg)]) == 0
    assert (target / "report.json").exists()


def test_two_dimensional_lattice_run(tmp_path):
    cfg = write_config(tmp_path, {
        "lattice": {"nu": 2, "omega": ["1/2", "1/2"]},
        "potential": {"kind": "multi_cosine", "kappa0": 0.5, "alpha0": 1.0,
                      "modes": [{"n": [1, 0], "amplitude": 0.25},
                                {"n": [0, 1], "amplitude": 0.25}]},
        "diophantine": {"a0": 0.4, "b0": 3.0, "Rbar0": 6},
        "truncation_R": 6,
        "gaps": [[-1, 0]],
        "k_grid": {"min": 0.05, "max": 0.15, "step": 0.05},
    })
    out = tmp_path / "out2"
    assert main(["band", str(cfg), "--output-dir", str(out)]) == 0
    payload = json.loads((out / "report.json").read_text())
    assert all(a["passed"] for a in payload["report"]["audits"])
    assert payload["report"]["gaps"][0]["k_m"] == 0.25


def test_retired_threads_flag_accepts_only_one(tmp_path):
    # scripts still pass --threads 1: the run is the same, byte for byte, as
    # a rerun without the flag; any other count is a usage error
    cfg = write_config(tmp_path)
    out1, out2 = tmp_path / "t1", tmp_path / "t2"
    assert main(["--threads", "1", "band", str(cfg),
                 "--output-dir", str(out1)]) == 0
    assert main(["band", str(cfg), "--output-dir", str(out2)]) == 0
    for name in ("band.csv", "gaps.csv", "report.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
    with pytest.raises(SystemExit) as exc:
        main(["--threads", "2", "band", str(cfg)])
    assert exc.value.code == 2


def test_unknown_audit_name_is_a_config_error(tmp_path, monkeypatch):
    from hillbands import band

    def no_samples(*args, **kwargs):
        raise AssertionError("a sample was computed")

    monkeypatch.setattr(band, "compute_point", no_samples)
    cfg = write_config(tmp_path, {"audits": ["symmetry", "symetry"]})
    out = tmp_path / "out"
    assert main(["band", str(cfg), "--output-dir", str(out)]) == 2
    with pytest.raises(ConfigError, match="symetry") as exc:
        run_band(json.loads(cfg.read_text()), str(out))
    for name in ("symmetry", "monotonicity", "increments", "decay",
                 "gap_spectrum", "gap_edge_limits", "floquet"):
        assert repr(name) in str(exc.value)
    cfg = write_config(tmp_path, {"audits": "symmetry"})
    with pytest.raises(ConfigError, match="must be a list"):
        run_band(json.loads(cfg.read_text()), str(out))
    assert not out.exists()


RESONANT_2D = {
    "lattice": {"nu": 2, "omega": ["1", "3/7"]},
    "potential": {"kind": "cosine", "n0": [1, 0]},
    "diophantine": {"a0": 0.4, "b0": 3.0, "Rbar0": 6},
    "truncation_R": 6,
    "gaps": [[0, 1]],
}


@pytest.mark.parametrize("overrides, message", [
    # a potential or a gap of the wrong dimension
    (dict(RESONANT_2D, potential={"kind": "cosine", "n0": [1]}), "nu = 2"),
    (dict(RESONANT_2D, gaps=[[0, 1], [1]]), "nu = 2"),
    ({"gaps": [[-1, 0]]}, "nu = 1"),
    # a diophantine block with a key missing or a precondition failed
    ({"diophantine": {"a0": 0.5}}, "'b0'"),
    ({"diophantine": {"a0": 0.5, "b0": 2.0}}, "'Rbar0'"),
    ({"diophantine": {"a0": 0.5, "b0": 1.0, "Rbar0": 8}}, "b0 > nu"),
    ({"diophantine": {"a0": 2.0, "b0": 2.0, "Rbar0": 8}}, "0 < a0 < 1"),
    # a gap whose box overflows int64, a lattice.nu other than len(omega)
    ({"gaps": [[10000000000000000000]]}, "overflow int64"),
    ({"lattice": {"nu": 2, "omega": ["1"]}},
     "lattice.nu does not match omega length"),
], ids=["potential_nu", "gap_short", "gap_long", "no_b0", "no_Rbar0",
        "b0_le_nu", "a0_ge_1", "gap_overflow", "lattice_nu"])
def test_bad_block_is_a_config_error_before_any_sample(
        tmp_path, monkeypatch, capsys, overrides, message):
    from hillbands import band

    def no_samples(*args, **kwargs):
        raise AssertionError("a sample was computed")

    monkeypatch.setattr(band, "compute_point", no_samples)
    cfg = write_config(tmp_path, overrides)
    out = tmp_path / "out"
    assert main(["band", str(cfg), "--output-dir", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def _explicit(c_plus, c_minus):
    return {"kind": "explicit", "coefficients": [
        {"n": [1], "re": c_plus}, {"n": [-1], "re": c_minus}]}


@pytest.mark.parametrize("overrides, message", [
    ({"schedule": dict(BASE_CONFIG["schedule"], beta=1.5)}, "beta in (0,1)"),
    ({"schedule": dict(BASE_CONFIG["schedule"], R1=2.0)}, "R1 > e"),
    ({"mode": "bogus"}, "unknown mode 'bogus'"),
    ({"potential": _explicit(0.9, 0.9)}, "decay bound fails at n=(1,)"),
    ({"potential": _explicit(0.3, 0.2)}, "conjugate symmetry fails"),
], ids=["beta", "R1", "mode", "raw_decay", "conjugate_symmetry"])
def test_bad_schedule_or_potential_is_a_config_error_before_any_sample(
        tmp_path, monkeypatch, capsys, overrides, message):
    def no_samples(*args, **kwargs):
        raise AssertionError("a sample was computed")

    monkeypatch.setattr(band, "compute_point", no_samples)
    cfg = write_config(tmp_path, overrides)
    out = tmp_path / "out"
    assert main(["band", str(cfg), "--output-dir", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("config error:")
    assert message in err[0]
    assert not out.exists()
    assert main(["verify", str(cfg), "--suite", "band"]) == 2


def test_folded_decay_violation_is_a_config_error(tmp_path, capsys):
    # on omega = (1, 1) the modes (1, 0) and (0, 1) fold onto one coset:
    # |c| = 0.72 > e^-1 there and on its mirror, though each raw c(n) = 0.36
    # stays below the bound
    cfg = write_config(tmp_path, {
        "lattice": {"nu": 2, "omega": ["1", "1"]},
        "potential": {"kind": "multi_cosine", "kappa0": 1.0, "alpha0": 1.0,
                      "modes": [{"n": [1, 0], "amplitude": 0.36},
                                {"n": [0, 1], "amplitude": 0.36}]},
        "diophantine": None, "gaps": [], "k_grid": {"list": [0.11, 0.31]}})
    out = tmp_path / "out"
    assert main(["band", str(cfg), "--output-dir", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("config error:")
    assert "folded decay bound fails at [-1,0]: |c| = 7.200e-01" in err[0]
    assert "folded decay bound fails at [0,1]: |c| = 7.200e-01" in err[0]
    assert not out.exists()


def test_strict_mode_run(tmp_path):
    # strict beta = 1/(32 b0); worst-case eps0 underflows but is reported in
    # log space; the sweep itself still runs on the coupling from the config
    cfg = write_config(tmp_path, {
        "mode": "strict",
        "schedule": {"R1": 250.0, "s_max": 1, "s_cap": 1},
        "k_grid": {"list": [0.11, 0.31]},
        "gaps": [],
        "audits": ["increments"],
    })
    out = tmp_path / "strict_out"
    assert main(["band", str(cfg), "--output-dir", str(out)]) == 0
    payload = json.loads((out / "report.json").read_text())
    sched = payload["schedule"]
    assert sched["beta"] == pytest.approx(1.0 / 64.0)
    assert sched["eps0"] == 0.0 and sched["log_eps0"] < -1e5
    assert sched["strict_delta_condition_ok"] is True
    assert all(s["E"] is not None for s in payload["report"]["samples"])


def test_check_failure_escaping_run_band_exits_1(tmp_path, monkeypatch,
                                                 capsys):
    def raises(*args, **kwargs):
        raise HypothesisFailed("band curve", "injected")

    monkeypatch.setattr(band, "band_curve", raises)
    cfg = write_config(tmp_path)
    assert main(["band", str(cfg), "--output-dir", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err == ("check failure: hypothesis (band curve) failed: "
                   "injected\n")


def test_verify_subcommand_exit_codes():
    assert main(["verify", "--suite", "schur"]) == 0


@pytest.mark.parametrize("suite", ["weights", "dichotomy", "cff"])
def test_verify_output_matches_golden(suite, capsys):
    # the stdout of these suites, byte for byte, as committed under
    # tests/golden/: the brute-force lemma checks keep their exact results
    assert main(["verify", "--suite", suite]) == 0
    golden = (ROOT / "tests" / "golden" / f"verify_{suite}.txt").read_text()
    assert capsys.readouterr().out == golden


def test_reference_run_matches_golden(tmp_path):
    # the four files of configs/reference.json, byte for byte, as committed
    # under tests/golden/reference/: a change that keeps the results keeps
    # every digit of them
    config = cli.load_config(ROOT / "configs" / "reference.json")
    outdir, failures = run_band(config, str(tmp_path))
    assert failures == []
    golden = ROOT / "tests" / "golden" / "reference"
    names = sorted(p.name for p in golden.iterdir())
    assert names == ["band.csv", "floquet.csv", "gaps.csv", "report.json"]
    assert sorted(p.name for p in outdir.iterdir()) == names
    for name in names:
        assert (outdir / name).read_bytes() == (golden / name).read_bytes(), \
            name


@pytest.mark.parametrize("suite", ["band", "floquet"])
def test_verify_subcommand_with_config(tmp_path, suite):
    # coupling 0.02, not the 0.05 of the built-in context: the floquet gap
    # edges agree with the dual matrix's only if both read the config's
    cfg = write_config(tmp_path, {"coupling": 0.02})
    assert main(["verify", str(cfg), "--suite", suite]) == 0


def test_verify_floquet_checks_the_first_gap_of_the_config(tmp_path):
    # nu = 2: the built-in toy's m = -1 is no element of this lattice; the
    # cosine at n0 = (1, 0) opens the gap at m = (1, 0) to first order
    cfg = write_config(tmp_path, dict(RESONANT_2D, gaps=[[1, 0], [0, 1]]))
    assert main(["verify", str(cfg), "--suite", "floquet"]) == 0
    no_gaps = write_config(tmp_path, dict(RESONANT_2D, gaps=[]))
    assert main(["verify", str(no_gaps), "--suite", "floquet"]) == 2


def test_console_script_help():
    proc = subprocess.run([sys.executable, "-m", "hillbands.cli", "--help"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "band" in proc.stdout and "verify" in proc.stdout
    assert "--threads" not in proc.stdout


def test_decay_fit_is_the_decay_audit_rate(tmp_path):
    # with the decay audit each sample carries its audit's fitted rate;
    # without it every decay_fit is null
    for audits in (["decay"], ["increments"]):
        cfg = write_config(tmp_path, {"audits": audits, "gaps": []})
        out = tmp_path / audits[0]
        main(["band", str(cfg), "--output-dir", str(out)])
        report = json.loads((out / "report.json").read_text())["report"]
        fits = [s["decay_fit"] for s in report["samples"]]
        rates = [a["details"]["fitted_rate"] for a in report["audits"]
                 if a["name"] == "decay"]
        if audits == ["decay"]:
            assert fits == rates and all(f is not None for f in fits)
        else:
            assert rates == [] and fits == [None] * len(fits)


def test_a_raising_suite_is_one_failed_check_and_the_rest_still_run(
        tmp_path, capsys):
    # at kappa0 = 0.5 the cosine's (0, 1) gap is too narrow for the Floquet
    # brackets of suite floquet, and floquet_gap_edges raises
    # PreconditionFailed: that suite ends in one FAIL line after the check it
    # had passed, every other suite still prints its checks, and the exit
    # code stays 1
    cfg = write_config(tmp_path, dict(
        RESONANT_2D, potential={"kind": "cosine", "n0": [1, 0],
                                "kappa0": 0.5}))
    assert main(["verify", str(cfg), "--suite", "all"]) == 1
    lines = capsys.readouterr().out.splitlines()
    failed = [line for line in lines if line.startswith("[FAIL]")]
    assert failed == [line for line in lines
                      if line.startswith("[FAIL] floquet/raised ")]
    assert len(failed) == 1 and "PreconditionFailed: bracket" in failed[0]
    passed = [line for line in lines if line.startswith("[PASS]")]
    assert {line.split()[1].split("/")[0] for line in passed} == {
        "weights", "schur", "dichotomy", "cff", "domains", "band", "floquet"}
    floquet = [line for line in lines if " floquet/" in line]
    assert [line.split()[1] for line in floquet] == [
        "floquet/free-equation", "floquet/raised"]
    assert lines[-1] == "17/18 checks passed"


def test_a_raising_suite_keeps_the_checks_it_made_before(monkeypatch):
    def suite(out):
        out.append(verify.CheckResult("toy", "first", True))
        raise NoConvergence(3, 0.5)

    monkeypatch.setitem(verify.SUITES, "toy", suite)
    results = verify.run_suite("toy")
    assert [(r.name, r.passed) for r in results] == [("first", True),
                                                    ("raised", False)]
    assert results[1].detail.startswith("NoConvergence: ")
