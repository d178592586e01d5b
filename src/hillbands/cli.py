"""Command-line entry points: band sweeps and verification suites.

Config is a single JSON file; frequency rationals are "p/q" strings so
exactness survives parsing. Reports embed the config, the schedule and a
content hash of the inputs; identical config + seed reproduces byte-identical
report.json. Exit codes: 0 ok, 1 check failure (for ``band``: a failed
gap, sample or audit, each listed under ``failures`` in report.json),
2 config error.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import sys
from pathlib import Path

from . import band as band_mod
from . import oracle
from .errors import (ConfigError, HillbandsError, PreconditionFailed,
                     ValidationFailed)
from .lattice import FrequencyVector, QuotientLattice, check_diophantine
from .potential import fold, from_config
from .scales import build_schedule
from .verify import SUITES, run_suite

OUTPUT_DIR_ENV = "HILLBANDS_OUTDIR"
# most points a k_grid min/max/step range may expand to; the shipped configs
# use 21
K_GRID_MAX_POINTS = 100_000
# the names a config's "audits" list may hold
AUDITS = ("symmetry", "monotonicity", "increments", "decay", "gap_spectrum",
          "gap_edge_limits", "floquet")


def load_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}")


def content_hash(config: dict) -> str:
    blob = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def _json_default(obj):
    """Numpy scalars and exact rationals that sneak into audit payloads."""
    import numpy as np
    from fractions import Fraction

    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, Fraction):
        return str(obj)
    raise TypeError(f"not JSON serializable: {type(obj).__name__}")


def build_context(config: dict) -> band_mod.BandContext:
    try:
        lat_cfg = config["lattice"]
        omega = FrequencyVector.parse(lat_cfg["omega"])
        if int(lat_cfg.get("nu", omega.nu)) != omega.nu:
            raise ConfigError("lattice.nu does not match omega length")
        lat = QuotientLattice(omega)
        coeffs = from_config(config["potential"], nu=omega.nu)
        folded = fold(coeffs, lat)
        sched_cfg = config.get("schedule", {})
        dio = config.get("diophantine")
        a0, b0 = (dio["a0"], dio["b0"]) if dio else (0.5, 2.0)
        schedule = build_schedule(
            config.get("mode", "practical"),
            s_max=int(sched_cfg.get("s_max", 2)),
            R1=float(sched_cfg.get("R1", 12.0)),
            beta=sched_cfg.get("beta"),
            a0=float(a0), b0=float(b0),
            kappa0=coeffs.kappa0, alpha0=coeffs.alpha0, nu=omega.nu,
            eps0=sched_cfg.get("eps0"),
            sigma_scale=float(sched_cfg.get("sigma_scale", 1.0)),
        )
        return band_mod.BandContext(
            lat=lat, folded=folded, schedule=schedule,
            eps=_finite(config["coupling"], "coupling"),
            truncation_R=float(config.get("truncation_R", 12.0)),
            s_cap=int(sched_cfg.get("s_cap", 1)),
            use_domains=bool(config.get("use_domains", False)),
        )
    except KeyError as exc:
        raise ConfigError(f"missing config key: {exc}")
    except (PreconditionFailed, ValidationFailed, TypeError,
            ValueError) as exc:
        raise ConfigError(f"invalid config value: {exc}")


def _finite(value, name: str) -> float:
    """float(value), rejecting NaN and infinities with a ConfigError."""
    try:
        x = float(value)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid {name}: {exc}")
    if not math.isfinite(x):
        raise ConfigError(f"{name} must be finite, got {value!r}")
    return x


def k_grid_from(config: dict) -> list[float]:
    kg = config.get("k_grid", {})
    if "list" in kg:
        return [_finite(x, "k_grid.list entry") for x in kg["list"]]
    lo = _finite(kg.get("min", 0.05), "k_grid.min")
    hi = _finite(kg.get("max", 0.45), "k_grid.max")
    step = _finite(kg.get("step", 0.01), "k_grid.step")
    if step == 0:
        raise ConfigError("k_grid.step must be nonzero")
    ratio = (hi - lo) / step
    count = int(round(ratio)) + 1 if math.isfinite(ratio) else 0
    if not 1 <= count <= K_GRID_MAX_POINTS:
        raise ConfigError(
            f"k_grid min={lo!r}, max={hi!r}, step={step!r} must give 1 to "
            f"{K_GRID_MAX_POINTS} points: max - min and step of one sign")
    return [lo + i * step for i in range(count)]


def floquet_grid_from(config: dict) -> list[float]:
    """The Floquet scan's energies: count >= 2 equispaced points on [min, max]."""
    fg = config.get("floquet_grid", {})
    lo = _finite(fg.get("min", 0.5), "floquet_grid.min")
    hi = _finite(fg.get("max", 30.0), "floquet_grid.max")
    count = _finite(fg.get("count", 120), "floquet_grid.count")
    if count != int(count) or count < 2:
        raise ConfigError(
            f"floquet_grid.count must be an integer >= 2, got {fg.get('count')!r}")
    if not lo < hi:
        raise ConfigError(f"floquet_grid needs min < max, got {lo!r}, {hi!r}")
    count = int(count)
    return [lo + i * (hi - lo) / (count - 1) for i in range(count)]


def gaps_from(config: dict, lat: QuotientLattice) -> list[tuple]:
    """(entry, canonical element) for each ``gaps`` entry of the config."""
    try:
        return [(mvec, lat.canonicalize([int(v) for v in mvec]))
                for mvec in config.get("gaps", [])]
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"invalid config value: {exc}")


def output_dir(config: dict, override: str | None) -> Path:
    env = os.environ.get(OUTPUT_DIR_ENV)
    path = Path(override or env or config.get("output_dir", "out"))
    path.mkdir(parents=True, exist_ok=True)
    return path


def _write_csv(path: Path, header, rows) -> None:
    """One CSV file: the header row, then the rows."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def run_band(config: dict,
             out_override: str | None = None) -> tuple[Path, list[dict]]:
    """Full sweep: band.csv, gaps.csv, report.json under the output dir, and
    floquet.csv with the ``floquet`` audit.

    Returns the output dir and the run's failures, which report.json lists
    too: each requested gap that raised, each sample of class ``error``,
    each audit that did not pass and each audit that raised; the files are
    written all the same. An invalid schedule or potential (a folded decay
    violation included), a bad ``diophantine`` block or ``gaps`` entry, an
    ``audits`` entry outside AUDITS, a bad ``k_grid`` or ``floquet_grid``,
    or a grid of which band_curve keeps no k, raises ConfigError before the
    output dir is made.
    The diophantine check runs on the schedule's a0 and b0.
    """
    ctx = build_context(config)
    dio = config.get("diophantine")
    try:
        dio_check = check_diophantine(
            ctx.lat, ctx.schedule.a0, ctx.schedule.b0,
            _finite(dio["Rbar0"], "diophantine.Rbar0")) if dio else None
    except KeyError as exc:
        raise ConfigError(f"missing config key: {exc}")
    except (PreconditionFailed, TypeError, ValueError) as exc:
        raise ConfigError(f"invalid config value: {exc}")
    gap_modes = gaps_from(config, ctx.lat)
    audit_names = config.get("audits", ["symmetry", "monotonicity",
                                        "increments"])
    if not isinstance(audit_names, list):
        raise ConfigError(f"audits must be a list, got {audit_names!r}")
    unknown = [name for name in audit_names if name not in AUDITS]
    if unknown:
        raise ConfigError(f"unknown audits {unknown}: the known ones are "
                          f"{list(AUDITS)}")
    k_grid = k_grid_from(config)
    floquet_grid = (floquet_grid_from(config) if "floquet" in audit_names
                    else None)
    points = band_mod.band_curve(ctx, k_grid)
    if not points:
        raise ConfigError(f"no k of k_grid is left: every k within 1e-12 of "
                          f"a k_m is dropped, here {k_grid}")
    outdir = output_dir(config, out_override)

    gaps = []
    failures = []
    for mvec, m in gap_modes:
        try:
            gaps.append(band_mod.gap_edges(ctx, m))
        except HillbandsError as exc:
            failures.append({"kind": "gap", "name": f"m={list(mvec)}",
                             "detail": f"{type(exc).__name__}: {exc}"})

    failures += [{"kind": "sample", "name": f"k={p.k!r}", "detail": p.error}
                 for p in points if p.klass == "error"]

    audits = []
    floquet_data = None
    for name in (a for a in AUDITS if a in audit_names):
        try:
            if name == "symmetry":
                neg = band_mod.band_curve(ctx, [-p.k for p in points])
                audits.append(band_mod.symmetry_audit(points, neg))
                audits.append(band_mod.conjugate_reflection_audit(points, neg))
            elif name == "monotonicity":
                audits.append(band_mod.monotonicity_audit(ctx, points))
            elif name == "increments":
                audits.append(band_mod.increment_audit(points))
            elif name == "decay":
                for p in points:
                    if p.phi is not None:
                        rec = band_mod.decay_audit(ctx, p, mode="practical")
                        p.decay_fit = rec.details.get("fitted_rate")
                        audits.append(rec)
            elif name == "gap_spectrum":
                for g in gaps:
                    audits.append(band_mod.gap_spectrum_audit(ctx, g))
            elif name == "gap_edge_limits":
                theta = 0.25 * ctx.schedule.delta[max(1, ctx.s_cap)] ** 0.75
                for g in gaps:
                    audits.append(
                        band_mod.gap_edge_limit_crosscheck(ctx, g, theta))
            else:
                floquet_data = oracle.floquet_scan(
                    floquet_grid, ctx.eps, ctx.folded,
                    oracle.period(ctx.lat.omega))
        except HillbandsError as exc:
            failures.append({"kind": "audit", "name": name,
                             "detail": f"{type(exc).__name__}: {exc}"})

    try:
        e0_point = band_mod._ball_fallback(ctx, 0.0)
        E0 = e0_point.E
    except HillbandsError:
        E0 = None

    dio_report = None
    if dio_check is not None:
        dio_report = {
            "satisfied": dio_check.satisfied,
            "box_condition_ok": dio_check.box_condition_ok,
            "worst_margin": None if dio_check.worst_pair is None
            else dio_check.worst_pair[1],
            "checked": dio_check.checked_count,
        }

    k_n0_ref = abs(gaps[0].k_m) if gaps else 0.5
    report_rows = {
        "samples": [p.to_dict() for p in points],
        "gaps": [g.to_dict() for g in gaps],
        "E0": E0,
        "audits": [a.to_dict() for a in audits],
        "kzero_variants": band_mod.k_zero_variants(
            k=max((p.k for p in points), default=1.0),
            k1=min((p.k for p in points), default=0.0),
            k_n0=k_n0_ref, eps0=ctx.schedule.eps0),
    }
    failures += [{"kind": "audit", "name": a.name, "detail": ""}
                 for a in audits if not a.passed]
    payload = {
        "config": config,
        "content_hash": content_hash(config),
        "schedule": ctx.schedule.to_dict(),
        "diophantine": dio_report,
        "potential_truncation_tail":
            ctx.folded.truncation_tail_bound(ctx.lat.nu),
        "report": report_rows,
        "failures": failures,
    }
    if floquet_data is not None:
        payload["floquet_bands"] = [list(b) for b in floquet_data.bands]
        payload["floquet_wronskian_drift"] = floquet_data.wronskian_drift
        _write_csv(outdir / "floquet.csv", ["E", "Delta"],
                   ([repr(E), repr(d)] for E, d in
                    zip(floquet_data.E_grid, floquet_data.discriminant)))
    _write_csv(outdir / "band.csv", ["k", "E", "scale", "class"],
               ([repr(s["k"]), "" if s["E"] is None else repr(s["E"]),
                 s["scale"], s["class"]] for s in report_rows["samples"]))
    _write_csv(outdir / "gaps.csv",
               ["m", "k_m", "E_minus", "E_plus", "width", "bound"],
               ([";".join(str(v) for v in g["m"]), repr(g["k_m"]),
                 repr(g["E_minus"]), repr(g["E_plus"]),
                 repr(g["width"]), repr(g["bound"])]
                for g in report_rows["gaps"]))
    with open(outdir / "report.json", "w", encoding="utf-8") as fh:
        json.dump(payload, fh, sort_keys=True, indent=1, default=_json_default)
        fh.write("\n")
    return outdir, failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="hillbands",
        description="Band-gap toolkit for operators dual to Hill's equation",
    )
    # retired: the per-k work runs on one thread; 1 stays accepted because
    # scripts pass it
    parser.add_argument("--threads", type=int, choices=[1], default=1,
                        help=argparse.SUPPRESS)
    sub = parser.add_subparsers(dest="command", required=True)

    p_band = sub.add_parser("band", help="run a band sweep from a config file")
    p_band.add_argument("config")
    p_band.add_argument("--output-dir", default=None)

    p_verify = sub.add_parser("verify", help="run a verification suite")
    p_verify.add_argument("config", nargs="?", default=None,
                          help="optional config (suites use built-in toys)")
    p_verify.add_argument("--suite", default="all",
                          choices=[*SUITES, "all"])

    args = parser.parse_args(argv)
    try:
        if args.command == "band":
            config = load_config(args.config)
            outdir, failures = run_band(config, args.output_dir)
            print(f"wrote {outdir / 'band.csv'}, {outdir / 'gaps.csv'}, "
                  f"{outdir / 'report.json'}")
            for f in failures:
                detail = f": {f['detail']}" if f["detail"] else ""
                print(f"failed {f['kind']} {f['name']}{detail}", file=sys.stderr)
            return 1 if failures else 0
        if args.command == "verify":
            config = load_config(args.config) if args.config else None
            results = run_suite(args.suite, config)
            for r in results:
                print(r.line())
            failed = [r for r in results if not r.passed]
            print(f"{len(results) - len(failed)}/{len(results)} checks passed")
            return 1 if failed else 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except HillbandsError as exc:
        print(f"check failure: {exc}", file=sys.stderr)
        return 1
    return 2


if __name__ == "__main__":
    sys.exit(main())
