"""Correctness gate, run after the timed repetitions and outside them.

Every operation the benchmark attempts becomes one ``Op``; the failed share of
them is ``fail_frac``. Operations of a band run:

- each k sample of report.json (fails when its class is ``error``);
- each requested gap (fails when report.json has no gap for that m);
- each audit record (fails when ``passed`` is false);
- each dense-oracle recheck: E lies within ``DENSE_TOL`` * ||H|| of the nearest
  eigenvalue of ``oracle.dense_spectrum`` on the ball B(2 R^(1)) at that k;
- each output file, which must be byte-identical across the repetitions.

A verify run has one operation per printed check and one for its printed lines
being identical across repetitions. ``correct`` is false only when a check the
benchmark makes itself fails (identity, dense oracle, missing output, an exit
code other than 0 or 1); the program's own verdicts count in ``failed`` only.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

BAND_OUTPUTS = ("band.csv", "gaps.csv", "report.json")
DENSE_TOL = 1e-8


@dataclass
class Op:
    kind: str
    name: str
    ok: bool
    own_check: bool = False        # made by the benchmark, not the program


@dataclass
class GateResult:
    ops: list[Op] = field(default_factory=list)

    def add(self, kind: str, name: str, ok: bool, own_check: bool = False) -> None:
        self.ops.append(Op(kind, name, bool(ok), own_check))

    @property
    def attempted(self) -> int:
        return len(self.ops)

    @property
    def failed(self) -> list[Op]:
        return [op for op in self.ops if not op.ok]

    @property
    def correct(self) -> bool:
        return bool(self.ops) and not any(op.own_check for op in self.failed)


def _digest(path: Path) -> str | None:
    try:
        return hashlib.sha256(path.read_bytes()).hexdigest()
    except OSError:
        return None


def check_band(config: dict, rep_dirs: list[Path], codes: list[int]) -> GateResult:
    from hillbands.cli import build_context
    from hillbands.operators import assemble
    from hillbands.oracle import dense_spectrum

    gate = GateResult()
    gate.add("exit", "exit codes 0 or 1", all(c in (0, 1) for c in codes), True)
    for name in BAND_OUTPUTS:
        digests = {_digest(d / name) for d in rep_dirs}
        gate.add("identical", name, len(digests) == 1 and None not in digests,
                 True)
    try:
        with open(rep_dirs[0] / "report.json", encoding="utf-8") as fh:
            report = json.load(fh)["report"]
    except (OSError, ValueError, KeyError):
        gate.add("output", "report.json readable", False, True)
        return gate

    for s in report["samples"]:
        gate.add("sample", f"k={s['k']!r}", s["class"] != "error")

    ctx = build_context(config)
    present = {tuple(g["m"]) for g in report["gaps"]}
    for m in config.get("gaps", []):
        rep = ctx.lat.canonicalize([int(v) for v in m]).rep
        gate.add("gap", f"m={list(m)}", tuple(rep) in present)

    for a in report["audits"]:
        gate.add("audit", a["name"], a["passed"])

    ball = ctx.lat.ball(2.0 * ctx.schedule.R[1])
    for s in report["samples"]:
        if s["E"] is None:
            continue
        matrix = assemble(ball, ctx.spec(s["k"]), ctx.folded, ctx.lat)
        w, _ = dense_spectrum(matrix)
        err = float(min(abs(w - s["E"]))) / matrix.norm_bound()
        gate.add("dense", f"k={s['k']!r} rel_err={err:.2e}", err <= DENSE_TOL,
                 True)
    return gate


def check_verify(outputs: list[str], codes: list[int]) -> GateResult:
    gate = GateResult()
    lines = [ln for ln in outputs[0].splitlines()
             if ln.startswith(("[PASS]", "[FAIL]"))]
    failed_any = any(ln.startswith("[FAIL]") for ln in lines)
    gate.add("exit", "exit code 1 exactly when a check fails",
             all(c == (1 if failed_any else 0) for c in codes), True)
    gate.add("identical", "verify output", len(set(outputs)) == 1 and bool(lines),
             True)
    for ln in lines:
        gate.add("check", ln.split(" ")[1], ln.startswith("[PASS]"))
    return gate
