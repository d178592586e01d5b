"""Benchmark of the hillbands CLI: ``hillbands band`` and ``hillbands verify``.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (``src/hillbands`` must exist). Each
repetition runs in a fresh interpreter (child.py), with the CLI's own
defaults, until S seconds have passed. The correctness gate (gate.py) runs
afterwards, outside the timed region. The last line of stdout is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``; with
``--trace 0`` the metrics are the end-to-end ones, with ``--trace 1`` the
per-layer ones of a traced repetition. ``--workload all`` runs the four
workloads in turn. A record with the environment, every sample and every
failed operation is written to ``.perfbench/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import gate  # noqa: E402
import workloads  # noqa: E402

MIN_REPS = 3            # full repetitions per run, whatever --seconds says
MIN_SETUPS = 7          # set-up samples per run; set-up-only launches fill up
HARD_LIMIT_S = 165.0    # a run must end well inside 180 s
# One OpenBLAS thread in the children. Idle OpenBLAS workers spin on the
# second core; with both cores busy this VM's CPU quota stalls the main thread
# for tens of milliseconds at a time (see README.md).
CHILD_ENV = {"OPENBLAS_NUM_THREADS": "1"}


END_TO_END_UNITS = {"run_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
                    "ok_frac": "ratio"}


def git_commit(root: Path) -> str:
    """HEAD of the checkout read from .git, without running git (which would
    search the parent directories when the checkout is not a repository)."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split(" ")[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment(root: Path, seed: int) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "commit": git_commit(root),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}: "
                f"{blas.get('openblas configuration', '')}",
        "thread_env": {k: v for k, v in dict(os.environ, **CHILD_ENV).items()
                       if k.endswith("_NUM_THREADS")},
        # the default of `hillbands --threads`; the benchmark passes 1
        "cli_threads_default": max(1, os.cpu_count() or 1),
        "seed": seed,
    }


class Runner:
    """Launches the repetitions of one workload run and gathers samples."""

    def __init__(self, root: Path, workdir: Path, config_path: Path | None,
                 argv: list[str]):
        self.root = root
        self.workdir = workdir
        self.config_path = config_path
        self.argv = argv
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"), **CHILD_ENV)
        self.started = time.monotonic()
        self.count = 0

    def launch(self, *, setup_only: bool = False,
               traced: bool = False) -> tuple[dict, Path]:
        """Run one child; return its sample and its repetition directory."""
        self.count += 1
        rep_dir = self.workdir / f"rep{self.count}"
        rep_dir.mkdir(parents=True)
        result_path = rep_dir / "result.json"
        cmd = [sys.executable, str(HERE / "child.py"), "--result", str(result_path),
               "--argv", json.dumps(self.argv)]
        if self.config_path is not None:
            cmd += ["--config", str(self.config_path)]
        if setup_only:
            cmd.append("--setup-only")
        if traced:
            cmd += ["--spans", str(rep_dir / "spans.json")]
        env = dict(self.env, HILLBANDS_OUTDIR=str(rep_dir / "out"))
        timeout = max(1.0, HARD_LIMIT_S - self.elapsed())
        with open(rep_dir / "child.log", "w", encoding="utf-8") as log:
            launched = time.monotonic()
            proc = subprocess.run(cmd + ["--launched", repr(launched)],
                                  cwd=self.root, env=env, stdout=log,
                                  stderr=subprocess.STDOUT, timeout=timeout)
        if proc.returncode != 0 or not result_path.is_file():
            log_text = (rep_dir / "child.log").read_text(errors="replace")
            raise RuntimeError(f"repetition {self.count} failed "
                               f"(exit {proc.returncode}):\n{log_text[-2000:]}")
        with open(result_path, encoding="utf-8") as fh:
            return json.load(fh), rep_dir

    def elapsed(self) -> float:
        return time.monotonic() - self.started


def run_job(root: Path, name: str, argv: list[str], config: dict | None,
            seed: int, seconds: float, trace: bool) -> dict:
    """Time one workload for ``seconds``, gate its outputs, return a record.

    ``argv`` are the CLI arguments, with "{config}" standing for the path of
    ``config`` written to a file.
    """
    src = str(root / "src")
    if src not in sys.path:
        sys.path.insert(0, src)      # the gate runs the oracle in this process
    workdir = root / ".perfbench" / f"{name}-seed{seed}-trace{int(trace)}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        config_path = None
        if config is not None:
            config_path = workdir / "config.json"
            config_path.write_text(json.dumps(config, indent=1) + "\n",
                                   encoding="utf-8")
        argv = [a.replace("{config}", str(config_path)) for a in argv]
        runner = Runner(root, workdir, config_path, argv)
        plain, traced, rep_dirs = [], [], []
        # start repetitions until time is up (plain and traced alternate when
        # tracing), then top the set-up samples up with set-up-only launches
        while runner.elapsed() < seconds or len(rep_dirs) < MIN_REPS or (
                trace and not traced):
            want_traced = trace and len(traced) < len(plain)
            sample, rep_dir = runner.launch(traced=want_traced)
            (traced if want_traced else plain).append(sample)
            rep_dirs.append(rep_dir)
        setups = [s["setup_s"] for s in plain]
        while not trace and len(setups) < MIN_SETUPS and runner.elapsed() < seconds + 3:
            setups.append(runner.launch(setup_only=True)[0]["setup_s"])
        timed_s = runner.elapsed()

        samples = plain + traced
        codes = [s["exit_code"] for s in samples]
        if "band" in argv:
            result = gate.check_band(config, [d / "out" for d in rep_dirs], codes)
        else:
            result = gate.check_verify([s["stdout"] for s in samples], codes)

        run_s = statistics.median(s["run_s"] for s in plain)
        if trace:
            values = {key: statistics.median(t["layers"][key] for t in traced)
                      for key in traced[0]["layers"]}
            values["trace.overhead_s"] = statistics.median(
                t["run_s"] for t in traced) - run_s
            metrics = {k: {"value": v, "unit": layer_unit(k)}
                       for k, v in values.items()}
        else:
            values = {
                "run_s": run_s,
                "setup_s": statistics.median(setups),
                "peak_rss_mb": statistics.median(s["peak_rss_mb"] for s in plain),
                "ok_frac": 1.0 - len(result.failed) / result.attempted,
            }
            metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]}
                       for k, v in values.items()}
        record = {
            "workload": name, "trace": trace, "seconds": seconds,
            "timed_s": timed_s,
            "environment": environment(root, seed),
            "config": config, "argv": argv,
            "samples": {"plain": [_without_stdout(s) for s in plain],
                        "traced": [_without_stdout(s) for s in traced],
                        "setup_s": setups},
            "threads_seen": sorted({n for t in traced for n in t["threads_seen"]}),
            "correct": result.correct,
            "attempted": result.attempted,
            "failures": [f"{op.kind} {op.name}" for op in result.failed],
            "metrics": metrics,
        }
        results_dir = root / ".perfbench" / "results"
        results_dir.mkdir(parents=True, exist_ok=True)
        stem = f"{name}-seed{seed}-trace{int(trace)}"
        with open(results_dir / f"{stem}.json", "w", encoding="utf-8") as fh:
            json.dump(record, fh, indent=1)
        if trace:
            last_traced = [d for d in rep_dirs if (d / "spans.json").is_file()][-1]
            shutil.copyfile(last_traced / "spans.json",
                            results_dir / f"{stem}-spans.json")
        return record
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _without_stdout(sample: dict) -> dict:
    return {k: v for k, v in sample.items() if k != "stdout"}


def layer_unit(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_bytes"):
        return "bytes"
    return "count"


def summary_lines(record: dict) -> list[str]:
    env = record["environment"]
    plain = record["samples"]["plain"]
    failed = len(record["failures"])
    lines = [f"workload {record['workload']} seed {env['seed']} "
             f"trace {int(record['trace'])}: {len(plain)} plain + "
             f"{len(record['samples']['traced'])} traced repetitions in "
             f"{record['timed_s']:.1f} s; --threads default {env['cli_threads_default']}, "
             f"nproc {env['nproc']}, commit {env['commit'][:12]}"]
    if not record["trace"]:
        runs = sorted(s["run_s"] for s in plain)
        lines.append(f"  run_s        {record['metrics']['run_s']['value']:.4f} s  "
                     f"(median of {len(runs)}, min {runs[0]:.4f}, max {runs[-1]:.4f})")
        lines.append(f"  setup_s      {record['metrics']['setup_s']['value']:.4f} s  "
                     f"(median of {len(record['samples']['setup_s'])})")
        lines.append(f"  peak_rss_mb  {record['metrics']['peak_rss_mb']['value']:.1f} MB")
    else:
        for key, m in record["metrics"].items():
            lines.append(f"  {key:32s} {m['value']:.6g} {m['unit']}")
    lines.append(f"  fail_frac    {failed / record['attempted']:.4f} ratio  "
                 f"({failed} failed of {record['attempted']} attempted)")
    for f in record["failures"]:
        lines.append(f"    failed: {f}")
    lines.append(f"  correct      {record['correct']}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    # on SIGTERM unwind normally: subprocess.run kills and reaps the running
    # child, and run_job removes its work directory
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    root = Path.cwd()
    if not (root / "src" / "hillbands" / "__init__.py").is_file():
        print(f"error: {root} has no src/hillbands; run from the root of a "
              f"hillbands checkout", file=sys.stderr)
        return 2
    names = sorted(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    for name in names:
        w = workloads.WORKLOADS[name]
        config = w.config(root, args.seed)
        record = run_job(root, name, list(w.argv), config, args.seed,
                         args.seconds, bool(args.trace))
        print("\n".join(summary_lines(record)))
        print(json.dumps({
            "correct": record["correct"],
            "attempted": record["attempted"],
            "failed": len(record["failures"]),
            "metrics": record["metrics"],
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
