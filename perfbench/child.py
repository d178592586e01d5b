"""One repetition of a workload in a fresh interpreter.

    python3 perfbench/child.py --launched T0 --result OUT.json [--config CFG]
        [--argv JSON] [--spans SPANS.json] [--setup-only]

``setup_s`` runs from the parent's ``time.monotonic()`` just before launch
(T0) until ``hillbands`` is imported and the workload's ``BandContext`` is
built. ``run_s`` is the wall time of the ``hillbands.cli.main`` call alone.
With ``--spans`` the layers are traced (see tracing.py). The band outputs go
to ``$HILLBANDS_OUTDIR``, which the parent sets.
"""

import time  # noqa: I001  (first, so set-up starts counting at once)

import argparse
import contextlib
import io
import json
import os
import resource
import sys
from pathlib import Path


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--launched", type=float, required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--config", default=None)
    parser.add_argument("--argv", default=None,
                        help="CLI arguments as a JSON list")
    parser.add_argument("--spans", default=None)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    tracer = None
    if args.spans:
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
    from hillbands import cli

    if args.config:
        cli.build_context(cli.load_config(args.config))
    else:
        from hillbands.verify import _toy_context

        _toy_context()  # what the band and floquet suites build without a config
    result = {"setup_s": time.monotonic() - args.launched}

    if not args.setup_only:
        argv = json.loads(args.argv)
        captured = io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(captured):
            code = cli.main(argv)
        result["run_s"] = time.perf_counter() - start
        result["exit_code"] = code
        result["stdout"] = captured.getvalue()
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        result["layers"] = tracer.metrics()
        outdir = Path(os.environ["HILLBANDS_OUTDIR"])
        written = [f.stat().st_size for f in outdir.glob("*")] if outdir.is_dir() else []
        result["layers"]["cli.output_bytes"] = sum(written) + len(
            result.get("stdout", "").encode())
        result["threads_seen"] = sorted(tracer.threads_seen)
        tracer.dump(args.spans)
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
