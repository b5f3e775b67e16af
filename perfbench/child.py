"""One fresh interpreter that imports the CLI and runs a workload plan.

Started by ``run.py`` with ``PYTHONPATH`` pointing at the package source.
The parent passes ``--t0``, its monotonic clock (CLOCK_MONOTONIC, shared by
all processes) read just before it started this process, so the set-up
time covers interpreter start-up plus ``import guesswork.cli``.

Modes:
  --import-only   report the set-up time and exit;
  --trace 0       warm up and run the plan's untimed invocations once, then
                  repeat whole passes of its timed invocations until
                  ``--seconds`` have elapsed, timing each invocation;
  --trace 1       as above, but exactly one untraced pass and then one pass
                  with every layer wrapped by ``tracer.Tracer``.
The result is written as JSON to ``--result``; nothing is printed.
"""

import argparse
import sys
import time

import guesswork.cli as cli  # timed: this import is the set-up

T_IMPORTED = time.perf_counter_ns()

import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
from pathlib import Path  # noqa: E402


def _run_pass(invocations: list, call) -> dict:
    """Run every invocation once; returns per-invocation time, exit code and output digests."""
    times, codes, digests, out_bytes = [], [], [], 0
    cpu0 = time.process_time()
    for inv in invocations:
        for out in inv["outputs"]:
            Path(out).unlink(missing_ok=True)
        t0 = time.perf_counter_ns()
        code = call(inv["argv"])
        times.append((time.perf_counter_ns() - t0) / 1e9)
        codes.append(code)
        digest = hashlib.sha256()
        for out in inv["outputs"]:
            path = Path(out)
            data = path.read_bytes() if path.exists() else b""
            out_bytes += len(data)
            digest.update(data)
        digests.append(digest.hexdigest())
    return {"wall_s": sum(times), "times": times, "codes": codes, "digests": digests,
            "output_bytes": out_bytes, "cpu_s": time.process_time() - cpu0}


def _quiet(main):
    """Call the CLI with stdout captured (``verify --out`` also prints its table)."""
    def call(argv):
        with contextlib.redirect_stdout(io.StringIO()):
            return main(argv)
    return call


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--t0", type=int, required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--import-only", action="store_true")
    parser.add_argument("--plan")
    parser.add_argument("--warmup")
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--spans")
    args = parser.parse_args()

    result = {"setup_s": (T_IMPORTED - args.t0) / 1e9}
    if not args.import_only:
        plan = json.loads(Path(args.plan).read_text())["invocations"]
        invocations = [inv for inv in plan if inv["timed"]]
        warmup = json.loads(Path(args.warmup).read_text())["invocations"]
        call = _quiet(cli.main)
        _run_pass(warmup, call)
        result["untimed"] = _run_pass([inv for inv in plan if not inv["timed"]], call)
        passes = []
        if args.trace:
            from tracer import Tracer

            passes.append(_run_pass(invocations, call))
            tracer = Tracer()
            tracer.install()
            try:
                traced = _run_pass(invocations, _quiet(lambda argv: tracer.invoke(cli.main, argv)))
            finally:
                tracer.uninstall()
            result["traced"] = traced
            result["trace"] = tracer.summary()
            tracer.save(args.spans)
        else:
            t_end = time.perf_counter() + args.seconds
            while not passes or time.perf_counter() < t_end:
                passes.append(_run_pass(invocations, call))
        result["passes"] = passes
    result["versions"] = {"numpy": sys.modules["numpy"].__version__,
                          "scipy": sys.modules["scipy"].__version__}
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
