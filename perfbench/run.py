"""Benchmark of the guesswork CLI: one command per workload run.

    python3 perfbench/run.py --workload <single_letter|finite_n|certify> \
        --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout.  The run writes the workload's
seeded inputs (``gen.py``) under ``perfbench/out/<workload>/``, starts
fresh interpreters that import the CLI from ``src/`` (``child.py``), checks
every output row (``check.py``) and prints, as its last line, one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  Lines before it give the metrics with units, the failure
fraction, the environment record and, with ``--trace 1``, the end-to-end
metric each layer metric should move.

End-to-end metrics (``--trace 0``), measured with tracing off:
  wall_s       median over passes of the time spent in the workload's CLI
               invocations, inside a warmed child;
  setup_s      median over several fresh children of the time from process
               start to ``guesswork.cli`` imported;
  peak_rss_mb  peak resident set of the measuring child.
With ``--trace 1`` one untraced and one traced pass run in one child and
the per-layer metrics of ``tracer.PER_LAYER`` are reported instead.

Exit status is 0 when a result was printed; a checkout without the
package source, or a child that fails, exits 1 without a result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import check
import gen
import tracer

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SETUP_STARTS = 5
CHILD_TIMEOUT_S = 170
# |traced wall - sum of self times| allowed per invocation, plus 0.1 % of the wall
SELF_TIME_TOL_S = 1e-3
END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
HOST_LIMITS = ("shared cores with other tenants (the same computation has run 2x slower "
               "for minutes at a time); no CPU pinning or frequency control; no "
               "system-wide tracing; spans come from wrappers in the benchmark")


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def _run_child(result: Path, *args) -> dict:
    """Start child.py in a fresh interpreter and return its JSON result."""
    result.unlink(missing_ok=True)
    t0 = time.perf_counter_ns()
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "child.py"), "--t0", str(t0),
         "--result", str(result), *args],
        env=_child_env(), cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
        timeout=CHILD_TIMEOUT_S, text=True,
    )
    if proc.returncode != 0 or not result.exists():
        raise RuntimeError(f"benchmark child failed ({proc.returncode}): {proc.stderr[-2000:]}")
    return json.loads(result.read_text())


def _cache_sizes() -> dict:
    sizes = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction":
            sizes[f"L{level}"] = size
    return sizes


def _git_revision() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown (not a git checkout)"


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def environment(versions: dict) -> dict:
    return {
        "git_revision": _git_revision(),
        "source_sha256": _source_digest(),
        "python": platform.python_version(),
        **versions,
        "blas_threads": {v: _child_env()[v] for v in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "cli_threads": 1,
        "nproc": len(os.sched_getaffinity(0)),
        "caches": _cache_sizes(),
        "host_limits": HOST_LIMITS,
    }


def _inputs_identical(a: Path, b: Path) -> bool:
    """Byte equality of two generated input trees, the plan (which names its
    own directory) aside."""
    files = sorted(p.name for p in a.iterdir() if p.name != "plan.json")
    other = sorted(p.name for p in b.iterdir() if p.name != "plan.json")
    return files == other and all((a / f).read_bytes() == (b / f).read_bytes() for f in files)


def _declared(bench: dict, trace: int) -> dict:
    return {m["name"]: m["unit"] for m in bench["per_layer" if trace else "end_to_end"]}


def run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    if not (ROOT / "src" / "guesswork" / "cli.py").is_file():
        raise FileNotFoundError(f"no package source under {ROOT / 'src'}")
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    work = BENCH_DIR / "out" / workload
    shutil.rmtree(work, ignore_errors=True)
    inputs, outputs = work / "inputs", work / "outputs"
    outputs.mkdir(parents=True)
    invocations = gen.write_inputs(workload, seed, inputs, outputs)
    gen.write_inputs(workload, seed, work / "inputs.again", outputs)
    deterministic = _inputs_identical(inputs, work / "inputs.again")
    gen.write_warmup(work / "warmup", work / "warmup_out")
    (work / "warmup_out").mkdir()

    setups = [_run_child(work / f"setup{i}.json", "--import-only")["setup_s"]
              for i in range(SETUP_STARTS - 1)]
    child = _run_child(work / "child.json", "--plan", str(inputs / "plan.json"),
                       "--warmup", str(work / "warmup" / "plan.json"),
                       "--seconds", str(seconds), "--trace", str(trace),
                       "--spans", str(work / "spans.npz"))
    setups.append(child["setup_s"])
    timed = [inv for inv in invocations if inv["timed"]]
    verdict = check.check_outputs(
        timed, child["passes"] + ([child["traced"]] if trace else []),
        [inv for inv in invocations if not inv["timed"]], child["untimed"],
        seed, BENCH_DIR / "reference" / workload)
    problems = list(verdict["problems"])
    if not deterministic:
        problems.append("input generator is not byte-deterministic for this seed")

    if trace:
        summary = child["trace"]
        untraced = child["passes"][0]["wall_s"]
        metrics = tracer.layer_metrics(summary, untraced, child["traced"], verdict["rows"])
        gap = tracer.self_time_gap(summary, child["traced"])
        tol = SELF_TIME_TOL_S * len(timed) + 1e-3 * child["traced"]["wall_s"]
        if abs(gap) > tol or summary["min_self_ns"] < 0:
            problems.append(f"layer self times miss the traced wall time by {gap:.6f} s "
                            f"(tolerance {tol:.6f} s; smallest self time "
                            f"{summary['min_self_ns']} ns)")
        units = {name: unit for name, unit, _ in tracer.PER_LAYER}
    else:
        units = END_TO_END_UNITS
        metrics = {
            "wall_s": statistics.median(p["wall_s"] for p in child["passes"]),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": child["peak_rss_mb"],
        }
    declared = _declared(bench, trace)
    if declared != units or set(metrics) != set(declared):
        problems.append("emitted metrics or units differ from BENCHMARK.json: "
                        f"{sorted(set(metrics) ^ set(declared))}")
    return {
        "workload": workload, "seed": seed, "trace": trace,
        "correct": not problems and verdict["failed"] == 0,
        "attempted": verdict["attempted"], "failed": verdict["failed"],
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in sorted(metrics)},
        "problems": problems,
        "passes": [p["wall_s"] for p in child["passes"]],
        "setups": setups,
        "reference_compared": verdict["reference_compared"],
        "environment": environment(child["versions"]),
    }


def report(result: dict):
    """Human-readable lines, then the one-line JSON result."""
    print(f"workload={result['workload']} seed={result['seed']} trace={result['trace']}")
    moves = {name: why for name, _, why in tracer.PER_LAYER}
    for name, m in result["metrics"].items():
        hint = f"  -> {moves[name]}" if result["trace"] else ""
        print(f"  {name:<44} {m['value']:<14.6g} {m['unit']}{hint}")
    frac = result["failed"] / result["attempted"]
    print(f"  {'fail_frac':<44} {frac:<14.6g} ratio  ({result['failed']} of "
          f"{result['attempted']} rows; reference compared: {result['reference_compared']})")
    print(f"  passes_s {result['passes']}  setups_s {[round(s, 4) for s in result['setups']]}")
    for problem in result["problems"]:
        print(f"  problem: {problem}")
    print("environment " + json.dumps(result["environment"], sort_keys=True))
    print(json.dumps({key: result[key] for key in ("correct", "attempted", "failed", "metrics")}))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=gen.WORKLOADS)
    parser.add_argument("--seed", type=int, default=check.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result = run(args.workload, args.seed, args.seconds, args.trace)
    except (OSError, RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        sys.stderr.write(f"benchmark failed: {exc}\n")
        return 1
    out = BENCH_DIR / "out" / args.workload
    (out / "result.json").write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")
    report(result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
