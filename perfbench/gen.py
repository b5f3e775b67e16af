"""Seeded input generator for the benchmark workloads.

Only the structure of each workload is fixed here: alphabet sizes, state
counts, the n / rho / R grids and the unifilar next-state map.  Every
probability is drawn from Dirichlet(1) by a generator seeded with the
workload seed, with no filtering of awkward draws, so the same seed always
yields byte-identical files.  The program under test sees only these files.

``write_inputs`` returns the plan: one entry per CLI invocation, with its
argument list, the output files it writes and the number of output rows
it must produce.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

WORKLOADS = ("single_letter", "finite_n", "certify")

# next_state of docs/examples/unifilar.json: the state flips on symbol 1
UNIFILAR_NEXT_STATE = [[0, 1], [1, 0]]

CURVE_ALPHABETS = (2, 3, 4)
CURVE_RHOS = [0.5, 1.0, 2.0]
CURVE_RATES = {"min": 0.05, "max": 1.15, "step": 0.05}
# one dual cell per chain: the Perron path without the threshold bisection,
# whose cost depends too much on the drawn chain to time steadily
CHAIN_CELL = {"n": [2], "rho": [1.0], "R": [0.3]}
BOUNDS_RHOS = [0.5, 1.0, 2.0]
BOUNDS_RATES = [0.2, 0.4, 0.6]
BOUNDS_NS = {2: [8, 12, 16], 3: [6, 8, 10]}
# one cell per binary law at n=18, where the n-letter arrays (2 MB) reach L2 size
BOUNDS_LARGE = {"n": [18], "rho": [1.0], "R": [0.4]}
SIMULATE = {"n": [2, 8, 12, 16], "rho": [1.0], "R": [0.3, 0.6]}
SWEEP_RATES = [0.3, 0.6]
SWEEP_NS = {2: [4, 8, 12], 3: [4, 6, 8]}
VERIFY_ROWS = 13  # one per registered check
VERIFY_TIMED_SEED = 0


def _grid_count(spec: dict) -> int:
    # the same rounding as the CLI's {min, max, step} grid
    return int(math.floor((spec["max"] - spec["min"]) / spec["step"] + 1e-9)) + 1


def _cells(config: dict) -> int:
    return len(config["n"]) * len(config["rho"]) * len(config["R"])


def _dirichlet(rng: np.random.Generator, size: int) -> list:
    return [float(x) for x in rng.dirichlet(np.ones(size))]


def _write_json(path: Path, doc: dict):
    path.write_text(json.dumps(doc, sort_keys=True, indent=1) + "\n")


class _Plan:
    """Collects the model files, configs and CLI invocations of one workload."""

    def __init__(self, dest: Path, out_dir: Path):
        self.dest = dest
        self.out_dir = out_dir
        self.invocations = []

    def model(self, name: str, doc: dict) -> str:
        _write_json(self.dest / f"{name}.json", doc)
        return f"{name}.json"

    def run(self, command: str, name: str, config: dict = None, rows: int = 0,
            extra: tuple = (), suffix: str = "csv", outputs: list = None, timed: bool = True):
        """Add one invocation writing ``name.suffix``; ``outputs`` names the files
        it really writes when that differs (one file per rho for ``exponent``).
        An untimed invocation runs once, before the timed passes, and is only
        checked for correctness."""
        argv = [command, "--threads", "1"]
        if config is not None:
            cfg_path = self.dest / f"{name}.config.json"
            _write_json(cfg_path, config)
            argv += ["--config", str(cfg_path)]
        out = self.out_dir / f"{name}.{suffix}"
        argv += ["--out", str(out), *extra]
        self.invocations.append({
            "name": name,
            "command": command,
            "argv": argv,
            "outputs": [str(self.out_dir / o) for o in outputs] if outputs else [str(out)],
            "rows": rows or _cells(config),
            "timed": timed,
        })


def _single_letter(plan: _Plan, rng: np.random.Generator, seed: int):
    per_curve = _grid_count(CURVE_RATES)
    for k in CURVE_ALPHABETS:
        model = plan.model(f"iid{k}", {"kind": "iid", "probs": _dirichlet(rng, k)})
        plan.run("exponent", f"iid{k}", {"model": model, "rho": CURVE_RHOS, "R": CURVE_RATES},
                 rows=per_curve * len(CURVE_RHOS),
                 outputs=[f"iid{k}_rho{rho:.12g}.csv" for rho in CURVE_RHOS])
    markov = plan.model("markov2", {
        "kind": "markov", "transition": [_dirichlet(rng, 2) for _ in range(2)]})
    plan.run("sweep", "markov2", dict(CHAIN_CELL, model=markov))
    unifilar = plan.model("unifilar2", {
        "kind": "unifilar", "next_state": UNIFILAR_NEXT_STATE,
        "emission": [_dirichlet(rng, 2) for _ in range(2)], "init_state": 0})
    plan.run("sweep", "unifilar2", dict(CHAIN_CELL, model=unifilar))


def _finite_n(plan: _Plan, rng: np.random.Generator, seed: int):
    laws = {
        "iid2": (2, {"kind": "iid", "probs": _dirichlet(rng, 2)}),
        "iid3": (3, {"kind": "iid", "probs": _dirichlet(rng, 3)}),
        "markov2": (2, {"kind": "markov",
                        "transition": [_dirichlet(rng, 2) for _ in range(2)]}),
    }
    for name, (k, doc) in laws.items():
        model = plan.model(name, doc)
        plan.run("bounds", f"bounds_{name}",
                 {"model": model, "n": BOUNDS_NS[k], "rho": BOUNDS_RHOS, "R": BOUNDS_RATES})
        if k == 2:
            plan.run("bounds", f"bounds_{name}_n18", dict(BOUNDS_LARGE, model=model))
            plan.run("simulate", f"simulate_{name}", dict(SIMULATE, model=model))
        if doc["kind"] == "iid":
            plan.run("sweep", f"sweep_{name}",
                     {"model": model, "n": SWEEP_NS[k], "rho": [1.0], "R": SWEEP_RATES})


def _certify(plan: _Plan, rng: np.random.Generator, seed: int):
    # verify draws its own instance sizes from its seed, and the number of
    # large brute-force searches among them moves its time by up to 2x from
    # seed to seed; the timed pass therefore uses a fixed verify seed, and
    # the workload seed's verify runs once, untimed, for correctness.
    plan.run("verify", "verify", rows=VERIFY_ROWS, suffix="json",
             extra=("--format", "json", "--seed", str(VERIFY_TIMED_SEED)))
    plan.run("verify", "verify_seeded", rows=VERIFY_ROWS, suffix="json",
             extra=("--format", "json", "--seed", str(seed)), timed=False)


_BUILDERS = {"single_letter": _single_letter, "finite_n": _finite_n, "certify": _certify}


def write_inputs(workload: str, seed: int, dest: Path, out_dir: Path) -> list:
    """Write the models and configs of ``workload`` for ``seed`` into ``dest``.

    Returns the invocation plan, which is also written to ``dest/plan.json``;
    CLI outputs go to ``out_dir``.
    """
    dest.mkdir(parents=True, exist_ok=True)
    plan = _Plan(dest, out_dir)
    stream = WORKLOADS.index(workload)
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(stream,)))
    _BUILDERS[workload](plan, rng, seed)
    _write_json(dest / "plan.json", {"invocations": plan.invocations})
    return plan.invocations


def write_warmup(dest: Path, out_dir: Path) -> list:
    """Tiny fixed invocations of every finite-n and curve command, run untimed
    before the timed passes so first-call costs stay out of ``wall_s``."""
    dest.mkdir(parents=True, exist_ok=True)
    plan = _Plan(dest, out_dir)
    model = plan.model("warm", {"kind": "iid", "probs": [0.7, 0.3]})
    cell = {"model": model, "n": [2], "rho": [1.0], "R": [0.3]}
    plan.run("exponent", "warm_exponent", cell)
    for command in ("bounds", "simulate", "sweep"):
        plan.run(command, f"warm_{command}", cell)
    _write_json(dest / "plan.json", {"invocations": plan.invocations})
    return plan.invocations
