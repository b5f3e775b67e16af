"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; every tolerance and runtime budget is pinned here.
"""

import json
import math
import time

from guesswork import IidSource, Pmf, model_exponent_dual
from guesswork.cli import main
from guesswork.verify import (
    check_attack_ceiling,
    check_attack_floor,
    check_decomposition,
    check_finite_n_convergence,
    check_guessing_compression_gap,
    check_markov_dual,
    check_relaxed_integer_sandwich,
    check_renyi_variational,
    check_three_regime,
    check_tilted_identity,
)

LN2 = math.log(2.0)


def report(number: int, label: str, passed: bool, detail: str, elapsed: float, budget: float):
    status = "PASS" if passed and elapsed <= budget else "FAIL"
    print(f"{status}: criterion {number} ({label}) — {detail} [{elapsed:.1f}s of {budget:.0f}s]")
    assert passed, detail
    assert elapsed <= budget, f"runtime {elapsed:.1f}s exceeded {budget:.0f}s budget"


def test_criterion_1_variational_identities():
    t0 = time.time()
    tilted = check_tilted_identity(seed=0)
    renyi = check_renyi_variational(seed=0)
    report(1, "variational identities", tilted.passed and renyi.passed,
           f"{tilted.detail}; {renyi.detail}", time.time() - t0, 10.0)


def test_criterion_2_decomposition_identity():
    t0 = time.time()
    result = check_decomposition()
    report(2, "decomposition identity", result.passed, result.detail,
           time.time() - t0, 30.0)


def test_criterion_3_three_regime_curve():
    t0 = time.time()
    result = check_three_regime()
    # the saturation plateau sits at the stated value
    plateau = model_exponent_dual(IidSource(Pmf([0.8, 0.2])), 1.0, LN2)
    value_ok = abs(plateau - 0.587787) <= 1e-6
    report(3, "three-regime curve", result.passed and value_ok,
           result.detail + f"; plateau {plateau:.9f} vs 0.587787",
           time.time() - t0, 60.0)


def test_criterion_4_guessing_compression_equivalence():
    t0 = time.time()
    result = check_guessing_compression_gap(seed=0)
    report(4, "guessing-compression equivalence", result.passed, result.detail,
           time.time() - t0, 120.0)


def test_criterion_5_attack_chains():
    t0 = time.time()
    ceiling = check_attack_ceiling(seed=0)
    floor = check_attack_floor(seed=0)
    report(5, "attack moment chains", ceiling.passed and floor.passed,
           f"{ceiling.detail}; {floor.detail}", time.time() - t0, 120.0)


def test_criterion_6_oracle_sandwich():
    t0 = time.time()
    result = check_relaxed_integer_sandwich(seed=0)
    report(6, "oracle sandwich", result.passed, result.detail, time.time() - t0, 60.0)


def test_criterion_7_finite_n_convergence():
    t0 = time.time()
    result = check_finite_n_convergence()
    report(7, "finite-n convergence", result.passed, result.detail,
           time.time() - t0, 60.0)


def test_criterion_8_markov_duality():
    t0 = time.time()
    result = check_markov_dual()
    report(8, "markov duality", result.passed, result.detail, time.time() - t0, 120.0)


def test_criterion_9_determinism(tmp_path):
    t0 = time.time()
    model = tmp_path / "model.json"
    model.write_text(json.dumps({"kind": "iid", "probs": [0.8, 0.2]}))
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({
        "model": "model.json",
        "rho": [0.5, 1.0],
        "R": [0.3, 0.55, 0.69],
        "n": [4, 8],
    }))
    bounds_outputs = []
    verify_outputs = []
    for threads in ("1", "8"):
        for run in range(2):
            out = tmp_path / f"bounds_{threads}_{run}.csv"
            assert main(["bounds", "--config", str(cfg), "--out", str(out),
                         "--threads", threads, "--seed", "0"]) == 0
            bounds_outputs.append(out.read_bytes())
            out = tmp_path / f"verify_{threads}_{run}.csv"
            assert main(["verify", "--out", str(out), "--threads", threads,
                         "--seed", "0"]) == 0
            verify_outputs.append(out.read_bytes())
    passed = len(set(bounds_outputs)) == 1 and len(set(verify_outputs)) == 1
    report(9, "determinism", passed,
           "bounds and verify byte-identical over 1 vs 8 threads, two runs each",
           time.time() - t0, 300.0)
