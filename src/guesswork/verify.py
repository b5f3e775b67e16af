"""Registered cross-module identity and inequality checks.

Each check takes one 64-bit seed, draws any randomness from a child of
it, runs a batch of instances, and reports the worst observed slack against its
documented tolerance.  The CLI ``verify`` command and the acceptance test
suite both run these functions, so a green verify run is the same
evidence as a green acceptance suite.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import cipher as ci
from . import compression as co
from . import exponents as ex
from . import guessing as gu
from . import sources as so

LN2 = math.log(2.0)


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(stream,)))


def _random_pmf(rng: np.random.Generator, size: int, concentration: float = 1.0) -> so.Pmf:
    return so.Pmf(rng.dirichlet(np.full(size, concentration)), tol=1e-9)


def _stacked(instances, width: int) -> tuple:
    """(laws zero-padded to ``width`` letters, support masks) of (Pmf, support) pairs."""
    probs = np.zeros((len(instances), width))
    mask = np.zeros(probs.shape, dtype=bool)
    for row, on, (p, support) in zip(probs, mask, instances):
        row[:p.size] = p.probs
        on[support] = True
    return probs, mask


def _tilted_blocks(seed: int):
    """Yield (laws, support masks, thetas, probe seeds) of the tilted-identity
    check's 1,000 instances on up to 64 letters, 64 at a time in stream order."""
    rng = _rng(seed, 1)
    for lo in range(0, 1000, 64):
        instances, thetas, seeds = [], [], []
        for i in range(lo, min(lo + 64, 1000)):
            size = int(rng.integers(2, 65))
            p = _random_pmf(rng, size)
            b_size = int(rng.integers(1, size + 1))
            instances.append((p, rng.choice(size, size=b_size, replace=False)))
            thetas.append(float(rng.uniform(0.0, 4.0)) if i % 5 else 0.0)
            seeds.append(int(rng.integers(2 ** 32)))
        yield (*_stacked(instances, 64), thetas, seeds)


def check_tilted_identity(seed: int = 0) -> CheckResult:
    """Tilted-maximizer identity on random (p, B, theta), plus 1,000 random
    probes each.  Each block of 64 instances is checked as it is drawn, in
    one batched call whose probes go through PRESSURE_CHUNK floats, so the
    memory is bounded by that buffer and one block, not by the 1,000 rows."""
    worst = np.full(2, -math.inf)  # np.maximum keeps a nan
    for probs, mask, thetas, seeds in _tilted_blocks(seed):
        gaps, excess = ex.variational_identity_checks(probs, mask, thetas, seeds, 1000)
        worst = np.maximum(worst, [gaps.max(), excess.max()])
    worst_gap, worst_excess = worst.tolist()
    passed = worst_gap <= 1e-9 and worst_excess <= 1e-12
    return CheckResult(
        "tilted-identity",
        passed,
        f"max gap {worst_gap:.3e} (tol 1e-9), max random excess {worst_excess:.3e} (tol 1e-12)",
    )


def check_renyi_variational(seed: int = 0) -> CheckResult:
    """Full-support specialization: theta H(tilt) - D equals theta H_{1/(1+theta)}."""
    rng = _rng(seed, 2)
    pmfs, thetas, seeds = [], [], []
    for _ in range(200):
        size = int(rng.integers(2, 33))
        pmfs.append(_random_pmf(rng, size))
        thetas.append(float(rng.uniform(0.05, 4.0)))
        seeds.append(int(rng.integers(2 ** 32)))
    probs, mask = _stacked([(p, slice(p.size)) for p in pmfs], 32)
    gaps, _ = ex.variational_identity_checks(probs, mask, thetas, seeds, 2)
    worst = float(gaps.max())
    for p, theta in zip(pmfs, thetas):
        direct = abs(
            theta * so.renyi_entropy(p, 1.0 / (1.0 + theta))
            - (1.0 + theta) * math.log(math.fsum((p.probs ** (1.0 / (1.0 + theta))).tolist()))
        )
        worst = max(worst, direct)
    return CheckResult("renyi-variational", worst <= 1e-9, f"max gap {worst:.3e} (tol 1e-9)")


def check_decomposition(seed: int = 0) -> CheckResult:
    """Error/correct split equals the theta dual on a (rho, R) sweep.

    (0.45, 0.45, 0.1) has tied maxima, so its low rates take the tie
    floor's closed form; (0.4, 0.399, 0.201) puts the correct term's root
    near theta = -1 (beta about 1,900).  The instances are fixed: ``seed``
    is not read.
    """
    worst, rhos = 0.0, np.array([[0.5], [1.0], [2.0]])
    for probs in ([0.8, 0.2], [0.6, 0.3, 0.1], [0.45, 0.45, 0.1], [0.4, 0.399, 0.201]):
        p = so.Pmf(probs)
        rates = np.linspace(0.05, math.log(p.size) + 0.1, 20)
        worst = max(worst, float(ex.decomposition_check(p, rhos, rates)[2].max()))
    return CheckResult("decomposition", worst <= 1e-9, f"max gap {worst:.3e} (tol 1e-09)")


def check_three_regime(seed: int = 0) -> CheckResult:
    """Linear, concave-interior, and flat regimes of the (0.8, 0.2) curve.
    The instance is fixed: ``seed`` is not read."""
    p = so.Pmf([0.8, 0.2])
    model = so.IidSource(p)
    rho = 1.0
    h_p, h_sat = so.pressure_slope(model, [0.0, rho]).tolist()
    e_max = rho * so.renyi_entropy(p, 0.5)
    problems = []
    linear = np.arange(0.01, h_p + 1e-12, 0.01)
    for r, e in zip(linear.tolist(), ex.model_exponent_dual(model, rho, linear).tolist()):
        if abs(e - rho * r) > 1e-9:
            problems.append(f"linear regime broken at R={r:.4f}")
    saturated = np.arange(h_sat, LN2 + 1e-9, 0.005)
    for r, e in zip(saturated.tolist(), ex.model_exponent_dual(model, rho, saturated).tolist()):
        if abs(e - e_max) > 1e-6:
            problems.append(f"saturated regime broken at R={r:.4f}")
    vals = ex.model_exponent_dual(model, rho, np.arange(h_p, h_sat, 0.01))
    if np.any(np.diff(vals) < -1e-10):
        problems.append("interior regime not nondecreasing")
    if np.any(np.diff(vals, 2) > 1e-8):
        problems.append("interior regime not concave")
    detail = "; ".join(problems) if problems else (
        f"H_P={h_p:.6f}, H'={h_sat:.6f}, E_max={e_max:.6f}"
    )
    return CheckResult("three-regime", not problems, detail)


def check_group_xor_closed_form(seed: int = 0) -> CheckResult:
    """Closed-form group-XOR moment equals the exact posterior-attack moment."""
    rng = _rng(seed, 3)
    worst = 0.0
    for _ in range(100):
        size = int(rng.integers(2, 65))
        k = int(rng.integers(0, 5))
        rho = float(rng.uniform(0.2, 2.5))
        p = _random_pmf(rng, size)
        cipher = ci.build_group_xor_cipher(p, k)
        exact = ci.attack_moment(cipher, rho)
        closed = ci.group_xor_moment_closed(so.spectrum(p), k, rho)
        worst = max(worst, abs(exact - closed))
    return CheckResult("group-xor-closed-form", worst <= 1e-12,
                       f"max |exact - closed| {worst:.3e} (tol 1e-12)")


def _all_tables(n_msgs: int, num_keys: int) -> np.ndarray:
    """Every (num_keys x n_msgs) table of per-key permutations, stacked in
    ``itertools.product`` order over the lexicographic permutations."""
    perms = np.array(list(itertools.permutations(range(n_msgs))))
    return perms[np.indices((len(perms),) * num_keys).reshape(num_keys, -1).T]


def _ceiling_cases(seed: int):
    """(p, k, rho, base order, rank budget, moment ceiling) of each attack-ceiling instance."""
    rng = _rng(seed, 4)
    for n_msgs in (2, 3, 4):
        for _ in range(3):
            p = _random_pmf(rng, n_msgs)
            for k in (0, 1):
                rho = float(rng.uniform(0.3, 2.0))
                key_rate = k * LN2 if k else 0.5
                _, lengths = co.integer_bruteforce(p, rho, key_rate, 1)
                lf = gu.LengthFunction(lengths)
                budget = 2.0 * np.exp(np.minimum(lf.lengths * LN2, key_rate))
                ceiling = 2.0 ** rho * gu.saturated_moment(lf, p, rho, 1, key_rate) * (1.0 + 1e-12)
                yield p, k, rho, gu.order_from_lengths(lf), budget, ceiling


def _ceiling_violations(tables: np.ndarray, p: so.Pmf, rho: float, base_order: gu.GuessOrder,
                        budget: np.ndarray, ceiling: float) -> tuple:
    """(violations, per-table moments) of the interleaved attack on a (T, M, N) stack.

    Cryptogram y's key search lists, key by key, the message each key
    decrypts y to; the attacker interleaves it with ``base_order``.  Each
    distinct key search (at most N^M of them) is ranked and scored
    (:func:`cipher.column_terms`) once, and a table's moment is the fsum of
    its columns' terms.  Every searched message ranked above its budget is
    one violation, and so is every table whose moment exceeds ``ceiling``.
    """
    ci.validate_tables(tables)
    searches = np.argsort(tables, axis=-1, kind="stable").transpose(0, 2, 1).reshape(
        -1, tables.shape[1])
    distinct, which = np.unique(searches, axis=0, return_inverse=True)
    which = which.reshape(len(tables), -1)  # table t's column y is distinct search which[t, y]
    ranks = np.array([gu.interleave(base_order, s).rank for s in distinct.tolist()])
    over = np.take_along_axis(ranks, distinct, axis=1) > budget[distinct] * (1.0 + 1e-12)
    terms = ci.column_terms(distinct, p.probs, rho, ranks)
    moments = np.array([math.fsum(itertools.chain.from_iterable(map(terms.__getitem__, cols)))
                        for cols in which.tolist()])
    return int(over.sum(axis=1)[which].sum()) + int((moments > ceiling).sum()), moments


def check_attack_ceiling(seed: int = 0) -> CheckResult:
    """Interleaved attack needs at most twice the capped guess budget, per cipher.

    For every cipher on up to 4 messages with 1 key bit: pointwise on
    every consistent (message, cryptogram) pair,
    rank(x | y) <= 2 exp(min(L(x) ln2, nR)), and in expectation the moment
    is at most 2^rho times the saturated cost of the optimal integer
    lengths.  Each instance's tables are checked as one stack: one sort
    yields every key search, and each distinct key search (at most N^M of
    them) is interleaved and scored once.
    """
    violations = 0
    cases = 0
    for p, k, rho, base_order, budget, ceiling in _ceiling_cases(seed):
        tables = _all_tables(p.size, 2 ** k)
        found, _ = _ceiling_violations(tables, p, rho, base_order, budget, ceiling)
        violations += found
        cases += len(tables)
    return CheckResult("attack-ceiling", violations == 0,
                       f"{violations} violations over {cases} enumerated ciphers")


def check_attack_floor(seed: int = 0) -> CheckResult:
    """Group-XOR moment is at least the saturated cost scaled by its constant.

    The induced lengths come from converting the descending-probability
    order on the padded message set; the constant is
    1/((2 H_N)^rho (2 + rho)) with H_N the harmonic number of the padded
    message count.
    """
    rng = _rng(seed, 5)
    violations = 0
    worst_margin = math.inf
    for _ in range(40):
        size = int(rng.integers(2, 33))
        rho = float(rng.uniform(0.2, 2.5))
        n = 1
        # any positive rate; the cipher then uses k = ceil(nR / ln2) key bits
        key_rate = float(rng.uniform(0.05, 2.7))
        k = ci.keys_for_rate(n, key_rate)
        p = _random_pmf(rng, size)
        cipher = ci.build_group_xor_cipher(p, k)
        padded = cipher.pmf
        moment = ci.group_xor_moment_closed(so.spectrum(p), k, rho)
        desc = gu.GuessOrder(np.arange(1, padded.size + 1))
        lf = gu.lengths_from_order(desc)
        sat_cost = gu.saturated_moment(lf, padded, rho, n, key_rate)
        c = gu.harmonic_number(padded.size)
        floor = sat_cost / ((2.0 * c) ** rho * (2.0 + rho))
        worst_margin = min(worst_margin, moment - floor)
        if moment < floor * (1.0 - 1e-12):
            violations += 1
    return CheckResult("attack-floor", violations == 0,
                       f"{violations} violations; smallest margin {worst_margin:.3e}")


def check_guessing_compression_gap(seed: int = 0) -> CheckResult:
    """Compression and best-cipher exponents agree within the harmonic constant.

    For brute-forceable systems, both ends of the achieved-exponent bracket
    (group-XOR and exact best) and its midpoint sit within
    ln((4 H_N)^rho (2+rho)) / n of the integer compression optimum.
    """
    rng = _rng(seed, 6)
    worst_ratio = 0.0
    count = 0
    for i in range(50):
        size = int(rng.integers(2, 6))
        k = int(rng.integers(1, 3))
        rho = (0.5, 1.0)[i % 2]
        p = _random_pmf(rng, size)
        # any rate with ceil(R / ln2) = k, so cipher and code share the rate
        key_rate = float(rng.uniform((k - 1) * LN2 + 1e-6, k * LN2))
        e_s, _ = co.integer_bruteforce(p, rho, key_rate, 1)
        lo = math.log(ci.group_xor_moment_closed(so.spectrum(p), k, rho))
        result = ci.brute_force_best_cipher(p, k, rho)
        hi = math.log(result.max_moment)
        lo, hi = min(lo, hi), max(lo, hi)
        c = gu.harmonic_number(size)
        bound = math.log((4.0 * c) ** rho * (2.0 + rho))
        for endpoint in (lo, hi, 0.5 * (lo + hi)):
            worst_ratio = max(worst_ratio, abs(e_s - endpoint) / bound)
        count += 1
    return CheckResult("guessing-compression-gap", worst_ratio <= 1.0,
                       f"worst |gap|/bound {worst_ratio:.3f} over {count} systems")


def check_relaxed_integer_sandwich(seed: int = 0) -> CheckResult:
    """relaxed <= integer <= relaxed + rho ln2 / n on enumerable instances."""
    rng = _rng(seed, 7)
    worst_low = math.inf
    worst_high = -math.inf
    for _ in range(200):
        size = int(rng.integers(2, 11))
        rho = float(rng.uniform(0.2, 2.5))
        n = int(rng.integers(1, 4))
        key_rate = float(rng.uniform(0.05, 1.2))
        p = _random_pmf(rng, size, concentration=float(rng.uniform(0.3, 3.0)))
        relaxed = co.relaxed_optimum(so.spectrum(p), n, rho, key_rate)
        integer, _ = co.integer_bruteforce(p, rho, key_rate, n)
        worst_low = min(worst_low, integer - relaxed.value)
        worst_high = max(worst_high, integer - relaxed.value - relaxed.slack)
    passed = worst_low >= -1e-9 and worst_high <= 1e-9
    return CheckResult(
        "relaxed-integer-sandwich", passed,
        f"min(integer-relaxed) {worst_low:.3e} >= 0; max overshoot {worst_high:.3e} <= 0",
    )


def check_finite_n_convergence(seed: int = 0) -> CheckResult:
    """Finite-n relaxed optima approach the single-letter dual monotonically.
    The instances are fixed: ``seed`` is not read."""
    model = so.IidSource(so.Pmf([0.8, 0.2]))
    rho = 1.0
    problems = []
    finals = []
    rates = (0.3, 0.55, 0.69)
    laws = {n: so.n_letter_spectrum(model, n) for n in (4, 6, 8, 10, 12)}
    for key_rate, dual in zip(rates, ex.model_exponent_dual(model, rho, rates).tolist()):
        gaps = [abs(co.relaxed_optimum(law, n, rho, key_rate).value - dual)
                for n, law in laws.items()]
        if any(b > a + 1e-12 for a, b in zip(gaps, gaps[1:])):
            problems.append(f"R={key_rate}: gaps not nonincreasing {gaps}")
        if gaps[-1] > 0.15:
            problems.append(f"R={key_rate}: gap at n=12 is {gaps[-1]:.4f} > 0.15")
        finals.append(gaps[-1])
    detail = "; ".join(problems) if problems else (
        "gaps at n=12: " + ", ".join(f"{g:.4f}" for g in finals)
    )
    return CheckResult("finite-n-convergence", not problems, detail)


def check_markov_dual(seed: int = 0) -> CheckResult:
    """L - 1e-12 <= dual <= U + 1e-12 and U - L <= 1e-9 for the certificates
    of :func:`exponents.certified_exponent`; iid-in-disguise exact.

    Models: the chain [[0.9, 0.1], [0.3, 0.7]], four seeded Dirichlet chains
    with 3-10 states and the next-state map of ``docs/examples/unifilar.json``
    with seeded emissions, each at a linear, an interior and a saturated rate.
    """
    rng = _rng(seed, 10)
    models = [so.chain_source([[0.9, 0.1], [0.3, 0.7]])] + [
        so.chain_source(rng.dirichlet(np.ones(k), size=k)) for k in rng.integers(3, 11, size=4)]
    emission = tuple(_random_pmf(rng, 2) for _ in range(2))
    models.append(so.UnifilarSource(so.Pmf([1.0, 0.0]), np.array([[0, 1], [1, 0]]), emission))
    rho = 1.0
    problems = []
    worst = 0.0
    for i, model in enumerate(models):
        h_p, h_sat = so.pressure_slope(model, [0.0, rho]).tolist()
        rates = np.array([0.5 * h_p, 0.5 * (h_p + h_sat), h_sat + 0.1])
        lower, dual, upper = ex.certified_exponent(model, rho, rates)
        worst = max(worst, float((upper - lower).max()))
        for r, lo, e, hi in zip(rates.tolist(), lower.tolist(), dual.tolist(), upper.tolist()):
            if not (lo - 1e-12 <= e <= hi + 1e-12 and hi - lo <= 1e-9):
                problems.append(f"model {i} R={r:.4f}: L={lo:.12f} dual={e:.12f} U={hi:.12f}")
    disguised = so.chain_source([[0.8, 0.2], [0.8, 0.2]])
    rates = (0.3, 0.55, 0.69)
    disguise_gaps = np.abs(ex.model_exponent_dual(disguised, rho, rates)
                           - ex.model_exponent_dual(so.IidSource(so.Pmf([0.8, 0.2])), rho, rates))
    for key_rate, gap in zip(rates, disguise_gaps.tolist()):
        if gap > 1e-9:
            problems.append(f"iid-in-disguise gap {gap:.3e} at R={key_rate}")
    detail = "; ".join(problems) if problems else (
        f"max certificate width {worst:.3e} (tol 1e-9) over {len(models)} models x 3 rates"
    )
    return CheckResult("markov-dual", not problems, detail)


def check_length_order_duality(seed: int = 0) -> CheckResult:
    """Random permutations: conversion lengths are Kraft-feasible and sandwich ranks."""
    rng = _rng(seed, 8)
    problems = 0
    for _ in range(200):
        size = int(rng.integers(1, 1025))
        rank = rng.permutation(size) + 1
        order = gu.GuessOrder(rank)
        lf = gu.lengths_from_order(order)
        if gu.kraft_sum(lf) > 1.0 + 1e-12:
            problems += 1
        c = gu.harmonic_number(size)
        log_rank = np.log2(rank.astype(float))
        if np.any(log_rank > lf.lengths + 1e-9):
            problems += 1
        if np.any(lf.lengths - 1.0 - math.log2(c) > log_rank + 1e-9):
            problems += 1
    return CheckResult("length-order-duality", problems == 0,
                       f"{problems} violations over 200 permutations")


def check_interleave_factor(seed: int = 0) -> CheckResult:
    """Merged rank never exceeds twice the better individual position."""
    rng = _rng(seed, 9)
    problems = 0
    for _ in range(200):
        size = int(rng.integers(1, 65))
        order = gu.GuessOrder(rng.permutation(size) + 1)
        b_len = int(rng.integers(0, 2 * size))
        seq_b = rng.integers(0, size, size=b_len).tolist()
        merged = gu.interleave(order, seq_b)
        pos_b = np.full(size, math.inf)
        for j, x in enumerate(seq_b):
            if pos_b[x] == math.inf:
                pos_b[x] = j + 1
        better = np.minimum(order.rank, pos_b)
        if np.any(merged.rank > 2 * better):
            problems += 1
    return CheckResult("interleave-factor", problems == 0,
                       f"{problems} violations over 200 merges")


ALL_CHECKS = (
    check_tilted_identity,
    check_renyi_variational,
    check_decomposition,
    check_three_regime,
    check_group_xor_closed_form,
    check_attack_ceiling,
    check_attack_floor,
    check_guessing_compression_gap,
    check_relaxed_integer_sandwich,
    check_finite_n_convergence,
    check_markov_dual,
    check_length_order_duality,
    check_interleave_factor,
)


def run_all(seed: int = 0) -> list:
    """Run every registered check with ``seed``; randomized ones use its children."""
    return [check(seed=seed) for check in ALL_CHECKS]
