"""Compression with exponential costs saturating at the key-search price.

The cost of encoding a string with length L is exp(rho * min(L ln2, nR)):
exponential in the length, but capped at exp(rho n R), so every length of
nR nats or more pays the same saturated price.  The normalized log of the
cheapest attainable expected cost is, within explicit constants, the best
attack exponent of the cipher system; this module computes the relaxed
(real-length) optimum, an exact integer oracle, and finite-n bounds built
from the error and correct-decoding masses of the top probability set.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .errors import CapExceededError, ValidationError
from .exponents import model_exponent_dual
from .sources import Pmf, Spectrum, sort_desc

LN2 = math.log(2.0)

# Relative guard for floor(exp(nR)) at integer boundaries, where the float
# exponential can land a hair below the exact power.
_FLOOR_GUARD = 1e-12

INTEGER_ORACLE_MAX_STRINGS = 10

# A finite n-letter law: its sorted spectrum, or the dense law it comes from.
Law = Union[Spectrum, Pmf]


def _top_count(n: int, key_rate: float, size: int) -> int:
    """min(floor(exp(nR)), size), deciding in the log domain so large nR cannot overflow."""
    if n * key_rate >= math.log(size):
        return size
    return min(int(math.floor(math.exp(n * key_rate) * (1.0 + _FLOOR_GUARD))), size)


@dataclass(frozen=True, eq=False)
class TopSetSummary:
    """The top-M probability set at rate R and the masses it splits off.

    M = floor(exp(nR)); F is the mass of the top set, F_c the mass of its
    complement (the chance a rate-R fixed-length code errs), and tilted_sum
    the sum of P^(1/(1+rho)) over the top set.
    """

    n: int
    key_rate: float
    rho: float
    num_top: int
    mass: float
    mass_complement: float
    tilted_sum: float


def top_set(law: Law, n: int, key_rate: float, rho: float) -> TopSetSummary:
    """Split ``law`` at its first floor(exp(n*key_rate)) strings in probability order.

    The top set holds the spectrum's runs ahead of the cut and part of the
    run the cut falls in.
    """
    if key_rate <= 0.0 or rho <= 0.0 or n < 1:
        raise ValidationError("need key_rate > 0, rho > 0, n >= 1")
    spec = Spectrum.of(law)
    m = _top_count(n, key_rate, spec.size)
    j = int(np.searchsorted(spec.ends, m))
    inside = m - int(spec.ends[j] - spec.counts[j])
    v = float(spec.values[j])
    mass = float(spec.before[j]) + inside * v
    mass_c = float(spec.after[j]) + int(spec.counts[j] - inside) * v
    beta = 1.0 / (1.0 + rho)
    tilted = float(np.sum(spec.counts[:j] * spec.values[:j] ** beta)) + inside * v ** beta
    return TopSetSummary(n, key_rate, rho, m, mass, mass_c, tilted)


@dataclass(frozen=True, eq=False)
class SaturatedOptimum:
    """Relaxed saturated-cost optimum: value, active set size and rounding slack.

    The active set is the first ``active_set_size`` strings in probability
    order; each gets its tilted length and every other string saturates.
    ``slack`` is the certified one-bit rounding gap to the integer optimum.
    """

    value: float
    active_set_size: int
    slack: float


def relaxed_optimum(law: Law, n: int, rho: float, key_rate: float) -> SaturatedOptimum:
    """Minimize the saturated cost over real-valued Kraft-feasible lengths.

    For a fixed active prefix of the descending-probability order the best
    lengths are the tilted ones, l(x) = ln(Z/p(x)^(1/(1+rho))) with Z the
    tilted sum of the prefix, costing Z^(1+rho); saturated strings pay
    exp(rho n R) and consume no code space.  The optimum is taken over
    every prefix whose tilted lengths all fit under nR (the fixed-point
    clamp sweep always lands on one of them), plus the empty prefix.
    Inside run j of the spectrum, a prefix ending i strings into the run
    costs Z(i)^(1+rho) + F_c(i) e^(rho n R), Z(i) = Z_j + i t_j, which is
    convex in i with its stationary point at
    Z(i) = t_j e^(nR) (1+rho)^(-1/rho); so the floor and ceiling of that
    point, clamped to the run's valid counts, are the run's only
    candidates.  Ties prefer the smallest prefix.
    """
    if key_rate <= 0.0 or rho <= 0.0 or n < 1:
        raise ValidationError("need key_rate > 0, rho > 0, n >= 1")
    spec = Spectrum.of(law)
    v, c = spec.values, spec.counts
    beta = 1.0 / (1.0 + rho)
    tilted = v ** beta
    z_ahead = np.append(0.0, np.cumsum(c * tilted)[:-1])
    cap = n * key_rate

    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        log_t = np.log(tilted)
        ahead = z_ahead / tilted

        def fits(i):
            # the longest tilted length of the prefix is that of its last string
            return (i >= 1) & (np.log(z_ahead + i * tilted) - log_t <= cap + 1e-12)

        def log_kernel(i):
            saturated = spec.after + (c - i) * v
            log_sat = np.where(saturated > 0.0, np.log(saturated) + rho * cap, -np.inf)
            return np.where(fits(i), np.logaddexp((1.0 + rho) * np.log(z_ahead + i * tilted),
                                                  log_sat), np.inf)

        # the last valid count, from the closed form, settled by the test itself
        last = np.clip(np.floor(np.exp(cap + 1e-12) - ahead), 0.0, c)
        last = np.where(fits(last) | (last == 0.0), last, last - 1.0)
        last = np.where((last < c) & fits(last + 1.0), last + 1.0, last)
        low = np.clip(np.floor(np.exp(cap - math.log1p(rho) / rho) - ahead), 1.0, last)
        high = np.minimum(low + 1.0, last)
        k_low, k_high = log_kernel(low), log_kernel(high)
    take_high = k_high < k_low
    inside = np.where(take_high, high, low)
    # the empty active set (everything saturated) leads the candidate list, so
    # argmin's first-minimum rule prefers it and then the smallest prefix
    candidates = np.concatenate([[rho * cap], np.where(take_high, k_high, k_low)])
    best = int(np.argmin(candidates))
    best_log = float(candidates[best])

    active = 0
    if best > 0:
        active = int(spec.ends[best - 1] - c[best - 1]) + int(inside[best - 1])
    return SaturatedOptimum(
        value=best_log / n,
        active_set_size=active,
        slack=rho * LN2 / n,
    )


def integer_bruteforce(p: Pmf, rho: float, key_rate: float, n: int):
    """Exact minimum of the saturated cost over integer bit-length functions.

    Enumerates multisets of unsaturated lengths (those with L ln2 < nR) in
    nondecreasing order with exact dyadic Kraft arithmetic; all remaining
    strings are saturated and can be pushed to arbitrarily long codewords,
    which is realizable exactly when the unsaturated lengths leave strict
    Kraft room (or no string is saturated).  Shorter lengths go to more
    probable strings.  Unsaturated lengths never exceed N-1: some optimal
    code is a binary tree with at most N leaves.  Returns (value, lengths)
    with value the normalized log cost.
    """
    if p.size > INTEGER_ORACLE_MAX_STRINGS:
        raise CapExceededError(
            f"integer oracle limited to {INTEGER_ORACLE_MAX_STRINGS} strings"
        )
    if key_rate <= 0.0 or rho <= 0.0 or n < 1:
        raise ValidationError("need key_rate > 0, rho > 0, n >= 1")
    order = sort_desc(p)
    ps = p.probs[order].tolist()
    n_strings = p.size
    cap = n * key_rate
    sat_cost = rho * cap
    # largest integer L with L ln2 strictly below the saturation point
    max_unsat = min(int(math.ceil(cap / LN2 - 1e-12)) - 1, n_strings - 1)
    suffix_mass = [math.fsum(ps[i:]) for i in range(n_strings + 1)]

    scale_bits = 64
    scale = 1 << scale_bits
    unsat_cost = [math.exp(rho * l * LN2) for l in range(max_unsat + 1)]

    best: list = [math.inf, None, None]

    def consider(chosen: list, kraft_int: int):
        m = n_strings - len(chosen)
        if m > 0 and kraft_int >= scale:
            return
        if m == 0 and kraft_int > scale:
            return
        cost = math.fsum(
            [ps[i] * unsat_cost[l] for i, l in enumerate(chosen)]
            + [suffix_mass[len(chosen)] * math.exp(sat_cost)]
        )
        if cost < best[0] - 1e-15 * max(1.0, abs(cost)):
            best[0] = cost
            best[1] = list(chosen)
            best[2] = kraft_int

    def dfs(start_len: int, chosen: list, kraft_int: int):
        consider(chosen, kraft_int)
        if len(chosen) == n_strings:
            return
        for l in range(start_len, max_unsat + 1):
            new_kraft = kraft_int + (1 << (scale_bits - l))
            if new_kraft > scale:
                break  # longer lengths only shrink the added weight, but sorted order prunes here
            chosen.append(l)
            dfs(l, chosen, new_kraft)
            chosen.pop()

    dfs(1, [], 0)
    cost, chosen, kraft_int = best
    if chosen is None:
        raise ValidationError("no feasible integer length function found")

    m = n_strings - len(chosen)
    lengths_sorted = list(chosen)
    if m > 0:
        sat_len = int(math.ceil(cap / LN2 - 1e-12))
        room = scale - kraft_int
        while m * (1 << max(scale_bits - sat_len, 0)) > room:
            sat_len += 1
        lengths_sorted += [sat_len] * m
    lengths = np.empty(n_strings, dtype=int)
    lengths[order] = lengths_sorted
    return math.log(cost) / n, lengths


def error_term(law: Law, n: int, key_rate: float) -> float:
    """(1/n) ln of the top-set complement mass; -inf when the code never errs."""
    return _error_term(top_set(law, n, key_rate, rho=1.0))


def _error_term(split: TopSetSummary) -> float:
    if split.mass_complement == 0.0:
        return -math.inf
    return math.log(split.mass_complement) / split.n


def correct_decoding_term(law: Law, n: int, rho: float, key_rate: float) -> float:
    """(1+rho)/n times the log tilted mass of the top set.

    Generalizes the correct-decoding exponent of a rate-R code; as rho
    tends to 0 it recovers (1/n) ln of the top-set probability.
    """
    return _correct_decoding_term(top_set(law, n, key_rate, rho))


def _correct_decoding_term(split: TopSetSummary) -> float:
    return (1.0 + split.rho) * math.log(split.tilted_sum) / split.n


@dataclass(frozen=True, eq=False)
class BoundValue:
    """A bound plus the additive slack its finite-n derivation inserts."""

    value: float
    slack: float


def lower_bound_finite(law: Law, n: int, rho: float, key_rate: float) -> BoundValue:
    """Larger of the error branch rho R + (1/n) ln F_c and the correct branch.

    Both branches come from one top-set split.  The derivation passes
    through a source-coding step that costs ln 2 + ln(1 + ln N) nats, so
    the certified statement is relaxed optimum >= value - slack with
    slack = rho (ln2 + ln(1+ln N))/n.
    """
    split = top_set(law, n, key_rate, rho)
    err = _error_term(split)
    correct = _correct_decoding_term(split)
    first = rho * key_rate + err if err > -math.inf else -math.inf
    slack = rho * (LN2 + math.log(1.0 + math.log(law.size))) / n
    return BoundValue(value=max(first, correct), slack=slack)


def saturation_split_value(law: Law, n: int, rho: float, key_rate: float) -> float:
    """ln of F_c e^(rho n R) + (top-set tilted sum)^(1+rho), in the log domain.

    This is the exact value of the two-block variational problem that
    splits mass between the top set (coded) and its complement
    (saturated); a direct grid over the split probability reproduces it.
    """
    summary = top_set(law, n, key_rate, rho)
    log_campbell = (1.0 + rho) * math.log(summary.tilted_sum)
    if summary.mass_complement > 0.0:
        log_sat = math.log(summary.mass_complement) + rho * n * key_rate
        return float(np.logaddexp(log_campbell, log_sat))
    return log_campbell


def upper_bound_finite(law: Law, n: int, rho, key_rate):
    """min over t in [0, rho] of (rho-t) R + (t/n) H_{1/(1+t)}(P_n), plus ln2/n.

    This is the dual of the finite law at total rate nR, divided by n.
    The ln2/n term is the one-bit gap between the entropy bound and an
    achievable prefix code, made explicit rather than absorbed into O(1).
    ``rho`` and ``key_rate`` may be arrays, broadcast against each other:
    one dual call then solves every (rho, R) cell of the law together,
    from one slope call at both ends of each cell's [0, rho].  A total rate
    nR past the float range is +inf, where the dual saturates.
    """
    rates = np.asarray(key_rate, dtype=float)
    if np.any(rates <= 0.0) or np.any(np.asarray(rho) <= 0.0) or n < 1:
        raise ValidationError("need key_rate > 0, rho > 0, n >= 1")
    with np.errstate(over="ignore"):
        total = n * rates
    return (model_exponent_dual(law, rho, total) + LN2) / n
