"""Guessing orders, Kraft-feasible bit-length functions, and the saturated moment.

A guessing order and a length function are two views of the same attack
resource: sorting by ascending length gives an order whose rank never
exceeds 2^length, and any order converts back to Kraft-feasible lengths
at the cost of a harmonic-number constant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .sources import Pmf

LN2 = math.log(2.0)
KRAFT_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class LengthFunction:
    """Codeword bit lengths, indexed like the PMF they serve.

    Lengths are positive integers.  Kraft feasibility is an invariant of
    meaningful instances but is checked by the operations that need it,
    so that infeasible candidates can still be inspected.
    """

    lengths: np.ndarray

    def __post_init__(self):
        arr = np.array(self.lengths, dtype=int)
        if arr.ndim != 1 or arr.size == 0:
            raise ValidationError("lengths must form a nonempty 1-D vector")
        if np.any(arr < 1):
            raise ValidationError("zero-length codewords are disallowed; minimum is 1 bit")
        arr.setflags(write=False)
        object.__setattr__(self, "lengths", arr)

    @property
    def size(self) -> int:
        return int(self.lengths.size)


@dataclass(frozen=True, eq=False)
class GuessOrder:
    """A bijection from string index to guess number in 1..N."""

    rank: np.ndarray

    def __post_init__(self):
        arr = np.array(self.rank, dtype=int)
        if arr.ndim != 1 or arr.size == 0:
            raise ValidationError("ranks must form a nonempty 1-D vector")
        if not np.array_equal(np.sort(arr), np.arange(1, arr.size + 1)):
            raise ValidationError("ranks must be a permutation of 1..N")
        arr.setflags(write=False)
        object.__setattr__(self, "rank", arr)

    @property
    def size(self) -> int:
        return int(self.rank.size)

    def sequence(self) -> np.ndarray:
        """String indices in the order they are guessed."""
        return np.argsort(self.rank, kind="stable")


def kraft_sum(lf: LengthFunction) -> float:
    """Sum of 2^-L(x) over all strings.

    Each term is an exact power of two (0 below the subnormal range), so
    the compensated sum is the exactly rounded total.
    """
    return math.fsum(np.ldexp(1.0, -lf.lengths).tolist())


def harmonic_number(n_strings: int) -> float:
    """H_N = sum of 1/i for i = 1..N, the order-to-length conversion constant.

    Up to 2^12 terms the reciprocals are added smallest first by numpy's
    pairwise summation; beyond, the Euler-Maclaurin expansion to 1/N^4
    (within a few ulps, without an array of N terms).  From N = 2^255 on,
    where N^4 nears the float range, its corrections are below an ulp and
    H_N = ln N + gamma.
    """
    if n_strings < 1:
        raise ValidationError("need at least one string")
    if n_strings <= 2 ** 12:
        return float(np.add.reduce(1.0 / np.arange(n_strings, 0, -1.0)))
    euler_gamma = 0.5772156649015328606
    if n_strings >= 2 ** 255:
        return math.log(n_strings) + euler_gamma
    n = float(n_strings)
    return (math.log(n) + euler_gamma + 1.0 / (2 * n)
            - 1.0 / (12 * n ** 2) + 1.0 / (120 * n ** 4))


def order_from_lengths(lf: LengthFunction) -> GuessOrder:
    """Guess in ascending length order; ties by ascending index.

    Requires Kraft feasibility, which guarantees rank(x) <= 2^L(x) for
    every string: there are at most 2^l codewords of length at most l.
    """
    if kraft_sum(lf) > 1.0 + KRAFT_TOL:
        raise ValidationError("lengths violate Kraft's inequality")
    order = np.argsort(lf.lengths, kind="stable")
    rank = np.empty(lf.size, dtype=int)
    rank[order] = np.arange(1, lf.size + 1)
    return GuessOrder(rank)


def lengths_from_order(order: GuessOrder) -> LengthFunction:
    """Convert an order to lengths via L(x) = ceil(log2(H_N * rank(x))).

    The result is always Kraft-feasible (sum 2^-L <= sum 1/(H_N i) = 1) and
    satisfies L(x) - 1 - log2(H_N) <= log2 rank(x) <= L(x) for every x.
    The single-string case is pinned to one bit.
    """
    c = harmonic_number(order.size)
    lengths = np.maximum(
        1, np.ceil(np.log2(c * order.rank.astype(float))).astype(int)
    )
    return LengthFunction(lengths)


def interleave(order_a: GuessOrder, list_b) -> GuessOrder:
    """Alternate between ``order_a`` and the index sequence ``list_b``.

    Already-guessed strings are skipped; duplicates in ``list_b`` are
    allowed and skipped.  Every string lands within twice the better of
    its two individual positions.
    """
    n = order_a.size
    seq_a = order_a.sequence()
    seq_b = [int(x) for x in list_b]
    for x in seq_b:
        if not 0 <= x < n:
            raise ValidationError("second list contains an out-of-range index")
    rank = np.zeros(n, dtype=int)
    next_rank = 1
    ia = ib = 0
    take_a = True
    while next_rank <= n:
        if take_a:
            while ia < n and rank[seq_a[ia]] != 0:
                ia += 1
            if ia < n:
                rank[seq_a[ia]] = next_rank
                next_rank += 1
            take_a = False
        else:
            while ib < len(seq_b) and rank[seq_b[ib]] != 0:
                ib += 1
            if ib < len(seq_b):
                rank[seq_b[ib]] = next_rank
                next_rank += 1
            elif ia >= n:
                break
            take_a = True
    return GuessOrder(rank)


def log_saturated_moment(lf: LengthFunction, p: Pmf, rho: float, n: int, key_rate: float) -> float:
    """ln E[exp(rho * min(L(x) ln 2, n * key_rate))], stable for large exponents."""
    if lf.size != p.size:
        raise ValidationError("lengths and distribution must share one index set")
    if rho <= 0.0 or key_rate <= 0.0 or n < 1:
        raise ValidationError("need rho > 0, key_rate > 0, n >= 1")
    cap = n * key_rate
    exponents = rho * np.minimum(lf.lengths * LN2, cap)
    mask = p.probs > 0.0
    if not np.any(mask):
        raise ValidationError("distribution has empty support")
    terms = np.log(p.probs[mask]) + exponents[mask]
    peak = float(terms.max())
    rest = math.fsum((math.exp(t - peak) for t in terms.tolist()))
    return peak + math.log(rest)


def saturated_moment(lf: LengthFunction, p: Pmf, rho: float, n: int, key_rate: float) -> float:
    """E[exp(rho * min(L(x) ln 2, n * key_rate))], the key-capped exponential cost:
    the exponential of :func:`log_saturated_moment`.

    Costs grow exponentially in the bit length but saturate at
    exp(rho * n * key_rate), the price of exhausting the key space.
    """
    return math.exp(log_saturated_moment(lf, p, rho, n, key_rate))
