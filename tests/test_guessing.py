import math
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from guesswork import (
    GuessOrder,
    LengthFunction,
    Pmf,
    ValidationError,
    harmonic_number,
    interleave,
    kraft_sum,
    lengths_from_order,
    order_from_lengths,
    saturated_moment,
)
from oracles import moment

LN2 = math.log(2.0)


class TestKraftSum:
    def test_complete_binary(self):
        assert kraft_sum(LengthFunction([1, 1])) == 1.0

    def test_unbalanced_complete(self):
        assert kraft_sum(LengthFunction([1, 2, 2])) == 1.0

    def test_violating(self):
        assert kraft_sum(LengthFunction([1, 1, 1])) == 1.5

    def test_min_length_one(self):
        with pytest.raises(ValidationError):
            LengthFunction([0, 1])

    def test_subnormal_and_underflowing_terms(self):
        # 2^-1074 is the smallest subnormal; longer codewords add nothing
        assert kraft_sum(LengthFunction([1, 1075, 2000, 10 ** 12])) == 0.5
        assert kraft_sum(LengthFunction([1074])) == 5e-324
        assert kraft_sum(LengthFunction([1023, 1074, 1074])) == 2.0 ** -1023 + 2.0 ** -1073

    def test_equals_sum_of_python_powers(self):
        rng = np.random.default_rng(13)
        for _ in range(200):
            lengths = rng.integers(1, 1100, size=int(rng.integers(1, 300)))
            assert kraft_sum(LengthFunction(lengths)) == math.fsum(
                2.0 ** (-int(l)) for l in lengths)


class TestHarmonicNumber:
    def test_two(self):
        assert harmonic_number(2) == 1.5

    def test_four(self):
        assert harmonic_number(4) == pytest.approx(25.0 / 12.0, abs=1e-15)

    def test_log_bound(self):
        for n in (1, 2, 10, 1000, 2 ** 16):
            assert harmonic_number(n) <= 1.0 + math.log(n) + 1e-12

    def test_large_n_consistent(self):
        # Euler-Maclaurin branch agrees with direct summation past the crossover
        direct = float(np.add.reduce(1.0 / np.arange(2 ** 20 + 5, 0, -1.0)))
        assert harmonic_number(2 ** 20 + 5) == pytest.approx(direct, abs=1e-10)

    def test_within_four_ulps_past_the_summed_range(self):
        # from 2^12 + 1 terms on the value is the Euler-Maclaurin expression
        with mpmath.workdps(40):
            for count in (2 ** 12 + 1, 2 ** 16, 2 ** 20, 2 ** 20 + 5):
                exact = float(mpmath.harmonic(count))
                assert abs(harmonic_number(count) - exact) <= 4 * math.ulp(exact), count

    def test_bounded_memory(self):
        tracemalloc.start()
        try:
            harmonic_number(2 ** 20)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 256 * 1024

    def test_finite_past_the_float_range(self):
        # from 2^255 on the Euler-Maclaurin corrections are below an ulp of ln N
        gamma = 0.5772156649015328606
        for count in (2 ** 255, 2 ** 255 + 12345, 2 ** 256 - 2 ** 203):
            n = float(count)
            assert harmonic_number(count) == (math.log(n) + gamma + 1.0 / (2 * n)
                                              - 1.0 / (12 * n ** 2) + 1.0 / (120 * n ** 4))
        for count in (2 ** 256, 2 ** 1024 - 1, 2 ** 5000):
            assert harmonic_number(count) == math.log(count) + gamma


class TestOrderFromLengths:
    def test_sorts_by_length(self):
        order = order_from_lengths(LengthFunction([2, 1, 2]))
        assert order.rank.tolist() == [2, 1, 3]

    def test_ties_by_index(self):
        order = order_from_lengths(LengthFunction([2, 2, 2, 2]))
        assert order.rank.tolist() == [1, 2, 3, 4]

    def test_rank_within_budget(self):
        order = order_from_lengths(LengthFunction([1, 2, 2]))
        budget = 2.0 ** np.array([1, 2, 2])
        assert np.all(order.rank <= budget)

    def test_rejects_kraft_violation(self):
        with pytest.raises(ValidationError):
            order_from_lengths(LengthFunction([1, 1, 1]))

    @settings(max_examples=100, derandomize=True)
    @given(st.integers(min_value=0, max_value=2 ** 31 - 1))
    def test_rank_budget_random(self, seed):
        rng = np.random.default_rng(seed)
        size = int(rng.integers(1, 40))
        # random Kraft-feasible lengths via a random complete-tree split
        lengths = sorted(rng.integers(1, 12, size=size).tolist())
        while sum(2.0 ** -l for l in lengths) > 1.0:
            lengths[lengths.index(min(lengths))] += 1
        lf = LengthFunction(lengths)
        order = order_from_lengths(lf)
        assert np.all(order.rank <= 2.0 ** lf.lengths)


class TestLengthsFromOrder:
    def test_two_strings(self):
        lf = lengths_from_order(GuessOrder([1, 2]))
        assert lf.lengths.tolist() == [1, 2]
        assert kraft_sum(lf) == 0.75

    def test_singleton(self):
        lf = lengths_from_order(GuessOrder([1]))
        assert lf.lengths.tolist() == [1]

    def test_four_strings(self):
        # ceil(log2(H_4 * i)) for H_4 = 25/12: (2, 3, 3, 4)
        lf = lengths_from_order(GuessOrder([1, 2, 3, 4]))
        assert lf.lengths.tolist() == [2, 3, 3, 4]
        assert kraft_sum(lf) == pytest.approx(0.5625, abs=1e-15)

    @settings(max_examples=200, derandomize=True)
    @given(st.integers(min_value=0, max_value=2 ** 31 - 1))
    def test_kraft_and_sandwich_random(self, seed):
        rng = np.random.default_rng(seed)
        size = int(rng.integers(1, 1025))
        order = GuessOrder(rng.permutation(size) + 1)
        lf = lengths_from_order(order)
        assert kraft_sum(lf) <= 1.0 + 1e-12
        c = harmonic_number(size)
        log_rank = np.log2(order.rank.astype(float))
        assert np.all(log_rank <= lf.lengths + 1e-9)
        assert np.all(lf.lengths - 1.0 - math.log2(c) <= log_rank + 1e-9)


class TestInterleave:
    def test_three_element_merge(self):
        order = GuessOrder([1, 2, 3])  # guesses 0, 1, 2
        merged = interleave(order, [2, 0, 1])
        assert merged.rank.tolist() == [1, 3, 2]

    def test_empty_second_list(self):
        order = GuessOrder([2, 1, 3])
        assert interleave(order, []).rank.tolist() == [2, 1, 3]

    def test_identical_lists(self):
        order = GuessOrder([1, 2, 3])
        assert interleave(order, [0, 1, 2]).rank.tolist() == [1, 2, 3]

    def test_duplicates_skipped(self):
        order = GuessOrder([1, 2, 3, 4])
        merged = interleave(order, [3, 3, 3])
        assert sorted(merged.rank.tolist()) == [1, 2, 3, 4]

    def test_rejects_out_of_range(self):
        with pytest.raises(ValidationError):
            interleave(GuessOrder([1, 2]), [0, 5])

    @settings(max_examples=200, derandomize=True)
    @given(st.integers(min_value=0, max_value=2 ** 31 - 1))
    def test_factor_two_bound(self, seed):
        rng = np.random.default_rng(seed)
        size = int(rng.integers(1, 50))
        order = GuessOrder(rng.permutation(size) + 1)
        seq_b = rng.integers(0, size, size=int(rng.integers(0, 2 * size))).tolist()
        merged = interleave(order, seq_b)
        pos_b = np.full(size, math.inf)
        for j, x in enumerate(seq_b):
            pos_b[x] = min(pos_b[x], j + 1)
        assert np.all(merged.rank <= 2 * np.minimum(order.rank, pos_b))


class TestMoment:
    def test_point_mass_first_guess(self):
        order = GuessOrder([1, 2])
        for rho in (0.5, 1.0, 3.0):
            assert moment(order, Pmf([1.0, 0.0]), rho) == 1.0

    def test_uniform_two(self):
        assert moment(GuessOrder([1, 2]), Pmf([0.5, 0.5]), 1.0) == 1.5

    def test_descending_four(self):
        p = Pmf([0.4, 0.3, 0.2, 0.1])
        assert moment(GuessOrder([1, 2, 3, 4]), p, 1.0) == pytest.approx(2.0, abs=1e-15)

    def test_descending_order_optimal(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            p = Pmf(rng.dirichlet(np.ones(6)), tol=1e-9)
            rho = float(rng.uniform(0.2, 3.0))
            desc = np.empty(6, dtype=int)
            desc[np.argsort(-p.probs, kind="stable")] = np.arange(1, 7)
            best = moment(GuessOrder(desc), p, rho)
            other = moment(GuessOrder(rng.permutation(6) + 1), p, rho)
            assert best <= other + 1e-12


class TestSaturatedMoment:
    def test_no_saturation_is_exponential_cost(self):
        p = Pmf([0.5, 0.3, 0.2])
        lf = LengthFunction([1, 2, 2])
        rho = 0.7
        huge = 100.0
        expected = sum(px * 2.0 ** (rho * l) for px, l in zip(p.probs, lf.lengths))
        assert saturated_moment(lf, p, rho, 1, huge) == pytest.approx(expected, rel=1e-14)

    def test_full_saturation(self):
        p = Pmf([0.5, 0.5])
        lf = LengthFunction([3, 3])
        assert saturated_moment(lf, p, 1.0, 1, 0.5) == pytest.approx(
            math.exp(0.5), rel=1e-14
        )

    def test_mixed(self):
        p = Pmf([0.5, 0.5])
        lf = LengthFunction([1, 1])
        assert saturated_moment(lf, p, 1.0, 1, 0.5) == pytest.approx(
            1.6487212707001281, abs=1e-14
        )

    @pytest.mark.parametrize("lengths, rho, key_rate", [
        ([1, 1], -1.0, 0.5), ([1, 1], 0.0, 0.5), ([1, 1], 1.0, 0.0), ([1, 1], 1.0, -0.5),
        ([1, 2, 2], 1.0, 0.5),
    ])
    def test_refusals_at_small_exponent(self, lengths, rho, key_rate):
        # a small exponent rho n R gets every input check too
        with pytest.raises(ValidationError):
            saturated_moment(LengthFunction(lengths), Pmf([0.5, 0.5]), rho, 1, key_rate)

    def test_log_domain_guard(self):
        p = Pmf([0.5, 0.5])
        lf = LengthFunction([1, 1])
        # rho * n * R = 1200: value overflows but the log-domain path holds
        value = saturated_moment(lf, p, 2.0, 600, 1.0)
        assert value == pytest.approx(math.exp(2.0 * math.log(2.0)), rel=1e-12)

    def test_moment_below_campbell_cost(self):
        # converting lengths to an order never beats the exponential cost
        rng = np.random.default_rng(9)
        for _ in range(30):
            size = int(rng.integers(2, 20))
            lengths = sorted(rng.integers(1, 10, size=size).tolist())
            while sum(2.0 ** -l for l in lengths) > 1.0:
                lengths[lengths.index(min(lengths))] += 1
            lf = LengthFunction(lengths)
            p = Pmf(rng.dirichlet(np.ones(size)), tol=1e-9)
            rho = float(rng.uniform(0.2, 2.5))
            order = order_from_lengths(lf)
            campbell = sum(px * 2.0 ** (rho * l) for px, l in zip(p.probs, lf.lengths))
            assert moment(order, p, rho) <= campbell * (1.0 + 1e-12)
