import itertools
import math

import numpy as np
import pytest

from guesswork import (
    CapExceededError,
    IidSource,
    Pmf,
    integer_bruteforce,
    lower_bound_finite,
    relaxed_optimum,
    renyi_entropy,
    n_letter_spectrum,
    sort_desc,
    spectrum,
    top_set,
    upper_bound_finite,
)
from oracles import correct_decoding_term, error_term, saturation_split_value

LN2 = math.log(2.0)


def pmf(*probs):
    return Pmf(list(probs))


def random_pmf(rng, size, concentration=1.0):
    return Pmf(rng.dirichlet(np.full(size, concentration)), tol=1e-9)


def active_lengths(p, result, n, rho, key_rate):
    """(lengths, value) rebuilt from a relaxed optimum's active set.

    The active set is the first ``active_set_size`` strings of ``sort_desc(p)``;
    each gets its tilted length ln Z - beta ln p, with Z the tilted sum of the
    set, and every other string +inf.  value = ln(Z^(1+rho) + F_c e^(rho n R))/n,
    F_c the mass outside the set, is what those lengths cost.
    """
    beta = 1.0 / (1.0 + rho)
    top = sort_desc(p)[:result.active_set_size]
    log_z = math.log(math.fsum((p.probs[top] ** beta).tolist())) if top.size else -math.inf
    lengths = np.full(p.size, math.inf)
    lengths[top] = log_z - beta * np.log(p.probs[top])
    mass_c = math.fsum(np.delete(p.probs, top).tolist())
    log_sat = math.log(mass_c) + rho * n * key_rate if mass_c > 0.0 else -math.inf
    return lengths, float(np.logaddexp((1.0 + rho) * log_z, log_sat)) / n


class TestTopSet:
    def test_everything_at_high_rate(self):
        summary = top_set(spectrum(pmf(0.7, 0.3)), 1, math.log(2.0) + 0.2, 1.0)
        assert summary.num_top == 2
        assert summary.mass_complement == 0.0

    def test_example(self):
        summary = top_set(spectrum(pmf(0.64, 0.16, 0.16, 0.04)), 2, 0.3, 1.0)
        assert summary.num_top == 1
        assert summary.mass == pytest.approx(0.64, abs=1e-15)
        assert summary.mass_complement == pytest.approx(0.36, abs=1e-15)

    def test_uniform_floor(self):
        summary = top_set(spectrum(pmf(0.25, 0.25, 0.25, 0.25)), 2, 0.6, 1.0)
        # floor(e^1.2) = 3
        assert summary.num_top == 3
        assert summary.mass == pytest.approx(0.75, abs=1e-15)

    def test_mass_split_sums_to_one(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            p = random_pmf(rng, int(rng.integers(2, 40)))
            summary = top_set(spectrum(p), 1, float(rng.uniform(0.05, 2.0)), 1.0)
            assert summary.mass + summary.mass_complement == pytest.approx(1.0, abs=1e-12)

    def test_integer_boundary_guard(self):
        # R = 2 ln2 / n must give exactly M = 4, not 3, despite libm rounding
        summary = top_set(spectrum(pmf(*([1.0 / 8] * 8))), 2, LN2, 1.0)
        assert summary.num_top == 4


class TestRelaxedOptimum:
    def test_campbell_regime(self):
        # no saturation: the value is the per-letter scaled order-1/(1+rho) entropy
        p = pmf(0.64, 0.16, 0.16, 0.04)
        for rho in (0.5, 1.0, 2.0):
            result = relaxed_optimum(spectrum(p), 2, rho, 50.0)
            assert result.value == pytest.approx(
                rho * renyi_entropy(p, 1.0 / (1.0 + rho)) / 2, abs=1e-12
            )
            assert result.active_set_size == 4

    def test_tiny_rate(self):
        # the all-saturated assignment pins the value at rho R from above;
        # a zero-length real codeword for the top string can only improve it
        p = pmf(0.64, 0.16, 0.16, 0.04)
        result = relaxed_optimum(spectrum(p), 2, 1.0, 1e-4)
        assert result.value <= 1e-4 + 1e-15
        assert result.value >= 0.0
        assert result.active_set_size <= 1

    def test_exp_kraft_tight_on_active_set(self):
        rng = np.random.default_rng(4)
        for _ in range(30):
            p = random_pmf(rng, int(rng.integers(2, 30)))
            rho, key_rate = float(rng.uniform(0.3, 2.0)), float(rng.uniform(0.1, 1.5))
            result = relaxed_optimum(spectrum(p), 1, rho, key_rate)
            lengths, value = active_lengths(p, result, 1, rho, key_rate)
            assert result.value == pytest.approx(value, abs=1e-12)
            finite = np.isfinite(lengths)
            assert int(finite.sum()) == result.active_set_size
            if result.active_set_size:
                assert math.fsum(np.exp(-lengths[finite]).tolist()) == pytest.approx(
                    1.0, abs=1e-9
                )

    def test_active_lengths_fit_under_cap(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            p = random_pmf(rng, int(rng.integers(2, 30)))
            n = int(rng.integers(1, 4))
            key_rate = float(rng.uniform(0.05, 1.0))
            result = relaxed_optimum(spectrum(p), n, 1.0, key_rate)
            lengths, _ = active_lengths(p, result, n, 1.0, key_rate)
            finite = np.isfinite(lengths)
            if finite.any():
                assert lengths[finite].max() <= n * key_rate + 1e-9

    def test_free_size_beats_fixed_top_set_kernel(self):
        rng = np.random.default_rng(6)
        for _ in range(40):
            law = spectrum(random_pmf(rng, int(rng.integers(2, 30))))
            n = int(rng.integers(1, 3))
            rho = float(rng.uniform(0.3, 2.0))
            key_rate = float(rng.uniform(0.05, 1.0))
            fixed = saturation_split_value(law, n, rho, key_rate) / n
            assert relaxed_optimum(law, n, rho, key_rate).value <= fixed + 1e-12

    def test_nondecreasing_in_rate_and_rho(self):
        law = spectrum(pmf(0.5, 0.25, 0.15, 0.1))
        values_r = [relaxed_optimum(law, 1, 1.0, r).value for r in np.arange(0.05, 1.4, 0.05)]
        assert all(b >= a - 1e-12 for a, b in zip(values_r, values_r[1:]))
        values_rho = [relaxed_optimum(law, 1, rho, 0.5).value for rho in np.arange(0.2, 3.0, 0.2)]
        assert all(b >= a - 1e-12 for a, b in zip(values_rho, values_rho[1:]))


class TestIntegerBruteforce:
    def test_fair_coin(self):
        value, lengths = integer_bruteforce(pmf(0.5, 0.5), 1.0, LN2, 1)
        assert lengths.tolist() == [1, 1]
        assert value == pytest.approx(LN2, abs=1e-14)

    def test_point_mass(self):
        value, lengths = integer_bruteforce(pmf(1.0), 1.0, 0.3, 1)
        assert value == pytest.approx(min(LN2, 0.3), abs=1e-14)

    def test_guard(self):
        with pytest.raises(CapExceededError):
            integer_bruteforce(pmf(*([1.0 / 11] * 11)), 1.0, 0.5, 1)

    def test_matches_direct_enumeration(self):
        # independent oracle: enumerate ordered length vectors directly,
        # including a deep saturated tier, with no multiset/assignment tricks
        rng = np.random.default_rng(8)
        for _ in range(20):
            size = int(rng.integers(2, 5))
            rho = float(rng.uniform(0.3, 2.0))
            key_rate = float(rng.uniform(0.1, 1.3))
            p = random_pmf(rng, size)
            best = math.inf
            for lengths in itertools.product(range(1, 12), repeat=size):
                if sum(2.0 ** -l for l in lengths) > 1.0 + 1e-12:
                    continue
                cost = sum(
                    px * math.exp(rho * min(l * LN2, key_rate))
                    for px, l in zip(p.probs, lengths)
                )
                best = min(best, cost)
            value, lengths = integer_bruteforce(p, rho, key_rate, 1)
            assert value == pytest.approx(math.log(best), abs=1e-12)
            # returned witness is feasible and achieves the value
            assert sum(2.0 ** -l for l in lengths.tolist()) <= 1.0 + 1e-12
            cost = sum(
                px * math.exp(rho * min(l * LN2, key_rate))
                for px, l in zip(p.probs, lengths.tolist())
            )
            assert math.log(cost) == pytest.approx(value, abs=1e-12)

    def test_example_bracket(self):
        p = pmf(0.7, 0.2, 0.1)
        rho, key_rate = 1.0, 0.5
        value, _ = integer_bruteforce(p, rho, key_rate, 1)
        relaxed = relaxed_optimum(spectrum(p), 1, rho, key_rate)
        assert relaxed.value <= value + 1e-12
        assert value <= relaxed.value + rho * LN2 + 1e-12


class TestSandwich:
    def test_random_instances(self):
        rng = np.random.default_rng(11)
        for _ in range(60):
            size = int(rng.integers(2, 11))
            rho = float(rng.uniform(0.2, 2.5))
            n = int(rng.integers(1, 4))
            key_rate = float(rng.uniform(0.05, 1.2))
            p = random_pmf(rng, size, float(rng.uniform(0.3, 3.0)))
            relaxed = relaxed_optimum(spectrum(p), n, rho, key_rate)
            value, _ = integer_bruteforce(p, rho, key_rate, n)
            assert relaxed.value <= value + 1e-12
            assert value <= relaxed.value + relaxed.slack + 1e-12


class TestErrorTerm:
    def test_no_error_at_full_rate(self):
        assert error_term(spectrum(pmf(0.7, 0.3)), 1, math.log(2.0)) == -math.inf

    def test_example(self):
        assert error_term(spectrum(pmf(0.8, 0.2)), 1, 0.5) == pytest.approx(
            math.log(0.2), abs=1e-14
        )

    def test_uniform(self):
        p = pmf(*([0.125] * 8))
        value = error_term(spectrum(p), 1, 0.8)
        m = math.floor(math.exp(0.8))
        assert value == pytest.approx(math.log(1.0 - m / 8.0), abs=1e-12)


class TestCorrectDecodingTerm:
    def test_small_rho_recovers_log_mass(self):
        key_rate = 0.5
        law = spectrum(pmf(0.8, 0.15, 0.05))
        tiny = correct_decoding_term(law, 1, 1e-9, key_rate)
        summary = top_set(law, 1, key_rate, 1e-9)
        assert tiny == pytest.approx(math.log(summary.mass), abs=1e-6)

    def test_full_set_is_renyi(self):
        p = pmf(0.6, 0.3, 0.1)
        rho = 1.0
        value = correct_decoding_term(spectrum(p), 1, rho, 5.0)
        assert value == pytest.approx(rho * renyi_entropy(p, 0.5), abs=1e-12)

    def test_example(self):
        value = correct_decoding_term(spectrum(pmf(0.64, 0.16, 0.16, 0.04)), 2, 1.0, 0.3)
        assert value == pytest.approx(math.log(0.8), abs=1e-14)

    def test_nondecreasing_in_rate(self):
        law = spectrum(pmf(0.5, 0.25, 0.15, 0.1))
        values = [correct_decoding_term(law, 1, 1.0, r) for r in np.arange(0.05, 1.6, 0.05)]
        assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))


class TestLowerUpperBounds:
    def test_error_branch_gone_at_full_rate(self):
        law = spectrum(pmf(0.7, 0.3))
        bound = lower_bound_finite(law, 1, 1.0, math.log(2.0))
        assert bound.value == correct_decoding_term(law, 1, 1.0, math.log(2.0))

    def test_error_branch_dominates_near_uniform_small_rate(self):
        law = spectrum(pmf(0.26, 0.25, 0.25, 0.24))
        key_rate = 0.05
        bound = lower_bound_finite(law, 1, 1.0, key_rate)
        assert bound.value == pytest.approx(
            1.0 * key_rate + error_term(law, 1, key_rate), abs=1e-12
        )

    def test_theta_endpoints(self):
        p = pmf(0.8, 0.2)
        rho = 1.0
        upper_sat = upper_bound_finite(spectrum(p), 1, rho, 50.0)
        assert upper_sat == pytest.approx(rho * renyi_entropy(p, 0.5) + LN2, abs=1e-9)
        upper_linear = upper_bound_finite(spectrum(p), 1, rho, 1e-4)
        assert upper_linear == pytest.approx(rho * 1e-4 + LN2, abs=1e-9)

    def test_sandwich_with_slack(self):
        rng = np.random.default_rng(13)
        for _ in range(200):
            size = int(rng.integers(2, 40))
            rho = float(rng.uniform(0.2, 2.5))
            n = int(rng.integers(1, 4))
            key_rate = float(rng.uniform(0.05, 1.5))
            law = spectrum(random_pmf(rng, size, float(rng.uniform(0.3, 3.0))))
            lower = lower_bound_finite(law, n, rho, key_rate)
            mid = relaxed_optimum(law, n, rho, key_rate).value
            upper = upper_bound_finite(law, n, rho, key_rate)
            assert lower.value - lower.slack <= mid + 1e-12
            assert mid <= upper + 1e-12

    def test_cross_check_binary_n8(self):
        model = IidSource(pmf(0.8, 0.2))
        law = n_letter_spectrum(model, 8)
        lower = lower_bound_finite(law, 8, 1.0, 0.3)
        relaxed = relaxed_optimum(law, 8, 1.0, 0.3)
        upper = upper_bound_finite(law, 8, 1.0, 0.3)
        assert lower.value - lower.slack <= relaxed.value <= upper + 1e-12


class TestSaturationSplitIdentity:
    def test_two_block_variational_grid(self):
        # independent 1-D oracle over the split mass F: maximize
        # rho F H_{1/(1+rho)}(top-conditional) + (1-F) rho n R - D(F || F_X)
        rng = np.random.default_rng(17)
        for _ in range(20):
            size = int(rng.integers(3, 20))
            p = random_pmf(rng, size)
            n = 1
            rho = float(rng.uniform(0.3, 2.0))
            key_rate = float(rng.uniform(0.1, 1.0))
            summary = top_set(spectrum(p), n, key_rate, rho)
            if summary.mass_complement <= 1e-12 or summary.mass <= 1e-12:
                continue
            top = p.probs[sort_desc(p)[:summary.num_top]] / summary.mass
            h_top = rho * (1.0 + rho) / rho * math.log(
                math.fsum((top ** (1.0 / (1.0 + rho))).tolist())
            )

            # dense scan of the concave objective over the split mass: with
            # 2e5 points the grid step costs far less than the tolerance
            f = np.linspace(1e-9, 1.0 - 1e-9, 200_001)
            kl = f * np.log(f / summary.mass) + (1.0 - f) * np.log(
                (1.0 - f) / summary.mass_complement
            )
            best = float((f * h_top + (1.0 - f) * rho * n * key_rate - kl).max())
            assert best == pytest.approx(
                saturation_split_value(spectrum(p), n, rho, key_rate), abs=1e-6
            )
