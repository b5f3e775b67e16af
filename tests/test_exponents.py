import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import guesswork
from guesswork import (
    CapExceededError,
    ExplicitSource,
    IidSource,
    MarkovSource,
    Pmf,
    UnifilarSource,
    ValidationError,
    build_curve,
    decomposition_check,
    entropy,
    certified_exponent,
    iid_correct_term,
    iid_error_exponent,
    iid_exponent_grid,
    model_exponent_dual,
    n_letter_spectrum,
    pressure,
    pressure_slope,
    renyi_entropy,
    spectrum,
)
from guesswork.errors import NumericError
from guesswork import sources
from guesswork.exponents import _simplex_grid, variational_identity_checks
from guesswork.optimize import bracketed_roots
from guesswork.sources import chain_source, power_form
from guesswork.verify import (
    _random_pmf,
    _rng,
    _tilted_blocks,
    check_markov_dual,
    check_renyi_variational,
    check_tilted_identity,
)
from oracles import (
    divergence,
    legendre_fenchel,
    markov_renyi_rate,
    materialize,
    renyi_entropy_rate,
    support_indices,
    tilt,
    variational_identity_check,
)

LN2 = math.log(2.0)


def pmf(*probs):
    return Pmf(list(probs))


P82 = pmf(0.8, 0.2)
H_P82 = 0.50040242353818788
EMAX_P82 = 0.587786664902119  # order-1/2 entropy


class TestIidDual:
    def test_linear_regime(self):
        for rho in (0.5, 1.0, 2.0):
            for r in (0.05, 0.2, 0.4, H_P82):
                assert model_exponent_dual(IidSource(P82), rho, r) == pytest.approx(
                    rho * r, abs=1e-9)

    def test_saturated_regime(self):
        assert model_exponent_dual(IidSource(P82), 1.0, 1.0) == pytest.approx(EMAX_P82, abs=1e-9)
        assert model_exponent_dual(IidSource(P82), 1.0, LN2) == pytest.approx(EMAX_P82, abs=1e-9)

    def test_uniform_source(self):
        u = pmf(0.25, 0.25, 0.25, 0.25)
        for r in (0.3, 1.0, 1.7):
            assert model_exponent_dual(IidSource(u), 1.0, r) == pytest.approx(
                min(r, math.log(4.0)), abs=1e-9
            )

    def test_monotone_concave_in_rate(self):
        rates = np.arange(0.05, 0.7, 0.01)
        values = np.array([model_exponent_dual(IidSource(P82), 1.0, r) for r in rates.tolist()])
        assert np.all(np.diff(values) >= -1e-10)
        assert np.all(np.diff(values, 2) <= 1e-8)

    def test_convex_nondecreasing_in_rho(self):
        rhos = np.arange(0.1, 3.0, 0.05)
        values = np.array([model_exponent_dual(IidSource(P82), rho, 0.55)
                           for rho in rhos.tolist()])
        assert np.all(np.diff(values) >= -1e-10)
        slopes = np.diff(values) / np.diff(rhos)
        assert np.all(np.diff(slopes) >= -1e-7)


_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


def scalar_dual(model, rho: float, key_rate: float) -> tuple:
    """(value, scan argmin) of one rate by a per-rate scan and scalar golden section.

    This is a direct minimization of the dual objective, with no use of
    the pressure slope, kept as the reference the root solve must match.
    """
    form = power_form(model)
    thetas = np.linspace(0.0, rho, 1024)
    values = (rho - thetas) * key_rate + pressure(form, thetas)

    def f(theta):
        return (rho - theta) * key_rate + float(pressure(form, theta))

    i = int(np.argmin(values))
    best = float(values[i])
    a, b = float(thetas[max(i - 1, 0)]), float(thetas[min(i + 1, thetas.size - 1)])
    if b > a:
        c, d = b - _INVPHI * (b - a), a + _INVPHI * (b - a)
        fc, fd = f(c), f(d)
        for _ in range(256):
            if b - a <= 1e-12 * (1.0 + abs(a) + abs(b)):
                break
            if fc <= fd:
                b, d, fd = d, c, fc
                c = b - _INVPHI * (b - a)
                fc = f(c)
            else:
                a, c, fc = c, d, fd
                d = a + _INVPHI * (b - a)
                fd = f(d)
        refined = f(0.5 * (a + b))
        if refined < best:
            best = refined
    return best, i


def _simplex(draw, size, zeros=False):
    weights = draw(st.lists(st.floats(0.05, 1.0), min_size=size, max_size=size))
    if zeros:
        mask = draw(st.lists(st.booleans(), min_size=size, max_size=size))
        weights = [0.0 if z else w for w, z in zip(weights, mask)]
        if not any(weights):
            weights[0] = 1.0
    total = math.fsum(weights)
    return [w / total for w in weights]


@st.composite
def dual_models(draw):
    """(model, rate scale): iid, Markov with zero transitions, unifilar, or a finite law."""
    kind = draw(st.sampled_from(["iid", "markov", "unifilar", "finite"]))
    if kind == "iid":
        return IidSource(Pmf(_simplex(draw, draw(st.integers(2, 4)), zeros=True))), 1
    if kind == "markov":
        k = draw(st.integers(2, 3))
        rows = []
        for s in range(k):
            row = _simplex(draw, k, zeros=True)
            # a positive step s -> s+1 keeps the chain irreducible around its zeros
            row[(s + 1) % k] += 0.1
            rows.append([x / math.fsum(row) for x in row])
        return MarkovSource(Pmf([1.0 / k] * k), np.array(rows)), 1
    if kind == "unifilar":
        emission = tuple(Pmf(_simplex(draw, 2)) for _ in range(2))
        return UnifilarSource(Pmf(_simplex(draw, 2)), np.array([[0, 1], [1, 0]]), emission), 1
    n = draw(st.integers(1, 6))
    return n_letter_spectrum(IidSource(Pmf(_simplex(draw, draw(st.integers(2, 3))))), n), n


def mp_iid_dual(probs, rho: float, key_rate: float) -> float:
    """The iid dual at 50 digits: bisection on P'(theta) = R, clamped to [0, rho]."""
    with mpmath.workdps(50):
        p = [mpmath.mpf(x) for x in probs if x > 0.0]
        rho, rate = mpmath.mpf(rho), mpmath.mpf(key_rate)

        def pressure_at(theta):
            return (1 + theta) * mpmath.log(mpmath.fsum(x ** (1 / (1 + theta)) for x in p))

        def slope(theta):
            beta = 1 / (1 + theta)
            lam = mpmath.fsum(x ** beta for x in p)
            return mpmath.log(lam) - beta * mpmath.fsum(x ** beta * mpmath.log(x) for x in p) / lam

        if slope(0) >= rate:
            theta = mpmath.mpf(0)
        elif slope(rho) <= rate:
            theta = rho
        else:
            a, b = mpmath.mpf(0), rho
            for _ in range(200):
                mid = (a + b) / 2
                a, b = (mid, b) if slope(mid) < rate else (a, mid)
            theta = (a + b) / 2
        return float((rho - theta) * rate + pressure_at(theta))


class TestLockStepDual:
    @settings(max_examples=40, deadline=None)
    @given(dual_models(), st.floats(0.05, 4.0),
           st.lists(st.floats(1e-3, 2.5), min_size=1, max_size=8))
    def test_matches_scalar_oracle(self, drawn, rho, rates):
        model, scale = drawn
        # a linear-regime rate (theta = 0) and a saturated one (theta = rho)
        rates = np.array(rates + [1e-3, 50.0]) * scale
        dual = model_exponent_dual(model, rho, rates)
        oracle = [scalar_dual(model, rho, r)[0] for r in rates.tolist()]
        assert np.abs(dual - oracle).max() <= 1e-12

    @settings(max_examples=40, deadline=None)
    @given(st.integers(2, 4).flatmap(
        lambda k: st.lists(st.floats(0.05, 1.0), min_size=k, max_size=k)),
           st.lists(st.booleans(), min_size=4, max_size=4),
           st.floats(0.05, 4.0), st.lists(st.floats(1e-3, 2.5), min_size=1, max_size=8))
    def test_iid_matches_mpmath(self, weights, zeros, rho, rates):
        weights = [0.0 if z else w for w, z in zip(weights, zeros)]
        if not any(weights):
            weights[0] = 1.0
        p = Pmf([w / math.fsum(weights) for w in weights])
        rates = rates + [1e-3, 50.0]
        dual = model_exponent_dual(IidSource(p), rho, np.array(rates))
        oracle = [mp_iid_dual(p.probs.tolist(), rho, r) for r in rates]
        assert np.abs(dual - oracle).max() <= 1e-13

    def test_brackets_at_both_grid_ends(self):
        # the oracle's scan minimum sits at theta = 0 and theta = rho, and the
        # dual's clamped cells take exactly rho R + P(0) and P(rho)
        for r, end, theta in ((1e-3, 0, 0.0), (50.0, 1023, 1.0)):
            value, i = scalar_dual(IidSource(P82), 1.0, r)
            assert i == end
            dual = model_exponent_dual(IidSource(P82), 1.0, np.array([r, 0.55]))[0]
            assert dual == pytest.approx(value, abs=1e-12)
            assert dual == (1.0 - theta) * r + pressure(IidSource(P82), np.array([theta]))[0]

    def test_clamped_cells_solve_nothing(self, monkeypatch):
        # every cell in the linear or the saturated regime: the root solve gets no cell
        sizes = []

        def spy(g, a, *args):
            sizes.append(np.size(a))
            return bracketed_roots(g, a, *args)

        monkeypatch.setattr(guesswork.exponents, "bracketed_roots", spy)
        model = MarkovSource(Pmf([0.5, 0.5]), np.array([[0.9, 0.1], [0.3, 0.7]]))
        model_exponent_dual(model, np.array([[0.5], [2.0]]), np.array([0.05, 0.2, 0.69]))
        model_exponent_dual(model, 1.0, np.array([0.05, 0.5, 0.69]))
        assert sizes == [0, 1]

    def test_blocks_of_rates(self):
        # 150 rates across all three regimes, each against its own scalar refinement
        model = MarkovSource(Pmf([0.5, 0.5]), np.array([[0.9, 0.1], [0.3, 0.7]]))
        rates = np.linspace(0.01, 1.0, 150)
        dual = model_exponent_dual(model, 2.0, rates)
        oracle = [scalar_dual(model, 2.0, r)[0] for r in rates.tolist()]
        assert np.abs(dual - oracle).max() <= 1e-12
        assert model_exponent_dual(model, 2.0, rates.reshape(10, 15)).shape == (10, 15)

    def test_empty_rate_array(self):
        assert model_exponent_dual(IidSource(P82), 1.0, np.array([])).shape == (0,)

    def test_reducible_unifilar_is_refused(self):
        # from state 0 the source never leaves it; the single-letter dual is
        # not that of the whole state chain, so the model is refused
        model = UnifilarSource(Pmf([1.0, 0.0]), np.array([[0, 0], [1, 1]]),
                               (pmf(0.99, 0.01), pmf(0.5, 0.5)))
        with pytest.raises(ValidationError, match="reducible"):
            model_exponent_dual(model, 1.0, 0.3)

    def test_reducible_unifilar_has_no_pressure(self):
        # the whole chain's pressure at theta = 1 is ln 2, the start state's 0.181:
        # every reader of the pressure refuses the model, not only the dual
        model = UnifilarSource(Pmf([1.0, 0.0]), np.array([[0, 0], [1, 1]]),
                               (pmf(0.99, 0.01), pmf(0.5, 0.5)))
        for read in (lambda: pressure(model, 1.0), lambda: renyi_entropy_rate(model, 0.5),
                     lambda: build_curve(model, [1.0], [0.3])):
            with pytest.raises(ValidationError, match="reducible"):
                read()

    @pytest.mark.parametrize("model", [
        MarkovSource(Pmf([0.5, 0.5]), np.array([[0.9, 0.1], [0.3, 0.7]])),
        UnifilarSource(pmf(1.0, 0.0), np.array([[0, 1], [1, 0]]),
                       (pmf(0.6, 0.4), pmf(0.25, 0.75))),
    ], ids=["markov", "unifilar"])
    def test_one_irreducibility_check_per_call(self, model, monkeypatch):
        # the form is checked once, when it is built, not at every root-finder step
        calls = []
        real = sources.is_irreducible

        def counting(transition):
            calls.append(transition)
            return real(transition)

        monkeypatch.setattr(sources, "is_irreducible", counting)
        rates = np.linspace(0.05, 1.15, 23)
        dual = model_exponent_dual(model, 1.0, rates)
        assert len(calls) == 1
        # the rates span all three regimes, so the root finder ran
        assert dual[0] == pytest.approx(rates[0], rel=1e-12) and np.ptp(dual[-3:]) == 0.0

    def test_infinite_rate_saturates(self):
        # a saturated cell takes P(rho) without forming 0 x inf
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            dual = model_exponent_dual(IidSource(P82), 1.0, [math.inf, 0.3])
        assert dual.tolist() == [float(pressure(IidSource(P82), 1.0)), 0.3]
        assert dual[0] == pytest.approx(2.0 * math.log(math.sqrt(0.8) + math.sqrt(0.2)),
                                        rel=1e-15)
        for rho in (math.inf, math.nan):
            with pytest.raises(ValidationError):
                model_exponent_dual(IidSource(P82), rho, 0.3)

    @settings(max_examples=40, deadline=None)
    @given(dual_models(), st.lists(st.floats(0.05, 4.0), min_size=1, max_size=4),
           st.lists(st.floats(1e-3, 2.5), min_size=1, max_size=8))
    def test_rho_array_matches_per_rho_calls(self, drawn, rhos, rates):
        # one call over a (rho, R) grid solves every cell in lock-step, and each
        # cell comes out as its own rho's call makes it, bit for bit
        model, scale = drawn
        rates = np.array(rates + [1e-3, 50.0]) * scale
        grid = model_exponent_dual(model, np.array(rhos)[:, None], rates)
        assert grid.shape == (len(rhos), rates.size)
        for row, rho in zip(grid.tolist(), rhos):
            assert row == model_exponent_dual(model, rho, rates).tolist()

    def test_interleaved_rhos_over_blocks(self):
        # 150 cells with three rhos in no order, each as its own call makes it
        model = UnifilarSource(Pmf([1.0, 0.0]), np.array([[0, 1], [1, 0]]),
                               (pmf(0.6, 0.4), pmf(0.25, 0.75)))
        rhos = np.tile([2.0, 0.5, 1.0], 50)
        rates = np.linspace(0.01, 1.0, 150)
        mixed = model_exponent_dual(model, rhos, rates)
        assert mixed.tolist() == [model_exponent_dual(model, rho, r)
                                  for rho, r in zip(rhos.tolist(), rates.tolist())]

    def test_rho_array_shapes(self):
        model = IidSource(P82)
        assert isinstance(model_exponent_dual(model, 1.0, 0.3), float)
        assert model_exponent_dual(model, np.array([0.5, 1.0]), 0.3).shape == (2,)
        assert model_exponent_dual(model, np.array([[0.5], [1.0]]), np.ones((1, 3))).shape == (
            2, 3)
        assert model_exponent_dual(model, np.array([[0.5], [1.0]]), np.array([])).shape == (2, 0)
        with pytest.raises(ValidationError):
            model_exponent_dual(model, np.array([1.0, 0.0]), 0.3)


class TestBracketedRoots:
    def test_kinked_monotone_function(self):
        # slope 0.05 below the kink at 0.7 and 4 above it; roots on both sides
        shift = np.array([0.02, -0.5])

        def g(x, rows):
            return np.where(x < 0.7, 0.05 * (x - 0.7), 4.0 * (x - 0.7)) + shift[rows]

        x = bracketed_roots(g, [0.0, 0.0], [1.0, 1.0], g(np.zeros(2), np.arange(2)),
                            g(np.ones(2), np.arange(2)))
        assert x == pytest.approx([0.3, 0.825], abs=1e-11)

    def test_per_problem_brackets(self):
        # each problem keeps its own bracket, and its root does not depend on the batch
        a, b = np.array([0.0, -3.0, 1.0, 10.0]), np.array([1.0, 2.0, 1e3, 11.0])
        roots = np.array([0.25, -1.0, 400.0, 10.5])

        def g(x, rows):
            return np.tanh(x - roots[rows]) + 0.1 * (x - roots[rows]) ** 3

        rows = np.arange(a.size)
        x = bracketed_roots(g, a, b, g(a, rows), g(b, rows))
        assert x == pytest.approx(roots, rel=1e-11, abs=1e-11)
        for i in range(a.size):
            one = np.array([i])
            alone = bracketed_roots(lambda t, r: g(t, r + i), a[one], b[one],
                                    g(a[one], one), g(b[one], one))
            assert alone[0] == x[i]

    def test_exact_zero_closes_the_bracket(self):
        # the first chord point is the root itself
        calls = []

        def g(x, rows):
            calls.append(x.copy())
            return x - 0.5

        assert bracketed_roots(g, [0.0], [1.0], [-0.5], [0.5]).tolist() == [0.5]
        assert len(calls) == 1

    def test_empty_batch(self):
        def g(x, rows):
            raise AssertionError("no problem to evaluate")

        assert bracketed_roots(g, [], [], [], []).shape == (0,)

    def test_open_bracket_at_the_cap(self):
        calls = []

        def g(x, rows):
            calls.append(rows)
            return np.full(x.shape, np.nan)

        with pytest.raises(NumericError, match="still open after 100 steps"):
            bracketed_roots(g, [0.0, 0.0], [1.0, 1.0], [-1.0, -1.0], [1.0, 1.0])
        assert len(calls) == 100


class TestIidGrid:
    def test_witness_lower_bound(self):
        for rho in (0.5, 1.0):
            for r in (0.3, 0.55, 0.8):
                value = iid_exponent_grid(P82, rho, r)
                assert value >= rho * min(H_P82, r) - 1e-9

    def test_uniform(self):
        u = pmf(1.0 / 3, 1.0 / 3, 1.0 / 3)
        for r in (0.4, 1.3):
            assert iid_exponent_grid(u, 1.0, r) == pytest.approx(
                min(r, math.log(3.0)), abs=2e-3
            )

    def test_cross_validates_dual(self):
        for r in (0.55, 0.6, 0.65):
            grid = iid_exponent_grid(P82, 1.0, r)
            dual = model_exponent_dual(IidSource(P82), 1.0, r)
            assert grid <= dual + 1e-6  # weak duality is exact here
            assert grid >= dual - 2e-3

    @pytest.mark.parametrize("size", [3, 4])
    def test_seeded_laws_within_dual(self, size):
        rng = _rng(20, size)
        for _ in range(2):
            p = _random_pmf(rng, size)
            for rho in (0.5, 1.0, 2.0):
                for r in (0.1, 0.4, 0.8, 1.2):
                    grid = iid_exponent_grid(p, rho, r)
                    dual = model_exponent_dual(IidSource(p), rho, r)
                    assert dual - 2e-3 <= grid <= dual + 1e-6

    def test_refuses_large_alphabets(self):
        with pytest.raises(CapExceededError):
            iid_exponent_grid(pmf(*([0.2] * 5)), 1.0, 0.5)


class TestIidErrorExponent:
    def test_zero_below_entropy(self):
        assert iid_error_exponent(P82, 0.3) == 0.0
        assert iid_error_exponent(P82, H_P82) == 0.0

    def test_infinite_at_full_rate(self):
        assert iid_error_exponent(P82, LN2) == math.inf
        assert iid_error_exponent(P82, 0.8) == math.inf

    def test_grid_oracle(self):
        # independent oracle: 1-simplex grid at step 1e-4
        r = 0.6
        value = iid_error_exponent(P82, r)
        qs = np.arange(1e-4, 1.0, 1e-4)
        h = -(qs * np.log(qs) + (1 - qs) * np.log(1 - qs))
        d = qs * np.log(qs / 0.8) + (1 - qs) * np.log((1 - qs) / 0.2)
        feasible = h > r
        assert feasible.any()
        grid_value = float(d[feasible].min())
        assert value == pytest.approx(grid_value, abs=1e-3)

    def test_boundary_entropy_matches_rate(self):
        # the minimizer sits on the entropy-R boundary
        r = 0.62
        value = iid_error_exponent(P82, r)
        qs = np.arange(1e-4, 1.0, 1e-4)
        h = -(qs * np.log(qs) + (1 - qs) * np.log(1 - qs))
        d = qs * np.log(qs / 0.8) + (1 - qs) * np.log((1 - qs) / 0.2)
        best = np.argmin(np.where(h > r, d, np.inf))
        assert h[best] == pytest.approx(r, abs=1e-3)
        assert value <= d[best] + 1e-6


class TestIidCorrectTerm:
    def test_constraint_slack_at_full_rate(self):
        for rho in (0.5, 1.0, 2.0):
            value = iid_correct_term(P82, rho, LN2)
            assert value == pytest.approx(
                rho * renyi_entropy(P82, 1.0 / (1.0 + rho)), abs=1e-9
            )

    def test_source_witness(self):
        # P itself is feasible once H(P) <= R
        rho, r = 1.0, 0.55
        assert iid_correct_term(P82, rho, r) >= rho * H_P82 - 1e-9

    def test_grid_oracle(self):
        rho, r = 1.0, 0.55
        value = iid_correct_term(P82, rho, r)
        qs = np.arange(1e-4, 1.0, 1e-4)
        h = -(qs * np.log(qs) + (1 - qs) * np.log(1 - qs))
        d = qs * np.log(qs / 0.8) + (1 - qs) * np.log((1 - qs) / 0.2)
        feasible = h <= r
        grid_value = float((rho * h - d)[feasible].max())
        assert value == pytest.approx(grid_value, abs=1e-3)

    def test_total_below_source_entropy(self):
        # constraint binds past P itself; tilt exponents above 1 take over
        rho, r = 1.0, 0.3
        value = iid_correct_term(P82, rho, r)
        qs = np.arange(1e-4, 1.0, 1e-4)
        h = -(qs * np.log(qs) + (1 - qs) * np.log(1 - qs))
        d = qs * np.log(qs / 0.8) + (1 - qs) * np.log((1 - qs) / 0.2)
        feasible = h <= r
        grid_value = float((rho * h - d)[feasible].max())
        assert value == pytest.approx(grid_value, abs=1e-3)

    def test_tied_maxima_fall_back_to_grid(self):
        # tilting a uniform marginal never lowers its entropy, so the
        # constrained maximizer leaves the family: R sits on the tie floor,
        # whose closed form for uniform is (1+rho) R - ln k
        u = pmf(0.5, 0.5)
        rho, r = 1.0, 0.3
        value = iid_correct_term(u, rho, r)
        assert value == pytest.approx((1.0 + rho) * r - LN2, abs=1e-4)

    def test_partial_ties(self):
        p = pmf(0.4, 0.4, 0.2)
        rho, r = 1.0, 0.5  # below ln 2, the two-way tie floor
        value = iid_correct_term(p, rho, r)
        # the floor's closed form (1+rho) R + ln p_max, 0.083709268
        assert value == pytest.approx((1.0 + rho) * r + math.log(0.4), abs=1e-12)
        assert value == pytest.approx(0.083709268, abs=1e-9)
        # independent oracle: dense grid over the 2-simplex
        qs = np.linspace(0, 1, 400)
        best = -math.inf
        for a in qs:
            for b in qs:
                if a + b > 1.0:
                    continue
                q = np.array([a, b, 1.0 - a - b])
                mask = q > 0
                h = float(-(q[mask] * np.log(q[mask])).sum())
                if h > r:
                    continue
                d = float((q[mask] * (np.log(q[mask]) - np.log(p.probs[mask]))).sum())
                best = max(best, rho * h - d)
        # the grid's points are feasible, so it reads at most the maximum (0.078930)
        assert best <= value


def two_peak_law(size=64, ratio=1.3):
    """Two tied maxima, each ``ratio`` times every other letter."""
    w = np.ones(size)
    w[:2] = ratio
    return Pmf(w / w.sum())


def mp_tilt_witness(p, rho, r):
    """rho R - D(Q||P) at the tilt Q = p^beta / Z with H(Q) = R, beta >= 1,
    found by 300 bisection steps on ln beta in 40-digit arithmetic."""
    with mpmath.workdps(40):
        ps = [mpmath.mpf(x) for x in p.probs.tolist() if x > 0.0]

        def tilted(beta):
            w = [x ** beta for x in ps]
            z = mpmath.fsum(w)
            return [x / z for x in w]

        lo, hi = mpmath.mpf(0), mpmath.mpf(20)  # ln beta
        for _ in range(300):
            mid = (lo + hi) / 2
            q = tilted(mpmath.exp(mid))
            if -mpmath.fsum(x * mpmath.log(x) for x in q if x > 0) > r:
                lo = mid
            else:
                hi = mid
        q = tilted(mpmath.exp(lo))
        return float(rho * mpmath.mpf(r) - mpmath.fsum(
            x * mpmath.log(x / y) for x, y in zip(q, ps) if x > 0))


class TestPressureRoot:
    """The error and correct-decoding exponents from the pressure's root."""

    def test_three_letter_tie_floor(self):
        # R = 0.5 sits under ln 2, the floor of the two tied maxima; the
        # maximum (1+rho) R + ln p_max is attained by (q, 1-q, 0) with h(q) = R
        value = iid_correct_term(pmf(0.45, 0.45, 0.1), 2.0, 0.5)
        assert value == pytest.approx(3.0 * 0.5 + math.log(0.45), abs=1e-12)
        assert value == pytest.approx(0.701492304, abs=1e-9)

    def test_pressure_near_minus_one(self):
        # at theta = -0.999 (beta = 1000) the unscaled powers underflow
        model = IidSource(two_peak_law())
        value = pressure(model, -0.999)
        slope = sources.pressure_slope(model, -0.999)
        assert math.isfinite(value) and math.isfinite(slope)
        assert slope == pytest.approx(LN2, abs=1e-12)

    @pytest.mark.parametrize("eps", [1e-3, 1e-6, 1e-9, 1e-12])
    def test_correct_term_above_the_floor(self, eps):
        # just above ln 2 the root sits near theta = -1
        p, rho = two_peak_law(), 1.0
        value = iid_correct_term(p, rho, LN2 + eps)
        assert value == pytest.approx(mp_tilt_witness(p, rho, LN2 + eps), abs=1e-9)

    def test_root_near_minus_one(self):
        # a near tie puts the root at beta ~ 700, where P' is so steep in
        # theta that the root finder's last point is 1e-10 off in H; the
        # chord through its final bracket is not
        p, rho, r = pmf(0.3075, 0.3068, 0.2755, 0.1102), 1.9, 0.4865
        value = iid_correct_term(p, rho, r)
        assert value == pytest.approx(mp_tilt_witness(p, rho, r), abs=1e-12)

    def test_near_tie_at_the_floor(self):
        # the two maxima are one rounding apart: under ln 2 the floor's closed
        # form holds, and above it the root sits at beta ~ 5e15, which
        # v = -ln beta resolves.  2R + ln 0.35 bounds rho H - D for every law
        # with H <= R, as D >= -H - ln p_max, and a law on the two near-tied
        # maxima attains it
        rates = np.array([0.2, 0.5, 0.6])
        value = iid_correct_term(pmf(0.35, 0.35000000000000003, 0.3), 1.0, rates)
        assert np.abs(value - (2.0 * rates + math.log(0.35))).max() <= 1e-12

    @pytest.mark.parametrize("term, rates", [
        (lambda r: iid_correct_term(pmf(0.35, 0.35000000000000003, 0.3), 1.0, r),
         [0.3, 0.7, 0.9, 0.5, 1.05, 4.1]),
        (lambda r: iid_error_exponent(two_peak_law(), r),
         [0.3, 4.158, 4.1585, math.log(64.0) - 1e-9, math.log(64.0) - 1e-6, 4.2]),
    ], ids=["correct", "error"])
    def test_cell_alone_equals_cell_in_batch(self, term, rates):
        # the fourth cell's root sits near beta = 5e15 or 1e-3, among
        # floor, free, inner and empty cells whose steps differ from its own
        assert term(np.array(rates))[3] == term(rates[3])

    def test_error_exponent_near_full_rate(self):
        # the root sits near theta = 1e6; the value stays under D(uniform || P)
        p = two_peak_law()
        value = iid_error_exponent(p, math.log(64.0) - 1e-12)
        uniform = divergence(Pmf(np.full(64, 1.0 / 64.0)), p)
        assert math.isfinite(value)
        assert iid_error_exponent(p, math.log(64.0) - 1e-3) < value <= uniform

    @pytest.mark.parametrize("call", [
        lambda: iid_error_exponent(P82, math.nan),
        lambda: iid_correct_term(P82, 1.0, math.nan),
        lambda: iid_correct_term(P82, math.nan, 0.3),
        lambda: iid_correct_term(P82, math.inf, 0.3),
        lambda: model_exponent_dual(IidSource(P82), 1.0, math.nan),
        lambda: decomposition_check(P82, 1.0, math.nan),
        lambda: decomposition_check(P82, 1.0, np.array([0.3, math.nan])),
    ], ids=["error-rate", "correct-rate", "correct-rho", "correct-inf-rho", "dual-rate",
            "decomposition-rate", "decomposition-array"])
    def test_nan_refused(self, call):
        with pytest.raises(ValidationError):
            call()

    def test_infinite_rate_kept(self):
        saturated = float(pressure(IidSource(P82), 1.0))
        assert iid_error_exponent(P82, math.inf) == math.inf
        assert iid_correct_term(P82, 1.0, math.inf) == pytest.approx(saturated, rel=1e-15)
        assert model_exponent_dual(IidSource(P82), 1.0, math.inf) == saturated


class TestDecomposition:
    def test_linear_regime_both_sides(self):
        lhs, rhs, gap = decomposition_check(P82, 1.0, 0.3)
        assert lhs == pytest.approx(0.3, abs=1e-9)
        assert rhs == pytest.approx(0.3, abs=1e-9)

    def test_saturated_regime_both_sides(self):
        lhs, rhs, gap = decomposition_check(P82, 1.0, 1.0)
        assert lhs == pytest.approx(EMAX_P82, abs=1e-9)
        assert rhs == pytest.approx(EMAX_P82, abs=1e-9)

    def test_sweep(self):
        for probs in ([0.8, 0.2], [0.6, 0.3, 0.1]):
            p = pmf(*probs)
            for rho in (0.5, 1.0, 2.0):
                for r in np.linspace(0.05, math.log(p.size) + 0.1, 20).tolist():
                    _, _, gap = decomposition_check(p, rho, r)
                    assert gap <= 1e-9


class TestDecompositionArrays:
    # 0 below H(P), +inf from ln(support), the pressure root in between; for
    # the correct term the free tilt, the pressure root, and for the uniform
    # law the tie floor under ln 2
    RATES = np.array([0.05, 0.3, H_P82, 0.55, 0.65, LN2, 0.8, 1.2])

    @pytest.mark.parametrize("p", [P82, pmf(0.6, 0.3, 0.1), pmf(0.5, 0.5), pmf(0.7, 0.3, 0.0)])
    def test_array_equals_scalar(self, p):
        rhos = np.array([[0.5], [1.0], [2.0]])
        err = iid_error_exponent(p, self.RATES)
        correct = iid_correct_term(p, rhos, self.RATES)
        lhs, rhs, gap = decomposition_check(p, rhos, self.RATES)
        assert correct.shape == gap.shape == (3, self.RATES.size)
        for i, r in enumerate(self.RATES.tolist()):
            assert err[i] == iid_error_exponent(p, r)
            for j, rho in enumerate(rhos.ravel().tolist()):
                assert correct[j, i] == iid_correct_term(p, rho, r)
                assert (lhs[j, i], rhs[j, i], gap[j, i]) == decomposition_check(p, rho, r)
        assert isinstance(iid_error_exponent(p, 0.3), float)
        assert isinstance(iid_correct_term(p, 1.0, 0.3), float)
        assert all(isinstance(v, float) for v in decomposition_check(p, 1.0, 0.3))

    def test_one_root_solve_per_term(self, monkeypatch):
        # the error exponent, the correct term and the dual each solve every
        # (rho, R) cell of the call in one root solve
        calls = []

        def spy(g, a, *args):
            calls.append(np.size(a))
            return bracketed_roots(g, a, *args)

        monkeypatch.setattr(guesswork.exponents, "bracketed_roots", spy)
        decomposition_check(pmf(0.6, 0.3, 0.1), np.array([[0.5], [1.0], [2.0]]), self.RATES)
        assert len(calls) == 3

    def test_matches_scalar_bisection(self):
        # the per-rate 200-step bisections on the tilt exponent that the
        # pressure root replaced, kept as its oracle
        def tilted_pmf(p, s):
            log_p = np.log(np.maximum(p.probs, 1e-300))
            out = np.zeros(p.size)
            mask = p.probs > 0.0
            w = np.exp(s * log_p[mask] - (s * log_p[mask]).max())
            out[mask] = w / w.sum()
            return Pmf(out, tol=1e-9)

        def tilted_entropy(p, s):
            log_p = np.log(p.probs[p.probs > 0.0])
            w = np.exp(s * log_p - (s * log_p).max())
            w /= w.sum()
            w = w[w > 0.0]
            return float(-(w * np.log(w)).sum())

        def bisect(p, r, lo, hi):
            for _ in range(200):
                mid = 0.5 * (lo + hi)
                if tilted_entropy(p, mid) > r:
                    lo = mid
                else:
                    hi = mid
            return tilted_pmf(p, 0.5 * (lo + hi))

        def correct_term(p, rho, r):
            hi = 1.0
            while tilted_entropy(p, hi) > r:
                hi *= 2.0
            q = bisect(p, r, 1.0 / (1.0 + rho), hi)
            return rho * entropy(q) - divergence(q, p)

        p, rho = pmf(0.6, 0.3, 0.1), 1.0
        rates = np.array([0.2, 0.5, 0.8, 1.0])
        interior = np.array([0.9, 0.95, 1.05])
        error = [divergence(bisect(p, r, 1e-9, 1.0), p) for r in interior.tolist()]
        assert np.abs(iid_error_exponent(p, interior) - error).max() <= 1e-12
        correct = [correct_term(p, rho, r) for r in rates.tolist()]
        assert np.abs(iid_correct_term(p, rho, rates) - correct).max() <= 1e-12

    def test_branches_are_covered(self):
        err = iid_error_exponent(P82, self.RATES)
        assert err[0] == 0.0 and err[-1] == math.inf and 0.0 < err[3] < math.inf
        uniform = iid_correct_term(pmf(0.5, 0.5), 1.0, self.RATES)
        # the tie floor gives the closed form (1+rho) R - ln 2 under ln 2
        assert uniform[:2] == pytest.approx(2.0 * self.RATES[:2] - LN2, abs=1e-4)

    def test_shape_is_kept(self):
        grid = self.RATES.reshape(2, 4)
        assert iid_error_exponent(P82, grid).shape == (2, 4)
        assert iid_correct_term(P82, 1.0, grid).shape == (2, 4)
        assert decomposition_check(P82, 1.0, grid)[2].shape == (2, 4)


def recursive_simplex_grid(dim, steps):
    """The simplex grid by recursion over the leading entries."""
    if dim == 1:
        return np.ones((1, 1))
    out = []

    def rec(prefix, remaining):
        if len(prefix) == dim - 1:
            out.append(prefix + [remaining])
            return
        for i in range(remaining + 1):
            rec(prefix + [i], remaining - i)

    rec([], steps)
    return np.array(out, dtype=float) / steps


def loop_grid_maximum(p, rho, r):
    """(value, point) of the first grid maximum of rho H(Q) - D(Q||P) over the
    step-1/500 points with H(Q) <= r and no mass off P's support.

    The points come in the recursion's order, from ``np.indices`` rather than
    ``_simplex_grid``, and every point's H and D in one array pass.
    """
    lead = np.indices((501,) * (p.size - 1)).reshape(p.size - 1, -1).T
    lead = lead[lead.sum(axis=1) <= 500]
    grid = np.column_stack([lead, 500 - lead.sum(axis=1)]) / 500
    mask = grid > 0.0
    with np.errstate(divide="ignore"):
        log_q = np.where(mask, np.log(grid), 0.0)
        log_p = np.where(mask, np.log(p.probs), 0.0)
    h = -(grid * log_q).sum(axis=1)
    values = rho * h - (grid * (log_q - log_p)).sum(axis=1)
    candidates = np.flatnonzero(~np.any(mask & (p.probs <= 0.0), axis=1) & (h <= r))
    best = candidates[np.argmax(values[candidates])]
    return float(values[best]), grid[best]


class TestTieFloorAgainstSimplexOracle:
    @pytest.mark.parametrize("dim,steps", [(1, 5), (2, 1), (2, 7), (3, 10), (4, 6), (3, 500)])
    def test_simplex_grid_matches_recursion(self, dim, steps):
        assert np.array_equal(_simplex_grid(dim, steps), recursive_simplex_grid(dim, steps))

    @pytest.mark.parametrize("probs,rho,r", [
        ((0.45, 0.45, 0.1), 1.0, 0.3),
        ((0.4, 0.4, 0.2), 0.5, 0.2),
        ((0.5, 0.5, 0.0), 2.0, 0.1),
        ((0.35, 0.35, 0.3), 1.7, 0.6),
        ((0.5, 0.5), 1.0, 0.3),
    ])
    def test_matches_per_point_loop(self, probs, rho, r):
        # every case sits on the tie floor, where the maximum is the closed
        # form (1+rho) R + ln p_max; the per-point grid loop, whose points
        # are all feasible, reads at most that
        p = pmf(*probs)
        value = iid_correct_term(p, rho, r)
        assert value == pytest.approx((1.0 + rho) * r + math.log(max(probs)), abs=1e-12)
        best_val, _ = loop_grid_maximum(p, rho, r)
        assert value >= best_val

    def test_four_letter_floor_is_exact(self):
        # a 4-letter law under its tie floor takes the closed form, with no
        # grid: the child's address space is capped at 1.5 GB, where the
        # C(503, 3) = 21,084,251 points of a step-1/500 grid would not fit
        code = "\n".join([
            "import resource",
            "resource.setrlimit(resource.RLIMIT_AS, (3 << 29, 3 << 29))",
            "from guesswork import Pmf, iid_correct_term",
            "print(repr(iid_correct_term(Pmf([0.3, 0.3, 0.3, 0.1]), 1.0, 0.5)))",
        ])
        package_root = str(Path(guesswork.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, timeout=300,
            env={**os.environ, "PYTHONPATH": path, "OPENBLAS_NUM_THREADS": "1"},
        )
        assert proc.returncode == 0, proc.stderr
        assert float(proc.stdout) == pytest.approx(-0.203972804, abs=1e-9)
        assert float(proc.stdout) == pytest.approx(2.0 * 0.5 + math.log(0.3), abs=1e-12)


def row_grid_exponent(transition, rho: float, rates, step: float) -> np.ndarray:
    """Oracle: max of rho min(H, R) - D over chains whose rows lie on a simplex grid.

    Every row of the candidate chain eta runs over the grid of step
    ``step``; its stationary law q comes from one np.linalg.solve of the
    balance equations, the last replaced by sum(q) = 1.  A chain whose
    solve is singular, negative or off balance by more than 1e-8 is
    skipped, and so is one with mass where the true chain has none.  H
    and D are the conditional entropy of eta and its conditional
    divergence from ``transition``, both weighted by q.  Returns one
    value per rate.
    """
    pi = np.asarray(transition, dtype=float)
    k = len(pi)
    rows = _simplex_grid(k, int(round(1.0 / step)))
    picks = np.stack(np.meshgrid(*[np.arange(len(rows))] * k, indexing="ij"), -1).reshape(-1, k)
    etas = rows[picks]
    m = np.swapaxes(etas, 1, 2) - np.eye(k)
    m[:, -1, :] = 1.0
    solvable = np.linalg.slogdet(m)[0] != 0.0
    etas, m = etas[solvable], m[solvable]
    rhs = np.zeros((len(m), k, 1))
    rhs[:, -1] = 1.0
    q = np.linalg.solve(m, rhs)[:, :, 0]
    balanced = np.abs(np.einsum("bi,bij->bj", q, etas) - q).sum(axis=1) <= 1e-8
    keep = np.all(q >= -1e-12, axis=1) & balanced & ~np.any((etas > 0.0) & (pi <= 0.0), axis=(1, 2))
    etas, q = etas[keep], np.maximum(q[keep], 0.0)
    log_eta = np.log(np.where(etas > 0.0, etas, 1.0))
    log_pi = np.log(np.where(pi > 0.0, pi, 1.0))
    h = -(q * (etas * log_eta).sum(axis=2)).sum(axis=1)
    d = (q * (etas * (log_eta - log_pi)).sum(axis=2)).sum(axis=1)
    return np.array([(rho * np.minimum(h, r) - d).max() for r in np.ravel(rates).tolist()])


class TestMarkov:
    PI = np.array([[0.9, 0.1], [0.3, 0.7]])
    PI3 = np.array([[0.5, 0.3, 0.2], [0.1, 0.0, 0.9], [0.4, 0.4, 0.2]])

    def test_iid_in_disguise(self):
        disguised = np.array([[0.8, 0.2], [0.8, 0.2]])
        for r in (0.3, 0.55, 0.69):
            assert model_exponent_dual(chain_source(disguised), 1.0, r) == pytest.approx(
                model_exponent_dual(IidSource(P82), 1.0, r), abs=1e-9
            )

    def test_uniform_rows_saturate(self):
        uniform = np.array([[0.5, 0.5], [0.5, 0.5]])
        assert model_exponent_dual(chain_source(uniform), 1.0, 1.0) == pytest.approx(LN2, abs=1e-9)

    def test_dual_vs_grid(self):
        rates = (0.3, 0.5, 0.65)
        grid = row_grid_exponent(self.PI, 1.0, rates, step=0.01)
        lower, _, upper = certified_exponent(chain_source(self.PI), 1.0, rates)
        for r, g, lo, hi in zip(rates, grid.tolist(), lower.tolist(), upper.tolist()):
            assert abs(model_exponent_dual(chain_source(self.PI), 1.0, r) - g) <= 2e-2
            assert g <= lo + 1e-12
            assert g <= hi + 1e-12

    @pytest.mark.parametrize("pi", [PI, PI3])
    def test_certificates_over_a_rate_array(self, pi):
        # a rate's certificates have the bits its own call computes, and the
        # middle value is the dual's
        rates = np.array([[0.05, 0.3, 0.5], [0.65, 0.9, 1.2]])
        batch = certified_exponent(chain_source(pi), 1.0, rates)
        assert all(out.shape == rates.shape for out in batch)
        singles = [certified_exponent(chain_source(pi), 1.0, r) for r in rates.ravel().tolist()]
        for i, out in enumerate(batch):
            assert out.ravel().tolist() == [single[i] for single in singles]
        assert batch[1].tolist() == model_exponent_dual(chain_source(pi), 1.0, rates).tolist()
        assert all(isinstance(v, float) for single in singles for v in single)

    def test_grid_never_exceeds_dual(self):
        rates = (0.3, 0.5, 0.65)
        grid = row_grid_exponent(self.PI, 1.0, rates, step=0.05)
        lower, _, upper = certified_exponent(chain_source(self.PI), 1.0, rates)
        for r, g, lo, hi in zip(rates, grid.tolist(), lower.tolist(), upper.tolist()):
            assert g <= model_exponent_dual(chain_source(self.PI), 1.0, r) + 1e-9
            assert g <= lo + 1e-12
            assert g <= hi + 1e-12

    def test_three_state_grid_below_certificates(self):
        # the zero transition keeps grid chains with mass on it out of the oracle
        rates = (0.3, 0.6, 0.9, 1.2)
        grid = row_grid_exponent(self.PI3, 1.0, rates, step=0.1)
        lower, _, upper = certified_exponent(chain_source(self.PI3), 1.0, rates)
        dual = model_exponent_dual(chain_source(self.PI3), 1.0, rates)
        assert np.all(grid <= lower + 1e-12)
        assert np.all(lower - 1e-12 <= dual) and np.all(dual <= upper + 1e-12)
        assert np.all(upper - lower <= 1e-9)
        assert np.all(dual - grid <= 2e-2)

    @pytest.mark.parametrize("seed", [0, 7, 12345])
    def test_verify_check_passes(self, seed):
        result = check_markov_dual(seed=seed)
        assert result.passed, result.detail
        assert "max certificate width" in result.detail

    def test_rejects_reducible(self):
        with pytest.raises(ValidationError):
            model_exponent_dual(chain_source(np.eye(2)), 1.0, 0.5)

    def test_linear_regime_matches_entropy_rate(self):
        # below the entropy rate the curve climbs at slope rho
        q = np.array([0.75, 0.25])
        h_rate = -(q[:, None] * self.PI * np.log(self.PI)).sum()
        for r in (0.1, 0.25, h_rate * 0.99):
            assert model_exponent_dual(chain_source(self.PI), 1.0, r) == pytest.approx(r, abs=1e-9)


class TestThresholds:
    def test_uniform(self):
        u = pmf(0.25, 0.25, 0.25, 0.25)
        h_p, h_sat = pressure_slope(IidSource(u), [0.0, 1.0]).tolist()
        assert h_p == pytest.approx(math.log(4.0), abs=1e-12)
        assert h_sat == pytest.approx(math.log(4.0), abs=1e-6)

    def test_point_mass(self):
        h_p, h_sat = pressure_slope(IidSource(pmf(1.0, 0.0)), [0.0, 1.0]).tolist()
        assert h_p == 0.0
        assert h_sat == 0.0

    def test_binary_sandwich(self):
        h_p, h_sat = pressure_slope(IidSource(P82), [0.0, 1.0]).tolist()
        assert h_p == pytest.approx(H_P82, abs=1e-12)
        assert H_P82 < h_sat < LN2

    def test_matches_tilted_entropy_formula(self):
        # the saturation threshold is the entropy of the order-1/(1+rho) tilt
        h_p, h_sat = pressure_slope(IidSource(P82), [0.0, 1.0]).tolist()
        analytic = entropy(tilt(P82, 0.5))
        assert analytic == pytest.approx(0.63651416829481282, abs=1e-12)
        assert h_sat == pytest.approx(analytic, abs=1e-12)

    def test_dual_saturates_exactly_from_threshold(self):
        h_p, h_sat = pressure_slope(IidSource(P82), [0.0, 1.0]).tolist()
        below, at = model_exponent_dual(IidSource(P82), 1.0, [h_sat - 1e-3, h_sat])
        assert at == pytest.approx(EMAX_P82, abs=1e-12)
        assert below < EMAX_P82 - 1e-8

    @pytest.mark.parametrize("model", [
        MarkovSource(Pmf([0.5, 0.5]), np.array([[0.9, 0.1], [0.3, 0.7]])),
        MarkovSource(Pmf([0.25, 0.25, 0.5]),
                     np.array([[0.2, 0.5, 0.3], [0.4, 0.1, 0.5], [0.25, 0.25, 0.5]])),
        UnifilarSource(Pmf([1.0, 0.0]), np.array([[0, 1], [1, 0]]),
                       (Pmf([0.6, 0.4]), Pmf([0.25, 0.75]))),
    ])
    def test_chain_threshold_is_pressure_slope(self, model):
        # closed-form H' = P'(rho) from the Perron vectors against a
        # five-point central difference of the pressure; at h = 1e-3 the
        # difference itself carries ~1e-12 of truncation and round-off
        h = 1e-3
        for rho in (0.5, 1.0, 2.0):
            curve, = build_curve(model, [rho], [0.3])
            p = pressure(model, rho + h * np.array([-2.0, -1.0, 1.0, 2.0]))
            slope = (p[0] - 8.0 * p[1] + 8.0 * p[2] - p[3]) / (12.0 * h)
            assert curve.h_saturation == pytest.approx(slope, abs=1e-11)


class TestLegendreFenchel:
    def test_linear_input_indicator(self):
        rhos = np.linspace(0.01, 3.0, 128)
        r = 0.4
        lambdas, transform = legendre_fenchel(rhos, rhos * r, lambdas=np.array([0.2, r, 0.6]))
        assert transform[1] == pytest.approx(0.0, abs=1e-12)
        # off the slope, the discrete sup sits at a grid endpoint
        assert transform[0] == pytest.approx(rhos[0] * (0.2 - r), abs=1e-12)
        assert transform[2] == pytest.approx(rhos[-1] * (0.6 - r), abs=1e-12)

    def test_constant_slope_indicator(self):
        rhos = np.linspace(0.01, 3.0, 128)
        c = 0.7
        lambdas, transform = legendre_fenchel(rhos, rhos * c, lambdas=np.array([c]))
        assert transform[0] == pytest.approx(0.0, abs=1e-12)

    def test_rejects_nonconvex(self):
        rhos = np.linspace(0.01, 3.0, 128)
        with pytest.raises(ValidationError):
            legendre_fenchel(rhos, np.sin(rhos))

    def test_rejects_short_grid(self):
        with pytest.raises(ValidationError):
            legendre_fenchel(np.linspace(0.1, 1.0, 10), np.linspace(0.1, 1.0, 10))

    def test_double_transform_recovers_curve(self):
        rhos = np.linspace(0.02, 2.0, 256)
        values = np.array([model_exponent_dual(IidSource(P82), rho, 0.6) for rho in rhos.tolist()])
        lambdas, transform = legendre_fenchel(rhos, values,
                                              lambdas=np.linspace(0.0, 0.65, 4096))
        recovered = (rhos[:, None] * lambdas[None, :] - transform[None, :]).max(axis=1)
        interior = (rhos > 0.1) & (rhos < 1.9)
        assert np.abs(recovered - values)[interior].max() <= 1e-4


class TestVariationalIdentity:
    def test_theta_zero_is_log_mass(self):
        p = pmf(0.5, 0.3, 0.2)
        gap, excess = variational_identity_check(p, 0.0, support=[0, 2])
        assert gap <= 1e-12
        assert excess <= 1e-12

    def test_full_support_renyi(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            p = Pmf(rng.dirichlet(np.ones(int(rng.integers(2, 20)))), tol=1e-9)
            theta = float(rng.uniform(0.1, 3.0))
            gap, excess = variational_identity_check(p, theta, seed=7)
            assert gap <= 1e-9
            assert excess <= 1e-12
            lhs = theta * renyi_entropy(p, 1.0 / (1.0 + theta))
            mx = tilt(p, 1.0 / (1.0 + theta))
            assert theta * entropy(mx) - divergence(mx, p) == pytest.approx(lhs, abs=1e-9)

    def test_random_supports(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            size = int(rng.integers(2, 17))
            p = Pmf(rng.dirichlet(np.ones(size)), tol=1e-9)
            b = rng.choice(size, size=int(rng.integers(1, size + 1)), replace=False)
            gap, excess = variational_identity_check(p, 1.0, support=b, seed=11)
            assert gap <= 1e-9
            assert excess <= 1e-12

    def test_survives_tenfold_tighter_tolerance(self):
        # the identity is exact up to float rounding, so a 10x tighter
        # tolerance than documented still holds
        rng = np.random.default_rng(29)
        for _ in range(50):
            size = int(rng.integers(2, 65))
            p = Pmf(rng.dirichlet(np.ones(size)), tol=1e-9)
            b = rng.choice(size, size=int(rng.integers(1, size + 1)), replace=False)
            theta = float(rng.uniform(0.0, 3.0))
            gap, _ = variational_identity_check(p, theta, support=b, num_random=2, seed=3)
            assert gap <= 1e-10


def per_instance_identity(p, theta, support=None, num_random=1000, seed=0) -> tuple:
    """(gap, worst probe excess, left side) of one instance, one Pmf at a time:
    the tilt, H and D of the library, fsum sides and normalized Dirichlet probes."""
    idx = support_indices(p.size, support)
    sub = p.probs[idx]
    beta = 1.0 / (1.0 + theta)
    lhs = (1.0 + theta) * math.log(math.fsum((sub[sub > 0.0] ** beta).tolist()))
    maximizer = tilt(p, beta, support=idx)
    rhs = theta * entropy(maximizer) - divergence(maximizer, p)
    nu = np.random.default_rng(seed).dirichlet(np.ones(idx.size), size=num_random)
    sub_mask = sub > 0.0
    neg_h = np.einsum("ij,ij->i", nu, np.log(np.maximum(nu, 1e-300)))
    probes = nu @ np.log(np.where(sub_mask, sub, 1.0)) - (1.0 + theta) * neg_h
    if not sub_mask.all():
        probes[np.any(nu[:, ~sub_mask] > 0.0, axis=1)] = -math.inf
    return abs(lhs - rhs), float((probes - lhs).max()), lhs


def per_instance_tilted_check(seed: int) -> np.ndarray:
    """(gap, excess, lhs) rows of the tilted-identity check, drawn and solved
    one instance at a time in the check's stream order."""
    rng = _rng(seed, 1)
    rows = []
    for i in range(1000):
        size = int(rng.integers(2, 65))
        p = _random_pmf(rng, size)
        b_size = int(rng.integers(1, size + 1))
        support = rng.choice(size, size=b_size, replace=False)
        theta = float(rng.uniform(0.0, 4.0)) if i % 5 else 0.0
        rows.append(per_instance_identity(p, theta, support=support, num_random=1000,
                                          seed=int(rng.integers(2 ** 32))))
    return np.array(rows).T


class TestBatchedVariationalIdentity:
    @pytest.mark.parametrize("seed", [0, 7, 12345])
    def test_matches_per_instance_loop(self, seed):
        want_gap, want_excess, lhs = per_instance_tilted_check(seed)
        # the 1,000 rows joined from the check's blocks; a support of more
        # than 32 letters takes its 1,000 probes in more than one chunk
        probs, mask, thetas, seeds = (np.concatenate(part) for part in zip(*_tilted_blocks(seed)))
        assert probs.shape == (1000, 64) and mask.sum(axis=1).max() > 32
        gap, excess = variational_identity_checks(probs, mask, thetas, seeds, 1000)
        assert abs(gap.max() - want_gap.max()) <= 1e-14
        assert abs(excess.max() - want_excess.max()) <= 1e-14
        # row by row too: gaps to 1e-14, probes at the rounding of their sides
        assert np.abs(gap - want_gap).max() <= 1e-14
        assert np.all(np.abs(excess - want_excess) <= 1e-14 * np.maximum(1.0, np.abs(lhs)))
        passed = want_gap.max() <= 1e-9 and want_excess.max() <= 1e-12
        assert check_tilted_identity(seed).passed == passed

    def test_tilted_check_in_bounded_memory(self):
        # one block of 64 instances and a probe buffer of 2^15 floats in each
        # of g and ln g: 0.81 MB of traced peak, where holding the 1,000 rows
        # and a row's 1,000 x 64 probes took 1.84 MB
        check_tilted_identity(0)  # first-call allocations (generators, ufunc loops)
        tracemalloc.start()
        try:
            check_tilted_identity(0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1024 * 1024

    @pytest.mark.parametrize("seed", [0, 7, 12345])
    def test_renyi_check_matches_per_instance_loop(self, seed):
        rng = _rng(seed, 2)
        worst = 0.0
        for _ in range(200):
            p = _random_pmf(rng, int(rng.integers(2, 33)))
            theta = float(rng.uniform(0.05, 4.0))
            gap, _, lhs = per_instance_identity(p, theta, num_random=2,
                                                seed=int(rng.integers(2 ** 32)))
            worst = max(worst, gap, abs(theta * renyi_entropy(p, 1.0 / (1.0 + theta)) - lhs))
        result = check_renyi_variational(seed)
        assert result.passed == (worst <= 1e-9)
        assert abs(float(result.detail.split()[2]) - worst) <= 1e-14

    def test_one_row_is_the_scalar_check(self):
        rng = np.random.default_rng(17)
        probs = np.zeros((6, 9))
        mask = np.zeros(probs.shape, dtype=bool)
        thetas = rng.uniform(0.0, 3.0, size=6)
        for i, size in enumerate((2, 5, 9, 4, 7, 3)):
            probs[i, :size] = rng.dirichlet(np.ones(size))
            mask[i, rng.choice(size, size=int(rng.integers(1, size + 1)), replace=False)] = True
        probs[4, 1] = 0.0  # zero mass inside a support: every probe reads -inf
        probs[4] /= probs[4].sum()
        mask[4, :2] = True
        gaps, excess = variational_identity_checks(probs, mask, thetas, range(6), 50)
        for i in range(6):
            p = Pmf(probs[i], tol=1e-9)
            assert (gaps[i], excess[i]) == variational_identity_check(
                p, float(thetas[i]), support=mask[i], num_random=50, seed=i)
            gap, want_excess, _ = per_instance_identity(p, float(thetas[i]), mask[i], 50, i)
            assert abs(gaps[i] - gap) <= 1e-14
            if i == 4:
                assert excess[i] == want_excess == -math.inf
            else:
                assert abs(excess[i] - want_excess) <= 1e-14

    @pytest.mark.parametrize("theta", [-0.1, math.nan, math.inf])
    def test_theta_refused(self, theta):
        with pytest.raises(ValidationError):
            variational_identity_checks([[0.5, 0.5], [0.3, 0.7]], [[True, True]] * 2,
                                        [1.0, theta], [0, 1], 2)

    def test_support_without_mass_refused(self):
        with pytest.raises(ValidationError):
            variational_identity_check(pmf(0.5, 0.5, 0.0), 1.0, support=[2])
        with pytest.raises(ValidationError):
            variational_identity_check(pmf(0.5, 0.5), 1.0, support=[])


def e_max(model, rho: float = 1.0) -> float:
    """The perfect-secrecy exponent rho H_{1/(1+rho)}: E_max of the curve."""
    curve, = build_curve(model, [rho], [0.3])
    return curve.e_max


class TestPerfectSecrecy:
    def test_uniform(self):
        model = IidSource(pmf(0.25, 0.25, 0.25, 0.25))
        assert e_max(model) == pytest.approx(math.log(4.0), abs=1e-12)

    def test_iid_closed_form(self):
        assert e_max(IidSource(P82)) == pytest.approx(EMAX_P82, abs=1e-12)

    def test_markov_matches_finite_n_slope(self):
        pi = np.array([[0.9, 0.1], [0.3, 0.7]])
        model = MarkovSource(Pmf([0.75, 0.25]), pi, stationary=True)
        value = e_max(model)
        assert value == pytest.approx(markov_renyi_rate(pi, 0.5), abs=1e-12)
        p_14 = materialize(model, 14)
        finite = renyi_entropy(p_14, 0.5) / 14
        assert abs(value - finite) <= 0.05

    def test_unifilar_routed_through_state_chain(self):
        pi = np.array([[0.9, 0.1], [0.3, 0.7]])
        nxt = np.array([[0, 1], [0, 1]])
        model = UnifilarSource(Pmf([1.0, 0.0]), nxt, (Pmf(pi[0]), Pmf(pi[1])))
        assert e_max(model) == pytest.approx(markov_renyi_rate(pi, 0.5), abs=1e-12)

    def test_explicit_reads_its_longest_law(self):
        # an explicit model has no rate: its longest law, per letter
        model = ExplicitSource((P82, materialize(IidSource(P82), 2)))
        assert float(pressure(spectrum(model.pmfs[-1]), 1.0)) / 2 == pytest.approx(EMAX_P82,
                                                                             abs=1e-12)


class TestExponentCurve:
    def test_build_and_regimes(self):
        model = IidSource(P82)
        rates = np.arange(0.05, 0.70, 0.05)
        curve, = build_curve(model, [1.0], rates)
        assert curve.h_source == pytest.approx(H_P82, abs=1e-12)
        assert curve.e_max == pytest.approx(EMAX_P82, abs=1e-12)
        assert np.all(np.diff(curve.values) >= -1e-10)
        for r, e, branch in zip(curve.rates, curve.values, curve.branches):
            if branch == "linear":
                assert e == pytest.approx(r, abs=1e-9)
            elif branch == "saturated":
                assert e == pytest.approx(curve.e_max, abs=1e-6)

    def test_markov_curve(self):
        pi = np.array([[0.9, 0.1], [0.3, 0.7]])
        model = MarkovSource(Pmf([0.75, 0.25]), pi, stationary=True)
        curve, = build_curve(model, [1.0], [0.1, 0.3, 0.5, 0.65])
        assert np.all(np.diff(curve.values) >= -1e-10)
        assert curve.values[-1] <= curve.e_max + 1e-9

    def test_unifilar_dual(self):
        pi = np.array([[0.9, 0.1], [0.3, 0.7]])
        nxt = np.array([[0, 1], [0, 1]])
        model = UnifilarSource(Pmf([1.0, 0.0]), nxt, (Pmf(pi[0]), Pmf(pi[1])))
        for r in (0.3, 0.5):
            assert model_exponent_dual(model, 1.0, r) == pytest.approx(
                model_exponent_dual(chain_source(pi), 1.0, r), abs=1e-9
            )

    def test_markov_entropy_rate_threshold(self):
        pi = np.array([[0.9, 0.1], [0.3, 0.7]])
        model = MarkovSource(Pmf([0.75, 0.25]), pi, stationary=True)
        curve, = build_curve(model, [1.0], [0.3])
        q = np.array([0.75, 0.25])
        assert curve.h_source == pytest.approx(-(q[:, None] * pi * np.log(pi)).sum(), abs=1e-12)
        assert curve.h_source < curve.h_saturation

    @pytest.mark.parametrize("model", [
        IidSource(P82), IidSource(pmf(0.5, 0.3, 0.2)), IidSource(pmf(0.4, 0.3, 0.2, 0.1)),
        *(chain_source(np.random.default_rng(k).dirichlet(np.ones(k), size=k))
          for k in range(2, 8)),
        UnifilarSource(Pmf([1.0, 0.0]), np.array([[0, 1], [1, 0]]),
                       (Pmf([0.6, 0.4]), Pmf([0.25, 0.75]))),
    ])
    def test_curves_equal_per_rho_calls(self, model):
        # one batched solve for every rho gives each curve the bits of its own calls
        rhos, rates = [0.5, 1.0, 2.0, 3.7], np.arange(0.05, 2.0, 0.05)
        curves = build_curve(model, rhos, rates)
        assert [curve.rho for curve in curves] == rhos
        for rho, curve in zip(rhos, curves):
            if isinstance(model, IidSource):
                lower, values = None, model_exponent_dual(model, rho, rates)
                assert curve.lower is None
            else:
                lower, values, _ = certified_exponent(model, rho, rates)
                assert curve.lower.tolist() == lower.tolist()
            assert curve.values.tolist() == values.tolist()
            assert [curve.h_source, curve.h_saturation] == pressure_slope(
                model, [0.0, rho]).tolist()
            assert curve.e_max == float(pressure(model, rho))

    def test_rate_grid_matches_pointwise(self):
        pi = np.array([[0.9, 0.1], [0.3, 0.7]])
        rates = np.array([0.05, 0.3, 0.45, 0.6, 0.65])
        for model in (IidSource(P82), MarkovSource(Pmf([0.75, 0.25]), pi, stationary=True)):
            batched = model_exponent_dual(model, 1.0, rates)
            pointwise = [model_exponent_dual(model, 1.0, r) for r in rates.tolist()]
            assert batched.tolist() == pointwise

    def test_explicit_refused(self):
        with pytest.raises(ValidationError):
            model_exponent_dual(ExplicitSource((P82,)), 1.0, 0.5)
