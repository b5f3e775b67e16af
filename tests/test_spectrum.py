"""The finite-n solvers on a law's spectrum against dense per-string oracles.

Every finite-n solver reads a law through its sorted spectrum (distinct
probabilities and their multiplicities).  The oracles below work string by
string on the dense law, the way the solvers did before the spectrum, and
stay here as the reference.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from guesswork import (
    IidSource,
    MarkovSource,
    Pmf,
    Spectrum,
    UnifilarSource,
    group_xor_moment_closed,
    lower_bound_finite,
    materialize,
    relaxed_optimum,
    renyi_entropy,
    sort_desc,
    spectrum,
    top_set,
    upper_bound_finite,
)
from guesswork.compression import _top_count
from guesswork.sources import pressure

TOL = 1e-12


def dense_relaxed(p: Pmf, n: int, rho: float, key_rate: float):
    """(value, active-set size, gap to the runner-up) by a scan over every prefix."""
    ps = p.probs[sort_desc(p)]
    beta = 1.0 / (1.0 + rho)
    tilted = ps ** beta
    z_prefix = np.cumsum(tilted)
    mass_saturated = np.concatenate([np.cumsum(ps[::-1])[::-1][1:], [0.0]])
    cap = n * key_rate
    with np.errstate(divide="ignore"):
        log_campbell = (1.0 + rho) * np.log(z_prefix)
        log_sat = np.where(mass_saturated > 0.0,
                           np.log(np.maximum(mass_saturated, 1e-300)) + rho * cap, -np.inf)
        longest = np.where(tilted > 0.0, np.log(z_prefix) - np.log(np.maximum(tilted, 1e-300)),
                           np.inf)
    kernel = np.where(longest <= cap + 1e-12, np.logaddexp(log_campbell, log_sat), np.inf)
    candidates = np.concatenate([[rho * cap], kernel])
    best = int(np.argmin(candidates))
    runner_up = np.partition(candidates, 1)[1]
    return candidates[best] / n, best, runner_up - candidates[best]


def dense_top_set(p: Pmf, n: int, key_rate: float, rho: float):
    """(num_top, mass, complement mass, tilted sum) by sums over sorted strings."""
    order = sort_desc(p)
    m = _top_count(n, key_rate, p.size)
    top, rest = p.probs[order[:m]], p.probs[order[m:]]
    return (m, math.fsum(top.tolist()), math.fsum(rest.tolist()),
            math.fsum((top ** (1.0 / (1.0 + rho))).tolist()))


def dense_group_xor(p: Pmf, k: int, rho: float) -> float:
    ordered = p.probs[sort_desc(p)]
    within = np.arange(p.size) % min(2 ** k, p.size)
    return math.fsum(px * float(i + 1) ** rho for px, i in zip(ordered.tolist(), within.tolist()))


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
def laws(draw):
    """(Pmf, n): a materialized iid, Markov or unifilar law, or an explicit one."""
    kind = draw(st.sampled_from(["iid", "uniform", "markov", "unifilar", "explicit", "ties"]))
    if kind in ("iid", "uniform"):
        k = draw(st.integers(2, 4))
        n = draw(st.integers(1, {2: 10, 3: 6, 4: 5}[k]))
        marginal = [1.0 / k] * k if kind == "uniform" else _simplex(draw, k)
        return materialize(IidSource(Pmf(marginal)), n), n
    if kind == "markov":
        k = draw(st.integers(2, 3))
        n = draw(st.integers(1, {2: 10, 3: 6}[k]))
        rows = [_simplex(draw, k, zeros=True) for _ in range(k)]
        return materialize(MarkovSource(Pmf(_simplex(draw, k)), np.array(rows)), n), n
    if kind == "unifilar":
        n = draw(st.integers(1, 9))
        emission = tuple(Pmf(_simplex(draw, 2)) for _ in range(2))
        model = UnifilarSource(Pmf(_simplex(draw, 2)), np.array([[0, 1], [1, 0]]), emission)
        return materialize(model, n), n
    size = draw(st.integers(1, 200))
    if kind == "ties":
        # few distinct values, repeated, with zero entries
        levels = draw(st.lists(st.sampled_from([0.0, 1.0, 2.0, 3.0]), min_size=size,
                               max_size=size))
        if not any(levels):
            levels[0] = 1.0
        total = math.fsum(levels)
        return Pmf([v / total for v in levels], tol=1e-9), draw(st.integers(1, 4))
    return Pmf(_simplex(draw, size, zeros=True), tol=1e-9), draw(st.integers(1, 4))


rhos = st.floats(0.05, 5.0)
rates = st.floats(0.01, 2.5)


class TestSpectrum:
    def test_runs_of_a_law(self):
        spec = spectrum(Pmf([0.1, 0.4, 0.0, 0.1, 0.4]))
        assert spec.values.tolist() == [0.4, 0.1, 0.0]
        assert spec.counts.tolist() == [2, 2, 1]
        assert spec.size == 5
        assert spec.ends.tolist() == [2, 4, 5]
        assert spec.before.tolist() == pytest.approx([0.0, 0.8, 1.0], abs=1e-15)
        assert spec.after.tolist() == pytest.approx([0.2, 0.0, 0.0], abs=1e-15)

    def test_of_passes_a_spectrum_through(self):
        spec = spectrum(Pmf([0.5, 0.5]))
        assert Spectrum.of(spec) is spec

    def test_per_string_outputs_for_dense_laws_only(self):
        p = Pmf([0.1, 0.6, 0.3])
        assert relaxed_optimum(spectrum(p), 1, 1.0, 0.8).lengths is None
        assert top_set(spectrum(p), 1, 0.8, 1.0).top_indices is None
        assert top_set(p, 1, 0.8, 1.0).top_indices.tolist() == [1, 2]
        assert np.isfinite(relaxed_optimum(p, 1, 1.0, 0.8).lengths).sum() == (
            relaxed_optimum(p, 1, 1.0, 0.8).active_set_size)


class TestDenseOracle:
    @settings(max_examples=300, deadline=None)
    @given(laws(), rhos, rates)
    def test_relaxed_optimum(self, law, rho, key_rate):
        p, n = law
        value, active, margin = dense_relaxed(p, n, rho, key_rate)
        for given_law in (p, spectrum(p)):
            result = relaxed_optimum(given_law, n, rho, key_rate)
            assert result.value == pytest.approx(value, abs=TOL)
            if margin > TOL:
                assert result.active_set_size == active

    @settings(max_examples=200, deadline=None)
    @given(laws(), rhos, rates)
    def test_top_set_and_bounds(self, law, rho, key_rate):
        p, n = law
        m, mass, mass_c, tilted = dense_top_set(p, n, key_rate, rho)
        for given_law in (p, spectrum(p)):
            summary = top_set(given_law, n, key_rate, rho)
            assert summary.num_top == m
            assert summary.mass == pytest.approx(mass, abs=TOL)
            assert summary.mass_complement == pytest.approx(mass_c, abs=TOL)
            assert summary.tilted_sum == pytest.approx(tilted, rel=TOL)
        err = rho * key_rate + math.log(mass_c) / n if mass_c > 0.0 else -math.inf
        lower = max(err, (1.0 + rho) * math.log(tilted) / n)
        upper = upper_bound_finite(p, n, rho, key_rate)
        for given_law in (p, spectrum(p)):
            assert lower_bound_finite(given_law, n, rho, key_rate).value == pytest.approx(
                lower, abs=TOL)
            assert upper_bound_finite(given_law, n, rho, key_rate) == pytest.approx(
                upper, abs=TOL)

    @settings(max_examples=100, deadline=None)
    @given(laws(), st.floats(0.05, 3.0))
    def test_pressure_of_the_law(self, law, theta):
        # the upper bound is the dual of this pressure
        p, _ = law
        dense = theta * renyi_entropy(p, 1.0 / (1.0 + theta))
        assert float(pressure(spectrum(p), theta)) == pytest.approx(dense, abs=TOL)

    @settings(max_examples=200, deadline=None)
    @given(laws(), st.one_of(st.integers(0, 12), st.just(47), st.just(None)),
           st.floats(0.1, 3.0))
    def test_group_xor_moment(self, law, k, rho):
        p, _ = law
        if k is None:
            # the smallest key with 2^k >= N: one block holds every message
            k = max(0, (p.size - 1).bit_length())
        dense = dense_group_xor(p, k, rho)
        for given_law in (p, spectrum(p)):
            assert group_xor_moment_closed(given_law, k, rho) == pytest.approx(dense, rel=TOL)
