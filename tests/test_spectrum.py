"""The finite-n solvers on a law's spectrum against dense per-string oracles.

Every finite-n solver reads a law through its sorted spectrum (distinct
probabilities and their multiplicities).  The oracles below work string by
string on the dense law, the way the solvers did before the spectrum, and
stay here as the reference.  The spectrum builder, ``n_letter_spectrum``,
forms no dense law; it is checked bit for bit against the spectrum of the
dense law of ``oracles.materialize``.
"""

import dataclasses
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from guesswork import (
    CapExceededError,
    ExplicitSource,
    IidSource,
    MarkovSource,
    Pmf,
    UnifilarSource,
    group_xor_moment_closed,
    lower_bound_finite,
    n_letter_spectrum,
    relaxed_optimum,
    renyi_entropy,
    sort_desc,
    spectrum,
    top_set,
    upper_bound_finite,
    ValidationError,
)
from guesswork import sources
from guesswork.compression import _top_count
from guesswork.sources import _exact_products, pressure
from oracles import materialize

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

    def test_dense_law_and_its_spectrum_give_identical_outputs(self):
        # the solvers read the spectrum alone: a dense law in another string
        # order, or built run by run, gives the same fields
        model = IidSource(Pmf([0.7, 0.2, 0.1]))
        laws = [(spectrum(p), spectrum(Pmf(p.probs[::-1])))
                for p in (Pmf([0.1, 0.6, 0.3]), Pmf([0.25, 0.0, 0.125, 0.25, 0.125, 0.25]))]
        laws.append((spectrum(materialize(model, 4)), n_letter_spectrum(model, 4)))
        for pair in laws:
            for n, rho, key_rate in ((1, 1.0, 0.8), (2, 0.5, 0.4), (3, 2.0, 0.05)):
                pairs = [(top_set(law, n, key_rate, rho), relaxed_optimum(law, n, rho, key_rate))
                         for law in pair]
                for dense, spec in zip(*pairs):
                    for f in dataclasses.fields(dense):
                        assert getattr(dense, f.name) == getattr(spec, f.name), f.name


class TestDenseOracle:
    @settings(max_examples=300, deadline=None)
    @given(laws(), rhos, rates)
    def test_relaxed_optimum(self, law, rho, key_rate):
        p, n = law
        value, active, margin = dense_relaxed(p, n, rho, key_rate)
        result = relaxed_optimum(spectrum(p), n, rho, key_rate)
        assert result.value == pytest.approx(value, abs=TOL)
        if margin > TOL:
            assert result.active_set_size == active

    @settings(max_examples=200, deadline=None)
    @given(laws(), rhos, rates)
    def test_top_set_and_bounds(self, law, rho, key_rate):
        p, n = law
        m, mass, mass_c, tilted = dense_top_set(p, n, key_rate, rho)
        law = spectrum(p)
        summary = top_set(law, n, key_rate, rho)
        assert summary.num_top == m
        assert summary.mass == pytest.approx(mass, abs=TOL)
        assert summary.mass_complement == pytest.approx(mass_c, abs=TOL)
        assert summary.tilted_sum == pytest.approx(tilted, rel=TOL)
        err = rho * key_rate + math.log(mass_c) / n if mass_c > 0.0 else -math.inf
        lower = max(err, (1.0 + rho) * math.log(tilted) / n)
        assert lower_bound_finite(law, n, rho, key_rate).value == pytest.approx(lower, abs=TOL)
        # the upper bound minimizes (rho - t) nR + t H_{1/(1+t)}(P_n) over t in
        # [0, rho], so no point of a grid over t lies below it
        grid = [rho * n * key_rate] + [
            (rho - t) * n * key_rate + t * renyi_entropy(p, 1.0 / (1.0 + t))
            for t in np.linspace(0.0, rho, 101)[1:]]
        upper = upper_bound_finite(law, n, rho, key_rate) * n - math.log(2.0)
        assert upper <= min(grid) + 1e-9

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
        assert group_xor_moment_closed(spectrum(p), k, rho) == pytest.approx(dense, rel=TOL)


FLIP = np.array([[0, 1], [1, 0]])
EMISSION = (Pmf([0.6, 0.4]), Pmf([0.25, 0.75]))
# every case of the builder: one start, several starts, a one-letter
# alphabet and a listed law
BUILDER_MODELS = {
    "iid": IidSource(Pmf([0.8, 0.2])),
    "iid-zero-letter": IidSource(Pmf([0.7, 0.0, 0.3])),
    "iid-repeated-letters": IidSource(Pmf([0.4, 0.2, 0.2, 0.2])),
    "iid-uniform": IidSource(Pmf([0.5, 0.5])),
    "iid-one-letter": IidSource(Pmf([1.0])),
    "markov-zeros": MarkovSource(Pmf([0.0, 0.6, 0.4]),
                                 np.array([[0.0, 0.5, 0.5], [0.3, 0.0, 0.7], [0.2, 0.8, 0.0]])),
    "markov-sticky": MarkovSource(Pmf([0.5, 0.5]), np.array([[1.0, 0.0], [0.3, 0.7]])),
    "unifilar-point-start": UnifilarSource(Pmf([0.0, 1.0]), FLIP, EMISSION),
    "unifilar-three-states": UnifilarSource(
        Pmf([1.0, 0.0, 0.0]), np.array([[1, 0], [2, 0], [2, 1]]),
        (Pmf([0.5, 0.5]), Pmf([0.9, 0.1]), Pmf([0.0, 1.0]))),
    "unifilar-mixed-start": UnifilarSource(Pmf([0.3, 0.7]), FLIP, EMISSION),
    "unifilar-three-starts": UnifilarSource(
        Pmf([0.2, 0.5, 0.3]), np.array([[1, 0], [2, 0], [2, 1]]),
        (Pmf([0.5, 0.5]), Pmf([0.9, 0.1]), Pmf([0.0, 1.0]))),
    "explicit": ExplicitSource(tuple(materialize(IidSource(Pmf([0.6, 0.3, 0.1])), n)
                                     for n in range(1, 6))),
}


def _lengths(model):
    """Every n with K^n <= 2^16, within the lengths an explicit source defines."""
    k = model.alphabet_size
    top = len(model.pmfs) if isinstance(model, ExplicitSource) else 16
    return [n for n in range(1, top + 1) if k ** n <= 2 ** 16]


def one_letter_walk(model, n):
    """The one n-letter value of a one-letter iid, Markov or unifilar source,
    walked a letter at a time in Python floats: each start's product in walk
    order, times its start weight, summed over the starts in state order."""
    if isinstance(model, IidSource):
        letter, to, starts = [float(model.marginal.probs[0])], [0], [(0, 1.0, 1.0, n)]
    elif isinstance(model, MarkovSource):
        letter, to = [float(model.transition[0, 0])], [0]
        starts = [(0, float(model.init.probs[0]), 1.0, n - 1)]
    else:
        letter = [float(e.probs[0]) for e in model.emission]
        to = model.next_state[:, 0].tolist()
        starts = [(s, 1.0, w, n) for s, w in enumerate(model.init_states.probs.tolist())
                  if w > 0.0]
    total = None
    for state, value, scale, steps in starts:
        for _ in range(steps):
            value *= letter[state]
            state = to[state]
        value *= scale
        total = value if total is None else total + value
    return total


class TestNLetterSpectrum:
    @pytest.mark.parametrize("name", sorted(BUILDER_MODELS))
    def test_bit_identical_to_the_dense_law(self, name, monkeypatch):
        model = BUILDER_MODELS[name]
        dense = []

        def counting(*args, **kwargs):
            dense.append(args)
            return Pmf(*args, **kwargs)

        for n in _lengths(model):
            oracle = spectrum(materialize(model, n))
            # a dense law built in sources would be a Pmf: the builder makes none
            monkeypatch.setattr(sources, "Pmf", counting)
            built = n_letter_spectrum(model, n)
            monkeypatch.undo()
            assert np.array_equal(built.values, oracle.values)
            assert np.array_equal(built.counts, oracle.counts)
            assert built.counts.dtype == oracle.counts.dtype
        assert dense == []

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_random_models(self, data):
        kind = data.draw(st.sampled_from(["iid", "markov", "unifilar"]))
        k = data.draw(st.integers(2, 3))
        n = data.draw(st.integers(1, {2: 12, 3: 8}[k]))
        if kind == "iid":
            model = IidSource(Pmf(_simplex(data.draw, k, zeros=True)))
        elif kind == "markov":
            rows = [_simplex(data.draw, k, zeros=True) for _ in range(k)]
            model = MarkovSource(Pmf(_simplex(data.draw, k, zeros=True)), np.array(rows))
        else:
            nxt = np.array(data.draw(st.lists(st.lists(st.integers(0, k - 1), min_size=k,
                                                       max_size=k), min_size=k, max_size=k)))
            # a start law with 1 to k positive weights, zeros included
            start = _simplex(data.draw, k, zeros=True)
            emission = tuple(Pmf(_simplex(data.draw, k, zeros=True)) for _ in range(k))
            model = UnifilarSource(Pmf(start), nxt, emission)
        oracle = spectrum(materialize(model, n))
        built = n_letter_spectrum(model, n)
        assert np.array_equal(built.values, oracle.values)
        assert np.array_equal(built.counts, oracle.counts)
        assert built.counts.dtype == oracle.counts.dtype

    @pytest.mark.parametrize("name", sorted(BUILDER_MODELS))
    def test_cap_at_the_same_string_count(self, name):
        model = BUILDER_MODELS[name]
        n = _lengths(model)[-1]
        size = model.alphabet_size ** n if name != "explicit" else model.pmfs[n - 1].size
        assert n_letter_spectrum(model, n, cap=size).size == size
        with pytest.raises(CapExceededError) as dense:
            materialize(model, n, cap=size - 1)
        with pytest.raises(CapExceededError) as built:
            n_letter_spectrum(model, n, cap=size - 1)
        assert str(built.value) == str(dense.value)

    def test_cap_before_any_work(self, monkeypatch):
        def no_work(*args):
            raise AssertionError("a run was merged before the cap check")

        monkeypatch.setattr(sources, "_merge_runs", no_work)
        with pytest.raises(CapExceededError, match="2\\^10000 strings"):
            n_letter_spectrum(IidSource(Pmf([0.5, 0.5])), 10_000)
        with pytest.raises(ValidationError):
            n_letter_spectrum(IidSource(Pmf([0.5, 0.5])), 0)

    def test_raised_cap_without_a_dense_law(self):
        # a cap raised past any dense law still bounds the string count at 2^52,
        # where every run count is exact as a float
        uniform = IidSource(Pmf([0.5, 0.5]))
        assert n_letter_spectrum(uniform, 52, cap=2 ** 60).counts.tolist() == [2 ** 52]
        with pytest.raises(CapExceededError) as past:
            n_letter_spectrum(uniform, 53, cap=2 ** 60)
        assert str(past.value) == "2^53 strings exceed 2^52, past which run counts are not exact floats"
        # the user's cap, when it refuses first, is the one the message names
        with pytest.raises(CapExceededError) as capped:
            n_letter_spectrum(uniform, 60, cap=2 ** 55)
        assert str(capped.value) == f"2^60 strings exceed the cap of {2 ** 55}"
        spec = n_letter_spectrum(IidSource(Pmf([0.8, 0.2])), 40, cap=2 ** 40)
        assert spec.size == 2 ** 40 and spec.values[0] == pytest.approx(0.8 ** 40, rel=1e-13)

    def test_product_tolerance(self):
        model = IidSource(Pmf([0.6, 0.4 + 8e-10], tol=1e-9))
        assert np.array_equal(n_letter_spectrum(model, 1).values,
                              spectrum(materialize(model, 1)).values)
        with pytest.raises(ValidationError) as dense:
            materialize(model, 2)
        with pytest.raises(ValidationError) as built:
            n_letter_spectrum(model, 2)
        assert str(built.value) == str(dense.value)

    @pytest.mark.parametrize("name", sorted(BUILDER_MODELS))
    def test_exact_mass(self, name):
        # the sum check sees the exact sum of value x count: the fsum of the dense law
        model = BUILDER_MODELS[name]
        for n in _lengths(model)[-3:]:
            spec = n_letter_spectrum(model, n)
            assert math.fsum(_exact_products(spec.values, spec.counts)) == math.fsum(
                materialize(model, n).probs.tolist())

    def test_one_letter_alphabet_is_one_run(self, monkeypatch):
        # K^n = 1 at every n, so no cap bounds a letter walk: none is taken
        def no_walk(*args):
            raise AssertionError("a letter was appended to a one-letter walk")

        certain = IidSource(Pmf([1.0]))
        w = 1.0 - 2.0 ** -45
        models = [IidSource(Pmf([w])), MarkovSource(Pmf([w]), np.array([[w]])),
                  UnifilarSource(Pmf([1.0, 0.0]), np.array([[1], [0]]),
                                 (Pmf([w]), Pmf([1.0 - 2.0 ** -44])))]
        monkeypatch.setattr(sources, "_append_letter", no_walk)
        spec = n_letter_spectrum(certain, 10 ** 5, cap=16)
        assert spec.values.tolist() == [1.0] and spec.counts.tolist() == [1]
        assert spec.counts.dtype == np.int64
        # the product is the letter walk's, bit for bit, and so is the dense law
        for model in models:
            for n in (1, 2, 7, 10 ** 4):
                built = n_letter_spectrum(model, n, cap=16)
                assert built.values.tolist() == [one_letter_walk(model, n)]
                assert built.counts.tolist() == [1]
                assert materialize(model, n, cap=16).probs.tolist() == built.values.tolist()

    def test_one_letter_mixed_start_is_one_run(self, monkeypatch):
        # two start states of positive weight: each start's one string comes
        # back already walked, as for a single start
        def no_walk(*args):
            raise AssertionError("a letter was appended to a one-letter walk")

        model = UnifilarSource(Pmf([0.5, 0.5]), np.array([[1], [0]]),
                               (Pmf([1.0 - 3 * 2.0 ** -50]), Pmf([1.0 - 5 * 2.0 ** -51])))
        monkeypatch.setattr(sources, "_append_letter", no_walk)
        for n in (1, 2, 7, 10 ** 5):
            spec = n_letter_spectrum(model, n, cap=16)
            assert spec.values.tolist() == [one_letter_walk(model, n)]
            assert spec.counts.tolist() == [1]

    def test_two_starts_without_the_strings(self):
        # the docs unifilar structure from both start states: 2^24 strings,
        # the default cap, in 1,400 runs and a few MB (the dense law alone
        # is 128 MB)
        model = UnifilarSource(Pmf([0.5, 0.5]), FLIP, EMISSION)
        tracemalloc.start()
        try:
            spec = n_letter_spectrum(model, 24)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert spec.size == 2 ** 24 and spec.values.size == 1400
        assert peak < 8 * 2 ** 20

    def test_exact_products_of_large_counts(self):
        values = np.array([1.0 / 3.0, 0.1, 2.0 ** -40])
        counts = np.array([2 ** 51 + 12345, 3, 2 ** 40 - 1])
        exact = sum(Fraction(v) * c for v, c in zip(values.tolist(), counts.tolist()))
        assert sum(map(Fraction, _exact_products(values, counts))) == exact
