import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import guesswork
from guesswork import (
    CapExceededError,
    ExplicitSource,
    IidSource,
    MarkovSource,
    NumericError,
    Pmf,
    UnifilarSource,
    ValidationError,
    entropy,
    model_from_dict,
    n_letter_spectrum,
    pressure,
    pressure_slope,
    renyi_entropy,
    sort_desc,
    spectrum,
    stationary,
)
from guesswork.sources import chain_source, is_irreducible, power_form
from oracles import (
    dense_matrix,
    divergence,
    irreducible_by_squaring,
    markov_renyi_rate,
    materialize,
    renyi_entropy_rate,
    tilt,
)

LN2 = math.log(2.0)


def pmf(*probs):
    return Pmf(list(probs))


class TestPmf:
    def test_rejects_negative(self):
        with pytest.raises(ValidationError):
            Pmf([1.1, -0.1])

    def test_rejects_bad_sum(self):
        with pytest.raises(ValidationError):
            Pmf([0.5, 0.4])

    def test_accepts_within_tolerance(self):
        Pmf([0.5, 0.5 + 5e-13])

    def test_rejects_non_finite(self):
        # comparisons with NaN are false, so only an explicit check catches these
        for probs in ([math.nan, 1.0], [0.5, math.nan], [math.inf, 0.0], [1.0, -math.inf]):
            with pytest.raises(ValidationError):
                Pmf(probs)

    def test_markov_rejects_non_finite_transitions(self):
        for row in ([math.nan, 1.0], [0.5, math.nan], [math.inf, 0.0]):
            with pytest.raises(ValidationError):
                MarkovSource(pmf(0.5, 0.5), np.array([[0.9, 0.1], row]))

    def test_immutable(self):
        p = pmf(0.5, 0.5)
        with pytest.raises(ValueError):
            p.probs[0] = 0.3

    def test_sum_check_in_bounded_memory(self):
        # the child's address space is capped at 768 MB; a Python float per
        # entry of this 2^24-entry law would take about 800 MB on its own
        code = "\n".join([
            "import resource",
            "resource.setrlimit(resource.RLIMIT_AS, (3 << 28, 3 << 28))",
            "import numpy as np",
            "from guesswork.sources import PRODUCT_TOL, Pmf",
            "Pmf(np.full(2 ** 24, 2.0 ** -24), tol=PRODUCT_TOL)",
        ])
        package_root = str(Path(guesswork.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, timeout=300,
            env={**os.environ, "PYTHONPATH": path, "OPENBLAS_NUM_THREADS": "1"},
        )
        assert proc.returncode == 0, proc.stderr


def per_model_loops(model, n: int) -> np.ndarray:
    """The n-letter law by the per-model loops that materialize once ran,
    kept as its reference: iid by repeated ``np.kron``, Markov by the last
    symbol's row, unifilar by one walk per start state, summed in order."""
    k = model.alphabet_size
    if isinstance(model, IidSource):
        out = model.marginal.probs
        for _ in range(n - 1):
            out = np.kron(out, model.marginal.probs)
        return out
    if isinstance(model, MarkovSource):
        cur = model.init.probs.copy()
        for _ in range(n - 1):
            last = np.arange(cur.size) % k
            cur = (cur[:, None] * model.transition[last]).ravel()
        return cur
    emission = np.array([e.probs for e in model.emission])
    total = np.zeros(k ** n)
    for s0 in range(model.num_states):
        w0 = model.init_states.probs[s0]
        if w0 == 0.0:
            continue
        probs = np.array([1.0])
        states = np.array([s0], dtype=int)
        for _ in range(n):
            probs = (probs[:, None] * emission[states]).ravel()
            states = model.next_state[states].ravel()
        total += w0 * probs
    return total


LOOP_MODELS = {
    "iid-zero-letter": IidSource(pmf(0.7, 0.0, 0.3)),
    "iid-rounding": IidSource(pmf(0.8, 0.2)),
    "markov-zeros": MarkovSource(pmf(0.0, 0.6, 0.4),
                                 np.array([[0.0, 0.5, 0.5], [0.3, 0.0, 0.7], [0.2, 0.8, 0.0]])),
    "unifilar-single-start": UnifilarSource(pmf(0.0, 1.0, 0.0),
                                            np.array([[1, 0], [2, 0], [2, 1]]),
                                            (pmf(0.5, 0.5), pmf(0.9, 0.1), pmf(0.0, 1.0))),
    "unifilar-mixed-start": UnifilarSource(pmf(0.3, 0.0, 0.7),
                                           np.array([[1, 0], [2, 0], [2, 1]]),
                                           (pmf(0.5, 0.5), pmf(0.9, 0.1), pmf(0.35, 0.65))),
}


@st.composite
def loop_models(draw):
    """An iid, Markov or unifilar model over 2-3 letters with zeros, and an n."""
    def simplex(size):
        weights = draw(st.lists(st.sampled_from([0.0, 0.1, 0.2, 0.35, 0.5, 1.0]),
                                min_size=size, max_size=size))
        weights = weights if any(weights) else [1.0] + weights[1:]
        return Pmf([w / math.fsum(weights) for w in weights], tol=1e-9)

    kind = draw(st.sampled_from(["iid", "markov", "unifilar"]))
    k = draw(st.integers(2, 3))
    n = draw(st.integers(1, {2: 12, 3: 8}[k]))
    if kind == "iid":
        return IidSource(simplex(k)), n
    if kind == "markov":
        return MarkovSource(simplex(k), np.array([simplex(k).probs for _ in range(k)])), n
    states = draw(st.integers(1, 3))
    nxt = draw(st.lists(st.lists(st.integers(0, states - 1), min_size=k, max_size=k),
                        min_size=states, max_size=states))
    return UnifilarSource(simplex(states), np.array(nxt),
                          tuple(simplex(k) for _ in range(states))), n


class TestMaterialize:
    @pytest.mark.parametrize("name", sorted(LOOP_MODELS))
    def test_matches_the_per_model_loops(self, name):
        model = LOOP_MODELS[name]
        lengths = [n for n in range(1, 15) if model.alphabet_size ** n <= 2 ** 14]
        for n in lengths:
            assert np.array_equal(materialize(model, n).probs, per_model_loops(model, n))

    @settings(max_examples=80, deadline=None)
    @given(loop_models())
    def test_random_models_match_the_per_model_loops(self, drawn):
        model, n = drawn
        assert np.array_equal(materialize(model, n).probs, per_model_loops(model, n))

    def test_iid_uniform_binary(self):
        p = materialize(IidSource(pmf(0.5, 0.5)), 2)
        assert np.allclose(p.probs, [0.25, 0.25, 0.25, 0.25])

    def test_iid_products(self):
        p = materialize(IidSource(pmf(0.8, 0.2)), 2)
        assert np.allclose(p.probs, [0.64, 0.16, 0.16, 0.04], atol=1e-15)

    def test_markov_deterministic_chain(self):
        model = MarkovSource(pmf(0.5, 0.5), np.array([[1.0, 0.0], [0.0, 1.0]]))
        p = materialize(model, 2)
        assert np.allclose(p.probs, [0.5, 0.0, 0.0, 0.5], atol=1e-15)

    def test_markov_chain_rule(self):
        pi = np.array([[0.9, 0.1], [0.3, 0.7]])
        model = MarkovSource(pmf(0.75, 0.25), pi, stationary=True)
        p = materialize(model, 3)
        # P(010) = 0.75 * 0.1 * 0.3
        assert p.probs[0b010] == pytest.approx(0.75 * 0.1 * 0.3, rel=1e-14)

    def test_unifilar_reduces_to_markov_state_chain(self):
        # states emit their label and hop deterministically: symbol decides the next state
        nxt = np.array([[0, 1], [0, 1]])
        model = UnifilarSource(pmf(1.0, 0.0), nxt, (pmf(0.9, 0.1), pmf(0.3, 0.7)))
        p = materialize(model, 2)
        # P(01) = 0.9 * 0.1 (state path 0 -> 0), P(10) = 0.1 * 0.3
        assert p.probs[0b01] == pytest.approx(0.09, rel=1e-14)
        assert p.probs[0b10] == pytest.approx(0.03, rel=1e-14)

    def test_explicit_lookup(self):
        model = ExplicitSource((pmf(0.7, 0.3), pmf(0.4, 0.3, 0.2, 0.1)))
        assert materialize(model, 2).size == 4
        with pytest.raises(ValidationError):
            materialize(model, 3)

    def test_cap(self):
        with pytest.raises(CapExceededError):
            materialize(IidSource(pmf(0.5, 0.5)), 30)

    def test_product_mass_is_one(self):
        p_n = materialize(IidSource(pmf(0.8, 0.15, 0.05)), 9)
        assert abs(math.fsum(p_n.probs.tolist()) - 1.0) <= 1e-9


class TestEntropy:
    def test_uniform(self):
        assert entropy(pmf(0.5, 0.5)) == pytest.approx(LN2, abs=1e-15)

    def test_point_mass(self):
        assert entropy(pmf(1.0, 0.0)) == 0.0

    def test_binary_08(self):
        # high-precision oracle: -0.8 ln 0.8 - 0.2 ln 0.2
        assert entropy(pmf(0.8, 0.2)) == pytest.approx(0.50040242353818788, abs=1e-14)


class TestRenyiEntropy:
    def test_uniform_any_order(self):
        for alpha in (0.3, 0.5, 2.0):
            assert renyi_entropy(pmf(0.25, 0.25, 0.25, 0.25), alpha) == pytest.approx(
                math.log(4), abs=1e-12
            )

    def test_half_order_binary(self):
        assert renyi_entropy(pmf(0.8, 0.2), 0.5) == pytest.approx(
            0.587786664902119, abs=1e-14
        )

    def test_point_mass(self):
        assert renyi_entropy(pmf(1.0, 0.0), 0.7) == 0.0

    def test_domain(self):
        for alpha in (0.0, -1.0, 1.0):
            with pytest.raises(ValidationError):
                renyi_entropy(pmf(0.5, 0.5), alpha)

    @settings(max_examples=100, derandomize=True)
    @given(st.integers(min_value=0, max_value=2 ** 31 - 1))
    def test_nonincreasing_in_order(self, seed):
        rng = np.random.default_rng(seed)
        p = Pmf(rng.dirichlet(np.ones(rng.integers(2, 12))), tol=1e-9)
        values = [renyi_entropy(p, a) for a in np.arange(0.1, 1.0, 0.1)]
        assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))


class TestDivergence:
    def test_identity(self):
        assert divergence(pmf(0.3, 0.7), pmf(0.3, 0.7)) == 0.0

    def test_support_mismatch(self):
        assert divergence(pmf(1.0, 0.0), pmf(0.0, 1.0)) == math.inf

    def test_value(self):
        assert divergence(pmf(0.5, 0.5), pmf(0.8, 0.2)) == pytest.approx(
            0.22314355131420976, abs=1e-14
        )

    @settings(max_examples=100, derandomize=True)
    @given(st.integers(min_value=0, max_value=2 ** 31 - 1))
    def test_nonnegative_zero_iff_equal(self, seed):
        rng = np.random.default_rng(seed)
        size = int(rng.integers(2, 10))
        q = Pmf(rng.dirichlet(np.ones(size)), tol=1e-9)
        p = Pmf(rng.dirichlet(np.ones(size)), tol=1e-9)
        d = divergence(q, p)
        assert d >= 0.0
        if np.abs(q.probs - p.probs).max() > 1e-6:
            assert d > 0.0
        assert divergence(q, q) <= 1e-12


class TestTilt:
    def test_identity_tilt(self):
        p = pmf(0.4, 0.3, 0.2, 0.1)
        assert np.allclose(tilt(p, 1.0).probs, p.probs, atol=1e-15)

    def test_half_tilt(self):
        t = tilt(pmf(0.8, 0.2), 0.5)
        assert t.probs[0] == pytest.approx(2.0 / 3.0, abs=1e-14)

    def test_singleton_support(self):
        t = tilt(pmf(0.4, 0.3, 0.3), 0.5, support=[1])
        assert np.allclose(t.probs, [0.0, 1.0, 0.0])

    def test_zero_mass_support(self):
        with pytest.raises(ValidationError):
            tilt(pmf(0.5, 0.5, 0.0), 0.5, support=[2])

    def test_bad_exponent(self):
        for beta in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(ValidationError):
                tilt(pmf(0.5, 0.5), beta)
        # any finite beta > 0 is a tilt, beta > 1 too
        p = pmf(0.6, 0.3, 0.1)
        powers = p.probs ** 1.5
        assert np.allclose(tilt(p, 1.5).probs, powers / powers.sum(), rtol=1e-15, atol=0.0)


class TestSortDesc:
    def test_basic(self):
        assert sort_desc(pmf(0.1, 0.7, 0.2)).tolist() == [1, 2, 0]

    def test_uniform_identity(self):
        assert sort_desc(pmf(0.25, 0.25, 0.25, 0.25)).tolist() == [0, 1, 2, 3]

    def test_tie_break_ascending(self):
        assert sort_desc(pmf(0.64, 0.16, 0.16, 0.04)).tolist() == [0, 1, 2, 3]


class TestStationary:
    def test_doubly_stochastic(self):
        q = stationary(np.array([[0.5, 0.5], [0.5, 0.5]]))
        assert np.allclose(q.probs, [0.5, 0.5], atol=1e-12)

    def test_two_state_balance(self):
        # balance equations by hand: q1 * 0.1 = q2 * 0.3
        q = stationary(np.array([[0.9, 0.1], [0.3, 0.7]]))
        assert np.allclose(q.probs, [0.75, 0.25], atol=1e-9)

    def test_periodic_chain(self):
        q = stationary(np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert np.allclose(q.probs, [0.5, 0.5], atol=1e-9)

    def test_rejects_reducible(self):
        with pytest.raises(ValidationError):
            stationary(np.eye(2))

    def test_residual(self):
        pi = np.array([[0.2, 0.5, 0.3], [0.4, 0.1, 0.5], [0.25, 0.25, 0.5]])
        q = stationary(pi)
        assert np.abs(q.probs @ pi - q.probs).sum() <= 1e-10

    def test_slowly_mixing_chain(self):
        # spectral gap 1.3e-4: a damped power iteration stalls above the
        # residual tolerance, the direct solve does not
        a, b = 1e-4, 3.333e-5
        q = stationary(np.array([[1.0 - a, a], [b, 0.99996667]]))
        assert q.probs == pytest.approx([b / (a + b), a / (a + b)], abs=1e-12)
        assert q.probs == pytest.approx([0.24998125, 0.75001875], abs=1e-9)

    @pytest.mark.parametrize("k, stay", [(3, 1.0 - 2e-7), (10, 0.97)])
    def test_sticky_many_state_chains(self, k, stay):
        # det of the solved system is ~1e-13 here (product of the k-1 nonzero
        # eigenvalues of pi - I); solvability must not hinge on its size
        pi = np.full((k, k), (1.0 - stay) / (k - 1))
        np.fill_diagonal(pi, stay)
        model = model_from_dict({"kind": "markov", "transition": pi.tolist()})
        q = model.init.probs
        assert np.abs(q @ pi - q).sum() <= 1e-15
        assert q == pytest.approx(np.full(k, 1.0 / k), abs=1e-9)

    def test_sticky_asymmetric_chain(self):
        pi = np.array([[1.0 - 3e-7, 1e-7, 2e-7],
                       [4e-7, 1.0 - 5e-7, 1e-7],
                       [1e-7, 1e-7, 1.0 - 2e-7]])
        q = stationary(pi)
        assert np.abs(q.probs @ pi - q.probs).sum() <= 1e-15
        # balance of state 0: 3e-7 q0 = 4e-7 q1 + 1e-7 q2
        assert 3.0 * q.probs[0] == pytest.approx(4.0 * q.probs[1] + q.probs[2], abs=1e-8)


class TestMarkovRenyiRate:
    def test_uniform_rows(self):
        pi = np.array([[0.5, 0.5], [0.5, 0.5]])
        assert markov_renyi_rate(pi, 0.5) == pytest.approx(LN2, abs=1e-12)

    def test_permutation_matrix(self):
        pi = np.array([[0.0, 1.0], [1.0, 0.0]])
        assert markov_renyi_rate(pi, 0.5) == pytest.approx(0.0, abs=1e-12)

    def test_domain(self):
        pi = np.array([[0.5, 0.5], [0.5, 0.5]])
        for alpha in (0.0, 1.0, 1.5):
            with pytest.raises(ValidationError):
                markov_renyi_rate(pi, alpha)

    def test_matches_finite_n(self):
        # fitted-constant comparison against materialized entropies, and the
        # gap shrinks with n
        pi = np.array([[0.9, 0.1], [0.3, 0.7]])
        model = MarkovSource(Pmf([0.75, 0.25]), pi, stationary=True)
        rate = markov_renyi_rate(pi, 0.5)
        gaps = []
        for n in range(8, 15, 2):
            p_n = materialize(model, n)
            gaps.append(abs(renyi_entropy(p_n, 0.5) / n - rate))
        assert gaps[-1] <= 0.05
        assert all(b <= a for a, b in zip(gaps, gaps[1:]))
        fitted = max(g * n for g, n in zip(gaps, range(8, 15, 2)))
        for g, n in zip(gaps, range(8, 15, 2)):
            assert g <= fitted / n + 1e-12


class TestRenyiEntropyRate:
    def test_iid(self):
        model = IidSource(pmf(0.8, 0.2))
        assert renyi_entropy_rate(model, 0.5) == pytest.approx(0.587786664902119, abs=1e-12)

    def test_orders_above_one(self):
        model = IidSource(pmf(0.8, 0.2))
        for alpha in (1.5, 2.0, 5.0):
            assert renyi_entropy_rate(model, alpha) == pytest.approx(
                renyi_entropy(model.marginal, alpha), abs=1e-12
            )
        chain = MarkovSource(pmf(0.5, 0.5), np.array([[0.5, 0.5], [0.5, 0.5]]))
        assert renyi_entropy_rate(chain, 2.0) == pytest.approx(LN2, abs=1e-12)

    def test_domain(self):
        model = IidSource(pmf(0.8, 0.2))
        for alpha in (0.0, -0.5, 1.0):
            with pytest.raises(ValidationError):
                renyi_entropy_rate(model, alpha)

    def test_unifilar_matches_markov_when_states_mirror_symbols(self):
        # emitting the label of the next state makes the source literally the chain
        pi = np.array([[0.9, 0.1], [0.3, 0.7]])
        nxt = np.array([[0, 1], [0, 1]])
        model = UnifilarSource(Pmf([1.0, 0.0]), nxt, (Pmf(pi[0]), Pmf(pi[1])))
        assert renyi_entropy_rate(model, 0.5) == pytest.approx(
            markov_renyi_rate(pi, 0.5), abs=1e-12
        )


class TestModelJson:
    def test_iid_decimal_strings(self):
        model = model_from_dict({"kind": "iid", "probs": ["0.8", "0.2"]})
        assert isinstance(model, IidSource)
        assert model.marginal.probs[0] == 0.8

    def test_markov_defaults_to_stationary_init(self):
        model = model_from_dict(
            {"kind": "markov", "transition": [[0.9, 0.1], [0.3, 0.7]]}
        )
        assert model.stationary
        assert np.allclose(model.init.probs, [0.75, 0.25], atol=1e-9)

    def test_markov_rejects_false_stationary_claim(self):
        with pytest.raises(ValidationError):
            model_from_dict({
                "kind": "markov",
                "transition": [[0.9, 0.1], [0.3, 0.7]],
                "init": [0.5, 0.5],
                "stationary": True,
            })

    def test_unifilar(self):
        model = model_from_dict({
            "kind": "unifilar",
            "next_state": [[0, 1], [1, 0]],
            "emission": [[0.6, 0.4], [0.25, 0.75]],
            "init_state": 0,
        })
        assert isinstance(model, UnifilarSource)

    def test_unknown_kind(self):
        with pytest.raises(ValidationError):
            model_from_dict({"kind": "hidden-markov"})

    def test_non_stochastic_transition(self):
        with pytest.raises(ValidationError):
            model_from_dict({"kind": "markov", "transition": [[0.9, 0.2], [0.3, 0.7]],
                             "init": [0.5, 0.5]})


def _power_iteration_root(matrix):
    """Perron root by power iteration on matrix + I (the shift defeats periodicity)."""
    shifted = matrix + np.eye(matrix.shape[0])
    v = np.full(matrix.shape[0], 1.0 / matrix.shape[0])
    lam = 0.0
    for _ in range(100000):
        w = v @ shifted
        new = float(w.sum())
        v = w / new
        if abs(new - lam) <= 1e-15 * new:
            break
        lam = new
    return new - 1.0


def _scalar_pressure(matrix_at, theta):
    """(1+theta) ln of the Perron root of the tilted matrix, one theta at a time."""
    return (1.0 + theta) * math.log(_power_iteration_root(matrix_at(1.0 / (1.0 + theta))))


class TestPressure:
    """The batched pressure against per-theta oracles."""

    def _thetas(self, seed):
        return np.random.default_rng(seed).uniform(0.0, 4.0, size=16)

    def test_iid_matches_power_sum(self):
        rng = np.random.default_rng(41)
        for _ in range(10):
            p = Pmf(rng.dirichlet(np.ones(int(rng.integers(2, 9)))), tol=1e-9)
            thetas = self._thetas(int(rng.integers(2 ** 31)))
            oracle = [(1.0 + t) * math.log(math.fsum((p.probs ** (1.0 / (1.0 + t))).tolist()))
                      for t in thetas.tolist()]
            assert np.abs(pressure(IidSource(p), thetas) - oracle).max() <= 1e-12

    def test_markov_matches_power_iteration(self):
        rng = np.random.default_rng(43)
        for k in (2, 3, 4):
            pi = rng.dirichlet(np.ones(k), size=k)
            model = MarkovSource(Pmf(np.full(k, 1.0 / k)), pi)
            thetas = self._thetas(k)
            oracle = [_scalar_pressure(lambda b: pi ** b, t) for t in thetas.tolist()]
            assert np.abs(pressure(model, thetas) - oracle).max() <= 1e-12

    def test_unifilar_matches_power_iteration(self):
        rng = np.random.default_rng(47)
        nxt = np.array([[0, 1, 2], [1, 2, 0], [2, 2, 1]])
        emission = tuple(Pmf(rng.dirichlet(np.ones(3)), tol=1e-9) for _ in range(3))
        model = UnifilarSource(pmf(1.0, 0.0, 0.0), nxt, emission)

        def state_power(beta):
            out = np.zeros((3, 3))
            for s in range(3):
                for x in range(3):
                    out[s, nxt[s, x]] += emission[s].probs[x] ** beta
            return out

        thetas = self._thetas(5)
        oracle = [_scalar_pressure(state_power, t) for t in thetas.tolist()]
        assert np.abs(pressure(model, thetas) - oracle).max() <= 1e-12

    def test_finite_law_matches_dense_sum(self):
        rng = np.random.default_rng(53)
        pi = rng.dirichlet(np.ones(2), size=2)
        laws = [
            materialize(IidSource(Pmf(rng.dirichlet(np.ones(2)), tol=1e-9)), 12),
            materialize(MarkovSource(pmf(0.5, 0.5), pi), 12),
            # every value distinct: the distinct-value sum degenerates to the dense one
            materialize(ExplicitSource((Pmf(rng.dirichlet(np.ones(200)), tol=1e-9),)), 1),
        ]
        thetas = self._thetas(7)
        for p in laws:
            oracle = [(1.0 + t) * math.log(math.fsum((p.probs ** (1.0 / (1.0 + t))).tolist()))
                      for t in thetas.tolist()]
            assert np.abs(pressure(spectrum(p), thetas) - oracle).max() <= 1e-12

    def test_zero_at_zero_and_chunk_independent(self):
        # a law with 4096 distinct values spans many 2^16-float chunks
        rng = np.random.default_rng(59)
        law = spectrum(Pmf(rng.dirichlet(np.ones(4096)), tol=1e-9))
        thetas = np.linspace(0.0, 3.0, 1024)
        batched = pressure(law, thetas)
        assert abs(batched[0]) <= 1e-12
        single = np.array([float(pressure(law, t)) for t in thetas[::97].tolist()])
        assert np.abs(batched[::97] - single).max() <= 1e-13


class TestPowerForm:
    """The next-state table's matrices against the dense (states x letters x
    states) scatter einsum, bit for bit, and its strong-connectivity search
    against squaring the state adjacency."""

    def _assert_dense(self, model, seed):
        # the two entry stacks the package gathers, e^(beta logs) and
        # e^(beta logs) x logs, chunk by chunk over betas on both sides of 1
        form = power_form(model)
        betas = np.random.default_rng(seed).uniform(0.05, 4.0, size=40)
        for _, _, logs, w in form.powers(betas):
            for entries in (w, w * logs):
                assert np.array_equal(form.matrix(entries), dense_matrix(form, entries))

    def test_iid_matches_the_dense_scatter(self):
        rng = np.random.default_rng(61)
        for k in (3, 4, 5, 6, 7) * 4:
            probs = rng.dirichlet(np.ones(k)) * (rng.uniform(size=k) > 0.2)
            probs[0] += 1.0 - probs.sum()
            self._assert_dense(IidSource(Pmf(probs, tol=1e-9)), int(rng.integers(2 ** 31)))

    def test_markov_matches_the_dense_scatter(self):
        rng = np.random.default_rng(67)
        for size in (2, 3, 5, 8, 13, 21, 34, 60):
            # a sparse chain: the cyclic step and a few random transitions
            pi = rng.dirichlet(np.ones(size), size=size) * (rng.uniform(size=(size, size)) > 0.7)
            pi[np.arange(size), (np.arange(size) + 1) % size] += 0.1
            self._assert_dense(chain_source(pi / pi.sum(axis=1, keepdims=True)), size)

    def test_unifilar_matches_the_dense_scatter(self):
        # letters share next states, and some letters have zero weight
        rng = np.random.default_rng(71)
        for _ in range(60):
            size, k = int(rng.integers(2, 7)), int(rng.integers(2, 9))
            nxt = rng.integers(0, size, size=(size, k))
            nxt[:, 0] = (np.arange(size) + 1) % size
            emission = rng.dirichlet(np.ones(k), size=size) * (rng.uniform(size=(size, k)) > 0.3)
            emission[:, 0] += 0.05
            model = UnifilarSource(pmf(*([1.0] + [0.0] * (size - 1))), nxt, tuple(
                Pmf(row / row.sum(), tol=1e-9) for row in emission))
            self._assert_dense(model, int(rng.integers(2 ** 31)))

    def test_finite_laws_match_the_dense_scatter(self):
        rng = np.random.default_rng(73)
        flip = np.array([[0, 1], [1, 0]])
        for model, n in ((IidSource(pmf(0.5, 0.3, 0.2)), 6), (IidSource(pmf(0.8, 0.2)), 14),
                         (chain_source(rng.dirichlet(np.ones(3), size=3)), 7),
                         (UnifilarSource(pmf(0.5, 0.5), flip, (pmf(0.6, 0.4), pmf(0.25, 0.75))),
                          12)):
            self._assert_dense(n_letter_spectrum(model, n), n)

    def test_reachability_matches_squaring(self):
        rng = np.random.default_rng(79)
        tables = [
            # a one-way chain 0 -> 1 -> 2 -> 3, and the same chain closed
            (np.array([[1], [2], [3], [3]]), np.ones((4, 1), dtype=bool)),
            (np.array([[1], [2], [3], [0]]), np.ones((4, 1), dtype=bool)),
            # state 2 only loops on itself
            (np.array([[1, 2], [0, 2], [2, 2]]), np.ones((3, 2), dtype=bool)),
            # the edge back to 0 is masked by a zero weight
            (np.array([[1, 0], [0, 1]]), np.array([[True, False], [False, True]])),
            (np.array([[0]]), np.ones((1, 1), dtype=bool)),
        ]
        for _ in range(400):
            size, k = int(rng.integers(1, 9)), int(rng.integers(1, 4))
            tables.append((rng.integers(0, size, size=(size, k)),
                           rng.uniform(size=(size, k)) > rng.uniform(0.0, 0.6)))
        verdicts = [is_irreducible(nxt, counted) for nxt, counted in tables]
        assert verdicts == [irreducible_by_squaring(nxt, counted) for nxt, counted in tables]
        assert verdicts[:5] == [False, True, False, False, True]
        assert 50 < sum(verdicts) < 350

    def test_large_chain_form_in_bounded_memory(self):
        # a 200-state chain that stays or steps to the next state (mod 200),
        # each with probability 1/2; its dense scatter is 200^3 floats, 61 MB
        pi = 0.5 * (np.eye(200) + np.roll(np.eye(200), 1, axis=1))
        model = chain_source(pi)
        tracemalloc.start()
        try:
            form = power_form(model)
            _, _, _, w = next(form.powers(np.array([0.5])))
            m = form.matrix(w)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2 ** 20
        assert np.array_equal(m[0], np.sqrt(model.transition))


class TestPressureNearMinusOne:
    """Near theta = -1 a multi-state Perron root can underflow; the public
    pressure and its slope raise NumericError there, never -inf, NaN or a
    numpy warning."""

    @pytest.mark.filterwarnings("error")
    def test_seeded_chains_are_finite_or_refused(self):
        # the first chain, with 5 states, read -inf and NaN at theta = -0.9999
        rng, refused = np.random.default_rng(0), []
        for i in range(100):
            k = int(rng.integers(2, 6))
            model = chain_source(rng.dirichlet(np.ones(k), size=k))
            for read in (pressure, pressure_slope):
                assert np.isfinite(read(model, np.array([-0.5, 0.0, 1.0]))).all()
                try:
                    assert np.isfinite(read(model, np.array([0.5, -0.9999]))).all()
                except NumericError as exc:
                    assert "not finite" in str(exc)
                    refused.append(i)
        assert refused[:2] == [0, 0]

    @pytest.mark.filterwarnings("error")
    def test_one_state_forms_stay_finite_at_the_tie_floor(self):
        # beta = 2^53, where the correct term reads its tie floor: P is ln p_max
        # and P' is ln(#peak letters), up to the 2^-53 ln(#peaks) of (1+theta)
        theta = 2.0 ** -53 - 1.0
        for law, p_max, peaks in ((IidSource(pmf(0.5, 0.3, 0.2)), 0.5, 1),
                                  (IidSource(pmf(0.4, 0.4, 0.2)), 0.4, 2),
                                  (n_letter_spectrum(IidSource(pmf(0.6, 0.3, 0.1)), 3), 0.216, 1)):
            assert float(pressure(law, theta)) == pytest.approx(math.log(p_max), abs=1e-12)
            assert float(pressure_slope(law, theta)) == pytest.approx(math.log(peaks), abs=1e-12)


class TestPressureSlope:
    @pytest.mark.parametrize("model", [
        IidSource(pmf(0.7, 0.2, 0.1)),
        IidSource(pmf(0.5, 0.0, 0.5)),
        MarkovSource(pmf(0.5, 0.5), np.array([[0.9, 0.1], [0.3, 0.7]])),
        MarkovSource(pmf(0.2, 0.3, 0.5),
                     np.array([[0.5, 0.3, 0.2], [0.1, 0.0, 0.9], [0.4, 0.4, 0.2]])),
        # the form of docs/examples/unifilar.json
        UnifilarSource(pmf(1.0, 0.0), np.array([[0, 1], [1, 0]]),
                       (pmf(0.6, 0.4), pmf(0.25, 0.75))),
        n_letter_spectrum(IidSource(pmf(0.6, 0.3, 0.1)), 6),
    ], ids=["iid", "iid-zero", "markov", "markov-3", "unifilar", "finite"])
    def test_batch_and_single_theta_bit_for_bit(self, model):
        thetas = np.random.default_rng(61).uniform(0.0, 3.0, size=150)
        batched = pressure_slope(model, thetas)
        single = [float(pressure_slope(model, np.array([t]))[0]) for t in thetas.tolist()]
        assert batched.tolist() == single
