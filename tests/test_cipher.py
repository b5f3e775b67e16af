import functools
import itertools
import math
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import guesswork
from guesswork import (
    CapExceededError,
    Cipher,
    IidSource,
    Pmf,
    attack_moment,
    build_group_xor_cipher,
    brute_force_best_cipher,
    group_xor_moment_closed,
    guessing_exponent_achieved,
    harmonic_number,
    keys_for_rate,
    n_letter_spectrum,
    spectrum,
)
from guesswork.cipher import (
    _attack_weights,
    _multisets,
    column_terms,
    validate_tables,
)
from guesswork.errors import NumericError, ValidationError
from guesswork.guessing import GuessOrder
from oracles import (
    attack_moment_for_orders,
    enumerated_best_cipher,
    materialize,
    moment,
    optimal_attack,
)

LN2 = math.log(2.0)


def pmf(*probs):
    return Pmf(list(probs))


class TestCipher:
    def test_key_rate_exact(self):
        # 3 ln2 / 4 nats per letter at n = 4 is exactly three key bits
        assert keys_for_rate(4, 3 * LN2 / 4) == 3
        cipher = Cipher(np.arange(8)[:, None] ^ np.arange(16), Pmf(np.full(16, 1 / 16)))
        assert cipher.table.shape == (8, 16)

    def test_key_rows_are_a_power_of_two(self):
        # three key rows, and a bare row that is no (keys x messages) table
        for table in ([[0, 1, 2], [1, 2, 0], [2, 0, 1]], [0, 1, 2]):
            with pytest.raises(ValidationError, match="2\\^k keys"):
                Cipher(np.array(table), pmf(0.5, 0.3, 0.2))

    def test_width_is_the_law_size(self):
        with pytest.raises(ValidationError, match="the law's messages"):
            Cipher(np.array([[0, 1, 2], [2, 1, 0]]), pmf(0.4, 0.3, 0.2, 0.1))


class TestGroupXorConstruction:
    def test_forced_table(self):
        cipher = build_group_xor_cipher(pmf(0.4, 0.3, 0.2, 0.1), 1)
        # f(index, 0) identity; key 1 swaps within the blocks {0,1} and {2,3}
        assert cipher.table[0].tolist() == [0, 1, 2, 3]
        assert cipher.table[1].tolist() == [1, 0, 3, 2]

    def test_zero_key_bits_identity(self):
        cipher = build_group_xor_cipher(pmf(0.4, 0.3, 0.2, 0.1), 0)
        assert cipher.table.shape == (1, 4)
        assert cipher.table[0].tolist() == [0, 1, 2, 3]

    def test_padding(self):
        cipher = build_group_xor_cipher(pmf(0.5, 0.3, 0.2), 1)
        assert cipher.table.shape == (2, 4)
        assert cipher.pmf.probs.tolist() == [0.5, 0.3, 0.2, 0.0]

    def test_reindexes_descending(self):
        cipher = build_group_xor_cipher(pmf(0.1, 0.6, 0.3), 0)
        assert cipher.pmf.probs.tolist() == [0.6, 0.3, 0.1]

    def test_table_size_cap(self):
        # the M x padded-count table is refused before anything is allocated
        for k in (13, 47, 5000):
            with pytest.raises(CapExceededError):
                build_group_xor_cipher(pmf(0.5, 0.3, 0.2), k)

    def test_bad_key_is_named(self):
        with pytest.raises(ValidationError, match="^key 1 does not act as a bijection"):
            Cipher(np.array([[0, 1, 2], [0, 0, 2], [1, 1, 1], [2, 1, 0]]), pmf(0.5, 0.3, 0.2))

    def test_stack_names_the_first_bad_table_and_key(self):
        stack = np.array([[[0, 1, 2], [2, 1, 0]]] * 4)
        validate_tables(stack)
        stack[2, 1] = [2, 2, 0]
        stack[3, 0] = [0, 1, 1]
        with pytest.raises(ValidationError, match="^table 2, key 1 does not"):
            validate_tables(stack)


class TestOptimalAttack:
    def test_group_sweep(self):
        cipher = build_group_xor_cipher(pmf(0.4, 0.3, 0.2, 0.1), 1)
        for y in (0, 1):
            order = optimal_attack(cipher, y)
            assert order.rank[0] == 1 and order.rank[1] == 2
        for y in (2, 3):
            order = optimal_attack(cipher, y)
            assert order.rank[2] == 1 and order.rank[3] == 2

    def test_identity_cipher_reveals_message(self):
        # without key bits the cipher is a fixed public bijection: the
        # posterior is a point mass on the decode of y
        cipher = build_group_xor_cipher(pmf(0.2, 0.5, 0.3), 0)
        for y in range(3):
            order = optimal_attack(cipher, y)
            assert order.rank[y] == 1

    def test_uniform_tie_break(self):
        cipher = build_group_xor_cipher(pmf(0.25, 0.25, 0.25, 0.25), 1)
        order = optimal_attack(cipher, 0)
        # block {0,1} first by ascending index, zero-posterior block after
        assert order.rank.tolist() == [1, 2, 3, 4]


class TestAttackMoment:
    def test_no_key_is_decodable(self):
        # one guess suffices when there is no key to hide behind
        cipher = build_group_xor_cipher(pmf(0.4, 0.3, 0.2, 0.1), 0)
        assert attack_moment(cipher, 1.0) == pytest.approx(1.0, abs=1e-14)

    def test_key_covering_messages_is_plain_guessing(self):
        # the opposite end: one block spanning everything degenerates to
        # unconditional probability-order guessing
        cipher = build_group_xor_cipher(pmf(0.4, 0.3, 0.2, 0.1), 2)
        assert attack_moment(cipher, 1.0) == pytest.approx(2.0, abs=1e-14)

    def test_group_xor_value(self):
        cipher = build_group_xor_cipher(pmf(0.4, 0.3, 0.2, 0.1), 1)
        assert attack_moment(cipher, 1.0) == pytest.approx(1.4, abs=1e-14)

    def test_point_mass_between_one_and_keys(self):
        p = pmf(1.0, 0.0, 0.0, 0.0)
        for k in (0, 1, 2):
            cipher = build_group_xor_cipher(p, k)
            for rho in (0.5, 1.0, 2.0):
                value = attack_moment(cipher, rho)
                assert 1.0 - 1e-12 <= value <= (2.0 ** k) ** rho + 1e-12

    def test_optimal_beats_random_orders(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            size = int(rng.integers(2, 9))
            p = Pmf(rng.dirichlet(np.ones(size)), tol=1e-9)
            k = int(rng.integers(0, 3))
            rho = float(rng.uniform(0.3, 2.0))
            cipher = build_group_xor_cipher(p, k)
            best = attack_moment(cipher, rho)
            n_msgs = cipher.pmf.size
            for _ in range(5):
                orders = [GuessOrder(rng.permutation(n_msgs) + 1) for _ in range(n_msgs)]
                other = attack_moment_for_orders(cipher, rho, orders)
                assert best <= other + 1e-12

    def test_group_xor_at_65536_messages_in_bounded_memory(self):
        # a dense N x N count matrix would need 32 GB here; the child's
        # address space is capped at 1 GB
        code = "\n".join([
            "import resource",
            "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))",
            "import numpy as np",
            "from guesswork import (Pmf, attack_moment, build_group_xor_cipher,",
            "                       group_xor_moment_closed, spectrum)",
            "p = Pmf(np.random.default_rng(5).dirichlet(np.ones(1 << 16)), tol=1e-9)",
            "cipher = build_group_xor_cipher(p, 2)",
            "for rho in (0.5, 1.0, 2.0):",
            "    exact = attack_moment(cipher, rho)",
            "    closed = group_xor_moment_closed(spectrum(p), 2, rho)",
            "    assert abs(exact - closed) <= 1e-12, (rho, exact, closed)",
        ])
        package_root = str(Path(guesswork.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, timeout=300,
            env={**os.environ, "PYTHONPATH": path, "OPENBLAS_NUM_THREADS": "1"},
        )
        assert proc.returncode == 0, proc.stderr

    def test_posterior_tie_invariance(self):
        # equal posteriors commute: swapping tied messages leaves the moment alone
        p = pmf(0.3, 0.3, 0.2, 0.2)
        cipher = build_group_xor_cipher(p, 1)
        rho = 1.3
        base = attack_moment(cipher, rho)
        n_msgs = cipher.pmf.size
        orders = []
        for y in range(n_msgs):
            order = optimal_attack(cipher, y)
            rank = order.rank.copy()
            weights = cipher.pmf.probs * (cipher.table == y).sum(axis=0)
            for a in range(n_msgs):
                for b in range(a + 1, n_msgs):
                    if weights[a] == weights[b]:
                        rank[a], rank[b] = rank[b], rank[a]
            orders.append(GuessOrder(rank))
        assert attack_moment_for_orders(cipher, rho, orders) == pytest.approx(
            base, abs=1e-13
        )


def oracle_moment_for_orders(cipher, rho, orders):
    """The per-table moment formula, one Python rank lookup per term."""
    row, msg, weight, _ = _attack_weights(np.argsort(cipher.table, axis=1, kind="stable").T,
                                          cipher.pmf.probs)
    rank = np.array([orders[y].rank[m] for y, m in zip(row.tolist(), msg.tolist())], dtype=int)
    return math.fsum((weight / len(cipher.table) * rank ** rho).tolist())


class TestMomentsForRanks:
    def test_stack_equals_each_table_bit_for_bit(self):
        # the columns of 20 tables scored in one call give each table's moment
        rng = np.random.default_rng(41)
        for size, k in ((3, 1), (4, 1), (5, 2), (8, 2)):
            p = Pmf(rng.dirichlet(np.ones(size)), tol=1e-9)
            rho = float(rng.uniform(0.3, 2.0))
            tables = np.array([[rng.permutation(size) for _ in range(2 ** k)]
                               for _ in range(20)])
            ranks = np.array([[rng.permutation(size) + 1 for _ in range(size)]
                              for _ in range(20)])
            cols = np.argsort(tables, axis=-1, kind="stable").transpose(0, 2, 1)
            terms = column_terms(cols.reshape(-1, 2 ** k), p.probs, rho,
                                 ranks.reshape(-1, size))
            assert len(terms) == 20 * size
            moments = [math.fsum(t for col in terms[i:i + size] for t in col)
                       for i in range(0, len(terms), size)]
            for table, rank, value in zip(tables, ranks, moments):
                cipher = Cipher(table, p)
                orders = [GuessOrder(r) for r in rank]
                assert value == oracle_moment_for_orders(cipher, rho, orders)
                assert attack_moment_for_orders(cipher, rho, orders) == value

    def test_optimal_ranks_give_attack_moment(self):
        p = pmf(0.3, 0.3, 0.2, 0.1, 0.1)
        cipher = build_group_xor_cipher(p, 2)
        orders = [optimal_attack(cipher, y) for y in range(cipher.pmf.size)]
        assert attack_moment_for_orders(cipher, 1.3, orders) == pytest.approx(
            attack_moment(cipher, 1.3), abs=1e-15)

    def test_without_ranks_the_optimal_attack_bit_for_bit(self):
        # column_terms without a rank table is attack_moment's, term for term
        p = pmf(0.3, 0.3, 0.2, 0.1, 0.1)
        cipher = build_group_xor_cipher(p, 2)
        orders = [optimal_attack(cipher, y) for y in range(cipher.pmf.size)]
        cols = np.argsort(cipher.table, axis=1, kind="stable").T
        ranks = np.array([order.rank for order in orders])
        assert (column_terms(cols, cipher.pmf.probs, 1.3)
                == column_terms(cols, cipher.pmf.probs, 1.3, ranks))


def oracle_attack_ceiling(seed, tighten=1.0):
    """The attack-ceiling check one cipher at a time, with its budget and
    ceiling scaled by ``tighten``: (violations, cases, every table's moment)."""
    from guesswork import (LengthFunction, integer_bruteforce, interleave, order_from_lengths,
                           saturated_moment)
    from guesswork.verify import _random_pmf, _rng

    rng = _rng(seed, 4)
    violations = 0
    moments = []
    for n_msgs in (2, 3, 4):
        for _ in range(3):
            p = _random_pmf(rng, n_msgs)
            for k in (0, 1):
                rho = float(rng.uniform(0.3, 2.0))
                key_rate = k * LN2 if k else 0.5
                _, lengths = integer_bruteforce(p, rho, key_rate, 1)
                lf = LengthFunction(lengths)
                base_order = order_from_lengths(lf)
                budget = 2.0 * np.exp(np.minimum(lf.lengths * LN2, key_rate)) * tighten
                sat_cost = saturated_moment(lf, p, rho, 1, key_rate)
                perms = list(itertools.permutations(range(n_msgs)))
                for combo in itertools.product(perms, repeat=2 ** k):
                    cipher = Cipher(np.array(combo, dtype=int), p)
                    inverse = np.argsort(cipher.table, axis=1, kind="stable")
                    orders = []
                    for key_search in inverse.T.tolist():
                        merged = interleave(base_order, key_search)
                        orders.append(merged)
                        for x in key_search:
                            if merged.rank[x] > budget[x] * (1.0 + 1e-12):
                                violations += 1
                    moment = oracle_moment_for_orders(cipher, rho, orders)
                    moments.append(moment)
                    if moment > 2.0 ** rho * sat_cost * (1.0 + 1e-12) * tighten:
                        violations += 1
    return violations, len(moments), moments


class TestAttackCeilingStack:
    @pytest.mark.parametrize("seed", [0, 7, 12345])
    def test_matches_per_cipher_loop(self, seed):
        from guesswork.verify import (_all_tables, _ceiling_cases, _ceiling_violations,
                                      check_attack_ceiling)

        for tighten in (1.0, 0.5):
            want_violations, want_cases, want_moments = oracle_attack_ceiling(seed, tighten)
            violations = cases = 0
            moments = []
            for p, k, rho, base_order, budget, ceiling in _ceiling_cases(seed):
                tables = _all_tables(p.size, 2 ** k)
                found, values = _ceiling_violations(tables, p, rho, base_order,
                                                    budget * tighten, ceiling * tighten)
                violations += found
                cases += len(tables)
                moments.extend(values.tolist())
            assert (violations, cases) == (want_violations, want_cases)
            assert moments == want_moments
            if tighten == 1.0:
                assert check_attack_ceiling(seed).detail == (
                    f"{violations} violations over {cases} enumerated ciphers")
            else:
                assert violations > 0

    def test_tables_in_product_order(self):
        from guesswork.verify import _all_tables

        perms = list(itertools.permutations(range(3)))
        for keys in (1, 2):
            want = [list(combo) for combo in itertools.product(perms, repeat=keys)]
            assert _all_tables(3, keys).tolist() == [[list(row) for row in t] for t in want]


class TestClosedForm:
    def test_example(self):
        law = spectrum(pmf(0.4, 0.3, 0.2, 0.1))
        assert group_xor_moment_closed(law, 1, 1.0) == pytest.approx(1.4, abs=1e-15)

    def test_single_group_is_plain_guessing(self):
        p = pmf(0.4, 0.3, 0.2, 0.1)
        assert group_xor_moment_closed(spectrum(p), 2, 1.0) == pytest.approx(2.0, abs=1e-15)

    def test_uniform_four(self):
        law = spectrum(pmf(0.25, 0.25, 0.25, 0.25))
        assert group_xor_moment_closed(law, 1, 1.0) == pytest.approx(1.5, abs=1e-15)

    def test_huge_key_count_needs_no_padding(self):
        # one block of 2^k covers everything: plain probability-order guessing
        # (2^70 also overflows a 64-bit integer)
        p = pmf(0.1, 0.4, 0.2, 0.3)
        plain = math.fsum(q * i ** 1.5 for i, q in enumerate((0.4, 0.3, 0.2, 0.1), start=1))
        for k in (47, 70, 5000):
            assert group_xor_moment_closed(spectrum(p), k, 1.5) == pytest.approx(plain, abs=1e-15)

    def test_matches_exact_attack(self):
        rng = np.random.default_rng(23)
        for _ in range(100):
            size = int(rng.integers(2, 65))
            k = int(rng.integers(0, 5))
            rho = float(rng.uniform(0.2, 2.5))
            p = Pmf(rng.dirichlet(np.ones(size)), tol=1e-9)
            cipher = build_group_xor_cipher(p, k)
            assert group_xor_moment_closed(spectrum(p), k, rho) == pytest.approx(
                attack_moment(cipher, rho), abs=1e-12
            )


class TestBruteForce:
    def test_zero_keys(self):
        # every keyless cipher is a fixed public bijection, so the best the
        # designer can force is a single guess
        p = pmf(0.5, 0.3, 0.2)
        result = brute_force_best_cipher(p, 0, 1.0)
        assert result.max_moment == pytest.approx(1.0, abs=1e-14)
        # one key leaves one table, the identity
        assert result.tables_searched == 1
        assert np.array_equal(result.witness.table, [[0, 1, 2]])

    def test_uniform_all_ciphers_equal(self):
        p = pmf(0.25, 0.25, 0.25, 0.25)
        result = brute_force_best_cipher(p, 1, 1.0)
        assert result.max_moment == pytest.approx(
            group_xor_moment_closed(spectrum(p), 1, 1.0), abs=1e-12
        )

    def test_matches_full_enumeration(self):
        # oracle for the oracle: enumerate ordered tables without reductions
        rng = np.random.default_rng(3)
        for _ in range(3):
            size = int(rng.integers(2, 4))
            rho = float(rng.uniform(0.3, 2.0))
            p = Pmf(rng.dirichlet(np.ones(size)), tol=1e-9)
            perms = list(itertools.permutations(range(size)))
            best_full = max(
                attack_moment(Cipher(np.array(tables), p), rho)
                for tables in itertools.product(perms, repeat=2)
            )
            result = brute_force_best_cipher(p, 1, rho)
            assert result.max_moment == pytest.approx(best_full, abs=1e-12)

    def test_beats_group_xor_when_divisible(self):
        rng = np.random.default_rng(31)
        for _ in range(5):
            p = Pmf(rng.dirichlet(np.ones(4)), tol=1e-9)
            rho = float(rng.uniform(0.3, 2.0))
            result = brute_force_best_cipher(p, 1, rho)
            assert result.max_moment >= group_xor_moment_closed(spectrum(p), 1, rho) - 1e-12

    def test_example_bracket(self):
        p = pmf(0.5, 0.3, 0.2)
        rho = 1.0
        result = brute_force_best_cipher(p, 1, rho)
        assert result.max_moment >= group_xor_moment_closed(spectrum(p), 1, rho) - 1e-12
        # ceiling from the saturated-cost optimum via the harmonic constant
        from guesswork import integer_bruteforce

        value, _ = integer_bruteforce(p, rho, LN2, 1)
        ceiling = 2.0 ** rho * math.exp(value)
        assert result.max_moment <= ceiling + 1e-9

    def test_guard(self, monkeypatch):
        import guesswork.cipher as ci

        # an explicit cap refuses a search whose states x columns exceed it,
        # and runs one that meets it: 3 messages at one key bit are
        # 3^3 x C(4, 2) = 162, and 2 at three key bits 9^2 x C(9, 8) = 729
        p = pmf(0.5, 0.3, 0.2)
        with pytest.raises(CapExceededError, match="27 states x 6 columns"):
            brute_force_best_cipher(p, 1, 1.0, cap=161)
        assert brute_force_best_cipher(p, 1, 1.0, cap=162).tables_searched == 6
        with pytest.raises(CapExceededError, match="81 states x 9 columns"):
            brute_force_best_cipher(pmf(0.5, 0.5), 3, 1.0, cap=728)
        # half the keys swap the two messages, so the wiretapper learns nothing
        result = brute_force_best_cipher(pmf(0.5, 0.5), 3, 1.0, cap=729)
        assert result.max_moment == 1.5 and result.tables_searched == 8
        # 6 messages and 2 key bits: 5^6 states x 126 columns fit the cap,
        # and the search covers C(722, 3) canonical tables
        p = pmf(*([1.0 / 6] * 6))
        result = brute_force_best_cipher(p, 2, 1.0)
        assert np.array_equal(result.witness.table[0], np.arange(6))
        assert result.max_moment == attack_moment(result.witness, 1.0)
        assert result.tables_searched == math.comb(722, 3)
        # 8 messages at 2 key bits (5^8 states x 330 columns) and 12 at one
        # (3^12 x 78) exceed 2^24 and are refused before any array is built
        monkeypatch.setattr(ci, "_column_moments", lambda *args: pytest.fail("built"))
        for size, k in ((8, 2), (12, 1)):
            with pytest.raises(CapExceededError, match="states"):
                brute_force_best_cipher(pmf(*([1.0 / size] * size)), k, 1.0)

    def test_thread_determinism(self):
        # the search is single-threaded: repeated calls, and calls made from
        # concurrent threads, return the same moment, witness and table count
        from concurrent.futures import ThreadPoolExecutor

        p = pmf(0.4, 0.3, 0.2, 0.1)
        a = brute_force_best_cipher(p, 2, 0.7)
        b = brute_force_best_cipher(p, 2, 0.7)
        with ThreadPoolExecutor(max_workers=2) as pool:
            concurrent = list(pool.map(lambda _: brute_force_best_cipher(p, 2, 0.7), range(2)))
        for other in [b, *concurrent]:
            assert a.max_moment == other.max_moment
            assert np.array_equal(a.witness.table, other.witness.table)
            assert a.tables_searched == other.tables_searched == math.comb(26, 3)


class TestPastTheOracle:
    @pytest.mark.parametrize("size", [6, 7])
    def test_bracket_and_witness(self, size):
        # laws with ties and zeros (integer weights 0..3) and one without;
        # the oracle cannot list C(6! + 2, 3) tables, so the maximum is
        # bracketed: at least the block-XOR cipher's and 200 random tables',
        # at most 2^rho times the saturated-cost optimum at rate k ln2
        from guesswork import integer_bruteforce

        rng = np.random.default_rng(size)
        laws = [rng.integers(0, 4, size).astype(float) + np.eye(size)[0] for _ in range(2)]
        laws.append(rng.dirichlet(np.ones(size)))
        for weights in laws:
            p = Pmf(weights / weights.sum(), tol=1e-9)
            for k in (1, 2):
                m_keys, rho = 2 ** k, float(rng.uniform(0.3, 2.0))
                result = brute_force_best_cipher(p, k, rho)
                best = result.max_moment
                assert np.array_equal(result.witness.table[0], np.arange(size))
                assert best == attack_moment(result.witness, rho)
                assert result.tables_searched == math.comb(
                    math.factorial(size) + m_keys - 2, m_keys - 1)
                assert best >= group_xor_moment_closed(spectrum(p), k, rho) * (1.0 - 1e-12)
                tables = np.argsort(rng.random((200, m_keys, size)), axis=-1)
                for table in tables:
                    random = attack_moment(Cipher(table, p), rho)
                    assert random <= best * (1.0 + 1e-12)
                value, _ = integer_bruteforce(p, rho, k * LN2, 1)
                assert best <= 2.0 ** rho * math.exp(value) + 1e-9

    def test_seven_messages_at_two_key_bits_within_a_second(self):
        # C(7! + 2, 3) = 2.1e10 canonical tables, as 5^7 states x 210 columns
        p = Pmf(np.random.default_rng(7).dirichlet(np.ones(7)))
        start = time.perf_counter()
        result = brute_force_best_cipher(p, 2, 1.0)
        assert time.perf_counter() - start < 1.0
        assert result.tables_searched == math.comb(5042, 3)


def canonical_tables(size, k):
    """(keys, table) of every canonical table: key 0 the identity, the other
    keys a non-decreasing tuple of lexicographic permutation indices."""
    perms = list(itertools.permutations(range(size)))
    for keys in itertools.combinations_with_replacement(range(len(perms)), 2 ** k - 1):
        yield list(keys), np.array([perms[0]] + [perms[i] for i in keys])


# tied laws (uniform, repeated values, zero mass) and untied ones; k = 0 and 1
# up to five messages, k = 2 up to four (and at five in its own test)
LOOKUP_LAWS = [
    [0.5, 0.5], [0.7, 0.3],
    [1 / 3] * 3, [0.25, 0.25, 0.5], [0.5, 0.5, 0.0], [0.6, 0.3, 0.1],
    [0.25] * 4, [0.3, 0.3, 0.2, 0.2], [0.4, 0.2, 0.2, 0.2], [0.5, 0.25, 0.25, 0.0],
    [0.1, 0.45, 0.3, 0.15],
    [0.2] * 5, [0.3, 0.3, 0.2, 0.1, 0.1], [0.05, 0.35, 0.25, 0.2, 0.15],
]


@functools.cache
def oracle_cases(probs):
    """(p, k, rho, canonical tables, attack_moment of each) per case of a law."""
    p = Pmf(probs, tol=1e-9)
    cases = []
    for k in ((0, 1, 2) if p.size <= 4 else (0, 1)):
        for rho in (0.5, 1.0, 1.7):
            tables = list(canonical_tables(p.size, k))
            oracle = np.array([
                attack_moment(Cipher(table, p), rho)
                for _, table in tables
            ])
            cases.append((p, k, rho, tables, oracle))
    return cases


def assert_matches_oracle(p, k, rho, best):
    """The search's maximum is the oracle's ``best`` within 1e-12 relative,
    its witness a table with key 0 the identity whose exact moment is that
    maximum, and a second call returns the same bits."""
    result = brute_force_best_cipher(p, k, rho)
    table = result.witness.table
    validate_tables(table)
    assert np.array_equal(table[0], np.arange(p.size))
    assert result.max_moment == attack_moment(result.witness, rho)
    assert abs(result.max_moment - best) <= 1e-12 * best
    again = brute_force_best_cipher(p, k, rho)
    assert again.max_moment == result.max_moment
    assert np.array_equal(again.witness.table, table)
    assert again.tables_searched == result.tables_searched
    return result


class TestColumnLookup:
    def test_multisets_in_lexicographic_order(self):
        for n, r in ((1, 0), (3, 0), (4, 1), (5, 3), (6, 2), (3, 4)):
            expected = list(itertools.combinations_with_replacement(range(n), r))
            assert _multisets(n, r).tolist() == [list(t) for t in expected]
        # in the narrowest dtype that holds n - 1
        assert _multisets(120, 3).dtype == _multisets(256, 1).dtype == np.uint8
        assert _multisets(720, 2).dtype == np.uint16

    @pytest.mark.parametrize("probs", LOOKUP_LAWS)
    def test_every_table_matches_attack_moment(self, probs):
        # the oracle scores every canonical table by its columns; each score
        # is the table's attack moment, and the search reaches the largest
        for p, k, rho, tables, oracle in oracle_cases(tuple(probs)):
            keys, moments, best = enumerated_best_cipher(p, k, rho)
            assert keys.tolist() == [want for want, _ in tables]
            assert np.max(np.abs(moments - oracle)) <= 1e-12
            assert_matches_oracle(p, k, rho, best.max_moment)
        if len(probs) == 5:
            # 295,240 tables: the first, the last and 100 drawn at random
            p = Pmf(probs, tol=1e-9)
            keys, moments, best = enumerated_best_cipher(p, 2, 1.3)
            picks = np.append(np.random.default_rng(5).integers(0, len(keys), 100),
                              [0, len(keys) - 1])
            perms = np.array(list(itertools.permutations(range(5))))
            for t in picks.tolist():
                table = np.vstack([perms[0], perms[keys[t]]])
                want = attack_moment(Cipher(table, p), 1.3)
                assert abs(moments[t] - want) <= 1e-12
            assert_matches_oracle(p, 2, 1.3, best.max_moment)

    @pytest.mark.parametrize("probs", LOOKUP_LAWS)
    def test_witness_is_first_maximal_table(self, probs):
        # the witness follows the first maximal column at each walk-back
        # step; as a canonical table (keys 1..M-1 sorted) it is a maximal one
        for p, k, rho, tables, oracle in oracle_cases(tuple(probs)):
            first = int(np.flatnonzero(oracle >= oracle.max() * (1.0 - 1e-12))[0])
            result = assert_matches_oracle(p, k, rho, oracle[first])
            assert result.tables_searched == len(tables)
            index = {tuple(perm): i for i, perm in enumerate(itertools.permutations(range(p.size)))}
            keys = sorted(index[tuple(row)] for row in result.witness.table[1:].tolist())
            position = [want for want, _ in tables].index(keys)
            assert oracle[position] >= oracle.max() * (1.0 - 1e-12)

    @pytest.mark.parametrize("probs", [law for law in LOOKUP_LAWS if len(law) == 5])
    def test_matches_oracle_at_five_messages_two_key_bits(self, probs):
        # the largest search the oracle lists: C(122, 3) = 295,240 tables
        p = Pmf(probs, tol=1e-9)
        for rho in (0.5, 1.0, 1.7):
            _, _, best = enumerated_best_cipher(p, 2, rho)
            result = assert_matches_oracle(p, 2, rho, best.max_moment)
            assert result.tables_searched == best.tables_searched == 295_240


def rowwise_lookup_moments(perms, probs, m_keys, rho):
    """Moment of every canonical table from scratch in int64, each column
    scored by its own fsum and the columns summed as rows: one (tables x
    cryptograms) gather per block."""
    columns = _multisets(probs.size, m_keys).astype(np.int64)
    row, _, weight, rank = _attack_weights(columns, probs)
    terms = (weight / m_keys * rank ** rho).tolist()
    bounds = np.searchsorted(row, np.arange(len(columns) + 1)).tolist()
    g = np.zeros((m_keys + 1) ** probs.size)
    g[((m_keys + 1) ** columns).sum(axis=1)] = [math.fsum(terms[a:b])
                                                 for a, b in zip(bounds, bounds[1:])]
    code = (m_keys + 1) ** np.argsort(perms, axis=1, kind="stable")
    keys = _multisets(len(perms), m_keys - 1).astype(np.int64)
    block = 1 << 16
    index = np.concatenate([sum((code[col] for col in keys[lo:lo + block].T), code[:1])
                            for lo in range(0, len(keys), block)])
    return g[index].sum(axis=1)


class TestColumnAccumulation:
    @pytest.mark.parametrize("size", [1, 2, 3, 4, 5])
    def test_equals_row_sums_bit_for_bit(self, size):
        rng = np.random.default_rng(size)
        perms = np.array(list(itertools.permutations(range(size))))
        laws = [np.full(size, 1.0 / size), rng.dirichlet(np.ones(size)),
                np.append(rng.dirichlet(np.ones(size - 1)), 0.0) if size > 1 else np.ones(1)]
        for probs in laws:
            for k in (0, 1, 2):
                rho = float(rng.uniform(0.3, 2.5))
                p = Pmf(probs, tol=1e-9)
                keys, moments, best = enumerated_best_cipher(p, k, rho)
                # the oracle lists the canonical tables in lexicographic order,
                # and its moments are the independently built row sums' bits
                assert np.array_equal(keys, _multisets(len(perms), 2 ** k - 1))
                assert np.array_equal(moments, rowwise_lookup_moments(perms, probs, 2 ** k, rho))
                assert_matches_oracle(p, k, rho, best.max_moment)

    def test_largest_search_in_bounded_memory(self):
        # the search over C(122, 3) tables of 5 messages and 4 keys raises
        # the peak resident set by under 2 MB: its knapsack holds 5^5 states
        # and 70 columns, and no table is listed
        growth = child_peak_growth_kb(
            ["from guesswork import Pmf, brute_force_best_cipher",
             "brute_force_best_cipher(Pmf([0.5, 0.3, 0.2]), 1, 1.0)"],
            "brute_force_best_cipher(Pmf([0.3, 0.25, 0.2, 0.15, 0.1]), 2, 1.0)")
        assert growth < 2 * 1024

    def test_knapsack_holds_no_digit_table(self):
        # 11 messages at k = 1 is 3^11 states x 66 columns, under the default
        # cap: the per-level (states x columns) arrays peak near 42 MB, where
        # a (states x messages) int64 digit table and its temporaries took
        # the search to 57 MB
        p = Pmf(np.random.default_rng(3).dirichlet(np.ones(11)), tol=1e-9)
        tracemalloc.start()
        try:
            brute_force_best_cipher(p, 1, 1.3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 48 * 2 ** 20

    def test_tilted_identity_in_bounded_memory(self):
        # after the Renyi check, whose instances are of the same kind, the
        # 1,000 tilted-identity instances with 1,000 probes each raise the
        # peak resident set by under 1.25 MB (about 0.5 MB measured, 2 MB
        # when the 1,000 rows and a row's 64,000 probe floats were held):
        # instances are drawn and checked 64 at a time, and the probes go
        # through a fixed pair of buffers of 2^15 floats each
        growth = child_peak_growth_kb(
            ["from guesswork.verify import check_renyi_variational, check_tilted_identity",
             "check_renyi_variational(0)"],
            "check_tilted_identity(0)")
        assert growth < 1.25 * 1024


def child_peak_growth_kb(setup, measured):
    """Peak resident set growth, in KB, of the statement ``measured`` in a
    fresh interpreter that has run the ``setup`` lines first."""
    code = "\n".join([
        "import resource", *setup,
        "before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss",
        measured,
        "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before)",
    ])
    package_root = str(Path(guesswork.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": path, "OPENBLAS_NUM_THREADS": "1"},
    )
    assert proc.returncode == 0, proc.stderr
    return int(proc.stdout)


class TestAchievedExponent:
    def test_key_count_rounding(self):
        assert keys_for_rate(8, 0.3) == 4
        assert keys_for_rate(1, LN2) == 1
        assert keys_for_rate(2, LN2) == 2

    def test_large_rate_approaches_plain_guessing(self):
        model = IidSource(pmf(0.8, 0.2))
        n = 6
        rate = math.log(2.0) * (1.0 + 1.0 / n)
        achieved = guessing_exponent_achieved(n_letter_spectrum(model, n), n, 1.0, rate)
        # key space covers the messages: attack degenerates to sorted guessing
        from guesswork import sort_desc

        p_n = materialize(model, n)
        desc = np.empty(p_n.size, dtype=int)
        desc[sort_desc(p_n)] = np.arange(1, p_n.size + 1)
        plain = moment(GuessOrder(desc), p_n, 1.0)
        assert achieved.moment == pytest.approx(plain, rel=1e-12)

    def test_floor_constant_fields(self):
        model = IidSource(pmf(0.8, 0.2))
        achieved = guessing_exponent_achieved(n_letter_spectrum(model, 8), 8, 1.0, 0.3)
        assert achieved.k == 4
        assert achieved.num_keys == 16
        assert achieved.num_messages == 256
        c = harmonic_number(256)
        assert achieved.harmonic == pytest.approx(c, rel=1e-15)

    def test_key_bits_up_to_the_float_range(self):
        # 2^1023 keys still give a finite report; 2^1024 and more are refused,
        # also where nR itself overflows
        law = spectrum(pmf(0.5, 0.3, 0.2))
        achieved = guessing_exponent_achieved(law, 1, 1.0, 1023 * LN2)
        assert achieved.k == 1023 and achieved.num_messages == 2 ** 1023
        assert achieved.moment == group_xor_moment_closed(law, 2, 1.0)
        assert math.isfinite(achieved.harmonic)
        for n, rate in ((1, 1024 * LN2), (1, 1e300), (2, 1e308)):
            with pytest.raises(NumericError):
                keys_for_rate(n, rate)
            with pytest.raises(NumericError):
                guessing_exponent_achieved(law, n, 1.0, rate)

    def test_within_gap_bound_of_compression_value(self):
        # cross-module: the achieved exponent sits within
        # ln((4 H_N)^rho (2+rho))/n of the saturated-cost optimum
        from guesswork import relaxed_optimum

        model = IidSource(pmf(0.8, 0.2))
        n, rho, rate = 8, 1.0, 0.3
        law = n_letter_spectrum(model, n)
        achieved = guessing_exponent_achieved(law, n, rho, rate)
        relaxed = relaxed_optimum(law, n, rho, rate)
        bound = math.log((4.0 * achieved.harmonic) ** rho * (2.0 + rho)) / n
        assert abs(achieved.exponent - relaxed.value) <= bound + relaxed.slack
