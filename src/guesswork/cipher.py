"""The cipher system: group-XOR encryption, optimal attack, exact attack moments.

The encryption that maximizes attacker effort pairs messages of comparable
probability: sort messages by decreasing probability, pad with zero-probability
dummies until the count is a multiple of the key count M = 2^k, then XOR the
low k bits of the index with the key inside each block of M.  A wiretapper
seeing the cryptogram learns only the block, and the best attack sweeps the
block in probability order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CapExceededError, NumericError, ValidationError
from .guessing import harmonic_number
from .sources import DEFAULT_MATERIALIZE_CAP, Pmf, Spectrum, sort_desc

LN2 = math.log(2.0)


@dataclass(frozen=True, eq=False)
class Cipher:
    """A cipher: 2^k keys, each an invertible encryption of the messages.

    ``table[u, m]`` is the cryptogram for message m under key u, so the
    table's rows are the keys and its columns the messages; each row is a
    permutation.  ``pmf`` is the message distribution in this cipher's
    index space (for the group-XOR construction: sorted descending, padded
    with zero-probability dummies).  A table without 2^k rows, one column
    per message of ``pmf`` and a bijection in every row is refused.
    """

    table: np.ndarray
    pmf: Pmf

    def __post_init__(self):
        tbl = np.array(self.table, dtype=int)
        keys = len(tbl) if tbl.ndim == 2 else 0
        if keys < 1 or keys & (keys - 1) or tbl.shape[1] != self.pmf.size:
            raise ValidationError("table must be (2^k keys x the law's messages)")
        validate_tables(tbl)
        tbl.setflags(write=False)
        object.__setattr__(self, "table", tbl)


def validate_tables(tables: np.ndarray) -> None:
    """Require every key row of a (keys x messages) table, or of a stack of
    them, to permute the message indices; the error names the first bad key."""
    bad = np.any(np.sort(tables, axis=-1) != np.arange(tables.shape[-1]), axis=-1)
    if np.any(bad):
        *table, key = np.argwhere(bad)[0].tolist()
        where = "".join(f"table {t}, " for t in table)
        raise ValidationError(f"{where}key {key} does not act as a bijection")


def build_group_xor_cipher(p: Pmf, k: int) -> Cipher:
    """Blockwise XOR cipher over messages re-indexed in decreasing probability.

    Messages are sorted descending and padded with zero-probability dummies
    to a multiple of M = 2^k, grouped into consecutive blocks of M, and the
    low k bits are XORed with the key inside each block.  The M x
    padded-count table is bounded by the materialize cap.
    """
    if k < 0:
        raise ValidationError("key bits must be nonnegative")
    m = 2 ** min(k, DEFAULT_MATERIALIZE_CAP.bit_length())
    n_msgs = -(-p.size // m) * m
    if m * n_msgs > DEFAULT_MATERIALIZE_CAP:
        raise CapExceededError(f"a 2^{k}-key table over {p.size} messages exceeds the cap")
    padded = np.zeros(n_msgs)
    padded[: p.size] = p.probs[sort_desc(p)]
    # key u < M flips only the low k bits, so u ^ i stays in the block of i
    table = np.arange(m)[:, None] ^ np.arange(n_msgs)
    return Cipher(table, Pmf(padded, tol=1e-9))


def _attack_weights(cols: np.ndarray, probs: np.ndarray):
    """Each cryptogram's distinct preimages of positive weight, in attack order.

    Row y of ``cols`` lists the message each key sends to cryptogram y.  The
    weight of message m is p(m) times the number of keys sending it to y.
    Returns (cryptogram, message, weight, rank), sorted by cryptogram, then
    by decreasing weight with ties to the lower message index; rank is the
    1-based guess position, at most the number of keys.
    """
    key, count = np.unique(np.arange(len(cols))[:, None] * probs.size + cols,
                           return_counts=True)
    row, msg = np.divmod(key, probs.size)
    weight = probs[msg] * count
    keep = np.flatnonzero(weight > 0.0)
    order = keep[np.lexsort((msg[keep], -weight[keep], row[keep]))]
    row, msg, weight = row[order], msg[order], weight[order]
    return row, msg, weight, np.arange(row.size) - np.searchsorted(row, row) + 1


def attack_moment(cipher: Cipher, rho: float) -> float:
    """E[(number of guesses)^rho] for the optimal posterior-order attack.

    Exact sum over the joint law of message, drawn from ``cipher.pmf``, and
    cryptogram with the key uniform over the table's 2^k rows.  Each
    cryptogram has at most 2^k preimages, so the work and memory are
    O(N 2^k), not N^2.
    """
    if rho <= 0.0:
        raise ValidationError("moment exponent must be positive")
    m_keys = len(cipher.table)
    _, _, weight, rank = _attack_weights(np.argsort(cipher.table, axis=1, kind="stable").T,
                                         cipher.pmf.probs)
    return math.fsum((weight / m_keys * rank ** rho).tolist())


def attack_moments_for_ranks(tables: np.ndarray, p: Pmf, rho: float, ranks: np.ndarray):
    """Attack moment of each table when the attacker's guess number for
    message m given cryptogram y is ``ranks[..., y, m]``.

    ``tables`` is one (keys x messages) table with (messages x messages)
    ``ranks``, or a stack of T tables with T rank arrays; the result is a
    float or a length-T array.  The terms are ``attack_moment``'s, weight
    times rank^rho over each cryptogram's preimages of positive weight,
    formed for the whole stack at once and summed per table by fsum.
    """
    stack = np.reshape(tables, (-1, *np.shape(tables)[-2:]))
    n_tables, m_keys, n_msgs = stack.shape
    cols = np.argsort(stack, axis=-1, kind="stable").transpose(0, 2, 1).reshape(-1, m_keys)
    row, msg, weight, _ = _attack_weights(cols, p.probs)
    rank = np.reshape(ranks, (-1, n_msgs))[row, msg]
    terms = (weight / m_keys * rank ** rho).tolist()
    ends = np.searchsorted(row, np.arange(n_tables + 1) * n_msgs).tolist()
    moments = np.array([math.fsum(terms[a:b]) for a, b in zip(ends, ends[1:])])
    return float(moments[0]) if np.ndim(tables) == 2 else moments


def group_xor_moment_closed(spec: Spectrum, k: int, rho: float) -> float:
    """Closed form of the group-XOR attack moment of the law of ``spec``.

    With probabilities sorted descending, the attacker needs i+1 guesses
    whenever the message sits at offset i inside its block of M = 2^k,
    independent of the cryptogram, so the moment is the sum of
    p(jM+i) (i+1)^rho.  The padding dummies carry no mass, so the sum runs
    over the unpadded sorted positions, and M is at most their count.  It
    is summed by parts over the runs of the spectrum: with
    G(e) = sum over positions s < e of (s mod M + 1)^rho and run j, of
    value v_j, ending at position e_j, the moment is
    sum_j (v_j - v_{j+1}) G(e_j), a sum of nonnegative terms.
    """
    if rho <= 0.0:
        raise ValidationError("moment exponent must be positive")
    m = min(2 ** min(k, spec.size.bit_length()), spec.size)
    blocks, offsets = np.divmod(spec.ends, m)
    sums = _power_sums(rho, np.append(offsets, m))
    with np.errstate(invalid="ignore"):
        g = np.where(blocks > 0, blocks * sums[-1], 0.0) + sums[:-1]
        values = spec.values.astype(np.longdouble)
        value = float(np.sum((values - np.append(values[1:], 0.0)) * g))
    if not math.isfinite(value):
        raise NumericError(f"the group-XOR attack moment overflows at rho={rho:g}")
    return value


# terms of one pass of the power-sum table
_POWER_CHUNK = 1 << 16


def _power_sums(rho: float, upto: np.ndarray) -> np.ndarray:
    """sum_{q=1}^{a} q^rho for each a in ``upto``, accumulated in extended precision.

    The table of partial sums is built in chunks, so memory stays bounded
    by the chunk and the number of queries whatever the largest a.
    """
    wanted, where = np.unique(upto, return_inverse=True)
    out = np.zeros(wanted.size, dtype=np.longdouble)
    total = np.longdouble(0.0)
    with np.errstate(over="ignore"):
        for lo in range(0, int(wanted[-1]), _POWER_CHUNK):
            hi = min(lo + _POWER_CHUNK, int(wanted[-1]))
            sums = total + np.cumsum(np.arange(lo + 1, hi + 1, dtype=float) ** rho,
                                     dtype=np.longdouble)
            a, b = np.searchsorted(wanted, [lo + 1, hi + 1])
            out[a:b] = sums[wanted[a:b] - lo - 1]
            total = sums[-1]
    return out[where]


@dataclass(frozen=True, eq=False)
class BruteForceResult:
    """The best attack moment over ciphers, a cipher that attains it (its
    table with key 0 the identity, its law the searched one), and
    C(N! + M - 2, M - 1), the canonical tables (key 0 the identity, the
    other M - 1 keys a multiset of the N! permutations) the search covers."""

    max_moment: float
    witness: Cipher
    tables_searched: int


def _multisets(n: int, r: int) -> np.ndarray:
    """All non-decreasing r-tuples over range(n), in lexicographic order, in
    the narrowest integer dtype that holds n - 1 (no wider temporary)."""
    dtype = np.min_scalar_type(max(n - 1, 0))
    rows = np.zeros((1, 0), dtype=dtype)
    for _ in range(r):
        # a leads the rows whose first entry is at least a: a suffix of rows
        starts = np.searchsorted(rows[:, 0], np.arange(n)) if rows.size else np.zeros(n, int)
        rows = np.column_stack([np.repeat(np.arange(n, dtype=dtype), len(rows) - starts),
                                np.concatenate([rows[a:] for a in starts.tolist()])])
    return rows


def _column_moments(probs: np.ndarray, m_keys: int, rho: float) -> tuple:
    """(columns, g): every multiset of M messages, a row of :func:`_multisets`,
    and ``attack_moment``'s terms of that cryptogram column summed by fsum."""
    columns = _multisets(probs.size, m_keys)
    row, _, weight, rank = _attack_weights(columns, probs)
    terms = (weight / m_keys * rank ** rho).tolist()
    bounds = np.searchsorted(row, np.arange(len(columns) + 1)).tolist()
    return columns, np.array([math.fsum(terms[a:b]) for a, b in zip(bounds, bounds[1:])])


def _perfect_matchings(graph: np.ndarray) -> np.ndarray:
    """Split an M-regular bipartite multigraph into M perfect matchings.

    ``graph[y, m]`` counts the edges between cryptogram y and message m;
    row u of the result sends message m to cryptogram ``out[u, m]``.  Each
    remainder is regular, so it has a perfect matching (Koenig), found by
    augmenting paths from every cryptogram in turn.
    """
    edges = graph.tolist()
    n = len(edges)
    owner = []

    def augment(y, seen):
        for m in range(n):
            if edges[y][m] and m not in seen:
                seen.add(m)
                if owner[m] < 0 or augment(owner[m], seen):
                    owner[m] = y
                    return True
        return False

    rows = []
    for _ in range(sum(edges[0])):
        owner = [-1] * n
        for y in range(n):
            augment(y, set())
        for m, y in enumerate(owner):
            edges[y][m] -= 1
        rows.append(owner)
    return np.array(rows)


def brute_force_best_cipher(p: Pmf, k: int, rho: float,
                            cap: int = DEFAULT_MATERIALIZE_CAP) -> BruteForceResult:
    """Exact maximum of the attack moment over permutation-table ciphers.

    The cryptogram alphabet is fixed to the message set, so a cipher is M
    per-key permutations.  Its moment is the sum over cryptograms y of
    g(column y), column y being the multiset of the M messages the keys
    send to y, and each message appears M times over the N columns.
    Conversely, N columns whose message counts are all M form an M-regular
    bipartite multigraph, which splits into M key permutations (Koenig's
    edge-colouring theorem).  So the best moment is an unbounded knapsack
    over count vectors: a state is the vector of remaining message counts,
    each digit in 0..M, in radix M + 1, and best[state] is the largest
    g(c) + best[state - c] over the columns c that fit, filled one level of
    digit sum at a time from the empty state.  Tie rule: each state keeps
    its first maximal column in :func:`_multisets` order, and the witness
    walks back from the full state (M, ..., M) through these, then is
    relabelled so that key 0 is the identity; ``max_moment`` is the
    witness's exact ``attack_moment``.  The one limit is ``cap`` on the
    states times the columns, (M + 1)^N C(N + M - 1, M); a larger search
    raises :class:`CapExceededError` before any array is built.
    """
    if rho <= 0.0:
        raise ValidationError("moment exponent must be positive")
    n_msgs = p.size
    m_keys = 2 ** k
    base = m_keys + 1
    n_states, n_columns = base ** n_msgs, math.comb(n_msgs + m_keys - 1, m_keys)
    if n_states * n_columns > cap:
        raise CapExceededError(
            f"brute force over {n_states} states x {n_columns} columns exceeds the cap")
    columns, g = _column_moments(p.probs, m_keys, rho)
    place = base ** np.arange(n_msgs)
    counts = (columns[:, :, None] == np.arange(n_msgs)).sum(axis=1)
    codes = counts @ place
    # digit sum of every state, one digit at a time (the sum is symmetric in
    # the digits, so their order does not matter)
    level = np.array([0])
    for _ in range(n_msgs):
        level = (level[:, None] + np.arange(base)).ravel()
    best = np.zeros(n_states)
    choice = np.zeros(n_states, dtype=np.intp)
    for total in range(m_keys, n_msgs * m_keys + 1, m_keys):
        states = np.flatnonzero(level == total)
        fits = np.ones((states.size, n_columns), dtype=bool)
        for m in range(n_msgs):
            fits &= (states // place[m] % base)[:, None] >= counts[:, m]
        # a column that does not fit leaves a code in (-n_states, n_states),
        # an index that reads some state's value, masked out below
        score = best[states[:, None] - codes]
        score += g
        score[~fits] = -np.inf
        choice[states] = np.argmax(score, axis=1)
        best[states] = score[np.arange(states.size), choice[states]]
    chosen, state = [], n_states - 1
    for _ in range(n_msgs):
        chosen.append(choice[state])
        state -= codes[choice[state]]
    table = _perfect_matchings(counts[chosen])
    table = np.argsort(table[0])[table]
    witness = Cipher(table, p)
    tables = math.comb(math.factorial(n_msgs) + m_keys - 2, m_keys - 1)
    return BruteForceResult(attack_moment(witness, rho), witness, tables)


@dataclass(frozen=True, eq=False)
class AchievedExponent:
    """Normalized log attack moment of the group-XOR cipher, its key and
    padded message counts, and H_N of the padded count."""

    exponent: float
    moment: float
    k: int
    num_keys: int
    num_messages: int
    harmonic: float


def keys_for_rate(n: int, key_rate: float) -> int:
    """Smallest key-bit count whose rate covers ``key_rate``: ceil(nR / ln 2).

    The tiny slack absorbs rounding when nR/ln2 is an exact integer.  From
    1024 bits on, 2^k keys are past the float range: :class:`NumericError`.
    """
    if key_rate <= 0.0:
        raise ValidationError("key rate must be positive")
    bits = n * key_rate / LN2 - 1e-12  # inf where nR overflows
    if not bits <= 1023.0:
        raise NumericError(f"key rate {key_rate:g} at n={n} needs 2^1024 keys or more")
    return int(math.ceil(bits))


def guessing_exponent_achieved(law: Spectrum, n: int, rho: float,
                               key_rate: float) -> AchievedExponent:
    """Exponent achieved by the group-XOR cipher on the spectrum ``law`` of an n-letter law.

    The key has ``keys_for_rate(n, key_rate)`` bits.  A certified lower
    bound on the best attainable finite-n exponent; ``harmonic``, H_N of
    the padded message count, ties it to the saturated-cost compression
    optimum within ln((4 H_N)^rho (2 + rho)) / n.  A moment beyond the
    float range raises :class:`NumericError`, and so does a key of 1024
    bits or more.
    """
    if rho <= 0.0:
        raise ValidationError("moment exponent must be positive")
    k = keys_for_rate(n, key_rate)
    m = 2 ** k
    n_padded = -(-law.size // m) * m
    value = group_xor_moment_closed(law, k, rho)
    return AchievedExponent(
        exponent=math.log(value) / n,
        moment=value,
        k=k,
        num_keys=m,
        num_messages=n_padded,
        harmonic=harmonic_number(n_padded),
    )
