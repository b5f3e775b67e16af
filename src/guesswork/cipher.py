"""The cipher system: group-XOR encryption, optimal attack, exact attack moments.

The encryption that maximizes attacker effort pairs messages of comparable
probability: sort messages by decreasing probability, pad with zero-probability
dummies until the count is a multiple of the key count M = 2^k, then XOR the
low k bits of the index with the key inside each block of M.  A wiretapper
seeing the cryptogram learns only the block, and the best attack sweeps the
block in probability order.
"""

from __future__ import annotations

import itertools
import math
import threading
from dataclasses import dataclass

import numpy as np

from .errors import CapExceededError, NumericError, ValidationError
from .guessing import harmonic_number
from .sources import DEFAULT_MATERIALIZE_CAP, Pmf, Spectrum, sort_desc

LN2 = math.log(2.0)


@dataclass(frozen=True, eq=False)
class CipherSpec:
    """Block parameters: message length n, key bits k, padded message count."""

    n: int
    k: int
    num_messages: int

    def __post_init__(self):
        if self.n < 1 or self.k < 0 or self.num_messages < 1:
            raise ValidationError("need n >= 1, k >= 0, and at least one message")

    @property
    def num_keys(self) -> int:
        return 2 ** self.k

    @property
    def key_rate(self) -> float:
        """Key bits per letter converted to nats: k ln2 / n."""
        return self.k * LN2 / self.n


@dataclass(frozen=True, eq=False)
class Cipher:
    """An invertible-per-key encryption table over a fixed message set.

    ``table[u, m]`` is the cryptogram for message m under key u; each row is
    a permutation.  ``pmf`` is the message distribution in this cipher's
    index space (for the group-XOR construction: sorted descending, padded
    with zero-probability dummies).
    """

    spec: CipherSpec
    table: np.ndarray
    pmf: Pmf

    def __post_init__(self):
        tbl = np.array(self.table, dtype=int)
        if tbl.shape != (self.spec.num_keys, self.spec.num_messages):
            raise ValidationError("table must be (num_keys x num_messages)")
        validate_tables(tbl)
        if self.pmf.size != self.spec.num_messages:
            raise ValidationError("message distribution must cover the message set")
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


def sorted_padded_pmf(p: Pmf, num_keys: int) -> Pmf:
    """Probabilities sorted descending and zero-padded to a multiple of num_keys."""
    ordered = p.probs[sort_desc(p)]
    n_padded = -(-p.size // num_keys) * num_keys
    out = np.zeros(n_padded)
    out[: p.size] = ordered
    return Pmf(out, tol=1e-9)


def build_group_xor_cipher(p: Pmf, k: int, n: int = 1) -> Cipher:
    """Blockwise XOR cipher over messages re-indexed in decreasing probability.

    Messages are padded with zero-probability dummies to a multiple of
    M = 2^k, grouped into consecutive blocks of M, and the low k bits are
    XORed with the key inside each block.  The M x padded-count table is
    bounded by the materialize cap.
    """
    if k < 0:
        raise ValidationError("key bits must be nonnegative")
    m = 2 ** min(k, DEFAULT_MATERIALIZE_CAP.bit_length())
    if m * (-(-p.size // m) * m) > DEFAULT_MATERIALIZE_CAP:
        raise CapExceededError(f"a 2^{k}-key table over {p.size} messages exceeds the cap")
    padded = sorted_padded_pmf(p, m)
    n_msgs = padded.size
    idx = np.arange(n_msgs)
    groups = idx // m
    within = idx % m
    table = np.empty((m, n_msgs), dtype=int)
    for u in range(m):
        table[u] = groups * m + (within ^ u)
    return Cipher(CipherSpec(n, k, n_msgs), table, padded)


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


def attack_moment(cipher: Cipher, p: Pmf, rho: float) -> float:
    """E[(number of guesses)^rho] for the optimal posterior-order attack.

    Exact sum over the joint law of message and cryptogram with the key
    uniform over 2^k values.  Each cryptogram has at most 2^k preimages, so
    the work and memory are O(N 2^k), not N^2.
    """
    if rho <= 0.0:
        raise ValidationError("moment exponent must be positive")
    if p.size != cipher.spec.num_messages:
        raise ValidationError("distribution must cover the cipher's message set")
    m_keys = cipher.spec.num_keys
    _, _, weight, rank = _attack_weights(np.argsort(cipher.table, axis=1, kind="stable").T, p.probs)
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
    max_moment: float
    witness: Cipher
    tables_searched: int


# tables a search scores in one numpy pass at most (a larger one with more
# than two keys is scored one first key at a time), and the relative gap below the best lookup
# moment inside which tables count as tied (lookup and exact moments differ
# by ~1e-15, so mathematically tied tables can land an ulp apart)
_BLOCK = 1 << 16
_TIE = 1e-12


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


def _permutations(n: int) -> np.ndarray:
    """The n! permutations of range(n) in lexicographic order, one per row."""
    return np.array(list(itertools.permutations(range(n))), dtype=int)


# per (messages, keys): the brute force's table index, read-only in its
# narrowest integer dtypes; an entry joins while the cache stays within
# _INDEX_CACHE_BYTES (the largest searchable pair, 5 messages and 4 keys,
# takes 120 + 1,200 + 14,520 + 72,600 + 960 bytes)
_INDEX_CACHE: dict = {}
_INDEX_CACHE_BYTES = 1 << 22
_INDEX_CACHE_LOCK = threading.Lock()


def _table_index(n_msgs: int, m_keys: int) -> tuple:
    """(heads, lead, suffixes, suffix_code, starts): the canonical tables
    over ``n_msgs`` messages and ``m_keys`` keys, in runs that share a head.

    A table is key 0, the identity, and keys 1..M-1, a non-decreasing tuple
    of indices into :func:`_permutations`.  Its column y, the multiset of
    the keys' preimages of cryptogram y, is encoded as
    sum_u (M+1)^(preimage of y under key u).  A search of more than _BLOCK
    tables with M > 2 splits the free keys into a head, the first key, and
    a suffix, the other M-2; a smaller search has the empty head and all
    M-1 keys in the suffix.  ``heads`` and ``suffixes`` list these
    multisets in lexicographic order, and ``lead[y, h]`` (the identity's
    share of the code plus head h's) and ``suffix_code[y, s]`` are their
    shares of the code.  The tables with head h are (h, suffixes[s]) for
    s >= starts[h], one contiguous run, so run h has the codes
    ``suffix_code[:, starts[h]:] + lead[:, h]`` and the runs in order of h
    list every table in lexicographic order.  Nothing depends on the law
    or on rho, so the index is built once per (n_msgs, m_keys); it holds at
    most _BLOCK tables' codes, or the (M-2)-key suffixes.
    """
    cached = _INDEX_CACHE.get((n_msgs, m_keys))
    if cached is not None:
        return cached
    n_perms = math.factorial(n_msgs)
    tables = math.comb(n_perms + m_keys - 2, m_keys - 1)
    n_head = int(m_keys > 2 and tables > _BLOCK)
    dtype = np.min_scalar_type((m_keys + 1) ** n_msgs - 1)
    # code[y, i]: the code of permutation i's preimage of cryptogram y
    code = ((m_keys + 1) ** np.argsort(_permutations(n_msgs), axis=1, kind="stable").T
            ).astype(dtype)
    heads = _multisets(n_perms, n_head)
    suffixes = _multisets(n_perms, m_keys - 1 - n_head)
    lead = np.repeat(code[:, :1], len(heads), axis=1)
    suffix_code = np.zeros((n_msgs, len(suffixes)), dtype=dtype)
    for out, keys in ((lead, heads), (suffix_code, suffixes)):
        for col in keys.T:
            out += code[:, col]
    starts = np.searchsorted(suffixes[:, 0], heads[:, 0]) if n_head else np.zeros(1, np.intp)
    index = (heads, lead, suffixes, suffix_code, starts)
    for array in index:
        array.setflags(write=False)
    with _INDEX_CACHE_LOCK:
        held = sum(a.nbytes for entry in _INDEX_CACHE.values() for a in entry)
        if held + sum(a.nbytes for a in index) <= _INDEX_CACHE_BYTES:
            return _INDEX_CACHE.setdefault((n_msgs, m_keys), index)
    return index


def _column_moments(probs: np.ndarray, m_keys: int, rho: float) -> np.ndarray:
    """g[code]: ``attack_moment``'s terms of a column summed by fsum, at the
    code (see :func:`_table_index`) of each multiset of M messages."""
    columns = _multisets(probs.size, m_keys)
    row, _, weight, rank = _attack_weights(columns, probs)
    terms = (weight / m_keys * rank ** rho).tolist()
    bounds = np.searchsorted(row, np.arange(len(columns) + 1)).tolist()
    g = np.zeros((m_keys + 1) ** probs.size)
    g[((m_keys + 1) ** columns.astype(np.intp)).sum(axis=1)] = [
        math.fsum(terms[a:b]) for a, b in zip(bounds, bounds[1:])]
    return g


def _lookup_moments(g: np.ndarray, index: tuple, head: int) -> np.ndarray:
    """Attack moment of each table in the run of ``head``, in lexicographic order.

    A table's moment is the sum over cryptograms y of g(column y).  The
    moments are accumulated one cryptogram at a time, y = 0, 1, ..., which
    adds each table's terms in the same order as a row sum over y, however
    the tables are split into runs.
    """
    _, lead, _, suffix_code, starts = index
    codes = suffix_code[:, starts[head]:] + lead[:, head, None]
    moments = np.zeros(codes.shape[1])
    for terms in g.take(codes):
        moments += terms
    return moments


def brute_force_best_cipher(p: Pmf, k: int, rho: float, *, max_messages: int = 5,
                            max_keys: int = 2) -> BruteForceResult:
    """Exhaustive maximum of the attack moment over permutation-table ciphers.

    The cryptogram alphabet is fixed to the message set, so the search runs
    over per-key permutations.  Two lossless reductions keep it tractable:
    key 0 is pinned to the identity (relabeling cryptograms never changes
    the attack moment) and the remaining keys are enumerated as unordered
    multisets (the key is uniform, so key order is irrelevant), in
    lexicographic order of their indices among the lexicographic
    permutations.  Tie rule: the witness is the first table in this order
    whose column-lookup moment is within a relative 1e-12 of the largest,
    so mathematical ties go to the earliest table whatever their rounding;
    ``max_moment`` is the witness's exact ``attack_moment``.  The tables
    are scored one run of :func:`_table_index` at a time, keeping only each
    run's maximum, and the first run that reaches the tie bound is scored
    again for the witness, so memory follows the longest run, not the
    table count.
    """
    if rho <= 0.0:
        raise ValidationError("moment exponent must be positive")
    n_msgs = p.size
    if n_msgs > max_messages or k > max_keys:
        raise CapExceededError(
            f"brute force limited to {max_messages} messages and {max_keys} key bits"
        )
    m_keys = 2 ** k
    tables = math.comb(math.factorial(n_msgs) + m_keys - 2, m_keys - 1)
    if tables * m_keys > DEFAULT_MATERIALIZE_CAP:
        raise CapExceededError(f"brute force over {tables} tables exceeds the table-list cap")
    index = _table_index(n_msgs, m_keys)
    heads, _, suffixes, _, starts = index
    g = _column_moments(p.probs, m_keys, rho)
    peaks = []
    for head in range(len(heads)):
        moments = _lookup_moments(g, index, head)
        peaks.append(moments.max())
    bound = max(peaks) * (1.0 - _TIE)
    head = next(h for h, peak in enumerate(peaks) if peak >= bound)
    if head != len(heads) - 1:
        moments = _lookup_moments(g, index, head)
    best = starts[head] + int(np.argmax(moments >= bound))
    keys = np.concatenate((heads[head], suffixes[best]))
    perms = _permutations(n_msgs)
    witness = Cipher(CipherSpec(1, k, n_msgs), np.vstack([perms[0], perms[keys]]), p)
    return BruteForceResult(attack_moment(witness, p, rho), witness, tables)


@dataclass(frozen=True, eq=False)
class AchievedExponent:
    """Normalized log attack moment of the group-XOR cipher, with its constants."""

    exponent: float
    moment: float
    n: int
    k: int
    num_keys: int
    num_messages: int
    harmonic: float
    floor_constant: float


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
    bound on the best attainable finite-n exponent; the reported floor
    constant 1/((2 H_N)^rho (2 + rho)) ties it to the saturated-cost
    compression optimum, with H_N the harmonic number of the padded
    message count.  A moment or constant beyond the float range raises
    :class:`NumericError`, and so does a key of 1024 bits or more.
    """
    if rho <= 0.0:
        raise ValidationError("moment exponent must be positive")
    k = keys_for_rate(n, key_rate)
    m = 2 ** k
    n_padded = -(-law.size // m) * m
    value = group_xor_moment_closed(law, k, rho)
    c = harmonic_number(n_padded)
    try:
        floor = 1.0 / ((2.0 * c) ** rho * (2.0 + rho))
    except OverflowError:
        raise NumericError(f"the floor constant (2 H_N)^rho overflows at rho={rho:g}") from None
    return AchievedExponent(
        exponent=math.log(value) / n,
        moment=value,
        n=n,
        k=k,
        num_keys=m,
        num_messages=n_padded,
        harmonic=c,
        floor_constant=floor,
    )
