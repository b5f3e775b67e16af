"""Reference forms of quantities the package computes by another path.

Nothing in ``guesswork`` calls these; the tests compare the package's
paths against them.  Each is a direct, one-instance statement of its
quantity: the dense n-letter law, string by string, whose spectrum
:func:`guesswork.n_letter_spectrum` builds run by run; a tilt and a
divergence for the twisted chain and the variational identity, the Rényi
rate as P(theta)/theta, the top-set terms and the two-block split value
read off :func:`guesswork.top_set`, the convex conjugate, the moment of
a guessing order, the posterior attack with its moment under any guessing
orders, and the best cipher by enumerating its canonical tables.
"""

import itertools
import math

import numpy as np

from guesswork import (
    BruteForceResult,
    CapExceededError,
    Cipher,
    ExplicitSource,
    GuessOrder,
    Pmf,
    ValidationError,
    attack_moment,
    pressure,
    top_set,
)
from guesswork.cipher import _column_moments, _multisets, attack_moments_for_ranks
from guesswork.exponents import variational_identity_checks
from guesswork.sources import (
    DEFAULT_MATERIALIZE_CAP,
    PRODUCT_TOL,
    _append_letter,
    _letters,
    _start_runs,
    chain_source,
)


# -- sources ------------------------------------------------------------


def materialize(model, n: int, cap: int = DEFAULT_MATERIALIZE_CAP) -> Pmf:
    """Return the n-letter distribution of ``model`` over all strings of length n.

    Strings are indexed lexicographically.  Each probability is a
    left-to-right product over the letter table, summed over the starts
    in state order, one start at a time; explicit sources are looked up.
    Raises :class:`CapExceededError` when the string count would exceed
    ``cap`` (default 2^24 entries), with the message the spectrum builder
    raises.
    """
    if n < 1:
        raise ValidationError("n must be a positive integer")
    if isinstance(model, ExplicitSource):
        if n > len(model.pmfs):
            raise ValidationError(f"explicit source defines lengths 1..{len(model.pmfs)}")
        out = model.pmfs[n - 1]
        if out.size > cap:
            raise CapExceededError(f"{out.size} strings exceed the cap of {cap}")
        return out
    k = model.alphabet_size
    if k ** n > cap:
        raise CapExceededError(f"{k}^{n} strings exceed the cap of {cap}")
    return Pmf(_dense_law(model, n), tol=PRODUCT_TOL)


def _dense_law(model, n: int) -> np.ndarray:
    """The walk of :func:`materialize`; its temporaries die before the law is checked."""
    weights, nxt = _letters(model)
    total = None
    for values, states, steps, scale in _start_runs(model, n):
        for _ in range(steps):
            values, states = _append_letter(values, states, weights, nxt)
        values *= scale
        total = values if total is None else np.add(total, values, out=total)
    return total


def divergence(q: Pmf, p: Pmf) -> float:
    """Relative entropy D(q||p) in nats; +inf when q is not dominated by p."""
    if q.size != p.size:
        raise ValidationError("distributions must share one index set")
    terms = []
    for qx, px in zip(q.probs.tolist(), p.probs.tolist()):
        if qx == 0.0:
            continue
        if px == 0.0:
            return math.inf
        terms.append(qx * math.log(qx / px))
    return math.fsum(terms)


def tilt(p: Pmf, beta: float, support=None) -> Pmf:
    """Exponentiate-and-normalize: p^beta / Z on ``support``, zero elsewhere.

    ``support`` is an index array or boolean mask; None means the full set.
    ``beta`` is any finite positive number; powers of p over its largest
    value on the support neither overflow nor underflow Z.
    """
    if not (math.isfinite(beta) and beta > 0.0):
        raise ValidationError("tilt exponent must be finite and positive")
    idx = support_indices(p.size, support)
    if idx.size == 0:
        raise ValidationError("support is empty")
    sub = p.probs[idx]
    if sub.max() <= 0.0:
        raise ValidationError("support carries no probability mass")
    weights = (sub / sub.max()) ** beta
    z = math.fsum(weights.tolist())
    out = np.zeros(p.size)
    out[idx] = weights / z
    return Pmf(out, tol=PRODUCT_TOL)


def support_indices(size: int, support) -> np.ndarray:
    """Sorted indices of ``support``: None (all of 0..size-1), a boolean mask
    of length ``size``, or an index array within range."""
    if support is None:
        return np.arange(size)
    arr = np.asarray(support)
    if arr.dtype == bool:
        if arr.size != size:
            raise ValidationError("boolean support mask must match the index set")
        return np.flatnonzero(arr)
    arr = arr.astype(int)
    if arr.size and (arr.min() < 0 or arr.max() >= size):
        raise ValidationError("support indices out of range")
    return np.unique(arr)


def renyi_entropy_rate(model, alpha: float) -> float:
    """Per-letter order-``alpha`` entropy rate, alpha > 0 and != 1.

    Equals P(theta)/theta at theta = 1/alpha - 1, P the pressure.
    """
    if alpha <= 0.0 or alpha == 1.0:
        raise ValidationError("order must be positive and different from 1")
    theta = 1.0 / alpha - 1.0
    return float(pressure(model, theta)) / theta


def markov_renyi_rate(transition, alpha: float) -> float:
    """Order-``alpha`` entropy rate of an irreducible chain, alpha in (0, 1)."""
    if not 0.0 < alpha < 1.0:
        raise ValidationError("order must lie in (0, 1)")
    return renyi_entropy_rate(chain_source(transition), alpha)


# -- exponents ----------------------------------------------------------


def legendre_fenchel(rhos, values, lambdas=None, convexity_tol: float = 1e-6):
    """Discrete convex conjugate sup over rho of (lambda rho - E(rho)).

    The input must be convex in rho within ``convexity_tol`` (checked via
    slope monotonicity); the default lambda grid spans the data slopes.
    Returns (lambdas, transform values).
    """
    rhos = np.asarray(rhos, dtype=float)
    values = np.asarray(values, dtype=float)
    if rhos.size < 64:
        raise ValidationError("need at least 64 grid points")
    if rhos.size != values.size or np.any(np.diff(rhos) <= 0.0):
        raise ValidationError("grids must match and be strictly increasing")
    slopes = np.diff(values) / np.diff(rhos)
    if np.any(np.diff(slopes) < -convexity_tol):
        raise ValidationError("input is not convex within tolerance")
    if lambdas is None:
        lo, hi = float(slopes.min()), float(slopes.max())
        pad = 0.05 * max(hi - lo, 1e-6)
        lambdas = np.linspace(lo - pad, hi + pad, 512)
    else:
        lambdas = np.asarray(lambdas, dtype=float)
    transform = (lambdas[:, None] * rhos[None, :] - values[None, :]).max(axis=1)
    return lambdas, transform


def variational_identity_check(p: Pmf, theta: float, support=None,
                               num_random: int = 1000, seed: int = 0) -> tuple:
    """(gap, worst probe excess) of one instance: the one-row case of
    :func:`guesswork.exponents.variational_identity_checks`, on the support
    ``support`` (an index array or boolean mask; None means the full set)."""
    mask = np.zeros(p.size, dtype=bool)
    mask[support_indices(p.size, support)] = True
    gaps, excess = variational_identity_checks(p.probs[None], mask[None], [theta], [seed],
                                               num_random)
    return float(gaps[0]), float(excess[0])


# -- compression --------------------------------------------------------


def error_term(law, n: int, key_rate: float) -> float:
    """(1/n) ln of the top-set complement mass; -inf when the code never errs."""
    split = top_set(law, n, key_rate, rho=1.0)
    if split.mass_complement == 0.0:
        return -math.inf
    return math.log(split.mass_complement) / n


def correct_decoding_term(law, n: int, rho: float, key_rate: float) -> float:
    """(1+rho)/n times the log tilted mass of the top set.

    Generalizes the correct-decoding exponent of a rate-R code; as rho
    tends to 0 it recovers (1/n) ln of the top-set probability.
    """
    return (1.0 + rho) * math.log(top_set(law, n, key_rate, rho).tilted_sum) / n


def saturation_split_value(law, n: int, rho: float, key_rate: float) -> float:
    """ln of F_c e^(rho n R) + (top-set tilted sum)^(1+rho), in the log domain.

    This is the exact value of the two-block variational problem that
    splits mass between the top set (coded) and its complement
    (saturated); a direct grid over the split probability reproduces it.
    """
    summary = top_set(law, n, key_rate, rho)
    log_campbell = (1.0 + rho) * math.log(summary.tilted_sum)
    if summary.mass_complement > 0.0:
        log_sat = math.log(summary.mass_complement) + rho * n * key_rate
        return float(np.logaddexp(log_campbell, log_sat))
    return log_campbell


# -- guessing -----------------------------------------------------------


def moment(order: GuessOrder, p: Pmf, rho: float) -> float:
    """E[rank^rho] under ``p``, summed in fixed index order."""
    if order.size != p.size:
        raise ValidationError("order and distribution must share one index set")
    if rho <= 0.0:
        raise ValidationError("moment exponent must be positive")
    ranks = order.rank.astype(float)
    return math.fsum((px * r ** rho for px, r in zip(p.probs.tolist(), ranks.tolist())))


# -- cipher -------------------------------------------------------------


def optimal_attack(cipher, y: int) -> GuessOrder:
    """Guess in decreasing posterior order given cryptogram ``y``.

    The posterior of message m is proportional to p(m), from
    ``cipher.pmf``, times the number of keys sending m to y.  Ties break
    by ascending index, which also places all zero-posterior messages last
    in ascending order.
    """
    p = cipher.pmf
    if not 0 <= y < p.size:
        raise ValidationError("cryptogram index out of range")
    counts = (cipher.table == y).sum(axis=0)
    posterior = p.probs * counts
    order = np.argsort(-posterior, kind="stable")
    rank = np.empty(p.size, dtype=int)
    rank[order] = np.arange(1, p.size + 1)
    return GuessOrder(rank)


def attack_moment_for_orders(cipher, rho: float, orders) -> float:
    """Moment when the attacker uses a caller-supplied order per cryptogram.

    The one-table case of :func:`guesswork.cipher.attack_moments_for_ranks`.
    """
    ranks = np.array([order.rank for order in orders])
    return float(attack_moments_for_ranks(cipher.table, cipher.pmf, rho, ranks))


def enumerated_best_cipher(p: Pmf, k: int, rho: float) -> tuple:
    """(keys, moments, result): the best cipher by listing every canonical table.

    A canonical table is key 0, the identity, and keys 1..M-1, a
    non-decreasing tuple of indices into the lexicographic permutations,
    C(N! + M - 2, M - 1) tables in all; ``keys`` lists them in
    lexicographic order.  A table's moment is the sum over cryptograms y,
    in order, of g(column y), the column moment of
    :func:`guesswork.brute_force_best_cipher`.  ``result`` holds the first
    table within a relative 1e-12 of the largest moment, its exact
    ``attack_moment`` and the table count.  Memory grows with the table
    count: meant for N <= 5 messages and k <= 2 key bits.
    """
    n_msgs, m_keys = p.size, 2 ** k
    perms = np.array(list(itertools.permutations(range(n_msgs))))
    columns, g = _column_moments(p.probs, m_keys, rho)
    lookup = np.zeros((m_keys + 1) ** n_msgs)
    lookup[((m_keys + 1) ** columns.astype(np.int64)).sum(axis=1)] = g
    # code[y, i]: permutation i's preimage of cryptogram y, as one count
    code = (m_keys + 1) ** np.argsort(perms, axis=1, kind="stable").T
    keys = _multisets(len(perms), m_keys - 1)
    codes = sum((code[:, col] for col in keys.T), code[:, :1])
    moments = np.zeros(len(keys))
    for terms in lookup[codes]:
        moments += terms
    first = int(np.argmax(moments >= moments.max() * (1.0 - 1e-12)))
    witness = Cipher(np.vstack([perms[0], perms[keys[first]]]), p)
    return keys, moments, BruteForceResult(attack_moment(witness, rho), witness, len(keys))
