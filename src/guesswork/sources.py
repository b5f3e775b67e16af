"""Finite-alphabet sources, their n-letter distributions, and information measures.

All information quantities are in nats; bit lengths appear only at the
length-function boundary (see :mod:`guesswork.guessing`), where the ln 2
factor is explicit.  Every function here is a pure function of immutable
inputs with a fixed internal summation order, so results are identical
regardless of caller parallelism.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Union

import numpy as np

from .errors import CapExceededError, NumericError, ValidationError

LN2 = math.log(2.0)

# Validation tolerance for distributions built directly from user input.
PMF_TOL = 1e-12
# Looser tolerance for n-fold products, where rounding accumulates.
PRODUCT_TOL = 1e-9
# Residual tolerance for stationary distributions.
STATIONARY_TOL = 1e-10
# Chunk size in floats of a Pmf's sum check and of the tilted identity's probes.
# A pressure evaluation on S states and K letters takes PRESSURE_CHUNK // (S K S)
# betas per chunk: the S K S rule now bounds only the batch size, and is kept so
# that every batch, and with it every bit, stays the same.
PRESSURE_CHUNK = 2 ** 16

DEFAULT_MATERIALIZE_CAP = 2 ** 24
# Largest string count n_letter_spectrum takes, whatever the cap, so that every
# run count is exact as a float.
_MAX_COUNT = 2 ** 52


class Pmf:
    """Probability mass function over indices 0..N-1.

    For an n-letter distribution the index enumerates strings in
    lexicographic order, first letter most significant.  Instances are
    immutable; the underlying array is write-locked on construction.
    """

    __slots__ = ("probs",)

    def __init__(self, probs, tol: float = PMF_TOL):
        arr = np.array(probs, dtype=float)
        if arr.ndim != 1 or arr.size == 0:
            raise ValidationError("a PMF must be a nonempty 1-D vector")
        if not np.all(np.isfinite(arr)):
            raise ValidationError("PMF entries must be finite")
        if np.any(arr < 0.0):
            raise ValidationError("PMF entries must be nonnegative")
        # one fsum fed slice by slice: never a Python float per entry at once
        _require_unit_sum(itertools.chain.from_iterable(
            arr[i:i + PRESSURE_CHUNK].tolist() for i in range(0, arr.size, PRESSURE_CHUNK)), tol)
        arr.setflags(write=False)
        self.probs = arr

    @property
    def size(self) -> int:
        return int(self.probs.size)

    def __len__(self) -> int:
        return self.size

    def __repr__(self) -> str:
        return f"Pmf({self.probs.tolist()!r})"


def _require_unit_sum(terms, tol: float):
    total = math.fsum(terms)
    if abs(total - 1.0) > tol:
        raise ValidationError(f"PMF entries sum to {total!r}, not 1 within {tol:g}")


@dataclass(frozen=True, eq=False)
class IidSource:
    """Memoryless source with a fixed single-letter marginal."""

    marginal: Pmf

    @property
    def alphabet_size(self) -> int:
        return self.marginal.size


@dataclass(frozen=True, eq=False)
class MarkovSource:
    """First-order chain with initial distribution and row-stochastic transitions."""

    init: Pmf
    transition: np.ndarray
    stationary: bool = False

    def __post_init__(self):
        pi = np.array(self.transition, dtype=float)
        if pi.ndim != 2 or pi.shape[0] != pi.shape[1]:
            raise ValidationError("transition matrix must be square")
        if pi.shape[0] != self.init.size:
            raise ValidationError("initial distribution size must match the transition matrix")
        if not np.all(np.isfinite(pi)):
            raise ValidationError("transition probabilities must be finite")
        if np.any(pi < 0.0):
            raise ValidationError("transition probabilities must be nonnegative")
        for i in range(pi.shape[0]):
            row_sum = math.fsum(pi[i].tolist())
            if abs(row_sum - 1.0) > PMF_TOL:
                raise ValidationError(f"transition row {i} sums to {row_sum!r}, not 1")
        pi.setflags(write=False)
        object.__setattr__(self, "transition", pi)
        if self.stationary:
            residual = float(np.abs(self.init.probs @ pi - self.init.probs).sum())
            if residual > STATIONARY_TOL:
                raise ValidationError(
                    f"declared-stationary init has residual {residual:.3e} > {STATIONARY_TOL:g}"
                )

    @property
    def alphabet_size(self) -> int:
        return self.init.size


@dataclass(frozen=True, eq=False)
class UnifilarSource:
    """Finite-state source whose next state is a function of (state, emitted symbol).

    ``next_state[s, x]`` gives the successor state, ``emission[s]`` the
    per-state symbol distribution, and ``init_states`` the distribution of
    the initial state.
    """

    init_states: Pmf
    next_state: np.ndarray
    emission: tuple

    def __post_init__(self):
        nxt = np.array(self.next_state, dtype=int)
        if nxt.ndim != 2:
            raise ValidationError("next-state map must be a (states x symbols) table")
        num_states, num_symbols = nxt.shape
        if self.init_states.size != num_states:
            raise ValidationError("initial state distribution size must match the state count")
        emissions = tuple(self.emission)
        if len(emissions) != num_states:
            raise ValidationError("one emission distribution is required per state")
        for e in emissions:
            if e.size != num_symbols:
                raise ValidationError("emission distributions must cover the symbol alphabet")
        # total function: every (state, symbol) must map to a valid state
        if np.any(nxt < 0) or np.any(nxt >= num_states):
            raise ValidationError("next-state map must land inside the state set")
        nxt.setflags(write=False)
        object.__setattr__(self, "next_state", nxt)
        object.__setattr__(self, "emission", emissions)

    @property
    def num_states(self) -> int:
        return int(self.next_state.shape[0])

    @property
    def alphabet_size(self) -> int:
        return int(self.next_state.shape[1])


@dataclass(frozen=True, eq=False)
class ExplicitSource:
    """Source given by an explicit list of n-letter distributions, index n-1."""

    pmfs: tuple

    def __post_init__(self):
        entries = tuple(self.pmfs)
        if not entries:
            raise ValidationError("explicit source needs at least one distribution")
        object.__setattr__(self, "pmfs", entries)

    @property
    def alphabet_size(self) -> int:
        return self.pmfs[0].size


SourceModel = Union[IidSource, MarkovSource, UnifilarSource, ExplicitSource]


def entropy(p: Pmf) -> float:
    """Shannon entropy in nats, with 0 ln 0 = 0."""
    terms = [-x * math.log(x) for x in p.probs.tolist() if x > 0.0]
    return math.fsum(terms)


def renyi_entropy(p: Pmf, alpha: float) -> float:
    """Order-``alpha`` entropy ln(sum p^alpha)/(1-alpha) in nats, alpha > 0, != 1."""
    if alpha <= 0.0 or alpha == 1.0:
        raise ValidationError("order must be positive and different from 1")
    total = math.fsum((x ** alpha for x in p.probs.tolist() if x > 0.0))
    return math.log(total) / (1.0 - alpha)


def sort_desc(p: Pmf) -> np.ndarray:
    """Indices ordering ``p`` by decreasing probability, ties by ascending index."""
    return np.argsort(-p.probs, kind="stable")


@dataclass(frozen=True, eq=False)
class Spectrum:
    """Sorted probability profile of a finite law: all a finite-n solver reads.

    ``values`` holds the distinct probabilities in decreasing order (zero
    included when the law has zero entries) and ``counts`` how many strings
    take each; ``size`` is the string count N.  In the descending order of
    the law, run j fills the sorted positions ``ends[j] - counts[j]`` up to
    ``ends[j] - 1``; ``before[j]`` and ``after[j]`` are the masses of the
    runs ahead of and behind it.
    """

    values: np.ndarray
    counts: np.ndarray
    ends: np.ndarray = field(init=False)
    before: np.ndarray = field(init=False)
    after: np.ndarray = field(init=False)

    def __post_init__(self):
        masses = self.values * self.counts
        ahead = np.cumsum(masses)
        # tails are summed from the smallest run up, so small tails keep their precision
        behind = np.cumsum(masses[::-1])[::-1]
        for name, arr in (("ends", np.cumsum(self.counts)), ("before", ahead - masses),
                          ("after", np.append(behind[1:], 0.0))):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def size(self) -> int:
        return int(self.ends[-1])


def spectrum(p: Pmf) -> Spectrum:
    """The :class:`Spectrum` of a dense law: one ``np.unique`` of its entries."""
    values, counts = np.unique(p.probs, return_counts=True)
    return Spectrum(values[::-1].copy(), counts[::-1].copy())


def n_letter_spectrum(model: SourceModel, n: int, cap: int = DEFAULT_MATERIALIZE_CAP) -> Spectrum:
    """The :class:`Spectrum` of the n-letter law of ``model``, without its K^n strings.

    A string's probability is, per start of :func:`_start_runs`, a
    left-to-right product over the letter table (:func:`_letters`), times
    the start's weight, and the starts are added in state order.  A run
    holds one (state, value) pair per start and a count: one more letter
    takes every run's step (:func:`_append_letter`), and runs whose pairs
    are all equal merge (:func:`_merge_runs`), since their strings agree on
    every continuation.  At the end each run's value is formed once and
    equal values merge.  A one-start source, every iid and Markov one, has
    one pair per run; a one-letter alphabet's starts come back already
    walked, one run at every n.  An explicit source takes the spectrum of
    its listed law.  The n check, the cap (checked before any work) and the
    PRODUCT_TOL sum check, over the exact sum of value x count, raise what
    building the dense law raises.  A string count above 2^52 is refused
    whatever the cap: run counts past it are not exact floats.  So is an n
    above the cap or 2^52, which bounds a one-letter walk.
    """
    if n < 1:
        raise ValidationError("n must be a positive integer")
    if isinstance(model, ExplicitSource):
        if n > len(model.pmfs):
            raise ValidationError(f"explicit source defines lengths 1..{len(model.pmfs)}")
        law = model.pmfs[n - 1]
        if law.size > cap:
            raise CapExceededError(f"{law.size} strings exceed the cap of {cap}")
        return spectrum(law)
    k = model.alphabet_size
    what = f"{k}^{n} strings" if k > 1 else f"{n} letters"
    # k^n >= 2^(n (bits(k) - 1)), so k^n is formed only with under 2 bits(limit)
    # bits; for k >= 2, n <= k^n, and for k = 1, n > limit bounds the walk
    for limit, name in ((cap, f"the cap of {cap}"),
                        (_MAX_COUNT, "2^52, past which run counts are not exact floats")):
        if n > limit or n * (k.bit_length() - 1) >= limit.bit_length() or k ** n > limit:
            raise CapExceededError(f"{what} exceed {name}")
    starts = _start_runs(model, n)
    values, states, steps, _ = starts[0]
    if len(starts) > 1:
        # every start begins with one string: the runs are one row of pairs
        values, states = (np.column_stack([run[i] for run in starts]) for i in (0, 1))
    counts = np.ones(len(values), dtype=np.int64)
    weights, nxt = _letters(model)
    for _ in range(steps):
        values, states = _append_letter(values, states, weights, nxt)
        values, counts, states = _merge_runs(values, np.repeat(counts, k), states)
    # each start's column times its weight, added in state order as the dense law adds them
    columns = values.T if values.ndim > 1 else [values]
    total = columns[0] * starts[0][3]
    for column, run in zip(columns[1:], starts[1:]):
        total = total + column * run[3]
    values, counts, _ = _merge_runs(total, counts, np.zeros(total.size, dtype=int))
    _require_unit_sum(_exact_products(values, counts), PRODUCT_TOL)
    return Spectrum(values[::-1].copy(), counts[::-1].copy())


def _one_string(model, run) -> tuple:
    """A start ``run`` of a one-letter alphabet walked to its end, with 0 letters
    to go: its one value times the weights of the letters left, multiplied in
    the walk's order (``math.prod`` multiplies floats left to right), so bit
    for bit the walk's, and the state the walk ends in."""
    values, states, steps, scale = run
    weights, nxt = _letters(model)
    letter, to = weights[:, 0].tolist(), nxt[:, 0].tolist()
    path = itertools.accumulate(itertools.repeat(None), lambda s, _: to[s], initial=int(states[0]))
    value = math.prod(map(letter.__getitem__, itertools.islice(path, steps)),
                      start=float(values[0]))
    return np.array([value]), np.array([next(path)]), 0, scale


def _start_runs(model, n: int) -> list:
    """(values, states, letters still to multiply, final scale) per start of the
    n-letter walk of an iid, Markov or unifilar source, in state order, with
    fresh values.  A unifilar source has one start per start state of
    positive weight, each one string long.  On a one-letter alphabet every
    start is one string, returned already walked (:func:`_one_string`)."""
    if isinstance(model, IidSource):
        runs = [(np.ones(1), np.zeros(1, dtype=int), n, 1.0)]
    elif isinstance(model, MarkovSource):
        runs = [(model.init.probs.copy(), np.arange(model.alphabet_size), n - 1, 1.0)]
    else:
        runs = [(np.ones(1), np.array([s]), n, w)
                for s, w in enumerate(model.init_states.probs.tolist()) if w > 0.0]
    return runs if model.alphabet_size > 1 else [_one_string(model, run) for run in runs]


def _append_letter(values, states, weights, nxt) -> tuple:
    """Every string followed by every letter, in lexicographic order: (values, states).

    ``values`` and ``states`` hold one entry per string, or one row of
    (value, state) pairs per string, one pair per start.  Filled a letter
    at a time, every k-th string from the letter's index (faster than a
    product with a short last axis).  A one-state table gathers nothing:
    every string is in state 0.
    """
    k = weights.shape[1]
    out = np.empty((len(values) * k,) + values.shape[1:])
    if weights.shape[0] == 1:
        for x, weight in enumerate(weights[0]):
            np.multiply(values, weight, out=out[x::k])
        return out, np.zeros(out.shape, dtype=nxt.dtype)
    out_states = np.empty(out.shape, dtype=nxt.dtype)
    for x in range(k):
        np.multiply(values, weights[:, x].take(states), out=out[x::k])
        out_states[x::k] = nxt[:, x].take(states)
    return out, out_states


def _merge_runs(values: np.ndarray, counts: np.ndarray, states: np.ndarray) -> tuple:
    """Merge the runs of equal (state, value), or of equal rows of pairs, after
    one ``np.lexsort`` (states as the leading keys) brings them together."""
    keys = (values, states) if values.ndim == 1 else (*values.T, *states.T)
    order = np.lexsort(keys)
    values, counts, states = values[order], counts[order], states[order]
    new = np.ones(len(values), dtype=bool)
    changed = (values[1:] != values[:-1]) | (states[1:] != states[:-1])
    new[1:] = changed if changed.ndim == 1 else changed.any(axis=1)
    heads = np.flatnonzero(new)
    return values[heads], np.add.reduceat(counts, heads), states[heads]


def _exact_products(values: np.ndarray, counts: np.ndarray) -> list:
    """Floats whose exact sum is that of values x counts, for counts below 2^52.

    Each value splits into two halves of at most 26 significant bits
    (Veltkamp) and each count into two 26-bit digits, so the four partial
    products are exact unless they fall in the subnormal range.
    """
    t = values * 134217729.0  # 2^27 + 1
    high = t - (t - values)
    low = values - high
    digits = np.divmod(counts, 2 ** 26)
    scaled = (digits[0] * 2.0 ** 26, digits[1].astype(float))
    return [part for v in (high, low) for c in scaled for part in (v * c).tolist()]


def is_irreducible(next_state: np.ndarray, counted: np.ndarray) -> bool:
    """True when the graph of edges s -> ``next_state[s, x]`` over the
    ``counted`` letters is strongly connected: state 0 reaches every state
    and every state reaches state 0, by one depth-first search each way,
    linear in the edges (Tarjan 1972)."""
    heads, letters = np.nonzero(counted)
    edges = heads.tolist(), next_state[heads, letters].tolist()
    return all(_reaches_all(*ends, next_state.shape[0]) for ends in (edges, edges[::-1]))


def _reaches_all(heads: list, tails: list, size: int) -> bool:
    """True when state 0 reaches all ``size`` states along the edges heads[i] -> tails[i]."""
    out = [[] for _ in range(size)]
    for s, t in zip(heads, tails):
        out[s].append(t)
    seen, stack = {0}, [0]
    while stack:
        new = set(out[stack.pop()]) - seen
        seen |= new
        stack.extend(new)
    return len(seen) == size


def stationary(transition) -> Pmf:
    """Stationary distribution q with q pi = q for an irreducible chain.

    q is the left Perron vector of pi (:func:`perron_vectors`) divided by
    its sum; it must be nonnegative up to 1e-12 round-off and leave an L1
    residual |q pi - q| of at most STATIONARY_TOL.
    """
    pi = np.asarray(transition, dtype=float)
    if pi.ndim != 2 or pi.shape[0] != pi.shape[1]:
        raise ValidationError("transition matrix must be square")
    table = np.broadcast_to(np.arange(len(pi)), pi.shape)  # letter x moves to state x
    if not (np.all(np.isfinite(pi)) and is_irreducible(table, pi > 0.0)):
        raise ValidationError("transition matrix is not finite or is reducible")
    u = perron_vectors(pi[None])[1][0]
    q = u / u.sum()
    if not (np.all(q >= -1e-12) and np.abs(q @ pi - q).sum() <= STATIONARY_TOL):
        raise NumericError(
            f"the stationary law is negative or leaves a residual above {STATIONARY_TOL:g}")
    q = np.maximum(q, 0.0)
    return Pmf(q / q.sum(), tol=PRODUCT_TOL)


@dataclass(frozen=True, eq=False)
class PowerForm:
    """Entries of the tilted state-power matrix of a source or a finite law.

    Letter x emitted in state s has log weight ``log_weights[s, x]``, moves
    the source to state ``next_state[s, x]`` and is counted ``counts[s, x]``
    times: M(beta)[s, t] sums counts(s, x) weight(s, x)^beta over the
    letters x that move s to t.  An iid source is the one-state case and a
    Markov chain has state = last symbol; a finite n-letter law is one
    state whose letters are its distinct probabilities, counted by
    multiplicity.  Zero weights are stored as log 1 and counted 0.

    A multi-state form whose state chain (over the counted letters) is
    reducible is refused when it is built: its Perron root is not the
    one its start states see.
    """

    log_weights: np.ndarray  # (states, letters)
    next_state: np.ndarray  # (states, letters)
    counts: np.ndarray  # (states, letters), as floats

    def __post_init__(self):
        if self.num_states > 1 and not is_irreducible(self.next_state, self.counts > 0.0):
            raise ValidationError("the state chain is reducible")

    @property
    def num_states(self) -> int:
        return int(self.log_weights.shape[0])

    def powers(self, betas: np.ndarray):
        """Yield (beta, shift, logs, e^(beta logs)) per chunk of PRESSURE_CHUNK // (S K S) betas.

        logs = ln weight - shift.  The shift is 0 for beta <= 1 and, for
        beta > 1, the peak log weight of a counted letter (zero weights are
        stored as log 1 and keep it), whose power stays 1 at any beta.
        Leaving beta <= 1 unshifted is what makes P(0) = ln sum p read
        exactly 0 and the linear regime read rho R exactly; shifting every
        beta reads 0.30000000000000004 for the linear value 0.3.
        """
        s, k = self.log_weights.shape
        step = max(1, PRESSURE_CHUNK // (s * k * s))
        # an empty batch is one empty chunk
        for i in range(0, max(betas.size, 1), step):
            beta = betas[i:i + step]
            shift, logs = 0.0, self.log_weights
            if (beta > 1.0).any():
                counted = self.counts > 0.0
                shift = np.where(beta > 1.0, self.log_weights[counted].max(), 0.0)
                logs = np.where(counted, self.log_weights - shift[:, None, None], 0.0)
            yield beta, shift, logs, np.exp(beta[:, None, None] * logs)

    def matrix(self, entries: np.ndarray) -> np.ndarray:
        """Gather per-letter entries (batch, states, letters) into state-to-state matrices.

        Both branches keep the bits of the dense einsum over a (states,
        letters, states) scatter of the counts.  One state: its reduction
        over letters runs the same way without the unit last axis.  Several
        states: the dense sum adds each letter's product (counts are 0 or 1)
        into (b, s, t) from 0 in letter order, as ``bincount`` over the flat
        indices b S^2 + s S + next_state[s, x] does.
        """
        b, s = entries.shape[:2]
        if s == 1:
            return np.einsum("bsx,sx->bs", entries, self.counts)[:, :, None]
        flat = (np.arange(b * s) * s).reshape(b, s, 1) + self.next_state
        return np.bincount(flat.ravel(), (entries * self.counts).ravel(),
                           minlength=b * s * s).reshape(b, s, s)


def _letters(model) -> tuple:
    """(weights, next_state) of an iid, Markov or unifilar model.

    Letter x emitted in state s has probability ``weights[s, x]`` and
    moves the source to state ``next_state[s, x]``: an iid source is the
    one-state case and a Markov chain has state = last symbol.
    """
    if isinstance(model, IidSource):
        weights = model.marginal.probs[None, :]
        return weights, np.zeros(weights.shape, dtype=int)
    if isinstance(model, MarkovSource):
        weights = model.transition
        return weights, np.broadcast_to(np.arange(model.alphabet_size), weights.shape)
    if isinstance(model, UnifilarSource):
        return np.array([e.probs for e in model.emission]), model.next_state
    raise ValidationError("the pressure needs an iid, Markov or unifilar model or a finite law")


def power_form(model) -> PowerForm:
    """The :class:`PowerForm` of an iid, Markov or unifilar model or of a finite
    law's :class:`Spectrum`; a model with a reducible state chain raises
    :class:`ValidationError`.
    """
    if isinstance(model, PowerForm):
        return model
    counts = 1
    if isinstance(model, Spectrum):
        # positive values in ascending order, the order the power sums are taken in
        keep = model.values > 0.0
        weights, counts = model.values[None, keep][:, ::-1], model.counts[None, keep][:, ::-1]
        nxt = np.zeros(weights.shape, dtype=int)
    else:
        weights, nxt = _letters(model)
    positive = weights > 0.0
    return PowerForm(np.log(np.where(positive, weights, 1.0)), nxt,
                     np.where(positive, counts, 0).astype(float))


def pressure(model, thetas) -> np.ndarray:
    """P(theta) = (1+theta) ln lambda(1/(1+theta)) over an array of theta > -1.

    lambda(beta) is the Perron root (:func:`perron_vectors`) of the tilted
    state-power matrix of ``model`` (see :func:`power_form`); for a
    one-state form it is the power sum itself.  P(theta) is theta times
    the order-1/(1+theta) entropy rate, and P(0) = 0.  For theta < 0 the root is that of the
    shifted powers (:meth:`PowerForm.powers`), with beta shift added back
    to its log.  A reducible state chain is refused, and a value that is
    not finite (a multi-state root underflows near theta = -1) raises
    :class:`NumericError`.
    """
    form = power_form(model)
    thetas = np.asarray(thetas, dtype=float)
    with np.errstate(all="ignore"):
        betas = 1.0 / (1.0 + thetas.ravel())
        log_lam = [np.log(perron_vectors(form.matrix(w))[0]) + beta * shift
                   for beta, shift, _, w in form.powers(betas)]
        out = (1.0 + thetas.ravel()) * np.concatenate(log_lam)
    return _finite(out, "pressure").reshape(thetas.shape)


def _finite(values: np.ndarray, what: str) -> np.ndarray:
    if not np.isfinite(values).all():
        raise NumericError(f"the {what} is not finite at some theta (a multi-state "
                           "Perron root can underflow near theta = -1)")
    return values


def perron_vectors(m: np.ndarray) -> tuple:
    """(lambda, u, v) of a stack of nonnegative matrices: the eigenvalue of
    largest real part, from ``eig`` of M and of its transpose, with its
    left and right eigenvectors as ``eig`` scales them; u = v = 1 for one state."""
    if m.shape[1] == 1:
        ones = np.ones((m.shape[0], 1))
        return m[:, 0, 0], ones, ones
    rows = np.arange(m.shape[0])
    roots, right = np.linalg.eig(m)
    roots_left, left = np.linalg.eig(np.swapaxes(m, 1, 2))
    i, j = roots.real.argmax(axis=1), roots_left.real.argmax(axis=1)
    return roots.real[rows, i], left[rows, :, j].real, right[rows, :, i].real


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Sum of a * b over the last axis, term by term in index order.

    The order is fixed, so a row's bits do not depend on the batch it is in.
    """
    out = a[..., 0] * b[..., 0]
    for i in range(1, a.shape[-1]):
        out = out + a[..., i] * b[..., i]
    return out


def pressure_slope(model, thetas) -> np.ndarray:
    """P'(theta) = ln lambda - beta lambda'/lambda at beta = 1/(1+theta).

    lambda' = u M'(beta) v / (u v) with u, v the left and right Perron
    vectors of :func:`perron_vectors`; for a one-state form u = v = 1, so
    lambda and lambda' are the power sums themselves.  The slope is the
    entropy rate of the order-beta tilt: the entropy rate itself at
    theta = 0, the saturation threshold H' at theta = rho, and ln(#peak
    letters) as theta falls to -1 for iid.  The shift of
    :meth:`PowerForm.powers` cancels in it.  A reducible state chain is
    refused when its form is built, and a slope that is not finite raises
    :class:`NumericError`, as in :func:`pressure`.
    """
    thetas = np.asarray(thetas, dtype=float)
    with np.errstate(all="ignore"):
        out = _slope(power_form(model), 1.0 / (1.0 + thetas.ravel()))
    return _finite(out, "pressure slope").reshape(thetas.shape)


def _slope(form: PowerForm, betas: np.ndarray) -> np.ndarray:
    """P' of :func:`pressure_slope` at each tilt exponent beta of a flat array,
    so that a beta near 0 or far above 1 never rounds through theta."""
    lam, dlam = [], []
    for _, _, logs, w in form.powers(betas):
        root, u, v = perron_vectors(form.matrix(w))
        lam.append(root)
        dlam.append(_dot(u, _dot(form.matrix(w * logs), v[:, None, :])) / _dot(u, v))
    lam, dlam = np.concatenate(lam), np.concatenate(dlam)
    return np.log(lam) - betas * dlam / lam


def chain_source(transition) -> MarkovSource:
    """The chain with these transitions from the uniform initial law.

    Rates, pressures and exponents of a chain do not depend on its
    initial law, so a bare transition matrix (as verify draws them) is enough.
    """
    pi = np.asarray(transition, dtype=float)
    return MarkovSource(Pmf(np.full(len(pi), 1.0 / len(pi))), pi)


def read_json(path, what: str):
    """The JSON document in the file ``path``, a ``what`` file (config or
    model); a file that is missing, cannot be read as UTF-8 or is not JSON
    raises :class:`ValidationError` naming it."""
    try:
        return json.loads(Path(path).read_text())
    except (OSError, ValueError) as exc:
        raise ValidationError(f"{what} file {path} cannot be read as JSON: {exc}") from None


def integer(value, what: str) -> int:
    """``value`` as an int: a JSON integer or an integral float (2 or 2.0),
    never a bool, a fraction or a string (:class:`ValidationError`)."""
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValidationError(f"{what} must be an integer, not {value!r}")
    return value


def reals(values, what: str = "probabilities") -> list:
    """``values`` as floats: JSON numbers or decimal strings, never bools."""
    if any(isinstance(v, bool) for v in values):
        raise ValidationError(f"{what} must be numbers or decimal strings, not bools")
    return [float(v) for v in values]


def model_from_dict(doc: dict) -> SourceModel:
    """Build a source model from its JSON document form.

    Probabilities are JSON numbers or decimal strings (:func:`reals`);
    ``next_state`` entries and ``init_state`` follow :func:`integer`, and
    ``stationary`` is a JSON boolean.  A missing field, or a field of the
    wrong type or shape, raises :class:`ValidationError`.
    """
    try:
        kind = doc["kind"]
    except (KeyError, TypeError):
        raise ValidationError("model document needs a 'kind' field")
    try:
        if kind == "iid":
            return IidSource(Pmf(reals(doc["probs"])))
        if kind == "markov":
            pi = np.array([reals(row) for row in doc["transition"]])
            declared = doc.get("stationary", False)
            if not isinstance(declared, bool):
                raise ValidationError(f"stationary must be true or false, not {declared!r}")
            if "init" in doc:
                return MarkovSource(Pmf(reals(doc["init"])), pi, stationary=declared)
            return MarkovSource(stationary(pi), pi, stationary=True)
        if kind == "unifilar":
            nxt = np.array([[integer(s, "each next_state entry") for s in row]
                            for row in doc["next_state"]])
            emission = tuple(Pmf(reals(row)) for row in doc["emission"])
            if "init_states" in doc:
                init = Pmf(reals(doc["init_states"]))
            else:
                init = _point_mass(nxt.shape[0], integer(doc.get("init_state", 0), "init_state"))
            return UnifilarSource(init, nxt, emission)
        if kind == "explicit":
            return ExplicitSource(tuple(Pmf(reals(row)) for row in doc["pmfs"]))
    except ValidationError:
        raise
    except (LookupError, TypeError, ValueError, OverflowError) as exc:
        raise ValidationError(f"malformed {kind!r} model: {type(exc).__name__}: {exc}") from None
    raise ValidationError(f"unknown model kind {kind!r}")


def _point_mass(size: int, index: int) -> Pmf:
    if not 0 <= index < size:
        raise ValidationError("initial state index out of range")
    out = np.zeros(size)
    out[index] = 1.0
    return Pmf(out)


def load_model(path) -> SourceModel:
    """Load a source model from a JSON file (:func:`read_json`, :func:`model_from_dict`)."""
    return model_from_dict(read_json(path, "model"))
