"""Single-letter attack exponents and the identities tying them together.

The central curve is E(R, rho) = max over distributions Q of
rho min(H(Q), R) - D(Q || P): linear with slope rho up to the source
entropy, concave in between, and flat at rho times the order-1/(1+rho)
entropy beyond a saturation threshold.  The same value comes out of a
one-dimensional dual over a mixing weight theta, out of a direct simplex
search (iid), and out of an error/correct-decoding split (iid); for iid,
Markov and unifilar sources alike, the twisted chain at the dual's root
brackets it between a primal lower bound and a Collatz-Wielandt upper
bound (:func:`certified_exponent`).

The dual, the correct-decoding term and the error exponent are one
clamped root of P'(theta) = R, P the pressure, solved in v = ln(1+theta)
= -ln beta on [0, ln(1+rho)], [ln 2^-53, ln(1+rho)] and [0, ln 1e9]
(:func:`_pressure_roots`).  The two split terms stay primal,
evaluated at the tilt the root picks (the one-state twisted chain), so
the split still checks the dual.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy

from .errors import CapExceededError, NumericError, ValidationError
from .cipher import _multisets
from .optimize import bracketed_roots
from .sources import (
    DEFAULT_MATERIALIZE_CAP,
    PRESSURE_CHUNK,
    IidSource,
    MarkovSource,
    Pmf,
    SourceModel,
    UnifilarSource,
    _dot,
    _slope,
    entropy,
    perron_vectors,
    power_form,
    pressure,
    pressure_slope,
)

_GRID_MAX_ALPHABET = 4
_GRID_STEPS = 100
# v = -ln beta ends: the correct term reads its tie floor at beta ~ 2^53, the
# float above theta = -1, and the error exponent's tilt stops at beta = 1e-9
_V_TIE_FLOOR = math.log(2.0 ** -53)
_V_ERROR_CAP = math.log(1e9)


def _cells(rho, key_rate) -> tuple:
    """(shape, rho, R) of the broadcast (rho, R) cells, flattened; rho must
    be finite and positive and R positive (+inf too) and not nan."""
    rhos, rates = np.asarray(rho, dtype=float), np.asarray(key_rate, dtype=float)
    if not (np.all(np.isfinite(rhos) & (rhos > 0.0)) and np.all(rates > 0.0)):
        raise ValidationError("need finite rho > 0 and key_rate > 0")
    shape = np.broadcast_shapes(rhos.shape, rates.shape)
    return shape, np.broadcast_to(rhos, shape).ravel(), np.broadcast_to(rates, shape).ravel()


def _shaped(shape: tuple, out: np.ndarray):
    """Per-cell results ``out`` in ``shape``, a float for a scalar cell."""
    return float(out[0]) if not shape else out.reshape(shape)


def _pressure_roots(form, rates, lo, hi) -> np.ndarray:
    """Per cell, v = ln(1 + theta) = -ln beta at the minimizer over v in
    [lo, hi] of (rho - theta) R + P(theta).

    P is convex and theta grows with v, so it is the root of P' = R clamped
    to [lo, hi]: exactly lo where P' >= R at lo, exactly hi where P' <= R at
    hi, both settled by one slope call.  The other cells solve P' = R in v
    together, one batched slope call at beta = e^-v per step
    (:func:`optimize.bracketed_roots`).  ``lo`` and ``hi`` are each one end
    for all cells or one per cell.
    """
    lo, hi = np.ravel(lo), np.ravel(hi)
    slopes = _slope(form, np.exp(-np.concatenate([lo, hi])))
    at_lo, at_hi = slopes[:lo.size] - rates, slopes[lo.size:] - rates
    lo, hi = np.broadcast_to(lo, rates.shape), np.broadcast_to(hi, rates.shape)
    v = np.where((at_lo < 0.0) & (at_hi <= 0.0), hi, lo)
    inner = np.flatnonzero((at_lo < 0.0) & (at_hi > 0.0))
    inner_rates = rates[inner]
    v[inner] = bracketed_roots(
        lambda x, rows: _slope(form, np.exp(-x)) - inner_rates[rows],
        lo[inner], hi[inner], at_lo[inner], at_hi[inner])
    return v


def _twisted_chain(form, betas: np.ndarray) -> tuple:
    """(H, D, ln CW, ln lambda) per tilt exponent beta, read off M = M(beta).

    With u, v the Perron vectors of M, the twisted chain gives letter x in
    state s the law w(s, x)^beta v_next(s, x) / (M v)_s, each letter
    counted by its scatter count; its stationary law is pi_s ~ u_s v_s.  H
    and D are its conditional entropy and divergence from the source, and
    ln CW = ln max_s (M v)_s / v_s + beta shift >= ln lambda for any v > 0
    (Collatz-Wielandt); ln lambda takes the shift back as :func:`pressure`
    does.  Sums run in a fixed order: no batch dependence.
    """
    counts, nxt = form.scatter.sum(axis=2), form.scatter.argmax(axis=2)
    h, d, log_cw, log_lam = [], [], [], []
    for beta, shift, logs, w in form.powers(betas):
        m = form.matrix(w)
        lam, u, v = perron_vectors(m)
        u, v = np.abs(u), np.abs(v)
        mv = _dot(m, v[:, None, :])
        log_q = beta[:, None, None] * logs + np.log(v[:, nxt]) - np.log(mv)[:, :, None]
        mass = counts * np.exp(log_q)
        weight, total = u * v, _dot(u, v)
        h.append(-_dot(weight, _dot(mass, log_q)) / total)
        d.append(_dot(weight, _dot(mass, log_q - form.log_weights)) / total)
        log_cw.append(np.log((mv / v).max(axis=1)) + beta * shift)
        log_lam.append(np.log(lam) + beta * shift)
    return tuple(np.concatenate(out) for out in (h, d, log_cw, log_lam))


def _dual_root(model, rho, key_rate) -> tuple:
    """(shape, form, rho, R, theta*, (rho - theta*) R) of the dual's flattened
    cells.  Clamped cells take theta* = 0 and rho exactly, and the last is
    0 where theta* = rho, as 0 x R is nan for R = +inf."""
    shape, flat_rho, flat = _cells(rho, key_rate)
    form = power_form(model)
    top = np.log1p(flat_rho)
    v = _pressure_roots(form, flat, 0.0, top)
    theta = np.where(v == top, flat_rho, np.expm1(v))
    gap = flat_rho - theta
    linear = np.multiply(gap, flat, out=np.zeros_like(gap), where=gap > 0.0)
    return shape, form, flat_rho, flat, theta, linear


def model_exponent_dual(model, rho, key_rate):
    """min over theta in [0, rho] of (rho - theta) R + P(theta), P the pressure.

    ``model`` is an iid, Markov or unifilar source, with R in nats per
    letter, or the :class:`Spectrum` of a finite law, with R the total
    rate.  ``rho`` and ``key_rate`` may be arrays, broadcast
    against each other; each (rho, R) cell is one problem, solved by
    :func:`_pressure_roots` (theta = 0 is the linear regime and theta = rho
    saturation).  The values take one batched pressure call; a saturated
    cell is P(rho) even at R = +inf.  Multi-state sources must have an
    irreducible state chain.
    """
    shape, form, _, _, theta, linear = _dual_root(model, rho, key_rate)
    return _shaped(shape, pressure(form, theta) + linear)


def certified_exponent(model, rho, key_rate) -> tuple:
    """(lower, E, upper): E = :func:`model_exponent_dual`, bit for bit, and two
    bounds on it, all from one Perron pass at the root theta* (:func:`_twisted_chain`).

    lower = rho min(H, R) - D is a feasible chain's primal value; upper =
    (rho - theta*) R + (1 + theta*) ln CW bounds the dual by weak duality.
    Same arguments, broadcasting and shapes as the dual.
    """
    shape, form, flat_rho, flat, theta, linear = _dual_root(model, rho, key_rate)
    h, d, log_cw, log_lam = _twisted_chain(form, 1.0 / (1.0 + theta))
    return tuple(_shaped(shape, out) for out in (
        flat_rho * np.minimum(h, flat) - d, (1.0 + theta) * log_lam + linear,
        linear + (1.0 + theta) * log_cw))


def _simplex_grid(dim: int, steps: int) -> np.ndarray:
    """All probability vectors with entries that are multiples of 1/steps.

    Rows come in lexicographic order: the partial sums of a row's first
    dim - 1 entries, in units of 1/steps, run through the non-decreasing
    tuples over 0..steps.  A grid above the materialize cap is refused
    before it is built.
    """
    count = math.comb(steps + dim - 1, dim - 1)
    if count > DEFAULT_MATERIALIZE_CAP:
        raise CapExceededError(f"a {dim}-letter simplex grid of step 1/{steps} has {count} "
                               "points, over the materialize cap")
    return np.diff(_multisets(steps + 1, dim - 1), axis=1, prepend=0, append=steps) / steps


def _simplex_objective(q: np.ndarray, p: np.ndarray, rho: float, key_rate: float):
    """rho min(H(Q), R) - D(Q||P) per row Q of ``q`` (a scalar for one
    vector): -inf for a row with mass off the support of ``p``."""
    with np.errstate(divide="ignore", invalid="ignore"):
        log_q = np.log(q)
        mass = q > 0.0
        h = -np.where(mass, q * log_q, 0.0).sum(axis=-1)
        d = np.where(mass, q * (log_q - np.log(p)), 0.0).sum(axis=-1)
    return rho * np.minimum(h, key_rate) - d


def iid_exponent_grid(p1: Pmf, rho: float, key_rate: float) -> float:
    """Direct maximum of rho min(H(Q), R) - D(Q||P) over the simplex.

    The best point of the barycentric grid of step 1/100 is refined by
    Nelder-Mead; both score points with :func:`_simplex_objective`.
    Alphabets above 4 are refused; use the dual.
    """
    if p1.size > _GRID_MAX_ALPHABET:
        raise CapExceededError("grid search supports alphabets up to 4; use the dual")
    if p1.size == 1:
        return 0.0
    p = p1.probs
    grid = _simplex_grid(p1.size, _GRID_STEPS)
    objective = _simplex_objective(grid, p, rho, key_rate)
    best_i = int(np.argmax(objective))

    def neg_obj(x: np.ndarray) -> float:
        tail = 1.0 - x.sum()
        if np.any(x < -1e-12) or tail < -1e-12:
            return 1e6
        q = np.append(np.maximum(x, 0.0), max(tail, 0.0))
        return -float(_simplex_objective(q, p, rho, key_rate))

    start = grid[best_i][:-1]
    # scipy loads its optimize module on this first attribute access
    result = scipy.optimize.minimize(neg_obj, start, method="Nelder-Mead",
                                     options={"xatol": 1e-10, "fatol": 1e-12, "maxiter": 4000})
    return max(float(objective[best_i]), float(-result.fun))


def iid_error_exponent(p1: Pmf, key_rate):
    """Smallest divergence from P among distributions with entropy above R.

    Zero for R up to H(P) (P itself sits in the closure of the constraint
    set); +inf from ln(support size) on, where the constraint set empties.
    In between, D(Q||P) at the order-beta tilt Q (:func:`_twisted_chain`),
    beta = e^-v and v the root of P' = R on the fixed bracket [0, ln 1e9]
    (:func:`_pressure_roots`), so beta stops at 1e-9.  ``key_rate`` may be
    an array; its rates are solved together.
    """
    shape, _, flat = _cells(1.0, key_rate)
    out = np.zeros(flat.size)
    h_p = entropy(p1)
    support = int((p1.probs > 0.0).sum())
    empty = (flat > h_p) & (flat >= math.log(support) - 1e-15)
    out[empty] = math.inf
    inner = np.flatnonzero((flat > h_p) & ~empty)
    form = power_form(IidSource(p1))
    v = _pressure_roots(form, flat[inner], 0.0, _V_ERROR_CAP)
    out[inner] = _twisted_chain(form, np.exp(-v))[1]
    return _shaped(shape, out)


def iid_correct_term(p1: Pmf, rho, key_rate):
    """max of rho H(Q) - D(Q||P) over distributions with entropy at most R.

    At the tie floor, R <= P'(-1+) = ln(#letters equal to p_max), read at
    beta ~ 2^53, it is (1+rho) R + ln p_max, the value of any law on the
    maximal letters with entropy R.  Otherwise it is rho H(Q) - D(Q||P) at
    the order-beta tilt Q (:func:`_twisted_chain`), beta = e^-v and v the
    root of P' = R clamped to the fixed bracket [ln 2^-53, ln(1+rho)]
    (:func:`_pressure_roots`): free (P'(rho) <= R), rho times the
    order-1/(1+rho) entropy.  A letter a hair below p_max puts the root at
    a huge beta, which v resolves as well as any other; a tilt whose
    entropy still misses R by 1e-9 raises :class:`NumericError`.  ``rho``
    and ``key_rate`` broadcast as in :func:`model_exponent_dual`, and all
    the (rho, R) cells take one root solve.
    """
    shape, flat_rho, flat = _cells(rho, key_rate)
    top, form = np.log1p(flat_rho), power_form(IidSource(p1))
    v = _pressure_roots(form, flat, _V_TIE_FLOOR, top)
    out = (1.0 + flat_rho) * flat + math.log(p1.probs.max())
    free, clamped = v > _V_TIE_FLOOR, v == top
    # the clamp at theta = rho reads the tilt at beta = 1/(1+rho) exactly
    h, d, _, _ = _twisted_chain(form, np.where(clamped, 1.0 / (1.0 + flat_rho), np.exp(-v))[free])
    if np.any((np.abs(h - flat[free]) > 1e-9) & ~clamped[free]):
        raise NumericError("the correct-decoding tilt misses its entropy constraint by over 1e-9")
    out[free] = flat_rho[free] * h - d
    return _shaped(shape, out)


def decomposition_check(p1: Pmf, rho, key_rate) -> tuple:
    """Compare max(rho R - error exponent, correct term) with the theta dual.

    ``rho`` and ``key_rate`` broadcast as in :func:`model_exponent_dual`;
    the error exponent, which has no rho, is solved once per distinct
    rate.  Returns (lhs, rhs, |gap|), floats for a scalar cell; the two
    sides agree analytically, so the gap measures only the optimizers'
    numerical error.
    """
    shape, flat_rho, flat = _cells(rho, key_rate)
    rates, index = np.unique(flat, return_inverse=True)
    lhs = np.maximum(flat_rho * flat - iid_error_exponent(p1, rates)[index],
                     iid_correct_term(p1, flat_rho, flat))
    rhs = model_exponent_dual(IidSource(p1), flat_rho, flat)
    return tuple(_shaped(shape, out) for out in (lhs, rhs, np.abs(lhs - rhs)))


# instances per padded pass of the tilted-maximizer identity
_IDENTITY_ROWS = 64


def variational_identity_checks(probs, support, thetas, seeds,
                                num_random: int = 1000) -> tuple:
    """Gap of the tilted-maximizer identity and worst random-probe excess, per row.

    Row i is one instance: the law ``probs[i]`` (zero-padded), the boolean
    support mask ``support[i]``, theta_i >= 0 and the probe seed
    ``seeds[i]``.  Left side: (1+theta) ln sum of p^(1/(1+theta)) over the
    support.  Right side: theta H(nu) - D(nu||p) at the tilted distribution
    nu, proportional to p^(1/(1+theta)) on the support, which attains the
    maximum.  Both sides come from padded passes over blocks of
    _IDENTITY_ROWS rows, each sum carried in extended precision.  The
    excess is the largest amount by which ``num_random`` random
    distributions on the row's support exceed the left side (analytically
    never positive).  Each row's probes are drawn from its own generator a
    chunk of rows at a time into one fixed pair of buffers of
    PRESSURE_CHUNK floats in all (or of one probe each, on a wider
    support), so the probes' memory grows with neither the rows nor
    ``num_random``.
    """
    probs, support = np.asarray(probs, dtype=float), np.asarray(support, dtype=bool)
    thetas = np.asarray(thetas, dtype=float)
    if not np.all(np.isfinite(thetas) & (thetas >= 0.0)):
        raise ValidationError("theta must be finite and nonnegative")
    gaps, excess = np.empty(len(probs)), np.empty(len(probs))
    buffers = np.empty((2, max(PRESSURE_CHUNK // 2, probs.shape[1])))
    for lo in range(0, len(probs), _IDENTITY_ROWS):
        rows = slice(lo, lo + _IDENTITY_ROWS)
        gaps[rows], lhs = _tilted_gaps(probs[rows], support[rows], thetas[rows])
        for i, side in enumerate(lhs.tolist(), lo):
            rng = np.random.default_rng(seeds[i])
            excess[i] = _probe_excess(probs[i][support[i]], float(thetas[i]), side,
                                      num_random, rng, buffers)
    return gaps, excess


def _tilted_gaps(probs: np.ndarray, support: np.ndarray, thetas: np.ndarray) -> tuple:
    """(|lhs - rhs|, lhs) of the tilted-maximizer identity, per padded row."""
    masked = np.where(support, probs, 0.0)
    peaks = masked.max(axis=1, keepdims=True)
    if not np.all(peaks > 0.0):
        raise ValidationError("support carries no probability mass")
    beta = 1.0 / (1.0 + thetas[:, None])
    lhs = (1.0 + thetas) * np.log(_exact_row_sums(masked ** beta))
    weights = (masked / peaks) ** beta
    nu = weights / _exact_row_sums(weights)[:, None]
    # nu > 0 exactly where p > 0 on the support; elsewhere each term is 0
    with np.errstate(divide="ignore", invalid="ignore"):
        nu_log_nu = np.where(nu > 0.0, nu * np.log(nu), 0.0)
        nu_log_ratio = np.where(nu > 0.0, nu * np.log(nu / probs), 0.0)
    rhs = -thetas * _exact_row_sums(nu_log_nu) - _exact_row_sums(nu_log_ratio)
    return np.abs(lhs - rhs), lhs


def _exact_row_sums(terms: np.ndarray) -> np.ndarray:
    """Row sums accumulated in extended precision, then rounded once."""
    return terms.sum(axis=1, dtype=np.longdouble).astype(float)


def _probe_excess(sub: np.ndarray, theta: float, lhs: float, num_random: int,
                  rng: np.random.Generator, buffers: np.ndarray) -> float:
    """Largest of theta H(nu) - D(nu||p) - lhs over Dirichlet(1) probes nu on
    a support where p takes the values ``sub``.

    The probes are the ones ``dirichlet`` draws from ``rng``: the standard
    exponentials g, one probe per row, normalized by S = sum g.  So
    nu . ln p - (1+theta) sum nu ln nu is
    (g . ln p - (1+theta)(sum g ln g - S ln S)) / S, with 0 ln 0 = 0, and
    no normalized copy is formed.  g and ln g take the two rows of
    ``buffers`` a chunk of probes at a time, in draw order; the weights
    [ln p, 1] and the support's zero-mass letters are found once.
    """
    positive = sub > 0.0
    zero = np.flatnonzero(~positive)
    weights = np.ones((sub.size, 2))
    weights[:, 0] = np.log(np.where(positive, sub, 1.0))
    step = buffers.shape[1] // sub.size
    worst = -math.inf
    for lo in range(0, num_random, step):
        g, log_g = buffers[:, :min(step, num_random - lo) * sub.size].reshape(2, -1, sub.size)
        rng.standard_exponential(out=g)
        # g . ln p and S from one product; ln g in place, finite where g is 0
        dot, total = (g @ weights).T
        np.maximum(g, 1e-300, out=log_g)
        np.log(log_g, out=log_g)
        probes = (dot - (1.0 + theta) * (np.einsum("ij,ij->i", g, log_g)
                                         - total * np.log(total))) / total
        if zero.size:
            # a probe with mass where p has none has divergence +inf
            probes[np.any(g[:, zero] > 0.0, axis=1)] = -math.inf
        worst = np.maximum(worst, probes.max())  # keeps a nan
    return float(worst - lhs)


@dataclass(frozen=True, eq=False)
class ExponentCurve:
    """Sampled exponent curve with its regime thresholds H_P = P'(0) and H' = P'(rho).

    ``e_max`` = P(rho), rho times the order-1/(1+rho) entropy rate, is the
    perfect-secrecy exponent: the plateau once the key rate no longer
    binds.  ``branch`` labels each sample linear / interior / saturated by
    comparing R against the thresholds.  ``lower`` holds each value's
    twisted-chain witness for a Markov or unifilar curve, None for iid.
    """

    rho: float
    rates: np.ndarray
    values: np.ndarray
    h_source: float
    h_saturation: float
    e_max: float
    lower: np.ndarray | None = None

    @property
    def branches(self) -> list:
        out = []
        for r in self.rates.tolist():
            if r <= self.h_source + 1e-12:
                out.append("linear")
            elif r >= self.h_saturation - 1e-12:
                out.append("saturated")
            else:
                out.append("interior")
        return out


def build_curve(model: SourceModel, rhos, rates) -> tuple:
    """One :class:`ExponentCurve` per rho of ``rhos`` over the rate grid ``rates``.

    One power form serves one dual solve over the rho x R cells (for a Markov
    or unifilar source :func:`certified_exponent`, with each value's witness),
    one slope call for H_P and every H' and one pressure call for every E_max.
    """
    rhos, rates = np.ravel(np.asarray(rhos, dtype=float)), np.asarray(rates, dtype=float)
    form = power_form(model)
    lower = [None] * rhos.size
    if isinstance(model, (MarkovSource, UnifilarSource)):
        lower, values, _ = certified_exponent(form, rhos[:, None], rates)
    else:
        values = model_exponent_dual(form, rhos[:, None], rates)
    h_source, *h_sat = pressure_slope(form, np.append(0.0, rhos)).tolist()
    cells = zip(rhos.tolist(), values, h_sat, pressure(form, rhos).tolist(), lower)
    return tuple(ExponentCurve(rho, rates, row, h_source, h_prime, e_max, witness)
                 for rho, row, h_prime, e_max, witness in cells)
