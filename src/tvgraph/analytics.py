"""Exact latency and location distributions on dynamic random lines.

Everything here is closed-form or a numerically evaluated recurrence for
a message crossing an n-node line whose edges churn per slot.  Two
forwarding disciplines are covered: store-or-advance (one hop consumes
one slot; a successful hop consumes the slot in which its edge is seen
up) and cut-through (the whole currently-connected stretch is crossed
for free; only waiting costs slots).

Latency PMFs are truncated at an explicit horizon and carry the leftover
tail as `truncation_mass`; with no horizon given, the support is extended
until the tail drops below 1e-13, and a tail that cannot get there within
MAX_SUPPORT masses raises ValueError (give `max_latency` instead).  The
convention 0**0 = 1 is used throughout so the p=1 and q=1 boundaries are
well defined.

Two kernels feed one support rule, which takes masses in chunks and
carries their running sum in twice double precision.  The two-state-chain
PMFs (`mc_*`), soa being cut shifted by n-1, evaluate each chunk as numpy
arrays of log terms in Loader's saddle-point form, so nothing under- or
overflows at any n, and masses agree with exact rational arithmetic to
about 1e-13 relative.  The independent-churn PMFs and reach CDFs multiply
out one negative-binomial recurrence; where its first mass p^(n-1)
underflows, an automatic support raises.

The reach CDFs of the stacked, coarsened and smashed views rest on one
block law.  Coarsen the slots into blocks of m.  Edges are independent,
so the edge the message meets is in its stationary law at the start of
that block: OFF with probability off, which is 1 - p under independent
churn and q/(p+q) for a stationary chain.  The block holds the edge with
probability on_b = 1 - off (1-p)^(m-1).  An edge absent for a whole block
ends it OFF, so every later block holds it with probability
p_b = 1 - (1-p)^m (p itself at m = 1).  The coarsened curve is the
cut-through CDF at that law: the chain mixture at (on_b, p_b), which under
independent churn, where on_b = p_b, is the negative-binomial recurrence.
m = 1 gives the stacked curve, and one block of t slots the smashed view
of t slots.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .models import ErParams, MarkovParams, stationary_distribution

__all__ = [
    "LatencyPmf",
    "LocationPmf",
    "pmf_moments",
    "er_soa_location_pmf",
    "er_soa_latency_pmf",
    "er_cut_latency_pmf",
    "er_soa_latency_masses_exact",
    "er_cut_latency_masses_exact",
    "mc_cut_latency_pmf",
    "mc_soa_latency_pmf",
    "reach_curve",
    "smashed_curve",
    "stacked_reach_cdf",
    "smashed_reach_cdf",
    "m_smashed_reach_cdf",
    "mc_smashed_reach_cdf",
]

TAIL_TARGET = 1e-13
MAX_SUPPORT = 2_000_000
NORMALIZATION_TOL = 1e-9
_TOO_LONG = (
    f"the latency tail does not fall below {TAIL_TARGET:g} within {MAX_SUPPORT:,} masses;"
    " pass max_latency to truncate the support"
)
# A chunk holds at most 128 masses; a chain-mixture chunk also at most 2**17 terms (1 MB).
_CHUNK_ROWS = 128
_CHUNK_TERMS = 2 ** 17


@dataclass(frozen=True)
class LatencyPmf:
    """Distribution of a slot-count latency: masses for offset, offset+1, ..."""

    offset: int
    masses: tuple
    truncation_mass: float

    def __post_init__(self):
        if self.offset < 0:
            raise ValueError("latency support cannot be negative")
        for m in self.masses:
            if not -1e-12 <= m <= 1.0 + 1e-12:
                raise ValueError(f"mass {m} outside [0, 1]")
        total = math.fsum(self.masses) + self.truncation_mass
        if abs(total - 1.0) > NORMALIZATION_TOL:
            raise ValueError(f"masses plus truncation sum to {total}, not 1")

    def support(self):
        return range(self.offset, self.offset + len(self.masses))

    def mass(self, latency):
        i = latency - self.offset
        if 0 <= i < len(self.masses):
            return self.masses[i]
        return 0.0

    def mean(self):
        return pmf_moments(self)[0]

    def variance(self):
        return pmf_moments(self)[1]


@dataclass(frozen=True)
class LocationPmf:
    """Distribution of the message position (1..n along the path) at one slot."""

    time: int
    masses: tuple

    def __post_init__(self):
        total = math.fsum(self.masses)
        if abs(total - 1.0) > NORMALIZATION_TOL:
            raise ValueError(f"position masses sum to {total}, not 1")

    def mass(self, position):
        if not 1 <= position <= len(self.masses):
            raise ValueError(f"position {position} outside 1..{len(self.masses)}")
        return self.masses[position - 1]

    def mean_position(self):
        return math.fsum((i + 1) * m for i, m in enumerate(self.masses))


def pmf_moments(pmf):
    """(mean, variance, truncation_mass), moments normalized over the support."""
    total = math.fsum(pmf.masses)
    if total <= 0.0:
        raise ValueError("cannot take moments of an all-zero pmf")
    mean = math.fsum((pmf.offset + i) * m for i, m in enumerate(pmf.masses)) / total
    var = math.fsum((pmf.offset + i - mean) ** 2 * m for i, m in enumerate(pmf.masses)) / total
    return mean, var, pmf.truncation_mass


def _validate_line(n, p, allow_p_zero=False):
    if n < 2:
        raise ValueError("need at least two nodes")
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must lie in [0, 1]")
    if p == 0.0 and not allow_p_zero:
        raise ValueError("p = 0 never delivers")


def _support(first, chunk, count, moments, rows=_CHUNK_ROWS):
    """(masses, truncation_mass) of a latency PMF, taken a chunk at a time.

    `first` is the first mass; chunk(start, size, last) returns the `size`
    masses from index `start` on as an array, `last` being the mass before.
    With an explicit `count` that many masses are taken.  With count None,
    the support ends at the first mass whose running sum leaves a tail below
    TAIL_TARGET, and a tail that cannot get there within MAX_SUPPORT masses
    raises.  moments() gives the closed-form (mean, sd) for a check up
    front, and is called only then: an explicit count may come with p = 0
    (a smashed block of tiny p).  By Cantelli's inequality P(T > mean -
    k sd) >= k^2 / (1 + k^2), about 1e-6 at k = 1e-3, so the cap is out of
    reach once mean >= MAX_SUPPORT + sd / 1000.
    """
    auto = count is None
    if auto:
        mean, sd = moments()
        if mean >= MAX_SUPPORT + 1e-3 * sd:
            raise ValueError(_TOO_LONG)
        count = MAX_SUPPORT
    # The running sum is cum + cum_err, carried to twice double precision: a
    # plain running sum drifts by up to 1e-16 per mass, which on a long
    # support is more than TAIL_TARGET.
    masses, cum, cum_err, done = [], 0.0, 0.0, False
    while not done and len(masses) < count:
        start = len(masses)
        block = chunk(start, min(rows, count - start), masses[-1]) if masses else np.array([first])
        if auto:
            hit = np.flatnonzero(1.0 - (cum + (cum_err + np.cumsum(block))) < TAIL_TARGET)
            if hit.size:
                block, done = block[: hit[0] + 1], True
        block = block.tolist()
        masses.extend(block)
        total = math.fsum((cum, cum_err, *block))
        cum, cum_err = total, math.fsum((cum, cum_err, *block, -total))
    if auto and not done:
        raise ValueError(_TOO_LONG)
    return tuple(masses), max(0.0, 1.0 - cum - cum_err)


def _negbin_masses(hops, p, q, count):
    """C(hops-1+j, j) q^j p^hops for j = 0.. (count terms, or auto), and the tail.

    q is 1 - p, passed in so that a caller holding q keeps its rounding.  Mass
    j is mass j-1 times q (hops+j-1) / j, multiplied out in order.
    """
    first = p ** hops
    if count is None and first == 0.0:
        raise ValueError(f"the first latency mass p ** {hops} underflows to 0.0 at p = {p!r}")

    def chunk(start, size, last):
        js = np.arange(start, start + size)
        return np.cumprod(np.concatenate(([last], q * (hops + js - 1) / js)))[1:]

    return _support(first, chunk, count, lambda: (hops * q / p, math.sqrt(hops * q) / p))


def _negbin_pmf(n, p, offset, max_latency):
    """Latency offset + T, with T the cut-through latency of the
    independent-churn line: the failures before its n-1 edges each come up."""
    _validate_line(n, p)
    count = None if max_latency is None else max(0, max_latency - offset + 1)
    return LatencyPmf(offset, *_negbin_masses(n - 1, p, 1.0 - p, count))


def er_soa_latency_pmf(n, p, max_latency=None):
    """Latency of store-or-advance on an n-node independent-churn line.

    P(T = n-1+j) = C(n+j-2, j) (1-p)^j p^(n-1); the full-distribution mean
    is (n-1)/p.  Support starts at n-1 hops.
    """
    return _negbin_pmf(n, p, n - 1, max_latency)


def er_cut_latency_pmf(n, p, max_latency=None):
    """Waiting-slot latency of cut-through on the independent-churn line.

    P(T = k) = C(n+k-2, k) (1-p)^k p^(n-1); mean (n-1)(1-p)/p and variance
    (n-1)(1-p)/p^2.
    """
    return _negbin_pmf(n, p, 0, max_latency)


def er_soa_latency_masses_exact(n, p, max_latency):
    """Exact rational store-or-advance masses for latencies n-1..max_latency."""
    return _negbin_masses_exact(n - 1, Fraction(p), max_latency - (n - 1) + 1)


def er_cut_latency_masses_exact(n, p, max_latency):
    """Exact rational cut-through masses for latencies 0..max_latency."""
    return _negbin_masses_exact(n - 1, Fraction(p), max_latency + 1)


def _negbin_masses_exact(hops, p, count):
    masses = []
    a = p ** hops
    for j in range(max(0, count)):
        masses.append(a)
        a *= (1 - p) * Fraction(hops + j, j + 1)
    return masses


def er_soa_location_pmf(n, p, t):
    """Position distribution after t slots of store-or-advance on the line.

    Evaluates the one-step recurrence P(pos=k at t) = P(k-1) p + P(k)(1-p)
    from P(pos=1 at 0) = 1, with the destination absorbing, one array step
    per slot.
    """
    _validate_line(n, p, allow_p_zero=True)
    if t < 0:
        raise ValueError("t must be >= 0")
    cur = np.zeros(n)
    cur[0] = 1.0
    for _ in range(t):
        moved = cur[:-1] * p
        cur[:-1] *= 1.0 - p
        cur[1:] += moved
    return LocationPmf(t, tuple(cur.tolist()))


# --- two-state chain latencies (stationary start) ----------------------------


def _validate_markov(n, params):
    if n < 2:
        raise ValueError("need at least two nodes")
    if params.p <= 0.0 or params.q <= 0.0:
        raise ValueError("the chain latency formulas need p > 0 and q > 0")
    if not params.is_stationary_start():
        raise ValueError("these closed forms assume the stationary start p0 = p/(p+q)")


# Stirling's error log(n!) - log(sqrt(2 pi n) (n/e)^n) at n = 0..15; from
# n = 16 on, five terms of its asymptotic series are exact to double precision.
_STIRLERR = np.array([
    0.0, 0.08106146679532725822, 0.04134069595540929409, 0.02767792568499833915,
    0.02079067210376509311, 0.01664469118982119216, 0.01387612882307074800,
    0.01189670994589177010, 0.01041126526197209650, 0.009255462182712732918,
    0.008330563433362871256, 0.007573675487951840795, 0.006942840107209529866,
    0.006408994188004207068, 0.005951370112758847736, 0.005554733551962801371,
])


def _stirlerr(n):
    """Stirling's error at whole numbers n >= 0, held in any dtype."""
    big = np.maximum(n, 16.0)
    nn = big * big
    series = (1 / 12 - (1 / 360 - (1 / 1260 - (1 / 1680 - 1 / 1188 / nn) / nn) / nn) / nn) / big
    return np.where(n < 16, _STIRLERR[np.minimum(n, 15).astype(int)], series)


def _bd0(x, mu):
    """The deviance x log(x/mu) + mu - x, for x, mu > 0.

    Written with log1p(d/mu), d = x - mu, it is small and exact to about
    1e-16 |d| where x is near mu, which is where the mass lies.
    """
    d = x - mu
    # d / mu overflows only where mu < x * 1e-308: the deviance is then
    # infinite and its term exp(-inf) = 0, as it should be.
    with np.errstate(over="ignore"):
        return x * np.log1p(d / mu) - d


def _log_dbinom(x, n, p, q):
    """log P(Binomial(n, p) = x) at whole numbers 0 < x < n, with q = 1 - p.

    Loader's saddle-point form ("Fast and accurate computation of binomial
    probabilities", 2000): Stirling's errors and deviances, so no large
    logarithms cancel, as they do in differences of lgamma.
    """
    return (_stirlerr(n) - _stirlerr(x) - _stirlerr(n - x) - _bd0(x, n * p) - _bd0(n - x, n * q)
            - 0.5 * np.log(2.0 * math.pi * x * (n - x) / n))


def _chain_mixture(n, on, off, p, offset, max_latency):
    """Latency offset + T, with T the cut-through latency of a line whose
    edges are each up when first watched with probability `on` (off = 1 - on,
    passed in so that neither loses digits) and, once seen down, come up in
    each later slot with probability p.

    T = 0 with probability on^(n-1).  Otherwise m ~ Binomial(n-1, off)
    edges are found OFF and each waits a Geometric(p) >= 1 number of slots,
    so P(T = ell) sums, over m = 1..min(n-1, ell), the binomial weight of m
    times the negative-binomial mass (m/ell) P(Binomial(ell, p) = m).

    Latencies are taken in chunks of at most _CHUNK_ROWS.  A chunk is one
    [latency, m] array of log terms in Loader's form, exponentiated where
    m < ell and summed along m; the m = ell terms, the weight times p^m, are
    added after.  Masses come out within about 1e-13 relative of exact
    arithmetic, and no power or binomial coefficient under- or overflows.
    """
    hops = n - 1
    count = None if max_latency is None else max(0, max_latency - offset + 1)

    # Column j holds m = hops - j, so that a sliding window over a vector
    # indexed by the wait k = ell - m lines up with each latency's row.
    ms = np.arange(hops, 0, -1, dtype=float)
    log_weight = np.empty(hops)
    log_weight[0] = hops * math.log(off)
    log_weight[1:] = _log_dbinom(ms[1:], hops, off, on)
    # The per-m part of log(weight * (m/ell) P(Binomial(ell, p) = m)).
    per_m = log_weight + 0.5 * np.log(ms) - _stirlerr(ms) - 0.5 * math.log(2.0 * math.pi)

    def chunk(start, size, last):
        ells = np.arange(start, start + size)
        block = np.zeros(size)
        if p < 1.0:  # at p = 1 every blocked edge waits one slot, so m = ell
            ks = np.maximum(np.arange(start - hops, ells[-1], dtype=float), 1.0)
            ell_col = ells[:, None]
            terms = sliding_window_view(-_stirlerr(ks) - 0.5 * np.log(ks), hops) + per_m
            terms += (_stirlerr(ells) - 0.5 * np.log(ells))[:, None]
            terms -= _bd0(ms, ell_col * p)
            terms -= _bd0(sliding_window_view(ks, hops), ell_col * (1.0 - p))
            block = np.exp(terms, out=np.zeros_like(terms), where=ms < ell_col).sum(axis=1)
        blocked = ells[ells <= hops]
        block[: len(blocked)] += np.exp(log_weight[hops - blocked]) * p ** blocked
        return block

    rows = max(1, min(_CHUNK_ROWS, _CHUNK_TERMS // hops))
    support = _support(on ** hops, chunk, count,
                       lambda: (hops * off / p, math.sqrt(hops * off * (2.0 - p - off)) / p), rows)
    return LatencyPmf(offset, *support)


def mc_cut_latency_pmf(n, params, max_latency=None):
    """Cut-through latency on a line of independent two-state edge chains.

    The zero-wait atom is pi_on^(n-1) (every edge up in slot 1); a latency
    of ell >= 1 splits into m blocked edges and ell total waiting slots:

        P(T = ell) = sum_m C(n-1, m) C(ell-1, m-1) p^(n-1) q^m (1-p)^(ell-m)
                     / (p+q)^(n-1)

    Mean (n-1) q / (p (p+q)).
    """
    _validate_markov(n, params)
    return _chain_mixture(n, *stationary_distribution(params), params.p, 0, max_latency)


def mc_soa_latency_pmf(n, params, max_latency=None):
    """Store-or-advance latency on a line of two-state edge chains.

    The minimum n-1 slots are hit exactly when every hop finds its edge up
    on arrival, probability pi_on^(n-1) under a stationary start; j >= 1
    extra waiting slots split over m blocked hops:

        P(T = n-1+j) = sum_m C(n-1, m) C(j-1, m-1) p^(n-1) q^m (1-p)^(j-m)
                       / (p+q)^(n-1)

    Mean n-1 + (n-1) q / (p (p+q)).
    """
    _validate_markov(n, params)
    return _chain_mixture(n, *stationary_distribution(params), params.p, n - 1, max_latency)


# --- reachability CDFs of the stacked / coarsened / smashed views -------------


def _block_off(params, m):
    """Chance that an edge is absent throughout the first block of m >= 1
    slots in which it is watched."""
    if isinstance(params, MarkovParams):
        return stationary_distribution(params)[1] * (1.0 - params.p) ** (m - 1)
    return (1.0 - params.p) ** m


def _one_block(n, params, m):
    """Reach CDF after one block of m slots: every edge present in it."""
    return (1.0 - _block_off(params, m)) ** (n - 1)


def _validate_reach(n, params, allow_p_zero=False):
    _validate_line(n, params.p, allow_p_zero)
    if isinstance(params, MarkovParams) and not params.is_stationary_start():
        raise ValueError("the reach CDFs assume the stationary start p0 = p/(p+q)")


def reach_curve(n, params, m, blocks):
    """Reach CDFs after 0..blocks blocks of m slots, each block smashed into one.

    The running sum of the cut-through masses at the block law (see the
    module docstring): negative-binomial masses under independent churn,
    where every block is alike (at m = 1, those of er_cut_latency_pmf), and
    the chain mixture for a stationary chain (at m = 1, those of
    mc_cut_latency_pmf).
    """
    _validate_reach(n, params)
    off = _block_off(params, m)
    if off == 0.0:  # every edge holds in the first block
        return [0.0] + [1.0] * blocks
    p = params.p
    if isinstance(params, MarkovParams):
        on, off_1 = stationary_distribution(params)
        if m > 1:  # here p < 1, else off would be 0
            stay = math.log1p(-p)
            on += off_1 * -math.expm1((m - 1) * stay)
            p = -math.expm1(m * stay)
        masses = _chain_mixture(n, on, off, p, 0, blocks - 1).masses
    else:
        masses, _ = _negbin_masses(n - 1, p if m == 1 else 1.0 - off, off, blocks)
    return [0.0, *itertools.accumulate(masses)]


def smashed_curve(n, params, t_max):
    """Reach CDFs of the smashed views of 0..t_max slots: t slots smashed
    into one are one block of t slots."""
    _validate_reach(n, params, allow_p_zero=True)
    return [0.0] + [_one_block(n, params, t) for t in range(1, t_max + 1)]


def stacked_reach_cdf(n, p, t):
    """P(first node reaches last within t slots) on the time-expanded line.

    The cut-through CDF at t-1.
    """
    return m_smashed_reach_cdf(n, p, t, 1)


def smashed_reach_cdf(n, p, t):
    """P(the union of t slots connects the line ends) = (1-(1-p)^t)^(n-1)."""
    _validate_line(n, p, allow_p_zero=True)
    if t < 0:
        raise ValueError("t must be >= 0")
    return _one_block(n, ErParams(p), t)


def m_smashed_reach_cdf(n, p, t, m):
    """Reach CDF after coarsening every m slots into one; floor(t/m) full blocks.

    The coarse sequence is itself an independent-churn line with per-block
    presence 1 - (1-p)^m, so this is the stacked CDF at that presence after
    t // m slots: it interpolates between the stacked curve (m=1, exact
    equality) and the fully smashed one (m=t).
    """
    if not isinstance(m, int) or isinstance(m, bool) or m < 1:
        raise ValueError("block size m must be a positive integer")
    if t < 0:
        raise ValueError("t must be >= 0")
    return reach_curve(n, ErParams(p), m, t // m)[-1]


def mc_smashed_reach_cdf(n, params, t):
    """Smashed-union reach CDF for two-state edge chains with stationary start:
    one block of t slots, (1 - q/(p+q) (1-p)^(t-1))^(n-1)."""
    if t < 1:
        raise ValueError("t must be >= 1")
    _validate_reach(n, params, allow_p_zero=True)  # p + q = 0 is no stationary start
    return _one_block(n, params, t)
