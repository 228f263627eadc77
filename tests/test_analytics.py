import itertools
import math
from fractions import Fraction

import pytest

from tvgraph import analytics
from tvgraph.analytics import (
    LatencyPmf,
    er_cut_latency_masses_exact,
    er_cut_latency_pmf,
    er_soa_latency_masses_exact,
    er_soa_latency_pmf,
    er_soa_location_pmf,
    m_smashed_reach_cdf,
    mc_cut_latency_pmf,
    mc_smashed_reach_cdf,
    mc_soa_latency_pmf,
    pmf_moments,
    smashed_reach_cdf,
    stacked_reach_cdf,
)
from tvgraph.models import MarkovParams


# --- exhaustive edge-history oracle ---------------------------------------------
#
# Enumerate every on/off matrix over (n-1) edges x t_max slots, weight it by its
# exact probability, replay both forwarding disciplines deterministically, and
# accumulate rational PMFs.  Latencies up to t_max depend only on the first
# t_max slots, so those masses are exact.


def replay_history_soa(history, n_edges):
    pos = 0
    for t, row in enumerate(history, start=1):
        if pos < n_edges and row[pos]:
            pos += 1
            if pos == n_edges:
                return t
    return None


def replay_history_cut(history, n_edges):
    pos = 0
    for t, row in enumerate(history, start=1):
        while pos < n_edges and row[pos]:
            pos += 1
        if pos == n_edges:
            return t - 1
    return None


def er_history_prob(history, p):
    prob = Fraction(1)
    for row in history:
        for bit in row:
            prob *= p if bit else 1 - p
    return prob


def markov_history_prob(history, p, q):
    pi_on = p / (p + q)
    prob = Fraction(1)
    n_edges = len(history[0])
    for e in range(n_edges):
        states = [row[e] for row in history]
        prob *= pi_on if states[0] else 1 - pi_on
        for prev, cur in zip(states, states[1:]):
            if prev:
                prob *= (1 - q) if cur else q
            else:
                prob *= p if cur else 1 - p
    return prob


def exhaustive_pmfs(n, t_max, prob_fn):
    """(soa, cut, locations) as exact rationals from full history enumeration."""
    n_edges = n - 1
    soa = {}
    cut = {}
    locations = [[Fraction(0)] * n for _ in range(t_max + 1)]
    locations[0][0] = Fraction(1)
    for bits in itertools.product((False, True), repeat=n_edges * t_max):
        history = [bits[t * n_edges:(t + 1) * n_edges] for t in range(t_max)]
        prob = prob_fn(history)
        lat = replay_history_soa(history, n_edges)
        if lat is not None:
            soa[lat] = soa.get(lat, Fraction(0)) + prob
        lat = replay_history_cut(history, n_edges)
        if lat is not None:
            cut[lat] = cut.get(lat, Fraction(0)) + prob
        pos = 0
        for t, row in enumerate(history, start=1):
            if pos < n_edges and row[pos]:
                pos += 1
            locations[t][pos] += prob
    return soa, cut, locations


@pytest.mark.parametrize("n,t_max,p", [(2, 8, Fraction(1, 2)), (3, 5, Fraction(3, 10)), (4, 4, Fraction(1, 2))])
def test_er_pmfs_match_exhaustive_history_oracle(n, t_max, p):
    soa, cut, locations = exhaustive_pmfs(n, t_max, lambda h: er_history_prob(h, p))

    # a cut-through latency of t_max would deliver in slot t_max+1, outside the
    # enumerated window, so cut assertions stop at t_max-1
    exact_soa = er_soa_latency_masses_exact(n, p, t_max)
    for j, mass in enumerate(exact_soa):
        assert mass == soa.get(n - 1 + j, Fraction(0))
    exact_cut = er_cut_latency_masses_exact(n, p, t_max - 1)
    for k, mass in enumerate(exact_cut):
        assert mass == cut.get(k, Fraction(0))

    float_soa = er_soa_latency_pmf(n, float(p), max_latency=t_max)
    for latency in range(n - 1, t_max + 1):
        assert float_soa.mass(latency) == pytest.approx(float(soa.get(latency, 0)), abs=1e-12)
    float_cut = er_cut_latency_pmf(n, float(p), max_latency=t_max - 1)
    for latency in range(0, t_max):
        assert float_cut.mass(latency) == pytest.approx(float(cut.get(latency, 0)), abs=1e-12)

    for t in range(t_max + 1):
        loc = er_soa_location_pmf(n, float(p), t)
        for k in range(1, n + 1):
            assert loc.mass(k) == pytest.approx(float(locations[t][k - 1]), abs=1e-12)


@pytest.mark.parametrize(
    "n,t_max,p,q",
    [(2, 8, Fraction(1, 2), Fraction(1, 4)), (3, 5, Fraction(1, 2), Fraction(1, 4)), (3, 5, Fraction(7, 10), Fraction(3, 5))],
)
def test_mc_pmfs_match_exhaustive_history_oracle(n, t_max, p, q):
    soa, cut, _ = exhaustive_pmfs(n, t_max, lambda h: markov_history_prob(h, p, q))
    params = MarkovParams(float(p), float(q))
    pmf_cut = mc_cut_latency_pmf(n, params, max_latency=t_max - 1)
    for latency in range(0, t_max):
        assert pmf_cut.mass(latency) == pytest.approx(float(cut.get(latency, 0)), abs=1e-12)
    pmf_soa = mc_soa_latency_pmf(n, params, max_latency=t_max)
    for latency in range(n - 1, t_max + 1):
        assert pmf_soa.mass(latency) == pytest.approx(float(soa.get(latency, 0)), abs=1e-12)


# --- store-or-advance latency ----------------------------------------------------


def test_er_soa_geometric_single_edge():
    pmf = er_soa_latency_pmf(2, 0.5, max_latency=10)
    for j in range(10):
        assert pmf.mass(1 + j) == pytest.approx(0.5 ** (j + 1), abs=1e-15)


def test_er_soa_known_small_masses():
    pmf = er_soa_latency_pmf(3, 0.5, max_latency=4)
    assert pmf.mass(2) == pytest.approx(0.25, abs=1e-15)
    assert pmf.mass(3) == pytest.approx(0.25, abs=1e-15)
    assert pmf.mass(4) == pytest.approx(0.1875, abs=1e-15)


def test_er_soa_support_starts_at_hop_count():
    pmf = er_soa_latency_pmf(10, 0.25)
    assert pmf.offset == 9
    assert pmf.mass(8) == 0.0


def test_er_soa_mean_closed_form():
    for n in (3, 5, 10):
        for p in (0.1, 0.25, 0.5):
            mean, _, trunc = pmf_moments(er_soa_latency_pmf(n, p))
            assert trunc < 1e-9
            assert mean == pytest.approx((n - 1) / p, abs=1e-5)


def test_er_soa_rejects_p_zero():
    with pytest.raises(ValueError):
        er_soa_latency_pmf(5, 0.0)
    with pytest.raises(ValueError):
        er_cut_latency_pmf(5, 0.0)


def test_er_soa_deterministic_at_p_one():
    pmf = er_soa_latency_pmf(4, 1.0)
    assert pmf.mass(3) == 1.0
    assert pmf.truncation_mass == 0.0


# --- cut-through latency ----------------------------------------------------------


def test_er_cut_point_mass_at_p_one():
    pmf = er_cut_latency_pmf(10, 1.0)
    assert pmf.mass(0) == 1.0


def test_er_cut_known_small_masses():
    pmf = er_cut_latency_pmf(3, 0.5, max_latency=2)
    assert pmf.mass(0) == pytest.approx(0.25, abs=1e-15)
    assert pmf.mass(1) == pytest.approx(0.25, abs=1e-15)
    assert pmf.mass(2) == pytest.approx(0.1875, abs=1e-15)


def test_er_cut_moments_closed_form():
    mean, var, trunc = pmf_moments(er_cut_latency_pmf(10, 0.5))
    assert trunc < 1e-9
    assert mean == pytest.approx(9.0, abs=1e-5)
    assert var == pytest.approx(18.0, abs=1e-5)
    for n in (3, 5, 10):
        for p in (0.1, 0.25, 0.5):
            mean, var, _ = pmf_moments(er_cut_latency_pmf(n, p))
            assert mean == pytest.approx((n - 1) * (1 - p) / p, abs=1e-5)
            assert var == pytest.approx((n - 1) * (1 - p) / p ** 2, abs=1e-4)


def test_cut_mean_never_exceeds_soa_mean():
    for n in (2, 4, 8):
        for p in (0.2, 0.5, 0.9):
            cut_mean = pmf_moments(er_cut_latency_pmf(n, p))[0]
            soa_mean = pmf_moments(er_soa_latency_pmf(n, p))[0]
            assert cut_mean <= soa_mean + 1e-9


# --- location distribution ---------------------------------------------------------


def test_location_deterministic_advance():
    for t in range(6):
        loc = er_soa_location_pmf(4, 1.0, t)
        assert loc.mass(min(1 + t, 4)) == 1.0


def test_location_small_case():
    loc = er_soa_location_pmf(4, 0.5, 2)
    assert loc.mass(1) == pytest.approx(0.25)
    assert loc.mass(2) == pytest.approx(0.5)
    assert loc.mass(3) == pytest.approx(0.25)
    assert loc.mass(4) == 0.0


def test_location_mass_needs_time_to_travel():
    for t in range(5):
        loc = er_soa_location_pmf(8, 0.7, t)
        for k in range(t + 2, 9):
            assert loc.mass(k) == 0.0


def test_location_matches_binomial_hitting_oracle():
    # independent closed form: position = 1 + Binomial(t, p) with absorption,
    # absorbed iff at least n-1 successes among the first t slots
    n, p, t = 10, 0.25, 20
    loc = er_soa_location_pmf(n, p, t)

    def binom(k):
        return math.comb(t, k) * p ** k * (1 - p) ** (t - k)

    for k in range(1, n):
        assert loc.mass(k) == pytest.approx(binom(k - 1), abs=1e-12)
    absorbed = sum(binom(k) for k in range(n - 1, t + 1))
    assert loc.mass(n) == pytest.approx(absorbed, abs=1e-12)
    oracle_mean = sum(k * binom(k - 1) for k in range(1, n)) + n * absorbed
    assert loc.mean_position() == pytest.approx(oracle_mean, abs=1e-10)


# --- two-state chain latencies -------------------------------------------------------


def test_mc_reduces_to_er_when_p_plus_q_is_one():
    for n in range(2, 13):
        for p in (0.1, 0.25, 0.5, 0.75, 0.9):
            params = MarkovParams(p, 1 - p)
            mc = mc_cut_latency_pmf(n, params, max_latency=199)
            er = er_cut_latency_pmf(n, p, max_latency=199)
            assert max(abs(a - b) for a, b in zip(mc.masses, er.masses)) < 1e-12
            mc = mc_soa_latency_pmf(n, params, max_latency=n - 1 + 199)
            er = er_soa_latency_pmf(n, p, max_latency=n - 1 + 199)
            assert max(abs(a - b) for a, b in zip(mc.masses, er.masses)) < 1e-12


def test_mc_zero_wait_atoms():
    params = MarkovParams(0.5, 0.25)
    pi_on = 0.5 / 0.75
    assert mc_cut_latency_pmf(4, params, 10).mass(0) == pytest.approx(pi_on ** 3, abs=1e-15)
    soa = mc_soa_latency_pmf(4, params, 13)
    assert soa.offset == 3
    assert soa.mass(3) == pytest.approx(pi_on ** 3, abs=1e-15)


def test_mc_latency_means_closed_forms():
    for n in (3, 6):
        for p, q in ((0.5, 0.25), (0.3, 0.6)):
            params = MarkovParams(p, q)
            mean_cut = pmf_moments(mc_cut_latency_pmf(n, params))[0]
            assert mean_cut == pytest.approx((n - 1) * q / (p * (p + q)), abs=1e-6)
            mean_soa = pmf_moments(mc_soa_latency_pmf(n, params))[0]
            assert mean_soa == pytest.approx(n - 1 + (n - 1) * q / (p * (p + q)), abs=1e-6)


def test_mc_alternation_limit():
    params = MarkovParams(0.999, 0.999)
    mean_cut = pmf_moments(mc_cut_latency_pmf(10, params))[0]
    assert abs(mean_cut - 4.5) / 4.5 < 0.01
    mean_soa = pmf_moments(mc_soa_latency_pmf(10, params))[0]
    assert abs(mean_soa - 13.5) / 13.5 < 0.01


def test_mc_validation():
    with pytest.raises(ValueError):
        mc_cut_latency_pmf(4, MarkovParams(0.0, 0.5, p0=0.0))
    with pytest.raises(ValueError):
        mc_cut_latency_pmf(4, MarkovParams(0.5, 0.0, p0=1.0))
    with pytest.raises(ValueError):
        mc_soa_latency_pmf(4, MarkovParams(0.5, 0.25, p0=0.1))  # transient start


def exact_chain_cut_mass(n, p, q, latency):
    """The mc_cut_latency_pmf formula in exact rationals of the float inputs."""
    p, q = Fraction(p), Fraction(q)
    if latency == 0:
        return (p / (p + q)) ** (n - 1)
    # Over the common denominator of q^m (1-p)^(latency-m) the sum is an integer.
    r = 1 - p
    top = min(n - 1, latency)
    total = sum(
        math.comb(n - 1, m) * math.comb(latency - 1, m - 1)
        * q.numerator ** m * q.denominator ** (top - m)
        * r.numerator ** (latency - m) * r.denominator ** m
        for m in range(1, top + 1)
    )
    scale = q.denominator ** top * r.denominator ** latency
    return Fraction(total, scale) * (p / (p + q)) ** (n - 1)


def test_mc_pmfs_on_a_400_node_line():
    n, p, q = 400, 0.3, 0.2
    params = MarkovParams(p, q)
    cut, soa = mc_cut_latency_pmf(n, params), mc_soa_latency_pmf(n, params)
    assert (cut.offset, soa.offset) == (0, n - 1)
    mean_cut = (n - 1) * q / (p * (p + q))
    for pmf in (cut, soa):
        assert math.fsum(pmf.masses) + pmf.truncation_mass == pytest.approx(1.0, abs=1e-12)
        assert pmf.truncation_mass < 1e-13
        assert pmf.mean() == pytest.approx(pmf.offset + mean_cut, rel=1e-9)
    for latency in (0, 1, 150, 532, 700):
        want = float(exact_chain_cut_mass(n, p, q, latency))
        assert cut.mass(latency) == pytest.approx(want, rel=1e-10)
        assert soa.mass(n - 1 + latency) == pytest.approx(want, rel=1e-10)


@pytest.mark.parametrize("call", [
    lambda: er_soa_latency_pmf(3, 1e-9),
    lambda: er_cut_latency_pmf(3, 1e-9),
    lambda: mc_cut_latency_pmf(3, MarkovParams(1e-9, 0.5)),
    lambda: mc_soa_latency_pmf(3, MarkovParams(1e-9, 1e-9)),
])
def test_auto_support_refuses_an_unreachable_tail(call):
    with pytest.raises(ValueError, match="max_latency"):
        call()


def test_auto_support_refuses_at_the_cap(monkeypatch):
    # Means of about 1000 slots pass the closed-form check against a cap of
    # 1000 masses, but their tails need about 30,000.
    monkeypatch.setattr(analytics, "MAX_SUPPORT", 1000)
    with pytest.raises(ValueError, match="max_latency"):
        er_cut_latency_pmf(2, 1e-3)
    with pytest.raises(ValueError, match="max_latency"):
        mc_cut_latency_pmf(2, MarkovParams(1e-3, 0.5))
    assert len(er_cut_latency_pmf(2, 1e-3, max_latency=5000).masses) == 5001


def test_auto_support_keeps_a_tail_reached_within_the_cap():
    # The running sum drifts by more than 1e-13 over these masses, although
    # their exact sum reaches the tail long before the cap.
    pmf = er_cut_latency_pmf(40, 1e-3)
    assert len(pmf.masses) == analytics.MAX_SUPPORT
    assert 1.0 - math.fsum(pmf.masses) < 1e-13


def test_tiny_p_still_truncates_at_an_explicit_horizon():
    pmf = er_soa_latency_pmf(3, 1e-9, max_latency=10)
    assert len(pmf.masses) == 9 and pmf.truncation_mass == pytest.approx(1.0)
    pmf = mc_cut_latency_pmf(3, MarkovParams(1e-9, 0.5), max_latency=10)
    assert len(pmf.masses) == 11 and pmf.truncation_mass == pytest.approx(1.0)


# --- reachability CDFs ----------------------------------------------------------------


def test_stacked_cdf_basics():
    assert stacked_reach_cdf(3, 0.5, 0) == 0.0
    assert stacked_reach_cdf(3, 0.5, 2) == pytest.approx(0.5, abs=1e-15)
    assert stacked_reach_cdf(5, 0.3, 400) == pytest.approx(1.0, abs=1e-12)
    assert stacked_reach_cdf(4, 1.0, 1) == 1.0


def test_stacked_cdf_is_cut_pmf_partial_sum():
    n, p = 6, 0.35
    pmf = er_cut_latency_pmf(n, p, max_latency=49)
    cum = 0.0
    for t in range(1, 50):
        cum += pmf.mass(t - 1)
        assert stacked_reach_cdf(n, p, t) == pytest.approx(cum, abs=1e-12)


def _reach_by_recurrence(n, p, t, m=1):
    """The coarsened reach CDF summed straight from its block recurrence."""
    q_block = (1.0 - p) ** m
    cum, a = 0.0, (p if m == 1 else 1.0 - q_block) ** (n - 1)
    for tau in range(t // m):
        cum += a
        a *= q_block * (n - 1 + tau) / (tau + 1)
    return cum


def test_reach_cdfs_match_their_block_recurrence():
    for n in (2, 3, 10, 40):
        for p in (0.01, 0.1, 0.35, 0.9, 1.0):
            for t in (0, 1, 5, 37, 200):
                assert stacked_reach_cdf(n, p, t) == _reach_by_recurrence(n, p, t)
                for m in (2, 3, 7, 50):
                    assert m_smashed_reach_cdf(n, p, t, m) == _reach_by_recurrence(n, p, t, m)


def test_smashed_cdf_closed_form():
    assert smashed_reach_cdf(5, 0.3, 0) == 0.0
    assert smashed_reach_cdf(5, 1.0, 1) == 1.0
    assert smashed_reach_cdf(3, 0.5, 2) == pytest.approx((1 - 0.25) ** 2, abs=1e-15)


def test_smashed_dominates_stacked():
    for t in range(1, 101):
        assert smashed_reach_cdf(10, 0.1, t) >= stacked_reach_cdf(10, 0.1, t) - 1e-12


def test_m_smashed_interpolates():
    n, p = 10, 0.1
    for t in range(1, 101):
        assert m_smashed_reach_cdf(n, p, t, 1) == stacked_reach_cdf(n, p, t)
    for m in (2, 5):
        for t in range(m, 101, m):
            lo = stacked_reach_cdf(n, p, t)
            mid = m_smashed_reach_cdf(n, p, t, m)
            hi = smashed_reach_cdf(n, p, t)
            assert lo <= mid + 1e-12
            assert mid <= hi + 1e-12
    assert m_smashed_reach_cdf(n, p, 20, 20) == pytest.approx(
        smashed_reach_cdf(n, p, 20), abs=1e-15
    )


def test_m_smashed_rejects_bad_m():
    with pytest.raises(ValueError):
        m_smashed_reach_cdf(5, 0.3, 10, 0)
    with pytest.raises(ValueError):
        m_smashed_reach_cdf(5, 0.3, 10, -2)


def test_mc_smashed_cdf():
    params = MarkovParams(0.5, 0.05)
    pi_on = 10 / 11
    assert mc_smashed_reach_cdf(6, params, 1) == pytest.approx(pi_on ** 5, abs=1e-12)
    # independence limit collapses to the union closed form
    params = MarkovParams(0.3, 0.7)
    for t in (1, 3, 10):
        assert mc_smashed_reach_cdf(4, params, t) == pytest.approx(
            smashed_reach_cdf(4, 0.3, t), abs=1e-14
        )
    with pytest.raises(ValueError):
        mc_smashed_reach_cdf(4, MarkovParams(0.5, 0.25, p0=0.2), 3)


# --- pmf container & moments -----------------------------------------------------------


def test_pmf_normalization_guard():
    with pytest.raises(ValueError):
        LatencyPmf(0, (0.5, 0.1), 0.0)
    with pytest.raises(ValueError):
        LatencyPmf(-1, (1.0,), 0.0)


def test_pmf_moments_point_mass():
    pmf = LatencyPmf(7, (1.0,), 0.0)
    mean, var, trunc = pmf_moments(pmf)
    assert (mean, var, trunc) == (7.0, 0.0, 0.0)


def test_pmf_auto_horizon_reports_truncation():
    pmf = er_cut_latency_pmf(10, 0.5)
    assert pmf.truncation_mass < 1e-9
    clipped = er_cut_latency_pmf(10, 0.5, max_latency=3)
    assert clipped.truncation_mass > 0.1
    assert math.fsum(clipped.masses) + clipped.truncation_mass == pytest.approx(1.0, abs=1e-12)


def test_exact_masses_agree_with_float_path():
    for n, p in ((3, Fraction(1, 4)), (5, Fraction(1, 2))):
        exact = er_cut_latency_masses_exact(n, p, 30)
        pmf = er_cut_latency_pmf(n, float(p), max_latency=30)
        for k, mass in enumerate(exact):
            assert pmf.mass(k) == pytest.approx(float(mass), abs=1e-15)
