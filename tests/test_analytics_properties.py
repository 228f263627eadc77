"""Property-based differential tests of the latency kernels."""

import itertools
import math
import operator
from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from test_analytics import exact_chain_cut_mass  # noqa: E402
from tvgraph.analytics import (  # noqa: E402
    er_cut_latency_pmf,
    er_soa_latency_pmf,
    mc_cut_latency_pmf,
    mc_soa_latency_pmf,
)
from tvgraph.models import MarkovParams  # noqa: E402

nodes = st.integers(min_value=2, max_value=40)
rates = st.floats(min_value=0.0, max_value=1.0, exclude_min=True)
horizons = st.integers(min_value=0, max_value=200)


def exact_chain_cut_masses(n, p, q, max_latency):
    """exact_chain_cut_mass(n, p, q, t) for t in 0..max_latency, each as an
    unreduced integer ratio (num, den), with every big-integer power computed
    once per call instead of once per mass.

    With a = qn rd, b = qd rn and top = min(n - 1, t), the integer sum is
    rn^(t - top) * sum_m C(n-1, m) C(t-1, m-1) a^m b^(top - m) over the
    denominator qd^top rd^t; for t >= n - 1 the a^m b^(top - m) are fixed.
    Reducing the ratios (the gcd Fraction takes) costs more than the rest on
    tiny rates, and num / den is correctly rounded without it.
    """
    p, q = Fraction(p), Fraction(q)
    r = 1 - p
    lead = (p / (p + q)) ** (n - 1)

    def powers(base, k):
        return list(itertools.accumulate([base] * k, operator.mul, initial=1))

    a, b = powers(q.numerator * r.denominator, n - 1), powers(q.denominator * r.numerator, n - 1)
    qd, rn, rd = (powers(x, max_latency) for x in (q.denominator, r.numerator, r.denominator))
    fixed = [a[m] * b[n - 1 - m] for m in range(n)]
    masses = [(lead.numerator, lead.denominator)]
    for t in range(1, max_latency + 1):
        top = min(n - 1, t)
        ab = fixed if top == n - 1 else [a[m] * b[top - m] for m in range(top + 1)]
        total = sum(math.comb(n - 1, m) * math.comb(t - 1, m - 1) * ab[m] for m in range(1, top + 1))
        masses.append((rn[t - top] * total * lead.numerator, qd[top] * rd[t] * lead.denominator))
    return masses


@pytest.mark.parametrize("n, p, q, max_latency", [
    (2, 0.5, 0.5, 6), (5, 0.3, 0.2, 12), (9, 0.1234, 0.987, 4), (13, 1.0, 1e-3, 20),
    (7, 3e-300, 0.6, 9), (4, 0.25, 5e-324, 8),
])
def test_power_tables_give_the_same_exact_masses(n, p, q, max_latency):
    want = [exact_chain_cut_mass(n, p, q, t) for t in range(max_latency + 1)]
    got = exact_chain_cut_masses(n, p, q, max_latency)
    assert [Fraction(num, den) for num, den in got] == want
    assert [num / den for num, den in got] == [float(x) for x in want]


@settings(deadline=None, max_examples=60)
@given(nodes, rates, rates, horizons)
def test_chain_masses_match_exact_rationals(n, p, q, max_latency):
    pmf = mc_cut_latency_pmf(n, MarkovParams(p, q), max_latency)
    assert len(pmf.masses) == max_latency + 1
    for mass, (num, den) in zip(pmf.masses, exact_chain_cut_masses(n, p, q, max_latency)):
        want = num / den  # correctly rounded, as float(Fraction(num, den)) is
        if want > 1e-280:
            assert mass == pytest.approx(want, rel=1e-10)
        else:
            assert mass <= 2e-280


@settings(deadline=None, max_examples=60)
@given(nodes, rates, rates, horizons)
def test_soa_is_cut_shifted_by_the_hop_count(n, p, q, max_latency):
    params = MarkovParams(p, q)
    soa = mc_soa_latency_pmf(n, params, max_latency + n - 1)
    cut = mc_cut_latency_pmf(n, params, max_latency)
    assert soa.offset == n - 1
    assert soa.masses == cut.masses
    assert soa.truncation_mass == cut.truncation_mass


@settings(deadline=None, max_examples=60)
@given(nodes, st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True), horizons)
def test_chain_with_p_plus_q_one_is_independent_churn(n, p, max_latency):
    params = MarkovParams(p, 1.0 - p)
    pairs = [
        (mc_cut_latency_pmf(n, params, max_latency), er_cut_latency_pmf(n, p, max_latency)),
        (mc_soa_latency_pmf(n, params, max_latency + n - 1),
         er_soa_latency_pmf(n, p, max_latency + n - 1)),
    ]
    for chain, er in pairs:
        assert chain.offset == er.offset
        assert len(chain.masses) == len(er.masses)
        assert max(abs(a - b) for a, b in zip(chain.masses, er.masses)) < 1e-12


@settings(deadline=None, max_examples=60)
@given(st.integers(min_value=2, max_value=12), st.floats(min_value=0.05, max_value=1.0),
       st.floats(min_value=0.05, max_value=1.0), st.integers(min_value=0, max_value=400))
def test_auto_support_matches_an_explicit_horizon(n, p, q, max_latency):
    # The automatic support is taken in chunks too; no mass may depend on
    # where a chunk starts or how long it is.
    for auto, explicit in [
        (er_cut_latency_pmf(n, p), er_cut_latency_pmf(n, p, max_latency)),
        (er_soa_latency_pmf(n, p), er_soa_latency_pmf(n, p, max_latency + n - 1)),
        (mc_cut_latency_pmf(n, MarkovParams(p, q)),
         mc_cut_latency_pmf(n, MarkovParams(p, q), max_latency)),
    ]:
        shared = min(len(auto.masses), len(explicit.masses))
        assert auto.offset == explicit.offset
        assert auto.masses[:shared] == explicit.masses[:shared]
