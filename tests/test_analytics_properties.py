"""Property-based differential tests of the two-state-chain latency kernel."""

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


@settings(deadline=None, max_examples=60)
@given(nodes, rates, rates, horizons)
def test_chain_masses_match_exact_rationals(n, p, q, max_latency):
    pmf = mc_cut_latency_pmf(n, MarkovParams(p, q), max_latency)
    assert len(pmf.masses) == max_latency + 1
    for latency, mass in enumerate(pmf.masses):
        want = float(exact_chain_cut_mass(n, p, q, latency))
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
