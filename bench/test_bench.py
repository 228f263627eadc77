"""The benchmark's own tests.

    python3 -m pytest bench -q
"""

from __future__ import annotations

import itertools
import math
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import oracle  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

tvgraph = run.load_tvgraph()


def _pass(name, seed, workdir, tracer=None):
    work = workloads.Workload(tvgraph, name, workdir, seed, tiny=True)
    tally = {"attempted": 0, "failed": 0, "problems": []}
    seconds = run.run_pass(work.ops, tally, tracer)
    return work, tally, seconds


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_tiny_pass_passes_every_check(tmp_path, name, seed):
    work, tally, _ = _pass(name, seed, tmp_path)
    assert tally["attempted"] == len(work.ops)
    assert tally["problems"] == []


@pytest.mark.xfail(strict=True, reason="the analytic layer underflows on long lines (ROADMAP item 3)")
def test_long_line_probe(tmp_path):
    """`pmf` on a 400-node line returns 10,001 zero masses with truncation_mass
    1.0, where the true CDF at 10,000 is about 1."""
    out = tmp_path / "probe.csv"
    argv = ["pmf", "--model", "er", "--n", "400", "--p", "0.1", "--metric", "cut",
            "--max-latency", "10000", "--output", str(out)]
    assert tvgraph.cli.main(argv) == 0
    want = math.fsum(oracle.er_cut_mass(400, 0.1, k) for k in range(10_001))
    assert want > 1.0 - 1e-9
    assert abs(math.fsum(oracle.columns(out.read_text())["probability"]) - want) < 1e-9


def _references():
    owners = [tvgraph] + [getattr(tvgraph, layer) for layer in tracing.LAYERS]
    owners += [getattr(getattr(tvgraph, layer), cls)
               for layer, classes in tracing.METHODS.items() for cls in classes]
    return {(id(owner), attr): value for owner in owners for attr, value in vars(owner).items()}


def test_install_then_restore_leaves_tvgraph_identical():
    before = _references()
    tracer = tracing.Tracer(tvgraph)
    tracer.install()
    try:
        soa = before[(id(tvgraph.simulate), "simulate_soa")]
        assert tvgraph.routing.simulate_soa is not soa
        assert tvgraph.routing.simulate_soa.__wrapped__ is soa
        path = before[(id(tvgraph.models), "shortest_path")]
        assert tvgraph.simulate.shortest_path.__wrapped__ is path
        assert hasattr(tvgraph.simulate.EmpiricalPmf.total_variation, "__wrapped__")
        assert hasattr(tvgraph.cli.main, "__wrapped__")
    finally:
        tracer.restore()
    after = _references()
    assert after.keys() == before.keys()
    assert [key for key in before if after[key] is not before[key]] == []


def test_traced_pass_accounts_for_its_time(tmp_path):
    tracer = tracing.Tracer(tvgraph)
    tracer.install()
    try:
        _, tally, seconds = _pass("route", 3, tmp_path, tracer)
    finally:
        tracer.restore()
    assert tally["problems"] == []
    layers = tracing.layer_metrics(tracer, [seconds], [seconds])
    # cmd_route computes the table, and run_adaptive_route computes it again.
    assert layers["routing.compute_mett.calls"] == 5
    assert layers["cli.calls"] > 0 and layers["models.edge_draws"] > 0
    own = sum(layers[f"{layer}.self_s"] for layer in tracing.LAYERS)
    assert own == pytest.approx(seconds * (1.0 - layers["trace.untraced_frac"]))
    assert 0.0 <= layers["trace.untraced_frac"] < 0.2


def test_self_times_subtract_direct_children():
    spans = [["a", -1, 0.0, 10.0], ["b", 0, 1.0, 4.0], ["c", 1, 2.0, 3.0], ["d", 0, 5.0, 6.0]]
    assert tracing.self_times(spans) == [6.0, 2.0, 1.0, 1.0]


def test_tail_keeps_ten_passes_beyond():
    value, pct = run.tail([float(i) for i in range(40)])
    assert value == 29.0 and pct == 75.0


def test_oracle_matches_scipy_and_enumeration():
    stats = pytest.importorskip("scipy.stats")
    for k in (0, 5, 50, 300):
        assert oracle.er_cut_mass(40, 0.2, k) == pytest.approx(stats.nbinom.pmf(k, 39, 0.2))
    masses = oracle.masses_until(lambda t: oracle.chain_cut_mass(12, 0.3, 0.1, t))
    assert math.fsum(masses) == pytest.approx(1.0)
    assert math.fsum(t * m for t, m in enumerate(masses)) == pytest.approx(
        oracle.chain_cut_mean(12, 0.3, 0.1))
    n, p = 5, 0.3
    edges = list(itertools.combinations(range(n), 2))
    pair = 0.0
    for present in itertools.product((0, 1), repeat=len(edges)):
        chosen = [e for e, on in zip(edges, present) if on]
        weight = p ** len(chosen) * (1 - p) ** (len(edges) - len(chosen))
        labels = oracle.components(n, chosen)
        pair += weight * (labels[0] == labels[1])
    assert oracle.er_connected_pair_prob(n, p) == pytest.approx(pair)
