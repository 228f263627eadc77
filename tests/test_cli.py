import json
import subprocess
import sys

import pytest

from tvgraph.analytics import er_soa_latency_pmf
from tvgraph.models import UnderlyingGraph
from tvgraph.temporal import GraphletSequence, dump_tgs, load_tgs


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "tvgraph", *map(str, args)],
        capture_output=True,
        text=True,
    )


def test_pmf_soa_support_and_values(tmp_path):
    out = tmp_path / "pmf.csv"
    res = run_cli(
        "pmf", "--model", "er", "--n", "10", "--p", "0.25",
        "--metric", "soa", "--max-latency", "40", "--output", out,
    )
    assert res.returncode == 0, res.stderr
    lines = out.read_text().splitlines()
    assert lines[0] == "t,probability"
    rows = [ln.split(",") for ln in lines[1:]]
    assert rows[0][0] == "9"  # nothing below the hop count
    pmf = er_soa_latency_pmf(10, 0.25, max_latency=40)
    assert float(rows[0][1]) == pytest.approx(pmf.mass(9), rel=1e-11)
    assert len(rows) == 40 - 9 + 1


def test_pmf_degenerate_single_row():
    res = run_cli("pmf", "--model", "er", "--n", "2", "--p", "1", "--metric", "soa")
    assert res.returncode == 0
    assert res.stdout.splitlines() == ["t,probability", "1,1"]


def test_pmf_mc_reduction_matches_er_byte_for_byte(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    r1 = run_cli(
        "pmf", "--model", "mc", "--n", "3", "--p", "0.5", "--q", "0.5",
        "--metric", "cut", "--max-latency", "30", "--output", a,
    )
    r2 = run_cli(
        "pmf", "--model", "er", "--n", "3", "--p", "0.5",
        "--metric", "cut", "--max-latency", "30", "--output", b,
    )
    assert r1.returncode == r2.returncode == 0
    a_rows = a.read_text().splitlines()
    b_rows = b.read_text().splitlines()
    for ra, rb in zip(a_rows[1:], b_rows[1:]):
        ta, pa = ra.split(",")
        tb, pb = rb.split(",")
        assert ta == tb
        assert float(pa) == pytest.approx(float(pb), abs=1e-12)


def test_pmf_cdf_output():
    res = run_cli(
        "pmf", "--model", "er", "--n", "3", "--p", "0.5", "--metric", "cut",
        "--max-latency", "3", "--cdf",
    )
    assert res.returncode == 0
    lines = res.stdout.splitlines()
    assert lines[0] == "t,cdf"
    values = [float(ln.split(",")[1]) for ln in lines[1:]]
    assert values == sorted(values)
    assert values[0] == pytest.approx(0.25)
    assert values[1] == pytest.approx(0.5)


def test_pmf_location_output(tmp_path):
    out = tmp_path / "loc.csv"
    res = run_cli(
        "pmf", "--model", "er", "--n", "10", "--p", "0.25",
        "--metric", "soa", "--location", "20", "--output", out,
    )
    assert res.returncode == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "node,probability"
    assert len(lines) == 11
    total = sum(float(ln.split(",")[1]) for ln in lines[1:])
    assert total == pytest.approx(1.0, abs=1e-9)


def test_pmf_probability_grid_runs_clean(tmp_path):
    # the standard 10-node grid: distributions must normalize at every p
    for i, p in enumerate((0.1, 0.2, 0.25, 0.5)):
        out = tmp_path / f"pmf_{i}.csv"
        res = run_cli(
            "pmf", "--model", "er", "--n", "10", "--p", p,
            "--metric", "cut", "--output", out,
        )
        assert res.returncode == 0, res.stderr
        total = sum(float(ln.split(",")[1]) for ln in out.read_text().splitlines()[1:])
        assert total == pytest.approx(1.0, abs=1e-9)


def test_pmf_rejects_bad_params():
    res = run_cli("pmf", "--model", "er", "--n", "5", "--p", "0", "--metric", "soa")
    assert res.returncode != 0
    assert "error:" in res.stderr
    res = run_cli("pmf", "--model", "mc", "--n", "5", "--p", "0.5", "--metric", "soa")
    assert res.returncode != 0


def test_simulate_writes_csv_and_summary(tmp_path):
    out = tmp_path / "emp.csv"
    res = run_cli(
        "simulate", "--model", "er", "--n", "6", "--p", "0.5", "--metric", "soa",
        "--trials", "5000", "--seed", "3", "--output", out,
    )
    assert res.returncode == 0, res.stderr
    lines = out.read_text().splitlines()
    assert lines[0] == "latency,count"
    total = sum(int(ln.split(",")[1]) for ln in lines[1:])
    summary = json.loads((tmp_path / "emp.csv.json").read_text())
    assert summary["spec_version"] == "1"
    assert summary["trials"] == 5000
    assert total + summary["undelivered"] == 5000
    assert summary["model"] == "er p=0.5 gu=line n=6"
    assert summary["tv_vs_analytic"] < 0.05
    assert summary["mean"] == pytest.approx(5 / 0.5, abs=0.3)


def test_simulate_without_an_automatic_analytic_support(tmp_path):
    out = tmp_path / "emp.csv"
    res = run_cli(
        "simulate", "--model", "er", "--n", "3", "--p", "1e-9", "--metric", "cut",
        "--trials", "10", "--horizon", "5", "--output", out,
    )
    assert res.returncode == 0, res.stderr
    summary = json.loads((tmp_path / "emp.csv.json").read_text())
    assert summary["undelivered"] == 10
    assert summary["tv_vs_analytic"] is None


def test_simulate_zero_trials_errors():
    res = run_cli(
        "simulate", "--model", "er", "--n", "4", "--p", "0.5",
        "--metric", "cut", "--trials", "0",
    )
    assert res.returncode != 0
    assert "trials" in res.stderr


def test_simulate_zero_horizon_errors():
    res = run_cli(
        "simulate", "--model", "er", "--n", "4", "--p", "0.5",
        "--metric", "soa", "--trials", "10", "--horizon", "0",
    )
    assert res.returncode == 1
    assert "--horizon must be >= 1" in res.stderr


def test_simulate_repeat_runs_byte_identical(tmp_path):
    args = (
        "simulate", "--model", "mc", "--n", "5", "--p", "0.5", "--q", "0.25",
        "--metric", "cut", "--trials", "2000", "--seed", "9",
    )
    first = run_cli(*args, "--output", tmp_path / "a.csv", "--summary", tmp_path / "a.json")
    second = run_cli(*args, "--output", tmp_path / "b.csv", "--summary", tmp_path / "b.json")
    assert first.returncode == second.returncode == 0
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()


def test_compare_analytic_ordering(tmp_path):
    out = tmp_path / "cmp.csv"
    res = run_cli(
        "compare", "--model", "er", "--n", "10", "--p", "0.1",
        "--t-max", "100", "--m", "1,2,5", "--output", out,
    )
    assert res.returncode == 0, res.stderr
    lines = out.read_text().splitlines()
    assert lines[0] == "t,stg,msmg_1,msmg_2,msmg_5,smg"
    for ln in lines[1:]:
        t, stg, m1, m2, m5, smg = ln.split(",")
        t = int(t)
        assert float(m1) == float(stg)
        if t % 2 == 0:
            assert float(stg) <= float(m2) + 1e-12
            assert float(m2) <= float(smg) + 1e-12
        if t % 5 == 0:
            assert float(stg) <= float(m5) + 1e-12
            assert float(m5) <= float(smg) + 1e-12


def test_compare_mc_analytic_columns(tmp_path):
    out = tmp_path / "cmp.csv"
    res = run_cli(
        "compare", "--model", "mc", "--n", "6", "--p", "0.5", "--q", "0.25",
        "--t-max", "30", "--output", out,
    )
    assert res.returncode == 0, res.stderr
    lines = out.read_text().splitlines()
    assert lines[0] == "t,stg,smg"
    for ln in lines[1:]:
        _, stg, smg = ln.split(",")
        assert float(stg) <= float(smg) + 1e-12
    # coarsened analytic columns are only derived for the independent model
    res = run_cli(
        "compare", "--model", "mc", "--n", "6", "--p", "0.5", "--q", "0.25",
        "--m", "2", "--t-max", "10",
    )
    assert res.returncode != 0


def test_compare_m_all_is_accepted_as_no_op():
    # the fully smashed column is always emitted, so 'all' adds nothing
    for mode in (
        ("--model", "er", "--n", "6", "--p", "0.2", "--t-max", "12"),
        ("--model", "er", "--gu", "complete", "--n", "6", "--p", "0.2", "--t-max", "6",
         "--trials", "5", "--seed", "3"),
    ):
        for plain, with_all in (((), ("--m", "all")), (("--m", "2"), ("--m", "2,all"))):
            want = run_cli("compare", *mode, *plain)
            got = run_cli("compare", *mode, *with_all)
            assert want.returncode == got.returncode == 0, got.stderr
            assert got.stdout == want.stdout


def test_compare_empirical_complete_graph(tmp_path):
    out = tmp_path / "emp.csv"
    res = run_cli(
        "compare", "--model", "mc", "--gu", "complete", "--n", "8",
        "--p", "0.5", "--q", "0.05", "--p0", "0.005",
        "--t-max", "10", "--trials", "40", "--seed", "5", "--output", out,
    )
    assert res.returncode == 0, res.stderr
    lines = out.read_text().splitlines()
    assert lines[0] == "t,stg,stg_se,smg,smg_se"
    for ln in lines[1:]:
        _, stg, _, smg, _ = ln.split(",")
        assert float(stg) <= float(smg) + 1e-12


def test_route_line_and_trials(tmp_path):
    graph = tmp_path / "line.tgs"
    dump_tgs(
        GraphletSequence.from_slot_edges(range(10), [UnderlyingGraph.line(10).edges]),
        graph,
    )
    out = tmp_path / "mett.json"
    pmf_out = tmp_path / "route.csv"
    res = run_cli(
        "route", "--graph", graph, "--p", "0.25", "--source", "0", "--dest", "9",
        "--trials", "20000", "--seed", "1", "--output", out, "--pmf-output", pmf_out,
    )
    assert res.returncode == 0, res.stderr
    payload = json.loads(out.read_text())
    assert payload["nodes"]["0"]["mett"] == 36.0
    assert payload["nodes"]["9"]["mett"] == 0.0
    assert payload["nodes"]["0"]["policy"] == [1]
    assert abs(payload["empirical_mean"] - 36.0) <= 3 * payload["empirical_stderr"]
    assert pmf_out.read_text().splitlines()[0] == "latency,count"


def test_route_zero_horizon_errors(tmp_path):
    graph = tmp_path / "line.tgs"
    dump_tgs(GraphletSequence.from_slot_edges(range(4), [UnderlyingGraph.line(4).edges]), graph)
    res = run_cli(
        "route", "--graph", graph, "--p", "0.5", "--source", "0", "--dest", "3",
        "--trials", "100", "--horizon", "0",
    )
    assert res.returncode == 1
    assert "--horizon must be >= 1" in res.stderr


def test_route_disconnected_errors(tmp_path):
    graph = tmp_path / "disc.tgs"
    dump_tgs(GraphletSequence.from_slot_edges(range(3), [[(0, 1)]]), graph)
    res = run_cli("route", "--graph", graph, "--p", "0.5", "--source", "2", "--dest", "0")
    assert res.returncode != 0
    assert "unreachable" in res.stderr


def test_route_rejects_multi_slot_graph(tmp_path):
    graph = tmp_path / "two.tgs"
    dump_tgs(GraphletSequence.from_slot_edges(range(3), [[(0, 1)], [(1, 2)]]), graph)
    res = run_cli("route", "--graph", graph, "--p", "0.5", "--source", "0", "--dest", "2")
    assert res.returncode != 0


def test_gen_round_trips(tmp_path):
    out = tmp_path / "sample.tgs"
    res = run_cli(
        "gen", "--model", "er", "--n", "6", "--p", "0.3",
        "--horizon", "12", "--seed", "7", "--output", out,
    )
    assert res.returncode == 0, res.stderr
    tgs = load_tgs(out)
    assert tgs.horizon == 12
    assert len(tgs.node_ids) == 6
    again = run_cli(
        "gen", "--model", "er", "--n", "6", "--p", "0.3",
        "--horizon", "12", "--seed", "7",
    )
    assert again.stdout == out.read_text()


def test_stdout_default_and_version():
    res = run_cli("pmf", "--model", "er", "--n", "3", "--p", "0.5", "--metric", "cut",
                  "--max-latency", "4")
    assert res.returncode == 0
    assert res.stdout.startswith("t,probability\n0,0.25")
    res = run_cli("--version")
    assert res.returncode == 0
    assert "tvgraph" in res.stdout
