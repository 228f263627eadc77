import hashlib
import json
import subprocess
import sys

import numpy as np
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


@pytest.mark.parametrize("metric", ["soa", "cut"])
def test_pmf_rejects_a_negative_max_latency(capsys, metric):
    # it used to exit 0 and write only the header
    from tvgraph import cli

    argv = ["pmf", "--model", "er", "--n", "5", "--p", "0.3", "--metric", metric]
    assert cli.main([*argv, "--max-latency", "-5"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: --max-latency must be >= 0\n"
    # a horizon before the support starts is valid: no masses
    assert cli.main([*argv, "--max-latency", "0"]) == 0
    rows = capsys.readouterr().out.splitlines()
    assert rows == (["t,probability"] if metric == "soa" else ["t,probability", "0,0.0081"])


@pytest.mark.parametrize("flags, named", [
    (("--cdf",), "--cdf"),
    (("--max-latency", "5"), "--max-latency"),
    (("--cdf", "--max-latency", "-5"), "--cdf"),
])
def test_pmf_location_rejects_the_latency_flags(capsys, flags, named):
    # --location used to return before reading either flag and exit 0
    from tvgraph import cli

    argv = ["pmf", "--model", "er", "--n", "4", "--p", "0.3", "--metric", "soa", "--location", "3"]
    assert cli.main([*argv, *flags]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {named} does not apply with --location\n"


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


@pytest.mark.parametrize(
    "flags",
    [
        ("--model", "mc", "--q", "0.25", "--p0", "0.9"),  # not the stationary start
        ("--model", "er", "--gu", "complete"),
    ],
)
def test_simulate_without_a_closed_form_reports_null_tv(tmp_path, flags):
    out = tmp_path / "emp.csv"
    res = run_cli(
        "simulate", *flags, "--n", "4", "--p", "0.5", "--metric", "soa",
        "--trials", "200", "--seed", "1", "--output", out,
    )
    assert res.returncode == 0, res.stderr
    summary = json.loads((tmp_path / "emp.csv.json").read_text())
    assert summary["undelivered"] == 0
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


def test_simulate_on_one_node_delivers_at_once(tmp_path, capsys):
    # the default horizon 20 (n-1) / p was 0 here, which the replay refused
    from tvgraph import cli

    out = tmp_path / "one.csv"
    for metric in ("soa", "cut"):
        assert cli.main(["simulate", "--model", "er", "--n", "1", "--p", "0.5", "--metric", metric,
                         "--trials", "10", "--output", str(out)]) == 0
        assert out.read_text() == "latency,count\n0,10\n"
        assert json.loads((tmp_path / "one.csv.json").read_text())["horizon"] == 1
    assert capsys.readouterr().err == ""


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


GOLDEN_CUT = [
    (
        ("--model", "er", "--gu", "complete", "--n", "8", "--p", "0.2", "--seed", "3"),
        "latency,count\n0,247\n1,116\n2,65\n3,34\n4,24\n5,5\n6,4\n7,1\n8,1\n9,1\n10,1\n11,1\n",
        '{\n  "command": "simulate",\n  "dest": 7,\n  "horizon": 700,\n  "mean": 1.076,\n'
        '  "metric": "cut",\n  "model": "er p=0.2 gu=complete n=8",\n  "seed": 3,\n'
        '  "source": 0,\n  "spec_version": "1",\n  "trials": 500,\n'
        '  "tv_vs_analytic": null,\n  "undelivered": 0,\n  "variance": 2.342224\n}\n',
    ),
    (
        ("--model", "mc", "--gu", "complete", "--n", "6", "--p", "0.3", "--q", "0.2",
         "--p0", "0.05", "--seed", "5"),
        "latency,count\n0,31\n1,296\n2,136\n3,26\n4,9\n5,1\n6,1\n",
        '{\n  "command": "simulate",\n  "dest": 5,\n  "horizon": 334,\n  "mean": 1.386,\n'
        '  "metric": "cut",\n  "model": "mc p=0.3 q=0.2 p0=0.05 gu=complete n=6",\n'
        '  "seed": 5,\n  "source": 0,\n  "spec_version": "1",\n  "trials": 500,\n'
        '  "tv_vs_analytic": null,\n  "undelivered": 0,\n  "variance": 0.6370039999999999\n}\n',
    ),
]


@pytest.mark.parametrize("flags, csv, summary", GOLDEN_CUT, ids=["er-K8", "mc-K6-p0"])
def test_simulate_cut_on_cyclic_graphs_writes_pinned_bytes(tmp_path, flags, csv, summary):
    # fixed-seed cut-through on complete graphs, as the block-stream labelling kernel writes it
    out = tmp_path / "cut.csv"
    res = run_cli("simulate", *flags, "--metric", "cut", "--trials", "500", "--output", out)
    assert res.returncode == 0, res.stderr
    assert out.read_bytes() == csv.encode()
    assert (tmp_path / "cut.csv.json").read_bytes() == summary.encode()


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
    # the chain line gets coarsened columns from the same block law as the er line
    out = tmp_path / "cmp.csv"
    res = run_cli(
        "compare", "--model", "mc", "--n", "6", "--p", "0.5", "--q", "0.25",
        "--m", "1,2,5", "--t-max", "30", "--output", out,
    )
    assert res.returncode == 0, res.stderr
    lines = out.read_text().splitlines()
    assert lines[0] == "t,stg,msmg_1,msmg_2,msmg_5,smg"
    rows = [[float(c) for c in ln.split(",")] for ln in lines[1:]]
    assert [int(row[0]) for row in rows] == list(range(1, 31))
    for t, stg, m1, m2, m5, smg in rows:
        assert m1 == stg
        assert stg <= smg + 1e-12
        for m, mid in ((2, m2), (5, m5)):
            if t % m == 0:  # a whole number of blocks
                assert stg <= mid + 1e-12
                assert mid <= smg + 1e-12
            if t == m:  # one block of m slots is the smashed view of m slots
                assert mid == pytest.approx(smg, rel=1e-14)


def test_compare_mc_block_law_without_a_chance_of_absence(capsys):
    # off (1-p)^(m-1) underflows to 0.0 at m = 400: every edge holds in the first block
    from tvgraph import cli

    assert cli.main(["compare", "--model", "mc", "--n", "6", "--p", "0.9", "--q", "0.5",
                     "--m", "400", "--t-max", "800"]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    rows = [ln.split(",") for ln in captured.out.splitlines()[1:]]
    assert [row[2] for row in rows] == ["0"] * 399 + ["1"] * 401


@pytest.mark.parametrize("flags, digest", [
    ("--model er --n 10 --p 0.1 --t-max 100 --m 1,2,5",
     "b3291c29b8bf0f0b4e55814febdf0fd4ac5be0326f1354597b7b80d97eaa7b23"),
    ("--model mc --n 100 --p 0.1 --q 0.1 --t-max 500",
     "48110dcf622407c3ca184f154a479ea3e027fcb13ee9bffe10dcf057c86019ec"),
    ("--model mc --n 6 --p 0.5 --q 0.25 --t-max 30",
     "8d873d675412f476623b5e7dd9beeaec302d8734be922f481df5f341b1b0d80a"),
])
def test_compare_line_writes_pinned_bytes(capsys, flags, digest):
    # SHA-256 of the analytic line curves as written when each model had its own branch
    from tvgraph import cli

    assert cli.main(["compare", *flags.split()]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


@pytest.mark.parametrize("command", [
    ("pmf", "--metric", "cut"),
    ("simulate", "--metric", "cut", "--trials", "5"),
    ("compare", "--t-max", "3"),
    ("gen", "--horizon", "3"),
])
@pytest.mark.parametrize("flag", [("--q", "0.2"), ("--p0", "0.5"), ("--p0", "stationary")])
def test_er_rejects_chain_flags(capsys, command, flag):
    # a chain flag under --model er is an error, not silently dropped
    from tvgraph import cli

    assert cli.main([command[0], "--model", "er", "--n", "5", "--p", "0.3", *flag,
                     *command[1:]]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {flag[0]} applies only to --model mc\n"


@pytest.mark.parametrize("argv", [
    ["simulate", "--model", "er", "--n", "5", "--p", "0.3", "--metric", "soa", "--trials", "5"],
    ["compare", "--model", "er", "--n", "5", "--p", "0.3", "--t-max", "3"],
    ["compare", "--model", "er", "--gu", "complete", "--n", "5", "--p", "0.3", "--t-max", "3"],
    ["route", "--p", "0.5", "--source", "0", "--dest", "3", "--trials", "5"],
    ["route", "--p", "0.5", "--source", "0", "--dest", "3"],
    ["gen", "--model", "er", "--n", "5", "--p", "0.3", "--horizon", "3"],
], ids=["simulate", "compare-line", "compare-complete", "route-trials", "route-table", "gen"])
def test_a_negative_seed_is_named_before_any_work(tmp_path, capsys, argv):
    # numpy's "expected non-negative integer" used to name no flag, and
    # compare on the line and route without --trials took the seed silently
    from tvgraph import cli

    if argv[0] == "route":
        argv = [*argv, "--graph", str(tmp_path / "line.tgs")]
        dump_tgs(GraphletSequence.from_slot_edges(range(4), [UnderlyingGraph.line(4).edges]), argv[-1])
    out = tmp_path / "out"
    assert cli.main([*argv, "--seed", "-1", "--output", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == "error: --seed must be >= 0\n"
    assert not out.exists()
    assert cli.main([*argv, "--seed", "0", "--output", str(out)]) == 0
    assert out.exists()


@pytest.mark.parametrize("p0", ["abc", "", "0.5x"])
def test_a_p0_that_is_not_a_number_names_the_flag(capsys, p0):
    # it used to print float()'s "could not convert string to float"
    from tvgraph import cli

    argv = ["pmf", "--model", "mc", "--n", "5", "--p", "0.3", "--q", "0.2", "--metric", "soa"]
    assert cli.main([*argv, "--p0", p0]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: --p0 takes a probability or 'stationary', got {p0!r}\n"


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


@pytest.mark.parametrize("gu", [(), ("--gu", "complete", "--trials", "5")])
@pytest.mark.parametrize("m", ["2,2", "2,all,2", "1,3,2,3"])
def test_compare_rejects_a_repeated_block_size(capsys, gu, m):
    # a repeated size used to write the same msmg_ column twice and exit 0
    from tvgraph import cli

    assert cli.main(["compare", "--model", "er", "--n", "6", "--p", "0.2", *gu,
                     "--t-max", "6", "--m", m]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: --m repeats block size {m.split(',')[-1]}\n"


@pytest.mark.parametrize("gu", [(), ("--gu", "complete", "--trials", "5")])
@pytest.mark.parametrize("m, token", [(",2", ""), ("2.5", "2.5"), ("x", "x"), ("1,0", "0")])
def test_compare_names_the_flag_and_token_of_a_bad_block_size(capsys, gu, m, token):
    # a token int() refuses used to print only int()'s message
    from tvgraph import cli

    assert cli.main(["compare", "--model", "er", "--n", "6", "--p", "0.2", *gu,
                     "--t-max", "6", "--m", m]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: --m takes positive integers or 'all', got {token!r}\n"


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


@pytest.mark.parametrize("mode", [(), ("--gu", "complete", "--trials", "5")])
@pytest.mark.parametrize("t_max", ["0", "-3"])
def test_compare_rejects_t_max_below_one(tmp_path, mode, t_max):
    out = tmp_path / "cmp.csv"
    res = run_cli(
        "compare", "--model", "er", "--n", "5", "--p", "0.3", *mode,
        "--t-max", t_max, "--output", out,
    )
    assert res.returncode == 1
    assert res.stderr == "error: --t-max must be >= 1\n"
    assert not out.exists()


def test_compare_empirical_needs_two_trials(tmp_path):
    out = tmp_path / "emp.csv"
    res = run_cli(
        "compare", "--model", "er", "--gu", "complete", "--n", "5", "--p", "0.3",
        "--t-max", "3", "--trials", "1", "--output", out,
    )
    assert res.returncode == 1
    assert res.stderr == "error: --trials must be >= 2: standard errors need two trials\n"
    assert not out.exists()


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


def test_route_readme_example_bytes(tmp_path):
    # the route table is written node by node, in json.dumps' indented layout;
    # the digest is that of the bytes json.dumps(indent=2) wrote before
    graph, out = tmp_path / "line.tgs", tmp_path / "mett.json"
    res = run_cli("gen", "--model", "er", "--n", "10", "--p", "1", "--horizon", "1",
                  "--output", graph)
    assert res.returncode == 0, res.stderr
    route = ["route", "--graph", graph, "--p", "0.25", "--source", "0", "--dest", "9"]
    res = run_cli(*route, "--output", out)
    assert res.returncode == 0, res.stderr
    table = out.read_text()
    digest = "ab252b3e528fda3f8437d5471bcf9679f93401495c4cebe93d932b6e3d3b9830"
    assert hashlib.sha256(table.encode()).hexdigest() == digest
    res = run_cli(*route, "--trials", "100000", "--seed", "0", "--output", out)
    assert res.returncode == 0, res.stderr
    payload = json.loads(out.read_text())
    assert out.read_text() == json.dumps(payload, indent=2, sort_keys=True) + "\n"
    for key in ("trials", "seed", "undelivered", "mett_source", "empirical_mean",
                "empirical_stderr"):
        del payload[key]
    assert json.dumps(payload, indent=2, sort_keys=True) + "\n" == table


@pytest.mark.parametrize("flags, delivered", [
    (["--trials", "3", "--horizon", "2"], 0),  # 9 hops never fit in 2 slots
    (["--trials", "1"], 1),
])
def test_route_reports_too_few_deliveries(tmp_path, flags, delivered):
    graph = tmp_path / "line.tgs"
    dump_tgs(
        GraphletSequence.from_slot_edges(range(10), [UnderlyingGraph.line(10).edges]),
        graph,
    )
    out = tmp_path / "mett.json"
    res = run_cli(
        "route", "--graph", graph, "--p", "0.25", "--source", "0", "--dest", "9",
        *flags, "--output", out,
    )
    assert res.returncode == 0, res.stderr
    payload = json.loads(out.read_text())
    assert payload["nodes"]["0"]["mett"] == 36.0
    assert payload["undelivered"] == payload["trials"] - delivered
    assert (payload["empirical_mean"] is None) == (delivered == 0)
    assert payload["empirical_stderr"] is None


def test_route_zero_horizon_errors(tmp_path):
    graph = tmp_path / "line.tgs"
    dump_tgs(GraphletSequence.from_slot_edges(range(4), [UnderlyingGraph.line(4).edges]), graph)
    res = run_cli(
        "route", "--graph", graph, "--p", "0.5", "--source", "0", "--dest", "3",
        "--trials", "100", "--horizon", "0",
    )
    assert res.returncode == 1
    assert "--horizon must be >= 1" in res.stderr


def test_route_negative_trials_errors(tmp_path):
    graph = tmp_path / "line.tgs"
    dump_tgs(GraphletSequence.from_slot_edges(range(4), [UnderlyingGraph.line(4).edges]), graph)
    out = tmp_path / "mett.json"
    res = run_cli(
        "route", "--graph", graph, "--p", "0.5", "--source", "0", "--dest", "3",
        "--trials", "-4", "--output", out,
    )
    assert res.returncode == 1
    assert res.stderr == "error: --trials must be >= 0\n"
    assert not out.exists()


@pytest.mark.parametrize("flags", [
    ["--pmf-output", "route.csv"],
    ["--horizon", "50"],
    ["--trials", "0", "--pmf-output", "route.csv"],
    ["--trials", "0", "--horizon", "50"],
])
def test_route_replay_flags_without_trials_are_errors(tmp_path, flags):
    # a flag of the policy replay was silently ignored when no replay ran
    graph = tmp_path / "line.tgs"
    dump_tgs(GraphletSequence.from_slot_edges(range(4), [UnderlyingGraph.line(4).edges]), graph)
    out = tmp_path / "mett.json"
    flags = [str(tmp_path / f) if f.endswith(".csv") else f for f in flags]
    res = run_cli(
        "route", "--graph", graph, "--p", "0.5", "--source", "0", "--dest", "3",
        *flags, "--output", out,
    )
    flag = next(f for f in flags if f in ("--pmf-output", "--horizon"))
    assert res.returncode == 1
    assert res.stderr == f"error: {flag} applies only to the policy replay: give --trials >= 1\n"
    assert not out.exists() and not (tmp_path / "route.csv").exists()


def test_route_disconnected_errors(tmp_path):
    graph = tmp_path / "disc.tgs"
    dump_tgs(GraphletSequence.from_slot_edges(range(3), [[(0, 1)]]), graph)
    res = run_cli("route", "--graph", graph, "--p", "0.5", "--source", "2", "--dest", "0")
    assert res.returncode != 0
    assert "unreachable" in res.stderr


def test_route_overflowing_mett_is_an_error_not_unreachable(tmp_path):
    graph = tmp_path / "line.tgs"
    dump_tgs(GraphletSequence.from_slot_edges(range(3), [UnderlyingGraph.line(3).edges]), graph)
    res = run_cli("route", "--graph", graph, "--p", "1e-310", "--source", "0", "--dest", "2")
    assert res.returncode == 1
    assert res.stderr.startswith("error: p = 1e-310 ") and res.stderr.count("\n") == 1


@pytest.mark.parametrize("command", [
    ["simulate", "--model", "er", "--n", "3", "--p", "1e-308", "--metric", "soa"],
    ["route", "--p", "1e-307", "--source", "0", "--dest", "1"],
])
def test_overflowing_default_horizon_is_an_error(tmp_path, command):
    if command[0] == "route":
        command += ["--graph", tmp_path / "k2.tgs"]
        dump_tgs(GraphletSequence.from_slot_edges(range(2), [[(0, 1)]]), command[-1])
    res = run_cli(*command, "--trials", "10")
    assert res.returncode == 1
    assert res.stderr.startswith("error: ") and res.stderr.count("\n") == 1
    assert "pass a horizon" in res.stderr


def test_route_rejects_unknown_source(tmp_path):
    graph = tmp_path / "line.tgs"
    dump_tgs(GraphletSequence.from_slot_edges(range(5), [UnderlyingGraph.line(5).edges]), graph)
    res = run_cli("route", "--graph", graph, "--p", "0.5", "--source", "99", "--dest", "4")
    assert res.returncode == 1
    assert res.stderr == "error: source 99 not in the graph\n"


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


@pytest.mark.parametrize("flags, digest", [
    ("--model er --gu complete --n 500 --p 0.03 --horizon 1 --seed 5",
     "105f3197d62273b87c25561c3a37605142994f0b5efb2c0d3136aa17d7ac7a94"),
    ("--model er --gu complete --n 150 --p 1.0 --horizon 1 --seed 3",
     "9a98c4d05c79c716073e100a7e40e04aa50f1c32e38af72ecd11eca30540295d"),
    ("--model mc --gu complete --n 30 --p 0.005 --q 0.5 --horizon 600 --seed 7",
     "5536800b913b7c98ccb9c3214bd3639a131bf6faefdc367be72b8df85681cb3c"),
    ("--model mc --gu complete --n 12 --p 0.3 --q 0.2 --p0 0.05 --horizon 77 --seed 2",
     "9056c9ce3cd457011f4830f8a5e6224c7b59ede463da9b1aab65ced789fb2260"),
    ("--model er --gu line --n 12 --p 0.4 --horizon 50 --seed 2",
     "29101038ba9c1443fd3d6ed005ee27866bbe4a2f8e9e39cb523c6ea6a7135e8d"),
])
def test_gen_writes_pinned_bytes(capsys, flags, digest):
    # SHA-256 of stdout as written when candidate edges were built as tuples
    from tvgraph import cli

    assert cli.main(["gen", *flags.split()]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


def test_gen_then_route_build_no_edge_tuples(tmp_path, monkeypatch):
    # the sampled slots, the slot read back and the routing graph all hold
    # index arrays from sampler to file to replay: none builds its edge set
    from tvgraph import cli, models

    seen = {}
    sample, load, compute = cli.sample_er_tgs, models.load_tgs, cli.compute_mett
    monkeypatch.setattr(cli, "sample_er_tgs", lambda *a: seen.setdefault("sampled", sample(*a)))
    monkeypatch.setattr(models, "load_tgs", lambda path: seen.setdefault("read", load(path)))
    monkeypatch.setattr(cli, "compute_mett", lambda gu, *a: compute(seen.setdefault("gu", gu), *a))
    graph, out = tmp_path / "g.tgs", tmp_path / "route.json"
    assert cli.main(["gen", "--model", "er", "--gu", "complete", "--n", "60", "--p", "0.2",
                     "--horizon", "1", "--seed", "5", "--output", str(graph)]) == 0
    assert cli.main(["route", "--graph", str(graph), "--p", "0.3", "--source", "0", "--dest", "59",
                     "--trials", "500", "--seed", "1", "--output", str(out)]) == 0
    assert json.loads(out.read_text())["undelivered"] == 0
    assert "edges" not in vars(seen["sampled"][0])
    assert "edges" not in vars(seen["read"][0])
    assert "edges" not in vars(seen["gu"])
    assert seen["read"] == seen["sampled"]


def test_unions_and_replay_searches_build_no_slot_edges():
    # smash, m_smash and the replays' default path and rank searches read the
    # slots' index arrays; only a replay's walk reads `edges`, slot by slot,
    # and a message delivered in slot 1 walks no further
    from tvgraph.models import ErParams, sample_er_tgs
    from tvgraph.simulate import replay_cut, replay_soa
    from tvgraph.temporal import m_smash, parse_tgs, smash

    words = UnderlyingGraph(("d", "b", "a", "c"), (("a", "b"), ("c", "b"), ("c", "d"), ("d", "a")))
    for tgs in [
        parse_tgs("tgs 4 20\n" + "".join(f"t {t}\ne 0 1\ne 2 1\ne 3 2\n" for t in range(1, 21))),
        sample_er_tgs(UnderlyingGraph.complete(5), ErParams(1.0), 20, 3),
        sample_er_tgs(words, ErParams(1.0), 20, 3),
    ]:
        for g in tgs:  # string ids too: sorted ids and an int32 index array into them
            assert g._ids == tuple(sorted(g.nodes)) and g._ends.dtype == np.int32
        source, dest = sorted(tgs.node_ids)[:2]
        smg = smash(tgs)  # every slot holds the same edges
        assert smg.connected(source, dest)
        assert [b.edges for b in m_smash(tgs, 3)] == [smg.edges] * 7
        assert not any("edges" in vars(g) for g in tgs)
        assert replay_soa(tgs, source, dest).latency == 1
        assert replay_cut(tgs, source, dest).latency == 0
        assert not any("edges" in vars(g) for g in tgs[1:])


def test_in_process_calls_share_no_state(capsys):
    from tvgraph import cli

    argv = ["pmf", "--model", "er", "--n", "3", "--p", "0.5", "--metric", "cut",
            "--max-latency", "2"]
    assert cli.main(argv + ["--cdf"]) == 0
    assert cli.main(argv) == 0
    assert cli.main(["pmf", "--model", "mc", "--n", "3", "--p", "0.5", "--metric", "cut"]) == 1
    out, err = capsys.readouterr()
    assert out == "t,cdf\n0,0.25\n1,0.5\n2,0.6875\nt,probability\n0,0.25\n1,0.25\n2,0.1875\n"
    assert err == "error: --q is required with --model mc\n"
    assert cli.build_parser() is not cli.build_parser()


def test_stdout_default_and_version():
    res = run_cli("pmf", "--model", "er", "--n", "3", "--p", "0.5", "--metric", "cut",
                  "--max-latency", "4")
    assert res.returncode == 0
    assert res.stdout.startswith("t,probability\n0,0.25")
    res = run_cli("--version")
    assert res.returncode == 0
    assert "tvgraph" in res.stdout
