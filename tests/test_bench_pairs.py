"""tools/bench_pairs.py, the alternating parent/change benchmark runner, on
canned run JSON: no benchmark is started."""

import importlib.util
import json
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "bench_pairs", Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

BETTER = {"job_p50_probes": "lower", "peak_rss_mb": "lower", "ops_per_s": "higher"}


def canned(p50, rss, ops, failed=0, attempted=100):
    """A run's last-line JSON, as bench/run.py prints it."""
    metrics = {"job_p50_probes": p50, "peak_rss_mb": rss, "ops_per_s": ops}
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": "x"} for k, v in metrics.items()}}


def test_parse_run_reads_the_last_line():
    run = canned(3.5, 50.0, 7.0)
    stdout = "route: seed 7, 12 untraced passes\n  cpu: x\n" + json.dumps(run) + "\n"
    assert bench_pairs.parse_run(stdout) == run


def test_pairs_flip_which_side_goes_first():
    calls = []

    def run(checkout, workload, seed, seconds):
        calls.append((checkout, workload, seed, seconds))
        return canned(1.0, 1.0, 1.0)

    runs = bench_pairs.run_pairs({"parent": "P", "change": "C"}, "route", 4, 38, 101, run)
    assert [c[0] for c in calls] == ["P", "C", "C", "P", "P", "C", "C", "P"]
    assert [c[2] for c in calls] == [101, 101, 102, 102, 103, 103, 104, 104]
    assert {c[1] for c in calls} == {"route"} and {c[3] for c in calls} == {38}
    assert [len(runs[side]) for side in ("parent", "change")] == [4, 4]


def ten_pairs(change_p50):
    parent = [canned(3.5 + 0.01 * i, 50.0, 7.0) for i in range(10)]
    change = [canned(v, 50.0 + (i % 2), 8.0, failed=int(i == 3)) for i, v in enumerate(change_p50)]
    return {"parent": parent, "change": change}


def test_summary_counts_wins_by_direction_and_marks_a_gain():
    runs = ten_pairs([3.0] * 9 + [3.6])
    rows = {row[0]: row for row in bench_pairs.summarize(runs, BETTER)}
    name, mid_p, mid_c, q1, q3, won, pairs, gain = rows["job_p50_probes"]
    assert (mid_p, mid_c, won, pairs, gain) == (pytest.approx(3.545), 3.0, 9, 10, True)
    assert q1 == pytest.approx(3.5175) and q3 == pytest.approx(3.5725)  # exclusive quartiles
    assert rows["peak_rss_mb"][5:] == (0, 10, False)  # ties and losses win nothing
    assert rows["ops_per_s"][5:] == (10, 10, True)  # higher is better


def test_a_gain_needs_nine_wins_and_a_move_past_the_parent_spread():
    eight = ten_pairs([3.0] * 8 + [3.6, 3.6])
    assert bench_pairs.summarize(eight, BETTER)[0][5:] == (8, 10, False)
    small = ten_pairs([3.5 + 0.01 * i - 0.005 for i in range(10)])  # wins all, moves less than the IQR
    assert bench_pairs.summarize(small, BETTER)[0][5:] == (10, 10, False)


def test_main_prints_the_table_and_the_failed_operations(tmp_path, capsys):
    for side in ("parent", "change"):
        (tmp_path / side).mkdir()
    (tmp_path / "change" / "BENCHMARK.json").write_text(json.dumps(
        {"end_to_end": [{"name": k, "better": v} for k, v in BETTER.items()]}))
    canned_runs = ten_pairs([3.0] * 10)
    turn = {"parent": iter(canned_runs["parent"]), "change": iter(canned_runs["change"])}

    def run(checkout, workload, seed, seconds):
        return next(turn[checkout.name])

    argv = [str(tmp_path / "parent"), str(tmp_path / "change"), "--workload", "route"]
    assert bench_pairs.main(argv, run) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "route: 10 pairs of 38 s runs, seeds 101..110"
    assert out[2].split() == ["job_p50_probes", "3.545", "3", "-15.4%", "3.518..3.572",
                              "10/10", "gain"]
    assert out[-1] == "failed operations: parent 0 of 1000, change 1 of 1000"


BOUNDS = {"job_p50_probes": 0.25, "peak_rss_mb": 0.1, "ops_per_s": 0.25}


def test_worse_needs_a_median_past_the_bound():
    # parent p50 median 3.545: the bound 0.25 allows up to 4.43125
    for change_p50, flags in ((4.4, []), (4.5, ["worse"])):
        runs = ten_pairs([change_p50] * 10)
        assert bench_pairs.regressions(runs, BETTER, BOUNDS)["job_p50_probes"] == flags
    # higher is better: 7.0 -> 5.0 is 29% worse, past 0.25
    runs = ten_pairs([3.0] * 10)
    for r in runs["change"]:
        r["metrics"]["ops_per_s"]["value"] = 5.0
    flags = bench_pairs.regressions(runs, BETTER, BOUNDS)
    assert flags["ops_per_s"] == ["worse"] and flags["job_p50_probes"] == []
    assert flags["peak_rss_mb"] == []  # 50.0 -> 50.5 is 1%, inside 0.1


def test_a_parent_spread_past_the_bound_is_unresolved_unless_every_run_wins():
    # parent p50 from 2.0 to 6.5: IQR 2.25 against 0.25 x median 4.25
    runs = ten_pairs([3.0] * 10)
    for i, r in enumerate(runs["parent"]):
        r["metrics"]["job_p50_probes"]["value"] = 2.0 + 0.5 * i
    assert bench_pairs.regressions(runs, BETTER, BOUNDS)["job_p50_probes"] == ["unresolved"]
    for r in runs["change"]:  # every change run below every parent run
        r["metrics"]["job_p50_probes"]["value"] = 1.5
    assert bench_pairs.regressions(runs, BETTER, BOUNDS)["job_p50_probes"] == []
    for r in runs["change"]:  # a median past the bound, in a wide spread
        r["metrics"]["job_p50_probes"]["value"] = 6.0
    assert bench_pairs.regressions(runs, BETTER, BOUNDS)["job_p50_probes"] == ["worse",
                                                                                "unresolved"]


def test_metrics_without_a_bound_get_no_flags():
    runs = ten_pairs([9.0] * 10)
    assert bench_pairs.regressions(runs, BETTER, {"peak_rss_mb": 0.1}) == {"peak_rss_mb": []}


def test_main_flags_a_regression_from_the_bounds_in_benchmark_json(tmp_path, capsys):
    for side in ("parent", "change"):
        (tmp_path / side).mkdir()
    (tmp_path / "change" / "BENCHMARK.json").write_text(json.dumps(
        {"end_to_end": [{"name": k, "better": v, "bound": BOUNDS[k]} for k, v in BETTER.items()]}))
    canned_runs = ten_pairs([4.5] * 10)
    turn = {"parent": iter(canned_runs["parent"]), "change": iter(canned_runs["change"])}

    def run(checkout, workload, seed, seconds):
        return next(turn[checkout.name])

    argv = [str(tmp_path / "parent"), str(tmp_path / "change"), "--workload", "mesh"]
    assert bench_pairs.main(argv, run) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[2].split()[-2:] == ["0/10", "worse"]
    assert out[3].split()[-1] == "0/10"  # peak_rss_mb: 1% worse, no flag
    assert out[4].split()[-2:] == ["10/10", "gain"]  # ops_per_s
