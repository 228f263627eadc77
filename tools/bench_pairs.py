"""Run the benchmark on two checkouts in alternating pairs and compare them.

    python tools/bench_pairs.py PARENT CHANGE --workload route \
        [--pairs 10] [--seconds 38] [--seed 101]

PARENT and CHANGE are two tvgraph checkouts (a parent commit and the change
on top of it).  Pair i runs `bench/run.py --workload W --seed SEED+i
--seconds S --trace 0` once in each, one process at a time.  The side that
goes first flips from pair to pair (the parent in pairs 1, 3, ...), since
the host's speed drifts, and `setup_s` is raw wall time that follows it.

For each end-to-end metric the table gives the parent and change medians,
the parent's quartiles and the pairs the change won (strictly better, in
the direction CHANGE/BENCHMARK.json gives).  "gain" marks a metric that is
better in at least nine pairs of ten and whose median moved by more than
the parent's interquartile range.  Against the metric's `bound` in that
file, "worse" marks a change median worse than the parent median by more
than bound x the parent median, and "unresolved" a parent interquartile
range above bound x its median where not every change run beats every
parent run: the runs spread too widely to tell.  The last line counts the
failed operations of each side.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")


def parse_run(stdout):
    """The JSON object on the last line of a `bench/run.py` stdout."""
    return json.loads(stdout.strip().splitlines()[-1])


def run_bench(checkout, workload, seed, seconds):
    """One `bench/run.py --trace 0` run in `checkout`; its last-line JSON."""
    argv = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(argv, cwd=checkout, capture_output=True, text=True, check=True)
    return parse_run(done.stdout)


def run_pairs(checkouts, workload, pairs, seconds, seed, run=run_bench):
    """{side: [run JSON of each pair]}, the sides taking turns to go first."""
    runs = {side: [] for side in SIDES}
    for i in range(pairs):
        for side in SIDES if i % 2 == 0 else SIDES[::-1]:
            runs[side].append(run(checkouts[side], workload, seed + i, seconds))
    return runs


def _values(runs, name):
    """The parent's and the change's values of metric `name`, run by run."""
    return ([r["metrics"][name]["value"] for r in runs[side]] for side in SIDES)


def _quartiles(values):
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return q1, q3


def summarize(runs, better):
    """One row per metric of `better` ({name: "lower" or "higher"}):
    (name, parent median, change median, parent q1, parent q3, pairs won,
    pairs, gain)."""
    rows = []
    for name, direction in better.items():
        parent, change = _values(runs, name)
        sign = 1.0 if direction == "lower" else -1.0
        won = sum(sign * (p - c) > 0 for p, c in zip(parent, change))
        q1, q3 = _quartiles(parent)
        mid_p, mid_c = statistics.median(parent), statistics.median(change)
        gain = 10 * won >= 9 * len(parent) and sign * (mid_p - mid_c) > q3 - q1
        rows.append((name, mid_p, mid_c, q1, q3, won, len(parent), gain))
    return rows


def regressions(runs, better, bounds):
    """{name: flags} for each metric of `better` with a bound in `bounds`
    ({name: relative bound}): "worse" when the change median is worse than
    the parent median by more than bound x the parent median, "unresolved"
    when the parent's interquartile range exceeds bound x its median and
    not every change run beats every parent run."""
    out = {}
    for name, direction in better.items():
        if name not in bounds:
            continue
        parent, change = _values(runs, name)
        sign = 1.0 if direction == "lower" else -1.0
        mid_p, mid_c = statistics.median(parent), statistics.median(change)
        q1, q3 = _quartiles(parent)
        limit = bounds[name] * abs(mid_p)
        flags = []
        if sign * (mid_c - mid_p) > limit:
            flags.append("worse")
        if q3 - q1 > limit and max(sign * c for c in change) >= min(sign * p for p in parent):
            flags.append("unresolved")
        out[name] = flags
    return out


def report(runs, better, bounds=None):
    """The table and the failed-operation counts, as text."""
    flags = regressions(runs, better, bounds or {})
    lines = [f"{'metric':18s} {'parent':>10s} {'change':>10s} {'moved':>8s}  "
             f"{'parent q1..q3':>21s}  won"]
    for name, mid_p, mid_c, q1, q3, won, pairs, gain in summarize(runs, better):
        moved = f"{100.0 * (mid_c / mid_p - 1.0):+.1f}%" if mid_p else "-"
        marks = "".join(f"  {flag}" for flag in ["gain"] * gain + flags.get(name, []))
        lines.append(f"{name:18s} {mid_p:10.4g} {mid_c:10.4g} {moved:>8s}  "
                     f"{q1:10.4g}..{q3:<9.4g}  {won}/{pairs}{marks}")
    failed = ", ".join(
        f"{side} {sum(r['failed'] for r in runs[side])} of {sum(r['attempted'] for r in runs[side])}"
        for side in SIDES)
    lines.append(f"failed operations: {failed}")
    return "\n".join(lines) + "\n"


def main(argv=None, run=run_bench):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=38)
    parser.add_argument("--seed", type=int, default=101)
    args = parser.parse_args(argv)
    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"] if "bound" in m}
    runs = run_pairs({"parent": args.parent, "change": args.change}, args.workload,
                     args.pairs, args.seconds, args.seed, run)
    print(f"{args.workload}: {args.pairs} pairs of {args.seconds:g} s runs, seeds "
          f"{args.seed}..{args.seed + args.pairs - 1}")
    sys.stdout.write(report(runs, better, bounds))
    return 0


if __name__ == "__main__":
    sys.exit(main())
