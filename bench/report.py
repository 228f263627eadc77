"""Run every workload untraced and traced, and print every metric with its unit.

    python3 bench/report.py --seed 1 --seconds 30

Each run is a separate `bench/run.py` process, so peak memory is per workload.
Every run checks every operation's output; the report ends with the counts.
The full run records stay in `.bench_out/`.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import workloads

RUN = Path(__file__).resolve().parent / "run.py"
OUT = RUN.parent.parent / ".bench_out"


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    args = parser.parse_args()
    table, failed, attempted = {}, {}, {}
    for name in workloads.WORKLOADS:
        for trace in (0, 1):
            argv = [sys.executable, str(RUN), "--workload", name, "--seed", str(args.seed),
                    "--seconds", str(args.seconds), "--trace", str(trace)]
            proc = subprocess.run(argv, capture_output=True, text=True, check=True)
            sys.stderr.write(proc.stderr)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            failed[name] = failed.get(name, 0) + result["failed"]
            attempted[name] = attempted.get(name, 0) + result["attempted"]
            for metric, entry in result["metrics"].items():
                table.setdefault(metric, {})[name] = entry
            if trace == 0:
                record = json.loads((OUT / f"run-{name}-seed{args.seed}-trace0.json").read_text())
                for metric, key, unit in (("job_tail_percentile", "tail_percentile", "%"),
                                          ("passes", "passes", "count")):
                    table.setdefault(metric, {})[name] = {"value": record[key], "unit": unit}
                for metric in ("job_p50_s", "job_tail_s"):  # wall times, next to the ratios
                    table.setdefault(metric, {})[name] = {"value": record["end_to_end"][metric],
                                                          "unit": "s"}
    table["ops_failed_frac"] = {name: {"value": failed[name] / attempted[name], "unit": "fraction"}
                                for name in workloads.WORKLOADS}
    print(f"\n{'metric':42s}" + "".join(f"{name:>14s}" for name in workloads.WORKLOADS) + "  unit")
    for metric, row in table.items():
        unit = next(iter(row.values()))["unit"]
        cells = "".join(f"{row[name]['value']:14.6g}" for name in workloads.WORKLOADS)
        print(f"{metric:42s}{cells}  {unit}")
    print(f"\noperations failed: {sum(failed.values())} of {sum(attempted.values())}")
    return 1 if sum(failed.values()) else 0


if __name__ == "__main__":
    sys.exit(main())
