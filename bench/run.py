"""tvgraph benchmark: one closed-loop caller runs a workload's pass back to back.

    python3 bench/run.py --workload line --seed 1 --seconds 30 --trace 0

Run from the root of a tvgraph checkout; the library is imported from
`src/`.  One process, no threads: set-up, then one untimed warm-up pass,
then passes until `--seconds` have gone by.  Every operation's output is
checked after it returns (see workloads.py).  The last line of stdout is
one JSON object: {"correct", "attempted", "failed", "metrics"}.

End-to-end metrics (`--trace 0`, no tracer installed):
  setup_s      median over SETUP_LAUNCHES launches, spread through the run,
               of a fresh interpreter that imports tvgraph and numpy and
               makes the scratch directory: launch to where a pass would start
  job_p50_probes   median over passes of one pass's wall time divided by
                   the speed probe timed just before it: pass time in units
                   of a fixed piece of work (see SpeedProbe)
  job_tail_probes  highest percentile of that ratio with at least ten passes
                   beyond it (the percentile and pass count are printed)
  peak_rss_mb      peak resident memory of this process

The two job metrics are relative because the host they were made on (a few
shared cores) changes speed by a third or more for seconds to minutes at a
time, and a pass's wall time follows it; the probe follows it too, so the
ratio holds still while the wall time does not.  The probe runs no tvgraph
code, so a change to tvgraph moves the ratio as it moves the wall time.  The
wall times themselves, job_p50_s and job_tail_s, are printed and recorded
next to them.

Per-layer metrics (`--trace 1`): traced and untraced passes alternate; see
tracing.py.  Each is a per-pass mean.  What each should move (job_p50 is
job_p50_probes, and job_p50_s with it):
  analytics.*, analytics.mc_*_latency_pmf.self_s -> job_p50, peak_rss_mb on line
  simulate.simulate_soa/simulate_cut.self_s, simulate.trial_slots[_per_s],
      simulate.undelivered -> job_p50 on all three, each through a different engine
  simulate.reachable_pairs_samples.self_s -> job_p50, peak_rss_mb on mesh
  routing.compute_mett.*, routing.run_adaptive_route.self_s -> job_p50 on route
  temporal.{io,views,journeys}.self_s, temporal.slot_edges -> job_p50 on mesh
  models.edge_draws, models.draws_per_s, models.self_s -> job_p50, setup_s
      on mesh and route (through gen)
  cli.calls, cli.self_s, cli.bytes_out -> job_p50 on route and line
  <layer>.calls, <layer>.self_s, trace.overhead_frac, trace.untraced_frac
      check the trace itself

Also printed: ops_failed_frac (failed / attempted operations; an operation
fails if it exits non-zero, raises, or fails its check), run metadata and a
machine-speed probe taken at the start and end of the run.  Run records and
spans go to `.bench_out/`.  `bench/report.py` runs all three workloads.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"
SETUP_LAUNCHES = 11  # spread over the run, so they see the same host phases as the passes
TAIL_BEYOND = 10

UNITS = {"setup_s": "s", "job_p50_probes": "probe", "job_tail_probes": "probe",
         "peak_rss_mb": "MB", "job_p50_s": "s", "job_tail_s": "s"}
END_TO_END = ("setup_s", "job_p50_probes", "job_tail_probes", "peak_rss_mb")


def load_tvgraph():
    """Import tvgraph from this checkout's src/, and only from there."""
    src = ROOT / "src"
    if not (src / "tvgraph" / "__init__.py").is_file():
        raise SystemExit(f"error: no tvgraph sources under {src}")
    sys.path.insert(0, str(src))
    import tvgraph
    import tvgraph.cli  # noqa: F401  (loads every layer module)

    if Path(tvgraph.__file__).resolve().parent != src / "tvgraph":
        raise SystemExit(f"error: imported tvgraph from {tvgraph.__file__}, not {src}")
    return tvgraph


def prepare():
    tvgraph = load_tvgraph()
    (OUT / "work").mkdir(parents=True, exist_ok=True)
    return tvgraph


def launch_setup():
    """Seconds from launching an interpreter to the end of prepare() in it."""
    start = time.perf_counter()
    with subprocess.Popen([sys.executable, __file__, "--setup-probe"], cwd=ROOT,
                          stdout=subprocess.PIPE, text=True) as child:
        line = child.stdout.readline()
        seconds = time.perf_counter() - start
        child.stdout.read()
    if child.returncode != 0 or line.strip() != "ready":
        raise SystemExit("error: the set-up probe failed")
    return seconds


class SpeedProbe:
    """A fixed piece of work in tvgraph's own mix: interpreter arithmetic,
    lookups in a dict of a few MB, and numpy gathers and prefix sums.  Timed
    before every untraced pass, and three times at the start and end of the
    run, so a slow phase of the host shows next to the results.  The mix
    matters: a slow phase of the host slows memory-bound work more than pure
    arithmetic, and the probe has to slow down as a pass does."""

    def __init__(self):
        import numpy

        self.numpy = numpy
        rnd = random.Random(0)
        self.table = {(rnd.randrange(10**9), i): i for i in range(20_000)}
        self.keys = list(self.table)
        rnd.shuffle(self.keys)
        gen = numpy.random.default_rng(0)
        self.values = gen.random(300_000)
        self.index = gen.integers(0, len(self.values), 100_000)

    def __call__(self, repeats=3):
        """Seconds for the work (median of `repeats`)."""
        times = []
        for _ in range(repeats):
            start = time.perf_counter()
            acc = 0
            for i in range(50_000):
                acc += i * i % 7
            for key in self.keys:
                acc += self.table[key]
            for _ in range(2):
                self.values[self.index].sum()
                self.numpy.cumsum(self.values)
            times.append(time.perf_counter() - start)
        return statistics.median(times)


def run_pass(ops, tally, tracer=None):
    """Run every operation once; returns the summed time of the operation calls."""
    total = 0.0
    for op in ops:
        if tracer is not None:
            tracer.active = True
        start = time.perf_counter()
        try:
            result, error = op.call(), None
        except Exception as exc:  # an operation that raises is a counted failure
            result, error = None, exc
        total += time.perf_counter() - start
        if tracer is not None:
            tracer.active = False
            if isinstance(result, workloads.CliResult):
                tracer.add({"cli.bytes_out": len(result.stdout.encode()) + sum(
                    os.path.getsize(f) for f in op.outputs if os.path.exists(f))})
        try:
            problems = [f"raised {error!r}"] if error is not None else op.check(result)
        except Exception as exc:  # a check that cannot read the output counts as a miss
            problems = [f"check raised {exc!r}"]
        tally["attempted"] += 1
        if problems:
            tally["failed"] += 1
            tally["problems"].append({"op": op.name, "problems": problems})
    return total


def tail(times):
    """(value, percentile): the highest percentile with TAIL_BEYOND passes beyond it."""
    ordered = sorted(times)
    k = max(0, len(ordered) - TAIL_BEYOND - 1)
    return ordered[k], 100.0 * (k + 1) / len(ordered)


def metadata(tvgraph, args):
    import numpy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")),
                       cpu)
    except OSError:
        pass
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    src_lines = sum(len(f.read_text().splitlines()) for f in (ROOT / "src").rglob("*.py"))
    return {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "cpu": cpu, "nproc": os.cpu_count(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "tvgraph": tvgraph.__version__, "commit": commit, "src_lines": src_lines}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    if argv is None and sys.argv[1:] == ["--setup-probe"]:
        prepare()
        print("ready", flush=True)
        return 0
    args = parser.parse_args(argv)

    tvgraph = prepare()
    setup_times = [launch_setup()]
    record = metadata(tvgraph, args)
    speed_probe = SpeedProbe()
    record["speed_probe_s"] = [speed_probe()]
    work = workloads.Workload(tvgraph, args.workload, OUT / "work", args.seed)
    tally = {"attempted": 0, "failed": 0, "problems": []}
    tracer = tracing.Tracer(tvgraph) if args.trace else None

    run_pass(work.ops, tally)  # warm-up: first-call costs and the oracle caches
    traced, untraced, probes = [], [], []
    start = time.perf_counter()
    deadline = start + args.seconds
    while time.perf_counter() < deadline or not untraced or (tracer is not None and not traced):
        due = len(setup_times) * args.seconds / SETUP_LAUNCHES
        if len(setup_times) < SETUP_LAUNCHES and time.perf_counter() - start >= due:
            setup_times.append(launch_setup())
        if tracer is not None and len(traced) <= len(untraced):
            tracer.install()
            try:
                traced.append(run_pass(work.ops, tally, tracer))
            finally:
                tracer.restore()
        else:
            probes.append(speed_probe(repeats=1))
            untraced.append(run_pass(work.ops, tally))
    while len(setup_times) < SETUP_LAUNCHES:
        setup_times.append(launch_setup())
    record["speed_probe_s"].append(speed_probe())
    setup_s = statistics.median(setup_times)

    relative = [t / probe for t, probe in zip(untraced, probes)]
    tail_rel, tail_pct = tail(relative)
    e2e = {"setup_s": setup_s, "job_p50_probes": statistics.median(relative),
           "job_tail_probes": tail_rel,
           "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
           "job_p50_s": statistics.median(untraced), "job_tail_s": tail(untraced)[0]}
    record.update(passes=len(untraced), traced_passes=len(traced), tail_percentile=tail_pct,
                  ops_per_pass=len(work.ops), attempted=tally["attempted"],
                  failed=tally["failed"], ops_failed_frac=tally["failed"] / tally["attempted"],
                  problems=tally["problems"][:20], pass_times_s=untraced, pass_probes_s=probes,
                  traced_pass_times_s=traced, setup_times_s=setup_times, end_to_end=e2e)
    if tracer is not None:
        layers = tracing.layer_metrics(tracer, traced, untraced)
        record["per_layer"] = layers
        metrics = {k: {"value": v, "unit": tracing.unit(k)} for k, v in layers.items()}
        tracer.write(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl.gz")
    else:
        metrics = {k: {"value": e2e[k], "unit": UNITS[k]} for k in END_TO_END}

    stem = f"run-{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=2) + "\n")
    print(f"{args.workload}: seed {args.seed}, {len(untraced)} untraced and {len(traced)} "
          f"traced passes of {len(work.ops)} operations; tail at p{tail_pct:.1f}")
    for key in ("cpu", "nproc", "python", "numpy", "tvgraph", "commit", "src_lines",
                "speed_probe_s"):
        print(f"  {key}: {record[key]}")
    print(f"  ops_failed_frac: {record['ops_failed_frac']} ({tally['failed']} of "
          f"{tally['attempted']})")
    for item in tally["problems"][:5]:
        print(f"  FAILED {item['op']}: {'; '.join(item['problems'])}", file=sys.stderr)
    shown = dict(e2e, **record.get("per_layer", {}))
    for key, value in shown.items():
        unit = UNITS.get(key) or tracing.unit(key)
        print(f"  {key:42s} {value:14.6g} {unit}")
    print(json.dumps({"correct": tally["failed"] == 0, "attempted": tally["attempted"],
                      "failed": tally["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
