"""Command-line front end.

Subcommands: pmf (analytic distributions), simulate (Monte Carlo replay),
compare (stacked vs. coarsened vs. smashed reachability), route (expected
traversal times plus optional policy replay), gen (sample a sequence to a
file).  Every command is deterministic given its full flag set including
the seed; diagnostics go to stderr, data to the output file or stdout.
Probabilities are printed with 12 significant digits; integers and
strings (latencies, counts, positions, the time grid) print as `str`.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import sys
from pathlib import Path

from . import __version__
from .analytics import (
    er_cut_latency_pmf,
    er_soa_latency_pmf,
    er_soa_location_pmf,
    mc_cut_latency_pmf,
    mc_soa_latency_pmf,
    reach_curve,
    smashed_curve,
)
from .models import (
    ErParams,
    MarkovParams,
    ModelSpec,
    UnderlyingGraph,
    _load_underlying,
    format_model_spec,
    sample_er_tgs,
    sample_markov_tgs,
)
from .routing import compute_mett, run_adaptive_route
from .simulate import _column_stats, default_horizon, reachable_pairs_samples, simulate_cut, simulate_soa
from .temporal import dump_tgs, format_tgs

SPEC_VERSION = "1"


def _write(path, text):
    if path is None:
        sys.stdout.write(text)
    else:
        Path(path).write_text(text)


def _csv(columns, header):
    """The CSV text of `header` over `columns`, a list of sequences of one
    length.

    A cell that is an `int` (a `bool` among them) or a `str` prints as
    `str`, any other with 12 significant digits (`%.12g`).  A column picks
    its conversion once from the types it holds; one that mixes the two
    kinds is converted cell by cell.  The cells are interleaved into one
    flat list, and the body is one `%` format of one line per row."""
    width, rows = len(columns), len(columns[0])
    codes, flat = [], [None] * (width * rows)
    for i, column in enumerate(columns):
        kinds = {issubclass(kind, (int, str)) for kind in set(map(type, column))}
        if len(kinds) > 1:
            column = [str(c) if isinstance(c, (int, str)) else "%.12g" % c for c in column]
        codes.append("%s" if True in kinds else "%.12g")
        flat[i::width] = column
    return ",".join(header) + "\n" + ((",".join(codes) + "\n") * rows) % tuple(flat)


def _latency_csv(emp):
    """The table of `emp`'s nonzero latencies and their counts."""
    latencies = emp.counts.nonzero()[0]
    return _csv([latencies.tolist(), emp.counts[latencies].tolist()], ["latency", "count"])


def _json_text(payload):
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _route_json_text(payload):
    """`_json_text(payload)` for a route payload, whose `nodes` block
    {str(id): {"mett": float or "inf", "policy": [int ids]}} is written node
    by node: `indent` drops json to its pure-Python encoder, which is several
    times slower on a large table."""
    blocks = []
    for key in sorted(payload["nodes"]):
        entry = payload["nodes"][key]
        mett, policy = entry["mett"], entry["policy"]
        mett = '"inf"' if mett == "inf" else float.__repr__(mett)
        policy = "[\n        " + ",\n        ".join(map(str, policy)) + "\n      ]" if policy else "[]"
        blocks.append(f'    "{key}": {{\n      "mett": {mett},\n      "policy": {policy}\n    }}')
    nodes = "{\n" + ",\n".join(blocks) + "\n  }" if blocks else "{}"
    return _json_text({**payload, "nodes": None}).replace('\n  "nodes": null', '\n  "nodes": ' + nodes, 1)


def _build_model(args, gu):
    if args.model == "er":
        for flag in ("q", "p0"):
            if getattr(args, flag) is not None:
                raise ValueError(f"--{flag} applies only to --model mc")
        return ModelSpec("er", ErParams(args.p), gu)
    if args.q is None:
        raise ValueError("--q is required with --model mc")
    try:
        p0 = None if args.p0 in (None, "stationary") else float(args.p0)
    except ValueError:
        raise ValueError(f"--p0 takes a probability or 'stationary', got {args.p0!r}") from None
    return ModelSpec("mc", MarkovParams(args.p, args.q, p0), gu)


def _analytic_pmf(spec, n, metric, max_latency):
    if spec.kind == "er":
        fn = er_soa_latency_pmf if metric == "soa" else er_cut_latency_pmf
        return fn(n, spec.params.p, max_latency)
    fn = mc_soa_latency_pmf if metric == "soa" else mc_cut_latency_pmf
    return fn(n, spec.params, max_latency)


def cmd_pmf(args):
    gu = UnderlyingGraph.line(args.n)
    spec = _build_model(args, gu)
    if args.location is not None:
        if spec.kind != "er" or args.metric != "soa":
            raise ValueError("--location applies to the er model with --metric soa")
        for flag, given in (("--cdf", args.cdf), ("--max-latency", args.max_latency is not None)):
            if given:
                raise ValueError(f"{flag} does not apply with --location")
        loc = er_soa_location_pmf(args.n, args.p, args.location)
        _write(args.output, _csv([range(1, args.n + 1), loc.masses], ["node", "probability"]))
        return 0
    if args.max_latency is not None and args.max_latency < 0:
        raise ValueError("--max-latency must be >= 0")
    pmf = _analytic_pmf(spec, args.n, args.metric, args.max_latency)
    column = list(itertools.accumulate(pmf.masses)) if args.cdf else pmf.masses
    header = ["t", "cdf" if args.cdf else "probability"]
    _write(args.output, _csv([pmf.support(), column], header))
    return 0


def cmd_simulate(args):
    gu = _load_underlying(args.gu, args.n)
    spec = _build_model(args, gu)
    if args.trials < 1:
        raise ValueError("--trials must be >= 1")
    source = 0 if args.source is None else args.source
    dest = len(gu.nodes) - 1 if args.dest is None else args.dest
    if args.horizon is not None and args.horizon < 1:
        raise ValueError("--horizon must be >= 1")
    horizon = default_horizon(len(gu.nodes), args.p) if args.horizon is None else args.horizon
    run = simulate_soa if args.metric == "soa" else simulate_cut
    emp = run(spec.params, gu, source, dest, horizon=horizon, trials=args.trials, seed=args.seed)
    _write(args.output, _latency_csv(emp))

    tv = None
    hops = abs(dest - source)
    if args.gu == "line" and hops >= 1:
        try:
            pmf = _analytic_pmf(spec, hops + 1, args.metric, None)
        except ValueError:  # outside the closed form's assumptions, or its tail is too long
            pass
        else:
            tv = emp.total_variation(pmf)
    summary = {
        "spec_version": SPEC_VERSION,
        "command": "simulate",
        "model": format_model_spec(spec),
        "metric": args.metric,
        "source": source,
        "dest": dest,
        "horizon": horizon,
        "trials": args.trials,
        "seed": args.seed,
        "undelivered": emp.undelivered,
        "mean": emp.mean() if emp.delivered() else None,
        "variance": emp.variance() if emp.delivered() else None,
        "tv_vs_analytic": tv,
    }
    summary_path = args.summary
    if summary_path is None and args.output is not None:
        summary_path = str(args.output) + ".json"
    _write(summary_path, _json_text(summary))
    return 0


def _parse_m_list(text):
    if not text:
        return []
    ms = []
    for tok in text.split(","):
        tok = tok.strip()
        if tok == "all":
            continue  # the fully smashed column is always emitted
        try:
            m = int(tok)
        except ValueError:
            m = 0
        if m < 1:
            raise ValueError(f"--m takes positive integers or 'all', got {tok!r}")
        if m in ms:
            raise ValueError(f"--m repeats block size {m}")
        ms.append(m)
    return ms


def cmd_compare(args):
    gu = _load_underlying(args.gu, args.n)
    spec = _build_model(args, gu)
    if args.t_max < 1:
        raise ValueError("--t-max must be >= 1")
    ms = _parse_m_list(args.m)
    grid = list(range(1, args.t_max + 1))
    header = ["t", "stg"] + [f"msmg_{m}" for m in ms] + ["smg"]
    if args.gu == "line":
        # The coarsened curve at t has taken t // m blocks.
        curves = {m: reach_curve(args.n, spec.params, m, args.t_max // m) for m in {1, *ms}}
        smg = smashed_curve(args.n, spec.params, args.t_max)
        coarsened = [[curves[m][t // m] for t in grid] for m in ms]
        _write(args.output, _csv([grid, curves[1][1:], *coarsened, smg[1:]], header))
        return 0
    if args.trials < 2:
        raise ValueError("--trials must be >= 2: standard errors need two trials")
    samples = reachable_pairs_samples(spec.params, gu, grid, args.trials, args.seed, ms=ms)
    stats = {view: _column_stats(samples[view]) for view in samples}
    columns = [grid, *stats["stacked"], *(stats[("msmg", m)][0] for m in ms), *stats["smashed"]]
    header = ["t", "stg", "stg_se"] + [f"msmg_{m}" for m in ms] + ["smg", "smg_se"]
    _write(args.output, _csv(columns, header))
    return 0


def cmd_route(args):
    gu = _load_underlying(f"file:{args.graph}", None)
    if args.horizon is not None and args.horizon < 1:
        raise ValueError("--horizon must be >= 1")
    if args.trials < 0:
        raise ValueError("--trials must be >= 0")
    for flag, value in (("--horizon", args.horizon), ("--pmf-output", args.pmf_output)):
        if value is not None and args.trials == 0:
            raise ValueError(f"{flag} applies only to the policy replay: give --trials >= 1")
    if args.source not in gu.nodes:
        raise ValueError(f"source {args.source} not in the graph")
    table = compute_mett(gu, args.p, args.dest)
    if math.isinf(table.mett.get(args.source, math.inf)):
        raise ValueError(f"destination {args.dest} is unreachable from {args.source}")
    payload = {"spec_version": SPEC_VERSION, "command": "route"}
    payload.update(table.to_json_dict())
    if args.trials > 0:
        emp = run_adaptive_route(
            gu, args.p, args.source, args.dest,
            horizon=args.horizon, trials=args.trials, seed=args.seed,
        )
        payload["trials"] = args.trials
        payload["seed"] = args.seed
        payload["undelivered"] = emp.undelivered
        payload["empirical_mean"] = emp.mean() if emp.delivered() else None
        payload["empirical_stderr"] = emp.stderr_mean() if emp.delivered() >= 2 else None
        payload["mett_source"] = table.mett[args.source]
        if args.pmf_output is not None:
            _write(args.pmf_output, _latency_csv(emp))
    _write(args.output, _route_json_text(payload))
    return 0


def cmd_gen(args):
    gu = _load_underlying(args.gu, args.n)
    spec = _build_model(args, gu)
    if args.horizon < 1:
        raise ValueError("--horizon must be >= 1")
    sampler = sample_er_tgs if spec.kind == "er" else sample_markov_tgs
    tgs = sampler(gu, spec.params, args.horizon, args.seed)
    if args.output is None:
        sys.stdout.write(format_tgs(tgs))
    else:
        dump_tgs(tgs, args.output)
    return 0


def _add_model_flags(sub):
    sub.add_argument("--model", choices=["er", "mc"], required=True)
    sub.add_argument("--n", type=int, required=True, help="node count")
    sub.add_argument("--p", type=float, required=True,
                     help="edge presence probability (er) or OFF->ON probability (mc)")
    sub.add_argument("--q", type=float, default=None, help="ON->OFF probability (mc only)")
    sub.add_argument("--p0", default=None,
                     help="initial ON probability for mc: a float or 'stationary'")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="tvgraph",
        description="Latency analysis, simulation, and adaptive routing on time-varying graphs",
    )
    parser.add_argument("--version", action="version", version=f"tvgraph {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)

    sp = subs.add_parser("pmf", help="analytic latency (or location) distribution on a line")
    _add_model_flags(sp)
    sp.add_argument("--metric", choices=["soa", "cut"], required=True)
    sp.add_argument("--max-latency", type=int, default=None)
    sp.add_argument("--cdf", action="store_true", help="emit cumulative masses (columns t,cdf)")
    sp.add_argument("--location", type=int, default=None,
                    help="emit the message-position distribution after this many slots instead")
    sp.add_argument("--output", default=None)
    sp.set_defaults(func=cmd_pmf)

    sp = subs.add_parser("simulate", help="Monte Carlo forwarding replay")
    _add_model_flags(sp)
    sp.add_argument("--gu", choices=["line", "complete"], default="line")
    sp.add_argument("--metric", choices=["soa", "cut"], required=True)
    sp.add_argument("--trials", type=int, required=True)
    sp.add_argument("--seed", type=int, default=0, help="RNG seed (default 0)")
    sp.add_argument("--horizon", type=int, default=None,
                    help="per-trial slot cap (default 20(n-1)/p)")
    sp.add_argument("--source", type=int, default=None)
    sp.add_argument("--dest", type=int, default=None)
    sp.add_argument("--output", default=None)
    sp.add_argument("--summary", default=None,
                    help="JSON summary path (defaults to <output>.json)")
    sp.set_defaults(func=cmd_simulate)

    sp = subs.add_parser("compare", help="stacked vs. coarsened vs. smashed reachability")
    _add_model_flags(sp)
    sp.add_argument("--gu", choices=["line", "complete"], default="line")
    sp.add_argument("--t-max", type=int, default=100, help="horizon grid 1..t-max (default 100)")
    sp.add_argument("--m", default="",
                    help="comma-separated block sizes, e.g. 1,2,5: a coarsened column each, under"
                         " either model ('all' = fully smashed, always emitted)")
    sp.add_argument("--trials", type=int, default=100, help="trials for the empirical mode (default 100)")
    sp.add_argument("--seed", type=int, default=0, help="RNG seed (default 0)")
    sp.add_argument("--output", default=None)
    sp.set_defaults(func=cmd_compare)

    sp = subs.add_parser("route", help="expected traversal times and adaptive-policy replay")
    sp.add_argument("--graph", required=True, help="single-slot sequence file (the candidate graph)")
    sp.add_argument("--p", type=float, required=True)
    sp.add_argument("--source", type=int, required=True)
    sp.add_argument("--dest", type=int, required=True)
    sp.add_argument("--trials", type=int, default=0, help="policy replay trials (default 0: table only)")
    sp.add_argument("--seed", type=int, default=0, help="RNG seed (default 0)")
    sp.add_argument("--horizon", type=int, default=None,
                    help="per-trial slot cap (default 20(n-1)/p)")
    sp.add_argument("--output", default=None)
    sp.add_argument("--pmf-output", default=None)
    sp.set_defaults(func=cmd_route)

    sp = subs.add_parser("gen", help="sample a sequence to the text format")
    _add_model_flags(sp)
    sp.add_argument("--gu", choices=["line", "complete"], default="line")
    sp.add_argument("--horizon", type=int, required=True)
    sp.add_argument("--seed", type=int, default=0, help="RNG seed (default 0)")
    sp.add_argument("--output", default=None)
    sp.set_defaults(func=cmd_gen)

    return parser


@functools.cache
def _parser():
    """One parser per process: building it costs some fifteen times a parse."""
    return build_parser()


def main(argv=None):
    args = _parser().parse_args(argv)
    try:
        if getattr(args, "seed", 0) < 0:  # every subcommand with --seed, before any work
            raise ValueError("--seed must be >= 0")
        return args.func(args)
    except (ValueError, OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
