"""The three workloads, each a fixed list of operations run back to back ("a pass").

An operation is one job a user of tvgraph runs: mostly `tvgraph.cli.main(argv)`
called in-process, and a direct library call where the CLI cannot reach the
operation.  Every operation's `--seed` comes from the benchmark seed, so a
seed fixes the inputs; the same seeds are used in every pass of a run.  Each
operation's output is checked against `oracle` after it returns, outside the
timed region; a check returns a list of problems, empty when the output is
right.

`tiny=True` shrinks every operation for the benchmark's own tests.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import oracle

WORKLOADS = ("line", "mesh", "route")


@dataclass
class Op:
    name: str
    call: Callable[[], Any]
    check: Callable[[Any], list]
    outputs: tuple = ()  # files the operation writes


@dataclass
class CliResult:
    code: int
    stdout: str
    stderr: str


class Workload:
    """Builds one workload's operations for a benchmark seed.

    Oracle values depend only on the inputs, so they are computed on first
    use and cached for the run; outputs are checked afresh after every pass.
    """

    def __init__(self, tvgraph, name, workdir, seed, tiny=False):
        self.tv = tvgraph
        self.dir = Path(workdir)
        self.seed = seed
        self.tiny = tiny
        self.state = {}
        self._cache = {}
        self._seeds = 0
        self.ops = {"line": _line, "mesh": _mesh, "route": _route}[name](self)

    def next_seed(self):
        self._seeds += 1
        return self.seed * 1000 + self._seeds

    def size(self, full, tiny):
        return tiny if self.tiny else full

    def path(self, name):
        return str(self.dir / name)

    def read(self, name):
        return (self.dir / name).read_text()

    def cached(self, key, make):
        if key not in self._cache:
            self._cache[key] = make()
        return self._cache[key]

    def cli(self, name, argv, check, outputs=()):
        argv = [str(a) for a in argv]

        def call():
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = self.tv.cli.main(argv)
            return CliResult(code, out.getvalue(), err.getvalue())

        def checked(res):
            if res.code != 0:
                return [f"exit code {res.code}: {res.stderr.strip()}"]
            return check()

        return Op(name, call, checked, tuple(self.path(f) for f in outputs))


# --- shared checks --------------------------------------------------------------


def _close(label, xs, got, want, rel=1e-8, abs_tol=1e-12):
    if len(got) != len(want):
        return [f"{label}: {len(got)} values, expected {len(want)}"]
    for x, g, e in zip(xs, got, want):
        if abs(g - e) > abs_tol + rel * abs(e):
            return [f"{label} at {x}: {g} vs oracle {e}"]
    return []


def _monotone(label, values):
    for i in range(1, len(values)):
        if values[i] < values[i - 1]:
            return [f"{label} decreases at row {i}: {values[i - 1]} -> {values[i]}"]
    return []


def _ordering(col, ms):
    """stacked <= coarsened <= smashed, at horizons that hold whole blocks
    (a coarsened curve drops the partial last block), and every curve
    non-decreasing in t."""
    problems = []
    ts = [int(t) for t in col["t"]]
    for name, values in col.items():
        if name != "t" and not name.endswith("_se"):
            problems += _monotone(name, values)
    for i, t in enumerate(ts):
        chain = [("stg", col["stg"][i])]
        chain += [(f"msmg_{m}", col[f"msmg_{m}"][i]) for m in ms if t % m == 0]
        chain.append(("smg", col["smg"][i]))
        for (a, x), (b, y) in zip(chain, chain[1:]):
            if x > y + 1e-12:
                problems.append(f"t={t}: {a} {x} > {b} {y}")
    return problems[:5]


def _pmf_check(w, fname, column, mass_at, offset, mean=None):
    """A `pmf` CSV against oracle masses (or, for column 'cdf', their running sum)."""
    col = oracle.columns(w.read(fname))
    ts = [int(t) for t in col["t"]]
    got = col[column]
    if not ts or ts[0] != offset:
        return [f"{fname}: support starts at {ts[:1]}, expected {offset}"]
    want = w.cached((fname, len(ts)), lambda: [mass_at(t) for t in ts])
    if column == "cdf":
        running, acc = [], 0.0
        for m in want:
            acc += m
            running.append(acc)
        problems = _close(fname, ts, got, running, abs_tol=1e-10)
        problems += _monotone(fname, got)
        if got[-1] < 1.0 - 1e-9:
            problems.append(f"{fname}: cdf ends at {got[-1]}")
        return problems
    problems = _close(fname, ts, got, want)
    total = math.fsum(got)
    if abs(total - 1.0) > 1e-9:
        problems.append(f"{fname}: masses sum to {total}")
    got_mean = math.fsum(t * m for t, m in zip(ts, got)) / total
    if abs(got_mean - mean) > 1e-7 * mean:
        problems.append(f"{fname}: mean {got_mean} vs closed form {mean}")
    return problems


def _histogram_check(label, counts, undelivered, trials, masses, mean):
    """A replay histogram against the true latency pmf: nothing undelivered,
    the mean within Z_MEAN stderr of the closed form, TV under its bound."""
    problems = []
    if undelivered:
        problems.append(f"{label}: {undelivered} undelivered")
    if sum(counts) + undelivered != trials:
        problems.append(f"{label}: counts sum to {sum(counts)}, expected {trials}")
        return problems
    n, got_mean, var = oracle.histogram_moments(counts)
    problems += oracle.mean_problem(label, got_mean, var, n, mean)
    tv, bound = oracle.tv_distance(counts, undelivered, masses), oracle.tv_bound(masses, trials)
    if tv > bound:
        problems.append(f"{label}: TV {tv} above bound {bound}")
    return problems


def _simulate_check(w, fname, trials, mass_at, mean):
    summary = json.loads(w.read(fname + ".json"))
    counts = oracle.histogram(w.read(fname))
    masses = w.cached(fname, lambda: oracle.masses_until(mass_at))
    problems = _histogram_check(fname, counts, summary["undelivered"], trials, masses, mean)
    if abs(summary["mean"] - oracle.histogram_moments(counts)[1]) > 1e-9 * mean:
        problems.append(f"{fname}: summary mean {summary['mean']} disagrees with the CSV")
    tv = summary["tv_vs_analytic"]
    own = oracle.tv_distance(counts, summary["undelivered"], masses)
    if tv is None or abs(tv - own) > 1e-9:
        problems.append(f"{fname}: tv_vs_analytic {tv}, oracle TV {own}")
    return problems


def _smashed_check(w, fname, col, n, trials, union_p):
    """The smashed union of t independent-edge slots is G(n, union_p(t)), so
    its mean connected-pair fraction is oracle.er_connected_pair_prob; a
    per-trial pair fraction has variance at most o(1 - o)."""
    for t, got in zip(col["t"], col["smg"]):
        want = w.cached((fname, "smg", t), lambda: oracle.er_connected_pair_prob(n, union_p(t)))
        tol = oracle.Z_MEAN * math.sqrt(want * (1.0 - want) / trials) + 1e-9
        if abs(got - want) > tol:
            return [f"{fname} t={t}: smashed fraction {got} vs oracle {want} (tol {tol})"]
    return []


def _gen_check(w, fname, expected, on, inflation=1.0):
    """The file equals the sampler called directly with the same seed, and the
    number of ON edge-slots is within Z_MEAN sd of a share `on` of all of them.
    `inflation` bounds the variance factor of edges correlated across slots."""
    n, slots = oracle.parse_tgs_text(w.read(fname))
    want = w.cached(fname, expected)
    if (n, slots) != want:
        return [f"{fname}: file differs from the sampler called directly"]
    w.state[fname] = slots
    cells = n * (n - 1) // 2 * len(slots)
    count = sum(len(edges) for edges in slots)
    sd = math.sqrt(cells * on * (1.0 - on) * inflation)
    if abs(count - cells * on) > oracle.Z_MEAN * sd + 1e-9:
        return [f"{fname}: {count} ON edge-slots, expected {cells * on} (sd {sd})"]
    return []


def _route_check(w, fname, graph, p, source, dest, trials):
    payload = json.loads(w.read(fname))
    n, slots = oracle.parse_tgs_text(w.read(graph))
    problems = oracle.mett_problems(n, slots[0], p, dest, payload["nodes"])
    if trials:
        if payload["undelivered"] or payload["trials"] != trials:
            problems.append(f"{fname}: {payload['undelivered']} of {payload['trials']} undelivered")
        mean, se, mett = payload["empirical_mean"], payload["empirical_stderr"], payload["mett_source"]
        if mett != payload["nodes"][str(source)]["mett"]:
            problems.append(f"{fname}: mett_source {mett} is not the table's METT")
        if abs(mean - mett) > oracle.Z_MEAN * se:
            problems.append(f"{fname}: empirical mean {mean} vs METT {mett} (stderr {se})")
    return problems


def _complete_mett_check(w, fname, p, dest):
    """On a complete graph every node's METT is 1/p, with the direct hop first in
    its policy: waiting for the edge to dest costs 1/p, and no neighbor is
    closer.  Other nodes tie at 1/p, so rounding may append some of them."""
    for v, entry in json.loads(w.read(fname))["nodes"].items():
        if int(v) != dest and (abs(entry["mett"] - 1.0 / p) > 1e-9 / p
                               or entry["policy"][:1] != [dest]):
            return [f"{fname}: node {v} has {entry}, expected METT {1.0 / p} via {dest}"]
    return []


# --- line -------------------------------------------------------------------------


def _line(w):
    """The paper's line: analytic PMFs and CDFs, plus the path-vectorized replay."""
    ops = []
    n, p, q = w.size(100, 30), 0.3, 0.2
    ops.append(w.cli(
        "pmf mc cut", ["pmf", "--model", "mc", "--n", n, "--p", p, "--q", q,
                       "--metric", "cut", "--output", w.path("pmf_mc_cut.csv")],
        lambda: _pmf_check(w, "pmf_mc_cut.csv", "probability",
                           lambda t: oracle.chain_cut_mass(n, p, q, t), 0,
                           oracle.chain_cut_mean(n, p, q)),
        ["pmf_mc_cut.csv"]))
    n2, p2 = w.size(30, 10), 0.05
    ops.append(w.cli(
        "pmf mc soa cdf", ["pmf", "--model", "mc", "--n", n2, "--p", p2, "--q", p2,
                           "--metric", "soa", "--cdf", "--output", w.path("pmf_mc_soa.csv")],
        lambda: _pmf_check(w, "pmf_mc_soa.csv", "cdf",
                           lambda t: oracle.chain_soa_mass(n2, p2, p2, t), n2 - 1),
        ["pmf_mc_soa.csv"]))

    n3, p3, ms = 10, 0.1, (1, 2, 5)

    def compare_er():
        col = oracle.columns(w.read("cmp_er.csv"))
        ts = [int(t) for t in col["t"]]

        def cut_cdf(pp, upto):
            return math.fsum(oracle.er_cut_mass(n3, pp, k) for k in range(upto))

        problems = _ordering(col, ms)
        problems += _close("stg", ts, col["stg"], [cut_cdf(p3, t) for t in ts], abs_tol=1e-10)
        for m in ms:
            pm = 1.0 - (1.0 - p3) ** m
            problems += _close(f"msmg_{m}", ts, col[f"msmg_{m}"],
                               [cut_cdf(pm, t // m) for t in ts], abs_tol=1e-10)
        problems += _close("smg", ts, col["smg"],
                           [(1.0 - (1.0 - p3) ** t) ** (n3 - 1) for t in ts], abs_tol=1e-10)
        if col["msmg_1"] != col["stg"]:
            problems.append("msmg_1 differs from stg")
        return problems

    ops.append(w.cli(
        "compare er line", ["compare", "--model", "er", "--n", n3, "--p", p3,
                            "--m", ",".join(map(str, ms)), "--output", w.path("cmp_er.csv")],
        lambda: w.cached(("cmp_er", w.read("cmp_er.csv")), compare_er),
        ["cmp_er.csv"]))

    n4, p4, t4 = w.size(100, 20), 0.1, w.size(500, 100)

    def compare_mc():
        col = oracle.columns(w.read("cmp_mc.csv"))
        ts = [int(t) for t in col["t"]]
        masses = [oracle.chain_cut_mass(n4, p4, p4, k) for k in range(t4)]
        stg, acc = [], 0.0
        for m in masses:
            acc += m
            stg.append(acc)
        problems = _ordering(col, ())
        problems += _close("stg", ts, col["stg"], stg, abs_tol=1e-10)
        smg = [(1.0 - 0.5 * (1.0 - p4) ** (t - 1)) ** (n4 - 1) for t in ts]
        return problems + _close("smg", ts, col["smg"], smg, abs_tol=1e-10)

    ops.append(w.cli(
        "compare mc line", ["compare", "--model", "mc", "--n", n4, "--p", p4, "--q", p4,
                            "--t-max", t4, "--output", w.path("cmp_mc.csv")],
        lambda: w.cached(("cmp_mc", w.read("cmp_mc.csv")), compare_mc),
        ["cmp_mc.csv"]))

    trials = w.size(20_000, 2_000)
    models = {
        "er": (["--p", 0.25], {"soa": lambda t: oracle.er_soa_mass(10, 0.25, t),
                               "cut": lambda t: oracle.er_cut_mass(10, 0.25, t)},
               {"soa": oracle.er_soa_mean(10, 0.25), "cut": oracle.er_cut_mean(10, 0.25)}),
        "mc": (["--p", 0.3, "--q", 0.2],
               {"soa": lambda t: oracle.chain_soa_mass(10, 0.3, 0.2, t),
                "cut": lambda t: oracle.chain_cut_mass(10, 0.3, 0.2, t)},
               {"soa": oracle.chain_soa_mean(10, 0.3, 0.2),
                "cut": oracle.chain_cut_mean(10, 0.3, 0.2)}),
    }
    for model, (flags, mass_at, mean) in models.items():
        for metric in ("soa", "cut"):
            fname = f"sim_{model}_{metric}.csv"
            ops.append(w.cli(
                f"simulate {model} {metric}",
                ["simulate", "--model", model, "--n", 10, *flags, "--metric", metric,
                 "--trials", trials, "--seed", w.next_seed(), "--output", w.path(fname)],
                lambda f=fname, ma=mass_at[metric], mu=mean[metric]:
                    _simulate_check(w, f, trials, ma, mu),
                [fname, fname + ".json"]))
    return ops


# --- mesh -------------------------------------------------------------------------


def _mesh(w):
    """General graphs: reachable-pair closure through the bitmask loop in
    `simulate` and through the object path in `temporal`, and the per-trial
    cut-through loop."""
    tv = w.tv
    ops = []
    trials1 = w.size(30, 8)
    p, q, p0 = 0.5, 0.05, 0.005

    def readme_check():
        col = oracle.columns(w.read("pairs_k20.csv"))
        return _ordering(col, ()) + _smashed_check(
            w, "pairs_k20.csv", col, 20, trials1, lambda t: 1.0 - (1.0 - p0) * (1.0 - p) ** (t - 1))

    ops.append(w.cli(
        "compare mc K20", ["compare", "--model", "mc", "--gu", "complete", "--n", 20,
                           "--p", p, "--q", q, "--p0", p0, "--t-max", 40, "--trials", trials1,
                           "--seed", w.next_seed(), "--output", w.path("pairs_k20.csv")],
        readme_check, ["pairs_k20.csv"]))

    trials2, p2 = w.size(8, 4), 0.01

    def k50_check():
        col = oracle.columns(w.read("pairs_k50.csv"))
        return _ordering(col, (2, 5)) + _smashed_check(
            w, "pairs_k50.csv", col, 50, trials2, lambda t: 1.0 - (1.0 - p2) ** t)

    ops.append(w.cli(
        "compare er K50", ["compare", "--model", "er", "--gu", "complete", "--n", 50,
                           "--p", p2, "--t-max", 100, "--m", "2,5", "--trials", trials2,
                           "--seed", w.next_seed(), "--output", w.path("pairs_k50.csv")],
        k50_check, ["pairs_k50.csv"]))

    # Cut-through on K_n under independent churn: every non-destination node
    # is alike, so each slot delivers with r = P(node ~ dest in G(n, p)) and
    # the latency is Geometric(r) from 0.
    trials3, p3 = w.size(400, 100), 0.05

    def k20_masses():
        r = oracle.er_connected_pair_prob(20, p3)
        return oracle.masses_until(lambda t: r * (1.0 - r) ** t)

    def k20_check():
        masses = w.cached("k20_masses", k20_masses)
        summary = json.loads(w.read("sim_k20.csv.json"))
        mean = math.fsum(t * m for t, m in enumerate(masses))
        return _histogram_check("sim_k20.csv", oracle.histogram(w.read("sim_k20.csv")),
                                summary["undelivered"], trials3, masses, mean)

    ops.append(w.cli(
        "simulate cut K20", ["simulate", "--model", "er", "--gu", "complete", "--n", 20,
                             "--p", p3, "--metric", "cut", "--trials", trials3,
                             "--seed", w.next_seed(), "--output", w.path("sim_k20.csv")],
        k20_check, ["sim_k20.csv", "sim_k20.csv.json"]))

    # An unnamed line falls to the per-trial loop, but its latency law is the line's.
    trials4, p4 = w.size(400, 100), 0.25
    line = tv.models.UnderlyingGraph(tuple(range(10)), tuple((i, i + 1) for i in range(9)))
    seed4 = w.next_seed()

    def unnamed_check(emp):
        masses = w.cached("line_cut", lambda: oracle.masses_until(
            lambda t: oracle.er_cut_mass(10, p4, t)))
        return _histogram_check("simulate_cut unnamed line", [int(c) for c in emp.counts],
                                emp.undelivered, trials4, masses, oracle.er_cut_mean(10, p4))

    ops.append(Op("simulate_cut unnamed line", lambda: tv.simulate.simulate_cut(
        tv.models.ErParams(p4), line, 0, 9, trials=trials4, seed=seed4), unnamed_check))

    horizon, seed5, pk, qk = w.size(600, 60), w.next_seed(), 0.005, 0.5

    def direct_sample():
        tgs = tv.models.sample_markov_tgs(
            tv.models.UnderlyingGraph.complete(30), tv.models.MarkovParams(pk, qk), horizon, seed5)
        return 30, [g.edges for g in tgs]

    ops.append(w.cli(
        "gen mc K30", ["gen", "--model", "mc", "--gu", "complete", "--n", 30, "--p", pk,
                       "--q", qk, "--horizon", horizon, "--seed", seed5,
                       "--output", w.path("k30.tgs")],
        # A stationary chain's ON count over T slots has variance at most
        # T pi (1 - pi) (1 + lam) / (1 - lam), lam = 1 - p - q.
        lambda: _gen_check(w, "k30.tgs", direct_sample, pk / (pk + qk),
                           (2.0 - pk - qk) / (pk + qk)),
        ["k30.tgs"]))

    def load():
        w.state["tgs"] = tv.temporal.load_tgs(w.path("k30.tgs"))
        return w.state["tgs"]

    def load_check(tgs):
        slots = w.state["k30.tgs"]
        if [g.edges for g in tgs] != slots or tgs.node_ids != frozenset(range(30)):
            return ["load_tgs disagrees with the file"]
        return []

    ops.append(Op("load_tgs", load, load_check))

    def pairs_check(frac):
        if not 0 <= frac <= 1:
            return [f"reachable pairs fraction {frac}"]
        return []

    def plain():
        w.state["plain"] = tv.temporal.reachable_pairs_fraction(w.state["tgs"])
        return w.state["plain"]

    ops.append(Op("reachable_pairs_fraction", plain, pairs_check))

    def coarse():
        coarse = tv.temporal.m_smash(w.state["tgs"], 5)
        w.state["coarse"] = tv.temporal.reachable_pairs_fraction(coarse)
        return coarse

    def coarse_check(seq):
        slots = w.state["k30.tgs"]
        blocks = [frozenset().union(*slots[i:i + 5]) for i in range(0, len(slots), 5)]
        if [g.edges for g in seq] != blocks:
            return ["m_smash(., 5) blocks are not the unions of five slots"]
        if w.state["coarse"] < w.state["plain"]:
            return [f"5-smashed pairs {w.state['coarse']} < stacked {w.state['plain']}"]
        return pairs_check(w.state["coarse"])

    ops.append(Op("m_smash + reachable_pairs_fraction", coarse, coarse_check))

    def smash_check(smg):
        slots = w.state["k30.tgs"]
        union = frozenset().union(*slots)
        if frozenset(smg.edges) != union:
            return ["smash edges are not the union of the slots"]
        full = oracle.connected_pair_fraction(30, union)
        if w.state["coarse"] > full:
            return [f"5-smashed pairs {w.state['coarse']} > smashed {full}"]
        return []

    ops.append(Op("smash", lambda: tv.temporal.smash(w.state["tgs"]), smash_check))

    late, early, t_early = (7, 15, 29), (5, 12, 19, 27), 15

    def journeys():
        """stacked_reachable((0, 1), (v, T)) next to t_reachable over slots 1..T,
        for T the whole horizon and an early slot where some nodes are unreached."""
        tgs = w.state["tgs"]
        stg = tv.temporal.build_stacked(tgs)
        prefix = tv.temporal.GraphletSequence(tgs.graphlets[:t_early])
        queries = [(v, tgs) for v in late] + [(v, prefix) for v in early]
        return [(v, seq.horizon, tv.temporal.stacked_reachable(stg, (0, 1), (v, seq.horizon)),
                 tv.temporal.t_reachable(seq, 0, v)) for v, seq in queries]

    def journeys_check(results):
        slots = w.state["k30.tgs"]
        reach = {t: oracle.journey_reach(slots[:t], 0) for t in (t_early, len(slots))}
        problems = []
        for v, t, stacked, (reachable, journey) in results:
            if stacked != (v in reach[t]):
                problems.append(f"stacked_reachable((0,1),({v},{t})) = {stacked}")
            if reachable != stacked:
                problems.append(f"t_reachable(0, {v}) over {t} slots = {reachable}")
            elif reachable:
                problems += oracle.journey_problems(slots, 0, v, journey)
        return problems

    ops.append(Op("build_stacked + journeys", journeys, journeys_check))
    return ops


# --- route ------------------------------------------------------------------------


def _route(w):
    """METT routing: the Dijkstra-style table alone, and with the adaptive replay."""
    tv = w.tv
    ops = []
    graphs = [  # n, edge probability of the candidate graph, churn p, replay trials
        (w.size(150, 30), 1.0, 0.1, 0),
        (50, 1.0, 0.1, w.size(20_000, 2_000)),
        (w.size(500, 100), w.size(0.03, 0.1), 0.3, w.size(5_000, 500)),
    ]
    for n, density, p, trials in graphs:
        graph, table = f"g{n}.tgs", f"route{n}.json"
        seed = w.next_seed()

        def direct(n=n, density=density, seed=seed):
            tgs = tv.models.sample_er_tgs(
                tv.models.UnderlyingGraph.complete(n), tv.models.ErParams(density), 1, seed)
            return n, [tgs[0].edges]

        ops.append(w.cli(
            f"gen G({n}, {density})",
            ["gen", "--model", "er", "--gu", "complete", "--n", n, "--p", density,
             "--horizon", 1, "--seed", seed, "--output", w.path(graph)],
            lambda g=graph, d=direct, on=density: _gen_check(w, g, d, on), [graph]))

        def check(n=n, density=density, p=p, trials=trials, graph=graph, table=table):
            problems = _route_check(w, table, graph, p, 0, n - 1, trials)
            if density == 1.0:
                problems += _complete_mett_check(w, table, p, n - 1)
            return problems

        argv = ["route", "--graph", w.path(graph), "--p", p, "--source", 0, "--dest", n - 1,
                "--output", w.path(table)]
        if trials:
            argv += ["--trials", trials, "--seed", w.next_seed()]
        ops.append(w.cli(f"route G({n}, {density})", argv, check, [table]))
    return ops
