"""Print the SHA-256 digest of every output of a fixed list of CLI commands.

    python tools/output_digests.py [SRC]    # SRC defaults to src/

imports tvgraph from SRC, writes HAND_WRITTEN into a temporary directory,
runs each command of COMMANDS in process through `tvgraph.cli.main` inside
it, and prints one "sha256  file" line per output file, in command order.
The commands cover every subcommand; line, complete and file graphs; the er
and mc models; bitset rows of one and of two words; cut-through replays of
one and of several trial blocks; CSV tables of no rows and of over a
thousand; sequence files with few and with long runs of empty slots; and
the route replay with --pmf-output, over a graph file as `gen` writes it
and over one written by hand, so both of the parser's paths are read.  It exits 1 if any command fails.

Run it on two source trees, say a checkout of a parent commit and the
working tree, and compare the lines: equal lines show that a change kept
the bytes of every output.
"""

from __future__ import annotations

import hashlib
import os
import sys
import tempfile
from pathlib import Path

# a graph file that is not in the form `gen` writes: a comment line, a blank
# line, a tab, a doubled space and a reversed edge line
HAND_WRITTEN = ("hand.tgs", "# a candidate graph written by hand\ntgs 8 1\n\nt 1\ne 0 1\ne\t0 2\n"
                "e 1  3\ne 3 2\ne 2 4\ne 5 3\ne 4 5\ne 5 6\ne 6 7\ne 4 7\n")

# (argv, the files it writes); every command is seeded, so its bytes are fixed
COMMANDS = [
    ("pmf --model er --n 10 --p 0.25 --metric soa --max-latency 40 --output pmf_er_soa.csv",
     ["pmf_er_soa.csv"]),
    ("pmf --model er --n 8 --p 0.3 --metric cut --cdf --output pmf_er_cut_cdf.csv", ["pmf_er_cut_cdf.csv"]),
    ("pmf --model er --n 9 --p 0.4 --metric soa --location 5 --output pmf_location.csv",
     ["pmf_location.csv"]),
    ("pmf --model mc --n 6 --p 0.3 --q 0.2 --metric soa --output pmf_mc_soa.csv", ["pmf_mc_soa.csv"]),
    ("pmf --model mc --n 6 --p 0.3 --q 0.2 --metric cut --max-latency 30 --output pmf_mc_cut.csv",
     ["pmf_mc_cut.csv"]),
    ("simulate --model er --n 8 --p 0.3 --metric soa --trials 2000 --seed 3 --output sim_er_soa.csv",
     ["sim_er_soa.csv", "sim_er_soa.csv.json"]),
    ("simulate --model mc --gu complete --n 7 --p 0.2 --q 0.4 --metric cut --trials 500 --seed 4"
     " --output sim_mc_cut.csv", ["sim_mc_cut.csv", "sim_mc_cut.csv.json"]),
    ("simulate --model er --gu complete --n 6 --p 0.2 --metric cut --trials 500 --seed 5"
     " --source 1 --dest 4 --output sim_er_cut.csv", ["sim_er_cut.csv", "sim_er_cut.csv.json"]),
    ("compare --model er --n 6 --p 0.3 --t-max 12 --m 2,3 --output compare_line.csv", ["compare_line.csv"]),
    ("compare --model mc --gu complete --n 8 --p 0.1 --q 0.3 --t-max 10 --m 2 --trials 30 --seed 6"
     " --output compare_mc.csv", ["compare_mc.csv"]),
    ("compare --model er --gu complete --n 9 --p 0.05 --t-max 8 --trials 20 --seed 7"
     " --output compare_er.csv", ["compare_er.csv"]),
    # n = 70 puts two 64-bit words in every bitset row of the closure
    ("compare --model er --gu complete --n 70 --p 0.01 --t-max 10 --m 2,3 --trials 10 --seed 8"
     " --output compare_er70.csv", ["compare_er70.csv"]),
    # 435 candidate edges make CUT_CELLS // 435 = 301 trials a block, so 700 trials span 3
    ("simulate --model er --gu complete --n 30 --p 0.01 --metric cut --trials 700 --seed 9"
     " --output sim_er_cut_blocks.csv", ["sim_er_cut_blocks.csv", "sim_er_cut_blocks.csv.json"]),
    # every trial is undelivered within the horizon: a header-only table
    ("simulate --model er --n 10 --p 0.1 --metric soa --trials 50 --horizon 5 --seed 1"
     " --output sim_undelivered.csv", ["sim_undelivered.csv", "sim_undelivered.csv.json"]),
    ("pmf --model mc --n 30 --p 0.05 --q 0.05 --metric soa --cdf --output pmf_mc_cdf.csv", ["pmf_mc_cdf.csv"]),
    ("gen --model er --n 12 --p 0.4 --horizon 50 --seed 2 --output gen_line.tgs", ["gen_line.tgs"]),
    ("gen --model mc --gu complete --n 12 --p 0.3 --q 0.2 --p0 0.05 --horizon 30 --seed 2"
     " --output gen_mc.tgs", ["gen_mc.tgs"]),
    # 20 of 200 slots hold an edge: slot lines placed across long runs of empty slots
    ("gen --model er --n 6 --p 0.02 --horizon 200 --seed 3 --output gen_sparse.tgs", ["gen_sparse.tgs"]),
    ("gen --model er --gu complete --n 40 --p 0.15 --horizon 1 --seed 5 --output graph.tgs", ["graph.tgs"]),
    ("route --graph graph.tgs --p 0.5 --source 3 --dest 7 --output route_table.json", ["route_table.json"]),
    ("route --graph graph.tgs --p 0.3 --source 0 --dest 39 --trials 400 --seed 1 --output route.json"
     " --pmf-output route_pmf.csv", ["route.json", "route_pmf.csv"]),
    ("route --graph hand.tgs --p 0.4 --source 0 --dest 7 --trials 500 --seed 3 --output route_hand.json"
     " --pmf-output route_hand_pmf.csv", ["route_hand.json", "route_hand_pmf.csv"]),
]


def digests(src):
    """The "sha256  file" lines of every output of COMMANDS, run with the
    tvgraph under `src`; raises RuntimeError naming the first command that
    fails."""
    sys.path.insert(0, str(Path(src).resolve()))
    from tvgraph import cli

    lines = []
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            Path(HAND_WRITTEN[0]).write_text(HAND_WRITTEN[1])
            for argv, outputs in COMMANDS:
                if cli.main(argv.split()) != 0:
                    raise RuntimeError(f"command failed: {argv}")
                lines += [f"{hashlib.sha256(Path(out).read_bytes()).hexdigest()}  {out}" for out in outputs]
        finally:
            os.chdir(cwd)
    return lines


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    try:
        lines = digests(argv[0] if argv else "src")
    except RuntimeError as exc:
        print(exc, file=sys.stderr)
        return 1
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
