"""tools/output_digests.py, the harness that shows outputs kept their bytes."""

import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "output_digests.py"


def run_tool(*args):
    argv = [sys.executable, str(TOOL), *map(str, args)]
    return subprocess.run(argv, capture_output=True, text=True, cwd=ROOT)


def test_two_runs_print_the_same_digest_of_every_output():
    first, second = run_tool(ROOT / "src"), run_tool()
    assert first.returncode == 0, first.stderr
    lines = first.stdout.splitlines()
    assert second.returncode == 0 and second.stdout.splitlines() == lines
    assert all(re.fullmatch(r"[0-9a-f]{64}  \S+", line) for line in lines)
    names = [line.split()[1] for line in lines]
    assert len(set(names)) == len(names) >= 20
    # the line graph's er sample, as test_gen_writes_pinned_bytes pins it
    assert "29101038ba9c1443fd3d6ed005ee27866bbe4a2f8e9e39cb523c6ea6a7135e8d  gen_line.tgs" in lines


def test_a_failing_command_exits_1(tmp_path):
    package = tmp_path / "tvgraph"
    package.mkdir()
    (package / "__init__.py").write_text("")
    (package / "cli.py").write_text("def main(argv):\n    return 1\n")
    res = run_tool(tmp_path)
    assert res.returncode == 1 and res.stdout == ""
    assert res.stderr.startswith("command failed: pmf ")
