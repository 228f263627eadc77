"""tools/code_lines.py, the code-line counter quoted for `src/`, on fixture
modules whose code lines are known by hand."""

import importlib.util
from pathlib import Path

_SPEC = importlib.util.spec_from_file_location(
    "code_lines", Path(__file__).resolve().parents[1] / "tools" / "code_lines.py")
code_lines = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(code_lines)


def count(tmp_path, text, name="fixture.py"):
    path = tmp_path / name
    path.write_text(text)
    return code_lines.code_lines(path)


def test_comments_and_blank_lines_are_not_counted(tmp_path):
    text = "# a comment\n\n\nx = 1  # a trailing comment\n    \n# another\ny = [\n    # inside\n    2,\n]\n"
    assert count(tmp_path, text) == 4  # x = 1, y = [, 2, ]


def test_docstrings_are_not_counted(tmp_path):
    text = '''"""Module docstring
over two lines."""


class A:
    """Class docstring."""

    x = 1


def f():
    """Function docstring
    over two lines."""
    return 1


async def g():
    """Async function docstring."""
    return 2
'''
    assert count(tmp_path, text) == 6  # class A, x = 1, def f, return 1, async def g, return 2
    # behind a statement the module's string is no docstring: its two lines count
    assert count(tmp_path, "x = 1\n" + text) == 1 + 2 + 6


def test_a_string_that_is_not_a_docstring_counts_every_line(tmp_path):
    text = '''def f():
    """Docstring."""
    text = """three
lines
here"""
    """a bare string, but not the first statement:
    two lines"""
    return text
'''
    assert count(tmp_path, text) == 1 + 3 + 2 + 1


def test_main_prints_each_module_and_the_total(tmp_path, capsys):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "a.py").write_text('"""Doc."""\nx = 1\n')
    (tmp_path / "b.py").write_text("# only a comment\ny = 2\nz = 3\n")
    assert code_lines.main([str(tmp_path)]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert rows == [["2", "b.py"], ["1", "pkg/a.py"], ["3", "total"]]
