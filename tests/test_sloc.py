"""tools/sloc.py: code lines without comments, docstrings or blanks."""

import importlib.util
import pathlib

TOOL = pathlib.Path(__file__).resolve().parent.parent / "tools" / "sloc.py"
_spec = importlib.util.spec_from_file_location("sloc", TOOL)
sloc = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(sloc)

SAMPLE = '''"""Module docstring,
over two lines."""

import os  # a comment after code counts

# a comment alone does not


def f(x):
    """Docstring."""
    text = """a multi-line
string that is a value"""
    "a bare string statement"
    return (x +
            1)


class C:
    """Class docstring."""
    y = 1
'''


def test_counts_code_lines_only(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text(SAMPLE)
    # import, def, text = (2 lines), return (2 lines), class, y = 1
    assert sloc.code_lines(path) == 8


def test_the_total_sums_every_module(tmp_path, capsys):
    for name in ("a.py", "b.py"):
        (tmp_path / name).write_text("x = 1\n\n# note\ny = 2\n")
    assert sloc.main([str(tmp_path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split() for line in lines] == [
        ["2", f"{tmp_path.name}/a.py"], ["2", f"{tmp_path.name}/b.py"], ["4", "total"]]
