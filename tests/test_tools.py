"""tools/count_src_lines.py: the line counts that measure the package's size."""

import ast
import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "count_src_lines.py"

# 20 lines; code lines are 4, 9, 11-13, 16 and 20
MODULE = '''"""Module docstring
over two lines."""

import os  # a trailing comment leaves the line code

# a comment line


def f(x):
    """Function docstring."""
    text = """a multi-line string
that is not a docstring"""
    return x


class C:
    """Class
    docstring."""

    y = 1
'''


@pytest.fixture(scope="module")
def tool():
    spec = importlib.util.spec_from_file_location("count_src_lines", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_docstrings_comments_and_blanks_are_not_code(tool):
    assert tool.code_lines(MODULE) == 7


def test_docstring_lines_span_each_docstring(tool):
    assert tool.docstring_lines(ast.parse(MODULE)) == {1, 2, 10, 17, 18}


def test_main_totals_a_directory(tool, tmp_path, capsys):
    (tmp_path / "a.py").write_text(MODULE, encoding="utf-8")
    (tmp_path / "b.py").write_text("x = 1\n\n# c\n", encoding="utf-8")
    assert tool.main([str(tmp_path)]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert rows == [["a.py", "20", "7"], ["b.py", "3", "1"],
                    ["total", "(all,", "code)", "23", "8"]]
