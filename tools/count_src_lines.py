"""Count the lines of the package source: all lines, and code lines.

Code lines are the lines of ``src/oscim/*.py`` that hold something other
than a docstring, a comment or whitespace.  Docstrings are the string
statements that open a module, class or function (found with ``ast``);
comments and blank lines are found with ``tokenize``.

Run from anywhere:  python tools/count_src_lines.py [SRC_DIR]
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "oscim"


def docstring_lines(tree: ast.AST) -> set[int]:
    """Line numbers spanned by the docstrings of a module and its definitions."""
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr)
                    and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def code_lines(text: str) -> int:
    """Lines holding a token that is not a comment, outside every docstring."""
    skip = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENDMARKER}
    lines: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in skip:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstring_lines(ast.parse(text)))


def main(argv: list[str]) -> int:
    src = Path(argv[0]) if argv else SRC
    total = code = 0
    for path in sorted(src.glob("*.py")):
        text = path.read_text(encoding="utf-8")
        n_all, n_code = len(text.splitlines()), code_lines(text)
        total += n_all
        code += n_code
        print(f"{path.name:24s} {n_all:6d} {n_code:6d}")
    print(f"{'total (all, code)':24s} {total:6d} {code:6d}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
