"""Split the lines of Python files into code, docstring, comment and blank.

A docstring is the first statement of a module, class or function when that
statement is a string; every line it spans counts as docstring. A comment
line holds a `#` comment and nothing before it. A blank line, outside a
docstring, holds only whitespace. Every other line is code, so the four
counts of a file sum to its line count.

Usage: python3 tools/line_count.py [FILE ...]   (default: src/recwhiten/*.py)
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "recwhiten"
KINDS = ("code", "docstring", "comment", "blank")


def docstring_lines(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                yield from range(first.lineno, first.end_lineno + 1)


def count(text: str) -> dict[str, int]:
    """The number of lines of each kind in the source text of one file."""
    kind = ["blank" if not line.strip() else "code" for line in text.splitlines()]
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type == tokenize.COMMENT and not tok.line[:tok.start[1]].strip():
            kind[tok.start[0] - 1] = "comment"
    for line in docstring_lines(ast.parse(text)):
        kind[line - 1] = "docstring"
    return {k: kind.count(k) for k in KINDS}


def main(argv: list[str]) -> None:
    paths = [Path(p) for p in argv] or sorted(SRC.glob("*.py"))
    total = dict.fromkeys(KINDS, 0)
    print(f"{'file':<16}" + "".join(f"{k:>10}" for k in KINDS) + f"{'lines':>10}")
    for path in paths:
        counts = count(path.read_text(encoding="utf-8"))
        for k in KINDS:
            total[k] += counts[k]
        print(f"{path.name:<16}" + "".join(f"{counts[k]:>10}" for k in KINDS)
              + f"{sum(counts.values()):>10}")
    print(f"{'total':<16}" + "".join(f"{total[k]:>10}" for k in KINDS)
          + f"{sum(total.values()):>10}")


if __name__ == "__main__":
    main(sys.argv[1:])
