"""pyproject.toml admits Python 3.10, so every module of the package, and
every test file, parses with the 3.10 grammar: no syntax newer than 3.10 (an
`except*` clause, say)."""

import ast
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "recwhiten"


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")) + sorted(TESTS.glob("*.py")),
                         ids=lambda p: p.name)
def test_parses_with_the_python_3_10_grammar(path):
    ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=(3, 10))
