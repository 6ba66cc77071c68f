"""tools/line_count.py: every line of a file falls in exactly one of its four
kinds, and the kinds follow its definitions."""

import importlib.util
import textwrap
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
spec = importlib.util.spec_from_file_location("line_count", ROOT / "tools" / "line_count.py")
line_count = importlib.util.module_from_spec(spec)
spec.loader.exec_module(line_count)


@pytest.mark.parametrize("path", sorted((ROOT / "src" / "recwhiten").glob("*.py"))
                         + [ROOT / "tools" / "line_count.py"], ids=lambda p: p.name)
def test_the_four_counts_sum_to_the_line_count(path):
    text = path.read_text(encoding="utf-8")
    assert sum(line_count.count(text).values()) == len(text.splitlines())


def test_each_kind_by_its_definition():
    text = textwrap.dedent('''\
        """Module docstring,

        three lines."""
        # a whole-line comment
        import os  # a trailing comment is code


        class A:
            """Class docstring."""

            def f(self):
                """Function docstring."""
                s = """not a docstring:
                # not a comment either"""
                return s
        ''')
    assert line_count.count(text) == {"code": 6, "docstring": 5, "comment": 1, "blank": 3}
