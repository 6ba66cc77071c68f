"""The benchmark pins the source of the package functions it rebuilds:
`sources` in bench/reference.json maps each `module.function` name to the
SHA-256 of its `inspect.getsource` text, and `bench/run.py --trace 1` fails
when one differs. This test makes the same comparison in tier 1, so that an
edit to a pinned function fails here too. Without `sources` there is nothing
to check.
"""

import hashlib
import importlib
import inspect
import json
from pathlib import Path

REFERENCE = Path(__file__).resolve().parent.parent / "bench" / "reference.json"


def pinned() -> dict[str, str]:
    with open(REFERENCE, encoding="utf-8") as fh:
        return json.load(fh).get("sources", {})


def digest(qualified: str) -> str:
    module, _, name = qualified.rpartition(".")
    source = inspect.getsource(getattr(importlib.import_module(module), name))
    return hashlib.sha256(source.encode()).hexdigest()


def test_pinned_sources_unchanged():
    sources = pinned()
    assert {name: digest(name) for name in sources} == sources
