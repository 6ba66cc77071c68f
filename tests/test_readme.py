"""README.md documents every input the program accepts: each subcommand, each
exit code with the prefix of its stderr line, each [backend] and [synth] key
and each trial label. A name the code accepts and README does not mention
fails here."""

import argparse
import ast
import inspect
from dataclasses import fields
from pathlib import Path

from recwhiten import cli, config, data, synth

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def missing(names) -> list[str]:
    return [name for name in names if f"`{name}`" not in README]


def test_every_subcommand():
    sub = next(action for action in cli.build_parser()._actions
               if isinstance(action, argparse._SubParsersAction))
    assert sub.choices and missing(sub.choices) == []


def exit_prefixes() -> dict[str, str]:
    """The EXIT_* name each except clause of cli.main returns, and the text
    its error line starts with."""
    prefixes = {}
    for handler in ast.walk(ast.parse(inspect.getsource(cli.main))):
        if isinstance(handler, ast.ExceptHandler):
            line = next(node for node in ast.walk(handler) if isinstance(node, ast.JoinedStr))
            returned = next(node for node in handler.body if isinstance(node, ast.Return))
            prefixes[returned.value.id] = line.values[0].value.strip()
    return prefixes


def test_every_exit_code_with_its_prefix():
    prefixes = exit_prefixes()
    codes = {name: getattr(cli, name) for name in dir(cli) if name.startswith("EXIT_")}
    assert set(prefixes) == set(codes) - {"EXIT_OK"}
    assert f"- `{cli.EXIT_OK}`: success" in README
    assert [name for name, prefix in prefixes.items()
            if f"- `{codes[name]}`, `{prefix}`" not in README] == []


def test_every_config_key():
    synth_keys = ["subcorpora" if f.name == "ood_subcorpora" else f.name
                  for f in fields(synth.SynthConfig)]
    assert missing([*config._BACKEND, *synth_keys]) == []


def test_every_label():
    assert missing(data.LABELS) == []
