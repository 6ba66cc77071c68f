"""README.md documents every input the program accepts: each subcommand and
its options, each exit code with the prefix of its stderr line, each config
section, each [data], [backend] and [synth] key and each trial label. A name
the code accepts and README does not mention fails here, and so does an
example in README that the parsers refuse."""

import argparse
import ast
import inspect
import re
import shlex
from dataclasses import fields
from pathlib import Path

from recwhiten import cli, config, data, synth

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def missing(names) -> list[str]:
    return [name for name in names if f"`{name}`" not in README]


def subcommands() -> dict[str, argparse.ArgumentParser]:
    """The parser of each subcommand, by name."""
    return next(action for action in cli.build_parser()._actions
                if isinstance(action, argparse._SubParsersAction)).choices


def test_every_subcommand():
    sub = next(action for action in cli.build_parser()._actions
               if isinstance(action, argparse._SubParsersAction))
    assert sub.choices and missing(sub.choices) == []


def test_every_option():
    """README writes options in prose and in examples, so each is matched as a
    word: `--out` is not found in `--outdir`."""
    options = {option for parser in subcommands().values() for action in parser._actions
               if not isinstance(action, argparse._HelpAction)
               for option in action.option_strings}
    assert "--config" in options and [
        option for option in sorted(options)
        if not re.search(rf"(?<![\w-]){re.escape(option)}(?![\w-])", README)] == []


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


def test_every_section_and_data_key():
    assert [name for name in config._SECTIONS if f"`[{name}]`" not in README] == []
    assert missing(config._DATA) == []


def test_every_label():
    assert missing(data.LABELS) == []


def code_blocks(language: str) -> list[str]:
    return re.findall(rf"^```{language}\n(.*?)^```", README, re.M | re.S)


def test_examples_parse():
    """The ini block is a config that parses, and each `recwhiten` line of the
    sh blocks, continuations joined and comments dropped, a command line that
    parses; together they use every subcommand."""
    assert [config.parse_experiment_config(block) for block in code_blocks("ini")]
    lines = [shlex.split(line, comments=True)
             for block in code_blocks("sh") for line in block.replace("\\\n", " ").splitlines()]
    examples = [argv[1:] for argv in lines if argv[:1] == ["recwhiten"]]
    assert {cli.build_parser().parse_args(argv).command for argv in examples} == set(subcommands())
