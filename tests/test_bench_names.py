"""Every package name the benchmark child uses still exists.

bench/child.py imports the package, loads attributes of its modules and
swaps module globals through `spans_around(tr, module, {name: label})`. A
rename in the package breaks it only when the benchmark runs, so this test
reads the child's source with ast and looks each of those names up.
"""

import ast
import importlib
from pathlib import Path

CHILD = Path(__file__).resolve().parent.parent / "bench" / "child.py"


def module(name: str):
    """The imported module of that name, None if there is none."""
    try:
        return importlib.import_module(name)
    except ImportError:
        return None


def used_names(tree: ast.Module) -> list[tuple[str, str]]:
    """(module, name) of each recwhiten import ('' for an imported module),
    each attribute loaded from an imported package module, and each key of a
    dict handed to spans_around, inline or as a module-level name."""
    modules, used = {}, []
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "recwhiten":
                    modules[alias.asname or alias.name] = alias.name
                    used.append((alias.name, ""))
        elif isinstance(node, ast.ImportFrom) and node.module.split(".")[0] == "recwhiten":
            for alias in node.names:
                used.append((node.module, alias.name))
                if module(f"{node.module}.{alias.name}") is not None:
                    modules[alias.asname or alias.name] = f"{node.module}.{alias.name}"
    constants = {target.id: node.value for node in tree.body if isinstance(node, ast.Assign)
                 for target in node.targets if isinstance(target, ast.Name)}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
                and isinstance(node.value, ast.Name) and node.value.id in modules):
            used.append((modules[node.value.id], node.attr))
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id == "spans_around"):
            _, swapped, labels = node.args
            labels = constants.get(labels.id) if isinstance(labels, ast.Name) else labels
            assert isinstance(labels, ast.Dict), ast.unparse(node)
            used += [(modules[swapped.id], key.value) for key in labels.keys]
    return used


def missing(used: list[tuple[str, str]]) -> list[str]:
    """Each used module or module.name that the package lacks."""
    return [f"{m}.{n}" if n else m for m, n in used
            if module(m) is None or n and not hasattr(module(m), n)]


def test_every_name_the_bench_child_uses_exists():
    used = used_names(ast.parse(CHILD.read_text(encoding="utf-8")))
    # an import, a module attribute and a key of each spans_around call were read
    assert {("recwhiten.data", "load_trials"), ("recwhiten.plda", "score_matrix"),
            ("recwhiten.experiment", "fit_recursive"),
            ("recwhiten.whitening", "select_subcorpus")} <= set(used)
    assert missing(used) == []


def test_a_renamed_name_is_missing():
    tree = ast.parse("import recwhiten.gone\n"
                     "from recwhiten import whitening\n"
                     "from recwhiten.data import load_trials, load_tables\n"
                     "SPANS = {'select_subcorpus': 's', 'pick_subcorpus': 'p'}\n"
                     "whitening.transform_set\n"
                     "whitening.transform_sets\n"
                     "spans_around(tr, whitening, SPANS)\n")
    assert missing(used_names(tree)) == [
        "recwhiten.gone", "recwhiten.data.load_tables", "recwhiten.whitening.transform_sets",
        "recwhiten.whitening.pick_subcorpus"]
