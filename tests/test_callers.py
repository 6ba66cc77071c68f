"""No function without a caller: every top-level function and class and every
non-dunder method of the package is referred to somewhere in the package.

A method or property is referred to only through an attribute load
(`obj.name`). A top-level function or class is referred to only through a
loaded name (`name`, or `module.name` for a module of the package imported
with `from . import module`) or an imported name (`from .module import name`).
A local variable, a parameter or an assigned attribute that shares the name
is not a reference. Two definitions of one name and kind share their callers.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "recwhiten"

# definitions the package does not refer to, each with the reason it stays
ALLOWED = {
    "cli._Parser.error": "argparse calls it on a usage error",
    "plda.save_plda": "run-experiment is to write plda_level{k}.txt (ROADMAP item 4)",
}


def definitions(module: str, tree: ast.Module):
    """(qualified name, name, is a method) of each top-level function and class
    and each method of a top-level class whose name is not a dunder."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield f"{module}.{node.name}", node.name, False
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not (
                        item.name.startswith("__") and item.name.endswith("__")):
                    yield f"{module}.{node.name}.{item.name}", item.name, True


def references(tree: ast.Module):
    """(name, is an attribute load) of each reference a module makes: loaded
    and imported names, `module.name` of an imported package module counted
    as a name, and the name of every other attribute load."""
    modules = {alias.asname or alias.name for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.level and node.module is None
               for alias in node.names}
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id, False
        elif isinstance(node, ast.alias):
            yield node.name, False
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            qualified = isinstance(node.value, ast.Name) and node.value.id in modules
            yield node.attr, not qualified


def test_every_definition_has_a_caller():
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(SRC.glob("*.py"))}
    referenced = {ref for tree in trees.values() for ref in references(tree)}
    defined = [d for module, tree in trees.items() for d in definitions(module, tree)]
    assert set(ALLOWED) <= {qualified for qualified, _, _ in defined}
    called = {qualified for qualified, name, method in defined if (name, method) in referenced}
    assert [q for q, _, _ in defined if q not in called and q not in ALLOWED] == []
    # an allowed definition that gains a caller leaves the list
    assert sorted(called & set(ALLOWED)) == []


def test_the_rule_counts_only_references_of_the_same_kind():
    """A local variable or a stored attribute is no caller of a method or a
    function of its name; a method call is no caller of a function."""
    tree = ast.parse("from . import plda\n"
                     "model_ids, key = plda.f(x)\n"
                     "obj.dim = key\n"
                     "obj.g()\n")
    assert set(references(tree)) == {("plda", False), ("f", False), ("x", False),
                                     ("key", False), ("obj", False), ("g", True)}
