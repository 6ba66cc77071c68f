"""No function without a caller: every top-level function and class and every
non-dunder method of the package is referred to somewhere in the package.

A reference is a name, an attribute or an imported name equal to the
definition's own name, so two definitions of one name share their callers.
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
    """(qualified name, name) of each top-level function and class and each
    method of a top-level class whose name is not a dunder."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield f"{module}.{node.name}", node.name
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not (
                        item.name.startswith("__") and item.name.endswith("__")):
                    yield f"{module}.{node.name}.{item.name}", item.name


def references(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name


def test_every_definition_has_a_caller():
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(SRC.glob("*.py"))}
    referenced = {name for tree in trees.values() for name in references(tree)}
    defined = [d for module, tree in trees.items() for d in definitions(module, tree)]
    assert set(ALLOWED) <= {qualified for qualified, _ in defined}
    uncalled = [qualified for qualified, name in defined
                if name not in referenced and qualified not in ALLOWED]
    assert uncalled == []
    # an allowed definition that gains a caller leaves the list
    assert [q for q, name in defined if q in ALLOWED and name in referenced] == []
