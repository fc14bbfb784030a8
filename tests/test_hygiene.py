"""Dead-code guard: every private module-level function and constant of the library is used.

Public names are not checked, because tests use some of them as oracles.
"""

import ast
from collections import defaultdict
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "greenp2"


def _private_definitions(tree):
    """(name, node) for each private module-level function and constant."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names = [node.target.id]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                yield name, node


def _unreferenced_private_names(src_dir):
    trees = {
        path.stem: ast.parse(path.read_text(encoding="utf-8"))
        for path in sorted(src_dir.glob("*.py"))
    }
    # name -> ids of the nodes that refer to it (loads, attributes, imports)
    refs = defaultdict(set)
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                refs[node.id].add(id(node))
            elif isinstance(node, ast.Attribute):
                refs[node.attr].add(id(node))
            elif isinstance(node, ast.alias):
                refs[node.name].add(id(node))
    unused = []
    for module, tree in trees.items():
        for name, node in _private_definitions(tree):
            own = {id(inner) for inner in ast.walk(node)}
            if not refs[name] - own:
                unused.append((f"{module}.{name}", isinstance(node, ast.FunctionDef)))
    return unused


def test_private_functions_are_referenced():
    assert [name for name, is_function in _unreferenced_private_names(SRC) if is_function] == []


def test_private_constants_are_referenced():
    assert [name for name, is_function in _unreferenced_private_names(SRC) if not is_function] == []
