"""Dead-code guard: every private module-level function of the library is used.

Public names are not checked, because tests use some of them as oracles.
"""

import ast
from collections import defaultdict
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "greenp2"


def _unreferenced_private_functions(src_dir):
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
        for node in tree.body:
            if not isinstance(node, ast.FunctionDef) or not node.name.startswith("_"):
                continue
            own = {id(inner) for inner in ast.walk(node)}
            if not refs[node.name] - own:
                unused.append(f"{module}.{node.name}")
    return unused


def test_private_functions_are_referenced():
    assert _unreferenced_private_functions(SRC) == []
