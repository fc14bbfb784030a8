"""Dead-code guard: every private module-level function and constant of the library is
used, and every error class is raised.  Every public module-level function and public
method is referenced outside its own definition and the package's re-export, by the
library, its demos or benchmark, or is a function the benchmark tracer patches; only the
documented API of ``_TESTED_API`` may be reached from tests alone, and test oracles live
in ``tests/``.  Error guard: no
handler catches more than the package's own errors.  Dependency guard: the library
imports no third-party module but numpy.  Tooling guard: every function the benchmark
tracer patches exists.  Cache guard: no function that takes a map carries a
process-wide cache; per-map structure lives on the map instance, so it dies with the
map and a cold copy recomputes it, and every function decorated with ``once_per_map``
takes the map alone, since its memo key is the function.  Memo-key guard: no key of a map's memo holds
a point or an array, since an identity key keeps its object alive and misses equal ones.
Iterate guard: the orbit reads and the exceptional structure compose no forms.
"""

import ast
import importlib
import importlib.util
import sys
from collections import defaultdict
from pathlib import Path

import numpy as np

from greenp2 import ProjMap, ProjPoint, configuration_map, exceptional_sets, roots_univariate, transition_matrix
from greenp2.multiplicities import contraction_order, jacobian_multiplicity, local_degree_step, orbit_report
from greenp2.polys import HomogPoly3

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "greenp2"


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


def _public_definitions(tree):
    """(name, node) for each public module-level function and each public method."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            functions = [inner for inner in node.body if isinstance(inner, ast.FunctionDef)]
        elif isinstance(node, ast.FunctionDef):
            functions = [node]
        else:
            continue
        for function in functions:
            if not function.name.startswith("_"):
                yield function.name, function


def _parse(paths):
    return {path: ast.parse(path.read_text(encoding="utf-8")) for path in paths}


def _references(trees):
    """name -> ids of the nodes that refer to it (loads, attributes, imports)."""
    refs = defaultdict(set)
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                refs[node.id].add(id(node))
            elif isinstance(node, ast.Attribute):
                refs[node.attr].add(id(node))
            elif isinstance(node, ast.alias):
                refs[node.name].add(id(node))
    return refs


def _unreferenced(trees, definitions, refs):
    unused = []
    for path, tree in trees.items():
        for name, node in definitions(tree):
            own = {id(inner) for inner in ast.walk(node)}
            if not refs[name] - own:
                unused.append((f"{path.stem}.{name}", isinstance(node, ast.FunctionDef)))
    return unused


def _unreferenced_private_names(src_dir):
    trees = _parse(sorted(src_dir.glob("*.py")))
    return _unreferenced(trees, _private_definitions, _references(trees.values()))


def _unreferenced_public_names(root, folders=("tests", "demos", "perfbench"), reached=()):
    """Public functions and methods of ``root``'s library that neither the library nor
    the modules of ``folders`` use, less those named in ``reached``; the package
    ``__init__`` only re-exports, so its imports are no use."""
    src_dir = root / "src" / "greenp2"
    library = _parse(path for path in sorted(src_dir.glob("*.py")) if path.name != "__init__.py")
    users = _parse(path for folder in folders for path in sorted((root / folder).glob("*.py")))
    refs = _references([*library.values(), *users.values()])
    unused = [name for name, _ in _unreferenced(library, _public_definitions, refs)]
    return [name for name in unused if name.split(".")[-1] not in reached]


def _tracer_targets(root):
    """``perfbench/tracer.py``'s TARGETS, loaded as the benchmark loads them."""
    spec = importlib.util.spec_from_file_location("perfbench_tracer", root / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = tracer  # dataclasses look their module up here
    try:
        spec.loader.exec_module(tracer)
    finally:
        del sys.modules[spec.name]
    return tracer.TARGETS


#: public names that only tests reach, kept as documented API, with the reason
_TESTED_API = {
    "multiplicities.local_degree": "the local degree of f^n, the third of the module's three quantities",
    "potentials.curve_potential": "the one-point pullback potential whose L1 distance equidist_distance averages",
}


def _public_names_reached_only_from_tests(root):
    """Public functions and methods that only ``tests/`` reaches: the tracer's targets
    count as uses, since the benchmark patches them by name."""
    targets = {target.path.split(".")[-1] for target in _tracer_targets(root)}
    return _unreferenced_public_names(root, ("demos", "perfbench"), targets)


def test_private_functions_are_referenced():
    assert [name for name, is_function in _unreferenced_private_names(SRC) if is_function] == []


def test_private_constants_are_referenced():
    assert [name for name, is_function in _unreferenced_private_names(SRC) if not is_function] == []


def test_public_functions_and_methods_are_referenced():
    assert _unreferenced_public_names(ROOT) == []


def test_public_names_are_reached_outside_tests():
    """No public option of the library exists for tests alone: what only they call is
    an oracle and belongs in ``tests/``, unless ``_TESTED_API`` names it.  An entry
    there that something outside the tests reaches is stale."""
    assert sorted(_public_names_reached_only_from_tests(ROOT)) == sorted(_TESTED_API)


def _raised_error_classes(src_dir):
    """Classes of errors.py that some raise statement of the library raises, with their bases."""
    tree = ast.parse((src_dir / "errors.py").read_text(encoding="utf-8"))
    bases = {
        node.name: [b.id for b in node.bases if isinstance(b, ast.Name)]
        for node in tree.body
        if isinstance(node, ast.ClassDef)
    }
    raised = set()
    for path in src_dir.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                raised.add(getattr(exc, "id", getattr(exc, "attr", None)))
    # raising a subclass raises its bases too
    stack = [name for name in raised if name in bases]
    while stack:
        for base in bases[stack.pop()]:
            if base in bases and base not in raised:
                raised.add(base)
                stack.append(base)
    return bases, raised


def test_error_classes_are_raised():
    bases, raised = _raised_error_classes(SRC)
    assert sorted(set(bases) - raised) == []


def test_no_broad_except():
    broad = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ExceptHandler):
                caught = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
                if any(c is None or getattr(c, "id", None) in ("Exception", "BaseException") for c in caught):
                    broad.append(f"{path.name}:{node.lineno}")
    assert broad == []


def test_runtime_imports_numpy_only():
    outside = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.split(".")[0]
                if top != "numpy" and top != "__future__" and top not in sys.stdlib_module_names:
                    outside.append(f"{path.name}:{node.lineno} {name}")
    assert outside == []


_CACHE_DECORATORS = ("lru_cache", "cache")


def _is_process_cache(decorator):
    """``lru_cache``, ``cache``, ``functools.lru_cache(...)`` and the like."""
    target = decorator.func if isinstance(decorator, ast.Call) else decorator
    return getattr(target, "id", getattr(target, "attr", None)) in _CACHE_DECORATORS


def _takes_map(arg):
    """A parameter annotated ``ProjMap``, or named ``f`` as the library names its maps."""
    note = arg.annotation
    names = {getattr(n, "id", getattr(n, "attr", None)) for n in ast.walk(note)} if note else set()
    return "ProjMap" in names or arg.arg == "f"


def _map_functions_with_process_cache(tree):
    methods = {
        id(node)
        for cls in ast.walk(tree)
        if isinstance(cls, ast.ClassDef) and cls.name == "ProjMap"
        for node in cls.body
    }
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args.posonlyargs + node.args.args + node.args.kwonlyargs
            takes_map = id(node) in methods or any(_takes_map(a) for a in args)
            if takes_map and any(_is_process_cache(d) for d in node.decorator_list):
                found.append(node.name)
    return found


def test_cache_guard_flags_map_functions():
    source = """
import functools
from functools import cache, lru_cache

@lru_cache(maxsize=None)
def exponents(degree: int): ...

@functools.lru_cache(maxsize=None)
def factors(f: ProjMap): ...

@cache
def images(g: ProjMap | None, tol=1e-7): ...

@functools.cache
def orbits(f): ...

class ProjMap:
    @functools.lru_cache
    def fixed_points(self): ...
"""
    assert _map_functions_with_process_cache(ast.parse(source)) == ["factors", "images", "orbits", "fixed_points"]


def test_no_process_cache_on_map_functions():
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        found += [f"{path.name}:{name}" for name in _map_functions_with_process_cache(tree)]
    assert found == []


def _once_per_map_arities(tree):
    """(name, parameter count) of each function decorated with ``once_per_map``."""
    return [
        (node.name, len(node.args.posonlyargs + node.args.args + node.args.kwonlyargs)
         + bool(node.args.vararg) + bool(node.args.kwarg))
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and any(getattr(d, "id", getattr(d, "attr", None)) == "once_per_map" for d in node.decorator_list)
    ]


def test_once_per_map_functions_take_the_map_alone():
    """The memo key of a ``once_per_map`` function is the function alone, so a
    second parameter would get the value of the first call's arguments."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        found += [(f"{path.name}:{name}", n) for name, n in _once_per_map_arities(ast.parse(path.read_text()))]
    assert len(found) >= 5 and [entry for entry in found if entry[1] != 1] == []
    assert _once_per_map_arities(ast.parse("@maps.once_per_map\ndef g(f, n=2): ...")) == [("g", 2)]


def test_tracer_targets_resolve():
    """A renamed library function would otherwise break ``perfbench/run.py --trace 1``."""
    spec = importlib.util.spec_from_file_location("perfbench_tracer", ROOT / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = tracer  # dataclasses look their module up here
    try:
        spec.loader.exec_module(tracer)
    finally:
        del sys.modules[spec.name]
    missing = []
    for target in tracer.TARGETS:
        owner = importlib.import_module(target.module)
        *cls, name = target.path.split(".")
        if cls:
            owner = getattr(owner, cls[0], None)
        # the tracer patches a classmethod through its function
        entry = vars(owner).get(name) if owner is not None else None
        if not callable(getattr(entry, "__func__", entry)):
            missing.append(f"{target.module}:{target.path}")
    assert len(tracer.TARGETS) >= 40 and missing == []


def _key_parts(key):
    """Everything a memo key holds, through nested tuples."""
    if isinstance(key, tuple):
        for part in key:
            yield from _key_parts(part)
    else:
        yield key


def _read_orbits_and_structure(f):
    """Horizon-3 reports at three fixed points, the exceptional sets, and the
    criterion-03 triple at the roots of J on a seeded line."""
    rng = np.random.default_rng(3)
    for p, _ in f.fixed_points()[:3]:
        orbit_report(f, p, 3)
    exceptional_sets(f)
    b1, b2 = (v / np.linalg.norm(v) for v in rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3)))
    for cl in roots_univariate(f.lift_jacobian.restrict_line(b1, b2)).clusters:
        p = ProjPoint(b1 + cl.root * b2)
        jacobian_multiplicity(f, p, 1), contraction_order(f, p, 1), local_degree_step(f, p)


def test_memo_keys_hold_values_not_objects():
    f = configuration_map("1-1-incident", 3, 1000)
    _read_orbits_and_structure(f)
    parts = [part for key in f._memo for part in _key_parts(key)]
    assert sum(isinstance(part, bytes) for part in parts) > 10
    assert [part for part in parts if isinstance(part, (ProjPoint, np.ndarray))] == []


def test_no_composed_iterates(monkeypatch):
    """The orbit reads work from the germs of f at each orbit point, and the
    exceptional structure from f itself: on a cold map no form is composed."""
    maps = [configuration_map(row, d, 1000) for row, d in (("1-1-incident", 3), ("2-3", 2), ("1-0", 2))]
    calls = []
    compose = HomogPoly3.compose

    def counted(self, triple):
        calls.append(self.degree)
        return compose(self, triple)

    monkeypatch.setattr(HomogPoly3, "compose", counted)
    for f in maps:
        f = ProjMap(f.components, f.nondegeneracy_residual)
        _read_orbits_and_structure(f)
        transition_matrix(f)
    assert calls == []
