"""Every function, class and method in the package has a reader outside the tests.

A definition passes when the package or its demos name it, as a name or an
attribute, somewhere outside its own body, or when the benchmark tracer's
LAYERS wraps it. A name only tests call, or only docstrings and ``__all__``
mention, fails.
"""

import ast
import importlib.util
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "kingman"
DEMOS = ROOT / "demos"
TRACER = ROOT / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _definitions(node, prefix=""):
    """(qualified name, node) of each function and class under `node`."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield prefix + child.name, child
            yield from _definitions(child, f"{prefix}{child.name}.")
        else:
            yield from _definitions(child, prefix)


def _names_read(node) -> Counter:
    """How often each name is read under `node`, as a name or an attribute."""
    return Counter(
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(node)
        if isinstance(n, (ast.Name, ast.Attribute)) and isinstance(n.ctx, ast.Load)
    )


def _parse(path):
    return ast.parse(path.read_text(encoding="utf-8"))


def test_every_definition_has_a_reader_outside_the_tests():
    traced = {(module, path) for module, path, _ in _load_tracer().LAYERS.values()}
    modules = {
        "kingman" if f.stem == "__init__" else f"kingman.{f.stem}": _parse(f)
        for f in sorted(PACKAGE.glob("*.py"))
    }
    demos = [_parse(f) for f in sorted(DEMOS.glob("*.py"))]
    reads = sum((_names_read(tree) for tree in [*modules.values(), *demos]), Counter())
    unread = [
        f"{module}.{qualname}"
        for module, tree in modules.items()
        for qualname, node in _definitions(tree)
        if not (node.name.startswith("__") and node.name.endswith("__"))
        and reads[node.name] == _names_read(node)[node.name]
        and (module, qualname) not in traced
    ]
    assert len(modules) > 5 and not unread, unread
