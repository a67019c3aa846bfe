"""The package's public surface is the surface the package uses.

Every public module-level function and class in ``src/finsym`` must be
referenced (as a name or an attribute) by finsym code outside
``__init__``, be wrapped by the benchmark tracer (``perfbench/tracing.py``
``TRACED``), or be listed below with the reason it stays.  The same holds
one level down: every public method or property of a public class must be
referenced as an attribute (``obj.name``).  A function that only tests
call is a second entry point for a quantity the package computes
elsewhere; delete it, or give the reason here.
"""

import ast
import importlib.util
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src", "finsym")
TRACING_PATH = os.path.join(ROOT, "perfbench", "tracing.py")

ALLOWED: dict[str, str] = {}


def _trees():
    out = {}
    for fname in sorted(os.listdir(SRC)):
        if fname.endswith(".py"):
            path = os.path.join(SRC, fname)
            with open(path, encoding="utf-8") as fh:
                out[fname[:-3]] = ast.parse(fh.read(), path)
    return out


def _public_definitions(trees):
    return [f"{module}.{node.name}" for module, tree in trees.items()
            for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and not node.name.startswith("_")]


def _public_methods(trees):
    return [f"{module}.{cls.name}.{node.name}"
            for module, tree in trees.items()
            for cls in tree.body
            if isinstance(cls, ast.ClassDef) and not cls.name.startswith("_")
            for node in cls.body
            if isinstance(node, ast.FunctionDef)
            and not node.name.startswith("_")]


def _used_names(trees):
    used = set()
    for module, tree in trees.items():
        if module == "__init__":
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return used


def _used_attributes(trees):
    return {node.attr for module, tree in trees.items() if module != "__init__"
            for node in ast.walk(tree) if isinstance(node, ast.Attribute)}


def _traced():
    spec = importlib.util.spec_from_file_location("finsym_perfbench_tracing",
                                                  TRACING_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return set(module.TRACED)


def test_every_public_name_is_used_by_the_package():
    trees = _trees()
    used, traced = _used_names(trees), _traced()
    unused = [name for name in _public_definitions(trees)
              if name.partition(".")[2] not in used
              and name not in traced and name not in ALLOWED]
    assert unused == []


def test_every_public_method_is_used_by_the_package():
    trees = _trees()
    used, traced = _used_attributes(trees), _traced()
    unused = [name for name in _public_methods(trees)
              if name.rpartition(".")[2] not in used
              and name not in traced and name not in ALLOWED]
    assert unused == []


def test_allowlist_names_only_unused_definitions():
    trees = _trees()
    used = _used_names(trees)
    defined = set(_public_definitions(trees)) | set(_public_methods(trees))
    for name in ALLOWED:
        assert name in defined, name
        assert name.rpartition(".")[2] not in used, name
