"""The hkdd names that the benchmark's traced run wraps and its probes
import still exist, so that `perfbench/run.py --trace 1` keeps working,
and every other top-level name of the package has a user. perfbench/ is
only read: its modules are imported without writing bytecode next to them,
and tracing.install() is never called."""

import ast
import importlib
import sys
from pathlib import Path

import hkdd

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def import_perfbench(name: str, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    return importlib.import_module(name)


def test_every_traced_name_resolves(monkeypatch):
    tracing = import_perfbench("tracing", monkeypatch)
    missing = [
        f"{layer}.{fn}"
        for layer, fns in tracing.TARGETS.items()
        for fn in fns
        if not callable(getattr(importlib.import_module(f"hkdd.{layer}"), fn, None))
    ]
    assert missing == []
    from hkdd import linalg
    from hkdd.polynomial import AlgebraicReal

    assert callable(AlgebraicReal.refined) and callable(linalg.bilinear)


def test_probes_import(monkeypatch):
    probes = import_perfbench("probes", monkeypatch)
    assert probes.PROBES and all(map(callable, probes.PROBES.values()))


def test_catalogue_lattices_are_nondegenerate(monkeypatch):
    # search refuses det G = 0 with exit 2; no catalogue job may meet that
    from hkdd import linalg

    inputs = import_perfbench("inputs", monkeypatch)
    for seed in (1, 2, 3, 29):
        files, _ = inputs.build("catalogue", seed, 40)
        grams = [obj["gram"] for obj in files.values() if isinstance(obj, dict) and "gram" in obj]
        assert grams
        assert all(linalg.det_bareiss(g) != 0 for g in grams)


def test_every_top_level_def_has_a_user(monkeypatch):
    # a def or class of src/hkdd is referenced outside its own body, bound in
    # hkdd/__init__.py, wrapped by the traced run, or a cmd_* command
    tracing = import_perfbench("tracing", monkeypatch)
    trees = {path.stem: ast.parse(path.read_text()) for path in Path(hkdd.__file__).parent.glob("*.py")}
    exported = {alias.asname or alias.name for node in trees["__init__"].body
                if isinstance(node, ast.ImportFrom) for alias in node.names}

    def referenced(name, own_body):
        return any(
            (isinstance(node, ast.Name) and node.id == name or isinstance(node, ast.Attribute) and node.attr == name)
            and id(node) not in own_body
            for tree in trees.values()
            for node in ast.walk(tree)
        )

    unused = [
        f"{module}.{node.name}"
        for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and node.name not in exported
        and node.name not in tracing.TARGETS.get(module, ())
        and not node.name.startswith("cmd_")
        and not referenced(node.name, {id(inner) for inner in ast.walk(node)})
    ]
    assert unused == []
