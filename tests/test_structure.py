"""Package structure: every module imports first in a fresh interpreter,
every import sits at module top, where an import cycle cannot hide, and
every name the package exports has a use."""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "trop"
SOURCES = sorted(PACKAGE.glob("*.py"))
MODULES = ["trop"] + [f"trop.{p.stem}" for p in SOURCES if p.stem != "__init__"]


def _fresh_python(code):
    path = os.pathsep.join(filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        timeout=60,
    )


@pytest.mark.parametrize("module", MODULES)
def test_module_imports_first(module):
    proc = _fresh_python(f"import {module}")
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("module", ["trop", "trop.cli"])
def test_import_loads_no_dataclasses_or_inspect(module):
    # dataclasses imports inspect, ast, dis and tokenize, a third of the
    # start-up of every trop process; the records are named tuples
    proc = _fresh_python(
        f"import sys; before = set(sys.modules); import {module}; "
        "print(*sorted({'dataclasses', 'inspect'} & (set(sys.modules) - before)))"
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == []


RECORDS = [
    ("trop.greens", "GreenVerdict"),
    ("trop.duality", "IsoDescriptor"),
    ("trop.harness", "EntryPool"),
    ("trop.harness", "HarnessConfig"),
    ("trop.harness", "Failure"),
    ("trop.harness", "RunReport"),
]


@pytest.mark.parametrize("module, name", RECORDS, ids=[name for _, name in RECORDS])
def test_every_record_is_a_named_tuple(module, name):
    # one record idiom: a named tuple subclass that declares no slot of
    # its own, so fields are read-only and ==, hash and repr cover them all
    record = getattr(importlib.import_module(module), name)
    assert issubclass(record, tuple) and vars(record).get("__slots__") == ()


@pytest.mark.parametrize("source", SOURCES, ids=lambda p: p.name)
def test_no_function_local_imports(source):
    tree = ast.parse(source.read_text())
    top = {id(node) for node in tree.body}
    nested = [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom)) and id(node) not in top
    ]
    assert not nested, f"imports below module top at lines {nested}"


@pytest.mark.parametrize(
    "source", [p for p in SOURCES if p.name != "__init__.py"], ids=lambda p: p.name
)
def test_no_unused_imports(source):
    # __init__.py is exempt: it imports names to re-export them
    tree = ast.parse(source.read_text())
    imported = {
        (alias.asname or alias.name).split(".")[0]: node.lineno
        for node in tree.body
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
    }
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = sorted((line, name) for name, line in imported.items() if name not in used)
    assert not unused, f"unused imports (line, name): {unused}"


PACKED_FORMAT = {"pack", "_box", "_of", "_pack", "_packed", "_boxed", "_family"}


@pytest.mark.parametrize(
    "source", [p for p in SOURCES if p.name != "linalg.py"], ids=lambda p: p.name
)
def test_only_linalg_reads_the_packed_format(source):
    # other modules hand vectors and matrices to linalg and never see the
    # packed form, so a change of the format stays inside linalg.py
    tree = ast.parse(source.read_text())
    found = sorted(
        {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
         for alias in node.names if alias.name in PACKED_FORMAT}
        | {node.attr for node in ast.walk(tree)
           if isinstance(node, ast.Attribute) and node.attr in PACKED_FORMAT}
    )
    assert not found, f"packed-format helpers used outside linalg.py: {found}"


BOXED_VALUES = {"finite", "Fraction", "TropScalar", "TropMatrix", "TropVector", "ZERO"}
D_SEARCH = {"_d_search", "_lambdas", "_match_rows", "_link", "_find", "_pattern"}


def test_the_d_search_names_no_boxed_value():
    # the D search runs on the ints of a linalg.DFrame, and only
    # rel_D boxes the scalings of a match, so the search's records stay
    # exact ints that a pruning, a counter or a certificate can read
    tree = ast.parse((PACKAGE / "greens.py").read_text())
    bodies = [fn for fn in tree.body if isinstance(fn, ast.FunctionDef) and fn.name in D_SEARCH]
    found = sorted(
        {(fn.name, name) for fn in bodies for node in ast.walk(fn)
         for name in (getattr(node, "id", None), getattr(node, "attr", None))
         if name in BOXED_VALUES}
    )
    assert not found, f"boxed values named in the D search: {found}"
    assert sorted(fn.name for fn in bodies) == sorted(D_SEARCH)


SCALAR_HOT_PATH = {
    "semiring.py": {"oplus", "otimes", "neg", "leq", "ratio", "_finite"},
    "linalg.py": {"pack", "_box"},
}


@pytest.mark.parametrize("source", sorted(SCALAR_HOT_PATH))
def test_the_scalar_hot_path_names_no_fraction(source):
    # a scalar is a reduced int pair, so the semiring operations, packing
    # and boxing run on ints; a Fraction, or a read of the derived
    # .value, would bring the boxed arithmetic back
    tree = ast.parse((PACKAGE / source).read_text())
    names = SCALAR_HOT_PATH[source]
    bodies = [fn for fn in tree.body if isinstance(fn, ast.FunctionDef) and fn.name in names]
    found = sorted(
        {(fn.name, name) for fn in bodies for node in ast.walk(fn)
         for name in (getattr(node, "id", None), getattr(node, "attr", None))
         if name in ("Fraction", "value")}
    )
    assert not found, f"Fraction named on the scalar hot path: {found}"
    assert sorted(fn.name for fn in bodies) == sorted(names)


def test_only_semiring_imports_fractions():
    # a scalar is a reduced int pair, and only semiring turns one into a
    # Fraction (value) or reads one (finite), so no other module can
    # compute in boxed Fractions
    importers = [
        source.name for source in SOURCES
        if any(
            node.module == "fractions" if isinstance(node, ast.ImportFrom)
            else isinstance(node, ast.Import) and "fractions" in [a.name for a in node.names]
            for node in ast.walk(ast.parse(source.read_text()))
        )
    ]
    assert importers == ["semiring.py"]


def test_linalg_values_are_set_only_at_construction():
    # a vector or matrix is one immutable form: its attributes are set
    # when it is built (__init__, or _of for a kernel result) and no
    # cache is filled in on a later read
    tree = ast.parse((PACKAGE / "linalg.py").read_text())
    builders = {
        id(node)
        for fn in ast.walk(tree)
        if isinstance(fn, ast.FunctionDef) and fn.name in ("__init__", "_of")
        for node in ast.walk(fn)
    }
    late = sorted(
        node.lineno
        for node in ast.walk(tree)
        if id(node) not in builders
        and (
            isinstance(node, ast.Attribute) and isinstance(node.ctx, (ast.Store, ast.Del))
            or isinstance(node, ast.Call)
            and (getattr(node.func, "id", None) == "setattr"
                 or getattr(node.func, "attr", None) == "__setattr__")
        )
    )
    assert not late, f"attributes assigned after construction at lines {late}"


def test_every_export_is_used_elsewhere():
    # a name trop/__init__.py imports to re-export is read (as a name or
    # an attribute, not merely defined or imported) by another file of
    # the package, the tests or the benchmark
    init = PACKAGE / "__init__.py"
    exported = {
        alias.asname or alias.name
        for node in ast.parse(init.read_text()).body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    others = [p for d in ("src", "tests", "bench") for p in (ROOT / d).rglob("*.py") if p != init]
    used = set()
    for node in (n for p in others for n in ast.walk(ast.parse(p.read_text()))):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
    unused = sorted(exported - used)
    assert not unused, f"exported from trop but used nowhere else: {unused}"
