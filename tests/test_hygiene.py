"""Source hygiene checks that stand in for a linter: no unused imports in the
package, no imports beyond the standard library and gmpy2, packed-monomial
bit access only inside the kernel, no float linear algebra (ranks are
decided exactly), no symbolic brackets in the class tower, no `assert`
statements (they vanish under `python -O`; invariants raise errors), JSON
written only by the report writer, every function the perfbench tracer
wraps still exists, and README names exactly the options of the CLI."""

import argparse
import ast
import importlib
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PKG = ROOT / "src" / "rank2dist"
SOURCES = sorted(PKG.glob("*.py"))
# the package namespace re-exports its imports
MODULES = [p for p in SOURCES if p.name != "__init__.py"]
# the kernel owns the packed-monomial layout
OUTSIDE_KERNEL = [p for p in SOURCES if p.name != "kernel.py"]


def _unused_imports(path):
    tree = ast.parse(path.read_text())
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = (alias.asname or alias.name).split(".")[0]
                imported[name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert _unused_imports(path) == []


def _foreign_imports(path):
    """(file, line, module) of absolute imports outside the standard
    library and gmpy2."""
    allowed = set(sys.stdlib_module_names) | {"gmpy2"}
    hits = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            modules = [node.module]
        else:
            continue
        hits += [(path.name, node.lineno, m) for m in modules
                 if m.split(".")[0] not in allowed]
    return hits


def test_src_imports_stdlib_and_gmpy2_only():
    assert [hit for path in SOURCES for hit in _foreign_imports(path)] == []


def test_import_check_sees_a_foreign_module(tmp_path):
    src = tmp_path / "mod.py"
    src.write_text("import os\nimport numpy as np\nfrom . import kernel\n"
                   "from sympy.core import S\nimport gmpy2\n")
    assert _foreign_imports(src) == [("mod.py", 2, "numpy"),
                                     ("mod.py", 4, "sympy.core")]


@pytest.mark.parametrize("path", OUTSIDE_KERNEL, ids=lambda p: p.name)
def test_packed_monomials_stay_in_kernel(path):
    hits = [i for i, line in enumerate(path.read_text().splitlines(), 1)
            if re.search(r"0xFFFF|\b_MASK\b|\b_BITS\b", line, re.IGNORECASE)]
    assert hits == []


def test_no_float_rank_decisions():
    hits = [(p.name, i) for p in SOURCES
            for i, line in enumerate(p.read_text().splitlines(), 1)
            if re.search(r"linalg|svd", line, re.IGNORECASE)]
    assert hits == []


def _asserts(path):
    return [n.lineno for n in ast.walk(ast.parse(path.read_text()))
            if isinstance(n, ast.Assert)]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_assert_statements(path):
    assert _asserts(path) == []


def _word_field_evaluations(path):
    """Lines outside `Distribution.word_value` that call `.at(` on
    `word_field(...)` instead of reading the value through the memo."""
    tree = ast.parse(path.read_text())
    home = {id(n) for f in ast.walk(tree)
            if isinstance(f, ast.FunctionDef) and f.name == "word_value"
            for n in ast.walk(f)}
    hits = []
    for node in ast.walk(tree):
        if (id(node) not in home and isinstance(node, ast.Call) and
                isinstance(node.func, ast.Attribute) and
                node.func.attr == "at" and
                isinstance(node.func.value, ast.Call)):
            inner = node.func.value.func
            name = getattr(inner, "attr", getattr(inner, "id", None))
            if name == "word_field":
                hits.append((path.name, node.lineno))
    return hits


def test_word_values_come_from_the_memo():
    assert [hit for path in SOURCES
            for hit in _word_field_evaluations(path)] == []


# the report writer and its encoder cache
_WRITER = {"write_json", "_encoder"}
_JSON_WRITERS = {"dump", "dumps", "JSONEncoder"}


def _json_writes(path):
    """(file, line) of each use of json.dump, json.dumps or
    json.JSONEncoder outside the report writer."""
    tree = ast.parse(path.read_text())
    home = {id(n) for f in ast.walk(tree)
            if isinstance(f, ast.FunctionDef) and f.name in _WRITER
            for n in ast.walk(f)}
    hits = []
    for node in ast.walk(tree):
        if id(node) in home:
            continue
        if (isinstance(node, ast.Attribute) and node.attr in _JSON_WRITERS
                and getattr(node.value, "id", None) == "json"):
            hits.append((path.name, node.lineno))
        elif isinstance(node, ast.ImportFrom) and node.module == "json":
            hits += [(path.name, node.lineno) for a in node.names
                     if a.name in _JSON_WRITERS]
    return hits


def test_json_is_written_only_by_the_report_writer():
    assert [hit for path in SOURCES for hit in _json_writes(path)] == []


def test_json_write_check_sees_a_dumps_call(tmp_path):
    src = tmp_path / "mod.py"
    src.write_text("import json\nfrom json import dump\n"
                   "def write_json(o):\n    return json.dumps(o)\n"
                   "def other(o):\n    return json.dumps(o)\n"
                   "json.loads('1')\n")
    assert _json_writes(src) == [("mod.py", 2), ("mod.py", 6)]


def _names(path):
    tree = ast.parse(path.read_text())
    return ({n.id for n in ast.walk(tree) if isinstance(n, ast.Name)} |
            {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)} |
            {a.name for n in ast.walk(tree) if isinstance(n, ast.ImportFrom)
             for a in n.names})


def test_class_tower_has_no_symbolic_brackets():
    # the tower values come from flow series (geometry.BracketSeries)
    assert "lie_bracket" not in _names(PKG / "symplectic.py")


def _traced_names():
    """(module, function) pairs of `TARGETS` in perfbench/tracing.py."""
    tree = ast.parse((ROOT / "perfbench" / "tracing.py").read_text())
    targets, = [ast.literal_eval(node.value) for node in tree.body
                if isinstance(node, ast.Assign) and
                [getattr(t, "id", None) for t in node.targets] == ["TARGETS"]]
    return [(mod, fn) for mod, names in targets.items() for fn in names]


def test_traced_names_exist():
    # the tracer's installer does a plain getattr on each name
    names = _traced_names()
    assert names
    missing = [(mod, fn) for mod, fn in names
               if not hasattr(importlib.import_module("rank2dist." + mod),
                              fn)]
    assert missing == []


def _cli_options():
    """Every long option of `cli.build_parser()` and its subcommands."""
    from rank2dist.cli import build_parser

    parser = build_parser()
    subs, = [a for a in parser._actions
             if isinstance(a, argparse._SubParsersAction)]
    return {opt for p in [parser, *subs.choices.values()]
            for a in p._actions for opt in a.option_strings
            if opt.startswith("--")}


def test_readme_names_exactly_the_cli_options():
    readme = (ROOT / "README.md").read_text()
    named = set(re.findall(r"(?<![\w-])--[A-Za-z][\w-]*", readme))
    assert named - {"--no-build-isolation"} == _cli_options()


def test_assert_check_sees_an_assert(tmp_path):
    src = tmp_path / "mod.py"
    src.write_text("x = 1\nassert x, 'msg'\n")
    assert _asserts(src) == [2]


def test_unused_import_check_sees_an_unused_name(tmp_path):
    src = tmp_path / "mod.py"
    src.write_text("import os\nfrom sys import path, argv\nprint(path)\n")
    assert _unused_imports(src) == [(1, "os"), (2, "argv")]
