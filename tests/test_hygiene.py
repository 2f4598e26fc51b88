"""Source hygiene checks that stand in for a linter: no unused imports in the
package, and packed-monomial bit access only inside the kernel."""

import ast
import re
from pathlib import Path

import pytest

PKG = Path(__file__).resolve().parents[1] / "src" / "rank2dist"
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


@pytest.mark.parametrize("path", OUTSIDE_KERNEL, ids=lambda p: p.name)
def test_packed_monomials_stay_in_kernel(path):
    hits = [i for i, line in enumerate(path.read_text().splitlines(), 1)
            if re.search(r"0xFFFF|\b_MASK\b|\b_BITS\b", line, re.IGNORECASE)]
    assert hits == []


def test_unused_import_check_sees_an_unused_name(tmp_path):
    src = tmp_path / "mod.py"
    src.write_text("import os\nfrom sys import path, argv\nprint(path)\n")
    assert _unused_imports(src) == [(1, "os"), (2, "argv")]
