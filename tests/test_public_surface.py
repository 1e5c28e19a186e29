"""Every name ``ghm`` exports has a reader beyond its own unit tests.

An export counts as reached when an AST ``Name`` or ``Attribute`` node
reads it in a ``src/ghm`` module other than ``__init__.py`` (outside the
top-level def or class that defines it), in ``tests/test_acceptance.py``,
or in ``bench/*.py``.  A name that only its unit tests read is surface
that no CLI path, acceptance test or benchmark probe needs: wire it into
one of those, or delete it.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "ghm"
DEFINITIONS = (ast.FunctionDef, ast.ClassDef)


def _exports() -> list[str]:
    """The names ``ghm/__init__.py`` imports from its submodules."""
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    return [alias.asname or alias.name for node in tree.body
            if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module
            for alias in node.names]


def _reads(node: ast.AST) -> set[str]:
    """The names that ``Name`` and ``Attribute`` nodes under ``node`` load."""
    return {n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
            if isinstance(n, (ast.Name, ast.Attribute)) and isinstance(n.ctx, ast.Load)}


def _package_reads() -> set[str]:
    """Reads in the package's modules; a top-level def or class does not
    read its own name."""
    out: set[str] = set()
    for path in PACKAGE.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for stmt in ast.parse(path.read_text(), str(path)).body:
            names = _reads(stmt)
            if isinstance(stmt, DEFINITIONS):
                names.discard(stmt.name)
            out |= names
    return out


def test_every_export_is_read_by_the_package_acceptance_tests_or_bench():
    reached = _package_reads()
    for path in [ROOT / "tests" / "test_acceptance.py", *sorted((ROOT / "bench").glob("*.py"))]:
        reached |= _reads(ast.parse(path.read_text(), str(path)))
    exports = _exports()
    assert len(exports) > 40  # the scan found the export list
    assert sorted(set(exports) - reached) == []
