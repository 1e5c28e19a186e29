"""Every name the benchmark reads from ``ghm`` exists.

``bench/`` reaches the package as ``g``, ``ghm`` or ``self.ghm``, and
through local aliases of its modules (``ex = g.expr``).  A deletion in
``src/`` that one of these reads still needs would only show when the
benchmark runs; this scan shows it in the suite.
"""

import ast
from pathlib import Path

import ghm
import ghm.cli  # bench/run.py imports it; the package does not

BENCH = Path(__file__).resolve().parents[1] / "bench"
ROOTS = {("g",), ("ghm",), ("self", "ghm")}


def _dotted(node):
    """The names of an attribute chain ``a.b.c`` rooted at a plain name, or None."""
    names = []
    while isinstance(node, ast.Attribute):
        names.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    return (node.id, *reversed(names))


def _reads(tree):
    """(line, path below ``ghm``) of each outermost chain rooted at the package
    or at a name assigned one of its modules in the same file."""
    aliases = {}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign) and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)):
            chain = _dotted(node.value)
            if chain and chain[:1] in ROOTS and len(chain) == 2:
                aliases[(node.targets[0].id,)] = chain[1:]
    inner = {id(node.value) for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    for node in ast.walk(tree):
        if not isinstance(node, ast.Attribute) or id(node) in inner:
            continue
        chain = _dotted(node)
        for root in (chain[:2], chain[:1]) if chain else ():
            if root in ROOTS:
                yield node.lineno, chain[len(root):]
            elif root in aliases:
                yield node.lineno, aliases[root] + chain[1:]


def test_every_name_the_benchmark_reads_exists_in_ghm():
    missing, seen = [], 0
    for path in sorted(BENCH.glob("*.py")):
        for line, names in _reads(ast.parse(path.read_text(), str(path))):
            seen += 1
            obj = ghm
            for depth, name in enumerate(names):
                if not hasattr(obj, name):
                    missing.append(f"{path.name}:{line}: ghm.{'.'.join(names[:depth + 1])}")
                    break
                obj = getattr(obj, name)
    assert seen > 40  # the scan found the benchmark's reads
    assert missing == []
