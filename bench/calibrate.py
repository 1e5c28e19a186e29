"""Host-speed calibration: a fixed kernel timed next to every measurement.

The reference machine is a 2-core VM on a shared host, and the host runs in
a fast and a slow state: in the slow state every piece of Python code here,
ghm's and this kernel alike, takes about 1.65 times as long.  A state lasts
from a few seconds to minutes, so a whole 30-s run can fall into one, and no
statistic of raw times inside one run removes that.

The kernel below does what ghm's hot paths do, with code the benchmark owns
and no change to ghm can move: a recursive tree walk over small node
objects, float formatting and parsing, and small dense numpy solves.  The
harness times it between every two operations.  An operation's time divided
by the mean of the kernel times on either side of it is its cost in kernel
units.  Multiplied by ``REF_KERNEL_S``, the kernel's time on the reference
machine in its fast state, that gives reference-machine seconds.
"""

from __future__ import annotations

import time

import numpy as np

# Median kernel time on the reference machine (2-core x86_64 VM, Python
# 3.11.7, numpy 2.4.6, one BLAS thread) in the host's fast state.
REF_KERNEL_S = 0.75e-3

_OPS = "+*-"


class _Node:
    __slots__ = ("op", "left", "right", "index")

    def __init__(self, op, left=None, right=None, index=0):
        self.op, self.left, self.right, self.index = op, left, right, index


def _tree(depth: int, i: int) -> _Node:
    if depth == 0:
        return _Node("x", index=i % 5)
    return _Node(_OPS[i % 3], _tree(depth - 1, 2 * i + 1), _tree(depth - 1, 2 * i + 2))


def _walk(node: _Node, x) -> float:
    if node.op == "x":
        return x[node.index]
    a, b = _walk(node.left, x), _walk(node.right, x)
    return a + b if node.op == "+" else a * b if node.op == "*" else a - b


_TREE = _tree(8, 0)
_A = np.random.default_rng(0).standard_normal((16, 6))
_X = (0.1, 0.2, 0.3, 0.4, 0.5)


def kernel() -> float:
    s = 0.0
    for _ in range(2):
        s += _walk(_TREE, _X)
    row = np.linspace(0.0, 1.0, 7)
    for _ in range(20):
        text = ",".join(repr(float(v)) for v in row)
        row = np.array([float(c) for c in text.split(",")]) * 0.999
        s += float(np.linalg.lstsq(_A, _A[:, 0], rcond=None)[0][0])
    return s


def kernel_s() -> float:
    """Wall seconds of one kernel call."""
    ts = time.perf_counter()
    kernel()
    return time.perf_counter() - ts


def warm_up(calls: int = 30) -> None:
    for _ in range(calls):
        kernel()
