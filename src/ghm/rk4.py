"""Classical RK4 as generated text.

This module is the one place the RK4 tableau is written: the first stage
is the field at x, each later stage the field at x + step * (the stage
before), and the update x + w * (a + 2*b + 2*c + d), with h2 = dt / 2 and
w = dt / 6.  ``dynamics.stepper`` writes its ``rk4`` step from these line
pieces, and ``variational`` writes the numeric flattening flow from them:
every step of one point in one straight-line loop, with the compiled body of
(X, DX J) inlined at each stage.
"""

from __future__ import annotations

from functools import reduce
from types import FunctionType
from typing import Callable, Sequence

from . import expr as ex
from .errors import IntegrationError

HALF, WEIGHT = "h2 = dt / 2", "w = dt / 6"
STAGES = (("b", "h2", "a"), ("c", "h2", "b"), ("d", "dt", "c"))  # (stage, step, from)


def point(x: str, step: str, k: str) -> str:
    """A stage point's component: x + step * (the stage before)."""
    return f"{x} + {step} * {k}"


def total(a: str, b: str, c: str, d: str) -> str:
    """The weighted sum of the four stages, in the update's order."""
    return f"{a} + 2 * {b} + 2 * {c} + {d}"


def update(x: str, stages: str) -> str:
    """The new state's component: x + w * (the weighted sum)."""
    return f"{x} + w * ({stages})"


def _flow_failure(p: Sequence[float], time: float, error: Exception) -> IntegrationError:
    return IntegrationError(f"the numeric flow of the sample point {tuple(p)} failed "
                            f"at flow time {time:.6g}: {error}")


def variational(X: Sequence[ex.Expr]) -> Callable:
    """The generated ``_f(p, y, dt, nsteps)``: ``nsteps`` RK4 steps of size
    dt from the state y = (x, J) of the point p under (X, DX J), returned as
    a tuple.  The state lives in locals, and each stage inlines the body
    ``expr._generate`` writes for the bundle.  A Coord line of a stage is
    that stage's point, emitted only for the coordinates the body reads.
    The temporaries are reused from stage to stage: the values of each
    result are kept as a<i>, b<i> and c<i>, and the last stage's are read
    from t<i>.  Constant nodes are set once before the loop, and a constant
    component c updates as x + w * (s) with s = c + 2*c + 2*c + c, summed
    once: the floats of ``dynamics.stepper``'s rk4 on the compiled bundle.
    The text holds no value, so one text serves every field of its shape,
    t and point; its code is ``expr._code``'s.  A fault raises
    ``IntegrationError`` naming p, the flow time the step starts from and
    the node, found through the line -> node list ``expr._fault`` reads."""
    n, size = len(X), len(X) * (len(X) + 1)
    DXJ = (reduce(ex.add, (ex.mul(ex.differentiate(X[r], m + 1), ex.Coord(n + 1 + m * n + c))
                           for m in range(n))) for r in range(n) for c in range(n))
    exprs = (*X, *DXJ)
    try:
        source, consts, nodes = ex._generate(exprs)
    except RecursionError:
        raise ex._too_deep("variational_flow", exprs) from None
    first = ex._FIRST_NODE_LINE - 1
    rhs = [line.split(" = ", 1)[1] for line in source.split("\n")[first:first + len(nodes)]]
    temp = {node: i for i, node in enumerate(nodes)}
    result = [temp[e] for e in exprs]
    fixed = {i for i, node in enumerate(nodes) if type(node) is ex.Const}
    moving = [r for r in dict.fromkeys(result) if r not in fixed]

    def value(stage: str, j: int) -> str:  # component j's value at a stage
        return f"_c{result[j]}" if result[j] in fixed else f"{stage}{result[j]}"

    head = [f"def _f(p, y, dt, nsteps{''.join(', ' + name for name in consts)}):",
            " " + "".join(f"x{j}, " for j in range(size)) + "= y",
            " " + HALF, " " + WEIGHT,
            *(f" t{i} = {rhs[i]}" for i in sorted(fixed)),
            *(f" s{r} = {total(*[f'_c{r}'] * 4)}" for r in dict.fromkeys(result) if r in fixed),
            " try:", "  for step in range(nsteps):"]
    names = ["a", *(stage for stage, _, _ in STAGES)]
    body = []  # (line, the node it computes or None)
    for stage, step, before in (("a", None, None), *STAGES):
        for i, node in enumerate(nodes):
            if type(node) is ex.Coord:
                j = node.axis - 1
                at = f"x{j}" if step is None else point(f"x{j}", step, value(before, j))
                body.append((f"   t{i} = {at}", None))
            elif i not in fixed:
                body.append((f"   t{i} = {rhs[i]}", node))
        if stage != names[-1]:
            body += [(f"   {stage}{r} = t{r}", None) for r in moving]
    body += [(f"   x{j} = " + update(f"x{j}", f"s{result[j]}" if result[j] in fixed else
                                     total(*(value(s, j) for s in names[:-1]), value("t", j))),
              None)
             for j in range(size)]
    tail = ["  return (" + "".join(f"x{j}," for j in range(size)) + ")",
            " except _FAULTS as exc:", "  error = _fault(exc, _nodes)",
            "  raise _flow_failure(p, step * dt, error) from error"]
    owner = [None] * len(head) + [node for _, node in body]
    namespace = dict(ex._NAMESPACE, _fault=ex._fault, _flow_failure=_flow_failure,
                     _nodes=owner[first:])
    source = "\n".join([*head, *(line for line, _ in body), *tail])
    return FunctionType(ex._code(source), namespace, "_f", tuple(consts.values()))
