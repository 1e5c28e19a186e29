"""Runge-Kutta loops as generated text, and the one place the two tableaus
are written.  Classical RK4: stages at x, x + h2*a, x + h2*b and x + dt*c,
then x + w * (a + 2*b + 2*c + d), with h2 = dt / 2 and w = dt / 6.
Fehlberg 4(5) (``RKF_A``, ``RKF_B4``, ``RKF_B5``): stage s at x + h*a_s0 *
k0 + h*a_s1 * k1 + ..., and x4, x5 = x + h * (0 + b0*k0 + b1*k1 + ...) with
the zero weights kept: ``sum()`` on Python 3.11, written out (3.12's
``sum()`` of floats is compensated).

``variational`` (the numeric flattening flow) and ``trajectory``
(``dynamics.integrate``'s loop) each run every step in one generated
function, whose stages one emitter writes (``_Inline``): a bundle's body at
the stage point, or on the form route a call (``_Call``).  The texts hold no
value: constants, weights and box bounds are parameters, so one text serves
every field of its shape, and its code is ``expr._code``'s.  A generated
line is (text, owner): the node it computes, if any.
"""

from __future__ import annotations

import itertools
import math
import sys
from functools import reduce
from types import FunctionType
from typing import Callable, Iterator, Sequence

from . import expr as ex
from .errors import EvalDomainError, InputError, IntegrationError

HALF, WEIGHT = "h2 = dt / 2", "w = dt / 6"
STAGES = (("b", "h2", "a"), ("c", "h2", "b"), ("t", "dt", "c"))  # (stage, step, from)
RKF_A = ((), (1 / 4,), (3 / 32, 9 / 32), (1932 / 2197, -7200 / 2197, 7296 / 2197),
         (439 / 216, -8.0, 3680 / 513, -845 / 4104),
         (-8 / 27, 2.0, -3544 / 2565, 1859 / 4104, -11 / 40))
RKF_B4 = (25 / 216, 0.0, 1408 / 2565, 2197 / 4104, -1 / 5, 0.0)
RKF_B5 = (16 / 135, 0.0, 6656 / 12825, 28561 / 56430, -9 / 50, 2 / 55)
RKF_STAGES = "abcdet"
# RKF45 step control: the factor 0.9 * (scale / err) ** 0.2 kept in [0.2, 5],
# and the smallest step, which is also the slack of the last step's end
RKF_CONTROL = {"_safety": 0.9, "_order": 0.2, "_shrink": 0.2, "_grow": 5.0, "_tiny": 1e-14}
# the step control of the last attempt, none before the first; NaN is never accepted
_RKF_CONTROL = '''\
if err is not None:
 if _isnan(err):
  raise _IntegrationError(f"the RKF45 error estimate is not finite at t={t:.6g}")
 factor = _safety * (scale / err) ** _order if err > 0 else _grow
 h *= min(_grow, max(_shrink, factor))
 if h < _tiny:
  raise _IntegrationError(f"step size underflow at t={t:.6g}")'''
_EVAL_FAULTS = (EvalDomainError, ValueError, ZeroDivisionError, OverflowError)


def step_count(steps: float, what: str) -> int:
    """The RK4 step count ``int(steps)`` of ``integrate`` and ``variational_flow``;
    a count that is not finite or beyond ``sys.maxsize`` is an InputError."""
    if not steps <= sys.maxsize:
        raise InputError(f"{what} needs more RK4 steps than a float can count")
    return int(steps)


def _plan(t_end: float, dt: float) -> Iterator[float | None]:
    """``trajectory``'s RK4 step sizes: full steps of dt, then one adjusted
    step landing exactly on t_end, then None at the last state."""
    full = step_count(t_end / dt + 1e-9, f"t_end {t_end:g} at dt {dt:g}")
    remainder = t_end - full * dt
    return itertools.chain(itertools.repeat(dt, full),
                           [remainder] if remainder > 1e-12 * t_end else [], [None])


def total(a: str, b: str, c: str, d: str) -> str:
    """The weighted sum of the four stages, in the update's order."""
    return f"{a} + 2 * {b} + 2 * {c} + {d}"


def _lines(text: str, depth: int = 0) -> list:
    return [(" " * depth + line, None) for line in text.split("\n")]


def _indent(lines: list, depth: int) -> list:
    return [(" " * depth + line, owner) for line, owner in lines]


class _Inline:
    """A bundle of ``exprs`` whose body (``expr._generate``'s lines) is
    written at each stage; its field is ``exprs[start:]``.  Temporary i's
    operation is ``rhs[i]``; ``order`` lists the field's temporaries in the
    field's own evaluation order, so a fault is met at the node a call of
    the field meets.  A stage's field values are kept as <stage><i>, except
    the last stage's, read from t<i>.  A constant has no line in a stage,
    being set once (``constants``); a constant component is _c<i> at every
    stage, and its RK4 sum s<i> = c + 2*c + 2*c + c is summed once (``sums``):
    the floats of a call of the field."""

    def __init__(self, exprs: Sequence[ex.Expr], walk: str, start: int = 0):
        try:
            source, self.consts, self.nodes = ex._generate(exprs)
            field = ex._generate(exprs[start:])[2] if start else self.nodes
        except RecursionError:
            raise ex._too_deep(walk, exprs) from None
        first = ex._FIRST_NODE_LINE - 1
        self.rhs = [line.split(" = ", 1)[1]
                    for line in source.split("\n")[first:first + len(self.nodes)]]
        self.temp = {node: i for i, node in enumerate(self.nodes)}
        self.result = [self.temp[e] for e in exprs]
        self.order, self.components = [self.temp[node] for node in field], self.result[start:]
        self.fixed = {i for i, node in enumerate(self.nodes) if type(node) is ex.Const}
        self.moving = [r for r in dict.fromkeys(self.components) if r not in self.fixed]

    def body(self, order: Sequence[int], at: Callable[[int], str]) -> list:
        """The stage emitter: the lines of the temporaries ``order`` lists.  A
        Coord's line is the stage point ``at(j)`` of its coordinate, so only
        the coordinates the body reads have one."""
        lines = []
        for i in order:
            node = self.nodes[i]
            if type(node) is ex.Coord:
                lines.append((f"t{i} = {at(node.axis - 1)}", None))
            elif i not in self.fixed:
                lines.append((f"t{i} = {self.rhs[i]}", node))
        return lines

    def constants(self) -> list[str]:
        return [f"t{i} = {self.rhs[i]}" for i in sorted(self.fixed)]

    def sums(self) -> list[str]:
        return [f"s{r} = {total(*[f'_c{r}'] * 4)}"
                for r in dict.fromkeys(self.components) if r in self.fixed]

    def keep(self, name: str) -> list:
        return [] if name == "t" else [(f"{name}{r} = t{r}", None) for r in self.moving]

    def stage(self, name: str, at: Callable[[int], str]) -> list:
        return self.body(self.order, at) + self.keep(name)

    def value(self, name: str, j: int) -> str:
        r = self.components[j]
        return f"_c{r}" if r in self.fixed else f"{name}{r}"

    def weighted(self, j: int) -> str:
        r = self.components[j]
        return f"s{r}" if r in self.fixed else total(*(self.value(s, j) for s in "abct"))


class _Call:
    """A field called at each stage: ``_field`` of the stage point as a
    tuple, its values kept as <stage>_<j>."""

    def __init__(self, n: int):
        self.n = n

    def names(self, name: str) -> str:
        return "".join(f"{name}_{j}, " for j in range(self.n))

    def stage(self, name: str, at: Callable[[int], str]) -> list:
        point = "".join(at(j) + ", " for j in range(self.n))
        return [(f"{self.names(name)}= _field(({point}))", None)]

    def value(self, name: str, j: int) -> str:
        return f"{name}_{j}"

    def weighted(self, j: int) -> str:
        return total(*(self.value(s, j) for s in "abct"))


def _rk4_step(field, size: int) -> list:
    """An RK4 step after its first stage a, with h2 and w set: stages b, c
    and t (the fourth), each at x + step * (the stage before), then the
    update x + w * (the weighted sum) of the ``size`` state components x<j>."""
    lines = []
    for name, step, before in STAGES:
        lines += field.stage(name, lambda j: f"x{j} + {step} * {field.value(before, j)}")
    return lines + [(f"x{j} = x{j} + w * ({field.weighted(j)})", None) for j in range(size)]


def variational(X: Sequence[ex.Expr]) -> Callable:
    """The generated ``_f(p, y, dt, nsteps)``: ``nsteps`` RK4 steps of size
    dt from the state y = (x, J) of the point p under (X, DX J), returned as
    a tuple.  The state lives in locals, and each stage inlines the bundle's
    body (``_Inline``); its temporaries are reused from stage to stage.  The
    floats are those of RK4 on the compiled bundle, step by step.  A fault
    raises ``IntegrationError`` naming p, the flow time the step starts from
    and the node, found through the line -> node list ``expr._fault``
    reads."""
    n, size = len(X), len(X) * (len(X) + 1)
    DXJ = (reduce(ex.add, (ex.mul(ex.differentiate(X[r], m + 1), ex.Coord(n + 1 + m * n + c))
                           for m in range(n))) for r in range(n) for c in range(n))
    field = _Inline((*X, *DXJ), "variational_flow")
    head = [f"def _f(p, y, dt, nsteps{''.join(', ' + name for name in field.consts)}):",
            " " + "".join(f"x{j}, " for j in range(size)) + "= y",
            " " + HALF, " " + WEIGHT, *(" " + line for line in field.constants() + field.sums()),
            " try:", "  for step in range(nsteps):"]
    body = _indent(field.stage("a", lambda j: f"x{j}") + _rk4_step(field, size), 3)
    tail = ["  return (" + "".join(f"x{j}," for j in range(size)) + ")",
            " except _FAULTS as exc:", "  error = _fault(exc, _nodes)",
            '  raise _IntegrationError(f"the numeric flow of the sample point {tuple(p)} failed '
            'at flow time {step * dt:.6g}: {error}") from error']
    owner = [None] * len(head) + [node for _, node in body]
    namespace = dict(ex._NAMESPACE, _fault=ex._fault, _IntegrationError=IntegrationError,
                     _nodes=owner[ex._FIRST_NODE_LINE - 1:])
    source = "\n".join([*head, *(line for line, _ in body), *tail])
    return FunctionType(ex._code(source), namespace, "_f", tuple(field.consts.values()))


def _failure(exc: Exception, nodes: Sequence, rows: set) -> tuple[IntegrationError, Exception]:
    """(IntegrationError, cause) of a fault at a line of a ``trajectory``
    loop: the line's node, if it has one, names the fault; a line of the
    diagnostics row fails the row, any other the vector field."""
    line = exc.__traceback__.tb_lineno
    error = exc if nodes[line - ex._FIRST_NODE_LINE] is None else ex._fault(exc, nodes)
    what = "diagnostics row" if line in rows else "vector-field"
    return IntegrationError(f"{what} evaluation failed: {error}"), error


def trajectory(method: str, n: int, row: Sequence[ex.Expr], field: Sequence[ex.Expr] = (),
               stage: Callable | None = None, state: Callable | None = None) -> Callable:
    """The generated ``_f(x, t, t_end, step, reltol, lo0, hi0, lo1, ...)``
    -> (times, states, rows, t, x, left): a whole trajectory from x
    at time t, by RK4 (steps of ``step``, then the remainder ``_plan``
    yields) or adaptive RKF45 (first try ``step``, tolerance ``reltol``).
    Each accepted state, x0 included, is recorded with its row (``row``'s
    values, then on the form route the divergence) by the one block of lines
    at the top of the loop, states and rows in flat lists.  Tensor route
    (``field`` X's components): one bundle, the row's nodes first, gives the
    row and the next step's first stage; each later stage inlines the field
    in its own order.  Form route: each stage calls ``stage(point)``; an
    accepted state inlines the row, then calls ``state(x)`` for (div, X).  A
    state outside the box [lo_j, hi_j] ends the loop as ``left`` and x.  A
    fault is an ``IntegrationError``: "diagnostics row" at a line of the
    row, "vector-field" at any other, naming the line's node, if it has one."""
    if stage is None:
        bundle = f = _Inline((*row, *field), "compile_vector", len(row))
        values = "".join(f"t{r}, " for r in bundle.result[:len(row)])
    else:
        bundle, f = _Inline(row, "compile_vector", len(row)), _Call(n)
        values = "".join(f"t{r}, " for r in bundle.result) + "dv, "
    in_row = max(bundle.result[:len(row)], default=-1) + 1  # the row's temporaries come first
    xs = "".join(f"x{j}, " for j in range(n))
    done = f"return times, states, rows, t, ({xs})"
    # an accepted state's row and next first stage; a row line's owner is (node,)
    accepted = [(line, (node,) if node is not None and bundle.temp[node] < in_row else node)
                for line, node in bundle.body(range(len(bundle.nodes)), lambda j: f"x{j}")]
    if stage is not None:
        accepted += _lines(f"dv, ({f.names('a')}) = _state(({xs}))")
    accepted += _lines(f"record_t(t)\nrecord_x(({xs}))\nrecord_row(({values}))")
    accepted += f.keep("a") if stage is None else []

    def exits(depth: int) -> list:  # the box test; NaN fails it
        box = " and ".join(f"_lo{j} <= x{j} <= _hi{j}" for j in range(n))
        return _lines(f"if not ({box}):\n {done}, True", depth)

    consts = dict(bundle.consts)
    if method == "rk4":
        loop = (_lines("for dt in _plan(t_end, step):") + _indent(accepted, 1)
                + _lines(f" if dt is None:\n  {done}, False\n {HALF}\n {WEIGHT}")
                + _indent(_rk4_step(f, n), 1) + _lines(" t += dt") + exits(1))
    else:
        consts.update(RKF_CONTROL)
        loop = _lines("h = step\nstop = t_end - _tiny\nerr = None\nwhile True:")
        loop += _indent(accepted, 1) + _lines(" while True:") + _lines(_RKF_CONTROL, 2)
        loop += _lines(f"if not t < stop:\n {done}, False\nh = min(h, t_end - t)", 2)
        for s, weights in enumerate(RKF_A[1:], start=1):
            consts.update({f"_a{s}{m}": a for m, a in enumerate(weights)})
            loop += _lines("\n".join(f"h{s}{m} = h * _a{s}{m}" for m in range(s)), 2)
            loop += _indent(f.stage(RKF_STAGES[s], lambda j: f"x{j}" + "".join(
                f" + h{s}{m} * {f.value(RKF_STAGES[m], j)}" for m in range(s))), 2)
        for y, b, weights in (("y", "_b4", RKF_B4), ("z", "_b5", RKF_B5)):
            consts.update({f"{b}{m}": w for m, w in enumerate(weights)})
            loop += _lines("\n".join(f"{y}{j} = x{j} + h * (0" + "".join(
                f" + {b}{m} * {f.value(name, j)}" for m, name in enumerate(RKF_STAGES)) + ")"
                for j in range(n)), 2)
        squares = "".join(f" + (y{j} - z{j}) ** 2" for j in range(n))
        norm, accept = ("".join(f" + x{j} * x{j}" for j in range(n)),
                        "".join(f"\n x{j} = y{j}" for j in range(n)))
        loop += _lines(f"err = _sqrt(0{squares})\nscale = reltol * (1 + _sqrt(0{norm}))\n"
                       f"if err <= scale:\n t += h{accept}", 2)
        loop += exits(3) + _lines("break", 3)
    bounds = "".join(f", _lo{j}, _hi{j}" for j in range(n))
    head = [f"def _f(x, t, t_end, step, reltol{bounds}{''.join(', ' + c for c in consts)}):",
            f" {xs}= x", " times, states, rows = [], [], []",
            " record_t, record_x, record_row = times.append, states.extend, rows.extend",
            *(" " + line for line in bundle.constants()),
            *(" " + line for line in (f.sums() if stage is None and method == "rk4" else [])),
            " try:"]
    lines = [*_lines("\n".join(head)), *_indent(loop, 2),
             *_lines(" except _EVAL_FAULTS as exc:\n  failure, error = _failure(exc, _nodes, "
                     "_rows)\n  raise failure from error")]
    owners = [owner for _, owner in lines]
    namespace = dict(ex._NAMESPACE, _EVAL_FAULTS=_EVAL_FAULTS, _IntegrationError=IntegrationError,
                     _failure=_failure, _fault=ex._fault, _isnan=math.isnan, _field=stage,
                     _state=state, _plan=_plan,
                     _nodes=[owner[0] if type(owner) is tuple else owner
                             for owner in owners[ex._FIRST_NODE_LINE - 1:]],
                     _rows={i for i, owner in enumerate(owners, start=1) if type(owner) is tuple})
    source = "\n".join(line for line, _ in lines)
    return FunctionType(ex._code(source), namespace, "_f", tuple(consts.values()))
