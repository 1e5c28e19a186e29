"""Arithmetic expressions over coordinates x1..xn with exact symbolic derivatives.

Grammar (infix, precedence pow > unary minus > mul/div > add/sub):

    expr     := term (('+'|'-') term)*
    term     := factor (('*'|'/') factor)*
    factor   := '-' factor | power
    power    := atom ['^' exponent]
    atom     := NUMBER | IDENT | FUNC '(' expr ')' | '(' expr ')'
    exponent := ['-'] INT | '(' ['-'] INT ['/' INT] ')'

Coordinates are canonically named x1..xn; callers may declare display
aliases (q1, xi2, ...) that resolve to axes at parse time.  An alias may
not repeat, shadow a parameter or function, or give x<i> to an axis other
than i (``alias_fault``): each would rebind a name silently.  Functions:
sqrt, sin, cos, exp, log.  Exponents are constant integers or rationals,
which keeps differentiation closed over the node set.  A numeric literal
that overflows a float is a ParseError.

Interned nodes.  Nodes are immutable and hash-consed: constructing a node
returns the live node with the same type and fields (floats by their bits,
so Const(-0.0) is not Const(0.0)), so equality is identity and hashing is
O(1).  The intern table holds nodes weakly.  Constructors fold constants
and algebraic units (0 + e, 1 * e, e^1, ...); nothing else is rewritten.
``differentiate`` is memoized per (node, axis) on the node.

One compiler.  ``compile_vector`` turns a list of expressions into one
straight-line function with one temporary per unique node, in left-to-right
post-order; each temporary is the single ``float`` or ``math`` operation of
its node, so values are bit for bit those of a node-by-node evaluation.
Code is compiled once per source shape: each constant is a parameter
``_c<i>`` defaulting to its value, so expressions that differ only in
constants share one source text, the key of a bounded LRU cache of code
objects that holds no node.  Each function has its own globals and nodes.
Owners cache their function (fields on themselves, ``compile_expr`` and
``evaluate`` on the node).  A ZeroDivisionError, ValueError or
OverflowError raised by the generated code is mapped through the
traceback's line to its function's node and re-raised as
``EvalDomainError`` naming that node; the first fault in walk order is the
one reported.  There is no numpy target: numpy's transcendental ufuncs can
differ from ``math`` in the last ulp, which would change printed results.
"""

from __future__ import annotations

import math
import re
import struct
import weakref
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from types import CodeType, FunctionType
from typing import Callable, Iterable, Mapping, Sequence

from .errors import EvalDomainError, ParseError

FUNCTIONS = ("sqrt", "sin", "cos", "exp", "log")


# ---------------------------------------------------------------------------
# Interned nodes
# ---------------------------------------------------------------------------

_float_bits = struct.Struct("<d").pack

# intern key -> live node.  A key holds the node's children, which the node
# holds anyway; no node refers to an ancestor (the derivative memo is weak),
# so the table never keeps a dead node's subtree alive.
_LIVE: weakref.WeakValueDictionary = weakref.WeakValueDictionary()


class _Interned(type):
    """Node classes: a call returns the live node with the same key, if any."""

    def __call__(cls, *args):
        key = cls._key(args)
        node = _LIVE.get(key)
        if node is None:
            node = _LIVE[key] = super().__call__(*args)
        return node


class Expr(metaclass=_Interned):
    """Base node.  Subclasses are frozen dataclasses, interned on construction."""

    # memo: axis -> weak reference to the derivative (which may contain the
    # node itself, and a strong reference would make a cycle); compiled value
    __slots__ = ("_derivs", "_fn", "__weakref__")

    @classmethod
    def _key(cls, args: tuple) -> tuple:
        return (cls, *args)  # children hash and compare by identity

    def __reduce__(self):
        # copies and unpickled nodes are interned like constructed ones
        return type(self), tuple(getattr(self, name) for name in self.__match_args__)

    def __str__(self) -> str:
        return to_str(self)


@dataclass(frozen=True, eq=False, slots=True)
class Const(Expr):
    value: float

    def __post_init__(self):
        object.__setattr__(self, "value", float(self.value))

    @classmethod
    def _key(cls, args: tuple) -> tuple:
        return (cls, _float_bits(args[0]))


@dataclass(frozen=True, eq=False, slots=True)
class Coord(Expr):
    axis: int  # 1-based


@dataclass(frozen=True, eq=False, slots=True)
class Param(Expr):
    name: str


@dataclass(frozen=True, eq=False, slots=True)
class Neg(Expr):
    arg: Expr


@dataclass(frozen=True, eq=False, slots=True)
class Call(Expr):
    fn: str
    arg: Expr


@dataclass(frozen=True, eq=False, slots=True)
class Add(Expr):
    a: Expr
    b: Expr


@dataclass(frozen=True, eq=False, slots=True)
class Sub(Expr):
    a: Expr
    b: Expr


@dataclass(frozen=True, eq=False, slots=True)
class Mul(Expr):
    a: Expr
    b: Expr


@dataclass(frozen=True, eq=False, slots=True)
class Div(Expr):
    a: Expr
    b: Expr


@dataclass(frozen=True, eq=False, slots=True)
class Pow(Expr):
    base: Expr
    exponent: Fraction  # constant integer or rational

    def __post_init__(self):
        object.__setattr__(self, "exponent", Fraction(self.exponent))


ZERO = Const(0.0)
ONE = Const(1.0)


def is_zero(e: Expr) -> bool:
    return isinstance(e, Const) and e.value == 0.0


def is_one(e: Expr) -> bool:
    return isinstance(e, Const) and e.value == 1.0


def children(e: Expr) -> tuple[Expr, ...]:
    """Operands in evaluation order (left to right)."""
    if isinstance(e, (Add, Sub, Mul, Div)):
        return (e.a, e.b)
    if isinstance(e, (Neg, Call)):
        return (e.arg,)
    if isinstance(e, Pow):
        return (e.base,)
    return ()


def unique_nodes(exprs: Iterable[Expr]) -> list[Expr]:
    """Every node reachable from ``exprs`` once, children before parents, in
    the order a left-to-right post-order walk first reaches it."""
    seen: set[Expr] = set()
    order: list[Expr] = []
    for e in exprs:
        _visit(e, seen, order)
    return order


def _visit(e: Expr, seen: set, order: list) -> None:
    # module level, not a closure: a recursive closure is a reference cycle
    # that would keep every node it saw alive until the next collection
    if e not in seen:
        seen.add(e)
        for c in children(e):
            _visit(c, seen, order)
        order.append(e)


# ---------------------------------------------------------------------------
# Folding constructors
# ---------------------------------------------------------------------------

def const(v: float) -> Const:
    return Const(float(v))


def add(a: Expr, b: Expr) -> Expr:
    if is_zero(a):
        return b
    if is_zero(b):
        return a
    if isinstance(a, Const) and isinstance(b, Const):
        return Const(a.value + b.value)
    return Add(a, b)


def sub(a: Expr, b: Expr) -> Expr:
    if is_zero(b):
        return a
    if is_zero(a):
        return neg(b)
    if isinstance(a, Const) and isinstance(b, Const):
        return Const(a.value - b.value)
    return Sub(a, b)


def neg(a: Expr) -> Expr:
    if isinstance(a, Const):
        return Const(-a.value)
    if isinstance(a, Neg):
        return a.arg
    return Neg(a)


def mul(a: Expr, b: Expr) -> Expr:
    if is_zero(a) or is_zero(b):
        return ZERO
    if is_one(a):
        return b
    if is_one(b):
        return a
    if isinstance(a, Const) and isinstance(b, Const):
        return Const(a.value * b.value)
    return Mul(a, b)


def div(a: Expr, b: Expr) -> Expr:
    if is_one(b):
        return a
    if is_zero(a) and not is_zero(b):
        return ZERO
    if isinstance(a, Const) and isinstance(b, Const) and b.value != 0.0:
        return Const(a.value / b.value)
    return Div(a, b)


def powc(base: Expr, exponent: Fraction | int) -> Expr:
    exponent = Fraction(exponent)
    if exponent == 0:
        return ONE
    if exponent == 1:
        return base
    if isinstance(base, Const):
        try:
            return Const(_pow_value(base.value, exponent))
        except (ValueError, ZeroDivisionError, OverflowError):
            pass
    return Pow(base, exponent)


def call(fn: str, arg: Expr) -> Expr:
    if fn not in FUNCTIONS:
        raise ValueError(f"unknown function {fn!r}")
    if isinstance(arg, Const):
        try:
            return Const(getattr(math, fn)(arg.value))
        except (ValueError, OverflowError):
            pass
    return Call(fn, arg)


def _pow_value(base: float, exponent: Fraction) -> float:
    if exponent.denominator == 1:
        return base ** int(exponent)
    # math.pow raises ValueError on negative base with a fractional
    # exponent; float ** would silently go complex there.
    return math.pow(base, float(exponent))


# ---------------------------------------------------------------------------
# Differentiation
# ---------------------------------------------------------------------------

def differentiate(e: Expr, axis: int) -> Expr:
    """Exact partial derivative with respect to coordinate ``axis`` (1-based);
    memoized on the node."""
    try:
        memo = e._derivs
    except AttributeError:
        memo = {}
        object.__setattr__(e, "_derivs", memo)
    ref = memo.get(axis)
    d = ref() if ref is not None else None
    if d is None:
        d = _derive(e, axis)
        memo[axis] = weakref.ref(d)
    return d


def _derive(e: Expr, axis: int) -> Expr:
    if isinstance(e, (Const, Param)):
        return ZERO
    if isinstance(e, Coord):
        return ONE if e.axis == axis else ZERO
    if isinstance(e, Neg):
        return neg(differentiate(e.arg, axis))
    if isinstance(e, Add):
        return add(differentiate(e.a, axis), differentiate(e.b, axis))
    if isinstance(e, Sub):
        return sub(differentiate(e.a, axis), differentiate(e.b, axis))
    if isinstance(e, Mul):
        return add(mul(differentiate(e.a, axis), e.b), mul(e.a, differentiate(e.b, axis)))
    if isinstance(e, Div):
        da, db = differentiate(e.a, axis), differentiate(e.b, axis)
        return div(sub(mul(da, e.b), mul(e.a, db)), powc(e.b, 2))
    if isinstance(e, Pow):
        db = differentiate(e.base, axis)
        coeff = mul(Const(float(e.exponent)), powc(e.base, e.exponent - 1))
        return mul(coeff, db)
    if isinstance(e, Call):
        da = differentiate(e.arg, axis)
        if e.fn == "sqrt":
            return div(da, mul(Const(2.0), call("sqrt", e.arg)))
        if e.fn == "sin":
            return mul(call("cos", e.arg), da)
        if e.fn == "cos":
            return neg(mul(call("sin", e.arg), da))
        if e.fn == "exp":
            return mul(call("exp", e.arg), da)
        if e.fn == "log":
            return div(da, e.arg)
    raise TypeError(f"not an Expr: {e!r}")


# ---------------------------------------------------------------------------
# Substitution
# ---------------------------------------------------------------------------

_FOLD = {Neg: neg, Add: add, Sub: sub, Mul: mul, Div: div}


def substitute(e: Expr, leaf_map: Mapping[int | Expr, Expr]) -> Expr:
    """Replace leaves by expressions (map composition, restriction, binding).

    Integer keys name coordinate axes; node keys are Coord or Param leaves."""
    leaves = {Coord(key) if isinstance(key, int) else key: v for key, v in leaf_map.items()}
    return _substitute(e, leaves)


def _substitute(e: Expr, memo: dict[Expr, Expr]) -> Expr:
    """``memo`` starts as the leaf map and collects every rewritten node."""
    out = memo.get(e)
    if out is None:
        if isinstance(e, (Const, Coord, Param)):
            out = e
        elif isinstance(e, Pow):
            out = powc(_substitute(e.base, memo), e.exponent)
        elif isinstance(e, Call):
            out = call(e.fn, _substitute(e.arg, memo))
        else:
            out = _FOLD[type(e)](*(_substitute(c, memo) for c in children(e)))
        memo[e] = out
    return out


def bind_params(e: Expr, values: Mapping[str, float]) -> Expr:
    """Replace parameter leaves by constants; an unbound one is an error."""
    for node in unique_nodes((e,)):
        if isinstance(node, Param) and node.name not in values:
            raise EvalDomainError(f"unbound parameter {node.name!r}")
    return substitute(e, {Param(name): Const(float(v)) for name, v in values.items()})


# ---------------------------------------------------------------------------
# Printing
# ---------------------------------------------------------------------------

_LVL_ADD, _LVL_MUL, _LVL_UNARY, _LVL_POW, _LVL_ATOM = 1, 2, 3, 4, 5


def _prec(e: Expr) -> int:
    if isinstance(e, (Add, Sub)):
        return _LVL_ADD
    if isinstance(e, (Mul, Div)):
        return _LVL_MUL
    if isinstance(e, Neg):
        return _LVL_UNARY
    if isinstance(e, Pow):
        return _LVL_POW
    if isinstance(e, Const) and e.value < 0:
        return _LVL_UNARY
    return _LVL_ATOM


def _wrap(e: Expr, need: int) -> str:
    s = to_str(e)
    return f"({s})" if _prec(e) < need else s


def to_str(e: Expr) -> str:
    """Parseable infix form; ``parse(to_str(e))`` evaluates identically to ``e``."""
    if isinstance(e, Const):
        return repr(e.value)
    if isinstance(e, Coord):
        return f"x{e.axis}"
    if isinstance(e, Param):
        return e.name
    if isinstance(e, Neg):
        return f"-{_wrap(e.arg, _LVL_UNARY)}"
    if isinstance(e, Add):
        return f"{_wrap(e.a, _LVL_ADD)} + {_wrap(e.b, _LVL_MUL)}"
    if isinstance(e, Sub):
        return f"{_wrap(e.a, _LVL_ADD)} - {_wrap(e.b, _LVL_MUL)}"
    if isinstance(e, Mul):
        return f"{_wrap(e.a, _LVL_MUL)}*{_wrap(e.b, _LVL_UNARY)}"
    if isinstance(e, Div):
        return f"{_wrap(e.a, _LVL_MUL)}/{_wrap(e.b, _LVL_UNARY)}"
    if isinstance(e, Pow):
        ex = e.exponent
        estr = str(ex.numerator) if ex.denominator == 1 else f"({ex.numerator}/{ex.denominator})"
        return f"{_wrap(e.base, _LVL_ATOM)}^{estr}"
    if isinstance(e, Call):
        return f"{e.fn}({to_str(e.arg)})"
    raise TypeError(f"not an Expr: {e!r}")


# ---------------------------------------------------------------------------
# Compilation: one straight-line function per list of expressions
# ---------------------------------------------------------------------------

_BINARY = {Add: "+", Sub: "-", Mul: "*", Div: "/"}
_FAULTS = (ZeroDivisionError, ValueError, OverflowError)
_FIRST_NODE_LINE = 3  # line 1 is the def, line 2 the try
_CODE_CACHE_SIZE = 256  # distinct source shapes whose code stays compiled
_NAMESPACE = {"_float": float, "_pow": math.pow, "_FAULTS": _FAULTS,
              **{f"_{fn}": getattr(math, fn) for fn in FUNCTIONS}}


def _fault(exc: Exception, nodes: Sequence) -> Exception:
    """The EvalDomainError for a fault raised at a generated line."""
    node = nodes[exc.__traceback__.tb_lineno - _FIRST_NODE_LINE]
    if isinstance(node, weakref.ref):
        node = node()
    if isinstance(exc, OverflowError):
        message = "floating-point overflow"
    elif isinstance(node, Div):
        message = "division by zero"
    elif isinstance(node, Pow):
        message = f"power domain error: {exc}"
    elif isinstance(node, Call) and node.fn == "sqrt":
        message = "sqrt of negative value"
    elif isinstance(node, Call) and node.fn == "log":
        message = "log of nonpositive value"
    elif isinstance(node, Call):
        message = f"{node.fn} domain error: {exc}"
    else:
        return exc
    return EvalDomainError(message, "" if node is None else to_str(node))


def _rhs(e: Expr, i: int, index: Mapping[Expr, int], consts: dict[str, float]) -> str:
    """Source of the one operation node ``i`` performs on its operands; a
    constant becomes the parameter ``_c<i>``, added to ``consts``."""
    if isinstance(e, Const):
        name = f"_c{i}"
        consts[name] = e.value
        return name
    if isinstance(e, Coord):
        return f"_float(x[{e.axis - 1}])"
    if isinstance(e, Param):
        raise EvalDomainError(f"unbound parameter {e.name!r}")
    if isinstance(e, Neg):
        return f"-t{index[e.arg]}"
    if isinstance(e, Pow):
        ex = e.exponent
        return (f"t{index[e.base]} ** {ex.numerator}" if ex.denominator == 1
                else f"_pow(t{index[e.base]}, {float(ex)!r})")
    if isinstance(e, Call):
        return f"_{e.fn}(t{index[e.arg]})"
    return f"t{index[e.a]} {_BINARY[type(e)]} t{index[e.b]}"


@lru_cache(maxsize=_CODE_CACHE_SIZE)
def _code(source: str) -> CodeType:
    """The code of the one function ``source`` defines.  Keyed by the text
    alone, so the cache holds no node."""
    module = compile(source, "<ghm.expr compiled>", "exec")
    return next(c for c in module.co_consts if isinstance(c, CodeType))


def _compile(exprs: Sequence[Expr], scalar: bool) -> Callable:
    nodes = unique_nodes(exprs)
    index = {e: i for i, e in enumerate(nodes)}
    line_nodes: list = list(nodes)  # for naming a faulting node
    if scalar:
        # compile_expr caches the function on its root, the last node: a
        # strong reference back would be a cycle that only the collector frees
        line_nodes[-1] = weakref.ref(nodes[-1])
    namespace = dict(_NAMESPACE, _fault=_fault, _nodes=line_nodes)
    consts: dict[str, float] = {}
    results = [f"t{index[e]}" for e in exprs]
    body = [f"  t{i} = {_rhs(e, i, index, consts)}" for i, e in enumerate(nodes)]
    lines = [f"def _f(x{''.join(', ' + name for name in consts)}):", " try:", *body]
    lines.append(f"  return {results[0]}" if scalar
                 else f"  return ({''.join(r + ',' for r in results)})")
    lines += [" except _FAULTS as exc:", "  raise _fault(exc, _nodes) from None"]
    return FunctionType(_code("\n".join(lines)), namespace, "_f", tuple(consts.values()))


def compile_vector(exprs: Iterable[Expr]) -> Callable[[Sequence[float]], tuple]:
    """One function of a point returning the tuple of the expressions' values."""
    return _compile(tuple(exprs), scalar=False)


def compile_expr(e: Expr) -> Callable[[Sequence[float]], float]:
    """The scalar function of a parameter-free expression, cached on the node."""
    try:
        return e._fn
    except AttributeError:
        fn = _compile((e,), scalar=True)
        object.__setattr__(e, "_fn", fn)
        return fn


def evaluate(e: Expr, point: Sequence[float], params: Mapping[str, float] | None = None) -> float:
    """Value at ``point`` (length n, 0-indexed storage for axes 1..n)."""
    return compile_expr(bind_params(e, params) if params is not None else e)(point)


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>(?:\d+\.\d*|\.\d+|\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<op>[-+*/^()]))"
)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None or m.end() == pos:
            stripped = text[pos:].lstrip()
            off = len(text) - len(stripped)
            raise ParseError(f"unexpected character {text[off]!r}", off)
        if m.group("num") is not None:
            tokens.append(("num", m.group("num"), m.start("num")))
        elif m.group("ident") is not None:
            tokens.append(("ident", m.group("ident"), m.start("ident")))
        else:
            tokens.append(("op", m.group("op"), m.start("op")))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str, n: int, params: frozenset[str], aliases: Sequence[str] | None):
        self.text = text
        self.n = n
        self.params = params
        self.alias_map = {}
        if aliases is not None:
            if len(aliases) != n:
                raise ValueError(f"expected {n} aliases, got {len(aliases)}")
            fault = alias_fault(aliases, params)
            if fault is not None:
                raise ValueError(fault[1])
            self.alias_map = {name: i + 1 for i, name in enumerate(aliases)}
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def next(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, op: str):
        kind, val, off = self.next()
        if kind != "op" or val != op:
            raise ParseError(f"expected {op!r}", off)

    def parse(self) -> Expr:
        e = self.expr()
        kind, val, off = self.peek()
        if kind != "end":
            raise ParseError(f"unexpected token {val!r}", off)
        return e

    def expr(self) -> Expr:
        e = self.term()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "+-":
                self.next()
                rhs = self.term()
                e = add(e, rhs) if val == "+" else sub(e, rhs)
            else:
                return e

    def term(self) -> Expr:
        e = self.factor()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "*/":
                self.next()
                rhs = self.factor()
                e = mul(e, rhs) if val == "*" else div(e, rhs)
            else:
                return e

    def factor(self) -> Expr:
        kind, val, _ = self.peek()
        if kind == "op" and val == "-":
            self.next()
            return neg(self.factor())
        return self.power()

    def power(self) -> Expr:
        base = self.atom()
        kind, val, off = self.peek()
        if kind == "op" and val == "^":
            self.next()
            exponent = self.exponent()
            base = powc(base, exponent)
            kind, val, off = self.peek()
            if kind == "op" and val == "^":
                raise ParseError("chained '^' is not supported; parenthesize", off)
        return base

    def exponent(self) -> Fraction:
        kind, val, off = self.peek()
        negate = False
        if kind == "op" and val == "-":
            self.next()
            negate = True
            kind, val, off = self.peek()
        if kind == "num":
            self.next()
            frac = self._int_fraction(val, off)
            return -frac if negate else frac
        if kind == "op" and val == "(" and not negate:
            self.next()
            inner_neg = False
            kind, val, off = self.peek()
            if kind == "op" and val == "-":
                self.next()
                inner_neg = True
                kind, val, off = self.peek()
            if kind != "num":
                raise ParseError("expected integer in exponent", off)
            self.next()
            num = self._int_fraction(val, off)
            kind, val, off2 = self.peek()
            if kind == "op" and val == "/":
                self.next()
                kind, val, off2 = self.next()
                if kind != "num":
                    raise ParseError("expected integer denominator", off2)
                den = self._int_fraction(val, off2)
                num = num / den
            self.expect_op(")")
            return -num if inner_neg else num
        raise ParseError("exponent must be a constant integer or rational", off)

    @staticmethod
    def _int_fraction(text: str, off: int) -> Fraction:
        value = _Parser._number(text, off)
        if value != int(value):
            raise ParseError("exponent must be a constant integer or rational", off)
        return Fraction(int(value))

    @staticmethod
    def _number(text: str, off: int) -> float:
        value = float(text)
        if not math.isfinite(value):
            raise ParseError(f"number {text!r} overflows a float", off)
        return value

    def atom(self) -> Expr:
        kind, val, off = self.next()
        if kind == "num":
            return Const(self._number(val, off))
        if kind == "ident":
            if val in FUNCTIONS:
                kind2, val2, off2 = self.peek()
                if kind2 != "op" or val2 != "(":
                    raise ParseError(f"function {val!r} requires parenthesized argument", off2)
                self.next()
                arg = self.expr()
                self.expect_op(")")
                return call(val, arg)
            if val in self.alias_map:
                return Coord(self.alias_map[val])
            m = re.fullmatch(r"x(\d+)", val)
            if m is not None:
                axis = int(m.group(1))
                if 1 <= axis <= self.n:
                    return Coord(axis)
                raise ParseError(f"coordinate {val!r} out of range 1..{self.n}", off)
            if val in self.params:
                return Param(val)
            raise ParseError(f"unknown identifier {val!r}", off)
        if kind == "op" and val == "(":
            e = self.expr()
            self.expect_op(")")
            return e
        raise ParseError(f"unexpected token {val!r}" if val else "unexpected end of input", off)


def alias_fault(aliases: Sequence[str], params: Iterable[str]) -> tuple[int, str] | None:
    """(position, reason) of the first alias that would rebind a name without
    notice, else None: a repeated alias, a parameter or function name, or a
    coordinate name x<i> given to an axis other than i."""
    params = frozenset(params)
    for pos, name in enumerate(aliases):
        coordinate = re.fullmatch(r"x(\d+)", name)
        if name in aliases[:pos]:
            return pos, f"alias {name!r} is repeated"
        if name in params:
            return pos, f"alias {name!r} is also a parameter name"
        if name in FUNCTIONS:
            return pos, f"alias {name!r} is a function name"
        if coordinate is not None and int(coordinate.group(1)) != pos + 1:
            return pos, f"alias {name!r} names axis {int(coordinate.group(1))}, not {pos + 1}"
    return None


def parse(
    text: str,
    n: int,
    params: Iterable[str] = (),
    aliases: Sequence[str] | None = None,
) -> Expr:
    """Parse ``text`` over coordinates x1..xn (plus aliases) and parameter names."""
    return _Parser(text, n, frozenset(params), aliases).parse()


# ---------------------------------------------------------------------------
# Scalar fields
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ScalarField:
    """An expression over a fixed n-dimensional chart, with exact gradient."""

    n: int
    expression: Expr
    name: str = ""

    @classmethod
    def from_text(cls, text: str, n: int, params: Mapping[str, float] | None = None,
                  aliases: Sequence[str] | None = None, name: str = "") -> "ScalarField":
        e = parse(text, n, params=(params or {}).keys(), aliases=aliases)
        if params:
            e = bind_params(e, params)
        return cls(n, e, name)

    def __call__(self, point: Sequence[float]) -> float:
        return self.compiled(point)

    @cached_property
    def grad(self) -> tuple[Expr, ...]:
        return tuple(differentiate(self.expression, i) for i in range(1, self.n + 1))

    def partial(self, axis: int) -> Expr:
        return self.grad[axis - 1]

    def gradient(self, point: Sequence[float]) -> list[float]:
        return list(self._compiled_grad(point))

    @cached_property
    def compiled(self) -> Callable[[Sequence[float]], float]:
        return compile_expr(self.expression)

    @cached_property
    def _compiled_grad(self) -> Callable[[Sequence[float]], tuple]:
        return compile_vector(self.grad)

