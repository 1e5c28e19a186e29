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
that overflows a float is a ParseError, and so is a tree more than
``MAX_EXPR_DEPTH`` levels deep or nested deeper than that: every walk of a
tree recurses once per level, and the limit keeps the deepest of them within
Python's default recursion limit.  A tree built through the constructors
has no such limit: a walk of it that runs out of recursion at a public entry
point (``differentiate``, ``substitute``, ``bind_params``, ``to_str``,
``compile_expr``, ``compile_vector``) raises ``ExprDepthError`` naming the
depth that ``tree_depth`` measures.

Interned nodes.  Nodes are immutable and hash-consed: constructing a node
returns the live node with the same type and fields (floats by their bits,
so Const(-0.0) is not Const(0.0)), so equality is identity and hashing is
O(1).  The intern table holds nodes weakly.  Constructors fold constants
and algebraic units (0 + e, 1 * e, e^1, ...); nothing else is rewritten.
``differentiate`` is memoized per (node, axis) on the node.  No node class
is subclassed, so walks, derivatives and folding dispatch on ``type(e)``.

One compiler.  ``compile_vector`` turns a list of expressions into one
straight-line function with one temporary per unique node, in left-to-right
post-order; each temporary is the single ``float`` or ``math`` operation of
its node, so values are bit for bit those of a node-by-node evaluation.  The
source is written in one pass: the walk numbers a node and writes its line
the first time it reaches it, after its operands.
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
import sys
import weakref
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from types import CodeType, FunctionType
from typing import Callable, Iterable, Mapping, Sequence

from .errors import EvalDomainError, ExprDepthError, ParseError

FUNCTIONS = ("sqrt", "sin", "cos", "exp", "log")

# The deepest tree, and nesting, ``parse`` accepts.  The deepest recursions
# the package runs take about 5 frames per parsed level (the parser's descent
# through a parenthesis; differentiating a first derivative, up to 2.5 times
# deeper than its source, at 2 frames a level), so 150 levels need under 800
# frames of Python's default limit of 1000.
MAX_EXPR_DEPTH = 150


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

# Node classes are never subclassed, so every walk dispatches on ``type(e)``
# alone: one identity test per class instead of an ``isinstance`` chain.
_BINARY = {Add: "+", Sub: "-", Mul: "*", Div: "/"}


def is_zero(e: Expr) -> bool:
    return type(e) is Const and e.value == 0.0


def is_one(e: Expr) -> bool:
    return type(e) is Const and e.value == 1.0


def children(e: Expr) -> tuple[Expr, ...]:
    """Operands in evaluation order (left to right)."""
    t = type(e)
    if t in _BINARY:
        return (e.a, e.b)
    if t is Neg or t is Call:
        return (e.arg,)
    if t is Pow:
        return (e.base,)
    return ()


def tree_depth(e: Expr) -> int:
    """Nodes on the longest path from ``e`` down to a leaf, measured with an
    explicit stack so that no tree is too deep to measure."""
    depth: dict[Expr, int] = {}
    stack = [e]
    while stack:
        node = stack[-1]
        if node in depth:
            stack.pop()
            continue
        operands = children(node)
        pending = [c for c in operands if c not in depth]
        if pending:
            stack += pending
        else:
            stack.pop()
            depth[node] = 1 + max((depth[c] for c in operands), default=0)
    return depth[e]


def _too_deep(walk: str, exprs: Iterable[Expr]) -> ExprDepthError:
    """The error for a ``walk`` of ``exprs`` that ran out of Python's
    recursion limit: every recursive walk takes a frame or more per level."""
    depth = max(map(tree_depth, exprs), default=0)
    return ExprDepthError(f"{walk}: expression is {depth} levels deep, too deep to walk "
                          f"within Python's recursion limit of {sys.getrecursionlimit()}", depth)


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
    if type(a) is Const and type(b) is Const:
        return Const(a.value + b.value)
    return Add(a, b)


def sub(a: Expr, b: Expr) -> Expr:
    if is_zero(b):
        return a
    if is_zero(a):
        return neg(b)
    if type(a) is Const and type(b) is Const:
        return Const(a.value - b.value)
    return Sub(a, b)


def neg(a: Expr) -> Expr:
    t = type(a)
    if t is Const:
        return Const(-a.value)
    if t is Neg:
        return a.arg
    return Neg(a)


def mul(a: Expr, b: Expr) -> Expr:
    if is_zero(a) or is_zero(b):
        return ZERO
    if is_one(a):
        return b
    if is_one(b):
        return a
    if type(a) is Const and type(b) is Const:
        return Const(a.value * b.value)
    return Mul(a, b)


def div(a: Expr, b: Expr) -> Expr:
    if is_one(b):
        return a
    if is_zero(a) and not is_zero(b):
        return ZERO
    if type(a) is Const and type(b) is Const and b.value != 0.0:
        return Const(a.value / b.value)
    return Div(a, b)


def powc(base: Expr, exponent: Fraction | int) -> Expr:
    exponent = Fraction(exponent)
    if exponent == 0:
        return ONE
    if exponent == 1:
        return base
    if type(base) is Const:
        try:
            return Const(_pow_value(base.value, exponent))
        except (ValueError, ZeroDivisionError, OverflowError):
            pass
    return Pow(base, exponent)


def call(fn: str, arg: Expr) -> Expr:
    if fn not in FUNCTIONS:
        raise ValueError(f"unknown function {fn!r}")
    if type(arg) is Const:
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
        return _differentiate(e, axis)
    except RecursionError:
        raise _too_deep("differentiate", [e]) from None


def _differentiate(e: Expr, axis: int) -> Expr:
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
    t = type(e)
    if t is Mul:
        return add(mul(_differentiate(e.a, axis), e.b), mul(e.a, _differentiate(e.b, axis)))
    if t is Add:
        return add(_differentiate(e.a, axis), _differentiate(e.b, axis))
    if t is Sub:
        return sub(_differentiate(e.a, axis), _differentiate(e.b, axis))
    if t is Coord:
        return ONE if e.axis == axis else ZERO
    if t is Const or t is Param:
        return ZERO
    if t is Pow:
        db = _differentiate(e.base, axis)
        coeff = mul(Const(float(e.exponent)), powc(e.base, e.exponent - 1))
        return mul(coeff, db)
    if t is Div:
        da, db = _differentiate(e.a, axis), _differentiate(e.b, axis)
        return div(sub(mul(da, e.b), mul(e.a, db)), powc(e.b, 2))
    if t is Neg:
        return neg(_differentiate(e.arg, axis))
    if t is Call:
        da = _differentiate(e.arg, axis)
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
    try:
        return _substitute(e, leaves)
    except RecursionError:
        raise _too_deep("substitute", [e]) from None


def _substitute(e: Expr, memo: dict[Expr, Expr]) -> Expr:
    """``memo`` starts as the leaf map and collects every rewritten node."""
    out = memo.get(e)
    if out is None:
        t = type(e)
        fold = _FOLD.get(t)
        if fold is not None:  # one frame per level: no generator over children
            out = (fold(_substitute(e.arg, memo)) if t is Neg
                   else fold(_substitute(e.a, memo), _substitute(e.b, memo)))
        elif t is Pow:
            out = powc(_substitute(e.base, memo), e.exponent)
        elif t is Call:
            out = call(e.fn, _substitute(e.arg, memo))
        else:
            out = e
        memo[e] = out
    return out


def bind_params(e: Expr, values: Mapping[str, float]) -> Expr:
    """Replace parameter leaves by constants; an unbound one is an error."""
    memo: dict[Expr, Expr] = {Param(name): Const(float(v)) for name, v in values.items()}
    try:
        out = _substitute(e, memo)
    except RecursionError:
        raise _too_deep("bind_params", [e]) from None
    # the leaf map comes first, then every node in post-order: the first
    # unbound parameter there is the first one a left-to-right walk meets
    for node in memo:
        if type(node) is Param and node.name not in values:
            raise EvalDomainError(f"unbound parameter {node.name!r}")
    return out


# ---------------------------------------------------------------------------
# Printing
# ---------------------------------------------------------------------------

_LVL_ADD, _LVL_MUL, _LVL_UNARY, _LVL_POW, _LVL_ATOM = 1, 2, 3, 4, 5
_PREC = {Add: _LVL_ADD, Sub: _LVL_ADD, Mul: _LVL_MUL, Div: _LVL_MUL, Neg: _LVL_UNARY,
         Pow: _LVL_POW}
# binary class -> (symbol, level its left operand needs, level its right one needs)
_INFIX = {Add: (" + ", _LVL_ADD, _LVL_MUL), Sub: (" - ", _LVL_ADD, _LVL_MUL),
          Mul: ("*", _LVL_MUL, _LVL_UNARY), Div: ("/", _LVL_MUL, _LVL_UNARY)}


def _operand(e: Expr, s: str, need: int) -> str:
    """``s``, the text of ``e``, parenthesized when ``e`` binds looser than ``need``."""
    t = type(e)
    level = (_LVL_UNARY if e.value < 0 else _LVL_ATOM) if t is Const else _PREC.get(t, _LVL_ATOM)
    return f"({s})" if level < need else s


def to_str(e: Expr) -> str:
    """Parseable infix form; ``parse(to_str(e))`` evaluates identically to ``e``."""
    try:
        return _to_str(e)
    except RecursionError:
        raise _too_deep("to_str", [e]) from None


def _to_str(e: Expr) -> str:
    """``to_str``, one frame per level of the tree."""
    t = type(e)
    infix = _INFIX.get(t)
    if infix is not None:
        op, left, right = infix
        return _operand(e.a, _to_str(e.a), left) + op + _operand(e.b, _to_str(e.b), right)
    if t is Const:
        return repr(e.value)
    if t is Coord:
        return f"x{e.axis}"
    if t is Param:
        return e.name
    if t is Neg:
        return "-" + _operand(e.arg, _to_str(e.arg), _LVL_UNARY)
    if t is Pow:
        ex = e.exponent
        estr = str(ex.numerator) if ex.denominator == 1 else f"({ex.numerator}/{ex.denominator})"
        return f"{_operand(e.base, _to_str(e.base), _LVL_ATOM)}^{estr}"
    if t is Call:
        return f"{e.fn}({_to_str(e.arg)})"
    raise TypeError(f"not an Expr: {e!r}")


# ---------------------------------------------------------------------------
# Compilation: one straight-line function per list of expressions
# ---------------------------------------------------------------------------

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
    t = type(node)
    if isinstance(exc, OverflowError):
        message = "floating-point overflow"
    elif t is Div:
        message = "division by zero"
    elif t is Pow:
        message = f"power domain error: {exc}"
    elif t is Call and node.fn == "sqrt":
        message = "sqrt of negative value"
    elif t is Call and node.fn == "log":
        message = "log of nonpositive value"
    elif t is Call:
        message = f"{node.fn} domain error: {exc}"
    else:
        return exc
    return EvalDomainError(message, "" if node is None else to_str(node))


def _emit(e: Expr, index: dict, nodes: list, body: list, consts: dict) -> int:
    """The temporary number of node ``e``.  The first time the walk reaches
    ``e`` (``index`` is also the seen set), its operands are emitted left to
    right, then its line ``t<i> = <one operation>``; a constant becomes the
    parameter ``_c<i>``, added to ``consts``.  A DAG has no cycles, so the
    numbers follow the left-to-right post-order."""
    i = index.get(e)
    if i is not None:
        return i
    t = type(e)
    op = _BINARY.get(t)
    if op is not None:
        a = _emit(e.a, index, nodes, body, consts)
        rhs = f"t{a} {op} t{_emit(e.b, index, nodes, body, consts)}"
    elif t is Const:
        rhs = f"_c{len(nodes)}"
        consts[rhs] = e.value
    elif t is Coord:
        rhs = f"_float(x[{e.axis - 1}])"
    elif t is Pow:
        ex = e.exponent
        base = _emit(e.base, index, nodes, body, consts)
        rhs = (f"t{base} ** {ex.numerator}" if ex.denominator == 1
               else f"_pow(t{base}, {float(ex)!r})")
    elif t is Call:
        rhs = f"_{e.fn}(t{_emit(e.arg, index, nodes, body, consts)})"
    elif t is Neg:
        rhs = f"-t{_emit(e.arg, index, nodes, body, consts)}"
    elif t is Param:
        raise EvalDomainError(f"unbound parameter {e.name!r}")
    else:
        raise TypeError(f"not an Expr: {e!r}")
    index[e] = i = len(nodes)
    nodes.append(e)
    body.append(f"  t{i} = {rhs}")
    return i


@lru_cache(maxsize=_CODE_CACHE_SIZE)
def _code(source: str) -> CodeType:
    """The code of the one function ``source`` defines.  Keyed by the text
    alone, so the cache holds no node."""
    module = compile(source, "<ghm.expr compiled>", "exec")
    return next(c for c in module.co_consts if isinstance(c, CodeType))


def _generate(exprs: Sequence[Expr], scalar: bool) -> tuple[str, dict[str, float], list]:
    """(source, constants by parameter name, node of each temporary): one
    walk emits each unique node's line as it first reaches the node."""
    index: dict[Expr, int] = {}
    nodes: list = []
    lines = ["", " try:"]  # the def line goes first once the constants are known
    consts: dict[str, float] = {}
    results = [f"t{_emit(e, index, nodes, lines, consts)}" for e in exprs]
    lines[0] = f"def _f(x{''.join(', ' + name for name in consts)}):"
    lines.append(f"  return {results[0]}" if scalar
                 else f"  return ({''.join(r + ',' for r in results)})")
    lines += [" except _FAULTS as exc:", "  raise _fault(exc, _nodes) from None"]
    return "\n".join(lines), consts, nodes


def _compile(exprs: Sequence[Expr], scalar: bool) -> Callable:
    source, consts, line_nodes = _generate(exprs, scalar)  # nodes name a faulting line
    if scalar:
        # compile_expr caches the function on its root, the last node: a
        # strong reference back would be a cycle that only the collector frees
        line_nodes[-1] = weakref.ref(line_nodes[-1])
    namespace = dict(_NAMESPACE, _fault=_fault, _nodes=line_nodes)
    return FunctionType(_code(source), namespace, "_f", tuple(consts.values()))


def compile_vector(exprs: Iterable[Expr]) -> Callable[[Sequence[float]], tuple]:
    """One function of a point returning the tuple of the expressions' values."""
    exprs = tuple(exprs)
    try:
        return _compile(exprs, scalar=False)
    except RecursionError:
        raise _too_deep("compile_vector", exprs) from None


def compile_expr(e: Expr) -> Callable[[Sequence[float]], float]:
    """The scalar function of a parameter-free expression, cached on the node."""
    try:
        return e._fn
    except AttributeError:
        try:
            fn = _compile((e,), scalar=True)
        except RecursionError:
            raise _too_deep("compile_expr", [e]) from None
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
        self.nesting = 0  # open parentheses, calls and unary minuses

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
        # a path down the tree takes at least one token per node
        if len(self.tokens) - 1 > MAX_EXPR_DEPTH and (depth := tree_depth(e)) > MAX_EXPR_DEPTH:
            raise ParseError(f"expression is {depth} levels deep, more than {MAX_EXPR_DEPTH}", 0)
        return e

    def enter(self, off: int) -> None:
        """Open one more level of nesting (the caller closes it), as long as
        the parser's descent stays within MAX_EXPR_DEPTH levels."""
        if self.nesting == MAX_EXPR_DEPTH:
            raise ParseError(f"expression nested more than {MAX_EXPR_DEPTH} levels deep", off)
        self.nesting += 1

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
        kind, val, off = self.peek()
        if kind == "op" and val == "-":
            self.next()
            self.enter(off)
            e = neg(self.factor())
            self.nesting -= 1
            return e
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
                self.enter(off)
                arg = self.expr()
                self.expect_op(")")
                self.nesting -= 1
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
            self.enter(off)
            e = self.expr()
            self.expect_op(")")
            self.nesting -= 1
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

