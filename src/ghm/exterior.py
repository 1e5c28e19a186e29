"""Sparse alternating tensor algebra on a single chart of R^n.

Values and fields are keyed by multi-indices: strictly increasing tuples of
axis labels in 1..n.  Every unordered tuple normalizes through
``sort_with_sign`` (sign 0 on repeats), so sign bookkeeping lives in one
routine.

Sign conventions
----------------
All contractions reduce to one kernel, the left interior product with slot
signs (-1)^(position+1):

    iota_X (a^1 ^ ... ^ a^k) = sum_i (-1)^(i+1) a^i(X) * (slot i removed)

and its mirror for a 1-form against a multivector.  Iterated contractions by
a decomposable element act first-factor-first:

    iota_{J_1 ^ ... ^ J_m} w      = iota_{J_m} ... iota_{J_1} w
    iota_{a^1 ^ ... ^ a^m} T      = iota_{a^m} ... iota_{a^1} T

``interior`` is that kernel for values and fields alike, as ``wedge`` is for
the product.  It loops over the target's keys first and, within each, over
the contracting keys, so a field result's keys and interned nodes come in the
target's order.  ``iterated_interior`` contracts by exact differentials
df^1..df^m, the rightmost first.

Consequences used throughout (``k`` is the degree of the form/multivector):

    iota_{d_I} dx^I                     = +1           (all k)
    iota_{iota_{d_j} dx^{1..k}} d_{1..k} = (-1)^(k+1) d_j

so the canonical flat pair (dx^{1..k}, d_{1..k}) is an exact inverse only up
to the k-dependent ``inverse_law_sign``.  Likewise the bracket-route field
-iota_{dH^1}...iota_{dH^{k-1}} J and the minimum-norm solution of
iota_X w = -dH^1^...^dH^{k-1} differ by ``hdw_vs_bracket_sign`` when (w, J)
is the canonical flat pair.  Neither sign is ever absorbed into tensor
coefficients.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from . import expr as ex
from .errors import DimensionError, EvalDomainError
from .expr import Expr, ScalarField

MAX_DIM = 12

# the most floats of stacked minors one pullback ``det`` call takes: 16 MiB
PULLBACK_BLOCK_FLOATS = 1 << 21

Key = tuple[int, ...]


def sort_with_sign(indices: Sequence[int]) -> tuple[Key, int]:
    """Normalize an index tuple to (increasing key, sign); sign 0 iff repeats."""
    idx = list(indices)
    sign = 1
    # insertion sort; parity = number of swaps
    for i in range(1, len(idx)):
        j = i
        while j > 0 and idx[j - 1] > idx[j]:
            idx[j - 1], idx[j] = idx[j], idx[j - 1]
            sign = -sign
            j -= 1
    for i in range(1, len(idx)):
        if idx[i - 1] == idx[i]:
            return tuple(idx), 0
    return tuple(idx), sign


def increasing_indices(n: int, k: int) -> list[Key]:
    """All degree-k multi-indices in lexicographic order."""
    return list(itertools.combinations(range(1, n + 1), k))


def nan_max(items: Iterable, key: Callable | None = None, default=None):
    """``max(items, key=key)`` with NaN ranked above every number: the first
    item whose key is NaN wins, so a NaN residual never reads as a smaller
    one (``max`` keeps a NaN only when it comes first, since every
    comparison with NaN is false).  Empty items give ``default``."""
    best, best_key = default, None
    for item in items:
        k = item if key is None else key(item)
        if k != k:
            return item
        if best_key is None or k > best_key:
            best, best_key = item, k
    return best


# ---------------------------------------------------------------------------
# The shared container
# ---------------------------------------------------------------------------

class _Alt:
    """Degree-homogeneous sparse alternating tensor; no stored zeros.  Each
    subclass sets its coefficient ring as class attributes.  Sums accumulate
    as ``_add(out.get(key, _zero), c)``: on values the ``0.0 + c`` turns ints
    into floats, and on fields ``add(ZERO, e)`` folds to the same node ``e``."""

    __slots__ = ("n", "k", "coeffs")

    def __init__(self, n: int, k: int, coeffs: Mapping[Key, object] | None = None,
                 _normalized: bool = False):
        # degrees above n are allowed and necessarily empty (e.g. d of a top form)
        if not (0 <= n <= MAX_DIM and 0 <= k <= MAX_DIM + 1):
            raise DimensionError(f"need n <= {MAX_DIM}, 0 <= k, got n={n}, k={k}")
        self.n = n
        self.k = k
        zero, is_zero, add = self._zero, self._is_zero, self._add
        if _normalized:  # distinct increasing keys: each sum has one term
            out = {key: add(zero, c) for key, c in (coeffs or {}).items()}
        else:
            out = {}
            for idx, c in (coeffs or {}).items():
                if is_zero(c):
                    continue
                key, s = sort_with_sign(idx)
                if s == 0:
                    continue
                if len(key) != k:
                    raise DimensionError(f"key {idx} has degree {len(key)}, expected {k}")
                if key and (key[0] < 1 or key[-1] > n):
                    raise DimensionError(f"index out of range 1..{n}: {idx}")
                out[key] = add(out.get(key, zero), c if s == 1 else self._neg(c))
        self.coeffs = {key: c for key, c in out.items() if not is_zero(c)}

    @classmethod
    def constant(cls, n: int, k: int, coeffs: Mapping[Key, float]):
        """The tensor with constant coefficients ``coeffs``."""
        return cls(n, k, {key: cls._lift(c) for key, c in coeffs.items()})

    def component(self, indices: Sequence[int]):
        """Full (sign-extended) component for an arbitrary index tuple."""
        key, s = sort_with_sign(indices)
        if s == 0:
            return self._zero
        c = self.coeffs.get(key, self._zero)
        return c if s == 1 else self._neg(c)

    def __add__(self, other):
        if type(other) is not type(self) or other.n != self.n or other.k != self.k:
            raise DimensionError(f"incompatible operands: {self!r} vs {other!r}")
        zero, add = self._zero, self._add
        out = dict(self.coeffs)
        for key, c in other.coeffs.items():
            out[key] = add(out.get(key, zero), c)
        return type(self)(self.n, self.k, out, _normalized=True)

    def __sub__(self, other):
        return self + other.scale(-1.0)

    def scale(self, factor):
        f, mul = self._lift(factor), self._mul
        return type(self)(self.n, self.k, {key: mul(f, c) for key, c in self.coeffs.items()},
                          _normalized=True)

    def __repr__(self) -> str:
        inner = ", ".join(f"{key}: {self._format(c)}" for key, c in sorted(self.coeffs.items()))
        return f"{type(self).__name__}(n={self.n}, k={self.k}, {{{inner}}})"


def wedge(a: _Alt, b: _Alt) -> _Alt:
    """Graded product; wedge(a, b) = (-1)^(kl) wedge(b, a)."""
    if type(a) is not type(b) or a.n != b.n:
        raise DimensionError("wedge requires matching variance and dimension")
    zero, neg, add, mul = a._zero, a._neg, a._add, a._mul
    out: dict = {}
    for ia, ca in a.coeffs.items():
        for ib, cb in b.coeffs.items():
            key, s = sort_with_sign(ia + ib)
            if s == 0:
                continue
            term = mul(ca, cb)
            out[key] = add(out.get(key, zero), term if s == 1 else neg(term))
    return type(a)(a.n, a.k + b.k, out, _normalized=True)


# ---------------------------------------------------------------------------
# Pointwise values
# ---------------------------------------------------------------------------

class _AltValue(_Alt):
    """Values: float coefficients.  ``scale`` leaves its factor as given, so
    numpy scalars keep their type."""

    __slots__ = ()
    _zero = 0.0
    _is_zero = staticmethod(lambda c: c == 0.0)  # not (0.0).__eq__: numpy ints
    _neg = staticmethod(operator.neg)
    _add = staticmethod(operator.add)
    _mul = staticmethod(operator.mul)
    _lift = staticmethod(lambda c: c)
    _format = staticmethod("{:g}".format)

    def max_abs(self) -> float:
        return nan_max((abs(c) for c in self.coeffs.values()), default=0.0)

    def __eq__(self, other) -> bool:
        return (type(other) is type(self) and other.n == self.n
                and other.k == self.k and other.coeffs == self.coeffs)


class FormValue(_AltValue):
    """Covariant degree-k value (pointwise differential form)."""

    _covariant = True


class MultiVectorValue(_AltValue):
    """Contravariant degree-k value (pointwise multivector)."""

    _covariant = False


def interior(by: _Alt, target: _Alt) -> _Alt:
    """iota_by target, the one contraction kernel over either ring: for each
    key of ``target``, each key of ``by`` removes its axes one at a time,
    first axis first, each with its slot sign, and adds ``mul(c, v)``
    (negated on an odd sign) to the remaining key.  One operand is a form,
    the other a multivector."""
    if by._covariant == target._covariant:
        raise DimensionError("interior requires one form and one multivector")
    if by.n != target.n:
        raise DimensionError("dimension mismatch")
    if by.k > target.k:
        raise DimensionError(f"contraction degree {by.k} exceeds degree {target.k}")
    zero, neg, add, mul = target._zero, target._neg, target._add, target._mul
    out: dict = {}
    for key, v in target.coeffs.items():
        for by_key, c in by.coeffs.items():
            rest, odd = key, 0
            for axis in by_key:
                if axis not in rest:
                    break
                pos = rest.index(axis)
                rest = rest[:pos] + rest[pos + 1:]
                odd ^= pos & 1
            else:
                term = mul(c, v)
                out[rest] = add(out.get(rest, zero), neg(term) if odd else term)
    return type(target)(target.n, target.k - by.k, out, _normalized=True)


def interior_vector(X: Sequence[float], w: FormValue) -> FormValue:
    """iota_X w for a vector of components X^1..X^n."""
    if len(X) != w.n:
        raise DimensionError(f"vector length {len(X)} != n={w.n}")
    return interior(MultiVectorValue(w.n, 1, {(j,): x for j, x in enumerate(X, start=1)},
                                     _normalized=True), w)


def inverse_law_sign(k: int) -> int:
    """Sign s(k) with iota_{iota_X dx^{1..k}} d_{1..k} = s(k) X; s = (-1)^(k+1)."""
    return -1 if k % 2 == 0 else 1


def hdw_vs_bracket_sign(k: int) -> int:
    """Ratio of the bracket-route field to the minimum-norm hat-map solution
    for the canonical flat pair (dx^{1..k}, d_{1..k}):
    (-1)^((k-1)(k-2)/2 + k + 1); k=2,3 -> -1, k=4,5 -> +1, period four.
    """
    return inverse_law_sign(k) * (-1 if ((k - 1) * (k - 2) // 2) % 2 else 1)


# ---------------------------------------------------------------------------
# Fields (expression-valued coefficients)
# ---------------------------------------------------------------------------

class _AltField(_Alt):
    """Fields: expression coefficients, interned, so equal terms are one node."""

    __slots__ = ("_memo",)
    _value_cls: type = _AltValue
    _zero = ex.ZERO
    _is_zero = staticmethod(ex.is_zero)
    _neg = staticmethod(ex.neg)
    _add = staticmethod(ex.add)
    _mul = staticmethod(ex.mul)
    _lift = staticmethod(lambda c: c if isinstance(c, Expr) else ex.const(c))
    _format = staticmethod(ex.to_str)

    def __init__(self, n: int, k: int, coeffs: Mapping[Key, Expr] | None = None,
                 _normalized: bool = False):
        super().__init__(n, k, coeffs, _normalized)
        self._memo: dict = {}

    def memo(self, name, build: Callable[["_AltField"], object]):
        """``build(self)``, computed once per field: for data derived from the
        coefficients alone (compiled values, index scatters)."""
        try:
            return self._memo[name]
        except KeyError:
            value = self._memo[name] = build(self)
            return value

    def coefficient_values(self, point: Sequence[float]) -> tuple[float, ...]:
        """The coefficients' values at ``point``, in ``coeffs`` order."""
        return self.memo("values", lambda f: ex.compile_vector(f.coeffs.values()))(point)

    def gather_plan(self, indices: Iterable[Sequence[int]]) -> tuple[np.ndarray, np.ndarray]:
        """(slots, signs) that ``gather`` reads the full component of each index
        tuple through, in the order given.  A repeated index or an absent key
        reads the zero slot; an odd order negates, so an absent odd-order
        entry reads -0.0.  Build it once and memoize it under a name."""
        slot_of = {key: i for i, key in enumerate(self.coeffs)}
        zero_slot = len(slot_of)
        slots, signs = [], []
        for I in indices:
            key, s = sort_with_sign(I)
            slots.append(slot_of.get(key, zero_slot) if s else zero_slot)
            signs.append(-1.0 if s < 0 else 1.0)
        return np.array(slots, dtype=np.intp), np.array(signs)

    def jet_plan(self) -> tuple[list[Expr], np.ndarray]:
        """(expressions, positions) of the jet table that ``gather`` reads with
        ``jet``: the coefficients, then their nonzero exact partials, and the
        flat position of each in the table, whose row 0 holds the values and
        row u the partials d/dx^u.  Memoized."""
        return self.memo("jet_plan", _jet_plan)

    def jet_function(self) -> Callable[[Sequence[float]], tuple]:
        """One compiled function of ``jet_plan()``'s expressions.  Memoized."""
        return self.memo("jet", lambda f: ex.compile_vector(f.jet_plan()[0]))

    def gather(self, plan: tuple[np.ndarray, np.ndarray], point: Sequence[float],
               jet: bool = False) -> np.ndarray:
        """The components of ``plan``'s index tuples at ``point``, C-contiguous.
        With ``jet``, row 0 holds the components and row u their exact partials
        d/dx^u, from one compiled function of ``jet_plan()``'s expressions."""
        if jet:
            values = self.jet_function()(point)
        else:
            values = self.coefficient_values(point)
        return self.gather_from(plan, values, jet)

    def gather_from(self, plan: tuple[np.ndarray, np.ndarray], values: tuple[float, ...],
                    jet: bool = False) -> np.ndarray:
        """``gather`` from values already computed: the coefficients' values in
        ``coeffs`` order or, with ``jet``, the values of ``jet_plan()``'s
        expressions, or a (points x values) array of such jet rows, which
        gives the result a leading axis of points.  The coefficients sit in a
        table with a trailing zero slot; one that evaluates to -0.0 is dropped
        from the value, so it reads +0.0, as does every absent partial."""
        slots, signs = plan
        if jet:
            shape = (self.n + 1, len(self.coeffs) + 1)
            if isinstance(values, np.ndarray):  # a block: one table per row
                c = np.zeros((len(values), shape[0] * shape[1]))
                c[:, self.jet_plan()[1]] = values
                c = c.reshape((len(values),) + shape)
            else:
                c = np.zeros(shape)
                c.put(self.jet_plan()[1], values)
        else:
            c = np.array(values + (0.0,))
        c += 0.0  # -0.0 + 0.0 is +0.0; no other value changes
        return signs * c.take(slots, axis=-1)

    def at(self, point: Sequence[float]) -> _AltValue:
        return self._value_cls(self.n, self.k,
                               dict(zip(self.coeffs, self.coefficient_values(point))),
                               _normalized=True)


def _jet_plan(f: _AltField) -> tuple[list[Expr], np.ndarray]:
    """The coefficients, then their nonzero exact partials; and the flat
    position of each in ``gather``'s jet table."""
    exprs, width = list(f.coeffs.values()), len(f.coeffs) + 1
    partials = [(u * width + slot, ex.differentiate(e, u))
                for slot, e in enumerate(exprs) for u in range(1, f.n + 1)]
    partials = [(position, d) for position, d in partials if not ex.is_zero(d)]
    return (exprs + [d for _, d in partials],
            np.array([*range(len(exprs)), *(position for position, _ in partials)], dtype=np.intp))


class FormField(_AltField):
    _value_cls = FormValue
    _covariant = True


class MultiVectorField(_AltField):
    _value_cls = MultiVectorValue
    _covariant = False


@dataclass(frozen=True)
class VectorField:
    """n expression components; the degree-1 contravariant case."""

    n: int
    components: tuple[Expr, ...]

    def __post_init__(self):
        if len(self.components) != self.n:
            raise DimensionError(f"expected {self.n} components")

    def at(self, point: Sequence[float]) -> np.ndarray:
        return np.array(self.compiled(point))

    def divergence_expr(self) -> Expr:
        """sum_i d_i X^i: ``divergence_exprs`` of the degree-1 multivector."""
        return divergence_exprs(self.as_multivector())[()]

    @cached_property
    def compiled(self) -> Callable[[Sequence[float]], tuple]:
        return ex.compile_vector(self.components)

    def as_multivector(self) -> MultiVectorField:
        return MultiVectorField(self.n, 1,
                                {(i,): c for i, c in enumerate(self.components, start=1)},
                                _normalized=True)


def grad_field(f: ScalarField) -> FormField:
    """The exact differential df as a 1-form field."""
    return FormField(f.n, 1, {(i,): g for i, g in enumerate(f.grad, start=1)})


def exterior_derivative(w: FormField) -> FormField:
    """d(f dx^I) = sum_i (df/dx^i) dx^i ^ dx^I with exact symbolic partials."""
    out: dict[Key, Expr] = {}
    for key, e in w.coeffs.items():
        for i in range(1, w.n + 1):
            new_key, s = sort_with_sign((i,) + key)
            if s == 0:
                continue
            de = ex.differentiate(e, i)
            if ex.is_zero(de):
                continue
            out[new_key] = ex.add(out.get(new_key, ex.ZERO), de if s == 1 else ex.neg(de))
    return FormField(w.n, w.k + 1, out, _normalized=True)


def interior_vector_field(X: VectorField, w: FormField) -> FormField:
    """iota_X w with expression coefficients."""
    return interior(X.as_multivector(), w)


interior_form_field = interior  # an older name, still called by bench/layers.py


def iterated_interior(fs: Sequence[ScalarField], T: _Alt) -> _Alt:
    """iota_{df^1} ... iota_{df^m} T, the rightmost contraction first."""
    for f in reversed(fs):
        T = interior(grad_field(f), T)
    return T


def divergence_exprs(J: MultiVectorField, g: ScalarField | None = None) -> dict[Key, Expr]:
    """Symbolic sum_i d_i (g J^{i j1..j_{k-1}}) for each increasing target tuple."""
    out: dict[Key, Expr] = {}
    for K in increasing_indices(J.n, J.k - 1):
        total = ex.ZERO
        for i in range(1, J.n + 1):
            comp = J.component((i,) + K)  # zero when i is in K
            if ex.is_zero(comp):
                continue
            prod = comp if g is None else ex.mul(g.expression, comp)
            total = ex.add(total, ex.differentiate(prod, i))
        out[K] = total
    return out


def lie_derivative(X: VectorField, w: FormField) -> FormField:
    """Cartan's formula L_X w = d(iota_X w) + iota_X (dw), all symbolic."""
    by = X.as_multivector()
    return exterior_derivative(interior(by, w)) + interior(by, exterior_derivative(w))


# ---------------------------------------------------------------------------
# Point maps and pullback
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PointMap:
    """A smooth map R^n -> R^n given by component expressions."""

    n: int
    components: tuple[Expr, ...]

    def __post_init__(self):
        if len(self.components) != self.n:
            raise DimensionError(f"expected {self.n} components")

    @classmethod
    def identity(cls, n: int) -> "PointMap":
        return cls(n, tuple(ex.Coord(i) for i in range(1, n + 1)))

    def at(self, point: Sequence[float]) -> np.ndarray:
        return np.array(self._compiled(point))

    def jacobian(self, point: Sequence[float]) -> np.ndarray:
        return np.array(self._compiled_jacobian(point)).reshape(self.n, self.n)

    @cached_property
    def _compiled(self) -> Callable[[Sequence[float]], tuple]:
        return ex.compile_vector(self.components)

    @cached_property
    def _compiled_jacobian(self) -> Callable[[Sequence[float]], tuple]:
        return ex.compile_vector(ex.differentiate(comp, i) for comp in self.components
                                 for i in range(1, self.n + 1))


@lru_cache(maxsize=None)
def _source_columns(n_src: int, k: int) -> tuple[list[Key], np.ndarray]:
    """The degree-k keys of an n_src-dimensional chart and their 0-based
    axes as an index array, built once per (n_src, k); neither is mutated."""
    sources = increasing_indices(n_src, k)
    return sources, np.array(sources, dtype=np.intp).reshape(len(sources), k) - 1


def _require_finite(J: np.ndarray) -> None:
    """An ``EvalDomainError`` naming the first inf or NaN entry (i, j),
    1-based, of a Jacobian or of the first in a stack that holds one:
    ``det`` can read a minor with such an entry as a finite number
    (``det([[nan, -0.0], [1, 0]])`` is 0.0)."""
    if not np.isfinite(J).all():
        bad = tuple(np.argwhere(~np.isfinite(J))[0])
        raise EvalDomainError(f"pullback jacobian entry {tuple(int(i) + 1 for i in bad[-2:])} "
                              f"is {J[bad]}")


def pullback_with_jacobian(J: np.ndarray, omega: _Alt, values: np.ndarray | None = None):
    """Pull a form back through a (possibly rectangular) differential.

    One point: ``J`` has shape (omega.n, n_source) and ``omega`` is a
    ``FormValue``; the result is the ``FormValue`` on the source chart.
    A block of points: ``J`` is a stack (points, omega.n, n_source),
    ``values`` the (points x keys) table of omega's coefficients in
    ``omega.coeffs`` order (omega, a value or a field, gives only n, k and
    the keys), and the result is the (points x sources) table of the pulled
    coefficients, sources in ``increasing_indices(n_source, k)`` order.  The
    one-point call is the block's one-row case.

    The minors det(J[K rows, I cols]) come from stacked ``det`` calls (a
    0 x 0 minor is 1.0), each holding at most ``PULLBACK_BLOCK_FLOATS``
    floats of minors: every key of a block of points, or a block of one
    point's keys.  Each coefficient sums its terms from +0.0 in
    ``omega.coeffs`` order, one row operation per key, and a table entry
    that is 0.0 adds nothing, as a key a ``FormValue`` drops (0 x an
    overflowed minor would be NaN); so the floats are those of a per-point,
    per-minor loop of Python floats whatever the blocks, and as there, an
    overflow warns only from ``det``.  A Jacobian with an inf or NaN entry
    is an ``EvalDomainError``.
    """
    if J.shape[-2] != omega.n:
        raise DimensionError(f"jacobian rows {J.shape[-2]} != form dimension {omega.n}")
    _require_finite(J)
    one = values is None
    if one:
        J, values = J[None], np.fromiter(omega.coeffs.values(), float, len(omega.coeffs))[None]
    n_src, k, width = J.shape[2], omega.k, len(omega.coeffs)
    sources, cols = _source_columns(n_src, k)
    rows = np.array([i - 1 for K in omega.coeffs for i in K], dtype=np.intp).reshape(width, k)
    keys = max(1, PULLBACK_BLOCK_FLOATS // max(1, len(sources) * k * k))
    points = max(1, keys // max(1, width))
    totals = np.zeros((len(J), len(sources)))
    for p in range(0, len(J), points):
        total = totals[p:p + points]
        for start in range(0, width, keys):
            minors = J[p:p + points].take(rows[start:start + keys], axis=1).take(cols, axis=-1)
            dets = np.linalg.det(minors.transpose(0, 1, 3, 2, 4))
            c = values[p:p + points, start:start + keys, None]
            with np.errstate(over="ignore", invalid="ignore"):
                terms = c * dets
                if not one:  # a FormValue holds no 0.0
                    terms[c[..., 0] == 0.0] = 0.0
                for j in range(terms.shape[1]):
                    total += terms[:, j]
    if not one:
        return totals
    return FormValue(n_src, k, dict(zip(sources, totals[0].tolist())), _normalized=True)
