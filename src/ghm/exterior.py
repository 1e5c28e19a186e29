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

Consequences used throughout (``k`` is the degree of the form/multivector):

    <dx^I, d_I>                         = +1           (pairing, all k)
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
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Mapping, Sequence

import numpy as np

from . import expr as ex
from .errors import DimensionError
from .expr import Expr, ScalarField

MAX_DIM = 12

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


def multi_index(indices: Sequence[int], n: int) -> Key:
    """Validate a strictly increasing multi-index within 1..n."""
    key = tuple(indices)
    if any(not (1 <= i <= n) for i in key):
        raise DimensionError(f"index out of range 1..{n}: {key}")
    if any(key[i] >= key[i + 1] for i in range(len(key) - 1)):
        raise DimensionError(f"multi-index not strictly increasing: {key}")
    return key


def increasing_indices(n: int, k: int) -> list[Key]:
    """All degree-k multi-indices in lexicographic order."""
    return list(itertools.combinations(range(1, n + 1), k))


# ---------------------------------------------------------------------------
# Pointwise values
# ---------------------------------------------------------------------------

class _AltValue:
    """Degree-homogeneous sparse alternating tensor value; no stored zeros."""

    __slots__ = ("n", "k", "coeffs")

    def __init__(self, n: int, k: int, coeffs: Mapping[Key, float] | None = None,
                 _normalized: bool = False):
        # degrees above n are allowed and necessarily empty (e.g. d of a top form)
        if not (0 <= n <= MAX_DIM and 0 <= k <= MAX_DIM + 1):
            raise DimensionError(f"need n <= {MAX_DIM}, 0 <= k, got n={n}, k={k}")
        self.n = n
        self.k = k
        out: dict[Key, float] = {}
        for idx, c in (coeffs or {}).items():
            if c == 0.0:
                continue
            if _normalized:
                out[idx] = out.get(idx, 0.0) + c
            else:
                key, s = sort_with_sign(idx)
                if s == 0:
                    continue
                if len(key) != k:
                    raise DimensionError(f"key {idx} has degree {len(key)}, expected {k}")
                if key and (key[0] < 1 or key[-1] > n):
                    raise DimensionError(f"index out of range 1..{n}: {idx}")
                out[key] = out.get(key, 0.0) + s * c
        self.coeffs = {key: c for key, c in out.items() if c != 0.0}

    def component(self, indices: Sequence[int]) -> float:
        """Full (sign-extended) component for an arbitrary index tuple."""
        key, s = sort_with_sign(indices)
        if s == 0:
            return 0.0
        return s * self.coeffs.get(key, 0.0)

    def max_abs(self) -> float:
        return max((abs(c) for c in self.coeffs.values()), default=0.0)

    def norm(self) -> float:
        return float(np.sqrt(sum(c * c for c in self.coeffs.values())))

    def __add__(self, other):
        self._check_like(other)
        out = dict(self.coeffs)
        for key, c in other.coeffs.items():
            out[key] = out.get(key, 0.0) + c
        return type(self)(self.n, self.k, out, _normalized=True)

    def __sub__(self, other):
        return self + other.scale(-1.0)

    def scale(self, factor: float):
        return type(self)(self.n, self.k,
                          {key: factor * c for key, c in self.coeffs.items()},
                          _normalized=True)

    def _check_like(self, other):
        if type(other) is not type(self) or other.n != self.n or other.k != self.k:
            raise DimensionError(f"incompatible values: {self!r} vs {other!r}")

    def __repr__(self) -> str:
        inner = ", ".join(f"{key}: {c:g}" for key, c in sorted(self.coeffs.items()))
        return f"{type(self).__name__}(n={self.n}, k={self.k}, {{{inner}}})"

    def __eq__(self, other) -> bool:
        return (type(other) is type(self) and other.n == self.n
                and other.k == self.k and other.coeffs == self.coeffs)

    def __hash__(self):
        raise TypeError("alternating values are not hashable")


class FormValue(_AltValue):
    """Covariant degree-k value (pointwise differential form)."""


class MultiVectorValue(_AltValue):
    """Contravariant degree-k value (pointwise multivector)."""


def wedge(a: _AltValue, b: _AltValue) -> _AltValue:
    """Graded product; wedge(a, b) = (-1)^(kl) wedge(b, a)."""
    if type(a) is not type(b) or a.n != b.n:
        raise DimensionError("wedge requires matching variance and dimension")
    out: dict[Key, float] = {}
    for ia, ca in a.coeffs.items():
        for ib, cb in b.coeffs.items():
            key, s = sort_with_sign(ia + ib)
            if s == 0:
                continue
            out[key] = out.get(key, 0.0) + s * ca * cb
    return type(a)(a.n, a.k + b.k, out, _normalized=True)


def pairing(J: MultiVectorValue, w: FormValue) -> float:
    """<d_I, dx^J> pairing extended bilinearly; equal degrees required."""
    if J.n != w.n or J.k != w.k:
        raise DimensionError("pairing requires equal n and k")
    small, large = (J.coeffs, w.coeffs) if len(J.coeffs) <= len(w.coeffs) else (w.coeffs, J.coeffs)
    return sum(c * large.get(key, 0.0) for key, c in small.items())


def _contract_axis(value: _AltValue, axis: int) -> _AltValue:
    """Left interior product by a single basis element on the dual side."""
    if value.k < 1:
        raise DimensionError("cannot contract a degree-0 value")
    out: dict[Key, float] = {}
    for key, c in value.coeffs.items():
        try:
            pos = key.index(axis)
        except ValueError:
            continue
        sign = -1.0 if pos % 2 else 1.0
        rest = key[:pos] + key[pos + 1:]
        out[rest] = out.get(rest, 0.0) + sign * c
    return type(value)(value.n, value.k - 1, out, _normalized=True)


def interior_vector(X: Sequence[float], w: FormValue) -> FormValue:
    """iota_X w for a vector of components X^1..X^n."""
    if len(X) != w.n:
        raise DimensionError(f"vector length {len(X)} != n={w.n}")
    out = FormValue(w.n, w.k - 1)
    for j, xj in enumerate(X, start=1):
        if xj != 0.0:
            out = out + _contract_axis(w, j).scale(xj)
    return out


def interior_form(alpha: Sequence[float], J: MultiVectorValue) -> MultiVectorValue:
    """iota_alpha J for a 1-form of components alpha_1..alpha_n."""
    if len(alpha) != J.n:
        raise DimensionError(f"covector length {len(alpha)} != n={J.n}")
    out = MultiVectorValue(J.n, J.k - 1)
    for j, aj in enumerate(alpha, start=1):
        if aj != 0.0:
            out = out + _contract_axis(J, j).scale(aj)
    return out


def interior_by_form(w: FormValue, J: MultiVectorValue) -> MultiVectorValue:
    """iota_w J: iterated single contractions, first wedge factor first."""
    if w.n != J.n:
        raise DimensionError("dimension mismatch")
    if w.k > J.k:
        raise DimensionError(f"form degree {w.k} exceeds multivector degree {J.k}")
    out = MultiVectorValue(J.n, J.k - w.k)
    for key, c in w.coeffs.items():
        term = J
        for axis in key:
            term = _contract_axis(term, axis)
        out = out + term.scale(c)
    return out


def interior_by_multivector(J: MultiVectorValue, w: FormValue) -> FormValue:
    """iota_J w: iterated single contractions, first wedge factor first."""
    if w.n != J.n:
        raise DimensionError("dimension mismatch")
    if J.k > w.k:
        raise DimensionError(f"multivector degree {J.k} exceeds form degree {w.k}")
    out = FormValue(w.n, w.k - J.k)
    for key, c in J.coeffs.items():
        term = w
        for axis in key:
            term = _contract_axis(term, axis)
        out = out + term.scale(c)
    return out


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

class _AltField:
    """Sparse alternating tensor field; coefficients are expressions."""

    __slots__ = ("n", "k", "coeffs", "_memo")
    _value_cls: type = _AltValue

    def __init__(self, n: int, k: int, coeffs: Mapping[Key, Expr] | None = None,
                 _normalized: bool = False):
        if not (0 <= n <= MAX_DIM and 0 <= k <= MAX_DIM + 1):
            raise DimensionError(f"need n <= {MAX_DIM}, 0 <= k, got n={n}, k={k}")
        self.n = n
        self.k = k
        out: dict[Key, Expr] = {}
        for idx, e in (coeffs or {}).items():
            if ex.is_zero(e):
                continue
            if _normalized:
                key, s = tuple(idx), 1
            else:
                key, s = sort_with_sign(idx)
                if s == 0:
                    continue
                if len(key) != k:
                    raise DimensionError(f"key {idx} has degree {len(key)}, expected {k}")
                if key and (key[0] < 1 or key[-1] > n):
                    raise DimensionError(f"index out of range 1..{n}: {idx}")
            prev = out.get(key)
            term = e if s == 1 else ex.neg(e)
            out[key] = term if prev is None else ex.add(prev, term)
        self.coeffs = {key: e for key, e in out.items() if not ex.is_zero(e)}
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

    def coefficient_array(self, point: Sequence[float]) -> np.ndarray:
        """The coefficients' values c[s] at ``point``, in ``coeffs`` order, with
        one trailing 0.0 slot that stands for an absent coefficient."""
        return _plus_zero(np.array(self.coefficient_values(point) + (0.0,)))

    def coefficient_jet(self, point: Sequence[float]) -> np.ndarray:
        """Rows of the layout of ``coefficient_array``: row 0 holds the values
        c_s at ``point`` and row u the exact partials d c_s / d x^u.  One
        compiled function evaluates the coefficients and their nonzero
        partials."""
        values, axes, slots = self.memo("jet", _jet_plan)
        v = _plus_zero(np.array(values(point), dtype=float))
        size = len(self.coeffs)
        jet = np.zeros((self.n + 1, size + 1))
        jet[0, :size] = v[:size]
        jet[axes, slots] = v[size:]
        return jet

    def at(self, point: Sequence[float]) -> _AltValue:
        return self._value_cls(self.n, self.k,
                               dict(zip(self.coeffs, self.coefficient_values(point))),
                               _normalized=True)

    def component_expr(self, indices: Sequence[int]) -> Expr:
        key, s = sort_with_sign(indices)
        if s == 0:
            return ex.ZERO
        e = self.coeffs.get(key, ex.ZERO)
        return e if s == 1 else ex.neg(e)

    def scale(self, factor: Expr | float) -> "_AltField":
        f = ex.const(factor) if isinstance(factor, (int, float)) else factor
        return type(self)(self.n, self.k,
                          {key: ex.mul(f, e) for key, e in self.coeffs.items()},
                          _normalized=True)

    def __add__(self, other: "_AltField") -> "_AltField":
        if type(other) is not type(self) or other.n != self.n or other.k != self.k:
            raise DimensionError("incompatible fields")
        out = dict(self.coeffs)
        for key, e in other.coeffs.items():
            out[key] = ex.add(out[key], e) if key in out else e
        return type(self)(self.n, self.k, out, _normalized=True)

    def __sub__(self, other: "_AltField") -> "_AltField":
        return self + other.scale(-1.0)

    def __repr__(self) -> str:
        inner = ", ".join(f"{key}: {ex.to_str(e)}" for key, e in sorted(self.coeffs.items()))
        return f"{type(self).__name__}(n={self.n}, k={self.k}, {{{inner}}})"


def _plus_zero(a: np.ndarray) -> np.ndarray:
    # a coefficient that evaluates to -0.0 is dropped from the form value, so
    # its components read +0.0; adding +0.0 changes no other value
    a += 0.0
    return a


def _jet_plan(f: _AltField):
    """One compiled function for the coefficients, then their nonzero exact
    partials; and the (axis, slot) of each partial, axes 1-based."""
    exprs = list(f.coeffs.values())
    axes, slots, partials = [], [], []
    for slot, e in enumerate(exprs):
        for u in range(1, f.n + 1):
            d = ex.differentiate(e, u)
            if not ex.is_zero(d):
                axes.append(u)
                slots.append(slot)
                partials.append(d)
    return (ex.compile_vector(exprs + partials),
            np.array(axes, dtype=np.intp), np.array(slots, dtype=np.intp))


class FormField(_AltField):
    _value_cls = FormValue

    @classmethod
    def constant(cls, n: int, k: int, coeffs: Mapping[Key, float]) -> "FormField":
        return cls(n, k, {key: ex.const(c) for key, c in coeffs.items()})


class MultiVectorField(_AltField):
    _value_cls = MultiVectorValue

    @classmethod
    def constant(cls, n: int, k: int, coeffs: Mapping[Key, float]) -> "MultiVectorField":
        return cls(n, k, {key: ex.const(c) for key, c in coeffs.items()})


def wedge_fields(a: _AltField, b: _AltField) -> _AltField:
    if type(a) is not type(b) or a.n != b.n:
        raise DimensionError("wedge requires matching variance and dimension")
    out: dict[Key, Expr] = {}
    for ia, ea in a.coeffs.items():
        for ib, eb in b.coeffs.items():
            key, s = sort_with_sign(ia + ib)
            if s == 0:
                continue
            term = ex.mul(ea, eb)
            if s == -1:
                term = ex.neg(term)
            out[key] = ex.add(out[key], term) if key in out else term
    return type(a)(a.n, a.k + b.k, out, _normalized=True)


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
        out = ex.ZERO
        for i, c in enumerate(self.components, start=1):
            out = ex.add(out, ex.differentiate(c, i))
        return out

    @cached_property
    def compiled(self) -> Callable[[Sequence[float]], tuple]:
        return ex.compile_vector(self.components)

    def as_multivector(self) -> MultiVectorField:
        return MultiVectorField(self.n, 1,
                                {(i,): c for i, c in enumerate(self.components, start=1)})

    def scale(self, factor: Expr | float) -> "VectorField":
        f = ex.const(factor) if isinstance(factor, (int, float)) else factor
        return VectorField(self.n, tuple(ex.mul(f, c) for c in self.components))

    def __add__(self, other: "VectorField") -> "VectorField":
        if other.n != self.n:
            raise DimensionError("dimension mismatch")
        return VectorField(self.n, tuple(ex.add(a, b)
                                         for a, b in zip(self.components, other.components)))

    def __sub__(self, other: "VectorField") -> "VectorField":
        return self + other.scale(-1.0)


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
            term = de if s == 1 else ex.neg(de)
            out[new_key] = ex.add(out[new_key], term) if new_key in out else term
    return FormField(w.n, w.k + 1, out, _normalized=True)


def interior_vector_field(X: VectorField, w: FormField) -> FormField:
    """iota_X w with expression coefficients."""
    if X.n != w.n:
        raise DimensionError("dimension mismatch")
    out: dict[Key, Expr] = {}
    for key, e in w.coeffs.items():
        for pos, axis in enumerate(key):
            comp = X.components[axis - 1]
            if ex.is_zero(comp):
                continue
            term = ex.mul(comp, e)
            if pos % 2:
                term = ex.neg(term)
            rest = key[:pos] + key[pos + 1:]
            out[rest] = ex.add(out[rest], term) if rest in out else term
    return FormField(w.n, w.k - 1, out, _normalized=True)


def interior_form_field(alpha: FormField, T: MultiVectorField) -> MultiVectorField:
    """iota_alpha T for a 1-form field against a multivector field."""
    if alpha.k != 1:
        raise DimensionError("interior_form_field needs a 1-form")
    if alpha.n != T.n:
        raise DimensionError("dimension mismatch")
    out: dict[Key, Expr] = {}
    for key, e in T.coeffs.items():
        for pos, axis in enumerate(key):
            a = alpha.coeffs.get((axis,))
            if a is None:
                continue
            term = ex.mul(a, e)
            if pos % 2:
                term = ex.neg(term)
            rest = key[:pos] + key[pos + 1:]
            out[rest] = ex.add(out[rest], term) if rest in out else term
    return MultiVectorField(T.n, T.k - 1, out, _normalized=True)


def lie_derivative(X: VectorField, w: FormField) -> FormField:
    """Cartan's formula L_X w = d(iota_X w) + iota_X (dw), all symbolic."""
    return exterior_derivative(interior_vector_field(X, w)) + \
        interior_vector_field(X, exterior_derivative(w))


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

    def compose(self, inner: "PointMap") -> "PointMap":
        """self after inner: (self o inner)(x) = self(inner(x))."""
        if inner.n != self.n:
            raise DimensionError("dimension mismatch")
        mapping = {i + 1: c for i, c in enumerate(inner.components)}
        return PointMap(self.n, tuple(ex.substitute(c, mapping) for c in self.components))


def pullback(phi: PointMap, omega: FormValue, point: Sequence[float],
             jacobian: np.ndarray | None = None) -> FormValue:
    """phi^* omega at ``point`` for a form value given at phi(point).

    (phi^* omega)_I = sum_K omega_K det(J[K rows, I cols]).
    """
    if phi.n != omega.n:
        raise DimensionError("dimension mismatch")
    J = phi.jacobian(point) if jacobian is None else jacobian
    return pullback_with_jacobian(J, omega)


def pullback_with_jacobian(J: np.ndarray, omega: FormValue) -> FormValue:
    """Pull a form value back through a (possibly rectangular) differential.

    ``J`` has shape (omega.n, n_source); the result lives on the source chart.
    """
    if J.shape[0] != omega.n:
        raise DimensionError(f"jacobian rows {J.shape[0]} != form dimension {omega.n}")
    n_src, k = int(J.shape[1]), omega.k
    out: dict[Key, float] = {}
    for I in increasing_indices(n_src, k):
        cols = [i - 1 for i in I]
        total = 0.0
        for K, c in omega.coeffs.items():
            rows = [a - 1 for a in K]
            minor = J[np.ix_(rows, cols)]
            total += c * float(np.linalg.det(minor)) if k > 0 else c
        if total != 0.0:
            out[I] = total
    return FormValue(n_src, k, out, _normalized=True)
