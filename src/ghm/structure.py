"""Structural constructions and verifications: inverses, degree-k tensor
building and reduction, omega ^ dC decompositions, level-set restriction,
and dual frames of constraint differentials.

Inverse checks apply the recorded ``inverse_law_sign`` from
:mod:`ghm.exterior`; tensor coefficients never absorb that sign.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import expr as ex
from .errors import ChartError, DimensionError, DualityError
from .expr import Expr, ScalarField
from .exterior import (
    FormField,
    FormValue,
    MultiVectorField,
    VectorField,
    grad_field,
    interior,
    interior_vector,
    inverse_law_sign,
    iterated_interior,
    nan_max,
    pullback_with_jacobian,
    wedge,
)
from .hdw import _null_space, numerical_rank

DUALITY_TOL = 1e-9


# ---------------------------------------------------------------------------
# Distributions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Distribution:
    """A smooth distribution, spanned explicitly or as the joint kernel of
    exact 1-forms dC^1..dC^m."""

    n: int
    fields: tuple[VectorField, ...] = ()
    constraints: tuple[ScalarField, ...] = ()

    @classmethod
    def annihilating(cls, constraints: Sequence[ScalarField]) -> "Distribution":
        return cls(constraints[0].n, (), tuple(constraints))

    @classmethod
    def full(cls, n: int) -> "Distribution":
        basis = tuple(
            VectorField(n, tuple(ex.ONE if i == j else ex.ZERO for i in range(1, n + 1)))
            for j in range(1, n + 1)
        )
        return cls(n, basis, ())

    def spanning_at(self, point: Sequence[float]) -> list[np.ndarray]:
        if self.fields:
            return [f.at(point) for f in self.fields]
        G = np.array([c.gradient(point) for c in self.constraints])
        return [v.copy() for v in _null_space(G, point)]


# ---------------------------------------------------------------------------
# Inverse laws
# ---------------------------------------------------------------------------

def _inverse_defect(w: FormField, J: MultiVectorField, Y: np.ndarray,
                    point: Sequence[float], sign: int) -> float:
    contracted = interior_vector(Y, w.at(point))
    recovered = interior(contracted, J.at(point))
    vec = np.array([recovered.component((i,)) for i in range(1, w.n + 1)])
    return float(np.linalg.norm(sign * vec - Y))


def strong_inverse_residual(w: FormField, J: MultiVectorField,
                            points: Sequence[Sequence[float]]) -> float:
    """Max defect of inverse_law_sign(k) * iota_{iota_X w} J = X over basis
    vectors X = d_j (sufficient by linearity) and sample points."""
    return delta_inverse_residual(w, J, Distribution.full(w.n), points)


def delta_inverse_residual(w: FormField, J: MultiVectorField, delta: Distribution,
                           points: Sequence[Sequence[float]]) -> float:
    """Same defect restricted to spanning sections of the distribution."""
    if w.n != J.n or w.k != J.k:
        raise DimensionError("inverse check needs equal n and k")
    sign = inverse_law_sign(w.k)
    worst = 0.0
    for p in points:
        for Y in delta.spanning_at(p):
            worst = nan_max((worst, _inverse_defect(w, J, Y, p, sign)))
    return worst


# ---------------------------------------------------------------------------
# Degree-k tensor construction / reduction
# ---------------------------------------------------------------------------

def _check_duality(ns: Sequence[VectorField], Cs: Sequence[ScalarField],
                   points: Sequence[Sequence[float]]) -> None:
    for p in points:
        for i, ni in enumerate(ns):
            Yi = ni.at(p)
            for j, Cj in enumerate(Cs):
                got = float(np.dot(Yi, Cj.gradient(p)))
                want = 1.0 if i == j else 0.0
                if not abs(got - want) <= DUALITY_TOL:  # NaN fails
                    raise DualityError(
                        f"iota_n{i + 1} dC{j + 1} = {got:g} != {want:g} at {tuple(p)}")


def build_poisson_k(J2: MultiVectorField, Cs: Sequence[ScalarField],
                    ns: Sequence[VectorField],
                    points: Sequence[Sequence[float]] = ()) -> MultiVectorField:
    """N ^ J2 with N = n_{k-2} ^ ... ^ n_1; the iterated contraction by
    dC^1..dC^{k-2} then returns J2 exactly.

    Requires iota_{n_i} dC^j = delta_i^j and dC^i in ker(J2) at the sample
    points (checked when points are supplied).
    """
    if len(Cs) != len(ns):
        raise DualityError("need one frame field per constraint")
    if points:
        _check_duality(ns, Cs, points)
        for j, Cj in enumerate(Cs):
            kerfield = interior(grad_field(Cj), J2)
            for p in points:
                V = kerfield.at(p)
                if not V.max_abs() <= DUALITY_TOL:  # NaN fails
                    raise DualityError(
                        f"dC{j + 1} is not in ker(J2): residual {V.max_abs():g} at {tuple(p)}")
    N = ns[-1].as_multivector()
    for ni in reversed(ns[:-1]):
        N = wedge(N, ni.as_multivector())
    return wedge(N, J2)


def reduce_k_to_2(J: MultiVectorField, Cs: Sequence[ScalarField]) -> MultiVectorField:
    """iota_{dC^1} ... iota_{dC^{k-2}} J (rightmost contraction first)."""
    if len(Cs) != J.k - 2:
        raise DimensionError(f"need k-2={J.k - 2} constraints, got {len(Cs)}")
    return iterated_interior(Cs, J)


def build_w_from_omega(omega: FormField, Cs: Sequence[ScalarField]) -> FormField:
    """omega ^ dC^1 ^ ... ^ dC^{k-2} with exact symbolic differentials."""
    out = omega
    for C in Cs:
        out = wedge(out, grad_field(C))
    return out


def extract_omega(w: FormField, ns: Sequence[VectorField],
                  Cs: Sequence[ScalarField] = (),
                  points: Sequence[Sequence[float]] = ()) -> FormField:
    """iota_N w with N = n_1 ^ ... ^ n_{k-2}, contracting n_1 first.

    When the decomposition hypotheses hold, (extract ^ dC) reproduces w at the
    sample points.  Duality against the constraints is validated when given.
    """
    if Cs and points:
        _check_duality(ns, Cs, points)
    out = w
    for ni in ns:
        out = interior(ni.as_multivector(), out)
    return out


# ---------------------------------------------------------------------------
# Level sets
# ---------------------------------------------------------------------------

def _pivot_axes(G: np.ndarray) -> list[int]:
    """Greedy largest pivots: for each row of G in turn, the axis (1-based)
    of its largest |entry| among the axes not yet chosen."""
    chosen: list[int] = []
    for row in G:
        order = np.argsort(-np.abs(row))
        chosen.append(next(int(a) + 1 for a in order if int(a) + 1 not in chosen))
    return chosen


@dataclass(frozen=True)
class LevelSetChart:
    """Local parameterization of the joint level set of constraint functions.

    The complementary axes parameterize the level set; the remaining
    (dependent) axes are solved from C(x) = c.  Axes default to a greedy
    largest-pivot choice on the constraint Jacobian at the base point.
    """

    constraints: tuple[ScalarField, ...]
    values: tuple[float, ...]
    base_point: tuple[float, ...]
    complementary_axes: tuple[int, ...] = ()

    def __post_init__(self):
        n = self.constraints[0].n
        m = len(self.constraints)
        if m > n:
            raise ChartError(f"{m} constraints on R^{n}: more constraints than coordinates")
        if len(self.values) != m:
            raise ChartError("one level value per constraint required")
        G = np.array([c.gradient(self.base_point) for c in self.constraints])
        if not np.isfinite(G).all():  # LAPACK would fail to converge on it
            raise ChartError(f"constraint differentials are not finite at {tuple(self.base_point)}")
        if not self.complementary_axes:
            dependent = _pivot_axes(G)
            object.__setattr__(self, "complementary_axes",
                               tuple(a for a in range(1, n + 1) if a not in dependent))
        if len(self.complementary_axes) != n - m:
            raise ChartError(f"need {n - m} complementary axes")
        if numerical_rank(np.linalg.svd(G, compute_uv=False)) < m:
            raise ChartError("constraint differentials are dependent at the base point")
        B = G[:, [a - 1 for a in self.dependent_axes]]
        if abs(np.linalg.det(B)) < 1e-12:
            raise ChartError("dependent-axes Jacobian block is singular at the base point")

    @property
    def n(self) -> int:
        return self.constraints[0].n

    @property
    def m(self) -> int:
        return len(self.constraints)

    @property
    def dependent_axes(self) -> tuple[int, ...]:
        return tuple(a for a in range(1, self.n + 1) if a not in self.complementary_axes)

    def is_coordinate_chart(self) -> bool:
        """True when every constraint is a bare coordinate function."""
        return all(isinstance(c.expression, ex.Coord) for c in self.constraints)

    def embed(self, u: Sequence[float]) -> np.ndarray:
        """Map reduced coordinates to the ambient point on the level set
        (damped Newton on the dependent axes, tolerance 1e-12, 50 iterations)."""
        x = np.array(self.base_point, dtype=float)
        for a, ua in zip(self.complementary_axes, u):
            x[a - 1] = ua
        dep = [a - 1 for a in self.dependent_axes]
        target = np.asarray(self.values, dtype=float)

        def residual(xx):
            return np.array([c(xx) for c in self.constraints]) - target

        r = residual(x)
        for _ in range(50):
            if float(np.linalg.norm(r)) <= 1e-12:
                return x
            G = np.array([c.gradient(x) for c in self.constraints])
            step = self._solve_dependent(G, r, x)
            t = 1.0
            while t >= 1e-6:
                trial = x.copy()
                trial[dep] -= t * step
                r_trial = residual(trial)
                if np.linalg.norm(r_trial) < np.linalg.norm(r) or np.linalg.norm(r) <= 1e-12:
                    x, r = trial, r_trial
                    break
                t *= 0.5
            else:
                raise ChartError("Newton damping underflow in level-set solve")
        if float(np.linalg.norm(r)) <= 1e-12:
            return x
        raise ChartError("Newton did not converge in 50 iterations")

    def _solve_dependent(self, G: np.ndarray, rhs: np.ndarray, x: np.ndarray) -> np.ndarray:
        """B^{-1} rhs for the dependent-axes block B of G, the constraint Jacobian at ``x``."""
        try:
            return np.linalg.solve(G[:, [a - 1 for a in self.dependent_axes]], rhs)
        except np.linalg.LinAlgError:
            raise ChartError(f"dependent-axes block is singular at {tuple(x.tolist())}") from None

    def embedding_jacobian(self, u: Sequence[float]) -> tuple[np.ndarray, np.ndarray]:
        """(ambient point, d(ambient)/d(reduced)) via the implicit function rule."""
        x = self.embed(u)
        n, m = self.n, self.m
        comp = [a - 1 for a in self.complementary_axes]
        dep = [a - 1 for a in self.dependent_axes]
        G = np.array([c.gradient(x) for c in self.constraints])
        dv = -self._solve_dependent(G, G[:, comp], x)  # shape (m, n-m)
        J = np.zeros((n, n - m))
        J[comp, range(n - m)] = 1.0
        J[dep] = dv
        return x, J

    def pull_scalar_gradient(self, f: ScalarField, u: Sequence[float]) -> np.ndarray:
        x, J = self.embedding_jacobian(u)
        return np.asarray(f.gradient(x)) @ J

    def pull_form(self, w: FormField, u: Sequence[float]) -> FormValue:
        """i_c^* w at reduced coordinates; axes relabeled 1..n-m in
        complementary-axis order."""
        x, J = self.embedding_jacobian(u)
        return pullback_with_jacobian(J, w.at(x))

    def restrict_field(self, f: ScalarField | FormField):
        """Exact symbolic restriction; only for coordinate constraints, where
        restriction is substitution plus coordinate deletion."""
        if not self.is_coordinate_chart():
            raise ChartError("exact restriction requires coordinate constraint functions")
        sub = {c.expression.axis: ex.const(v)
               for c, v in zip(self.constraints, self.values)}
        relabel = {a: ex.Coord(i + 1) for i, a in enumerate(self.complementary_axes)}
        nr = self.n - self.m

        def convert(e: Expr) -> Expr:
            return ex.substitute(ex.substitute(e, sub), relabel)

        if isinstance(f, ScalarField):
            return ScalarField(nr, convert(f.expression), f.name)
        out: dict[tuple, Expr] = {}
        axis_map = {a: i + 1 for i, a in enumerate(self.complementary_axes)}
        for key, e in f.coeffs.items():
            if any(a not in axis_map for a in key):
                continue
            out[tuple(axis_map[a] for a in key)] = convert(e)
        return FormField(nr, f.k, out)


# ---------------------------------------------------------------------------
# Dual frames
# ---------------------------------------------------------------------------

def propose_dual_frame(Cs: Sequence[ScalarField],
                       points: Sequence[Sequence[float]]) -> tuple[VectorField, ...]:
    """Coordinate-axis frame n_i = (1/d_{a_i} C^i) d_{a_i} when each C^i has a
    private axis of strict monotonicity; validated against all constraints."""
    n = Cs[0].n
    if len(Cs) > n:
        raise DualityError(f"{len(Cs)} constraints on R^{n}: more constraints than coordinates")
    G = np.array([c.gradient(points[0]) for c in Cs])
    chosen = _pivot_axes(G)
    if any(abs(row[axis - 1]) < 1e-12 for row, axis in zip(G, chosen)):
        raise DualityError("no usable monotone axis for a constraint")
    frame = []
    for Ci, axis in zip(Cs, chosen):
        comps = [ex.ZERO] * n
        comps[axis - 1] = ex.div(ex.ONE, Ci.partial(axis))
        frame.append(VectorField(n, tuple(comps)))
    _check_duality(frame, Cs, points)
    return tuple(frame)

