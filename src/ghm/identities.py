"""Residual checkers for algebraic structure identities.

A scan is the list of expressions it reads and a step that turns their
values at one point into that point's candidates (signed value, point,
index).  ``run_scans`` compiles every selected scan's expressions as one
bundle, evaluates it once per point, and hands each step its dense slice of
that row: closure reads dw's coefficients, Jacobi and the fundamental
identity a tensor's jet gathered into full arrays, measure the divergences
and then the weight.  Jacobi and the fundamental identity's FIa build every
entry (n^3 and n^5 index tuples per point, from one contraction and its
transposes); FIb, a product of two entries of J at each of n^6 tuples, reads
only the entries its support plan names, which J's structural support fixes
once per support (``_fib_plan``), so its cost follows J's nonzero pairs.  A
value is the same bits in any bundle, and each report names the largest
violation, NaN first, with its signed value and location, so reports are
reproducible given the same points.  The scans stop at the first point
where one faults, naming the first faulting node there in scan order.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import expr as ex
from .errors import DimensionError, EvalDomainError, InputError
from .exterior import (FormField, MultiVectorField, ScalarField, divergence_exprs,
                       exterior_derivative, nan_max)


@dataclass(frozen=True)
class IdentityReport:
    name: str
    max_residual: float
    argmax_point: tuple[float, ...]
    argmax_index: tuple[int, ...]
    signed_at_argmax: float
    samples: int
    detail: str = ""

    def passes(self, tolerance: float) -> bool:
        return self.max_residual <= tolerance

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "max_residual": self.max_residual,
            "argmax_point": list(self.argmax_point),
            "argmax_index": list(self.argmax_index),
            "signed_at_argmax": self.signed_at_argmax,
            "samples": self.samples,
            "detail": self.detail,
        }


Candidate = tuple[float, tuple, tuple, str]  # (signed, point, index, detail)


@dataclass(frozen=True)
class Scan:
    """One identity scan: the expressions it reads, and ``step(values,
    point)``, which turns their values at one point into that point's
    candidates."""

    name: str
    exprs: tuple[ex.Expr, ...]
    step: Callable[[tuple, tuple], list[Candidate]]


def run_scans(scans: Sequence[Scan], points: Sequence[Sequence[float]]) -> list[IdentityReport]:
    """Each scan's report, from one compiled function of every scan's
    expressions in order, evaluated once per point; each step reads its own
    slice of that row.  Scans without expressions compile nothing."""
    exprs = [e for scan in scans for e in scan.exprs]
    row = ex.compile_vector(exprs) if exprs else lambda point: ()
    ends = list(itertools.accumulate(len(scan.exprs) for scan in scans))
    found: list[list[Candidate]] = [[] for _ in scans]
    for p in points:
        values, where = row(p), tuple(p)
        for scan, start, end, out in zip(scans, [0, *ends], ends, found):
            out += scan.step(values[start:end], where)
    return [_report(scan.name, out, len(points)) for scan, out in zip(scans, found)]


def _report(name: str, candidates: list[Candidate], samples: int) -> IdentityReport:
    """The report of the candidate with the largest |signed|, a NaN first."""
    if not candidates:
        raise InputError(f"{name}: no sample points")
    best = nan_max(candidates, key=lambda t: abs(t[0]))
    return IdentityReport(
        name=name,
        max_residual=abs(best[0]),
        argmax_point=tuple(float(v) for v in best[1]),
        argmax_index=best[2],
        signed_at_argmax=float(best[0]),
        samples=samples,
        detail=best[3],
    )


def _argmax_signed(values: np.ndarray, shape: tuple[int, ...] | None = None,
                   positions: np.ndarray | None = None) -> tuple[float, tuple[int, ...]]:
    """The first entry of largest magnitude, a NaN first, and its 1-based
    index: in ``values``' own shape or, for flat ``values`` at the flat
    ``positions`` of an array of ``shape``, in that array."""
    i = int(np.argmax(np.abs(values)))
    flat = i if positions is None else int(positions[i])
    idx = np.unravel_index(flat, values.shape if shape is None else shape)
    return float(values.flat[i]), tuple(int(d) + 1 for d in idx)


# ---------------------------------------------------------------------------
# Dense component arrays
# ---------------------------------------------------------------------------

def _dense_plan(J: MultiVectorField) -> tuple[np.ndarray, np.ndarray]:
    """The gather plan of every n^k index tuple, row-major."""
    return J.memo("dense", lambda f: f.gather_plan(
        itertools.product(range(1, f.n + 1), repeat=f.k)))


def _dense_arrays(J: MultiVectorField, jet: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Full antisymmetric component arrays from a gathered jet: A of shape
    (n,)*k and D[u, i1..ik] = d J^{i1..ik} / d x^u from exact symbolic partials."""
    return jet[0].reshape((J.n,) * J.k), jet[1:].reshape((J.n,) * (J.k + 1))


def _dense_pair(J: MultiVectorField, point: Sequence[float]) -> tuple[np.ndarray, np.ndarray]:
    """``_dense_arrays`` at a point, through the field's own jet function."""
    return _dense_arrays(J, J.gather(_dense_plan(J), point, jet=True))


def _dense_scan(name: str, J: MultiVectorField,
                step: Callable[[np.ndarray, np.ndarray, tuple], list[Candidate]]) -> Scan:
    """The scan of J's jet whose ``step(A, D, point)`` reads the dense arrays."""
    plan = _dense_plan(J)

    def dense_step(values, point):
        return step(*_dense_arrays(J, J.gather_from(plan, values, jet=True)), point)
    return Scan(name, tuple(J.jet_plan()[0]), dense_step)


# ---------------------------------------------------------------------------
# Jacobi identity
# ---------------------------------------------------------------------------

def jacobi_scan(J2: MultiVectorField) -> Scan:
    """Max over points and (i,j,l) of the cyclic first-derivative sum; degree 2 only."""
    if J2.k != 2:
        raise DimensionError("jacobi_residual needs a degree-2 multivector")

    def step(A, D, point):  # D[m, j, l]
        t1 = np.einsum("im,mjl->ijl", A, D)
        signed, idx = _argmax_signed(t1 + t1.transpose(1, 2, 0) + t1.transpose(2, 0, 1))
        return [(signed, point, idx, "")]
    return _dense_scan("jacobi", J2, step)


def jacobi_residual(J2: MultiVectorField, points: Sequence[Sequence[float]]) -> IdentityReport:
    """``jacobi_scan`` alone."""
    return run_scans([jacobi_scan(J2)], points)[0]


# ---------------------------------------------------------------------------
# Fundamental identity
# ---------------------------------------------------------------------------

_FIB_TERMS = ((0, 1, 2, 3, 4, 5), (4, 1, 2, 3, 0, 5), (1, 3, 2, 0, 4, 5),
              (4, 3, 2, 0, 1, 5), (2, 1, 3, 0, 4, 5), (4, 1, 3, 0, 2, 5))


@functools.lru_cache(maxsize=16)
def _fib_plan(n: int, support: bytes) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(positions, left, right) of FIb for a degree-3 tensor that is nonzero
    only where the boolean n^3 mask ``support`` is: the sorted flat positions
    of P = J (x) J, 0 included, where one of the six transposes of P in
    ``fundamental_identity_scan`` can be nonzero, and the flat indices into J
    of the two factors, left[m] * right[m], that term m reads there."""
    s = np.frombuffer(support, dtype=bool).reshape((n,) * 3)
    pairs = np.multiply.outer(s, s)
    mask = np.zeros(pairs.shape, dtype=bool)
    for t in _FIB_TERMS:
        mask |= pairs.transpose(t)
    mask.flat[0] = True
    positions = np.flatnonzero(mask)
    # P.transpose(t) at digits i reads P at digits j with j[t[d]] = i[d]
    digits = np.unravel_index(positions, mask.shape)
    sources = np.stack([np.ravel_multi_index([digits[t.index(d)] for d in range(6)], mask.shape)
                        for t in _FIB_TERMS])
    return (positions, *np.divmod(sources, n ** 3))


def _fib_entries(A: np.ndarray, plan: tuple[np.ndarray, np.ndarray, np.ndarray]) -> np.ndarray:
    """FIb at the positions of ``_fib_plan``'s ``plan``: per entry, the
    products and sums of the full array, in its order."""
    _, left, right = plan
    Af = A.ravel()
    p = Af[left] * Af[right] + 0.0
    return p[0] + p[1] + p[2] + p[3] + p[4] + p[5]


def fundamental_identity_scan(J: MultiVectorField) -> Scan:
    """Exhaustive scan of the two derivative-distribution conditions for a
    degree-3 tensor; the report's detail names the sub-identity that attains
    the max.

    FIa (first-derivative condition, u summed, the rest free):

        J^{uvq} d_u J^{ijk} - J^{ujk} d_u J^{ivq}
                            - J^{uki} d_u J^{jvq} - J^{uij} d_u J^{kvq} = 0.

    FIb is the algebraic condition from the Hessian terms of the evolved
    Hamiltonians; those enter contracted against a symmetric matrix, so the
    binding condition is the symmetrization over the Hessian pair (i, v):

        J^{ijk} J^{uvq} + J^{vjk} J^{uiq} + J^{uik} J^{jvq}
        + J^{uvk} J^{jiq} + J^{uji} J^{kvq} + J^{ujv} J^{kiq} = 0.

    Per point, each FIa term is a transpose of one contraction
    T[a, b, c, d, e] = J^{uab} d_u J^{cde}, and each FIb term a transpose of
    one outer product P = J (x) J; the terms are summed in the order written
    above.  FIa is built in full: a sum over u in a fixed order gives its
    numbers, but where two different NaNs meet, the one ``einsum`` keeps
    depends on n and on the vector loop it takes.  FIb is read only at the
    positions of its support plan, ``_fib_plan`` of J's structural support
    (the slots of ``_dense_plan`` that hold a coefficient): every term is a
    product of two entries of J, so elsewhere each is a product with a zero.
    P carries a ``+ 0.0`` so that a product that is -0.0 reads +0.0, as in
    ``einsum``; for a finite J every entry off the plan is then exactly +0.0,
    and the plan's first entry is the array's first, so the largest entry,
    its index and its bits are those of the full array.  Where J has an
    entry that is not finite, and 0 * inf is NaN, the plan is that of every
    position.
    """
    if J.k != 3:
        raise DimensionError("fundamental identity applies to degree-3 multivectors")
    n = J.n
    support = J.memo("fib_support", lambda f: bytes(slot != len(f.coeffs)
                                                    for slot in _dense_plan(f)[0].tolist()))
    every = bytes([True]) * n ** 3

    def step(A, D, point):
        T = np.einsum("uab,ucde->abcde", A, D)
        fia = (T.transpose(2, 3, 4, 0, 1) - T.transpose(2, 0, 1, 3, 4)
               - T.transpose(1, 2, 0, 3, 4) - T)
        plan = _fib_plan(n, support if np.isfinite(A).all() else every)
        sa, ia = _argmax_signed(fia)
        sb, ib = _argmax_signed(_fib_entries(A, plan), (n,) * 6, plan[0])
        return [(sa, point, ia, "FIa"), (sb, point, ib, "FIb")]
    return _dense_scan("fundamental-identity", J, step)


def fundamental_identity_residual(J: MultiVectorField,
                                  points: Sequence[Sequence[float]]) -> IdentityReport:
    """``fundamental_identity_scan`` alone."""
    return run_scans([fundamental_identity_scan(J)], points)[0]


# ---------------------------------------------------------------------------
# Closure and measure preservation
# ---------------------------------------------------------------------------

def _largest(values: dict[tuple, float], point: tuple) -> list[Candidate]:
    """The candidate of the key whose value has the largest magnitude, the
    first on a tie or a NaN; (0.0, ()) when there is no key."""
    key = nan_max(values, key=lambda kk: abs(values[kk]), default=())
    return [(values.get(key, 0.0), point, key, "")]


def closure_scan(w: FormField) -> Scan:
    """Max over points of the largest |coefficient| of the exact-symbolic dw."""
    dw = exterior_derivative(w)
    keys = list(dw.coeffs)

    def step(values, point):  # the nonzero coefficients, as in ``dw.at(point)``
        return _largest({key: v for key, v in zip(keys, values) if v != 0.0}, point)
    return Scan("closure", tuple(dw.coeffs.values()), step)


def closure_residual(w: FormField, points: Sequence[Sequence[float]]) -> IdentityReport:
    """``closure_scan`` alone."""
    return run_scans([closure_scan(w)], points)[0]


def measure_scan(J: MultiVectorField, g: ScalarField | float) -> Scan:
    """Max over points and target tuples of |sum_i d_i(g J^{i...})|.  A
    weight other than 1 is the scan's last expression, and a point where it
    reads 0.0 is an EvalDomainError."""
    gf = None
    if isinstance(g, (int, float)):
        if g != 1:
            gf = ex.ScalarField(J.n, ex.const(g))
    else:
        gf = g
    exprs = divergence_exprs(J, gf)
    keys = list(exprs)

    def step(values, point):
        if gf is not None and values[-1] == 0.0:
            raise EvalDomainError(f"measure weight vanishes at {point}")
        return _largest(dict(zip(keys, values)), point)
    weight = () if gf is None else (gf.expression,)
    return Scan("measure", (*exprs.values(), *weight), step)


def measure_residual(J: MultiVectorField, g: ScalarField | float,
                     points: Sequence[Sequence[float]]) -> IdentityReport:
    """``measure_scan`` alone."""
    return run_scans([measure_scan(J, g)], points)[0]


def extend_measure_preserving(J: MultiVectorField) -> MultiVectorField:
    """Divergence-compensated extension of a degree-3 tensor to R^(n+1).

    Adds components -x^(n+1) (sum_m d_m J^{m i j}) on d_i ^ d_j ^ d_(n+1), which
    makes the extension measure preserving with unit weight while leaving the
    first n equations of motion unchanged for Hamiltonians independent of the
    new coordinate; the new coordinate evolves as -x^(n+1) div X.
    """
    if J.k != 3:
        raise DimensionError("extension implemented for degree-3 multivectors")
    n = J.n
    coeffs: dict[tuple, ex.Expr] = dict(J.coeffs)
    xnp1 = ex.Coord(n + 1)
    for (i, j), total in divergence_exprs(J).items():
        if not ex.is_zero(total):
            coeffs[(i, j, n + 1)] = ex.neg(ex.mul(xnp1, total))
    return MultiVectorField(n + 1, 3, coeffs)
