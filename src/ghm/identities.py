"""Residual checkers for algebraic structure identities.

Every checker samples a list of points, scans index tuples exhaustively
(dense numpy over n^3..n^6 tuples; n <= 8 keeps this at desk scale), and
reports the maximum absolute violation together with the signed value and
location of the argmax.  Reports are exactly reproducible given the same
point list.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import expr as ex
from .errors import DimensionError, EvalDomainError, InputError
from .exterior import (
    MultiVectorField,
    ScalarField,
    increasing_indices,
    sort_with_sign,
)


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

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)


def _dense_plan(J: MultiVectorField):
    """The scatter of each coefficient onto every permutation of its key, as
    (flat position, slot, sign) into A = J from the coefficients c, and into
    D = dJ from the row-major flattened partial rows of ``coefficient_jet``."""
    n = J.n
    positions, slots, signs = [], [], []
    for slot, key in enumerate(J.coeffs):
        for perm in itertools.permutations(key):
            _, s = sort_with_sign(perm)
            flat = 0
            for axis in perm:  # row-major, 0-based
                flat = flat * n + axis - 1
            positions.append(flat)
            slots.append(slot)
            signs.append(float(s))
    pos, slot, sign = (np.array(positions, dtype=np.intp), np.array(slots, dtype=np.intp),
                       np.array(signs))
    u = np.arange(n, dtype=np.intp)[:, None]  # D repeats A's scatter once per axis
    width = len(J.coeffs) + 1
    d_scatter = ((u * n ** J.k + pos).ravel(), (u * width + slot).ravel(), np.tile(sign, n))
    return (pos, slot, sign), d_scatter


def _dense_pair(J: MultiVectorField, point: Sequence[float]) -> tuple[np.ndarray, np.ndarray]:
    """Full antisymmetric component arrays at a point: A of shape (n,)*k and
    D[u, i1..ik] = d J^{i1..ik} / d x^u from exact symbolic partials."""
    scatters = J.memo("dense", _dense_plan)
    jet = J.coefficient_jet(point)
    out = []
    for shape, values, (pos, slot, sign) in zip(((J.n,) * J.k, (J.n,) * (J.k + 1)),
                                                (jet[0], jet[1:].ravel()), scatters):
        arr = np.zeros(shape)
        arr.flat[pos] = sign * values[slot]
        out.append(arr)
    return out[0], out[1]


def _report(name: str, values: list[tuple[float, tuple, tuple]], samples: int,
            detail: str = "") -> IdentityReport:
    """values: (signed, point, index) candidates, one per point (the per-point argmax)."""
    best = max(values, key=lambda t: abs(t[0]))
    return IdentityReport(
        name=name,
        max_residual=abs(best[0]),
        argmax_point=tuple(float(v) for v in best[1]),
        argmax_index=best[2],
        signed_at_argmax=float(best[0]),
        samples=samples,
        detail=detail,
    )


def _argmax_signed(arr: np.ndarray) -> tuple[float, tuple[int, ...]]:
    flat = int(np.argmax(np.abs(arr)))
    idx = np.unravel_index(flat, arr.shape)
    return float(arr[idx]), tuple(int(i) + 1 for i in idx)


# ---------------------------------------------------------------------------
# Jacobi identity
# ---------------------------------------------------------------------------

def jacobi_cyclic(J2: MultiVectorField, triple: tuple[int, int, int],
                  point: Sequence[float]) -> float:
    """Signed cyclic sum J^{im} d_m J^{jl} + J^{jm} d_m J^{li} + J^{lm} d_m J^{ij}."""
    i, j, l = triple
    total = 0.0
    for m in range(1, J2.n + 1):
        for (a, bc) in ((i, (j, l)), (j, (l, i)), (l, (i, j))):
            c = ex.evaluate(J2.component_expr((a, m)), point)
            if c == 0.0:
                continue
            d = ex.ZERO
            key, s = sort_with_sign(bc)
            if s != 0:
                d = ex.differentiate(J2.coeffs.get(key, ex.ZERO), m)
                if s == -1:
                    d = ex.neg(d)
            total += c * ex.evaluate(d, point)
    return total


def jacobi_residual(J2: MultiVectorField, points: Sequence[Sequence[float]]) -> IdentityReport:
    """Max over points and (i,j,l) of the cyclic first-derivative sum; degree 2 only."""
    if J2.k != 2:
        raise DimensionError("jacobi_residual needs a degree-2 multivector")
    best = []
    for p in points:
        A, D = _dense_pair(J2, p)  # D[m, j, l]
        t1 = np.einsum("im,mjl->ijl", A, D)
        T = t1 + t1.transpose(1, 2, 0) + t1.transpose(2, 0, 1)
        signed, idx = _argmax_signed(T)
        best.append((signed, tuple(p), idx))
    return _report("jacobi", best, len(points))


def jacobi_k_residual(J: MultiVectorField, adapted_coordinates: bool,
                      points: Sequence[Sequence[float]]) -> IdentityReport:
    """Jacobi identity for a degree-k tensor whose trailing k-2 slots are the
    Casimir axes (n-k+3 .. n).  Reduces to the degree-2 check on
    K^{ab} = J^{ab, n-k+3, ..., n}."""
    if not adapted_coordinates:
        raise InputError("jacobi_k_residual requires coordinates adapted to the Casimir axes")
    n, k = J.n, J.k
    trailing = tuple(range(n - k + 3, n + 1))
    K = MultiVectorField(n, 2, {
        (a, b): J.component_expr((a, b) + trailing)
        for a in range(1, n + 1) for b in range(a + 1, n + 1)
    })
    rep = jacobi_residual(K, points)
    return IdentityReport(
        name="jacobi_k",
        max_residual=rep.max_residual,
        argmax_point=rep.argmax_point,
        argmax_index=rep.argmax_index,
        signed_at_argmax=rep.signed_at_argmax,
        samples=rep.samples,
        detail=f"trailing axes {trailing}",
    )


# ---------------------------------------------------------------------------
# Fundamental identity
# ---------------------------------------------------------------------------

def fundamental_identity_residual(J: MultiVectorField,
                                  points: Sequence[Sequence[float]]) -> IdentityReport:
    """Exhaustive scan of the two derivative-distribution conditions for a
    degree-3 tensor; reports which sub-identity attains the max.

    FIa (first-derivative condition, u summed, the rest free):

        J^{uvq} d_u J^{ijk} - J^{ujk} d_u J^{ivq}
                            - J^{uki} d_u J^{jvq} - J^{uij} d_u J^{kvq} = 0.

    FIb is the algebraic condition from the Hessian terms of the evolved
    Hamiltonians; those enter contracted against a symmetric matrix, so the
    binding condition is the symmetrization over the Hessian pair (i, v):

        J^{ijk} J^{uvq} + J^{vjk} J^{uiq} + J^{uik} J^{jvq}
        + J^{uvk} J^{jiq} + J^{uji} J^{kvq} + J^{ujv} J^{kiq} = 0.
    """
    if J.k != 3:
        raise DimensionError("fundamental identity applies to degree-3 multivectors")
    candidates = []  # (signed, point, index, sub-identity label)
    for p in points:
        A, D = _dense_pair(J, p)  # D[u, i, j, k]
        fia = (
            np.einsum("uvq,uijk->ijkvq", A, D)
            - np.einsum("ujk,uivq->ijkvq", A, D)
            - np.einsum("uki,ujvq->ijkvq", A, D)
            - np.einsum("uij,ukvq->ijkvq", A, D)
        )
        fib = (
            np.einsum("ijk,uvq->ijkuvq", A, A)
            + np.einsum("vjk,uiq->ijkuvq", A, A)
            + np.einsum("uik,jvq->ijkuvq", A, A)
            + np.einsum("uvk,jiq->ijkuvq", A, A)
            + np.einsum("uji,kvq->ijkuvq", A, A)
            + np.einsum("ujv,kiq->ijkuvq", A, A)
        )
        sa, ia = _argmax_signed(fia)
        sb, ib = _argmax_signed(fib)
        candidates.append((sa, tuple(p), ia, "FIa"))
        candidates.append((sb, tuple(p), ib, "FIb"))
    top = max(candidates, key=lambda t: abs(t[0]))
    return _report("fundamental-identity", [t[:3] for t in candidates],
                   len(points), detail=top[3])


# ---------------------------------------------------------------------------
# Closure and measure preservation
# ---------------------------------------------------------------------------

def closure_residual(w, points: Sequence[Sequence[float]]) -> IdentityReport:
    """Max over points of the largest |coefficient| of the exact-symbolic dw."""
    from .exterior import exterior_derivative

    dw = exterior_derivative(w)
    best = []
    for p in points:
        V = dw.at(p)
        if V.coeffs:
            key = max(V.coeffs, key=lambda kk: abs(V.coeffs[kk]))
            best.append((V.coeffs[key], tuple(p), key))
        else:
            best.append((0.0, tuple(p), ()))
    return _report("closure", best, len(points))


def divergence_exprs(J: MultiVectorField, g: ScalarField | None = None) -> dict[tuple, ex.Expr]:
    """Symbolic sum_i d_i (g J^{i j1..j_{k-1}}) for each increasing target tuple."""
    n, k = J.n, J.k
    out: dict[tuple, ex.Expr] = {}
    for K in increasing_indices(n, k - 1):
        total = ex.ZERO
        for i in range(1, n + 1):
            if i in K:
                continue
            comp = J.component_expr((i,) + K)
            if ex.is_zero(comp):
                continue
            prod = comp if g is None else ex.mul(g.expression, comp)
            total = ex.add(total, ex.differentiate(prod, i))
        out[K] = total
    return out


def measure_residual(J: MultiVectorField, g: ScalarField | float,
                     points: Sequence[Sequence[float]]) -> IdentityReport:
    """Max over points and target tuples of |sum_i d_i(g J^{i...})|."""
    gf = None
    if isinstance(g, (int, float)):
        if g != 1:
            gf = ex.ScalarField(J.n, ex.const(g))
    else:
        gf = g
    exprs = divergence_exprs(J, gf)
    values = ex.compile_vector(exprs.values())
    best = []
    for p in points:
        if gf is not None and gf(p) == 0.0:
            raise EvalDomainError(f"measure weight vanishes at {tuple(p)}")
        vals = dict(zip(exprs, values(p)))
        key = max(vals, key=lambda kk: abs(vals[kk])) if vals else ()
        best.append((vals.get(key, 0.0), tuple(p), key))
    return _report("measure", best, len(points))


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
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            total = ex.ZERO
            for m in range(1, n + 1):
                comp = J.component_expr((m, i, j))
                if ex.is_zero(comp):
                    continue
                total = ex.add(total, ex.differentiate(comp, m))
            if ex.is_zero(total):
                continue
            coeffs[(i, j, n + 1)] = ex.neg(ex.mul(xnp1, total))
    return MultiVectorField(n + 1, 3, coeffs)


# ---------------------------------------------------------------------------
# Triple bracket (used by the derivative-distribution spot check)
# ---------------------------------------------------------------------------

def triple_bracket(J: MultiVectorField, f: ScalarField, g: ScalarField,
                   h: ScalarField) -> ScalarField:
    """{f, g, h} = J^{ijk} f_i g_j h_k as an exact symbolic scalar field."""
    if J.k != 3:
        raise DimensionError("triple bracket needs a degree-3 multivector")
    total = ex.ZERO
    for key, e in J.coeffs.items():
        for perm in itertools.permutations(key):
            _, s = sort_with_sign(perm)
            i, j, kk = perm
            term = ex.mul(e, ex.mul(f.grad[i - 1], ex.mul(g.grad[j - 1], h.grad[kk - 1])))
            total = ex.add(total, term if s == 1 else ex.neg(term))
    return ScalarField(J.n, total)
