"""Residual checkers for algebraic structure identities.

Every checker samples a list of points, scans index tuples exhaustively
(dense numpy over n^3..n^6 tuples, built per point from one contraction or
outer product and its transposes; n <= 8 keeps this at desk scale), and
reports the maximum absolute violation together with the signed value and
location of the argmax.  Reports are exactly reproducible given the same
point list.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import expr as ex
from .errors import DimensionError, EvalDomainError, InputError
from .exterior import MultiVectorField, ScalarField, increasing_indices, nan_max


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


def _dense_pair(J: MultiVectorField, point: Sequence[float]) -> tuple[np.ndarray, np.ndarray]:
    """Full antisymmetric component arrays at a point: A of shape (n,)*k and
    D[u, i1..ik] = d J^{i1..ik} / d x^u from exact symbolic partials."""
    n, k = J.n, J.k
    plan = J.memo("dense", lambda f: f.gather_plan(itertools.product(range(1, n + 1), repeat=k)))
    jet = J.gather(plan, point, jet=True)  # every n^k index tuple, row-major
    return jet[0].reshape((n,) * k), jet[1:].reshape((n,) * (k + 1))


def _report(name: str, values: list[tuple[float, tuple, tuple]], samples: int,
            detail: str = "") -> IdentityReport:
    """values: (signed, point, index) candidates, one per point (the per-point argmax)."""
    if not values:
        raise InputError(f"{name}: no sample points")
    best = nan_max(values, key=lambda t: abs(t[0]))
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


def jacobi_k_residual(J: MultiVectorField,
                      points: Sequence[Sequence[float]]) -> IdentityReport:
    """Jacobi identity for a degree-k tensor in coordinates adapted to its
    Casimirs: the trailing k-2 slots are the Casimir axes (n-k+3 .. n).
    Reduces to the degree-2 check on K^{ab} = J^{ab, n-k+3, ..., n}."""
    n, k = J.n, J.k
    trailing = tuple(range(n - k + 3, n + 1))
    K = MultiVectorField(n, 2, {
        (a, b): J.component((a, b) + trailing)
        for a in range(1, n + 1) for b in range(a + 1, n + 1)
    })
    return dataclasses.replace(jacobi_residual(K, points), name="jacobi_k",
                               detail=f"trailing axes {trailing}")


# ---------------------------------------------------------------------------
# Fundamental identity
# ---------------------------------------------------------------------------

def _fundamental_identity_arrays(A: np.ndarray, D: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """FIa[i, j, k, v, q] and FIb[i, j, k, u, v, q] at one point, from
    A = J and D[u, i, j, k] = d_u J^{ijk}; see fundamental_identity_residual."""
    T = np.einsum("uab,ucde->abcde", A, D)
    fia = (T.transpose(2, 3, 4, 0, 1) - T.transpose(2, 0, 1, 3, 4)
           - T.transpose(1, 2, 0, 3, 4) - T)
    P = np.multiply.outer(A, A) + 0.0
    fib = (P + P.transpose(4, 1, 2, 3, 0, 5) + P.transpose(1, 3, 2, 0, 4, 5)
           + P.transpose(4, 3, 2, 0, 1, 5) + P.transpose(2, 1, 3, 0, 4, 5)
           + P.transpose(4, 1, 3, 0, 2, 5))
    return fia, fib


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

    Per point, each FIa term is a transpose of one contraction
    T[a, b, c, d, e] = J^{uab} d_u J^{cde}, and each FIb term a transpose of
    one outer product P = J (x) J; the terms are summed in the order written
    above.  P carries a ``+ 0.0`` so that a product that is -0.0 reads +0.0,
    as it does in ``einsum``, which accumulates every product from +0.0; a
    sum of -0.0 terms would otherwise report a zero residual as -0.0.
    """
    if J.k != 3:
        raise DimensionError("fundamental identity applies to degree-3 multivectors")
    candidates = []  # (signed, point, index, sub-identity label)
    for p in points:
        fia, fib = _fundamental_identity_arrays(*_dense_pair(J, p))
        sa, ia = _argmax_signed(fia)
        sb, ib = _argmax_signed(fib)
        candidates.append((sa, tuple(p), ia, "FIa"))
        candidates.append((sb, tuple(p), ib, "FIb"))
    rep = _report("fundamental-identity", [t[:3] for t in candidates], len(points))
    return dataclasses.replace(rep, detail=nan_max(candidates, key=lambda t: abs(t[0]))[3])


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
            key = nan_max(V.coeffs, key=lambda kk: abs(V.coeffs[kk]))
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
            comp = J.component((i,) + K)
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
        key = nan_max(vals, key=lambda kk: abs(vals[kk]), default=())
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
    for (i, j), total in divergence_exprs(J).items():
        if not ex.is_zero(total):
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
    for key in J.coeffs:
        for i, j, kk in itertools.permutations(key):
            term = ex.mul(f.grad[i - 1], ex.mul(g.grad[j - 1], h.grad[kk - 1]))
            total = ex.add(total, ex.mul(J.component((i, j, kk)), term))
    return ScalarField(J.n, total)
