"""Residual checkers for algebraic structure identities.

A scan is the list of expressions it reads and a step that turns their
values at a block of points into those points' candidates (signed value,
point, index).  ``run_scans`` compiles every selected scan's expressions as
one bundle and evaluates it once per point; it stacks the rows into blocks
of points, each bounded by ``SCAN_BLOCK_FLOATS`` floats of the widest step's
arrays, and hands each step its columns of a block, so a step makes one set
of numpy calls per block.  Closure reads dw's coefficients, Jacobi and the
fundamental identity a tensor's jet gathered into full arrays, measure the
divergences and then the weight.  Jacobi stacks its contraction over the
block, and the fundamental identity reads
FIa and FIb only at the positions of their support plans (``_fia_plan``,
``_fib_plan``), which the structural support of J and its partials fixes
once per support, so their cost follows J's nonzero pairs.  The values are
finite (``expr``'s guard), and a step whose arithmetic overflows raises an
``EvalDomainError`` naming its scan.  A value is the same bits in any bundle
and any block, and each report names the largest violation with its signed
value and location, so reports are reproducible given the same points.  The
scans stop at the first point where one faults, naming the first faulting
node there in scan order, or else the first scan whose step fails there.
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
                       exterior_derivative)

SCAN_BLOCK_FLOATS = 2 ** 14  # floats of a step's largest array per block of points


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
    """One identity scan: the expressions it reads; ``step(values,
    points)``, which turns their values at a block of points, one row per
    point, into those points' candidates in point order; and ``floats``, the
    size per point of the largest array the step stacks."""

    name: str
    exprs: tuple[ex.Expr, ...]
    step: Callable[[np.ndarray, list[tuple]], list[Candidate]]
    floats: int


def run_scans(scans: Sequence[Scan], points: Sequence[Sequence[float]]) -> list[IdentityReport]:
    """Each scan's report, from one compiled function of every scan's
    expressions in order, evaluated once per point; each step reads its own
    columns of the rows of a block of points.  A row that faults is raised
    after the steps of the rows before it, so a step's fault at an earlier
    point comes first; a block whose steps fail is stepped again one point
    at a time, so the error is the first point's, then the first scan's, in
    any block.  Scans without expressions compile nothing."""
    exprs = [e for scan in scans for e in scan.exprs]
    row = ex.compile_vector(exprs) if exprs else lambda point: ()
    ends = list(itertools.accumulate(len(scan.exprs) for scan in scans))
    block = max(1, SCAN_BLOCK_FLOATS // max(1, len(exprs), *(scan.floats for scan in scans)))
    found: list[list[Candidate]] = [[] for _ in scans]
    for start in range(0, len(points), block):
        rows, fault = [], None
        for p in points[start:start + block]:
            try:
                rows.append(row(p))
            except EvalDomainError as exc:
                fault = exc
                break
        if rows:
            values = np.array(rows, dtype=float).reshape(len(rows), len(exprs))
            where = [tuple(p) for p in points[start:start + len(rows)]]
            try:
                steps = _steps(scans, ends, values, where)
            except EvalDomainError:
                for r in range(len(rows)):
                    _steps(scans, ends, values[r:r + 1], where[r:r + 1])
                raise
            for out, candidates in zip(found, steps):
                out += candidates
        if fault is not None:
            raise fault
    return [_report(scan.name, out, len(points)) for scan, out in zip(scans, found)]


def _steps(scans: Sequence[Scan], ends: list[int], values: np.ndarray,
           where: list[tuple]) -> list[list[Candidate]]:
    """Each scan's candidates at a block of rows; a step's overflow is an
    ``EvalDomainError``."""
    out = []
    with np.errstate(over="raise", invalid="raise"):
        for scan, lo, hi in zip(scans, [0, *ends], ends):
            try:
                out.append(scan.step(values[:, lo:hi], where))
            except FloatingPointError:
                raise EvalDomainError(f"floating-point overflow in the {scan.name} scan") from None
    return out


def _report(name: str, candidates: list[Candidate], samples: int) -> IdentityReport:
    """The report of the first candidate with the largest |signed|."""
    if not candidates:
        raise InputError(f"{name}: no sample points")
    best = max(candidates, key=lambda t: abs(t[0]))
    return IdentityReport(
        name=name,
        max_residual=abs(best[0]),
        argmax_point=tuple(float(v) for v in best[1]),
        argmax_index=best[2],
        signed_at_argmax=float(best[0]),
        samples=samples,
        detail=best[3],
    )


def _argmax_rows(values: np.ndarray, n: int, k: int,
                 positions: np.ndarray | None = None) -> list[tuple[float, tuple[int, ...]]]:
    """Per row of ``values``: the first entry of largest magnitude and its
    1-based index in an array of shape (n,)*k whose flat ``positions`` the
    row holds (every position by default)."""
    best = np.argmax(np.abs(values), axis=1)
    signed = values[np.arange(len(values)), best].tolist()
    flat = best if positions is None else positions.take(best)
    digits = flat[:, None] // n ** np.arange(k - 1, -1, -1) % n + 1
    return list(zip(signed, map(tuple, digits.tolist())))


# ---------------------------------------------------------------------------
# Dense component arrays
# ---------------------------------------------------------------------------

def _dense_plan(J: MultiVectorField) -> tuple[np.ndarray, np.ndarray]:
    """The gather plan of every n^k index tuple, row-major."""
    return J.memo("dense", lambda f: f.gather_plan(
        itertools.product(range(1, f.n + 1), repeat=f.k)))


def _dense_block(J: MultiVectorField, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Full antisymmetric component arrays from a block of jet rows, one per
    point: A[p] of shape (n,)*k and D[p, u, i1..ik] = d J^{i1..ik} / d x^u
    from exact symbolic partials."""
    G = J.gather_from(_dense_plan(J), values, jet=True)
    return G[:, 0].reshape((-1,) + (J.n,) * J.k), G[:, 1:].reshape((-1,) + (J.n,) * (J.k + 1))


def _jet_support(J: MultiVectorField) -> np.ndarray:
    """Where ``_dense_block``'s arrays can be nonzero, as (n + 1, n^k)
    booleans: row 0 for A, the slots of ``_dense_plan`` that hold a
    coefficient, and row u for D[u], the partials d/dx^u that ``jet_plan``
    keeps."""
    def build(f):
        table = np.zeros((f.n + 1) * (len(f.coeffs) + 1), dtype=bool)
        table[f.jet_plan()[1]] = True
        return table.reshape(f.n + 1, -1)[:, _dense_plan(f)[0]]
    return J.memo("jet_support", build)


# ---------------------------------------------------------------------------
# Jacobi identity
# ---------------------------------------------------------------------------

def _jacobi_sums(A: np.ndarray, D: np.ndarray) -> np.ndarray:
    """The cyclic sum of t1[..., i, j, l] = A[..., i, m] D[..., m, j, l] over
    (i, j, l), for one point or a stack of points.  ``einsum`` ignores the
    errstate, so an inf or NaN in t1 (an overflow) raises here."""
    t1 = np.einsum("...im,...mjl->...ijl", A, D)
    if not np.isfinite(t1).all():
        raise FloatingPointError("overflow in the Jacobi contraction")
    return t1 + np.moveaxis(t1, -3, -1) + np.moveaxis(t1, -1, -3)


def jacobi_scan(J2: MultiVectorField) -> Scan:
    """Max over points and (i,j,l) of the cyclic first-derivative sum; degree 2 only."""
    if J2.k != 2:
        raise DimensionError("jacobi_residual needs a degree-2 multivector")
    n = J2.n

    def step(values, points):  # D[p, m, j, l]
        A, D = _dense_block(J2, values)
        sums = _argmax_rows(_jacobi_sums(A, D).reshape(-1, n ** 3), n, 3)
        return [(signed, p, idx, "") for (signed, idx), p in zip(sums, points)]
    return Scan("jacobi", tuple(J2.jet_plan()[0]), step, (n + 1) * n ** 2)


def jacobi_residual(J2: MultiVectorField, points: Sequence[Sequence[float]]) -> IdentityReport:
    """``jacobi_scan`` alone."""
    return run_scans([jacobi_scan(J2)], points)[0]


# ---------------------------------------------------------------------------
# Fundamental identity
# ---------------------------------------------------------------------------

_FIA_TERMS = ((2, 3, 4, 0, 1), (2, 0, 1, 3, 4), (1, 2, 0, 3, 4), (0, 1, 2, 3, 4))
_FIB_TERMS = ((0, 1, 2, 3, 4, 5), (4, 1, 2, 3, 0, 5), (1, 3, 2, 0, 4, 5),
              (4, 3, 2, 0, 1, 5), (2, 1, 3, 0, 4, 5), (4, 1, 3, 0, 2, 5))


def _term_sources(mask: np.ndarray, terms) -> tuple[np.ndarray, np.ndarray]:
    """(positions, sources): the sorted flat positions, 0 included, where one
    of the transposes ``terms`` of the boolean array ``mask`` is True, and for
    each term the flat index into ``mask``'s array that it reads there: its
    transpose t at digits i reads digits j with j[t[d]] = i[d]."""
    hit = np.zeros(mask.shape, dtype=bool)
    for t in terms:
        hit |= mask.transpose(t)
    hit.flat[0] = True
    positions = np.flatnonzero(hit)
    digits = np.unravel_index(positions, mask.shape)
    return positions, np.stack([np.ravel_multi_index([digits[t.index(d)] for d in range(len(t))],
                                                     mask.shape) for t in terms])


@functools.lru_cache(maxsize=16)
def _fia_plan(n: int, support: bytes) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(positions, ab, cde) of FIa for a degree-3 tensor whose jet is
    nonzero only where the boolean (n + 1) x n^3 mask ``support`` (of
    ``_jet_support``) is: the sorted flat positions, 0 included, where one of
    the four transposes of T[a, b, c, d, e] = J^{uab} d_u J^{cde} in
    ``fundamental_identity_scan`` can be nonzero, and the flat indices (a, b)
    into J^{u..} and (c, d, e) into d_u J that term m reads there."""
    s = np.frombuffer(support, dtype=bool).reshape(n + 1, n, -1)
    pairs = (s[0].reshape(n, -1).T.astype(np.intp) @ s[1:].reshape(n, -1).astype(np.intp)) > 0
    positions, sources = _term_sources(pairs.reshape((n,) * 5), _FIA_TERMS)
    return (positions, *np.divmod(sources, n ** 3))


def _fia_entries(A: np.ndarray, D: np.ndarray,
                 plan: tuple[np.ndarray, np.ndarray, np.ndarray]) -> np.ndarray:
    """FIa at the positions of ``_fia_plan``'s ``plan``, per point of the
    stacked arrays A and D: each term summed over u from +0.0 in order, which
    gives ``einsum``'s bits where the jet is finite, then the terms in the
    order written."""
    _, ab, cde = plan
    n = A.shape[1]
    products = (A.reshape(len(A), n, n * n).take(ab, axis=2)
                * D.reshape(len(D), n, n ** 3).take(cde, axis=2))
    T = products[:, 0] + 0.0
    for u in range(1, n):
        T += products[:, u]
    return T[:, 0] - T[:, 1] - T[:, 2] - T[:, 3]


@functools.lru_cache(maxsize=16)
def _fib_plan(n: int, support: bytes) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(positions, left, right) of FIb for a degree-3 tensor that is nonzero
    only where the boolean n^3 mask ``support`` is: the sorted flat positions
    of P = J (x) J, 0 included, where one of the six transposes of P in
    ``fundamental_identity_scan`` can be nonzero, and the flat indices into J
    of the two factors, left[m] * right[m], that term m reads there."""
    s = np.frombuffer(support, dtype=bool).reshape((n,) * 3)
    positions, sources = _term_sources(np.multiply.outer(s, s), _FIB_TERMS)
    return (positions, *np.divmod(sources, n ** 3))


def _fib_entries(A: np.ndarray, plan: tuple[np.ndarray, np.ndarray, np.ndarray]) -> np.ndarray:
    """FIb at the positions of ``_fib_plan``'s ``plan``, per row of the flat
    A (points x n^3): each product carries ``+ 0.0``, and the terms are
    summed one at a time in the full array's order."""
    _, left, right = plan
    total = A.take(left[0], axis=1) * A.take(right[0], axis=1) + 0.0
    for lm, rm in zip(left[1:], right[1:]):
        total += A.take(lm, axis=1) * A.take(rm, axis=1) + 0.0
    return total


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

    Each FIa term is a transpose of one contraction T[a, b, c, d, e] =
    J^{uab} d_u J^{cde}, and each FIb term a transpose of one outer product
    P = J (x) J; the terms are summed in the order written above.  Both are
    read only at the positions of their support plans, ``_fia_plan`` of the
    structural support of J and its partials and ``_fib_plan`` of J's (the
    slots of ``_dense_plan`` that hold a coefficient or a kept partial):
    every term is a sum of products of two entries, so elsewhere each
    product has a zero factor.  An FIa entry of T is summed over u from +0.0
    in order, and P carries a ``+ 0.0`` so that a product that is -0.0 reads
    +0.0, as in ``einsum``; for a finite jet every entry off the plans is
    then exactly +0.0, and each plan's first entry is the array's first, so
    the largest entry, its index and its bits are those of the full arrays.
    Under ``run_scans``' errstate an FIa or FIb entry that overflows raises,
    as it would in the full arrays, whose other entries are products with a
    zero factor.
    """
    if J.k != 3:
        raise DimensionError("fundamental identity applies to degree-3 multivectors")
    n = J.n
    support = _jet_support(J)
    fia_plan = _fia_plan(n, support.tobytes())
    fib_plan = _fib_plan(n, support[0].tobytes())

    def step(values, points):
        A, D = _dense_block(J, values)
        fia = _argmax_rows(_fia_entries(A, D, fia_plan), n, 5, fia_plan[0])
        fib = _argmax_rows(_fib_entries(A.reshape(len(A), -1), fib_plan), n, 6, fib_plan[0])
        return [c for (sa, ia), (sb, ib), p in zip(fia, fib, points)
                for c in ((sa, p, ia, "FIa"), (sb, p, ib, "FIb"))]
    floats = max((n + 1) * n ** 3, 4 * n * len(fia_plan[0]), len(fib_plan[0]))
    return Scan("fundamental-identity", tuple(J.jet_plan()[0]), step, floats)


def fundamental_identity_residual(J: MultiVectorField,
                                  points: Sequence[Sequence[float]]) -> IdentityReport:
    """``fundamental_identity_scan`` alone."""
    return run_scans([fundamental_identity_scan(J)], points)[0]


# ---------------------------------------------------------------------------
# Closure and measure preservation
# ---------------------------------------------------------------------------

def _largest(values: np.ndarray, keys: list[tuple], points: list[tuple],
             nonzero: bool = False) -> list[Candidate]:
    """Per row of ``values``, one column per key: the candidate of the key
    whose value has the largest magnitude, the first on a tie,
    among the keys whose value is not 0.0 if ``nonzero``; (0.0, ()) for a
    row without such a key."""
    if not keys:
        return [(0.0, p, (), "") for p in points]
    magnitude = np.abs(values)
    if nonzero:
        magnitude[values == 0.0] = -1.0  # below every kept key
    best = magnitude.argmax(axis=1).tolist()
    return [(0.0, p, (), "") if nonzero and row[i] == 0.0 else (row[i], p, keys[i], "")
            for row, i, p in zip(values.tolist(), best, points)]


def closure_scan(w: FormField) -> Scan:
    """Max over points of the largest |coefficient| of the exact-symbolic dw."""
    dw = exterior_derivative(w)
    keys = list(dw.coeffs)

    def step(values, points):  # the nonzero coefficients, as in ``dw.at(point)``
        return _largest(values, keys, points, nonzero=True)
    return Scan("closure", tuple(dw.coeffs.values()), step, len(keys))


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

    def step(values, points):
        if gf is not None and (values[:, -1] == 0.0).any():
            vanish = int(np.argmax(values[:, -1] == 0.0))
            raise EvalDomainError(f"measure weight vanishes at {points[vanish]}")
        return _largest(values[:, :len(keys)], keys, points)
    weight = () if gf is None else (gf.expression,)
    return Scan("measure", (*exprs.values(), *weight), step, len(keys) + len(weight))


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
