"""Pointwise linear solves of iota_X w = -sigma via the hat map.

The hat map sends a vector to the coefficient list of its contraction with a
degree-k form.  Its matrix A at a point has C(n, k-1) rows (increasing (k-1)
multi-indices, lexicographic) and n columns, entry (row I, col j) the
sign-sorted full component w_{jI}.  A solve reads A and b = -sigma with one
compiled call and one gather of the hat-map system of (w, sigma).  The
system's SVD with its pseudo-inverse, and the divergence's matrices, come
from two ``functools.lru_cache(maxsize=1)`` functions of A's bytes, so a run
of solves of one A, as along a flow of a constant-coefficient form, factors
it once, and every result keeps the bits of a fresh factorization.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from functools import lru_cache
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .errors import DimensionError, EvalDomainError
from .exterior import FormField, increasing_indices

# relative singular-value cutoff for rank decisions
RCOND = 1e-10
# the hat-map system is consistent iff its residual <= TOLERANCE * (1 + |sigma|)
TOLERANCE = 1e-9


def numerical_rank(sv: np.ndarray) -> int:
    """The number of singular values above ``RCOND`` times the largest: the
    one rank rule.  A zero or empty spectrum has rank 0."""
    sv = sv.tolist()  # a few values: Python floats compare faster than an array
    cutoff = sv[0] * RCOND if sv and sv[0] > 0 else 0.0
    return len([s for s in sv if s > cutoff])


def obstruction_check(n: int, k: int) -> bool:
    """Necessary dimension-count condition for the hat map to be surjective:
    n >= C(n, k-1).  Independent of the point."""
    if not (n >= k >= 2):
        raise DimensionError(f"need n >= k >= 2, got n={n}, k={k}")
    return n >= math.comb(n, k - 1)


@dataclass(frozen=True)
class HatMapMatrix:
    """Dense matrix of X -> iota_X w at a point; rows indexed by ``rows``."""

    rows: tuple[tuple[int, ...], ...]
    matrix: np.ndarray  # shape (C(n, k-1), n)


class HatMapSystem(NamedTuple):
    """iota_X w = -sigma.  ``both``, a new field so that w's memo holds no
    cycle back to w, holds w's coefficients, then sigma's (keys of degree k,
    then k-1), for one compiled function and one jet; ``plan`` gathers A, then
    b = -sigma.  ``factor(key)`` is (sv, Vt, pinv) of the A whose bytes are
    ``key``, and ``matrices(key)`` the divergence's (Vt^T / sv^2) Vt and
    I - Vt^T Vt; each keeps its last value, closes over n (and I) but never
    over w, and runs under its caller's ``np.errstate``."""

    rows: tuple
    both: FormField
    plan: tuple
    factor: Callable
    matrices: Callable


def _hatmap_system(w: FormField, sigma: FormField) -> HatMapSystem:
    """The hat-map system of (w, sigma), memoized on w per sigma object."""
    if sigma.k != w.k - 1 or sigma.n != w.n:
        raise DimensionError(
            f"sigma must have degree k-1={w.k - 1} on n={w.n}, got ({sigma.n}, {sigma.k})")
    if w.k < 2:
        raise DimensionError("hat map needs a form of degree >= 2")

    def build(w):
        n = w.n
        rows = tuple(increasing_indices(n, w.k - 1))
        both = FormField(n, w.k, {**w.coeffs, **sigma.coeffs}, _normalized=True)
        plan = both.gather_plan([(j, *I) for I in rows for j in range(1, n + 1)] + [*rows])
        plan[1][len(rows) * n:] *= -1.0

        @lru_cache(maxsize=1)
        def factor(key):
            U, sv, Vt = np.linalg.svd(np.frombuffer(key).reshape(-1, n), full_matrices=False)
            rank = numerical_rank(sv)
            sv, Vt = sv[:rank], Vt[:rank]
            return sv, Vt, (Vt.T / sv) @ U[:, :rank].T

        eye = np.eye(n)

        @lru_cache(maxsize=1)
        def matrices(key):
            sv, Vt, _ = factor(key)
            return (Vt.T / sv ** 2) @ Vt, eye - Vt.T @ Vt
        return HatMapSystem(rows, both, plan, factor, matrices)
    return w.memo(("hatmap", sigma), build)


def _hatmap_arrays(system: HatMapSystem, point: Sequence[float], jet: bool = False):
    """(A, b) at ``point`` from one gather: A[I, j] = w_{jI}, b[I] = -sigma_I.
    With ``jet`` both gain a leading axis, row u holding d/dx^u, copied C-order
    for the batched products.  Every entry is finite: the compiled function
    raises ``EvalDomainError`` naming the first node that is not."""
    rows, both = system.rows, system.both
    g = both.gather(system.plan, point, jet)
    A, b = g[..., :-len(rows)].reshape(g.shape[:-1] + (len(rows), both.n)), g[..., -len(rows):]
    return (np.ascontiguousarray(A), np.ascontiguousarray(b)) if jet else (A, b)


def assemble_hatmap(w: FormField, point: Sequence[float]) -> HatMapMatrix:
    """Entry (row I, col j) is the component w_{jI}, read from w's own
    coefficients through a gather plan memoized on w."""
    if w.k < 2:
        raise DimensionError("hat map needs a form of degree >= 2")

    def build(w):
        rows = tuple(increasing_indices(w.n, w.k - 1))
        return rows, w.gather_plan((j, *I) for I in rows for j in range(1, w.n + 1))
    rows, plan = w.memo("hatmap", build)
    return HatMapMatrix(rows, w.gather(plan, point).reshape(-1, w.n))


@dataclass(frozen=True)
class SolveReport:
    """Minimum-norm least-squares record for iota_X w = -sigma at one point."""

    n: int
    k: int
    x: tuple[float, ...]
    residual: float
    kernel_dim: int
    unique: bool
    surjectivity_possible: bool
    consistent: bool
    tolerance: float

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True)


class MinNorm(NamedTuple):
    """x = A^+ b from the reduced SVD of A cut at ``numerical_rank``, with
    r = b - A x, its norm, consistency and the kept factors; the rank is
    ``len(sv)`` and pinv = (Vt^T / sv) U^T.  ``pinv``, ``sv`` and ``Vt`` are
    the hat-map system's ``factor`` of A, shared by every solve of the same
    A: read them, never write them."""

    x: np.ndarray
    r: np.ndarray
    residual: float
    consistent: bool
    pinv: np.ndarray
    sv: np.ndarray
    Vt: np.ndarray


def _min_norm(system: HatMapSystem, A: np.ndarray, b: np.ndarray,
              tolerance: float = TOLERANCE, key: bytes | None = None) -> MinNorm:
    """The one solve of ``system``'s A x = b, with A and b from
    ``_hatmap_arrays`` (finite), from the system's ``factor`` of A's bytes
    (``key``, when the caller has them): the whole input is the key, so a
    -0.0/+0.0 twin is factored afresh.  An overflow after the SVD, where a
    tiny singular value divides, leaves inf or NaN for the callers' checks
    (``_report``, ``min_norm_divergence``)."""
    with np.errstate(over="ignore", invalid="ignore"):
        sv, Vt, pinv = system.factor(A.tobytes() if key is None else key)
        x = pinv @ b
        r = b - A @ x
        residual = math.sqrt(r @ r)  # np.linalg.norm's sqrt(dot) without its checks
        consistent = residual <= tolerance * (1.0 + math.sqrt(b @ b))
    return MinNorm(x, r, residual, consistent, pinv, sv, Vt)


def solve_hdw(w: FormField, sigma: FormField, point: Sequence[float],
              tolerance: float = TOLERANCE) -> SolveReport:
    """Minimum-norm least-squares solution of the hat-map system.

    Inconsistency is a report state, not an error: ``consistent`` holds iff
    the residual is within tolerance * (1 + |sigma|).  A hat map, residual
    or solution that is not finite raises ``EvalDomainError``.
    """
    system = _hatmap_system(w, sigma)
    return _report(w, _min_norm(system, *_hatmap_arrays(system, point), tolerance),
                   point, tolerance)


def _report(w: FormField, solve: MinNorm, point: Sequence[float],
            tolerance: float = TOLERANCE) -> SolveReport:
    """``solve_hdw``'s report of a solve of w's hat-map system at ``point``."""
    if not all(map(math.isfinite, (solve.residual, *solve.x))):
        raise EvalDomainError(f"floating-point overflow in the hat-map solve at {tuple(point)}: "
                              f"residual {solve.residual:g}")
    kernel_dim = w.n - len(solve.sv)
    return SolveReport(w.n, w.k, tuple(solve.x.tolist()), solve.residual, kernel_dim,
                       solve.consistent and kernel_dim == 0, obstruction_check(w.n, w.k),
                       solve.consistent, tolerance)


def min_norm_divergence(w: FormField, sigma: FormField,
                        point: Sequence[float]) -> tuple[float, MinNorm]:
    """(div, solve): the divergence of the minimum-norm field X = A^+ b of
    iota_X w = -sigma, where the hat map A has constant rank near the point,
    and the solve at the point.

    The derivative of the pseudo-inverse at constant rank (Golub & Pereyra,
    SIAM J. Numer. Anal. 10(2), 1973) gives, with r = b - A X,

        dX = A^+ (db - dA X) + A^+ A^+T dA^T r + (I - A^+ A) dA^T A^+T X,

    and div X is the trace of dX over the coordinate axes, with A, b and their
    partials from one gather of the system's jet.  The A-only matrices
    (Vt^T / sv^2) Vt and I - Vt^T Vt are the system's ``matrices`` of A,
    read before the solve, which then finds A's ``factor`` kept under the
    same bytes: A is hashed once.  The solve uses the default ``TOLERANCE``,
    as the RK stages do.  A divergence that is not finite raises
    ``EvalDomainError``.
    """
    system = _hatmap_system(w, sigma)
    A, b = _hatmap_arrays(system, point, jet=True)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        key = A[0].tobytes()
        gram, project = system.matrices(key)
        solve = _min_norm(system, A[0], b[0], key=key)
        X, pinv, dA = solve.x, solve.pinv, A[1:]
        div = float((pinv * (b[1:] - dA @ X)).sum()
                    + (gram * (solve.r @ dA)).sum()
                    + (project * ((pinv.T @ X) @ dA)).sum())
    if not math.isfinite(div):
        raise EvalDomainError(f"floating-point overflow in the hat-map divergence at {tuple(point)}")
    return div, solve


def _null_space(M: np.ndarray) -> np.ndarray:
    """Orthonormal rows spanning ker M from a full SVD cut at
    ``numerical_rank``; M's entries are compiled values, so finite."""
    _, sv, vh = np.linalg.svd(M)
    return vh[numerical_rank(sv):]
