"""Pointwise linear solves of iota_X w = -sigma via the hat map.

The hat map sends a vector to the coefficient list of its contraction with a
degree-k form.  Its matrix at a point has C(n, k-1) rows (one per increasing
(k-1) multi-index, lexicographic for reproducibility) and n columns, with
entry(row I, col j) equal to the sign-sorted full component w_{jI}.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Sequence

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
    cutoff = sv[0] * RCOND if sv.size and sv[0] > 0 else 0.0
    return int(np.sum(sv > cutoff))


def obstruction_check(n: int, k: int) -> bool:
    """Necessary dimension-count condition for the hat map to be surjective:
    n >= C(n, k-1).  Independent of the point."""
    if not (n >= k >= 2):
        raise DimensionError(f"need n >= k >= 2, got n={n}, k={k}")
    return n >= math.comb(n, k - 1)


@dataclass(frozen=True)
class HatMapMatrix:
    """Dense matrix of X -> iota_X w at a point; rows indexed by ``rows``."""

    n: int
    k: int
    rows: tuple[tuple[int, ...], ...]
    matrix: np.ndarray  # shape (C(n, k-1), n)

    def apply(self, X: Sequence[float]) -> np.ndarray:
        return self.matrix @ np.asarray(X, dtype=float)


def _hatmap_plan(w: FormField):
    rows = tuple(increasing_indices(w.n, w.k - 1))
    return rows, w.gather_plan((j,) + I for I in rows for j in range(1, w.n + 1))


def _hatmap_arrays(w: FormField, sigma: FormField | None, point: Sequence[float],
                   jet: bool = False):
    """(rows, A, b): the hat-map rows, the matrix with entry (row I, col j) the
    component w_{jI}, and the right-hand side -sigma_I over the rows, None
    without sigma.  With ``jet``, A and b gain a leading axis: row 0 holds
    the values and row u the exact partials d/dx^u.  Each field's index plan
    is built once."""
    if sigma is not None and (sigma.k != w.k - 1 or sigma.n != w.n):
        raise DimensionError(
            f"sigma must have degree k-1={w.k - 1} on n={w.n}, got ({sigma.n}, {sigma.k})")
    if w.k < 2:
        raise DimensionError("hat map needs a form of degree >= 2")
    rows, plan = w.memo("hatmap", _hatmap_plan)
    A = w.gather(plan, point, jet)
    A = A.reshape(A.shape[:-1] + (len(rows), w.n))
    if sigma is None:
        return rows, A, None
    rhs = sigma.memo("hatmap_rhs", lambda f: f.gather_plan(increasing_indices(f.n, f.k)))
    return rows, A, -sigma.gather(rhs, point, jet)


def assemble_hatmap(w: FormField, point: Sequence[float]) -> HatMapMatrix:
    """Entry (row I, col j) is the component w_{jI}."""
    rows, A, _ = _hatmap_arrays(w, None, point)
    return HatMapMatrix(w.n, w.k, rows, A)


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
        return json.dumps(
            {
                "n": self.n,
                "k": self.k,
                "x": list(self.x),
                "residual": self.residual,
                "kernel_dim": self.kernel_dim,
                "unique": self.unique,
                "surjectivity_possible": self.surjectivity_possible,
                "consistent": self.consistent,
                "tolerance": self.tolerance,
            },
            sort_keys=True,
        )


def solve_hdw(w: FormField, sigma: FormField, point: Sequence[float],
              tolerance: float = TOLERANCE) -> SolveReport:
    """Minimum-norm least-squares solution of the hat-map system.

    Inconsistency is a report state, not an error: ``consistent`` holds iff
    the residual is within tolerance * (1 + |sigma|).  A residual or solution
    that is not finite raises ``EvalDomainError``.
    """
    report = _solve_report(*_hatmap_system(w, sigma, point), tolerance)
    if not all(map(math.isfinite, (report.residual, *report.x))):
        raise EvalDomainError(f"floating-point overflow in the hat-map solve at {tuple(point)}: "
                              f"residual {report.residual:g}")
    return report


def _solve_report(hat: HatMapMatrix, b: np.ndarray,
                  tolerance: float = TOLERANCE) -> SolveReport:
    """``solve_hdw``'s report for an assembled hat-map system."""
    x, residual, consistent, rank = _min_norm_solve(hat, b, tolerance)
    kernel_dim = hat.n - rank
    return SolveReport(
        n=hat.n,
        k=hat.k,
        x=tuple(x),
        residual=residual,
        kernel_dim=kernel_dim,
        unique=consistent and kernel_dim == 0,
        surjectivity_possible=obstruction_check(hat.n, hat.k),
        consistent=consistent,
        tolerance=tolerance,
    )


def _hatmap_system(w: FormField, sigma: FormField,
                   point: Sequence[float]) -> tuple[HatMapMatrix, np.ndarray]:
    """The hat map at a point and the right-hand side -sigma over its rows."""
    rows, A, b = _hatmap_arrays(w, sigma, point)
    return HatMapMatrix(w.n, w.k, rows, A), b


def _min_norm_solve(hat: HatMapMatrix, b: np.ndarray,
                    tolerance: float = TOLERANCE) -> tuple[list, float, bool, int]:
    """(x as a list of floats, residual, consistent, rank): the one solve
    path, under ``solve_hdw``'s report and the form route's RK stages."""
    x, _, rank, _ = np.linalg.lstsq(hat.matrix, b, rcond=RCOND)
    residual = float(np.linalg.norm(hat.matrix @ x - b))
    return x.tolist(), residual, _consistent(residual, b, tolerance), int(rank)


def _consistent(residual: float, b: np.ndarray, tolerance: float) -> bool:
    return residual <= tolerance * (1.0 + float(np.linalg.norm(b)))


def min_norm_divergence(w: FormField, sigma: FormField,
                        point: Sequence[float]) -> tuple[float, float, bool]:
    """(div, residual, consistent) of the minimum-norm field X = A^+ b of
    iota_X w = -sigma, where the hat map A has constant rank near the point.

    The derivative of the pseudo-inverse at constant rank (Golub & Pereyra,
    SIAM J. Numer. Anal. 10(2), 1973) gives, with r = b - A X,

        dX = A^+ (db - dA X) + A^+ A^+T dA^T r + (I - A^+ A) dA^T A^+T X,

    and div X is the trace of dX over the coordinate axes.  The rank is cut
    at ``RCOND`` and ``consistent`` uses ``TOLERANCE``, as in ``solve_hdw``
    with its default tolerance, which the RK stages use.
    """
    _, A, b = _hatmap_arrays(w, sigma, point, jet=True)
    A, b, dA, db = A[0], b[0], A[1:], b[1:]
    U, sv, Vt = np.linalg.svd(A, full_matrices=False)
    rank = numerical_rank(sv)
    U, sv, Vt = U[:, :rank], sv[:rank], Vt[:rank]
    pinv = (Vt.T / sv) @ U.T
    X = pinv @ b
    r = b - A @ X
    div = (np.sum(pinv * (db - dA @ X))
           + np.sum(((Vt.T / sv ** 2) @ Vt) * (r @ dA))
           + np.sum((np.eye(w.n) - Vt.T @ Vt) * ((pinv.T @ X) @ dA)))
    residual = float(np.linalg.norm(r))
    return float(div), residual, _consistent(residual, b, TOLERANCE)


def kernel_basis(w: FormField, point: Sequence[float]) -> list[np.ndarray]:
    """Orthonormal basis of ker(hat map) at the point; empty iff injective."""
    hat = assemble_hatmap(w, point)
    _, sv, vh = np.linalg.svd(hat.matrix)
    return [vh[i, :].copy() for i in range(numerical_rank(sv), w.n)]
