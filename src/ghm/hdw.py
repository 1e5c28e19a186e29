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

from .errors import DimensionError
from .exterior import FormField, increasing_indices, sort_with_sign

# relative singular-value cutoff for rank decisions
RCOND = 1e-10


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


def _gather_plan(field: FormField, indices) -> tuple[np.ndarray, np.ndarray]:
    """(slots, signs) with ``field.at(p).component(I) == signs * c[slots]`` for
    each index tuple I, where c is ``_coefficient_array(field, p)``."""
    slot_of = {key: i for i, key in enumerate(field.coeffs)}
    absent = len(slot_of)  # the trailing 0.0 of the coefficient array
    slots, signs = [], []
    for I in indices:
        key, s = sort_with_sign(I)
        slots.append(slot_of.get(key, absent) if s else absent)
        signs.append(-1.0 if s < 0 else 1.0)
    return np.array(slots, dtype=np.intp), np.array(signs)


def _coefficient_array(field: FormField, point: Sequence[float]) -> np.ndarray:
    c = np.array(field.coefficient_values(point) + (0.0,))
    # a coefficient that evaluates to -0.0 is dropped from the form value,
    # so its components read +0.0
    c[c == 0.0] = 0.0
    return c


def _hatmap_plan(w: FormField):
    rows = tuple(increasing_indices(w.n, w.k - 1))
    flat, indices = [], []
    for r, I in enumerate(rows):
        for j in range(1, w.n + 1):
            if j not in I:
                flat.append(r * w.n + j - 1)
                indices.append((j,) + I)
    return rows, np.array(flat, dtype=np.intp), *_gather_plan(w, indices)


def assemble_hatmap(w: FormField, point: Sequence[float]) -> HatMapMatrix:
    """Entry (row I, col j) is the component w_{jI}; the index scatter is
    built once per form."""
    if w.k < 2:
        raise DimensionError("hat map needs a form of degree >= 2")
    rows, flat, slots, signs = w.memo("hatmap", _hatmap_plan)
    A = np.zeros((len(rows), w.n))
    A.flat[flat] = signs * _coefficient_array(w, point)[slots]
    return HatMapMatrix(w.n, w.k, rows, A)


def hatmap_rhs(sigma: FormField, rows, point: Sequence[float]) -> np.ndarray:
    """Right-hand side -sigma_I over the hat-map rows I."""
    slots, signs = sigma.memo(("rows", rows), lambda f: _gather_plan(f, rows))
    return -(signs * _coefficient_array(sigma, point)[slots])


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
              tolerance: float = 1e-9) -> SolveReport:
    """Minimum-norm least-squares solution of the hat-map system.

    Inconsistency is a report state, not an error: ``consistent`` holds iff
    the residual is within tolerance * (1 + |sigma|).
    """
    if sigma.k != w.k - 1 or sigma.n != w.n:
        raise DimensionError(
            f"sigma must have degree k-1={w.k - 1} on n={w.n}, got ({sigma.n}, {sigma.k})")
    hat = assemble_hatmap(w, point)
    b = hatmap_rhs(sigma, hat.rows, point)
    x, _, rank, _ = np.linalg.lstsq(hat.matrix, b, rcond=RCOND)
    residual = float(np.linalg.norm(hat.matrix @ x - b))
    consistent = residual <= tolerance * (1.0 + float(np.linalg.norm(b)))
    kernel_dim = w.n - int(rank)
    return SolveReport(
        n=w.n,
        k=w.k,
        x=tuple(float(v) for v in x),
        residual=residual,
        kernel_dim=kernel_dim,
        unique=bool(consistent and kernel_dim == 0),
        surjectivity_possible=obstruction_check(w.n, w.k),
        consistent=bool(consistent),
        tolerance=tolerance,
    )


def kernel_basis(w: FormField, point: Sequence[float]) -> list[np.ndarray]:
    """Orthonormal basis of ker(hat map) at the point; empty iff injective."""
    hat = assemble_hatmap(w, point)
    _, sv, vh = np.linalg.svd(hat.matrix)
    cutoff = (sv[0] * RCOND) if sv.size and sv[0] > 0 else 0.0
    rank = int(np.sum(sv > cutoff))
    return [vh[i, :].copy() for i in range(rank, w.n)]
