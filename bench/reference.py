"""Independent references for the benchmark's output checks.

Everything here is plain numpy/scipy written from the formulas in the
package documentation, never through ``ghm.expr``: the displayed oscillator
equations, closed-form invariants, the closed-form quasisymmetric rotation,
the exact minimum-norm fields of the flat and 4-dimensional form-route
fixtures, and the random quasisymmetric field family (psi and B polynomials
of the same shape as the A9 generator in ``tests/test_acceptance.py``).
"""

from __future__ import annotations

import numpy as np

LAM = 0.1
OSC_BASE = (0.0, 1.0, 1.0, 0.0, 0.0, 2.0)
QS_DOMAIN = ((0.5, 2.0), (-2.0, 2.0), (-0.2, 1.0))
QS_BASE = (1.0, 0.5, 0.3)


def sample_points(seed: int, box, count: int) -> np.ndarray:
    """The package's documented sampling convention (numpy PCG64, uniform in
    the box), regenerated here so checks can name the sampled points."""
    rng = np.random.default_rng(seed)
    lo = np.array([b[0] for b in box])
    hi = np.array([b[1] for b in box])
    return rng.uniform(size=(count, len(box))) * (hi - lo) + lo


# ---------------------------------------------------------------------------
# Coupled oscillators (n=6): states are columns p1, q1, xi1, p2, q2, xi2
# ---------------------------------------------------------------------------

def oscillator_rhs(_t, x, lam=LAM):
    p1, q1, _xi1, p2, q2, xi2 = x
    return np.array([
        -q1 - lam * xi2,
        p1,
        2 * q1 * p1,
        -q2 - 2 * lam * q1 * q2,
        p2,
        2 * q2 * p2,
    ])


def oscillator_invariants(S: np.ndarray, lam=LAM) -> dict[str, np.ndarray]:
    p1, q1, xi1, p2, q2, xi2 = S.T
    G1 = xi1 - q1 ** 2
    G2 = xi2 - q2 ** 2
    return {
        "H": (p1 ** 2 + p2 ** 2 + xi1 + xi2) / 2 + lam * q1 * xi2,
        "Htilde": (p1 ** 2 + p2 ** 2 + q1 ** 2 + q2 ** 2) / 2 + lam * q1 * xi2,
        "G1": G1,
        "G2": G2,
        "G": G1 + G2,
    }


def oscillator_gradients(x, lam=LAM) -> dict[str, np.ndarray]:
    p1, q1, _xi1, p2, q2, xi2 = x
    return {
        "Htilde": np.array([p1, q1 + lam * xi2, 0.0, p2, q2, lam * q1]),
        "G2": np.array([0.0, 0.0, 0.0, 0.0, -2 * q2, 1.0]),
    }


def oscillator_reference(x0, t_end: float) -> np.ndarray:
    """Final state of the displayed equations by DOP853 at tight tolerances."""
    from scipy.integrate import solve_ivp

    sol = solve_ivp(oscillator_rhs, (0.0, t_end), np.asarray(x0, dtype=float),
                    method="DOP853", rtol=1e-13, atol=1e-13)
    if not sol.success:
        raise RuntimeError(f"reference integration failed: {sol.message}")
    return sol.y[:, -1]


# ---------------------------------------------------------------------------
# Default quasisymmetric field: psi = x1^2 + x2^2, B = (-x2, x1, 1 + x3).
# u = grad psi x grad|B| / (B.grad|B|) = (2 x2, -2 x1, 0) / (1 + x3), a rigid
# rotation of the (x1, x2) plane at rate 2 / (1 + x3).
# ---------------------------------------------------------------------------

def qs_default_flow(x0, t: float) -> np.ndarray:
    x1, x2, x3 = x0
    w = 2.0 / (1.0 + x3)
    c, s = np.cos(w * t), np.sin(w * t)
    return np.array([x1 * c + x2 * s, -x1 * s + x2 * c, x3])


def qs_default_invariants(S: np.ndarray) -> dict[str, np.ndarray]:
    x1, x2, x3 = S.T
    return {"Psi": x1 ** 2 + x2 ** 2, "B": np.sqrt(x1 ** 2 + x2 ** 2 + (1 + x3) ** 2)}


def qs_default_field(x) -> np.ndarray:
    x1, x2, x3 = x
    return np.array([2 * x2, -2 * x1, 0.0]) / (1.0 + x3)


# ---------------------------------------------------------------------------
# Form-route fixtures with exact minimum-norm fields
# ---------------------------------------------------------------------------

def fourdim_form_field(x) -> np.ndarray:
    """iota_X (x4 dx124) = -dx1 ^ dx4 has minimum-norm solution (0, 1/x4, 0, 0)."""
    return np.array([0.0, 1.0 / x[3], 0.0, 0.0])


def flat_form_field(n: int) -> np.ndarray:
    """iota_X dx123 = -dx1 ^ dx2 has minimum-norm solution -d3."""
    X = np.zeros(n)
    X[2] = -1.0
    return X


# ---------------------------------------------------------------------------
# Random quasisymmetric fields.  Every polynomial is
#   c0 + c1 x1 + c2 x2 + c3 x3 + c4 x1 x2 + c5 x2 x3
# with coefficients printed to 6 decimals, as in the A9 generator; B1 gets
# an extra constant 1.5.
# ---------------------------------------------------------------------------

def _poly_text(c) -> str:
    return (f"{c[0]:.6f} + {c[1]:.6f}*x1 + {c[2]:.6f}*x2 + {c[3]:.6f}*x3 "
            f"+ {c[4]:.6f}*x1*x2 + {c[5]:.6f}*x2*x3")


def _poly(c, P):
    x1, x2, x3 = P.T
    value = c[0] + c[1] * x1 + c[2] * x2 + c[3] * x3 + c[4] * x1 * x2 + c[5] * x2 * x3
    grad = np.stack([c[1] + c[4] * x2, c[2] + c[4] * x1 + c[5] * x3, c[3] + c[5] * x2], axis=1)
    return value, grad


class QSField:
    """One random field: its texts for the CLI and its numpy evaluation."""

    def __init__(self, coeffs: np.ndarray):
        # the program sees the 6-decimal texts, so evaluate those exact values
        self.psi_text = _poly_text(coeffs[0])
        self.b_texts = (f"1.5 + {_poly_text(coeffs[1])}", _poly_text(coeffs[2]),
                        _poly_text(coeffs[3]))
        self.c = np.array([[float(f"{v:.6f}") for v in row] for row in coeffs])

    def evaluate(self, P) -> dict[str, np.ndarray]:
        P = np.atleast_2d(np.asarray(P, dtype=float))
        _, gpsi = _poly(self.c[0], P)
        comps = [_poly(self.c[i], P) for i in (1, 2, 3)]
        Bv = np.stack([v for v, _ in comps], axis=1)
        Bv[:, 0] += 1.5
        B = np.sqrt(np.sum(Bv ** 2, axis=1))
        gB = sum(Bv[:, [i]] * comps[i][1] for i in range(3)) / B[:, None]
        f = np.sum(Bv * gB, axis=1)
        cross = np.cross(gpsi, gB)
        return {"f": f, "cross": cross, "u": cross / f[:, None]}


MIN_F = 0.2  # |B.grad|B||, the denominator of u
MIN_CROSS = 1e-2  # |grad psi x grad|B||


def random_qs_fields(rng: np.random.Generator, count: int, screen: np.ndarray) -> list[QSField]:
    """Draw fields until ``count`` pass the screen: |B.grad|B|| >= MIN_F and
    |grad psi x grad|B|| >= MIN_CROSS at every screening point.  The screen
    keeps every field well inside the program's own validity checks."""
    out = []
    while len(out) < count:
        field = QSField(rng.uniform(-1, 1, size=(4, 6)))
        ev = field.evaluate(screen)
        if np.min(np.abs(ev["f"])) >= MIN_F and \
                np.min(np.linalg.norm(ev["cross"], axis=1)) >= MIN_CROSS:
            out.append(field)
    return out


def drift(values: np.ndarray) -> float:
    """Max relative drift |v(t) - v(0)| / (1 + |v(0)|), as the package reports it."""
    v0 = values[0]
    return float(np.max(np.abs(values - v0)) / (1.0 + abs(v0)))
