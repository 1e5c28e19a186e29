"""Built-in systems: the coupled semiclassical oscillator pair, the
4-dimensional non-Jacobi example, quasisymmetric magnetic fields, flat
canonical fixtures, and the two flattening examples.
"""

from __future__ import annotations

import math

import numpy as np

from . import expr as ex
from .dynamics import MoserProblem, SystemSpec, sample_box
from .errors import EvalDomainError, InputError
from .expr import ScalarField
from .exterior import (
    FormField,
    MultiVectorField,
    PointMap,
    VectorField,
    hdw_vs_bracket_sign,
    iterated_interior,
    lie_derivative,
)
from .structure import build_poisson_k, build_w_from_omega, reduce_k_to_2


def _basis_vector(n: int, axis: int) -> VectorField:
    return VectorField(n, tuple(ex.ONE if i == axis else ex.ZERO
                                for i in range(1, n + 1)))


# ---------------------------------------------------------------------------
# Coupled oscillator pair (n=6, k=3)
# ---------------------------------------------------------------------------

OSCILLATOR_ALIASES = ("p1", "q1", "xi1", "p2", "q2", "xi2")


def oscillator(lam: float = 0.1) -> SystemSpec:
    """Two coupled oscillators with invariants H, G1, G2 on R^6.

    The degree-3 tensor is d_p1^d_q1^d_xi1 + d_p2^d_q2^d_xi2 with generating
    pair (G, H) -- that order makes the bracket route reproduce the equations
    of motion

        p1' = -q1 - lam xi2,  q1' = p1,  xi1' = 2 q1 p1,
        p2' = -q2 - 2 lam q1 q2,  q2' = p2,  xi2' = 2 q2 p2.

    The degree-3 form is (dp1^dq1 + dp2^dq2) ^ dG2.  Its sigma pairs G2 with
    the reduced-coordinate energy Htilde = (p1^2+p2^2+q1^2+q2^2)/2 + lam q1 xi2
    rather than H itself: H - Htilde = (G1 + G2)/2 is a combination of
    invariants, and only Htilde satisfies (iota_X omega + dHtilde) ^ dG2 = 0
    (the defect is exactly lam q1 dG2).
    """
    n = 6

    def sf(text: str, name: str) -> ScalarField:
        return ScalarField.from_text(text, n, params={"lam": lam},
                                     aliases=OSCILLATOR_ALIASES, name=name)

    H = sf("(p1^2 + p2^2 + xi1 + xi2)/2 + lam*q1*xi2", "H")
    Htilde = sf("(p1^2 + p2^2 + q1^2 + q2^2)/2 + lam*q1*xi2", "Htilde")
    G1 = sf("xi1 - q1^2", "G1")
    G2 = sf("xi2 - q2^2", "G2")
    G = sf("xi1 - q1^2 + xi2 - q2^2", "G")

    J = MultiVectorField.constant(n, 3, {(1, 2, 3): 1.0, (4, 5, 6): 1.0})
    omega = FormField.constant(n, 2, {(1, 2): 1.0, (4, 5): 1.0})
    w = build_w_from_omega(omega, [G2])

    return SystemSpec(
        name="oscillator",
        n=n,
        k=3,
        hamiltonians=(G, H),
        tensor=J,
        form=w,
        form_hamiltonians=(Htilde, G2),
        mode="tensor",
        domain=tuple((-10.0, 10.0) for _ in range(n)),
        base_point=(0.0, 1.0, 1.0, 0.0, 0.0, 2.0),
        invariants={"H": H, "G1": G1, "G2": G2},
        measure_weight=None,  # the flat phase-space volume is invariant
        reduced_tensor=reduce_k_to_2(J, [G]),
        route_sign=1,
        jacobi_label="jacobi(reduced)",
        extras={"omega": omega, "G": G},
    )


# ---------------------------------------------------------------------------
# 4-dimensional non-Jacobi system (n=4, k=3; k=4 variant when dH/dx4 = 0)
# ---------------------------------------------------------------------------

def fourdim(hamiltonian: str = "x1") -> SystemSpec:
    """Dynamics on {x4 > 0} driven by the degree-2 tensor
    (1/x4)(d_2^d_1 + d_4^d_3), which violates the Jacobi identity, yet carries
    the closed degree-3 form x4(dx12 + dx34)^dx4.

    ``hamiltonian`` must be independent of x3 (checked symbolically); when it
    is also independent of x4 the degree-4 structures are exposed in extras.
    """
    n = 4
    H = ScalarField.from_text(hamiltonian, n, name="H")
    if not ex.is_zero(H.partial(3)):
        raise InputError("fourdim requires a Hamiltonian independent of x3")

    inv_x4 = ex.div(ex.ONE, ex.Coord(4))
    J2 = MultiVectorField(n, 2, {(2, 1): inv_x4, (4, 3): inv_x4})
    omega = FormField(n, 2, {(1, 2): ex.Coord(4), (3, 4): ex.Coord(4)})
    x3 = ScalarField(n, ex.Coord(3), "x3")
    x4 = ScalarField(n, ex.Coord(4), "x4")
    w3 = build_w_from_omega(omega, [x4])
    J3 = build_poisson_k(J2, [x4], [_basis_vector(n, 4)])

    # displayed equations of motion: X = (1/x4)(H_1 d_2 - H_2 d_1 - H_4 d_3)
    X_display = iterated_interior([H], J2)
    X_display = VectorField(n, tuple(ex.neg(X_display.coeffs.get((i,), ex.ZERO))
                                     for i in range(1, n + 1)))

    extras: dict = {"omega": omega, "X_display": X_display}
    if ex.is_zero(H.partial(4)):
        extras["w4"] = build_w_from_omega(omega, [x3, x4])
        extras["J4"] = build_poisson_k(J2, [x3, x4], [_basis_vector(n, 3), _basis_vector(n, 4)])
        extras["hamiltonians4"] = (H, x3, x4)

    return SystemSpec(
        name="fourdim",
        n=n,
        k=3,
        hamiltonians=(H, x4),
        tensor=J3,
        form=w3,
        mode="tensor",
        domain=((-3.0, 3.0), (-3.0, 3.0), (-3.0, 3.0), (0.1, 5.0)),
        base_point=(1.0, 1.0, 1.0, 2.0),
        invariants={"H": H, "x4": x4},
        measure_weight=x4,
        reduced_tensor=J2,
        route_sign=1,
        jacobi_label="jacobi",
        extras=extras,
    )


# ---------------------------------------------------------------------------
# Quasisymmetric magnetic fields (n=3, k=3)
# ---------------------------------------------------------------------------

def quasisymmetry(psi: str = "x1^2 + x2^2",
                  bvec: tuple[str, str, str] = ("-x2", "x1", "1 + x3"),
                  domain: tuple[tuple[float, float], ...] = ((0.5, 2.0), (-2.0, 2.0),
                                                             (-0.2, 1.0))) -> SystemSpec:
    """The field u = grad(psi) x grad(|B|) / (B . grad|B|) as a degree-3
    system with Hamiltonians psi and |B| and structure form -(B.grad|B|) dmu.

    The default field is an algebraic testbed, not a magnetic equilibrium:
    div B = 0 is not imposed.  Denominator and cross-product nondegeneracy are
    checked on domain samples.
    """
    n = 3
    Psi = ScalarField.from_text(psi, n, name="Psi")
    Bc = tuple(ScalarField.from_text(t, n, name=f"B{i + 1}") for i, t in enumerate(bvec))
    B2 = ex.ZERO
    for c in Bc:
        B2 = ex.add(B2, ex.mul(c.expression, c.expression))
    B = ScalarField(n, ex.call("sqrt", B2), "B")

    # f = B . grad|B|
    f_expr = ex.ZERO
    for c, dB in zip(Bc, B.grad):
        f_expr = ex.add(f_expr, ex.mul(c.expression, dB))
    f = ScalarField(n, f_expr, "BgradB")

    # u = grad(psi) x grad(B) / f
    gP, gB = Psi.grad, B.grad
    cross = (
        ex.sub(ex.mul(gP[1], gB[2]), ex.mul(gP[2], gB[1])),
        ex.sub(ex.mul(gP[2], gB[0]), ex.mul(gP[0], gB[2])),
        ex.sub(ex.mul(gP[0], gB[1]), ex.mul(gP[1], gB[0])),
    )
    u = VectorField(n, tuple(ex.div(c, f_expr) for c in cross))

    w = FormField(n, 3, {(1, 2, 3): ex.neg(f_expr)})
    J = MultiVectorField(n, 3, {(1, 2, 3): ex.div(ex.ONE, f_expr)})

    rng = np.random.default_rng(0)
    screen = ex.compile_vector((f_expr, *cross))  # one bundle: the two share most nodes
    for p in sample_box(rng, domain, 40):
        try:
            fv, *cv = screen(p)
        except EvalDomainError:
            # f's lines run first, so the fault is in the cross product's own
            # nodes; a vanishing f is still the one reported
            if abs(f(p)) < 1e-6:
                raise InputError(f"B.grad|B| vanishes near {p}") from None
            raise
        if abs(fv) < 1e-6:
            raise InputError(f"B.grad|B| vanishes near {p}")
        if float(np.linalg.norm(cv)) < 1e-9:
            raise InputError(f"grad(psi) x grad|B| vanishes near {p}")

    return SystemSpec(
        name="quasisymmetry",
        n=n,
        k=3,
        hamiltonians=(Psi, B),
        tensor=J,
        form=w,
        mode="tensor",
        domain=domain,
        base_point=(1.0, 0.5, 0.3),
        invariants={"Psi": Psi, "B": B},
        measure_weight=f,
        reduced_tensor=None,
        route_sign=1,
        extras={"u": u},
    )


# ---------------------------------------------------------------------------
# Flat canonical fixtures
# ---------------------------------------------------------------------------

def flat_nambu(n: int = 3, k: int = 3) -> SystemSpec:
    """Constant structures dx^{1..k} / d_{1..k} with linear Hamiltonians
    x1..x^{k-1}.  The bracket and hat-map routes differ by the recorded
    canonical-pair sign."""
    if not (n >= k >= 2):
        raise InputError(f"need n >= k >= 2, got n={n}, k={k}")
    key = tuple(range(1, k + 1))
    w = FormField.constant(n, k, {key: 1.0})
    J = MultiVectorField.constant(n, k, {key: 1.0})
    hams = tuple(ScalarField(n, ex.Coord(i), f"x{i}") for i in range(1, k))
    reduced = reduce_k_to_2(J, hams[1:]) if k > 2 else J
    return SystemSpec(
        name="flat_nambu",
        n=n,
        k=k,
        hamiltonians=hams,
        tensor=J,
        form=w,
        mode="form",
        domain=tuple((-5.0, 5.0) for _ in range(n)),
        base_point=tuple(0.0 for _ in range(n)),
        measure_weight=None,
        reduced_tensor=reduced,
        route_sign=hdw_vs_bracket_sign(k),
        jacobi_label="jacobi(reduced)" if k > 2 else "jacobi",
    )


# ---------------------------------------------------------------------------
# Flattening examples
# ---------------------------------------------------------------------------

def _moser(name: str, k: int, w0_keys: list[tuple[int, ...]],
           blocks: list[tuple[int, int, ex.Expr, float]]) -> MoserProblem:
    """Target sum of dx^key over ``w0_keys`` on R^(2 + 2 * len(blocks)), deformed by
    X = c (d_a + d_b) per block (a, b, c = rate sqrt(x_a + x_b), rate), whose flow
    keeps x_a - x_b and moves sqrt(x_a + x_b) by rate * t."""
    n = 2 + 2 * len(blocks)
    w0 = FormField.constant(n, k, {key: 1.0 for key in w0_keys})
    comps = [ex.ZERO] * n
    for a, b, c, _ in blocks:
        comps[a - 1] = comps[b - 1] = c
    X = VectorField(n, tuple(comps))

    def flow(t: float) -> PointMap:
        if t == 0:
            return PointMap.identity(n)
        phi = [ex.Coord(i) for i in range(1, n + 1)]
        for a, b, _, rate in blocks:
            xa, xb = ex.Coord(a), ex.Coord(b)
            sq = ex.powc(ex.add(ex.call("sqrt", ex.add(xa, xb)), ex.const(rate * t)), 2)
            phi[a - 1] = ex.add(ex.div(ex.sub(xa, xb), ex.const(2.0)), ex.div(sq, ex.const(2.0)))
            phi[b - 1] = ex.add(ex.div(ex.sub(xb, xa), ex.const(2.0)), ex.div(sq, ex.const(2.0)))
        return PointMap(n, tuple(phi))

    return MoserProblem(name=name, n=n, k=k, w0=w0, X=X, w=w0 - lie_derivative(X, w0),
                        domain=((-2.0, 2.0),) * 2 + ((0.3, 3.0),) * (n - 2), flow=flow)


def moser_example_1(f: float = 2.0) -> MoserProblem:
    """Degree-3 target dx123 + dx124 on R^4 deformed by
    X = sqrt((x3+x4) f/2)(d_3 + d_4); closed-form flow available."""
    if not (math.isfinite(f) and f > 0):
        raise InputError("parameter f must be positive and finite")
    comp = ex.call("sqrt", ex.mul(ex.const(f / 2.0), ex.add(ex.Coord(3), ex.Coord(4))))
    return _moser("moser1", 3, [(1, 2, 3), (1, 2, 4)], [(3, 4, comp, float(np.sqrt(f / 2.0)))])


def moser_example_2(f: float = 1.0, g: float = 1.0) -> MoserProblem:
    """Degree-4 target dx1234 + dx1256 on R^6 deformed by
    X = f sqrt(x3+x4)(d_3+d_4) + g sqrt(x5+x6)(d_5+d_6)."""
    if not all(math.isfinite(v) and v > 0 for v in (f, g)):
        raise InputError("parameters f and g must be positive and finite")
    c34, c56 = (ex.mul(ex.const(v), ex.call("sqrt", ex.add(ex.Coord(a), ex.Coord(a + 1))))
                for v, a in ((f, 3), (g, 5)))
    return _moser("moser2", 4, [(1, 2, 3, 4), (1, 2, 5, 6)], [(3, 4, c34, f), (5, 6, c56, g)])


# ---------------------------------------------------------------------------
# Catalog
# ---------------------------------------------------------------------------

CATALOG = {
    "oscillator": (oscillator, {"lam": 0.1}),
    "fourdim": (fourdim, {"H": "x1"}),
    "quasisymmetry": (quasisymmetry, {}),
    "flat_nambu": (flat_nambu, {"n": 3, "k": 3}),
}

MOSER_CATALOG = {
    "moser1": (moser_example_1, {"f": 2.0}),
    "moser2": (moser_example_2, {"f": 1.0, "g": 1.0}),
}


SYSTEM_NOTES = {
    "oscillator": "two coupled oscillators, invariants H, G1, G2",
    "fourdim": "non-Jacobi tensor on {x4>0} with a closed degree-3 form",
    "quasisymmetry": "u = grad(psi) x grad|B| / (B.grad|B|), Hamiltonians psi, |B|",
    "flat_nambu": "constant dx^{1..k} / d_{1..k} with linear Hamiltonians",
}


def build(name: str, **kwargs) -> SystemSpec:
    if name not in CATALOG:
        raise InputError(f"unknown system {name!r}; available: {', '.join(sorted(CATALOG))}")
    builder, _ = CATALOG[name]
    system = builder(**kwargs)
    system.validate()
    return system


def build_moser(name: str, **kwargs) -> MoserProblem:
    if name not in MOSER_CATALOG:
        raise InputError(
            f"unknown flattening example {name!r}; available: {', '.join(sorted(MOSER_CATALOG))}")
    builder, _ = MOSER_CATALOG[name]
    return builder(**kwargs)
