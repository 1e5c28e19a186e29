"""Acceptance criteria, one test per item, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see every line.
All tolerances are fixed here; sampling is seeded and deterministic.
"""

import itertools

import numpy as np
import pytest

import ghm.expr as ex
from ghm.expr import ScalarField, parse
from ghm.exterior import (
    FormField,
    MultiVectorField,
    exterior_derivative,
    interior_vector_field,
)
from ghm.dynamics import (
    SystemSpec,
    conservation_report,
    divergence,
    integrate,
    moser_residual,
    sample_box,
    verify_flattening,
)
from ghm.hdw import solve_hdw
from ghm.identities import (
    extend_measure_preserving,
    fundamental_identity_residual,
    jacobi_residual,
    measure_residual,
)
from ghm.structure import (
    Distribution,
    LevelSetChart,
    build_poisson_k,
    build_w_from_omega,
    delta_inverse_residual,
    extract_omega,
    reduce_k_to_2,
    strong_inverse_residual,
)
from ghm.systems import (
    fourdim,
    moser_example_1,
    moser_example_2,
    oscillator,
    quasisymmetry,
)
from oracles import jacobi_cyclic


def _line(tag: str, ok: bool, detail: str) -> None:
    print(f"[{tag}] {'PASS' if ok else 'FAIL'}  {detail}")


def _coord(n, i):
    return ScalarField(n, ex.Coord(i))


def _axis_field(n, i):
    from ghm.exterior import VectorField

    return VectorField(n, tuple(ex.ONE if j == i else ex.ZERO for j in range(1, n + 1)))


def test_a1_oscillator_conservation():
    osc = oscillator(lam=0.1)
    x0 = (0.0, 1.0, 1.0, 0.0, 0.0, 2.0)
    traj = integrate(osc, x0, t_end=50.0, dt=1e-3, method="rk4")
    drifts = conservation_report(traj)
    worst = max(drifts.values())
    ok_bound = worst <= 1e-6

    # convergence order, measured where truncation dominates roundoff
    order_drift = {}
    for dt in (0.02, 0.01):
        tr = integrate(osc, x0, t_end=50.0, dt=dt)
        order_drift[dt] = max(conservation_report(tr).values())
    ratio = order_drift[0.02] / order_drift[0.01]
    ok_order = ratio >= 2 ** 3.5

    _line("A1", ok_bound and ok_order,
          f"drift(H)={drifts['H']:.2e} drift(G1)={drifts['G1']:.2e} "
          f"drift(G2)={drifts['G2']:.2e} (tol 1e-6); halving ratio {ratio:.1f} >= 11.3")
    assert ok_bound and ok_order


def test_a2_oscillator_bracket_equivalence():
    lam = 0.1
    osc = oscillator(lam=lam)
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(100):
        s = rng.uniform(-3, 3, size=6)
        p1, q1, xi1, p2, q2, xi2 = s
        displayed = np.array([
            -q1 - lam * xi2,
            p1,
            2 * q1 * p1,
            -q2 - 2 * lam * q1 * q2,
            p2,
            2 * q2 * p2,
        ])
        X = osc.bracket_field.at(s)
        worst = max(worst, float(np.max(np.abs(X - displayed))))
    ok = worst <= 1e-12
    _line("A2", ok, f"max componentwise deviation {worst:.2e} over 100 states (tol 1e-12)")
    assert ok


def test_a3_fundamental_identity_separation():
    osc = oscillator()
    pts = [osc.base_point, (0.4, -0.7, 0.3, 1.1, 0.2, -0.5)]
    fi = fundamental_identity_residual(osc.tensor, pts)
    jac = jacobi_residual(osc.reduced_tensor, pts)
    canon = fundamental_identity_residual(
        MultiVectorField.constant(3, 3, {(1, 2, 3): 1.0}), [(0.3, -0.2, 0.9)])
    ok = fi.max_residual >= 1.0 and fi.max_residual == pytest.approx(1.0) \
        and jac.max_residual <= 1e-12 and canon.max_residual <= 1e-12
    _line("A3", ok,
          f"oscillator FI residual {fi.max_residual:.3f} ({fi.detail}); "
          f"reduced Jacobi {jac.max_residual:.1e}; canonical FI {canon.max_residual:.1e}")
    assert ok


def test_a4_fourdim_jacobi_signed_value():
    fd = fourdim()
    J2 = fd.reduced_tensor
    worst = 0.0
    for x4, want in [(0.5, -8.0), (1.0, -1.0), (2.0, -0.125)]:
        got = jacobi_cyclic(J2, (3, 1, 2), (0.2, -0.4, 0.7, x4))
        worst = max(worst, abs(got - want))
    ok = worst <= 1e-9
    _line("A4", ok, f"signed (3,1,2) cyclic sum matches -1/x4^3 within {worst:.1e} (tol 1e-9)")
    assert ok


def test_a5_fourdim_closure_dichotomy():
    fd = fourdim()
    rng = np.random.default_rng(1)
    pts = sample_box(rng, fd.domain, 20)
    w_res = max(exterior_derivative(fd.form).at(p).max_abs() for p in pts)
    domega = exterior_derivative(fd.extras["omega"])
    coeffs = [domega.at(p).coeffs.get((1, 2, 4), 0.0) for p in pts]
    ok = w_res <= 1e-12 and all(abs(abs(c) - 1.0) <= 1e-12 for c in coeffs)
    _line("A5", ok, f"dw residual {w_res:.1e} (tol 1e-12); "
                    f"|domega_(1,2,4)| = {abs(coeffs[0]):.6f} (want 1)")
    assert ok


def test_a6_symplectic_reduction():
    fd = fourdim()
    omega = fd.extras["omega"]
    chart = LevelSetChart(constraints=(_coord(4, 3), _coord(4, 4)),
                          values=(0.5, 2.0), base_point=(1.0, 1.0, 0.5, 2.0))
    restricted = chart.restrict_field(omega)
    exact = restricted.coeffs == {(1, 2): ex.Const(2.0)}

    rng = np.random.default_rng(2)
    worst = 0.0
    for _ in range(5):
        c = rng.uniform(-1, 1, size=6)
        H = ScalarField.from_text(
            f"{c[0]:.6f}*x1 + {c[1]:.6f}*x2 + {c[2]:.6f}*x1*x2 "
            f"+ {c[3]:.6f}*x1^2 + {c[4]:.6f}*x2^2 + {c[5]:.6f}", 4)
        system = fourdim(f"{c[0]:.6f}*x1 + {c[1]:.6f}*x2 + {c[2]:.6f}*x1*x2 "
                         f"+ {c[3]:.6f}*x1^2 + {c[4]:.6f}*x2^2 + {c[5]:.6f}")
        X = system.extras["X_display"]
        for u in [tuple(rng.uniform(-1, 1, size=2)) for _ in range(10)]:
            x = chart.embed(u)
            Xv = X.at(x)
            omr = chart.pull_form(omega, u).coeffs.get((1, 2), 0.0)
            iota = np.array([Xv[0] * omr, -Xv[1] * omr])  # against dx2, dx1
            dH = chart.pull_scalar_gradient(H, u)
            resid = np.array([iota[1] + dH[0], iota[0] + dH[1]])
            worst = max(worst, float(np.max(np.abs(resid))))
    ok = exact and worst <= 1e-9
    _line("A6", ok, f"restricted form = 2 dx12 exactly: {exact}; "
                    f"iota_X omega~ + dH~ residual {worst:.1e} (tol 1e-9)")
    assert ok


def test_a7_moser_flattening():
    m1 = moser_example_1(f=2.0)
    rng = np.random.default_rng(3)
    pts = [p for p in sample_box(rng, m1.domain, 80) if p[2] + p[3] >= 0.1][:50]
    assert len(pts) == 50
    closed = verify_flattening(m1, 1.0, pts, flow="closed")
    numeric = verify_flattening(m1, 1.0, pts[:10], flow="numeric")
    res1 = moser_residual(m1, pts)
    m2 = moser_example_2(f=1.0, g=1.0)
    pts2 = sample_box(rng, m2.domain, 20)
    res2 = moser_residual(m2, pts2)
    ok = closed <= 1e-8 and numeric <= 1e-6 and res1 <= 1e-12 and res2 <= 1e-12
    _line("A7", ok, f"pullback closed {closed:.1e} (tol 1e-8), numeric {numeric:.1e} "
                    f"(tol 1e-6); second-order residuals {res1:.1e}, {res2:.1e} (tol 1e-12)")
    assert ok


def test_a8_dimensional_obstruction():
    w = FormField.constant(4, 3, {(1, 2, 3): 1.0, (1, 2, 4): 1.0})
    rng = np.random.default_rng(0)
    keys = list(itertools.combinations(range(1, 5), 2))
    residuals = []
    for _ in range(100):
        sigma = FormField.constant(4, 2, {key: float(rng.standard_normal()) for key in keys})
        residuals.append(solve_hdw(w, sigma, (0.0,) * 4).residual)
    decomposable = solve_hdw(w, FormField.constant(4, 2, {(1, 2): 1.0}), (0.0,) * 4)
    ok = min(residuals) >= 0.1 and decomposable.residual <= 1e-12 and decomposable.consistent
    _line("A8", ok, f"min residual over 100 random sigma = {min(residuals):.3f} (>= 0.1); "
                    f"decomposable sigma residual {decomposable.residual:.1e} (tol 1e-12)")
    assert ok


def _random_qs_fields(rng):
    def poly():
        c = rng.uniform(-1, 1, size=6)
        return (f"{c[0]:.6f} + {c[1]:.6f}*x1 + {c[2]:.6f}*x2 + {c[3]:.6f}*x3 "
                f"+ {c[4]:.6f}*x1*x2 + {c[5]:.6f}*x2*x3")

    return poly(), (f"1.5 + {poly()}", poly(), poly())


def test_a9_quasisymmetry_identity_chain():
    rng = np.random.default_rng(4)
    systems = [quasisymmetry()]
    attempts = 0
    while len(systems) < 21 and attempts < 500:
        attempts += 1
        psi, bvec = _random_qs_fields(rng)
        try:
            qs = quasisymmetry(psi=psi, bvec=bvec)
        except Exception:
            continue
        f = qs.measure_weight
        pts = sample_box(np.random.default_rng(5), qs.domain, 30)
        if min(abs(f(p)) for p in pts) < 0.1:
            continue
        systems.append(qs)
    assert len(systems) == 21

    worst_chain = worst_orth = worst_measure = 0.0
    for qs in systems:
        u = qs.extras["u"]
        sigma = qs.sigma()
        iw = interior_vector_field(u, qs.form)
        pts = sample_box(np.random.default_rng(6), qs.domain, 20)
        for p in pts:
            worst_chain = max(worst_chain, (iw.at(p) + sigma.at(p)).max_abs())
            uv = u.at(p)
            worst_orth = max(worst_orth,
                             abs(float(np.dot(uv, qs.hamiltonians[0].gradient(p)))),
                             abs(float(np.dot(uv, qs.hamiltonians[1].gradient(p)))))
        worst_measure = max(worst_measure,
                            measure_residual(qs.tensor, qs.measure_weight, pts).max_residual)
    ok = worst_chain <= 1e-10 and worst_orth <= 1e-12 and worst_measure <= 1e-12
    _line("A9", ok, f"iota_u w + dPsi^dB residual {worst_chain:.1e} (tol 1e-10); "
                    f"u.grad residual {worst_orth:.1e} (tol 1e-12); "
                    f"measure residual {worst_measure:.1e} (tol 1e-12) over 21 fields")
    assert ok


def test_a10_inverse_laws_and_round_trips():
    pts3 = [(0.2, -0.3, 0.5)]
    strong = strong_inverse_residual(
        FormField.constant(3, 3, {(1, 2, 3): 1.0}),
        MultiVectorField.constant(3, 3, {(1, 2, 3): 1.0}), pts3)

    w4 = FormField(4, 4, {(1, 2, 3, 4): ex.Coord(4)})
    J4 = MultiVectorField(4, 4, {(1, 2, 3, 4): ex.div(ex.ONE, ex.Coord(4))})
    delta = Distribution.annihilating([_coord(4, 3), _coord(4, 4)])
    rng = np.random.default_rng(7)
    pts4 = [(p[0], p[1], p[2], abs(p[3]) + 0.5) for p in sample_box(
        rng, ((-2, 2),) * 4, 20)]
    weak = delta_inverse_residual(w4, J4, delta, pts4)

    # round trips on 50 sampled points
    osc = oscillator()
    pts6 = sample_box(rng, ((-2, 2),) * 6, 50)
    G = osc.extras["G"]
    J = build_poisson_k(osc.reduced_tensor, [G], [_axis_field(6, 3)], pts6[:5])
    worst_reduce = max((reduce_k_to_2(J, [G]).at(p) - osc.reduced_tensor.at(p)).max_abs()
                       for p in pts6)

    omega = FormField(5, 2, {(1, 2): parse("1 + x5^2", 5), (3, 4): parse("x1", 5)})
    C5 = [_coord(5, 5)]
    w5 = build_w_from_omega(omega, C5)
    back = extract_omega(w5, [_axis_field(5, 5)], C5, sample_box(rng, ((-2, 2),) * 5, 5))
    worst_extract = 0.0
    for p in sample_box(rng, ((-2, 2),) * 5, 50):
        lhs = build_w_from_omega(back, C5).at(p)
        worst_extract = max(worst_extract, (lhs - w5.at(p)).max_abs())

    ok = strong == 0.0 and weak <= 1e-10 and worst_reduce <= 1e-10 and worst_extract <= 1e-10
    _line("A10", ok, f"strong inverse {strong:.1e} (want 0); delta inverse {weak:.1e} "
                     f"(tol 1e-10); reduce round-trip {worst_reduce:.1e}; "
                     f"extract round-trip {worst_extract:.1e} (tol 1e-10)")
    assert ok


def test_a11_measure_extension():
    J = MultiVectorField(3, 3, {(1, 2, 3): ex.Coord(1)})
    E = extend_measure_preserving(J)
    rng = np.random.default_rng(8)
    pts4 = sample_box(rng, ((0.2, 2),) * 4, 20)
    m_res = measure_residual(E, 1.0, pts4).max_residual

    H3, C3 = _coord(3, 2), _coord(3, 3)
    H4, C4 = _coord(4, 2), _coord(4, 3)
    sys3 = SystemSpec(name="j3", n=3, k=3, hamiltonians=(H3, C3), tensor=J,
                      mode="tensor", domain=((0.1, 5),) * 3, base_point=(1.0, 1.0, 1.0))
    sys4 = SystemSpec(name="j4", n=4, k=3, hamiltonians=(H4, C4), tensor=E,
                      mode="tensor", domain=((0.1, 5),) * 3 + ((-5.0, 5.0),),
                      base_point=(1.0, 1.0, 1.0, 1.0))

    x0 = (1.0, 1.0, 1.0)
    t3 = integrate(sys3, x0, t_end=1.0, dt=1e-3)
    t4 = integrate(sys4, x0 + (0.8,), t_end=1.0, dt=1e-3)
    flow_dev = float(np.max(np.abs(t4.states[:, :3] - t3.states)))

    worst_last = 0.0
    for row in range(0, len(t4.times), 100):
        s4 = t4.states[row]
        X4 = sys4.bracket_field.at(s4)
        div3 = divergence(sys3, s4[:3])
        worst_last = max(worst_last, abs(X4[3] - (-s4[3] * div3)))

    ok = m_res <= 1e-12 and flow_dev <= 1e-9 and worst_last <= 1e-9
    _line("A11", ok, f"extension measure residual {m_res:.1e} (tol 1e-12); "
                     f"first-3 flow deviation {flow_dev:.1e} (tol 1e-9); "
                     f"x4' + x4 div X residual {worst_last:.1e} (tol 1e-9)")
    assert ok
