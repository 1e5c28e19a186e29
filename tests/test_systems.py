import numpy as np
import pytest

import ghm.expr as ex
from ghm.errors import EvalDomainError, InputError
from ghm.expr import evaluate, parse
from ghm.exterior import interior_vector_field
from ghm.dynamics import conservation_report, integrate, sample_box, vector_field_of
from ghm.hdw import obstruction_check, solve_hdw
from ghm.identities import jacobi_residual, measure_residual
from ghm.systems import (
    CATALOG,
    build,
    build_moser,
    flat_nambu,
    fourdim,
    moser_example_1,
    moser_example_2,
    oscillator,
    quasisymmetry,
)


def test_every_builtin_validates():
    for name in CATALOG:
        system = build(name)
        system.validate()


def test_oscillator_w_is_closed_and_sigma_consistent():
    osc = oscillator()
    osc.validate()
    # form-route sigma is solved by the bracket field at random states
    rng = np.random.default_rng(21)
    sigma = osc.sigma()
    for p in sample_box(rng, osc.domain, 10):
        X = osc.bracket_field.at(p)
        resid = interior_vector_field(osc.bracket_field, osc.form).at(p) + sigma.at(p)
        assert resid.max_abs() <= 1e-9 * (1 + float(np.max(np.abs(p))) ** 3)
        assert np.isfinite(X).all()


def test_oscillator_invariants_conserved():
    osc = oscillator(lam=0.1)
    traj = integrate(osc, osc.base_point, t_end=20.0, dt=1e-3)
    drifts = conservation_report(traj)
    assert drifts["H"] <= 1e-7
    assert drifts["G1"] <= 1e-7
    assert drifts["G2"] <= 1e-7


def test_oscillator_aliases_parse():
    e = parse("p1 + xi2", 6, aliases=("p1", "q1", "xi1", "p2", "q2", "xi2"))
    assert evaluate(e, (1, 0, 0, 0, 0, 2)) == 3.0


def test_fourdim_rejects_x3_dependence():
    with pytest.raises(InputError):
        fourdim("x1 + x3")


def test_fourdim_display_field():
    fd = fourdim("x1^2 + x2*x4")
    X = fd.extras["X_display"]
    p = (0.5, -0.3, 0.7, 2.0)
    x4 = p[3]
    H1 = 2 * p[0]
    H2 = p[3]
    H4 = p[1]
    want = np.array([-H2 / x4, H1 / x4, -H4 / x4, 0.0])
    assert X.at(p) == pytest.approx(want)


def test_fourdim_k4_extras_only_without_x4_dependence():
    fd = fourdim("x1")
    assert "w4" in fd.extras and "J4" in fd.extras
    fd2 = fourdim("x1 + x4")
    assert "w4" not in fd2.extras
    # J4 is (1/x4) d_1234 and w4 = x4 dx1234
    J4 = fd.extras["J4"]
    w4 = fd.extras["w4"]
    p = (0.0, 0.0, 0.0, 2.0)
    assert J4.at(p).coeffs == {(1, 2, 3, 4): pytest.approx(0.5)}
    assert w4.at(p).coeffs == {(1, 2, 3, 4): pytest.approx(2.0)}


def test_fourdim_k4_route_consistency():
    fd = fourdim("x1 - 0.5*x2")
    w4, J4 = fd.extras["w4"], fd.extras["J4"]
    hams = fd.extras["hamiltonians4"]
    from ghm.dynamics import SystemSpec

    sys4 = SystemSpec(name="fourdim-k4", n=4, k=4, hamiltonians=hams,
                      tensor=J4, form=w4, mode="tensor", domain=fd.domain,
                      base_point=fd.base_point)
    rng = np.random.default_rng(22)
    for p in sample_box(rng, fd.domain, 10):
        _, info = vector_field_of(sys4, p, cross_check=True)
        assert info["bracket_hdw_residual"] <= 1e-10
        assert info["route_disagreement"] <= 1e-10


def test_fourdim_jacobi_value():
    fd = fourdim()
    rep = jacobi_residual(fd.reduced_tensor, [(0.0, 0.0, 0.0, 1.0)])
    assert rep.max_residual == pytest.approx(1.0, rel=1e-12)


def test_quasisymmetry_default_denominator():
    qs = quasisymmetry()
    B = qs.hamiltonians[1]
    f = qs.measure_weight
    rng = np.random.default_rng(23)
    for p in sample_box(rng, qs.domain, 20):
        want = (1 + p[2]) ** 2 / B(p)
        assert f(p) == pytest.approx(want, rel=1e-12)


def test_quasisymmetry_screens_with_one_compiled_bundle(monkeypatch):
    # the denominator f = B.grad|B| and the cross product grad(psi) x grad|B|
    # share most nodes, so the 40-sample screen compiles them together
    compile_, compiled = ex._compile, []

    def counted(exprs):
        compiled.append(exprs)
        return compile_(exprs)

    monkeypatch.setattr(ex, "_compile", counted)
    qs = quasisymmetry(bvec=("-x2", "x1", "1 + x3 + 0.2817*x1"))
    f_expr = qs.measure_weight.expression
    cross = tuple(c.a for c in qs.extras["u"].components)  # u = cross / f
    assert compiled == [(f_expr, *cross)]


def test_quasisymmetry_reports_a_vanishing_denominator_before_a_cross_product_fault():
    # at x1 = 0, d sqrt(x1) divides by zero, and only the cross product holds it
    domain = ((0.0, 0.0), (-1.0, 1.0), (-1.0, 1.0))
    with pytest.raises(InputError, match=r"B\.grad\|B\| vanishes near \(0\.0, "):
        quasisymmetry(psi="sqrt(x1) + x2", bvec=("x1", "1", "x1*x2"), domain=domain)
    with pytest.raises(EvalDomainError) as err:  # f = |B| does not vanish there
        quasisymmetry(psi="sqrt(x1) + x2", bvec=("x1 + 1", "x2", "0"), domain=domain)
    assert err.value.node == "1.0/(2.0*sqrt(x1))"


def test_quasisymmetry_identity_chain_default():
    qs = quasisymmetry()
    u = qs.extras["u"]
    sigma = qs.sigma()
    iw = interior_vector_field(u, qs.form)
    rng = np.random.default_rng(24)
    for p in sample_box(rng, qs.domain, 50):
        resid = iw.at(p) + sigma.at(p)
        assert resid.max_abs() <= 1e-10
        gP = np.array(qs.hamiltonians[0].gradient(p))
        gB = np.array(qs.hamiltonians[1].gradient(p))
        uv = u.at(p)
        assert abs(np.dot(uv, gP)) <= 1e-12
        assert abs(np.dot(uv, gB)) <= 1e-12


def _random_poly_field(rng, n):
    coeffs = rng.uniform(-1, 1, size=7)
    text = (f"{coeffs[0]:.6f} + {coeffs[1]:.6f}*x1 + {coeffs[2]:.6f}*x2 "
            f"+ {coeffs[3]:.6f}*x3 + {coeffs[4]:.6f}*x1*x2 "
            f"+ {coeffs[5]:.6f}*x2*x3 + {coeffs[6]:.6f}*x1^2")
    return text


def test_quasisymmetry_chain_with_random_fields():
    rng = np.random.default_rng(25)
    built = 0
    attempts = 0
    while built < 5 and attempts < 200:
        attempts += 1
        psi = _random_poly_field(rng, 3)
        bvec = ("1.5 + " + _random_poly_field(rng, 3),
                _random_poly_field(rng, 3),
                _random_poly_field(rng, 3))
        try:
            qs = quasisymmetry(psi=psi, bvec=bvec)
        except InputError:
            continue
        built += 1
        u = qs.extras["u"]
        sigma = qs.sigma()
        iw = interior_vector_field(u, qs.form)
        for p in sample_box(np.random.default_rng(26), qs.domain, 10):
            assert (iw.at(p) + sigma.at(p)).max_abs() <= 1e-10
    assert built == 5


def test_quasisymmetry_measure_weight():
    qs = quasisymmetry()
    rng = np.random.default_rng(27)
    rep = measure_residual(qs.tensor, qs.measure_weight, sample_box(rng, qs.domain, 20))
    assert rep.max_residual <= 1e-12


def test_flat_nambu_cases():
    fn33 = flat_nambu(3, 3)
    rep = solve_hdw(fn33.form, fn33.sigma(), (0.0, 0.0, 0.0))
    assert rep.x == pytest.approx((0.0, 0.0, -1.0))

    fn22 = flat_nambu(2, 2)
    rep22 = solve_hdw(fn22.form, fn22.sigma(), (0.3, 0.4))
    assert rep22.unique and rep22.consistent

    fn43 = flat_nambu(4, 3)
    assert obstruction_check(4, 3) is False
    rep43 = solve_hdw(fn43.form, fn43.sigma(), (0.0,) * 4)
    assert rep43.consistent and rep43.residual <= 1e-12

    with pytest.raises(InputError):
        flat_nambu(2, 3)


def test_moser_examples_displayed_deformations():
    m1 = moser_example_1(f=2.0)
    # w = w0 - (1/sqrt(x3+x4)) (dx123 + dx124)
    for p in [(0.1, 0.2, 0.5, 0.5), (0.0, 0.0, 1.1, 0.7)]:
        s = p[2] + p[3]
        val = m1.w.at(p)
        want = 1.0 - 1.0 / np.sqrt(s)
        assert val.coeffs.get((1, 2, 3), 0.0) == pytest.approx(want, rel=1e-12)
        assert val.coeffs.get((1, 2, 4), 0.0) == pytest.approx(want, rel=1e-12)

    m2 = moser_example_2(f=1.0, g=1.0)
    for p in [(0.0, 0.0, 0.5, 0.7, 0.9, 0.4)]:
        val = m2.w.at(p)
        assert val.coeffs.get((1, 2, 3, 4), 0.0) == pytest.approx(
            1.0 - 1.0 / np.sqrt(p[2] + p[3]), rel=1e-12)
        assert val.coeffs.get((1, 2, 5, 6), 0.0) == pytest.approx(
            1.0 - 1.0 / np.sqrt(p[4] + p[5]), rel=1e-12)


def test_moser_positivity_required():
    with pytest.raises(InputError):
        moser_example_1(f=-1.0)
    with pytest.raises(InputError):
        moser_example_2(f=0.0, g=1.0)
    with pytest.raises(InputError):
        build_moser("nope")


def test_build_unknown_system():
    with pytest.raises(InputError):
        build("unknown")
