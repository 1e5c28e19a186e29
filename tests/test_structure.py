import numpy as np
import pytest

import ghm.expr as ex
from ghm.errors import ChartError, DualityError
from ghm.expr import ScalarField, parse
from ghm.exterior import (
    FormField,
    MultiVectorField,
    PointMap,
    VectorField,
    exterior_derivative,
)
from ghm.structure import (
    Distribution,
    LevelSetChart,
    build_poisson_k,
    build_w_from_omega,
    delta_inverse_residual,
    extract_omega,
    propose_dual_frame,
    rank_wrt,
    reduce_k_to_2,
    strong_inverse_residual,
    verify_flat_decomposition,
    divergence_in_chart,
)
from ghm.systems import OSCILLATOR_ALIASES, fourdim, oscillator
from oracles import reference_divergence_in_chart


def _coord(n, i, name=""):
    return ScalarField(n, ex.Coord(i), name)


def _axis_field(n, i):
    return VectorField(n, tuple(ex.ONE if j == i else ex.ZERO for j in range(1, n + 1)))


# ---------------------------------------------------------------------------
# Inverse laws
# ---------------------------------------------------------------------------

def test_strong_inverse_flat_pairs():
    pts3 = [(0.1, 0.2, 0.3)]
    w3 = FormField.constant(3, 3, {(1, 2, 3): 1.0})
    J3 = MultiVectorField.constant(3, 3, {(1, 2, 3): 1.0})
    assert strong_inverse_residual(w3, J3, pts3) == 0.0

    w2 = FormField.constant(2, 2, {(1, 2): 1.0})
    J2 = MultiVectorField.constant(2, 2, {(1, 2): 1.0})
    assert strong_inverse_residual(w2, J2, [(0.0, 0.0)]) == 0.0


def test_strong_inverse_fails_for_degenerate_form():
    # d_3 - d_4 spans ker(hat map), so for any J some basis defect is at
    # least |d_3 - d_4| / 2 = 1/sqrt(2); no strong inverse exists.
    w = FormField.constant(4, 3, {(1, 2, 3): 1.0, (1, 2, 4): 1.0})
    bound = 1.0 / np.sqrt(2.0) - 1e-12
    for J in [MultiVectorField.constant(4, 3, {(1, 2, 3): 1.0}),
              MultiVectorField.constant(4, 3, {(1, 2, 3): 0.5, (1, 2, 4): 0.5}),
              MultiVectorField.constant(4, 3, {(1, 3, 4): 2.0})]:
        assert strong_inverse_residual(w, J, [(0.0,) * 4]) >= bound


def test_delta_inverse_restriction_of_strong():
    w = FormField.constant(3, 3, {(1, 2, 3): 1.0})
    J = MultiVectorField.constant(3, 3, {(1, 2, 3): 1.0})
    delta = Distribution.spanned_by([_axis_field(3, 1), _axis_field(3, 2)])
    assert delta_inverse_residual(w, J, delta, [(0.5, 0.1, -0.3)]) == 0.0


def test_delta_inverse_fourdim_k4_construction():
    w = FormField(4, 4, {(1, 2, 3, 4): ex.Coord(4)})
    J = MultiVectorField(4, 4, {(1, 2, 3, 4): ex.div(ex.ONE, ex.Coord(4))})
    delta = Distribution.annihilating([_coord(4, 3), _coord(4, 4)])
    pts = [(0.3, 0.6, -0.4, 1.7), (1.0, -1.0, 0.5, 0.6)]
    assert delta_inverse_residual(w, J, delta, pts) <= 1e-10


def test_delta_inverse_contrast_full_tangent():
    w = FormField.constant(4, 3, {(1, 2, 3): 1.0, (1, 2, 4): 1.0})
    J = MultiVectorField.constant(4, 3, {(1, 2, 3): 1.0})
    assert delta_inverse_residual(w, J, Distribution.full(4), [(0.0,) * 4]) > 0.0


# ---------------------------------------------------------------------------
# Build / reduce / extract
# ---------------------------------------------------------------------------

def test_build_poisson_k_basic():
    J2 = MultiVectorField.constant(3, 2, {(1, 2): 1.0})
    C = _coord(3, 3)
    n1 = _axis_field(3, 3)
    J = build_poisson_k(J2, [C], [n1], [(0.2, 0.4, 0.9)])
    assert J.at((0.0, 0.0, 0.0)).coeffs == {(1, 2, 3): 1.0}


def test_build_poisson_k_oscillator_reduction_roundtrip():
    osc = oscillator()
    G = osc.extras["G"]
    J2 = osc.reduced_tensor
    n1 = _axis_field(6, 3)  # iota_{d_xi1} dG = 1
    pts = [osc.base_point, (0.3, 0.5, 0.2, 0.4, 0.1, 0.8)]
    J = build_poisson_k(J2, [G], [n1], pts)
    back = reduce_k_to_2(J, [G])
    for p in pts:
        assert (back.at(p) - J2.at(p)).max_abs() <= 1e-12


def test_build_poisson_k_duality_violation():
    J2 = MultiVectorField.constant(3, 2, {(1, 2): 1.0})
    C = _coord(3, 3)
    bad = _axis_field(3, 1)  # iota_{n1} dC = 0
    with pytest.raises(DualityError):
        build_poisson_k(J2, [C], [bad], [(0.0, 0.0, 0.0)])


def test_build_poisson_k_kernel_violation():
    J2 = MultiVectorField.constant(3, 2, {(1, 3): 1.0})
    C = _coord(3, 3)  # dC not in ker J2
    n1 = _axis_field(3, 3)
    with pytest.raises(DualityError):
        build_poisson_k(J2, [C], [n1], [(0.0, 0.0, 0.0)])


def test_reduce_examples():
    J = MultiVectorField.constant(3, 3, {(1, 2, 3): 1.0})
    out = reduce_k_to_2(J, [_coord(3, 3)])
    assert out.at((0.0,) * 3).coeffs == {(1, 2): 1.0}

    osc = oscillator()
    red = osc.reduced_tensor
    p = (0.1, 0.7, 0.2, -0.4, 1.1, 0.9)  # (p1, q1, xi1, p2, q2, xi2)
    val = red.at(p)
    assert val.coeffs[(1, 2)] == pytest.approx(1.0)
    assert val.coeffs[(1, 3)] == pytest.approx(2 * p[1])
    assert val.coeffs[(4, 5)] == pytest.approx(1.0)
    assert val.coeffs[(4, 6)] == pytest.approx(2 * p[4])

    Jc = MultiVectorField.constant(4, 3, {(1, 2, 4): 2.0})
    out = reduce_k_to_2(Jc, [_coord(4, 4)])
    assert out.at((0.0,) * 4).coeffs == {(1, 2): 2.0}


def test_build_w_from_omega_closure_dichotomy():
    x4 = ex.Coord(4)
    omega = FormField(4, 2, {(1, 2): x4, (3, 4): x4})
    w = build_w_from_omega(omega, [_coord(4, 4)])
    pts = [(0.3, 0.2, -0.5, 1.1)]
    assert exterior_derivative(w).at(pts[0]).max_abs() == 0.0
    assert exterior_derivative(omega).at(pts[0]).max_abs() == pytest.approx(1.0)


def test_build_w_closed_omega():
    omega = FormField.constant(4, 2, {(1, 2): 1.0, (3, 4): 2.0})
    C = ScalarField.from_text("x3 + x4^2", 4)
    w = build_w_from_omega(omega, [C])
    assert exterior_derivative(w).at((0.4, 0.1, 0.7, -0.2)).max_abs() <= 1e-15


def test_extract_omega_examples():
    w = FormField(4, 4, {(1, 2, 3, 4): ex.Coord(4)})
    ns = [_axis_field(4, 3), _axis_field(4, 4)]
    Cs = [_coord(4, 3), _coord(4, 4)]
    pts = [(0.3, 0.1, 0.5, 1.2)]
    omega = extract_omega(w, ns, Cs, pts)
    val = omega.at(pts[0])
    assert val.coeffs == {(1, 2): pytest.approx(1.2)}
    rebuilt = build_w_from_omega(omega, Cs)
    assert (rebuilt.at(pts[0]) - w.at(pts[0])).max_abs() <= 1e-12

    w3 = FormField.constant(3, 3, {(1, 2, 3): 1.0})
    omega3 = extract_omega(w3, [_axis_field(3, 3)])
    assert omega3.at((0.0,) * 3).coeffs == {(1, 2): 1.0}

    with pytest.raises(DualityError):
        extract_omega(w3, [_axis_field(3, 1)], [_coord(3, 3)], [(0.0,) * 3])


def test_round_trip_extract_of_built_w():
    omega = FormField(5, 2, {(1, 2): parse("1 + x5^2", 5), (3, 4): parse("x1", 5)})
    Cs = [_coord(5, 5)]
    ns = [_axis_field(5, 5)]
    w = build_w_from_omega(omega, Cs)
    back = extract_omega(w, ns, Cs, [(0.2, 0.4, 0.6, 0.8, 1.0)])
    rng = np.random.default_rng(9)
    for _ in range(10):
        p = tuple(rng.uniform(-1, 1, size=5))
        lhs = build_w_from_omega(back, Cs).at(p)
        rhs = w.at(p)
        assert (lhs - rhs).max_abs() <= 1e-10


# ---------------------------------------------------------------------------
# Level sets
# ---------------------------------------------------------------------------

def test_restrict_fourdim_exact():
    fd = fourdim()
    omega = fd.extras["omega"]
    chart = LevelSetChart(constraints=(_coord(4, 3), _coord(4, 4)),
                          values=(0.5, 2.0), base_point=(1.0, 1.0, 0.5, 2.0))
    assert chart.complementary_axes == (1, 2)
    restricted = chart.restrict_field(omega)
    assert restricted.n == 2 and restricted.k == 2
    assert restricted.at((0.3, -0.8)).coeffs == {(1, 2): pytest.approx(2.0)}
    # closure on the restricted chart
    assert exterior_derivative(restricted).at((0.3, -0.8)).max_abs() == 0.0


def test_restrict_scalar_coordinate_deletion():
    H = ScalarField.from_text("x1^2 + x2", 4)
    chart = LevelSetChart(constraints=(_coord(4, 3), _coord(4, 4)),
                          values=(0.5, 2.0), base_point=(1.0, 1.0, 0.5, 2.0))
    h = chart.restrict_field(H)
    assert h.n == 2
    assert h((1.5, 0.25)) == pytest.approx(1.5 ** 2 + 0.25)


def test_newton_chart_nonlinear_constraint():
    C = ScalarField.from_text("x3 + x1*x2 + 0.2*x3^3", 3)
    chart = LevelSetChart(constraints=(C,), values=(1.0,),
                          base_point=(0.5, 0.5, 0.5))
    u = (0.4, -0.3)
    x = chart.embed(u)
    assert x[0] == pytest.approx(0.4) and x[1] == pytest.approx(-0.3)
    assert C(x) == pytest.approx(1.0, abs=1e-12)
    # implicit-function Jacobian against finite differences of embed
    _, J = chart.embedding_jacobian(u)
    step = 1e-6
    for col in range(2):
        up = list(u)
        dn = list(u)
        up[col] += step
        dn[col] -= step
        fd = (chart.embed(up) - chart.embed(dn)) / (2 * step)
        assert np.allclose(J[:, col], fd, atol=1e-6)


def test_chart_invariant_violation():
    # dC = 0 at the base point
    C = ScalarField.from_text("x1^2 + x2^2", 2)
    with pytest.raises(ChartError):
        LevelSetChart(constraints=(C,), values=(0.0,), base_point=(0.0, 0.0))


def test_nearly_dependent_constraints_are_dependent_by_the_one_rank_rule():
    # numpy's matrix_rank counts 2 here and the dependent block's det is
    # 1e-11; hdw.numerical_rank counts 1
    Cs = (ScalarField.from_text("x1", 3), ScalarField.from_text("x1 + 1e-11*x2", 3))
    with pytest.raises(ChartError, match="dependent at the base point"):
        LevelSetChart(constraints=Cs, values=(0.0, 0.0), base_point=(0.0, 0.0, 0.0))


def test_pull_form_matches_exact_restriction():
    fd = fourdim()
    omega = fd.extras["omega"]
    chart = LevelSetChart(constraints=(_coord(4, 3), _coord(4, 4)),
                          values=(0.5, 2.0), base_point=(1.0, 1.0, 0.5, 2.0))
    exact = chart.restrict_field(omega)
    rng = np.random.default_rng(14)
    for _ in range(5):
        u = tuple(rng.uniform(-1, 1, size=2))
        assert (chart.pull_form(omega, u) - exact.at(u)).max_abs() <= 1e-12


def test_hamiltonian_flow_consistency_on_level_set():
    # restricted field and restricted 2-form satisfy the classical equation
    fd = fourdim("x1*x2 + x1^2")
    omega = fd.extras["omega"]
    X = fd.extras["X_display"]
    H = fd.hamiltonians[0]
    chart = LevelSetChart(constraints=(_coord(4, 3), _coord(4, 4)),
                          values=(0.7, 2.0), base_point=(1.0, 1.0, 0.7, 2.0))
    rng = np.random.default_rng(15)
    for _ in range(10):
        u = tuple(rng.uniform(-1, 1, size=2))
        x = chart.embed(u)
        Xv = X.at(x)[:2]
        omr = chart.pull_form(omega, u)
        lhs = np.array([-Xv[1] * omr.coeffs.get((1, 2), 0.0),
                        Xv[0] * omr.coeffs.get((1, 2), 0.0)])
        dH = chart.pull_scalar_gradient(H, u)
        assert np.allclose(lhs, -dH, atol=1e-9)


# ---------------------------------------------------------------------------
# Rank
# ---------------------------------------------------------------------------

def test_rank_wrt_fourdim():
    fd = fourdim()
    rep = rank_wrt(fd.extras["omega"], [_coord(4, 4)],
                   [(0.1, 0.2, 0.3, 0.8), (1.0, -0.5, 0.2, 2.5)])
    assert rep.rank == 2 and rep.constant_over_samples
    assert rep.corank == 1


def test_rank_wrt_oscillator_omega():
    osc = oscillator()
    omega = osc.extras["omega"]
    G2 = ScalarField.from_text("xi2 - q2^2", 6, aliases=OSCILLATOR_ALIASES)
    rep = rank_wrt(omega, [G2], [osc.base_point, (0.3, 0.1, 0.5, 0.2, 0.7, 1.0)])
    assert rep.rank == 4 and rep.constant_over_samples


def test_rank_wrt_nonconstant():
    omega = FormField(3, 2, {(1, 2): ex.Coord(1)})
    rep = rank_wrt(omega, [_coord(3, 3)], [(0.0, 0.5, 0.1), (1.0, 0.5, 0.1)])
    assert not rep.constant_over_samples
    assert rep.ranks == (0, 2)


# ---------------------------------------------------------------------------
# Frames and flat decompositions
# ---------------------------------------------------------------------------

def test_propose_dual_frame_coordinates():
    Cs = [_coord(4, 3), _coord(4, 4)]
    frame = propose_dual_frame(Cs, [(0.1, 0.2, 0.3, 0.4)])
    assert frame[0].at((0.0,) * 4) == pytest.approx([0, 0, 1, 0])
    assert frame[1].at((0.0,) * 4) == pytest.approx([0, 0, 0, 1])


def test_propose_dual_frame_rejects_shared_axis():
    Cs = [_coord(3, 3), ScalarField.from_text("2*x3", 3)]
    with pytest.raises(DualityError):
        propose_dual_frame(Cs, [(0.1, 0.2, 0.3)])


def test_verify_flat_decomposition_fourdim():
    # w = x4 dx124 equals dP^dQ^dC under (P,Q,G,C) -> (P, Q/C, G, C)
    w = FormField(4, 3, {(1, 2, 4): ex.Coord(4)})
    chart_map = PointMap(4, (ex.Coord(1), ex.div(ex.Coord(2), ex.Coord(4)),
                             ex.Coord(3), ex.Coord(4)))
    rng = np.random.default_rng(16)
    pts = [tuple(rng.uniform(0.5, 1.5, size=4)) for _ in range(10)]
    assert verify_flat_decomposition(w, chart_map, ell=1, casimir_axes=(4,),
                                     points=pts) <= 1e-9


def test_divergence_vanishes_in_flat_chart():
    fd = fourdim("x1*x2")
    X = fd.extras["X_display"]
    chart_map = PointMap(4, (ex.Coord(1), ex.div(ex.Coord(2), ex.Coord(4)),
                             ex.Coord(3), ex.Coord(4)))
    rng = np.random.default_rng(17)
    for _ in range(5):
        u = tuple(rng.uniform(0.5, 1.5, size=4))
        assert divergence_in_chart(X, chart_map, u) == 0.0


def test_divergence_in_a_nonlinear_chart_matches_central_differences():
    rng = np.random.default_rng(18)
    chart = PointMap(3, tuple(parse(t, 3) for t in
                              ("x1 + 0.3*sin(x2)", "x2*exp(0.2*x3)", "x3 + 0.1*x1^2")))
    Y = VectorField(3, tuple(parse(t, 3) for t in ("x2*x3", "sin(x1) + x3^2", "x1*x2*x3")))
    for _ in range(5):
        u = tuple(rng.uniform(0.5, 1.5, size=3))
        got = divergence_in_chart(Y, chart, u)
        assert abs(got - reference_divergence_in_chart(Y, chart, u)) <= 1e-7
        assert abs(got) > 0.1


def test_a_nan_duality_or_kernel_defect_fails():
    nan = ex.const(float("nan"))
    x3 = _coord(3, 3)
    J2 = MultiVectorField.constant(3, 2, {(1, 2): 1.0})
    nan_frame = VectorField(3, (ex.ZERO, ex.ZERO, nan))
    pts = [(0.1, 0.2, 0.3)]
    with pytest.raises(DualityError, match="iota_n1 dC1 = nan"):
        build_poisson_k(J2, [x3], [nan_frame], pts)
    with pytest.raises(DualityError, match="iota_n1 dC1 = nan"):
        extract_omega(FormField.constant(3, 3, {(1, 2, 3): 1.0}), [nan_frame], [x3], pts)
    nan_J2 = MultiVectorField(3, 2, {(1, 2): ex.ONE, (2, 3): nan})
    with pytest.raises(DualityError, match="not in ker"):
        build_poisson_k(nan_J2, [x3], [_axis_field(3, 3)], pts)


def test_more_constraints_than_coordinates_are_typed_errors():
    Cs = [ScalarField.from_text(text, 2) for text in ("x1", "x2", "x1 + x2")]
    with pytest.raises(DualityError):
        propose_dual_frame(Cs, [(0.5, 0.5)])
    with pytest.raises(ChartError):
        LevelSetChart(tuple(Cs), (0.0, 0.0, 0.0), (0.5, 0.5))


def test_a_nan_inverse_defect_is_not_dropped():
    # the second spanning field is NaN: plain max() would keep the first defect
    w = FormField.constant(2, 2, {(1, 2): 1.0})
    J = MultiVectorField.constant(2, 2, {(1, 2): 1.0})
    nan_field = VectorField(2, (ex.const(float("nan")), ex.ZERO))
    delta = Distribution.spanned_by([VectorField(2, (ex.ONE, ex.ZERO)), nan_field])
    assert np.isnan(delta_inverse_residual(w, J, delta, [(0.1, 0.2)]))
