import math
import re

import numpy as np
import pytest

import ghm.expr as ex
from ghm.errors import ChartError, DualityError
from ghm.expr import ScalarField, parse
from ghm.exterior import (
    FormField,
    MultiVectorField,
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
    reduce_k_to_2,
    strong_inverse_residual,
)
from ghm.systems import fourdim, oscillator


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
    delta = Distribution(3, (_axis_field(3, 1), _axis_field(3, 2)))
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


def test_a_trial_point_whose_constraint_overflows_halves_the_newton_step():
    # from x2 = 1e4 the sigmoid's Newton step lands near x2 = -1.5e12, where
    # the 26-fold product overflows: the line search rejects that trial as
    # it rejects a larger residual, halves the step, and the solve converges;
    # another domain fault at a trial (log of a negative x2) still ends it
    from ghm.errors import EvalDomainError

    C = ScalarField.from_text("x2/sqrt(1 + x2*x2) + " + "*".join(["x2"] * 26) + "*1e-300", 2)
    with pytest.raises(EvalDomainError, match=r"^non-finite value at node x2\*x2"):
        C((0.0, -1.5e12))
    chart = LevelSetChart(constraints=(C,), values=(-0.5,), base_point=(0.0, 1e4),
                          complementary_axes=(1,))
    x = chart.embed((0.0,))
    assert abs(C(x) + 0.5) <= 1e-12
    log_chart = LevelSetChart(constraints=(ScalarField.from_text("log(x2)", 2),), values=(0.0,),
                              base_point=(0.0, 10.0), complementary_axes=(1,))
    with pytest.raises(EvalDomainError, match=r"^log of nonpositive value at node log\(x2\)$"):
        log_chart.embed((0.0,))


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


def test_a_non_finite_constraint_differential_is_named_before_lapack(capfd):
    # d/dx1 is 1e200*1e200 - 1e200*1e200, whose products overflow (a fold
    # keeps only a finite constant), so its value is NaN: LAPACK's SVD would
    # fail to converge on it, and the compiled gradient names the product first
    from ghm.errors import EvalDomainError

    C = ScalarField.from_text("x1*1e200*1e200 - x1*1e200*1e200 + x2", 3)
    with pytest.raises(EvalDomainError, match=r"^non-finite value at node 1e\+200\*1e\+200$"):
        LevelSetChart(constraints=(C,), values=(0.0,), base_point=(1.0, 0.0, 0.0))
    assert capfd.readouterr().err == ""


def test_a_singular_dependent_block_off_the_base_point_is_a_chart_error():
    # the circle's dependent axis x1 reaches d/dx1 = 2 x1 = 0 on the Newton path
    circle = LevelSetChart(constraints=(ScalarField.from_text("x1^2 + x2^2", 3),),
                           values=(1.0,), base_point=(1.0, 0.0, 0.0))
    with pytest.raises(ChartError, match=r"singular at \(0\.0, 2\.0, 0\.0\)"):
        circle.embed((2.0, 0.0))
    # x1 x3 + x2 = 0 holds where embed starts, and d/dx1 = x3 is 0 there
    chart = LevelSetChart(constraints=(ScalarField.from_text("x1*x3 + x2", 3),),
                          values=(0.0,), base_point=(0.0, 0.0, 1.0))
    assert chart.complementary_axes == (2, 3)
    with pytest.raises(ChartError, match=r"singular at \(0\.0, 0\.0, 0\.0\)"):
        chart.embedding_jacobian((0.0, 0.0))


def test_a_non_finite_pullback_jacobian_is_a_domain_error():
    # det([[nan, -0.0], [1, 0]]) reads 0.0, so the NaN minor used to drop out
    # of the sum and pull_form returned the finite {(1, 2): 1.0}
    from ghm.errors import EvalDomainError
    from ghm.exterior import FormValue, pullback_with_jacobian

    dx12_23 = FormValue(3, 2, {(1, 2): 1.0, (2, 3): 1.0})
    with pytest.raises(EvalDomainError, match=r"pullback jacobian entry \(1, 1\) is nan"):
        pullback_with_jacobian(np.array([[np.nan, -0.0], [1.0, 0.0]]), FormValue(2, 2, {(1, 2): 1.0}))
    with pytest.raises(EvalDomainError, match=r"entry \(2, 2\) is -inf"):
        pullback_with_jacobian(np.array([[1.0, 0.0], [0.0, -np.inf], [0.0, 1.0]]), dx12_23)
    # d/dx2 of the constraint is inf - inf at x3 = 1, and its compiled
    # gradient names the first node that is not finite
    C = ScalarField.from_text("x1 + x2*x3*1e200*1e200 - x2*x3*1e200*1e200", 3)
    chart = LevelSetChart(constraints=(C,), values=(0.0,), base_point=(0.0, 0.0, 0.0))
    with pytest.raises(EvalDomainError,
                       match=re.escape("non-finite value at node x3*1e+200*1e+200")):
        chart.pull_form(FormField.constant(3, 2, {(1, 2): 1.0, (2, 3): 1.0}), (0.0, 1.0))


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
# Frames
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


def test_a_nan_duality_or_kernel_defect_fails():
    # a NaN frame or tensor coefficient is named by its compiled values; a
    # product of finite values that overflows fails the duality check
    from ghm.errors import EvalDomainError

    nan = ex.const(float("nan"))
    x3 = _coord(3, 3)
    J2 = MultiVectorField.constant(3, 2, {(1, 2): 1.0})
    nan_frame = VectorField(3, (ex.ZERO, ex.ZERO, nan))
    pts = [(0.1, 0.2, 0.3)]
    with pytest.raises(EvalDomainError, match="^non-finite value at node nan$"):
        build_poisson_k(J2, [x3], [nan_frame], pts)
    with pytest.raises(EvalDomainError, match="^non-finite value at node nan$"):
        extract_omega(FormField.constant(3, 3, {(1, 2, 3): 1.0}), [nan_frame], [x3], pts)
    nan_J2 = MultiVectorField(3, 2, {(1, 2): ex.ONE, (2, 3): nan})
    with pytest.raises(EvalDomainError, match="^non-finite value at node nan$"):
        build_poisson_k(nan_J2, [x3], [_axis_field(3, 3)], pts)
    big_frame = VectorField(3, (ex.ZERO, ex.ZERO, ex.const(1e200)))
    with np.errstate(over="ignore"), pytest.raises(DualityError, match="iota_n1 dC1 = inf"):
        build_poisson_k(J2, [ScalarField.from_text("1e200*x3", 3)], [big_frame], pts)


def test_more_constraints_than_coordinates_are_typed_errors():
    Cs = [ScalarField.from_text(text, 2) for text in ("x1", "x2", "x1 + x2")]
    with pytest.raises(DualityError):
        propose_dual_frame(Cs, [(0.5, 0.5)])
    with pytest.raises(ChartError):
        LevelSetChart(tuple(Cs), (0.0, 0.0, 0.0), (0.5, 0.5))


def test_a_nan_inverse_defect_is_not_dropped():
    # the values are finite, but the defect's own arithmetic is not: along
    # the second spanning field, iota_Y w sums 1e400 and -1e400 on dx3, NaN,
    # which J carries into the defect; plain max() would keep the first
    # defect, inf (a norm of squares of 1e200)
    w = FormField.constant(3, 2, {(1, 3): 1e200, (2, 3): -1e200})
    J = MultiVectorField.constant(3, 2, {(1, 3): 1.0})
    big = VectorField(3, (ex.const(1e200), ex.const(1e200), ex.ZERO))
    delta = Distribution(3, (VectorField(3, (ex.ONE, ex.ZERO, ex.ZERO)), big))
    with np.errstate(over="ignore", invalid="ignore"):
        assert delta_inverse_residual(w, J, Distribution(3, delta.fields[:1]), [(0.1, 0.2, 0.3)]) \
            == math.inf
        assert np.isnan(delta_inverse_residual(w, J, delta, [(0.1, 0.2, 0.3)]))
