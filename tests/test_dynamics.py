import dataclasses
import io
import math

import numpy as np
import pytest

import ghm.expr as ex
from ghm.errors import InputError, IntegrationError
from ghm.expr import ScalarField
from ghm.exterior import FormField, MultiVectorField, VectorField
from ghm.dynamics import (
    CSV_CHUNK_ROWS,
    SystemSpec,
    Trajectory,
    conservation_report,
    divergence,
    integrate,
    moser_family_residual,
    moser_residual,
    sample_box,
    vector_field_of,
    verify_flattening,
)
from ghm.systems import (
    flat_nambu,
    fourdim,
    moser_example_1,
    moser_example_2,
    oscillator,
    quasisymmetry,
)
from oracles import csv_reference


def _hori_rhs(state, lam):
    p1, q1, xi1, p2, q2, xi2 = state
    return np.array([
        -q1 - lam * xi2,
        p1,
        2 * q1 * p1,
        -q2 - 2 * lam * q1 * q2,
        p2,
        2 * q2 * p2,
    ])


def test_vector_field_oscillator_matches_displayed_equations():
    osc = oscillator(lam=0.1)
    X, info = vector_field_of(osc, (0.0, 1.0, 1.0, 0.0, 0.0, 2.0))
    assert info["route"] == "tensor"
    assert X == pytest.approx([-1.2, 0.0, 0.0, 0.0, 0.0, 0.0], abs=1e-15)
    rng = np.random.default_rng(1)
    for _ in range(20):
        s = rng.uniform(-2, 2, size=6)
        X, _ = vector_field_of(osc, s)
        assert np.allclose(X, _hori_rhs(s, 0.1), atol=1e-13)


def test_vector_field_flat_routes_and_sign():
    fn = flat_nambu(3, 3)
    Xf, info = vector_field_of(fn, (0.0, 0.0, 0.0), route="form")
    assert Xf == pytest.approx([0.0, 0.0, -1.0], abs=1e-14)
    assert info["solve_report"].unique
    Xt, _ = vector_field_of(fn, (0.0, 0.0, 0.0), route="tensor")
    assert Xt == pytest.approx([0.0, 0.0, 1.0], abs=1e-14)
    assert fn.route_sign == -1


def test_vector_field_fourdim_point():
    fd = fourdim()
    X, _ = vector_field_of(fd, (1.0, 1.0, 1.0, 2.0))
    assert X == pytest.approx([0.0, 0.5, 0.0, 0.0], abs=1e-15)


def test_route_cross_check_all_builtins():
    rng = np.random.default_rng(2)
    for system in (oscillator(), fourdim(), quasisymmetry(), flat_nambu(3, 3),
                   flat_nambu(4, 3), flat_nambu(2, 2)):
        pts = sample_box(rng, system.domain, 50)
        for p in pts:
            _, info = vector_field_of(system, p, cross_check=True)
            assert info["bracket_hdw_residual"] <= 1e-9 * (1 + np.linalg.norm(p) ** 2)
            assert info["route_disagreement"] <= 1e-9 * (1 + np.linalg.norm(p))


def test_integrate_analytic_oscillator():
    osc = oscillator(lam=0.0)
    x0 = (1.0, 0.0, 0.5, 0.0, 0.0, 1.0)  # p1=1, q1=0
    traj = integrate(osc, x0, t_end=math.pi / 2, dt=1e-3)
    q1_final = traj.states[-1, 1]
    assert abs(q1_final - 1.0) <= 1e-8
    assert traj.times[-1] == pytest.approx(math.pi / 2, abs=1e-12)


def test_integrate_rkf45_matches_analytic():
    osc = oscillator(lam=0.0)
    x0 = (1.0, 0.0, 0.5, 0.0, 0.0, 1.0)
    traj = integrate(osc, x0, t_end=math.pi / 2, dt=1e-2, method="rkf45", reltol=1e-10)
    assert abs(traj.states[-1, 1] - 1.0) <= 1e-7


def test_integrate_rejects_bad_inputs():
    osc = oscillator()
    with pytest.raises(InputError):
        integrate(osc, (99.0, 0, 0, 0, 0, 0), t_end=1.0)  # outside the box
    with pytest.raises(InputError):
        integrate(osc, (0, 0, 0), t_end=1.0)
    with pytest.raises(InputError):
        integrate(osc, osc.base_point, t_end=1.0, dt=-1e-3)
    with pytest.raises(InputError):
        integrate(osc, osc.base_point, t_end=1.0, method="euler")


def test_conservation_over_moderate_horizon():
    osc = oscillator(lam=0.1)
    traj = integrate(osc, osc.base_point, t_end=10.0, dt=1e-3)
    drifts = conservation_report(traj, osc)
    assert set(drifts) == {"H", "G1", "G2"}
    assert max(drifts.values()) <= 1e-6


def test_flat_linear_invariants_exact():
    fn = flat_nambu(3, 3)
    traj = integrate(fn, (0.0, 0.0, 0.0), t_end=2.0, dt=1e-2, method="rk4")
    drifts = conservation_report(traj, fn)
    assert max(drifts.values()) == 0.0


def test_perturbed_rhs_flagged_by_drift():
    # declare a non-invariant as an "invariant": the detector must fire
    osc = oscillator(lam=0.1)
    bad = SystemSpec(
        name="bad", n=6, k=3, hamiltonians=osc.hamiltonians, tensor=osc.tensor,
        mode="tensor", domain=osc.domain, base_point=osc.base_point,
        invariants={"q1": ScalarField(6, ex.Coord(2))},
    )
    traj = integrate(bad, osc.base_point, t_end=5.0, dt=1e-2)
    drifts = conservation_report(traj, bad)
    assert drifts["q1"] > 1e-3


def test_truncation_on_domain_exit():
    fd = fourdim()
    traj = integrate(fd, (1.0, 1.0, 1.0, 0.2), t_end=2.0, dt=1e-3)
    assert traj.truncated
    assert "domain box" in traj.note
    assert traj.states[-1, 1] <= 3.0 + 1e-6


def test_divergence_cases():
    osc = oscillator()
    assert divergence(osc, osc.base_point) == 0.0  # folds to the zero expression

    # X = x1 d_1 from J = x1 d_12, H = x2
    J = MultiVectorField(2, 2, {(1, 2): ex.Coord(1)})
    H = ScalarField(2, ex.Coord(2))
    sys2 = SystemSpec(name="lin", n=2, k=2, hamiltonians=(H,), tensor=J, mode="tensor")
    assert sys2.bracket_field.at((0.7, 0.1)) == pytest.approx([0.7, 0.0])
    assert divergence(sys2, (0.7, 0.1)) == pytest.approx(1.0)


def test_divergence_form_route_fd():
    fn = flat_nambu(3, 3)
    fn.mode = "form"
    assert abs(divergence(fn, (0.1, 0.2, 0.3))) <= 1e-9


def test_form_route_divergence_equals_tensor_route():
    # kernel_dim = 0: the minimum-norm field is the bracket field itself
    qs = quasisymmetry(bvec=("-x2", "x1", "1 + x3 + 0.3*x1"))
    qf = dataclasses.replace(qs, mode="form")
    rng = np.random.default_rng(9)
    divs = []
    for p in sample_box(rng, qs.domain, 20):
        divs.append(divergence(qs, p))
        assert abs(divergence(qf, p) - qs.route_sign * divs[-1]) <= 1e-12
    assert max(map(abs, divs)) > 0.1


def test_form_route_divergence_with_kernel_matches_central_differences():
    # the oscillator's form route (bench/configs/oscillator_form.json) has a
    # one-dimensional hat-map kernel
    osc = dataclasses.replace(oscillator(lam=0.1), mode="form")
    f = osc._compiled_eom
    rng = np.random.default_rng(10)
    for p in sample_box(rng, ((-2.0, 2.0),) * 6, 10):
        _, info = vector_field_of(osc, p)
        assert info["solve_report"].kernel_dim == 1
        fd = 0.0
        for i in range(6):
            up, um = list(p), list(p)
            up[i] += 1e-5
            um[i] -= 1e-5
            fd += (f(up)[i] - f(um)[i]) / 2e-5
        assert abs(divergence(osc, p) - fd) <= 1e-7


def test_form_route_divergence_of_inconsistent_system_raises():
    # dx1^dx2 on R^4 with H = x3: iota_X w never reaches -dx3
    s = SystemSpec(name="inconsistent", n=4, k=2, hamiltonians=(ScalarField(4, ex.Coord(3)),),
                   form=FormField.constant(4, 2, {(1, 2): 1.0}), mode="form")
    with pytest.raises(IntegrationError, match=r"at \(0\.0, 0\.0, 1\.0, 0\.0\)"):
        divergence(s, (0.0, 0.0, 1.0, 0.0))


def test_quasisymmetry_divergence_default_and_perturbed():
    qs = quasisymmetry()
    rng = np.random.default_rng(3)
    for p in sample_box(rng, qs.domain, 10):
        assert abs(divergence(qs, p)) <= 1e-10
    qs2 = quasisymmetry(bvec=("-x2", "x1", "1 + x3 + 0.3*x1"))
    divs = [abs(divergence(qs2, p)) for p in sample_box(rng, qs2.domain, 10)]
    assert max(divs) > 1e-3


def test_moser_residuals():
    rng = np.random.default_rng(4)
    m1 = moser_example_1(f=2.0)
    pts = sample_box(rng, m1.domain, 20)
    assert moser_residual(m1, pts) <= 1e-12
    m2 = moser_example_2(f=1.0, g=1.0)
    pts2 = sample_box(rng, m2.domain, 10)
    assert moser_residual(m2, pts2) <= 1e-12

    # negative control: X = x1 d_1 does not satisfy the second-order condition
    w0 = FormField.constant(2, 2, {(1, 2): 1.0})
    X = VectorField(2, (ex.Coord(1), ex.ZERO))
    bad = type(m1)(name="bad", n=2, k=2, w0=w0, X=X, w=w0,
                   domain=((-1, 1), (-1, 1)))
    assert moser_residual(bad, [(0.3, 0.4)]) == pytest.approx(1.0)


def test_moser_family_residual_time_independent_reduction():
    m1 = moser_example_1(f=2.0)
    rng = np.random.default_rng(5)
    pts = sample_box(rng, m1.domain, 10)
    res = moser_family_residual(m1.w0, lambda t: m1.X, m1.Z, 0.7, pts)
    assert res <= 1e-12


def test_verify_flattening_routes():
    m1 = moser_example_1(f=2.0)
    rng = np.random.default_rng(6)
    pts = sample_box(rng, m1.domain, 10)
    assert verify_flattening(m1, 0.0, pts) == 0.0
    closed = verify_flattening(m1, 1.0, pts)
    assert closed <= 1e-8
    numeric = verify_flattening(m1, 1.0, pts[:4], flow="numeric")
    assert numeric <= 1e-6
    assert abs(numeric - verify_flattening(m1, 1.0, pts[:4])) <= 1e-6


def test_trajectory_csv_format():
    fn = flat_nambu(3, 3)
    traj = integrate(fn, (0.0, 0.0, 0.0), t_end=0.01, dt=5e-3)
    buf = io.StringIO()
    traj.to_csv(buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "t,x1,x2,x3,H1,H2,div"
    assert len(lines) == 1 + len(traj.times)
    cells = lines[-1].split(",")
    assert len(cells) == 1 + 3 + 2 + 1
    assert float(cells[0]) == pytest.approx(0.01)

    buf2 = io.StringIO()
    traj2 = integrate(fn, (0.0, 0.0, 0.0), t_end=0.01, dt=5e-3)
    traj2.to_csv(buf2)
    assert buf.getvalue() == buf2.getvalue()


def test_trajectory_csv_matches_reference_writer():
    osc = oscillator(lam=0.1)
    form_osc = dataclasses.replace(osc, mode="form")
    trajectories = [
        integrate(osc, osc.base_point, t_end=2.5, dt=1e-3),  # spans three chunks
        integrate(osc, osc.base_point, t_end=3.0, dt=1e-2, method="rkf45", reltol=1e-10),
        integrate(form_osc, osc.base_point, t_end=0.02, dt=1e-3),
        integrate(fourdim(), (1.0, 1.0, 1.0, 0.2), t_end=2.0, dt=1e-3),  # truncated
    ]
    assert len(trajectories[0].times) > 2 * CSV_CHUNK_ROWS
    assert trajectories[-1].truncated
    special = [-0.0, 0.0, 5e-324, -2.2250738585072014e-308, 1e308, math.inf, -math.inf,
               math.nan, 0.1, -1 / 3, 123456789.0, 1e-7]
    trajectories.append(Trajectory(
        times=np.array(special), states=np.array([special[::-1], special]).T,
        hamiltonians=np.array([special]).T, invariant_names=(), invariants=np.zeros((12, 0)),
        divergences=np.array(special[3:] + special[:3])))
    for traj in trajectories:
        got, want = io.StringIO(), io.StringIO()
        traj.to_csv(got)
        csv_reference(traj, want)
        assert got.getvalue() == want.getvalue()


def test_lie_derivative_vanishes_along_solutions():
    # L_X w = 0 for the bracket field of a closed-form system
    from ghm.exterior import lie_derivative

    fd = fourdim("x1 + 0.5*x2^2")
    lw = lie_derivative(fd.bracket_field, fd.form)
    rng = np.random.default_rng(7)
    for p in sample_box(rng, fd.domain, 20):
        assert lw.at(p).max_abs() <= 1e-10


def test_sigma_annihilated_by_solutions():
    fd = fourdim("x1 + 0.5*x2^2")
    sigma = fd.sigma()
    rng = np.random.default_rng(8)
    from ghm.exterior import interior_vector

    for p in sample_box(rng, fd.domain, 20):
        X = fd.bracket_field.at(p)
        val = interior_vector(X, sigma.at(p))
        assert val.max_abs() <= 1e-12


def test_rk4_halving_order_on_oscillator():
    osc = oscillator(lam=0.1)
    drift = {}
    for dt in (0.02, 0.01):
        traj = integrate(osc, osc.base_point, t_end=10.0, dt=dt)
        drift[dt] = max(conservation_report(traj, osc).values())
    assert drift[0.02] / drift[0.01] >= 2 ** 3.5
