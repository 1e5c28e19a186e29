import dataclasses
import io
import itertools
import math
import signal
from pathlib import Path

import numpy as np
import pytest

import ghm.expr as ex
from ghm.errors import InputError, IntegrationError
from ghm.expr import ScalarField
from ghm.exterior import FormField, MultiVectorField, VectorField
from ghm.dynamics import (
    CSV_CHUNK_ROWS,
    FLOW_STEPS_PER_UNIT,
    MoserProblem,
    SystemSpec,
    Trajectory,
    _numeric_flow,
    conservation_report,
    divergence,
    integrate,
    moser_residual,
    sample_box,
    stepper,
    vector_field_of,
    verify_flattening,
)
from ghm.hdw import min_norm_divergence, solve_hdw
from ghm.systems import (
    build_moser,
    flat_nambu,
    fourdim,
    moser_example_1,
    moser_example_2,
    oscillator,
    quasisymmetry,
)
from oracles import (
    csv_reference,
    reference_flow_jacobian,
    reference_integrate,
    reference_rk4_step,
    reference_rkf45_step,
)


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

    # dt = nan and, with RKF45, t_end = inf used to loop forever; the alarm
    # turns such a hang into a failure
    def hang(*_):
        raise AssertionError("integrate did not return within 10 s")

    previous = signal.signal(signal.SIGALRM, hang)
    signal.alarm(10)
    try:
        for method in ("rk4", "rkf45"):
            for bad in ({"dt": math.nan}, {"dt": math.inf}, {"t_end": math.inf},
                        {"t_end": math.nan}, {"reltol": math.nan}, {"reltol": math.inf},
                        {"reltol": 0.0}, {"reltol": -1e-9}):
                kwargs = {"t_end": 1.0, "dt": 1e-3, "method": method, **bad}
                with pytest.raises(InputError, match="need finite positive dt, t_end and reltol"):
                    integrate(osc, osc.base_point, **kwargs)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def test_an_rk4_form_step_factors_the_hat_map_four_times(monkeypatch):
    # 3 stage solves and the div column per step, 1 div at x0: the first
    # stage reads the field value of the div solve at the same state.  A
    # solve factors only a hat map not seen in the previous one: from the
    # base point p2 = q2 = 0 along the orbit, so the coefficient -2*q2 and
    # with it A never change; from an x0 with q2 != 0, A changes every solve
    import ghm.dynamics
    import ghm.hdw

    svd, min_norm, calls = np.linalg.svd, ghm.hdw._min_norm, {"svd": 0, "solve": 0}

    def counted(name, fn):
        def call(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return call

    monkeypatch.setattr(np.linalg, "svd", counted("svd", svd))
    for module in (ghm.hdw, ghm.dynamics):
        monkeypatch.setattr(module, "_min_norm", counted("solve", min_norm))
    for x0, svds in ((None, 1), ((0.1, 1.0, 1.0, 0.2, 0.3, 2.0), 41)):
        system = _bench_config("oscillator_form")
        calls.update(svd=0, solve=0)
        traj = integrate(system, x0 or system.base_point, t_end=0.01, dt=1e-3)
        assert len(traj.times) == 11
        assert calls == {"svd": svds, "solve": 41}


def test_conservation_over_moderate_horizon():
    osc = oscillator(lam=0.1)
    traj = integrate(osc, osc.base_point, t_end=10.0, dt=1e-3)
    drifts = conservation_report(traj)
    assert set(drifts) == {"H", "G1", "G2"}
    assert max(drifts.values()) <= 1e-6


def test_flat_linear_invariants_exact():
    fn = flat_nambu(3, 3)
    traj = integrate(fn, (0.0, 0.0, 0.0), t_end=2.0, dt=1e-2, method="rk4")
    drifts = conservation_report(traj)
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
    drifts = conservation_report(traj)
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


def test_a_tensor_state_compiles_its_divergence_once(monkeypatch):
    # integrate and divergence compile two bundles on a fresh spec: the field
    # (the stage function) and the row (Hamiltonians, invariants, div)
    s = quasisymmetry(bvec=("-x2", "x1", "1 + x3 + 0.2718*x1"))
    compile_, compiled = ex._compile, []

    def counted(exprs):
        compiled.append(exprs)
        return compile_(exprs)

    monkeypatch.setattr(ex, "_compile", counted)
    traj = integrate(s, s.base_point, t_end=0.01, dt=1e-3)
    assert divergence(s, s.base_point) == traj.divergences[0]
    row = tuple(h.expression for h in (*s.hamiltonians, *s.invariants.values()))
    assert compiled == [s.bracket_field.components, row + (s.bracket_field.divergence_expr(),)]


def test_a_form_state_compiles_its_hatmap_system_once(monkeypatch):
    # integrate, divergence and solve_hdw compile three bundles on a fresh
    # form-route spec: the row, the hat-map system's jet (x0's state) and its
    # values (the stages): w's coefficients, then sigma's, the jet followed by
    # their nonzero partials; no per-field function of w or sigma
    s = dataclasses.replace(oscillator(lam=0.1), mode="form")
    compile_, compiled = ex._compile, []

    def counted(exprs):
        compiled.append(exprs)
        return compile_(exprs)

    monkeypatch.setattr(ex, "_compile", counted)
    traj = integrate(s, s.base_point, t_end=0.01, dt=1e-3)
    assert divergence(s, s.base_point) == traj.divergences[0]
    solve_hdw(s.form, s.sigma(), s.base_point)  # the simulate note's solve: the same system
    both = (*s.form.coeffs.values(), *s.sigma().coeffs.values())
    row = tuple(h.expression for h in (*s.hamiltonians, *s.invariants.values()))
    partials = tuple(d for e in both for u in range(1, s.n + 1)
                     if not ex.is_zero(d := ex.differentiate(e, u)))
    assert compiled == [row, both + partials, both]
    assert not (s.form._memo.keys() | s.sigma()._memo.keys()) & {"values", "jet"}


def test_form_route_divergence_is_the_min_norm_divergence_bit_for_bit():
    for system in (oscillator(lam=0.1), quasisymmetry(bvec=("-x2", "x1", "1 + x3 + 0.3*x1"))):
        s = dataclasses.replace(system, mode="form")
        for p in sample_box(np.random.default_rng(11), s.domain, 10):
            want = min_norm_divergence(s.form, s.sigma(), p)[0]
            assert divergence(s, p).hex() == want.hex()


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


@pytest.mark.parametrize("name", ["moser1", "moser2", "shear"])
def test_variational_jacobian_is_the_derivative_of_the_discrete_flow(name):
    if name == "shear":  # a flow whose Jacobian is not symmetric
        w0 = FormField.constant(3, 2, {(1, 2): 1.0})
        X = VectorField(3, tuple(ex.parse(t, 3)
                                 for t in ("0.5*x2*x3", "sin(x1)", "0.2*x1 - x2^2")))
        m = MoserProblem("shear", 3, 2, w0, X, w0, ((-1.0, 1.0),) * 3)
    else:
        m = build_moser(name)

    def discrete_flow(q):  # the time-1 RK4 flow of X alone, step by step
        x = list(map(float, q))
        for _ in range(FLOW_STEPS_PER_UNIT):
            x = reference_rk4_step(m.X.compiled, x, 1.0 / FLOW_STEPS_PER_UNIT)
        return x

    flow = _numeric_flow(m, 1.0)
    for p in sample_box(np.random.default_rng(8), m.domain, 3):
        target, J = flow(p)
        assert target.tobytes() == np.array(discrete_flow(p)).tobytes()
        assert np.max(np.abs(J - reference_flow_jacobian(discrete_flow, p))) <= 1e-7
        if m.flow is not None:
            assert np.max(np.abs(J - m.flow(1.0).jacobian(p))) <= 1e-9


@pytest.mark.parametrize("name", ["moser1", "moser2"])
def test_numeric_flattening_is_exact_for_the_discrete_flow(name):
    m = build_moser(name)
    pts = sample_box(np.random.default_rng(9), m.domain, 4)
    assert verify_flattening(m, 1.0, pts, flow="numeric") <= 1e-11
    assert verify_flattening(m, 0.0, pts, flow="numeric") == 0.0


def test_a_step_count_beyond_an_index_is_an_input_error():
    s = flat_nambu(3, 3)
    for t_end, dt in ((1e308, 1.0), (1e300, 1e-300), (2.0 ** 64, 1.0)):
        with pytest.raises(InputError, match="needs more RK4 steps"):
            integrate(s, (0.0, 0.0, 0.0), t_end=t_end, dt=dt)
    m = moser_example_1(f=2.0)
    for t in (1e308, 1e17, float("nan")):
        with pytest.raises(InputError, match="needs more RK4 steps"):
            _numeric_flow(m, t)


def test_dependent_hamiltonians_reject_a_nan_differential():
    nan_h = ScalarField(2, ex.mul(ex.const(float("nan")), ex.Coord(2)), "H1")
    s = SystemSpec(name="nan", n=2, k=2, hamiltonians=(nan_h,),
                   tensor=MultiVectorField.constant(2, 2, {(1, 2): 1.0}))
    with pytest.raises(InputError, match="dependent"):
        s.validate()
    _flat_plane("tensor").validate()


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
        drift[dt] = max(conservation_report(traj).values())
    assert drift[0.02] / drift[0.01] >= 2 ** 3.5


# ---------------------------------------------------------------------------
# The generated steppers against the loop-form reference
# ---------------------------------------------------------------------------

def _assert_same_trajectory(got, want):
    for name in ("times", "states", "hamiltonians", "invariants", "divergences"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.shape == b.shape and a.tobytes() == b.tobytes(), name
    assert (got.invariant_names, got.truncated, got.note) == \
        (want.invariant_names, want.truncated, want.note)


def _narrow(system, half_width):
    return dataclasses.replace(
        system, domain=tuple((c - half_width, c + half_width) for c in system.base_point))


INTEGRATIONS = {
    # 12 full steps and a remainder of 5e-4
    "tensor rk4 remainder": (lambda: oscillator(lam=0.1), None, 0.0125, 1e-3, "rk4", 1e-9),
    "tensor rkf45 rejections": (lambda: oscillator(lam=0.1), None, 3.0, 0.5, "rkf45", 1e-12),
    "truncated rk4": (lambda: _narrow(oscillator(lam=0.1), 0.05), None, 1.0, 1e-3, "rk4", 1e-9),
    "truncated rkf45": (lambda: _narrow(oscillator(lam=0.1), 0.3), None, 1.0, 1e-3, "rkf45",
                        1e-13),
    "oscillator form": (lambda: dataclasses.replace(oscillator(lam=0.1), mode="form"), None,
                        0.02, 1e-3, "rk4", 1e-9),
    # a rejected step repeats the first stage at the state whose div was taken
    "form rkf45 rejections": (lambda: dataclasses.replace(oscillator(lam=0.1), mode="form"),
                              None, 0.5, 0.5, "rkf45", 1e-10),
    "flat_nambu(4,3) form": (lambda: flat_nambu(4, 3), (0.1, -0.2, 0.3, 0.4), 0.02, 1e-3,
                             "rk4", 1e-9),
    "quasisymmetry rk4": (lambda: quasisymmetry(), None, 0.05, 1e-3, "rk4", 1e-9),
    "fourdim rkf45": (lambda: fourdim(), None, 0.5, 1e-2, "rkf45", 1e-11),
    # the hat map repeats along these orbits, and never along the last one
    "fourdim form config, A repeats": (lambda: _bench_config("fourdim_form"), None, 0.3, 1e-3,
                                       "rk4", 1e-9),
    "flat_nambu(4,3) form, A repeats": (lambda: flat_nambu(4, 3), (0.1, -0.2, 0.3, 0.4), 0.15,
                                        1e-3, "rk4", 1e-9),
    "oscillator form config, A never repeats": (lambda: _bench_config("oscillator_form"),
                                                (0.1, 1.0, 1.0, 0.2, 0.3, 2.0), 0.1, 1e-3,
                                                "rk4", 1e-9),
}


def _bench_config(name):
    from ghm.cli import load_config

    return load_config(str(Path(__file__).resolve().parents[1] / "bench" / "configs"
                           / f"{name}.json"))


@pytest.mark.parametrize("case", sorted(INTEGRATIONS))
def test_integrate_is_bit_identical_to_the_loop_form(case):
    build, x0, t_end, dt, method, reltol = INTEGRATIONS[case]
    system = build()
    x0 = x0 or system.base_point
    want, rejected = reference_integrate(system, x0, t_end, dt, method, reltol)
    _assert_same_trajectory(integrate(system, x0, t_end, dt, method, reltol), want)
    if "rejections" in case:
        assert rejected > 0
    if "remainder" in case:
        assert len(want.times) == 14 and want.times[-1] - want.times[-2] < dt
    assert want.truncated == case.startswith("truncated")
    assert len(want.times) > 2


@pytest.mark.parametrize("n", range(2, 7))
def test_generated_steps_are_bit_identical_for_every_dimension(n):
    def f(x):
        return tuple(math.sin(x[(i + 1) % n]) * x[i] - 0.3 * i + x[i - 1] ** 2 for i in range(n))

    rng = np.random.default_rng(n)
    for _ in range(20):
        x = tuple(rng.uniform(-2, 2, n))
        h = float(rng.uniform(1e-4, 0.3))
        assert np.array(stepper("rk4", n)(f, x, f(x), h)).tobytes() == \
            np.array(reference_rk4_step(f, x, h)).tobytes()
        assert np.array(stepper("rkf45", n)(f, x, f(x), h)).tobytes() == \
            np.array(reference_rkf45_step(f, x, h)).tobytes()
    def staged(values):  # call i returns values[i % 6] in every component
        calls = itertools.count()
        return lambda x: (values[next(calls) % 6],) * n

    # every b*k of B4 and B5 is -0.0, so only the leading 0 makes the sums +0.0
    zeros = (-0.0, -0.0, -0.0, -0.0, 0.0, -0.0)
    # k1 reaches x4 only through its zero weight, as 0.0 * inf
    spike = (1.0, math.inf, 1.0, 1.0, 1.0, 1.0)
    for values, x in ((zeros, (-0.0,) * n), (spike, (0.5,) * n)):
        for method, reference in (("rk4", reference_rk4_step), ("rkf45", reference_rkf45_step)):
            f = staged(values)
            got = np.array(stepper(method, n)(f, x, f(x), 0.1))
            assert got.tobytes() == np.array(reference(staged(values), x, 0.1)).tobytes()
    assert stepper("rk4", n) is stepper("rk4", n)
    for route in ("tensor", "form"):
        system = dataclasses.replace(flat_nambu(n, min(n, 3)), mode=route)
        x0 = tuple(rng.uniform(-1, 1, n))
        for method in ("rk4", "rkf45"):
            want, _ = reference_integrate(system, x0, 0.05, 1e-2, method, 1e-10)
            _assert_same_trajectory(integrate(system, x0, 0.05, 1e-2, method, 1e-10), want)


def test_changing_mode_rebuilds_the_route_caches():
    x0 = (0.1, 1.0, 1.0, 0.2, 0.3, 2.0)
    s = oscillator(lam=0.1)
    tensor_run = integrate(s, x0, t_end=0.01, dt=1e-3)
    form = dataclasses.replace(s, mode="form")
    form_run = integrate(form, x0, t_end=0.01, dt=1e-3)
    fresh_form = dataclasses.replace(oscillator(lam=0.1), mode="form")
    _assert_same_trajectory(form_run, integrate(fresh_form, x0, t_end=0.01, dt=1e-3))
    assert form_run.states.tobytes() != tensor_run.states.tobytes()
    assert divergence(form, x0) == divergence(fresh_form, x0)
    _assert_same_trajectory(integrate(s, x0, t_end=0.01, dt=1e-3), tensor_run)


def test_system_spec_is_frozen():
    s = oscillator(lam=0.1)
    with pytest.raises(dataclasses.FrozenInstanceError):
        s.mode = "form"
    with pytest.raises(TypeError):
        s.invariants["x"] = s.hamiltonians[0]
    assert list(s.invariants) == ["H", "G1", "G2"]
    invariants = {"H1": s.hamiltonians[0]}
    plane = _flat_plane("tensor", invariants)
    invariants["y"] = s.hamiltonians[0]
    assert list(plane.invariants) == ["H1"]


def _flat_plane(mode, invariants=None):
    h = ScalarField(2, ex.Coord(2), "H1")
    return SystemSpec(name="plane", n=2, k=2, hamiltonians=(h,), mode=mode,
                      tensor=MultiVectorField.constant(2, 2, {(1, 2): 1.0}),
                      form=FormField.constant(2, 2, {(1, 2): 1.0}),
                      invariants=invariants or {})


@pytest.mark.parametrize("mode", ["tensor", "form"])
def test_domain_fault_in_the_diagnostics_is_an_integration_error(mode):
    # X = (+-1, 0); the invariant is defined for |x1| <= 1e-3 only, which
    # the first few steps from x1 = 5e-4 leave
    bad = ScalarField.from_text("sqrt(1e-6 - x1^2)", 2, name="bad")
    s = _flat_plane(mode, {"H1": ScalarField(2, ex.Coord(2)), "bad": bad})
    message = "^diagnostics row evaluation failed: sqrt of negative value"
    with pytest.raises(IntegrationError, match=message):
        integrate(s, (5e-4, 0.0), t_end=0.01, dt=1e-3)
    for method in ("rk4", "rkf45"):
        with pytest.raises(IntegrationError, match=message):
            reference_integrate(s, (5e-4, 0.0), 0.01, 1e-3, method)
        with pytest.raises(IntegrationError, match=message):
            integrate(s, (5e-4, 0.0), t_end=0.01, dt=1e-3, method=method)


@pytest.mark.parametrize("coefficient, hamiltonian", [
    ("sqrt(x2)", "-x2"),  # X^1 = -sqrt(x2) faults at x0; H and div (0) do not
    ("1", "log(x2)"),  # H faults at x0; the field (1, 0) does not
])
def test_a_fault_at_x0_is_an_integration_error(coefficient, hamiltonian):
    s = SystemSpec(name="x0", n=2, k=2, hamiltonians=(ScalarField.from_text(hamiltonian, 2),),
                   tensor=MultiVectorField(2, 2, {(1, 2): ex.parse(coefficient, 2)}))
    message = ("^diagnostics row evaluation failed: log of nonpositive value at node log"
               if hamiltonian == "log(x2)"
               else "^vector-field evaluation failed: sqrt of negative value at node sqrt")
    for method in ("rk4", "rkf45"):
        with pytest.raises(IntegrationError, match=message):
            integrate(s, (0.0, -1.0), t_end=0.01, dt=1e-3, method=method)
        with pytest.raises(IntegrationError, match=message):
            reference_integrate(s, (0.0, -1.0), 0.01, 1e-3, method)


def test_domain_fault_in_a_stage_is_an_integration_error():
    # X^1 = -sqrt(x1): the second RK stage from x1 = 1e-9 lands below zero
    s = SystemSpec(name="sink", n=2, k=2, hamiltonians=(ScalarField.from_text("-x2", 2),),
                   tensor=MultiVectorField(2, 2, {(1, 2): ex.parse("sqrt(x1)", 2)}))
    for method in ("rk4", "rkf45"):
        with pytest.raises(IntegrationError,
                           match="^vector-field evaluation failed: sqrt of negative value at node sqrt"):
            integrate(s, (1e-9, 0.0), t_end=0.01, dt=1e-3, method=method)
