import dataclasses
import io
import itertools
import math
import re
import signal
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import ghm.expr as ex
from ghm.errors import DimensionError, ExprDepthError, GhmError, InputError, IntegrationError
from ghm.expr import ScalarField
from ghm.exterior import FormField, MultiVectorField, PointMap, VectorField
from ghm.dynamics import (
    CSV_CHUNK_ROWS,
    FLOW_STEPS_PER_UNIT,
    VALIDATE_SAMPLES,
    MoserProblem,
    SystemSpec,
    Trajectory,
    conservation_report,
    divergence,
    integrate,
    moser_residual,
    sample_box,
    variational_flow,
    vector_field_of,
    verify_flattening,
)
from ghm import identities, rk4
from ghm.hdw import min_norm_divergence, solve_hdw
from ghm.identities import closure_residual, closure_scan
from ghm.systems import (
    build_moser,
    flat_nambu,
    fourdim,
    moser_example_1,
    moser_example_2,
    oscillator,
    quasisymmetry,
)
import oracles
from oracles import (
    _sum311,
    csv_reference,
    reference_flow_jacobian,
    reference_integrate,
    reference_rk4_step,
    reference_rkf45_step,
    reference_variational_flow,
    reference_verify_flattening,
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
    # 3 stage solves and the div column per step, 1 div at x0 and x0's
    # kernel solve before the loop: the first stage reads the field value of
    # the div solve at the same state.  A solve factors only a hat map not
    # seen in the previous one: from the base point p2 = q2 = 0 along the
    # orbit, so the coefficient -2*q2 and with it A never change; from an x0
    # with q2 != 0, A changes every solve but x0's second
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
        assert calls == {"svd": svds, "solve": 42}


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
    f = lambda x: vector_field_of(osc, x)[0]  # the minimum-norm solution
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
    # integrate writes the row and the field into its loop, and divergence
    # compiles one bundle on a fresh spec: the row (Hamiltonians,
    # invariants, div)
    s = quasisymmetry(bvec=("-x2", "x1", "1 + x3 + 0.2718*x1"))
    compile_, compiled = ex._compile, []

    def counted(exprs):
        compiled.append(exprs)
        return compile_(exprs)

    monkeypatch.setattr(ex, "_compile", counted)
    traj = integrate(s, s.base_point, t_end=0.01, dt=1e-3)
    assert divergence(s, s.base_point) == traj.divergences[0]
    row = tuple(h.expression for h in (*s.hamiltonians, *s.invariants.values()))
    assert compiled == [row + (s.bracket_field.divergence_expr(),)]


def test_a_form_state_compiles_its_hatmap_system_once(monkeypatch):
    # integrate, divergence and solve_hdw compile two bundles on a fresh
    # form-route spec, the row being written into integrate's loop: the
    # hat-map system's values (x0's kernel solve, then the stages) and its
    # jet (the accepted states): w's coefficients, then sigma's, the jet
    # followed by their nonzero partials; no per-field function of w or sigma
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
    partials = tuple(d for e in both for u in range(1, s.n + 1)
                     if not ex.is_zero(d := ex.differentiate(e, u)))
    assert compiled == [both, both + partials]
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
    bad = type(m1)(name="bad", n=2, w0=w0, X=X, w=w0,
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
        m = MoserProblem("shear", 3, w0, X, w0, ((-1.0, 1.0),) * 3)
    else:
        m = build_moser(name)

    def discrete_flow(q):  # the time-1 RK4 flow of X alone, step by step
        x = list(map(float, q))
        for _ in range(FLOW_STEPS_PER_UNIT):
            x = reference_rk4_step(m.X.compiled, x, 1.0 / FLOW_STEPS_PER_UNIT)
        return x

    flow = variational_flow(m.X, 1.0)
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


_FLOW_CONSTANTS = (0.0, -0.0, 0.1, 1.5, 2.0 ** 53, math.inf, math.nan)
_FLOW_TEXTS = ("x{0}*x{1}", "sqrt(x{0})", "log(x{0} + 3)", "1/x{0}", "sin(x{0}) - 0.5*x{1}",
               "x{0}^3 - x{1}", "exp(x{0})", "x{0}", "-x{1}", "x{0}^(1/2)", "cos(x{0}*x{1})")
_FLOW_COORDS = st.one_of(st.sampled_from((0.0, -0.0, 0.5, -1.0)), st.floats(-2.0, 2.0))


def _flow_outcome(flow, p):
    """The float.hex of the target and J, or the error type and message."""
    try:
        target, J = flow(p)
    except GhmError as exc:
        return type(exc).__name__, str(exc)
    return J.shape, [v.hex() for v in (*target.tolist(), *J.ravel().tolist())]


@settings(max_examples=150, deadline=None, derandomize=True)
@given(data=st.data())
def test_the_generated_flow_is_the_step_by_step_flow(data):
    # variational_flow against the former loop of one compiled bundle and one
    # stepper call per step: the same float.hex target and J, or the same
    # error, on the Moser fields and on drawn fields of n = 1..4 whose
    # constant components (+-0.0, 1.5, 2^53, inf, NaN) share one code
    kind = data.draw(st.sampled_from(("moser1", "moser2", 1, 2, 3, 4)), label="field")
    if isinstance(kind, str):
        params = {"f": data.draw(st.sampled_from((0.5, 2.0, 7.3)), label="f")}
        if kind == "moser2":
            params["g"] = data.draw(st.sampled_from((0.5, 1.0, 3.0)), label="g")
        X = build_moser(kind, **params).X
    else:
        comps = []
        for i in range(kind):
            if data.draw(st.booleans(), label=f"constant {i}"):
                comps.append(ex.const(data.draw(st.sampled_from(_FLOW_CONSTANTS), label="c")))
            else:
                axes = [data.draw(st.integers(1, kind), label="axis") for _ in range(2)]
                text = data.draw(st.sampled_from(_FLOW_TEXTS), label=f"text {i}")
                comps.append(ex.parse(text.format(*axes), kind))
        if kind > 1 and data.draw(st.booleans(), label="read constant"):
            # a constant component whose coordinate the body reads
            comps[0] = ex.const(data.draw(st.sampled_from(_FLOW_CONSTANTS), label="c0"))
            comps[1] = ex.parse("x1*x2 - sin(x1)", kind)
        X = VectorField(kind, tuple(comps))
    t = data.draw(st.sampled_from((0.0, 1 / 512, -1 / 512, 0.3, 1.0, -1.0)), label="t")
    points = [tuple(data.draw(_FLOW_COORDS, label="x") for _ in range(X.n))
              for _ in range(data.draw(st.integers(1, 2), label="points"))]
    got, want = variational_flow(X, t), reference_variational_flow(X, t)
    for p in points:
        assert _flow_outcome(got, p) == _flow_outcome(want, p)


# X = (x2, -1, g(x1)) with h = 2^-9: the stage points of x1 are x1 + h/2 x2,
# x1 + h/2 (x2 - h/2) and x1 + h (x2 - h/2), so each start below makes g
# fault first in the given stage (1-based) of the given step
_LATE_FAULTS = [
    ("sqrt(x1)", (2.0 ** -10 - 2.0 ** -30, -1.0), 2, 0, "sqrt of negative value"),
    ("sqrt(x1)", (2.0 ** -21, 0.0), 3, 0, "sqrt of negative value"),
    ("sqrt(x1)", (2.0 ** -9 + 2.0 ** -19 - 2.0 ** -40, -1.0), 4, 0, "sqrt of negative value"),
    ("sqrt(x1)", (3.4 * 2.0 ** -9, -1.0), 2, 3, "sqrt of negative value"),
    ("log(x1)", (2.0 ** -10, -1.0), 2, 0, "log of nonpositive value"),
    ("log(x1)", (2.0 ** -20, 0.0), 3, 0, "log of nonpositive value"),
    ("log(x1)", (2.0 ** -9 + 2.0 ** -19, -1.0), 4, 0, "log of nonpositive value"),
    ("1/x1", (2.0 ** -10, -1.0), 2, 0, "division by zero"),
    ("1/x1", (2.0 ** -20, 0.0), 3, 0, "division by zero"),
    ("1/x1", (2.0 ** -9 + 2.0 ** -19, -1.0), 4, 0, "division by zero"),
]


@pytest.mark.parametrize("text, start, stage, step, message", _LATE_FAULTS)
def test_a_fault_in_a_later_stage_names_the_node_and_time_of_the_loop(
        monkeypatch, text, start, stage, step, message):
    X = VectorField(3, (ex.Coord(2), ex.const(-1.0), ex.parse(text, 3)))
    p = (*start, 0.25)
    calls = itertools.count(1)
    compile_bundle = oracles.unguarded_compile

    def counted(exprs):  # the loop's bundle, counting its calls
        f = compile_bundle(exprs)
        return lambda y: (next(calls), f(y))[1]

    monkeypatch.setattr(oracles, "unguarded_compile", counted)
    with pytest.raises(IntegrationError) as want:
        reference_variational_flow(X, 1.0)(p)
    monkeypatch.undo()
    made = next(calls) - 1  # the faulting call included
    assert (made - 1) // 4 == step and (made - 1) % 4 + 1 == stage
    with pytest.raises(IntegrationError) as got:
        variational_flow(X, 1.0)(p)
    assert str(got.value) == str(want.value)
    assert f"at flow time {step / 512:.6g}: {message} at node " in str(got.value)


def test_a_field_too_deep_to_compile_is_a_depth_error():
    # its derivatives are kept alive, so only the compile walks the depth
    e, derivatives = ex.Coord(1), []
    for i in range(1200):
        e = ex.call("sin", e) if i % 2 else ex.add(e, ex.Coord(1))
        derivatives.append(ex.differentiate(e, 1))
    X = VectorField(1, (e,))
    with pytest.raises(ExprDepthError) as got:
        variational_flow(X, 0.5)
    with pytest.raises(ExprDepthError) as want:
        reference_variational_flow(X, 0.5)
    assert got.value.depth == want.value.depth > 1000


def test_a_repeated_flow_compiles_nothing(capsys):
    from ghm.cli import main

    m = moser_example_1(f=3.0)
    p = sample_box(np.random.default_rng(4), m.domain, 1)[0]
    # another t, and a field of the same shape with other constants
    cases = [(m.X, -0.3), (moser_example_1(f=5.0).X, 1.0)]
    want = [_flow_outcome(reference_variational_flow(X, t), p) for X, t in cases]
    variational_flow(m.X, 0.5)(p)
    misses = ex._code.cache_info().misses
    got = [_flow_outcome(variational_flow(X, t), p) for X, t in cases]
    assert ex._code.cache_info().misses == misses and got == want
    argv = ["flatten", "moser1", "--numeric", "--samples", "3"]
    assert main(argv) == 0
    out = capsys.readouterr().out
    misses = ex._code.cache_info().misses
    assert main(argv) == 0 and capsys.readouterr().out == out
    assert ex._code.cache_info().misses == misses


# pieces of a hand-built problem on R^3 with k = 2: map components whose
# Jacobian entry is not finite (x1^2*1e308: its derivative overflows where
# |x1| > 0.9), or that fault (sqrt(x2) where x2 < 0, and its derivative at
# x2 = 0), all scaled by 1e200 in some maps so that every 2 x 2 minor
# overflows; coefficients of w that are 0.0 where x1 or x2 is, that fault
# (log(x3) where x3 <= 0), or 2^53, which makes the order of a sum show;
# w0 coefficients that fault where x2 <= -2
_MAP_TEXTS = ("x1", "x2", "x3", "x1 + x2", "x2 + x3", "x1^2*1e308", "sqrt(x2)", "x1 - x3")
_W_TEXTS = ("x1", "x2*x3", "1", "log(x3)", "0.5*x1 - x2", "9007199254740992", "-x2")
_W0_TEXTS = ("1", "x1", "log(x2 + 2)", "2")
_FIELD_TEXTS = ("x2", "-x1", "0.1*x1*x2", "sqrt(x3)", "0")
_COORDS = st.sampled_from((0.0, -0.0, 0.5, 1.0, -1.5, 2.0, -2.5, 3.0))


def _hand_built_problem(data) -> MoserProblem:
    def texts(pool, count, label):
        return [data.draw(st.sampled_from(pool), label=f"{label} {i}") for i in range(count)]

    keys = [(1, 2), (1, 3), (2, 3)]
    w = FormField(3, 2, {key: ex.parse(text, 3)
                         for key, text in zip(keys, texts(_W_TEXTS, 3, "w"))})
    w0 = FormField(3, 2, {key: ex.parse(text, 3)
                          for key, text in zip(keys, texts(_W0_TEXTS, 3, "w0"))})
    X = VectorField(3, tuple(ex.parse(text, 3) for text in texts(_FIELD_TEXTS, 3, "X")))
    scale = data.draw(st.sampled_from(("", "*1e200")), label="map scale")
    phi = PointMap(3, tuple(ex.parse(f"({text}){scale}", 3)
                            for text in texts(_MAP_TEXTS, 3, "map")))
    flow = data.draw(st.sampled_from((lambda t: phi,) * 5 + (None,)), label="flow")
    return MoserProblem("hand", 3, w0, X, w, ((-3.0, 3.0),) * 3, flow)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(data=st.data())
def test_the_blocked_flattening_check_is_the_per_point_loop(data):
    # verify_flattening against the former per-point loop: the same float.hex
    # residual or the same error type and message, on the built-in problems
    # with drawn parameters, domain points and out-of-domain ones, and on
    # hand-built problems with vanishing coefficients, overflowing minors or
    # Jacobian entries and faults at drawn points; blocks as small as one
    # key of one point
    from ghm import exterior

    kind = data.draw(st.sampled_from(("moser1", "moser2", "hand", "hand")), label="problem")
    numeric = data.draw(st.sampled_from((False, False, True)), label="numeric")
    count = data.draw(st.sampled_from((0, 1, 2) if numeric else (0, 1, 2, 7, 40, 40)),
                      label="points")
    if kind == "hand":
        problem = _hand_built_problem(data)
        points = [tuple(data.draw(_COORDS, label=f"point {i}") for _ in range(3))
                  for i in range(count)]
        times = (0.0, -0.25, 0.5) if numeric else (0.0, -0.5, 0.3, 1.0, 2.0)
    else:
        params = {"f": data.draw(st.sampled_from((0.5, 2.0, 7.3)), label="f")}
        if kind == "moser2":
            params["g"] = data.draw(st.sampled_from((0.5, 1.0, 3.0)), label="g")
        problem = build_moser(kind, **params)
        points = sample_box(np.random.default_rng(data.draw(st.integers(0, 9), label="seed")),
                            problem.domain, count)
        for i in data.draw(st.lists(st.integers(0, max(count - 1, 0)), max_size=2) if count
                           else st.just([]), label="moved points"):
            # x3 + x4 < 0 faults in sqrt, and x3 = -x4 divides by zero in w
            x3 = data.draw(st.sampled_from((-0.5, -points[i][3], 1e-300)), label="x3")
            points[i] = points[i][:2] + (x3,) + points[i][3:]
        times = (0.0, -0.3, 0.3, -1.0) if numeric else (0.0, -0.3, 0.3, 1.0, 5.0, -2.0)
    t = data.draw(st.sampled_from(times), label="t")
    flow = "numeric" if numeric else "closed"
    block = data.draw(st.sampled_from((1, 9, 100, exterior.PULLBACK_BLOCK_FLOATS)), label="block")

    def outcome(run):
        try:
            return float.hex(run())
        except GhmError as exc:
            return type(exc).__name__, str(exc)

    with np.errstate(all="ignore"), pytest.MonkeyPatch.context() as patch:
        want = outcome(lambda: reference_verify_flattening(problem, t, points, flow))
        patch.setattr(exterior, "PULLBACK_BLOCK_FLOATS", block)
        got = outcome(lambda: verify_flattening(problem, t, points, flow))
    assert got == want


@pytest.mark.parametrize("block", [1, None])
def test_a_flattening_fault_keeps_its_point_and_step_order(block):
    # per point: the map, w_t at the target, the Jacobian check, w0 at the
    # point; the first fault in that order is the error, whatever the blocks
    from ghm import exterior
    from ghm.errors import EvalDomainError

    w = FormField(3, 2, {(1, 2): ex.parse("log(x2 + 2)", 3), (2, 3): ex.parse("log(x3)", 3)})
    w0 = FormField(3, 2, {(1, 2): ex.parse("log(x2 + 2)", 3)})
    phi = PointMap(3, tuple(ex.parse(text, 3) for text in ("x1^2*1e308", "x2 + 5", "x3")))
    problem = MoserProblem("order", 3, w0, VectorField(3, (ex.ZERO,) * 3), w,
                           ((-3.0, 3.0),) * 3, lambda t: phi)
    ok, bad_j, bad_w, bad_w0 = (0.1, 1.0, 1.0), (1.0, 1.0, 1.0), (0.1, 1.0, -1.0), (0.1, -3.0, 1.0)
    # the map's compiled Jacobian names its node that is not finite, so at a
    # point where both fail it comes before w_t
    j_msg, w_msg, w0_msg = ("non-finite value at node 2.0*x1*1e+308",
                            "log of nonpositive value at node log(x3)",
                            "log of nonpositive value at node log(x2 + 2.0)")
    cases = [([ok, (1.0, -3.0, 1.0)], j_msg), ([ok, bad_j, bad_w], j_msg),
             ([ok, bad_w, bad_j], w_msg), ([(1.0, 1.0, -1.0)], j_msg),
             ([ok, bad_w0, bad_j], w0_msg)]
    with np.errstate(over="ignore"), pytest.MonkeyPatch.context() as patch:
        if block is not None:
            patch.setattr(exterior, "PULLBACK_BLOCK_FLOATS", block)
        assert math.isfinite(verify_flattening(problem, 0.5, [ok, ok]))
        for points, msg in cases:
            with pytest.raises(EvalDomainError) as got:
                verify_flattening(problem, 0.5, points)
            with pytest.raises(EvalDomainError) as want:
                reference_verify_flattening(problem, 0.5, points)
            assert str(got.value) == str(want.value) == msg


def test_a_step_count_beyond_an_index_is_an_input_error():
    s = flat_nambu(3, 3)
    for t_end, dt in ((1e308, 1.0), (1e300, 1e-300), (2.0 ** 64, 1.0)):
        with pytest.raises(InputError, match="needs more RK4 steps"):
            integrate(s, (0.0, 0.0, 0.0), t_end=t_end, dt=dt)
    m = moser_example_1(f=2.0)
    for t in (1e308, 1e17, float("nan")):
        with pytest.raises(InputError, match="needs more RK4 steps"):
            variational_flow(m.X, t)


def test_dependent_hamiltonians_reject_a_nan_differential():
    nan_h = ScalarField(2, ex.mul(ex.const(float("nan")), ex.Coord(2)), "H1")
    s = SystemSpec(name="nan", n=2, k=2, hamiltonians=(nan_h,),
                   tensor=MultiVectorField.constant(2, 2, {(1, 2): 1.0}))
    message = "independence check failed at the base point (0.0, 0.0): non-finite value at node nan"
    with pytest.raises(InputError, match=re.escape(message)):
        s.validate()
    _flat_plane("tensor").validate()


def _counted_bundles(monkeypatch) -> list:
    """Every bundle ``ex._compile`` makes from here on, as [exprs, calls]."""
    compile_, bundles = ex._compile, []

    def counted(exprs):
        fn, entry = compile_(exprs), [exprs, 0]
        bundles.append(entry)

        def call(point):
            entry[1] += 1
            return fn(point)
        return call

    monkeypatch.setattr(ex, "_compile", counted)
    return bundles


@pytest.mark.parametrize("coefficient", ["1 + x1*x1*x3", "1 + log(x1)"])
def test_validate_reads_its_samples_in_one_compiled_pass(monkeypatch, coefficient):
    # the base point's sigma, then one bundle of dw, w and H, called once
    # per sample up to the first that faults: log(x1) faults where x1 <= 0
    w = FormField(3, 2, {(1, 2): ex.parse(coefficient, 3)})
    H = ScalarField.from_text("x3", 3)
    s = SystemSpec(name="pass", n=3, k=2, hamiltonians=(H,), mode="form", form=w,
                   domain=((-1.0, 1.0),) * 3)
    bundles = _counted_bundles(monkeypatch)
    points = sample_box(np.random.default_rng(0), s.domain, VALIDATE_SAMPLES)
    dw = closure_scan(w).exprs
    if "log" in coefficient:
        calls = next(i for i, p in enumerate(points, start=1) if p[0] <= 0)
        with pytest.raises(InputError, match=re.escape(f"evaluation failed at the domain sample "
                                                       f"{points[calls - 1]}: log of nonpositive")):
            s.validate()
    else:
        calls = len(points)
        with pytest.raises(InputError, match="form structure is not closed"):
            s.validate()
        assert dw
    assert bundles == [[tuple(s.sigma().coeffs.values()), 1],
                       [(*dw, *w.coeffs.values(), H.expression), calls]]


_monomials = st.lists(st.tuples(st.integers(-3, 3), st.integers(0, 2), st.integers(0, 2)),
                      min_size=1, max_size=3)


@settings(max_examples=40, deadline=None)
@given(terms=st.tuples(_monomials, _monomials, _monomials),
       third=st.lists(st.tuples(st.integers(0, 2), st.integers(-3, 3), st.integers(1, 2)),
                      max_size=2))
def test_validate_decides_closure_as_closure_residual_does(terms, third):
    # each coefficient of dx_i^dx_j a polynomial in x_i and x_j, so w is
    # closed, plus terms c*x_k^e in the third axis x_k, which are not
    coeffs = {}
    for key, monomials in zip(((1, 2), (1, 3), (2, 3)), terms):
        coeffs[key] = " + ".join(f"{c}*x{key[0]}^{a}*x{key[1]}^{b}" for c, a, b in monomials)
    for slot, c, e in third:
        key = ((1, 2), (1, 3), (2, 3))[slot]
        coeffs[key] += f" + {c}*x{6 - sum(key)}^{e}"
    w = FormField(3, 2, {key: ex.parse(text, 3) for key, text in coeffs.items()})
    s = SystemSpec(name="poly", n=3, k=2, hamiltonians=(ScalarField.from_text("x1 + x3", 3),),
                   mode="form", form=w, domain=((-2.0, 2.0),) * 3)
    want = closure_residual(w, sample_box(np.random.default_rng(0), s.domain, VALIDATE_SAMPLES))
    assert third or want.max_residual == 0.0
    report, reports = identities._report, []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(identities, "_report", lambda *args: reports.append(report(*args)) or
                      reports[-1])
        if want.passes(1e-10):
            s.validate()
        else:
            with pytest.raises(InputError) as err:
                s.validate()
            assert str(err.value) == (f"system 'poly': form structure is not closed (residual "
                                      f"{want.max_residual:g} at {want.argmax_point})")
    assert repr(reports) == repr([want])  # repr keeps every bit of a float


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


def _one_step(method, n, f, x, h):
    """The state the generated loop's call-stage (form-route) variant
    reaches after one step of size h from x with the field f, accepted
    whatever its error estimate, or the loop's error."""
    run = rk4.trajectory(method, n, (), stage=f, state=lambda y: (0.0, f(y)))
    try:
        *_, end, _ = run(x, 0.0, h, h, 1e300, *(-math.inf, math.inf) * n)
    except IntegrationError as exc:
        return str(exc)
    return np.array(end).tobytes()


def _reference_step(method, f, x, h):
    """``_one_step`` of the reference steps: RK4's state, or RKF45's x4, or
    the loop's error where the 3.11 error norm of x4 - x5 is NaN."""
    if method == "rk4":
        return np.array(reference_rk4_step(f, x, h)).tobytes()
    x4, x5 = reference_rkf45_step(f, x, h)
    if math.isnan(math.sqrt(_sum311((a - b) ** 2 for a, b in zip(x4, x5)))):
        return "the RKF45 error estimate is not finite at t=0"
    return np.array(x4).tobytes()


@pytest.mark.parametrize("n", range(2, 7))
def test_generated_steps_are_bit_identical_for_every_dimension(n):
    def f(x):
        return tuple(math.sin(x[(i + 1) % n]) * x[i] - 0.3 * i + x[i - 1] ** 2 for i in range(n))

    rng = np.random.default_rng(n)
    for _ in range(20):
        x = tuple(rng.uniform(-2, 2, n))
        h = float(rng.uniform(1e-4, 0.3))
        for method in ("rk4", "rkf45"):
            assert _one_step(method, n, f, x, h) == _reference_step(method, f, x, h)

    def staged(values):  # call i returns values[i % 6] in every component
        calls = itertools.count()
        return lambda x: (values[next(calls) % 6],) * n

    # every b*k of B4 and B5 is -0.0, so only the leading 0 makes the sums +0.0
    zeros = (-0.0, -0.0, -0.0, -0.0, 0.0, -0.0)
    # k1 reaches x4 only through its zero weight, as 0.0 * inf
    spike = (1.0, math.inf, 1.0, 1.0, 1.0, 1.0)
    for values, x in ((zeros, (-0.0,) * n), (spike, (0.5,) * n)):
        for method in ("rk4", "rkf45"):
            assert _one_step(method, n, staged(values), x, 0.1) == \
                _reference_step(method, staged(values), x, 0.1)
    assert _one_step("rkf45", n, staged(spike), (0.5,) * n, 0.1) == \
        "the RKF45 error estimate is not finite at t=0"
    codes = {rk4.trajectory(method, n, (), stage=f, state=f).__code__ for method in ("rk4",) * 2}
    assert len(codes) == 1
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


def test_a_domain_or_base_point_of_another_dimension_is_a_dimension_error():
    # an unchecked x3 would leave box_test blind to it
    spec = dict(name="short", n=3, k=3,
                hamiltonians=(ScalarField(3, ex.Coord(1)), ScalarField(3, ex.Coord(3))),
                tensor=MultiVectorField.constant(3, 3, {(1, 2, 3): 1.0}))
    with pytest.raises(DimensionError, match="need n=3 domain intervals, got 2"):
        SystemSpec(**spec, domain=((0.0, 1.0),) * 2)
    with pytest.raises(DimensionError, match=r"base point \(0\.5, 0\.5\) is not in R\^3"):
        SystemSpec(**spec, base_point=(0.5, 0.5))
    s = SystemSpec(**spec, domain=((0.0, 1.0),) * 3, base_point=(0.5, 0.5, 0.5))
    assert len(s.domain) == len(s.base_point) == 3


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


def _late_system(accel, invariants=None, g="sqrt(x1)"):
    # X = (x2, -accel + x4*g, -x2, -0.0): from x4 = 0, x1 moves as
    # x1 + x2 t - accel t^2 / 2 while every stage evaluates g
    J = MultiVectorField(4, 2, {(1, 2): ex.const(accel), (1, 3): ex.parse("x2", 4),
                                (2, 3): ex.parse(f"x4*({g})", 4)})
    return SystemSpec(name="late", n=4, k=2, hamiltonians=(ScalarField.from_text("x1 + x3", 4),),
                      tensor=J, domain=((-5.0, 5.0),) * 4, invariants=invariants or {})


_H = 2.0 ** -4
# (method, accel, x0, step, stage): each start makes sqrt(x1) fault first
# in the given stage (0-based) of the given step; stage 0 is an accepted state
_LOOP_FAULTS = [
    ("rk4", 1.0, (-1.0, 0.0, 0.0, 0.0), 0, 0),
    ("rk4", 1.0, (_H * _H / 8, 0.0, 0.0, 0.0), 0, 2),
    ("rk4", 1.0, (3 * _H * _H / 8, 0.0, 0.0, 0.0), 0, 3),
    ("rkf45", 1.0, (-1.0, 0.0, 0.0, 0.0), 0, 0),
    # stage 5 (c = 1/2) reaches below stages 1-4 where x2 = -5h/8
    ("rkf45", -1.0, (45 * 2.0 ** -16, -5 * 2.0 ** -7, 0.0, 0.0), 0, 5),
]


@pytest.mark.parametrize("method, accel, x0, step, stage", _LOOP_FAULTS)
def test_a_fault_in_an_inlined_stage_is_a_vector_field_failure(monkeypatch, method, accel, x0,
                                                              step, stage):
    # the reference steps call the compiled field once per stage; the loop
    # inlines it, and must name the same node with the same text
    s = _late_system(accel)
    calls = itertools.count(1)
    compile_bundle = oracles.unguarded_compile

    def counted(exprs):  # the reference's field, counting its calls
        f = compile_bundle(exprs)
        if tuple(exprs) != s.bracket_field.components:
            return f
        return lambda y: (next(calls), f(y))[1]

    monkeypatch.setattr(oracles, "unguarded_compile", counted)
    with pytest.raises(IntegrationError) as want:
        reference_integrate(s, x0, 1.0, _H, method, 1e-3)
    monkeypatch.undo()
    made, per = next(calls) - 1, 4 if method == "rk4" else 6
    assert ((made - 1) // per, (made - 1) % per) == (step, stage)
    with pytest.raises(IntegrationError) as got:
        integrate(s, x0, 1.0, _H, method, 1e-3)
    assert str(got.value) == str(want.value) == \
        "vector-field evaluation failed: sqrt of negative value at node sqrt(x1)"


@pytest.mark.parametrize("method", ["rk4", "rkf45"])
def test_a_node_shared_by_the_row_and_the_field_fails_the_row(method):
    # the accepted state's bundle evaluates the row's nodes first, as the
    # row was evaluated before the field
    s = _late_system(1.0, {"H1": ScalarField.from_text("x1 + x3", 4),
                           "s": ScalarField.from_text("x4*sqrt(x1)", 4)})
    message = "diagnostics row evaluation failed: sqrt of negative value at node sqrt(x1)"
    for run in (integrate, reference_integrate):
        with pytest.raises(IntegrationError) as got:
            run(s, (-1.0, 0.0, 0.0, 0.0), 1.0, _H, method, 1e-3)
        assert str(got.value) == message


def test_a_stage_meets_the_first_fault_of_the_field_s_own_order():
    # the field evaluates sqrt(x1) before log(x1), which the row holds and so
    # the accepted state's bundle numbers first; both fault at stage 3 of step 0
    s = _late_system(1.0, {"H1": ScalarField.from_text("x1 + x3", 4),
                           "g": ScalarField.from_text("log(x1)", 4)}, "sqrt(x1) + log(x1)")
    x0 = (3 * _H * _H / 8, 0.0, 0.0, 0.0)
    for method in ("rk4", "rkf45"):
        with pytest.raises(IntegrationError) as got:
            integrate(s, x0, 1.0, _H, method, 1e-3)
        with pytest.raises(IntegrationError) as want:
            reference_integrate(s, x0, 1.0, _H, method, 1e-3)
        assert str(got.value) == str(want.value) == \
            "vector-field evaluation failed: sqrt of negative value at node sqrt(x1)"


def test_the_loop_control_failures_keep_their_text():
    # a step below 1e-14, and an error norm whose square overflows in
    # (x4 - x5) ** 2 with no node to name
    osc = oscillator(lam=0.1)
    wild = SystemSpec(name="wild", n=2, k=2, hamiltonians=(ScalarField.from_text("x2", 2),),
                      tensor=MultiVectorField(2, 2, {(1, 2): ex.parse("1e170*sin(1e10*x1)", 2)}),
                      domain=((-1e300, 1e300),) * 2)
    for system, x0, dt, message in (
            (osc, osc.base_point, 1e-300, "step size underflow at t=1e-300"),
            (wild, (0.3, 0.0), 1e-2,
             "vector-field evaluation failed: (34, 'Numerical result out of range')")):
        with pytest.raises(IntegrationError) as got:
            integrate(system, x0, 1.0, dt, "rkf45", 1e-9)
        with pytest.raises(IntegrationError) as want:
            reference_integrate(system, x0, 1.0, dt, "rkf45", 1e-9)
        assert str(got.value) == str(want.value) == message


def _float_constants(code):
    """The float constants of a code object and of the code objects in it."""
    found = []
    for c in code.co_consts:
        if isinstance(c, float):
            found.append(c)
        elif hasattr(c, "co_consts"):
            found += _float_constants(c)
    return found


def test_a_repeated_integration_compiles_nothing(monkeypatch, capsys):
    from ghm.cli import main

    texts, code = [], ex._code
    monkeypatch.setattr(ex, "_code", lambda source: (texts.append(source), code(source))[1])
    for lam in (0.1, 0.2):
        for mode in ("tensor", "form"):
            s = dataclasses.replace(oscillator(lam=lam), mode=mode)
            for method in ("rk4", "rkf45"):
                integrate(s, s.base_point, 0.01, 1e-3, method)
        if lam == 0.1:
            monkeypatch.undo()
            misses = ex._code.cache_info().misses
    # the second oscillator's loops, of other constants, are the first's
    assert ex._code.cache_info().misses == misses
    loops = [text for text in texts if "record_row" in text]
    assert len(loops) == 4
    for text in loops:  # constants and box bounds are parameters
        assert _float_constants(compile(text, "<loop>", "exec")) == []
    argv = ["simulate", "oscillator", "--x0=0.1,1,1,0.2,0.3,2", "--t-end", "0.01"]
    for method in ("rk4", "rkf45"):
        assert main([*argv, "--method", method]) == 0
        out = capsys.readouterr()
        misses = ex._code.cache_info().misses
        assert main([*argv, "--method", method]) == 0 and capsys.readouterr() == out
        assert ex._code.cache_info().misses == misses


def test_a_bundle_holds_one_guard_line_and_an_rk_loop_none(monkeypatch, capsys):
    # every text expr._generate writes tests its results once; the RK loops
    # of integrate and of the numeric flow inline only the bundles' node
    # lines, so their steps test nothing
    from ghm.cli import main

    generated, compiled = [], []
    generate, code = ex._generate, ex._code
    monkeypatch.setattr(ex, "_generate", lambda exprs: (generated.append(generate(exprs)),
                                                        generated[-1])[1])
    monkeypatch.setattr(ex, "_code", lambda source: (compiled.append(source), code(source))[1])
    points = {"oscillator": "0.1,1,1,0.2,0.3,2", "fourdim": "0.1,0.2,0.3,1.5",
              "quasisymmetry": "1.2,0.9,0.4", "flat_nambu": "0.1,0.2,0.3"}
    config = str(Path(__file__).resolve().parents[1] / "bench" / "configs" / "oscillator_form.json")
    for name, x0 in points.items():
        assert main(["check", name, "--samples", "2"]) in (0, 1)
        for method in ("rk4", "rkf45"):
            assert main(["simulate", name, f"--x0={x0}", "--t-end=0.002", "--method", method]) == 0
    assert main(["simulate", "--config", config, "--x0=0.1,1,1,0.2,0.3,2", "--t-end=0.002"]) == 0
    assert main(["flatten", "moser1", "--numeric", "--samples", "1"]) == 0
    capsys.readouterr()

    def guards(source):
        return sum("_not_finite(" in line for line in source.split("\n"))

    assert len(generated) > 50
    assert all(guards(source) == 1 for source, _, _ in generated)
    loops = [text for text in compiled if "record_row(" in text or "numeric flow" in text]
    assert len(loops) == 10
    assert all(guards(text) == 0 for text in loops)
