import itertools
import re
import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import ghm.expr as ex
from ghm.errors import InputError
from ghm.expr import ScalarField, parse
from ghm.exterior import FormField, MultiVectorField, VectorField, sort_with_sign
from ghm.identities import (
    _dense_block,
    closure_residual,
    extend_measure_preserving,
    fundamental_identity_residual,
    jacobi_residual,
    measure_residual,
)
from ghm.structure import build_poisson_k, reduce_k_to_2
from ghm.systems import fourdim, oscillator
from oracles import (
    jacobi_cyclic,
    reference_dense_fundamental_identity_arrays,
    reference_dense_pair,
    reference_fundamental_identity_arrays,
    reference_fundamental_identity_residual,
)


def _dense_pair(J, point):
    """The dense arrays of one point, as a block of one row."""
    A, D = _dense_block(J, np.array([J.jet_function()(point)]))
    return A[0], D[0]


def _fourdim_j2():
    inv = ex.div(ex.ONE, ex.Coord(4))
    return MultiVectorField(4, 2, {(2, 1): inv, (4, 3): inv})


def test_jacobi_constant_tensor():
    J = MultiVectorField.constant(5, 2, {(1, 2): 3.0, (3, 4): -1.0})
    rep = jacobi_residual(J, [(0.1, 0.2, 0.3, 0.4, 0.5)])
    assert rep.max_residual == 0.0


def test_jacobi_fourdim_signed_values():
    J2 = _fourdim_j2()
    for x4, want in [(0.5, -8.0), (1.0, -1.0), (2.0, -0.125)]:
        p = (0.3, -0.7, 0.2, x4)
        assert jacobi_cyclic(J2, (3, 1, 2), p) == pytest.approx(want, rel=1e-12)
    rep = jacobi_residual(J2, [(0.0, 0.0, 0.0, 1.0)])
    assert rep.max_residual == pytest.approx(1.0, rel=1e-12)
    rep2 = jacobi_residual(J2, [(0.0, 0.0, 0.0, 2.0)])
    assert rep2.max_residual == pytest.approx(0.125, rel=1e-12)


def _brute_jacobi_max(J, p):
    n = J.n
    worst = 0.0
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            for l in range(1, n + 1):
                worst = max(worst, abs(jacobi_cyclic(J, (i, j, l), p)))
    return worst


def test_jacobi_matches_brute_force():
    J = MultiVectorField(3, 2, {(1, 2): parse("x3^2", 3), (1, 3): parse("x1*x2", 3),
                                (2, 3): parse("x2", 3)})
    pts = [(0.3, 0.8, -0.4), (1.1, -0.2, 0.5)]
    rep = jacobi_residual(J, pts)
    brute = max(_brute_jacobi_max(J, p) for p in pts)
    assert rep.max_residual == pytest.approx(brute, rel=1e-12)


def test_jacobi_k_of_built_tensor_vanishes():
    # adapted chart: J2 lives on axes 1..2, Casimir axis 3
    J2 = MultiVectorField(3, 2, {(1, 2): parse("1 + x1^2", 3)})
    C = ScalarField(3, ex.Coord(3))
    n1 = VectorField(3, (ex.ZERO, ex.ZERO, ex.ONE))
    pts = [(0.2, 0.4, 0.1), (-0.5, 0.9, 1.2)]
    J = build_poisson_k(J2, [C], [n1], pts)
    rep = jacobi_residual(reduce_k_to_2(J, [C]), pts)
    assert rep.max_residual <= 1e-12


def test_fundamental_identity_canonical():
    J = MultiVectorField.constant(3, 3, {(1, 2, 3): 1.0})
    rep = fundamental_identity_residual(J, [(0.4, -0.1, 0.9)])
    assert rep.max_residual <= 1e-12


def test_fundamental_identity_oscillator_tuple():
    osc = oscillator()
    rep = fundamental_identity_residual(osc.tensor, [osc.base_point])
    assert rep.max_residual >= 1.0
    assert rep.detail == "FIb"
    # derivative terms vanish for the constant tensor, so FIa contributes 0
    J = osc.tensor
    p = osc.base_point
    # the cross-block tuple evaluates to exactly 1
    dense = np.zeros((6,) * 3)
    for key, e in J.coeffs.items():
        c = ex.evaluate(e, p)
        for perm in itertools.permutations(key):
            _, s = sort_with_sign(perm)
            dense[tuple(i - 1 for i in perm)] = s * c
    i, j, k, u, v, q = 1, 2, 3, 4, 5, 6
    value = (
        dense[i - 1, j - 1, k - 1] * dense[u - 1, v - 1, q - 1]
        + dense[v - 1, j - 1, k - 1] * dense[u - 1, i - 1, q - 1]
        + dense[u - 1, i - 1, k - 1] * dense[j - 1, v - 1, q - 1]
        + dense[u - 1, v - 1, k - 1] * dense[j - 1, i - 1, q - 1]
        + dense[u - 1, j - 1, i - 1] * dense[k - 1, v - 1, q - 1]
        + dense[u - 1, j - 1, v - 1] * dense[k - 1, i - 1, q - 1]
    )
    assert value == 1.0


def test_fundamental_identity_matches_brute_force():
    rng = np.random.default_rng(6)
    n = 4
    keys = list(itertools.combinations(range(1, n + 1), 3))
    texts = ["x1*x2", "x4^2", "0.3*x3", "x1 - x4"]
    J = MultiVectorField(n, 3, {key: parse(texts[i % 4], n) for i, key in enumerate(keys)})
    p = tuple(rng.uniform(-1, 1, size=n))

    dense = np.zeros((n,) * 3)
    ddense = np.zeros((n,) + (n,) * 3)
    for key, e in J.coeffs.items():
        c = ex.evaluate(e, p)
        for perm in itertools.permutations(key):
            _, s = sort_with_sign(perm)
            dense[tuple(i - 1 for i in perm)] = s * c
        for u in range(1, n + 1):
            cu = ex.evaluate(ex.differentiate(e, u), p)
            for perm in itertools.permutations(key):
                _, s = sort_with_sign(perm)
                ddense[(u - 1,) + tuple(i - 1 for i in perm)] = s * cu

    worst = 0.0
    R = range(n)
    for i, j, k, v, q in itertools.product(R, repeat=5):
        fia = sum(
            dense[u, v, q] * ddense[u, i, j, k]
            - dense[u, j, k] * ddense[u, i, v, q]
            - dense[u, k, i] * ddense[u, j, v, q]
            - dense[u, i, j] * ddense[u, k, v, q]
            for u in R)
        worst = max(worst, abs(fia))
    for i, j, k, u, v, q in itertools.product(R, repeat=6):
        fib = (dense[i, j, k] * dense[u, v, q] + dense[v, j, k] * dense[u, i, q]
               + dense[u, i, k] * dense[j, v, q] + dense[u, v, k] * dense[j, i, q]
               + dense[u, j, i] * dense[k, v, q] + dense[u, j, v] * dense[k, i, q])
        worst = max(worst, abs(fib))

    rep = fundamental_identity_residual(J, [p])
    assert rep.max_residual == pytest.approx(worst, rel=1e-12)


def test_fi_implies_reduced_jacobi_but_not_conversely():
    # decomposable tensor: FI holds, and so does the reduced Jacobi
    fd = fourdim()
    pts = [(0.5, -0.3, 0.8, 1.4)]
    assert fundamental_identity_residual(fd.tensor, pts).max_residual <= 1e-12
    casimir = ScalarField(4, ex.Coord(4))
    assert jacobi_residual(reduce_k_to_2(fd.tensor, [casimir]), pts).max_residual <= 1e-12
    # oscillator: reduced Jacobi holds while the FI fails
    osc = oscillator()
    opts = [osc.base_point]
    assert jacobi_residual(osc.reduced_tensor, opts).max_residual <= 1e-12
    assert fundamental_identity_residual(osc.tensor, opts).max_residual >= 1.0


def test_closure_cases():
    const_w = FormField.constant(4, 2, {(1, 2): 2.0, (3, 4): -1.0})
    assert closure_residual(const_w, [(0.0,) * 4]).max_residual == 0.0

    x4 = ex.Coord(4)
    w = FormField(4, 3, {(1, 2, 4): x4})
    omega = FormField(4, 2, {(1, 2): x4, (3, 4): x4})
    pts = [(0.1, 0.2, 0.3, 1.5), (1.0, -1.0, 0.5, 0.4)]
    assert closure_residual(w, pts).max_residual == 0.0
    rep = closure_residual(omega, pts)
    assert rep.max_residual == pytest.approx(1.0)
    assert rep.argmax_index == (1, 2, 4)


def test_measure_cases():
    Jc = MultiVectorField.constant(3, 3, {(1, 2, 3): 4.0})
    assert measure_residual(Jc, 1.0, [(0.0,) * 3]).max_residual == 0.0

    J = MultiVectorField(3, 3, {(1, 2, 3): ex.Coord(1)})
    rep = measure_residual(J, 1.0, [(0.7, -0.2, 0.4)])
    assert rep.max_residual == pytest.approx(1.0)
    assert rep.argmax_index == (2, 3)


def test_measure_weight_cancels():
    # J = eps / g with weight g: the product has constant components
    g = ScalarField.from_text("2 + x1^2 + x3", 3)
    J = MultiVectorField(3, 3, {(1, 2, 3): ex.div(ex.ONE, g.expression)})
    rep = measure_residual(J, g, [(0.4, 0.1, 0.9), (-0.6, 0.2, 0.3)])
    assert rep.max_residual <= 1e-12


def test_measure_weight_must_not_vanish():
    J = MultiVectorField.constant(2, 2, {(1, 2): 1.0})
    g = ScalarField(2, ex.Coord(1))
    with pytest.raises(Exception):
        measure_residual(J, g, [(0.0, 1.0)])


def test_extension_trivial_for_constant():
    J = MultiVectorField.constant(3, 3, {(1, 2, 3): 2.0})
    E = extend_measure_preserving(J)
    assert E.n == 4
    assert set(E.coeffs) == {(1, 2, 3)}


def test_extension_restores_measure_preservation():
    J = MultiVectorField(3, 3, {(1, 2, 3): ex.Coord(1)})
    assert measure_residual(J, 1.0, [(0.5, 0.2, 0.1)]).max_residual == pytest.approx(1.0)
    E = extend_measure_preserving(J)
    assert E.coeffs.keys() == {(1, 2, 3), (2, 3, 4)}
    pts = [(0.5, 0.2, 0.1, 0.8), (1.2, -0.4, 0.9, -0.3)]
    assert measure_residual(E, 1.0, pts).max_residual <= 1e-12


def test_extension_flow_components():
    # H = x2, C = x3: X = (x1, 0, 0), div X = 1, so x4' = -x4
    J = MultiVectorField(3, 3, {(1, 2, 3): ex.Coord(1)})
    E = extend_measure_preserving(J)
    from ghm.dynamics import SystemSpec

    H4 = ScalarField(4, ex.Coord(2))
    C4 = ScalarField(4, ex.Coord(3))
    sys4 = SystemSpec(name="ext", n=4, k=3, hamiltonians=(H4, C4), tensor=E,
                      mode="tensor", base_point=(0.5, 0.2, 0.1, 0.8))
    X = sys4.bracket_field
    p = (0.7, 0.3, -0.2, 1.3)
    vals = X.at(p)
    assert vals[:3] == pytest.approx([0.7, 0.0, 0.0])
    assert vals[3] == pytest.approx(-1.3)


def _triple_bracket(J, f, g, h):
    # {f, g, h} = J^{ijk} f_i g_j h_k, summed over every ordering of each key
    total = ex.ZERO
    for key in J.coeffs:
        for i, j, kk in itertools.permutations(key):
            term = ex.mul(f.grad[i - 1], ex.mul(g.grad[j - 1], h.grad[kk - 1]))
            total = ex.add(total, ex.mul(J.component((i, j, kk)), term))
    return ScalarField(J.n, total)


def test_time_derivative_distributes_for_canonical_bracket():
    # d/dt {f,g,h} = {f',g,h} + {f,g',h} + {f,g,h'} along the canonical flow
    n = 3
    J = MultiVectorField.constant(n, 3, {(1, 2, 3): 1.0})
    f = ScalarField.from_text("x1^2*x3 + x2", n)
    g = ScalarField.from_text("x2*x3 - 0.5*x1", n)
    h = ScalarField.from_text("x3^2 + x1*x2", n)
    H = ScalarField.from_text("x1 + x2^2", n)
    C = ScalarField.from_text("x3 - x1*x2", n)

    from ghm.dynamics import SystemSpec

    sys3 = SystemSpec(name="canon", n=n, k=3, hamiltonians=(H, C), tensor=J, mode="tensor")
    X = sys3.bracket_field

    def advect(s: ScalarField) -> ScalarField:
        total = ex.ZERO
        for i, c in enumerate(X.components, start=1):
            total = ex.add(total, ex.mul(c, s.partial(i)))
        return ScalarField(n, total)

    lhs = advect(_triple_bracket(J, f, g, h))
    rhs_terms = [_triple_bracket(J, advect(f), g, h),
                 _triple_bracket(J, f, advect(g), h),
                 _triple_bracket(J, f, g, advect(h))]
    rng = np.random.default_rng(8)
    for _ in range(10):
        p = tuple(rng.uniform(-1, 1, size=n))
        rhs = sum(t(p) for t in rhs_terms)
        assert lhs(p) == pytest.approx(rhs, abs=1e-8)


def test_reports_reproducible():
    J2 = _fourdim_j2()
    pts = [(0.1, 0.2, 0.3, 0.8), (0.4, -0.2, 0.6, 1.7)]
    r1 = jacobi_residual(J2, pts)
    r2 = jacobi_residual(J2, pts)
    assert r1 == r2


def test_dense_pair_is_the_former_scatter():
    # equal as numbers; an absent odd-order entry now reads -0.0
    import dataclasses

    from ghm import systems
    from ghm.dynamics import sample_box

    specs = [systems.build(name) for name in sorted(systems.CATALOG)]
    specs += [systems.build("flat_nambu", n=4, k=3), systems.build("fourdim", hamiltonian="x2")]
    for system in specs:
        for J in {id(t): t for t in (system.tensor, system.reduced_tensor)
                  if t is not None}.values():
            for p in sample_box(np.random.default_rng(4), system.domain, 10):
                A, D = _dense_pair(J, p)
                ref_A, ref_D = reference_dense_pair(J, p)
                assert np.array_equal(A, ref_A) and np.array_equal(D, ref_D), (system.name, p)
                assert A.shape == (J.n,) * J.k and D.shape == (J.n,) * (J.k + 1)


def test_an_all_zero_scan_reports_plus_zero():
    # flat_nambu(3, 3) scans to exactly zero; the argmax of an all-zero scan
    # is flat index 0, which holds +0.0 even where absent entries read -0.0
    from ghm import systems

    system = systems.build("flat_nambu")
    pts = [(0.3, -0.2, 0.9), (-1.0, 0.5, 0.25)]
    for rep in (fundamental_identity_residual(system.tensor, pts),
                jacobi_residual(system.reduced_tensor, pts)):
        assert rep.max_residual == 0.0
        assert float.hex(rep.signed_at_argmax) == float.hex(0.0)


def test_a_nan_residual_is_reported_and_fails():
    # the coefficient is 0 at x1 = 0 and inf - inf = NaN elsewhere, so the
    # Jacobi scan is NaN only at the second point; plain max() would keep
    # the first point's 0.0
    nan_away_from_0 = parse("x1^2*1e200*1e200 - x1^2*1e200*1e200", 3)
    J = MultiVectorField(3, 2, {(1, 2): parse("x3", 3), (1, 3): parse("x2*x3", 3),
                                (2, 3): nan_away_from_0})
    rep = jacobi_residual(J, [(0.0, 0.5, 0.5), (1.0, 0.5, 0.5)])
    assert np.isnan(rep.max_residual) and rep.argmax_point == (1.0, 0.5, 0.5)
    assert not rep.passes(1e300)
    # dw = dx1^dx2 + NaN dx1^dx3: the NaN coefficient is not the first
    w = FormField(3, 1, {(2,): parse("x1", 3), (3,): ex.mul(ex.Coord(1), ex.const(float("nan")))})
    rep = closure_residual(w, [(0.1, 0.2, 0.3)])
    assert np.isnan(rep.max_residual) and rep.argmax_index == (1, 3)


def test_a_scan_needs_a_sample_point():
    with pytest.raises(InputError):
        jacobi_residual(_fourdim_j2(), [])


def _random_n4_tensor():
    # the random n = 4 tensor of test_fundamental_identity_matches_brute_force
    n = 4
    keys = list(itertools.combinations(range(1, n + 1), 3))
    texts = ["x1*x2", "x4^2", "0.3*x3", "x1 - x4"]
    return MultiVectorField(n, 3, {key: parse(texts[i % 4], n) for i, key in enumerate(keys)})


def _bits(x: float) -> bytes:
    return struct.pack("<d", x)


@pytest.mark.parametrize("name", ["oscillator", "fourdim", "flat_nambu", "quasisymmetry",
                                  "random-n4"])
def test_fi_kernel_is_the_ten_einsum_formulas_bit_for_bit(name):
    # the dense arrays are the per-term einsums' arrays, each signed zero
    # included (compared as int64); the support-plan scan reports what the
    # dense arrays and the einsums report: value bits, index, point, detail
    from ghm import systems
    from ghm.dynamics import sample_box

    if name == "random-n4":
        J, domain = _random_n4_tensor(), ((-1.0, 1.0),) * 4
    else:
        system = systems.build(name)
        J, domain = system.tensor, system.domain
    pts = [tuple(p) for p in sample_box(np.random.default_rng(12), domain, 8)]
    for p in pts:
        A, D = _dense_pair(J, p)
        got, want = (reference_dense_fundamental_identity_arrays(A, D),
                     reference_fundamental_identity_arrays(A, D))
        for g, w in zip(got, want):
            assert g.shape == w.shape
            assert np.array_equal(g.view(np.int64), w.view(np.int64)), (name, p)
    rep = fundamental_identity_residual(J, pts)
    for kernel in (reference_dense_fundamental_identity_arrays,
                   reference_fundamental_identity_arrays):
        ref = reference_fundamental_identity_residual(J, pts, kernel)
        assert rep == ref
        assert (rep.signed_at_argmax.hex(), rep.argmax_index, rep.argmax_point, rep.detail) == \
            (ref.signed_at_argmax.hex(), ref.argmax_index, ref.argmax_point, ref.detail)


# a coefficient's exact partials are nonzero along the coordinates it names
_LINEAR = st.lists(st.integers(1, 6), max_size=3, unique=True)
# exact zeros twice as often; 1e200 squared overflows: a finite J whose FIb
# reads inf, and NaN from inf - inf
_ENTRY = st.sampled_from((0.0, -0.0, 0.0, 1.0, -1.0, 2.0, -2.0, 0.5, 3.0, 1e200, -1e200))


def _drawn_tensor(data, n, k, dense=False):
    # J over a drawn subset of keys (a quarter of them, or three quarters),
    # each with drawn partial directions
    coeffs = {}
    for key in itertools.combinations(range(1, n + 1), k):
        if (data.draw(st.integers(0, 3)) == 0) != dense:
            axes = [u for u in data.draw(_LINEAR) if u <= n]
            coeffs[key] = parse(" + ".join(["1", *(f"x{u}" for u in axes)]), n)
    return MultiVectorField(n, k, coeffs)


def _drawn_row(data, width, label, entries=_ENTRY):
    # exact zeros, -0.0, ties and overflow, and a few inf and NaN entries
    values = data.draw(st.lists(entries, min_size=width, max_size=width), label=label)
    for _ in range(data.draw(st.integers(0, 2 if width else 0))):
        position = data.draw(st.integers(0, width - 1))
        values[position] = data.draw(st.sampled_from((np.inf, -np.inf, np.nan)))
    return values


@settings(max_examples=150, deadline=None, derandomize=True)
@given(data=st.data())
def test_the_support_plan_reports_the_dense_candidates_byte_for_byte(data):
    # the jet row is drawn freely; the point's two candidates must match the
    # dense arrays' in signed value bits, index and detail, and the planned
    # entries the dense arrays' bits
    from ghm.identities import (_dense_fib, _dense_plan, _fia_entries, _fia_plan, _fib_entries,
                                _fib_plan, _jet_support, fundamental_identity_scan)
    from oracles import reference_fundamental_identity_candidates

    n = data.draw(st.integers(3, 6), label="n")
    J = _drawn_tensor(data, n, 3)
    values, point = tuple(_drawn_row(data, len(J.jet_plan()[0]), "jet")), (0.25,) * n
    A, D = _dense_block(J, np.array([values]))
    A, D = A[0], D[0]
    support = _dense_plan(J)[0] != len(J.coeffs)  # the slots that hold a coefficient
    assert np.array_equal(_jet_support(J)[0], support)
    plan = _fib_plan(n, (support if np.isfinite(A).all() else support | True).tobytes())
    fia_plan = _fia_plan(n, _jet_support(J).tobytes())
    with np.errstate(over="ignore", invalid="ignore"):
        got = fundamental_identity_scan(J).step(np.array([values]), [point])
        want = reference_fundamental_identity_candidates(A, D, point)
        entries = _fib_entries(A.reshape(1, -1), plan)[0]
        fia, dense = (_fia_entries(A[None], D[None], fia_plan)[0],
                      reference_dense_fundamental_identity_arrays(A, D))
        dense_fib = _dense_fib(A).ravel()
    assert [(_bits(s), p, i, d) for s, p, i, d in got] == \
        [(_bits(s), p, i, d) for s, p, i, d in want]
    # each planned FIb entry has the full array's bits there; every other one is +0.0
    fib = dense[1].ravel()
    assert np.array_equal(entries.view(np.int64), fib[plan[0]].view(np.int64))
    # and the dense kernel of a row where J is not finite, at every entry
    assert np.array_equal(dense_fib.view(np.int64), fib.view(np.int64))
    assert not np.delete(fib, plan[0]).view(np.int64).any()
    # so has each planned FIa entry where the jet is finite
    if np.isfinite(values).all():
        full = dense[0].ravel()
        assert np.array_equal(fia.view(np.int64), full[fia_plan[0]].view(np.int64))
        assert not np.delete(full, fia_plan[0]).view(np.int64).any()


# a weight column that vanishes at about one point in ten
_WEIGHT = st.sampled_from((1.0, 2.0, -0.5, 3.0, 1.0, -1.0, 0.5, 1e200, np.nan, 0.0))
# and 2^53, which absorbs a 1 that 2^53 - 1 keeps: a sum of three products
# can depend on its order
_ROW_ENTRY = st.sampled_from((0.0, -0.0, 0.0, 1.0, -1.0, 2.0, -2.0, 0.5, 3.0, 1e200, -1e200,
                              2.0 ** 53, -2.0 ** 53))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(data=st.data())
def test_blocked_scans_report_the_per_point_steps_byte_for_byte(data):
    # run_scans over drawn rows of values (the compiled bundle is replaced by
    # a lookup of the point's row) against the former per-point steps: every
    # report's signed value and max bits (NaN signs included), index, point
    # and detail, or the same error, whatever the block size
    from ghm import identities
    from ghm.errors import EvalDomainError
    from ghm.exterior import divergence_exprs, exterior_derivative
    from oracles import reference_scan_reports

    n = data.draw(st.integers(3, 6), label="n")
    J = _drawn_tensor(data, n, 3, data.draw(st.booleans(), label="dense"))
    J2 = _drawn_tensor(data, n, 2)
    k = data.draw(st.integers(1, n), label="form degree")
    w = FormField(n, k, {key: parse(f"x{key[0] % n + 1}*x{(key[-1] + 1) % n + 1}", n)
                         for key in itertools.combinations(range(1, n + 1), k)})
    weighted = data.draw(st.booleans(), label="weighted")
    weight = ScalarField(n, ex.Coord(1)) if weighted else 1.0
    scans = [identities.closure_scan(w), identities.jacobi_scan(J2),
             identities.fundamental_identity_scan(J), identities.measure_scan(J, weight)]
    specs = [("closure", list(exterior_derivative(w).coeffs)), ("jacobi", J2),
             ("fundamental-identity", J),
             ("measure", list(divergence_exprs(J, None if weight == 1.0 else weight)), weighted)]
    count = data.draw(st.integers(1, 9), label="points")
    points = [(float(i),) + (0.25,) * (n - 1) for i in range(count)]
    width = sum(len(scan.exprs) for scan in scans)
    rows = []
    for i in range(count):
        row = _drawn_row(data, width - weighted, f"row {i}", _ROW_ENTRY)
        rows.append(tuple(row + [data.draw(_WEIGHT, label="weight")] * weighted))
    block = data.draw(st.sampled_from((1, 1, 3000, identities.SCAN_BLOCK_FLOATS)), label="block")

    def outcome(run):
        try:
            return [(r.name, _bits(r.max_residual), _bits(r.signed_at_argmax), r.argmax_index,
                     r.argmax_point, r.samples, r.detail) for r in run()]
        except EvalDomainError as exc:
            return str(exc)

    with np.errstate(all="ignore"), pytest.MonkeyPatch.context() as patch:
        want = outcome(lambda: reference_scan_reports(specs, rows, points))
        patch.setattr(identities, "SCAN_BLOCK_FLOATS", block)
        patch.setattr(ex, "compile_vector", lambda exprs: lambda p: rows[int(p[0])])
        got = outcome(lambda: identities.run_scans(scans, points))
    assert got == want
    # the FI kernels on stacked rows, in drawn blocks: every planned entry has
    # the dense arrays' bits, FIa where the jet is finite, FIb where J is, and
    # FIb from the plan of every position elsewhere
    lo = len(scans[0].exprs) + len(scans[1].exprs)
    jet = np.array(rows)[:, lo:lo + len(scans[2].exprs)]
    size = data.draw(st.integers(1, count), label="kernel block")
    support = identities._jet_support(J)
    fia_plan = identities._fia_plan(n, support.tobytes())
    fib_plans = (identities._fib_plan(n, support[0].tobytes()),
                 identities._fib_plan.__wrapped__(n, bytes([True]) * n ** 3))
    with np.errstate(all="ignore"):
        for start in range(0, count, size):
            chunk = jet[start:start + size]
            A, D = _dense_block(J, chunk)
            Af = A.reshape(len(A), -1)
            finite_jet, finite_a = np.isfinite(chunk).all(axis=1), np.isfinite(Af).all(axis=1)
            fia = identities._fia_entries(A[finite_jet], D[finite_jet], fia_plan)
            fib = [identities._fib_entries(Af[finite_a], fib_plans[0])]
            fib += [identities._fib_entries(Af[r:r + 1], fib_plans[1])
                    for r in np.flatnonzero(~finite_a)]
            dense = [reference_dense_fundamental_identity_arrays(a, d) for a, d in zip(A, D)]
            want_fia = [dense[r][0].ravel()[fia_plan[0]] for r in np.flatnonzero(finite_jet)]
            want_fib = [dense[r][1].ravel()[fib_plans[0][0]] for r in np.flatnonzero(finite_a)]
            want_fib = [np.array(want_fib).reshape(-1, len(fib_plans[0][0]))]
            want_fib += [dense[r][1].ravel()[None] for r in np.flatnonzero(~finite_a)]
            assert np.array_equal(fia.view(np.int64),
                                  np.array(want_fia).reshape(fia.shape).view(np.int64))
            for entries, expected in zip(fib, want_fib):
                assert np.array_equal(entries.view(np.int64), expected.view(np.int64))


def test_random_quasisymmetric_fields_share_one_fi_plan():
    # the plan is keyed by (n, support bytes), never by the field; a scan
    # looks it up once, when it is built
    from ghm import identities, systems

    first = systems.build("quasisymmetry", psi="x1^2 + x2^2 + x1", bvec=("-x2", "x1", "2 + x3"))
    second = systems.build("quasisymmetry", psi="x1^2 + 2*x2^2", bvec=("-x2", "x1 + x3", "1 + x3"))
    pts = [(1.0, 0.5, 0.3), (1.5, -0.7, 0.1)]
    fundamental_identity_residual(first.tensor, pts)
    before = identities._fib_plan.cache_info()
    fundamental_identity_residual(second.tensor, pts)
    after = identities._fib_plan.cache_info()
    assert second.tensor is not first.tensor
    assert after.misses == before.misses and after.hits == before.hits + 1


def test_a_tensor_is_freed_after_its_fi_scan_without_the_collector():
    # the plan cache holds support bytes and index arrays, nothing that refers
    # back to the field
    import gc
    import weakref

    J = MultiVectorField(4, 3, {(1, 2, 3): parse("x4", 4), (1, 2, 4): parse("1 + x1*x3", 4),
                                (2, 3, 4): parse("x2", 4)})
    gc.disable()
    try:
        fundamental_identity_residual(J, [(0.3, -0.2, 0.5, 0.1), (0.1, 0.4, -0.7, 0.2)])
        ref = weakref.ref(J)
        del J
        assert ref() is None
    finally:
        gc.enable()


def test_of_two_faults_the_earlier_point_wins_then_the_earlier_scan():
    # dw of sqrt(x2) dx1 faults where x2 < 0; the divergence of x1 log(x1)
    # d1^d2^d3 faults where x1 <= 0.  One bundle evaluates every scan at a
    # point before the next point; the former path ran one scan over every
    # point before the next scan.
    from ghm.errors import EvalDomainError
    from ghm.identities import closure_scan, measure_scan, run_scans
    from oracles import reference_closure_residual, reference_measure_residual

    w = FormField(3, 1, {(1,): parse("sqrt(x2)", 3)})
    J = MultiVectorField(3, 3, {(1, 2, 3): parse("x1*log(x1)", 3)})
    measure_faults, closure_faults, both_fault = (-1.0, 1.0, 0.5), (1.0, -1.0, 0.5), (-1.0, -1.0, 0.5)
    closure_msg, measure_msg = "sqrt of negative value at node sqrt(x2)", \
        "log of nonpositive value at node log(x1)"
    points = [measure_faults, closure_faults]
    # the former path: the closure scan, first, reaches its fault at the
    # second point before the measure scan runs; each fault alone
    with pytest.raises(EvalDomainError, match=re.escape(closure_msg)):
        reference_closure_residual(w, points)
    with pytest.raises(EvalDomainError, match=re.escape(measure_msg)):
        reference_measure_residual(J, 1.0, points)
    for pts, msg in ((points, measure_msg), (points[::-1], closure_msg), ([both_fault], closure_msg)):
        with pytest.raises(EvalDomainError, match=re.escape(msg)):
            run_scans([closure_scan(w), measure_scan(J, 1.0)], pts)


def test_a_weight_that_vanishes_is_named_in_point_order():
    # the weight x1 vanishes at the second point; the FI scan, first in scan
    # order, faults at the third
    from ghm.errors import EvalDomainError
    from ghm.identities import fundamental_identity_scan, measure_scan, run_scans

    J = MultiVectorField(3, 3, {(1, 2, 3): parse("log(x2)", 3)})
    g = ScalarField(3, ex.Coord(1))
    points = [(0.5, 1.0, 0.0), (0.0, 1.0, 0.0), (0.5, -1.0, 0.0)]
    with pytest.raises(EvalDomainError, match=re.escape("measure weight vanishes at (0.0, 1.0, 0.0)")):
        run_scans([fundamental_identity_scan(J), measure_scan(J, g)], points)
    with pytest.raises(EvalDomainError, match="log of nonpositive value"):
        run_scans([fundamental_identity_scan(J), measure_scan(J, g)], points[::2])


@pytest.mark.parametrize("block", [1, 2, None])
def test_errors_keep_their_point_order_in_any_block(block):
    # blocks of one point, of two, and the default; the rows are evaluated a
    # block at a time, but a step's fault at a point still beats a row fault
    # at a later one
    from ghm import identities
    from ghm.errors import EvalDomainError
    from ghm.identities import closure_scan, fundamental_identity_scan, measure_scan, run_scans

    J = MultiVectorField(3, 3, {(1, 2, 3): parse("log(x2)", 3)})
    g = ScalarField(3, ex.Coord(1))
    ok, vanish, fault = (0.5, 1.0, 0.0), (0.0, 1.0, 0.0), (0.5, -1.0, 0.0)
    with pytest.MonkeyPatch.context() as patch:
        if block is not None:
            patch.setattr(identities, "SCAN_BLOCK_FLOATS", block)
        for points in ([vanish, fault], [ok, vanish, fault], [ok, ok, vanish, ok, fault]):
            with pytest.raises(EvalDomainError, match=re.escape(f"measure weight vanishes at {vanish}")):
                run_scans([fundamental_identity_scan(J), measure_scan(J, g)], points)
        with pytest.raises(EvalDomainError, match="log of nonpositive value"):
            run_scans([fundamental_identity_scan(J), measure_scan(J, g)], [ok, fault, vanish])
        # zero points is an input error for every scan
        with pytest.raises(InputError, match="fundamental-identity: no sample points"):
            run_scans([fundamental_identity_scan(J), measure_scan(J, g)], [])
        # a top-degree form has no dw terms, and its closure still reports
        top = FormField(3, 3, {(1, 2, 3): parse("x1*x2", 3)})
        reps = run_scans([closure_scan(top), measure_scan(J, 1.0)], [ok, fault[::-1], ok])
        assert (reps[0].name, reps[0].max_residual, reps[0].argmax_index, reps[0].argmax_point,
                reps[0].samples) == ("closure", 0.0, (), ok, 3)


def test_the_dense_fib_of_a_non_finite_row_sums_in_the_written_order():
    # entries of 2^53 and 1 make a sum of six products depend on its order;
    # one inf makes the row non-finite, as at the rows the dense kernel serves
    from ghm.identities import _FIB_TERMS, _dense_fib

    rng = np.random.default_rng(7)
    A = rng.choice([0.0, -0.0, 1.0, -1.0, 3.0, 2.0 ** 53, -(2.0 ** 53)], size=(4, 4, 4))
    A[1, 2, 3] = np.inf
    with np.errstate(invalid="ignore"):
        got = _dense_fib(A)
        want = reference_dense_fundamental_identity_arrays(A, np.zeros((4,) * 4))[1]
        P = np.multiply.outer(A, A) + 0.0
        reversed_order = P.transpose(_FIB_TERMS[5])
        for t in _FIB_TERMS[4::-1]:
            reversed_order = reversed_order + P.transpose(t)
    assert np.array_equal(got.view(np.int64), want.view(np.int64))
    assert not np.array_equal(reversed_order.view(np.int64), want.view(np.int64))


def test_a_non_finite_point_builds_no_every_position_plan():
    # at n = 6 a plan of every FIb position would hold n^6 entries; a point
    # where J is not finite reads FIb from the dense outer product instead,
    # so the scan builds only its two support plans, and the plan cache
    # keeps only the FIb support plan
    from ghm import identities

    n = 6
    overflow = parse("1 + x1^2*1e308", n)  # inf where x1 > 1.34
    J = MultiVectorField(n, 3, {(1, 2, 3): overflow, (4, 5, 6): parse("x2", n),
                                (1, 4, 5): parse("x3 - x1", n)})
    points = [(0.5, 0.2, 0.1, 0.0, 0.0, 0.0), (3.0, 0.2, 0.1, 0.0, 0.0, 0.0),
              (0.1, -0.3, 0.4, 0.0, 0.0, 0.0)]
    identities._fib_plan.cache_clear()
    identities._fia_plan.cache_clear()
    masks, term_sources = [], identities._term_sources

    def recorded(mask, terms):
        masks.append(mask.shape)
        return term_sources(mask, terms)

    with np.errstate(over="ignore", invalid="ignore"), pytest.MonkeyPatch.context() as patch:
        patch.setattr(identities, "_term_sources", recorded)
        rep = fundamental_identity_residual(J, points)
        ref = reference_fundamental_identity_residual(J, points)
    assert not np.isfinite(J.coefficient_values(points[1])).all()
    assert (rep.argmax_point, _bits(rep.signed_at_argmax), rep.argmax_index, rep.detail) == \
        (ref.argmax_point, _bits(ref.signed_at_argmax), ref.argmax_index, ref.detail)
    assert masks == [(n,) * 5, (n,) * 6]
    info = identities._fib_plan.cache_info()
    assert (info.misses, info.currsize) == (1, 1)
    support = identities._jet_support(J)[0].tobytes()
    assert len(identities._fib_plan(n, support)[0]) < n ** 6
    assert identities._fib_plan.cache_info().hits == info.hits + 1
