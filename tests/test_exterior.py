import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import ghm.expr as ex
from ghm.errors import DimensionError
from ghm.expr import ScalarField, parse
from ghm.exterior import (
    FormField,
    FormValue,
    MultiVectorField,
    MultiVectorValue,
    PointMap,
    VectorField,
    exterior_derivative,
    grad_field,
    hdw_vs_bracket_sign,
    increasing_indices,
    interior,
    interior_vector,
    interior_vector_field,
    inverse_law_sign,
    lie_derivative,
    nan_max,
    pullback_with_jacobian,
    sort_with_sign,
    wedge,
)

from ghm import systems
from oracles import (
    ReferenceValue,
    dense_exterior_derivative,
    dense_interior,
    dense_pairing,
    dense_wedge,
    reference_field_add,
    reference_field_constant,
    reference_component,
    reference_divergence_expr,
    reference_field_wedge,
    reference_interior,
    reference_interior_field,
    reference_pullback_with_jacobian,
    reference_wedge,
)


def test_sort_with_sign():
    assert sort_with_sign((1, 2, 3)) == ((1, 2, 3), 1)
    assert sort_with_sign((3, 1, 2)) == ((1, 2, 3), 1)
    assert sort_with_sign((2, 1, 3)) == ((1, 2, 3), -1)
    assert sort_with_sign((1, 1, 2)) == ((1, 1, 2), 0)
    assert sort_with_sign(()) == ((), 1)


def test_wedge_basis_cases():
    dx1 = FormValue(3, 1, {(1,): 1.0})
    dx2 = FormValue(3, 1, {(2,): 1.0})
    dx3 = FormValue(3, 1, {(3,): 1.0})
    assert wedge(dx1, dx2).coeffs == {(1, 2): 1.0}
    assert wedge(dx1, dx1).coeffs == {}
    mixed = FormValue(3, 1, {(1,): 1.0, (2,): 2.0})
    assert wedge(mixed, dx3).coeffs == {(1, 3): 1.0, (2, 3): 2.0}


def test_wedge_multivector_sorts_with_sign():
    d3 = MultiVectorValue(3, 1, {(3,): 1.0})
    d1 = MultiVectorValue(3, 1, {(1,): 1.0})
    d2 = MultiVectorValue(3, 1, {(2,): 1.0})
    out = wedge(wedge(d3, d1), d2)
    assert out.coeffs == {(1, 2, 3): 1.0}


def _random_value(rng, n, k, cls=FormValue):
    keys = list(itertools.combinations(range(1, n + 1), k))
    coeffs = {key: float(rng.standard_normal()) for key in keys if rng.random() < 0.7}
    return cls(n, k, coeffs)


def _one_form(alpha):
    """The 1-form value of components alpha_1..alpha_n."""
    return FormValue(len(alpha), 1, {(j,): a for j, a in enumerate(alpha, 1)})


def test_wedge_against_dense_oracle():
    rng = np.random.default_rng(3)
    for n, k, l in [(4, 1, 2), (5, 2, 2), (6, 2, 3), (5, 1, 1)]:
        a = _random_value(rng, n, k)
        b = _random_value(rng, n, l)
        got = wedge(a, b).coeffs
        want = dense_wedge(a.coeffs, b.coeffs, k, l)
        keys = set(got) | set(want)
        for key in keys:
            assert got.get(key, 0.0) == pytest.approx(want.get(key, 0.0), abs=1e-12)


def test_wedge_graded_anticommutative():
    rng = np.random.default_rng(5)
    for n, k, l in [(5, 1, 1), (5, 1, 2), (6, 2, 2), (6, 2, 3), (6, 3, 3)]:
        a = _random_value(rng, n, k)
        b = _random_value(rng, n, l)
        ab = wedge(a, b)
        ba = wedge(b, a).scale((-1.0) ** (k * l))
        assert (ab - ba).max_abs() <= 1e-12


def test_wedge_odd_degree_squares_to_zero():
    rng = np.random.default_rng(7)
    for n, k in [(5, 1), (6, 3)]:
        a = _random_value(rng, n, k)
        assert wedge(a, a).max_abs() <= 1e-12


def test_interior_vector_slot_signs():
    w = FormValue(3, 3, {(1, 2, 3): 1.0})
    assert interior_vector((1, 0, 0), w).coeffs == {(2, 3): 1.0}
    assert interior_vector((0, 0, 1), w).coeffs == {(1, 2): 1.0}
    assert interior_vector((0, 1, 0), w).coeffs == {(1, 3): -1.0}


def test_interior_vector_general_expansion():
    w = FormValue(3, 3, {(1, 2, 3): 1.0})
    X = (0.3, -0.7, 1.1)
    got = interior_vector(X, w)
    assert got.coeffs[(2, 3)] == pytest.approx(0.3)
    assert got.coeffs[(1, 3)] == pytest.approx(0.7)
    assert got.coeffs[(1, 2)] == pytest.approx(1.1)


def test_interior_vector_against_dense_oracle():
    # interior_vector and interior by a 1-form, then interior by every degree
    # m >= 2 up to k, in both variances
    rng = np.random.default_rng(11)

    def assert_matches(got, by, m, target):
        want = dense_interior(by, m, target.coeffs, target.n, target.k)
        assert got.k == target.k - m
        for key in set(got.coeffs) | set(want):
            assert got.coeffs.get(key, 0.0) == pytest.approx(want.get(key, 0.0), abs=1e-12)

    for n, k in [(4, 2), (5, 3), (6, 4)]:
        w = _random_value(rng, n, k)
        X = rng.standard_normal(n)
        assert_matches(interior_vector(X, w), {(j,): x for j, x in enumerate(X, 1)}, 1, w)
        J = _random_value(rng, n, k, MultiVectorValue)
        alpha = rng.standard_normal(n)
        assert_matches(interior(_one_form(alpha), J),
                       {(j,): a for j, a in enumerate(alpha, 1)}, 1, J)
        for m in range(2, k + 1):
            A = _random_value(rng, n, m, MultiVectorValue)
            assert_matches(interior(A, w), A.coeffs, m, w)
            B = _random_value(rng, n, m)
            assert_matches(interior(B, J), B.coeffs, m, J)


def test_interior_form_mirror():
    J = MultiVectorValue(3, 3, {(1, 2, 3): 1.0})
    step1 = interior(_one_form((0, 1, 0)), J)
    assert step1.coeffs == {(1, 3): -1.0}
    step2 = interior(_one_form((0, 0, 1)), step1)
    assert step2.coeffs == {(1,): 1.0}
    J4 = MultiVectorValue(4, 3, {(1, 2, 3): 1.0})
    assert interior(_one_form((0, 0, 0, 1)), J4).coeffs == {}


def test_interior_multi_two_step():
    J = MultiVectorValue(3, 3, {(1, 2, 3): 1.0})
    w12 = FormValue(3, 2, {(1, 2): 1.0})
    assert interior(w12, J).coeffs == {(3,): 1.0}


def test_interior_multi_reduces_to_pairing():
    rng = np.random.default_rng(13)
    for n, k in [(4, 2), (5, 3)]:
        w = _random_value(rng, n, k)
        J = _random_value(rng, n, k, MultiVectorValue)
        via_multi = interior(w, J)
        assert via_multi.k == 0
        assert via_multi.coeffs.get((), 0.0) == pytest.approx(dense_pairing(J.coeffs, w.coeffs),
                                                              abs=1e-12)


def test_interior_multi_matches_iterated_single():
    rng = np.random.default_rng(17)
    n = 6
    for k, m in [(2, 1), (3, 2), (4, 3), (4, 4)]:
        J = _random_value(rng, n, k, MultiVectorValue)
        w = _random_value(rng, n, m)
        got = interior(w, J)
        expect = MultiVectorValue(n, k - m)
        for key, c in w.coeffs.items():
            term = J
            for axis in key:
                alpha = [0.0] * n
                alpha[axis - 1] = 1.0
                term = interior(_one_form(alpha), term)
            expect = expect + term.scale(c)
        assert (got - expect).max_abs() <= 1e-12


def test_iterated_contraction_order_identity():
    # iota_{dC ^ dH} J = iota_{dH} iota_{dC} J on random inputs
    rng = np.random.default_rng(19)
    n = 5
    for _ in range(10):
        J = _random_value(rng, n, 3, MultiVectorValue)
        dC = rng.standard_normal(n)
        dH = rng.standard_normal(n)
        w = wedge(FormValue(n, 1, {(i,): dC[i - 1] for i in range(1, n + 1)}),
                  FormValue(n, 1, {(i,): dH[i - 1] for i in range(1, n + 1)}))
        lhs = interior(w, J)
        rhs = interior(_one_form(dH), interior(_one_form(dC), J))
        assert (lhs - rhs).max_abs() <= 1e-12


def test_delta_expansion_identity():
    # iota_{dx^{mn}} d_{ijk} = delta^{mn}_{ij} d_k + delta^{mn}_{jk} d_i - delta^{mn}_{ik} d_j
    n = 5
    for m, nn in itertools.combinations(range(1, n + 1), 2):
        w = FormValue(n, 2, {(m, nn): 1.0})
        for i, j, k in itertools.combinations(range(1, n + 1), 3):
            J = MultiVectorValue(n, 3, {(i, j, k): 1.0})
            got = interior(w, J)
            want = MultiVectorValue(n, 1)
            if (m, nn) == (i, j):
                want = want + MultiVectorValue(n, 1, {(k,): 1.0})
            if (m, nn) == (j, k):
                want = want + MultiVectorValue(n, 1, {(i,): 1.0})
            if (m, nn) == (i, k):
                want = want + MultiVectorValue(n, 1, {(j,): -1.0})
            assert (got - want).max_abs() == 0.0


def test_double_contraction_vanishes():
    rng = np.random.default_rng(23)
    for n, k in [(4, 2), (5, 3), (6, 4)]:
        w = _random_value(rng, n, k)
        X = rng.standard_normal(n)
        out = interior_vector(X, interior_vector(X, w))
        assert out.max_abs() <= 1e-12


def test_interior_by_multivector_mirror():
    w = FormValue(3, 3, {(1, 2, 3): 1.0})
    J = MultiVectorValue(3, 2, {(1, 2): 1.0})
    # iota_{d_{12}} dx^{123} = iota_{d_2} iota_{d_1} dx^{123} = iota_{d_2} dx^{23} = dx^3
    assert interior(J, w).coeffs == {(3,): 1.0}


# ---------------------------------------------------------------------------
# Fields
# ---------------------------------------------------------------------------

def test_exterior_derivative_basic():
    w = FormField(2, 1, {(1,): ex.Coord(2)})  # x2 dx1
    dw = exterior_derivative(w)
    assert dw.at((0.0, 0.0)).coeffs == {(1, 2): -1.0}


def test_exterior_derivative_top_form_is_zero():
    w = FormField(3, 3, {(1, 2, 3): ex.Coord(1)})
    dw = exterior_derivative(w)
    assert dw.k == 4 and dw.coeffs == {}


def test_exterior_derivative_fourdim_cases():
    x4 = ex.Coord(4)
    omega = FormField(4, 2, {(1, 2): x4, (3, 4): x4})
    w = FormField(4, 3, {(1, 2, 4): x4})  # omega ^ dx4
    domega = exterior_derivative(omega)
    assert domega.at((0.3, 0.1, -0.2, 1.7)).coeffs == {(1, 2, 4): 1.0}
    assert exterior_derivative(w).coeffs == {}


def test_exterior_derivative_against_fd_oracle():
    rng = np.random.default_rng(29)
    n, k = 4, 2
    keys = list(itertools.combinations(range(1, n + 1), k))
    coeffs = {}
    fns = {}
    for key in keys:
        f = ScalarField.from_text(
            f"x1^2*x{key[0]} - 0.5*x{key[1]}*x3 + x4", n)
        coeffs[key] = f.expression
        fns[key] = f
    w = FormField(n, k, coeffs)
    dw = exterior_derivative(w)
    for _ in range(5):
        p = rng.uniform(-1, 1, size=n)
        got = dw.at(p)
        want = dense_exterior_derivative(fns, p, n, k)
        for key, v in want.items():
            assert got.coeffs.get(key, 0.0) == pytest.approx(v, abs=1e-7)


def test_dd_is_zero_on_random_polynomials():
    rng = np.random.default_rng(31)
    n = 4
    terms = ["x1^2*x2", "x3*x4", "x2^3", "x1*x3*x4", "x4^2"]
    for k in (1, 2):
        keys = list(itertools.combinations(range(1, n + 1), k))
        coeffs = {key: parse(terms[i % len(terms)], n) for i, key in enumerate(keys)}
        w = FormField(n, k, coeffs)
        ddw = exterior_derivative(exterior_derivative(w))
        for _ in range(5):
            p = rng.uniform(-2, 2, size=n)
            assert ddw.at(p).max_abs() <= 1e-12


def test_lie_derivative_dilation():
    w = FormField(3, 3, {(1, 2, 3): ex.ONE})
    Z0 = VectorField(3, tuple(ex.div(ex.Coord(i), ex.const(3.0)) for i in (1, 2, 3)))
    lw = lie_derivative(Z0, w)
    assert lw.at((0.4, -0.2, 0.9)).coeffs == {(1, 2, 3): pytest.approx(1.0)}


def test_lie_derivative_constant_cases():
    w = FormField(2, 1, {(1,): ex.ONE})
    X = VectorField(2, (ex.ZERO, ex.ONE))
    assert lie_derivative(X, w).coeffs == {}


def test_lie_derivative_leibniz():
    rng = np.random.default_rng(37)
    n = 3
    f = ScalarField.from_text("x1*x2 + x3^2", n)
    w = FormField(n, 2, {(1, 2): parse("x3", n), (1, 3): parse("x1", n)})
    X = VectorField(n, (parse("x2", n), parse("-x1", n), parse("x1*x3", n)))
    fw = w.scale(f.expression)
    lhs = lie_derivative(X, fw)
    Xf = ex.ZERO
    for i, c in enumerate(X.components, start=1):
        Xf = ex.add(Xf, ex.mul(c, f.partial(i)))
    rhs = w.scale(Xf) + lie_derivative(X, w).scale(f.expression)
    for _ in range(10):
        p = rng.uniform(-1.5, 1.5, size=n)
        assert (lhs.at(p) - rhs.at(p)).max_abs() <= 1e-9


def test_pullback_linear_map():
    phi = PointMap(2, (parse("2*x1", 2), parse("x2", 2)))
    dx1 = FormValue(2, 1, {(1,): 1.0})
    out = pullback_with_jacobian(phi.jacobian((0.7, 0.3)), dx1)
    assert out.coeffs == {(1,): 2.0}


def test_pullback_identity():
    phi = PointMap.identity(3)
    rng = np.random.default_rng(41)
    w = _random_value(rng, 3, 2)
    out = pullback_with_jacobian(phi.jacobian((0.1, 0.2, 0.3)), w)
    assert (out - w).max_abs() == 0.0


_JACOBIAN_ENTRIES = st.one_of(st.floats(-3, 3, allow_subnormal=False),
                              st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5]))


@pytest.mark.parametrize("shape", ["any", "k=0", "k=n_src", "empty"])
@settings(max_examples=60, deadline=None, derandomize=True)
@given(data=st.data())
def test_stacked_pullback_is_the_per_minor_loop(shape, data):
    # square and rectangular J (a chart pullback has n_src < n); compared by
    # float.hex in key order, so each sum keeps its order and signed zeros
    n = data.draw(st.integers(1, 6))
    n_src = data.draw(st.integers(0, n))
    k = {"k=0": 0, "k=n_src": n_src}.get(shape)
    if k is None:
        k = data.draw(st.integers(0, n))
    keys = [] if shape == "empty" else data.draw(
        st.lists(st.sampled_from(increasing_indices(n, k)), unique=True, max_size=8))
    omega = FormValue(n, k, {key: data.draw(st.floats(-3, 3, allow_subnormal=False))
                             for key in keys})
    J = np.array(data.draw(st.lists(_JACOBIAN_ENTRIES, min_size=n * n_src,
                                    max_size=n * n_src))).reshape(n, n_src)
    got, want = pullback_with_jacobian(J, omega), reference_pullback_with_jacobian(J, omega)
    assert (got.n, got.k) == (want.n, want.k) == (n_src, k)
    assert [(key, type(c), float.hex(c)) for key, c in got.coeffs.items()] == \
        [(key, type(c), float.hex(c)) for key, c in want.coeffs.items()]


@settings(max_examples=60, deadline=None, derandomize=True)
@given(data=st.data())
def test_a_pullback_in_blocks_is_the_one_block_pullback_byte_for_byte(data):
    # blocks of keys as small as one key per det call; compared by float.hex
    from ghm import exterior

    n = data.draw(st.integers(1, 6))
    n_src = data.draw(st.integers(0, n))
    k = data.draw(st.integers(0, n))
    keys = data.draw(st.lists(st.sampled_from(increasing_indices(n, k)), unique=True,
                              max_size=12))
    omega = FormValue(n, k, {key: data.draw(st.floats(-3, 3, allow_subnormal=False))
                             for key in keys})
    J = np.array(data.draw(st.lists(_JACOBIAN_ENTRIES, min_size=n * n_src,
                                    max_size=n * n_src))).reshape(n, n_src)
    whole = pullback_with_jacobian(J, omega)
    default = exterior.PULLBACK_BLOCK_FLOATS
    exterior.PULLBACK_BLOCK_FLOATS = data.draw(st.integers(1, 100))
    try:
        blocked = pullback_with_jacobian(J, omega)
    finally:
        exterior.PULLBACK_BLOCK_FLOATS = default
    assert [(key, float.hex(c)) for key, c in blocked.coeffs.items()] == \
        [(key, float.hex(c)) for key, c in whole.coeffs.items()]


# table entries: 0.0 at some points of a key and not at others, NaN and
# inf, and 2^53, which absorbs a 1 that 2^53 - 1 keeps, so the order of a
# sum shows; Jacobian entries whose minors are small integers, scaled by
# 1e200 in some stacks so that every minor of degree 2 or more overflows
_TABLE_ENTRIES = st.sampled_from((0.0, -0.0, 0.0, 1.0, -1.0, 0.5, 2.0 ** 53, 2.0 ** 53 - 1,
                                  -(2.0 ** 53), np.nan, np.inf))
_STACK_JACOBIAN_ENTRIES = st.sampled_from((0.0, -0.0, 1.0, -1.0, 1.0, 2.0, -3.0, 0.5))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(data=st.data())
def test_a_stacked_pullback_is_the_one_point_pullback_of_each_row(data):
    # a (points x keys) table of coefficients through a stack of Jacobians,
    # in drawn blocks of points and keys, against a one-point call on each
    # row's value (which drops its 0.0 entries) and the per-minor loop, by
    # float.hex of every source key's coefficient (absent ones read +0.0)
    from ghm import exterior

    n = data.draw(st.integers(1, 5), label="n")
    n_src = data.draw(st.integers(0, n), label="n_src")
    k = data.draw(st.integers(0, n), label="k")
    keys = data.draw(st.lists(st.sampled_from(increasing_indices(n, k)), unique=True,
                              max_size=8), label="keys")
    count = data.draw(st.integers(0, 6), label="points")
    table = np.array(data.draw(st.lists(_TABLE_ENTRIES, min_size=count * len(keys),
                                        max_size=count * len(keys)), label="table"))
    table = table.reshape(count, len(keys))
    J = np.array(data.draw(st.lists(_STACK_JACOBIAN_ENTRIES, min_size=count * n * n_src,
                                    max_size=count * n * n_src), label="J"))
    J = J.reshape(count, n, n_src) * data.draw(st.sampled_from((1.0, 1e200)), label="scale")
    form = FormField(n, k, {key: ex.const(1.0) for key in keys})
    block = data.draw(st.sampled_from((1, 4, 30, exterior.PULLBACK_BLOCK_FLOATS)), label="block")
    sources = increasing_indices(n_src, k)

    def hexes(value):
        return [float.hex(value.coeffs.get(I, 0.0)) for I in sources]

    with np.errstate(all="ignore"), pytest.MonkeyPatch.context() as patch:
        rows = [FormValue(n, k, dict(zip(keys, row))) for row in table.tolist()]
        want = [hexes(reference_pullback_with_jacobian(Jp, row)) for Jp, row in zip(J, rows)]
        one = [hexes(pullback_with_jacobian(Jp, row)) for Jp, row in zip(J, rows)]
        patch.setattr(exterior, "PULLBACK_BLOCK_FLOATS", block)
        stacked = pullback_with_jacobian(J, form, table)
    assert stacked.shape == (count, len(sources))
    assert [[float.hex(c) for c in row] for row in stacked.tolist()] == one == want


def test_a_pullback_stacks_at_most_a_block_of_minors(monkeypatch):
    # a full 4-form on R^8: 70 keys x 70 minors of 4 x 4 floats, in blocks of 4 keys
    from ghm import exterior

    rng = np.random.default_rng(3)
    omega = FormValue(8, 4, {key: float(rng.uniform(-1, 1)) for key in increasing_indices(8, 4)})
    J = rng.uniform(-1, 1, size=(8, 8))
    whole = pullback_with_jacobian(J, omega)
    det, stacks = np.linalg.det, []

    def recorded(a):
        stacks.append(a.size)
        return det(a)

    monkeypatch.setattr(exterior, "PULLBACK_BLOCK_FLOATS", 5000)
    monkeypatch.setattr(np.linalg, "det", recorded)
    blocked = pullback_with_jacobian(J, omega)
    assert stacks == [4 * 70 * 16] * 17 + [2 * 70 * 16]
    assert [(key, float.hex(c)) for key, c in blocked.coeffs.items()] == \
        [(key, float.hex(c)) for key, c in whole.coeffs.items()]


def _random_affine(rng, n):
    A = rng.uniform(-1, 1, size=(n, n)) + np.eye(n)
    b = rng.uniform(-1, 1, size=n)
    comps = []
    for row in range(n):
        e = ex.const(b[row])
        for col in range(n):
            e = ex.add(e, ex.mul(ex.const(A[row, col]), ex.Coord(col + 1)))
        comps.append(e)
    return PointMap(n, tuple(comps))


def test_pullback_functoriality_affine():
    rng = np.random.default_rng(43)
    n = 3
    for _ in range(5):
        phi = _random_affine(rng, n)
        psi = _random_affine(rng, n)
        inner = dict(enumerate(psi.components, start=1))
        comp = PointMap(n, tuple(ex.substitute(c, inner) for c in phi.components))
        w = _random_value(rng, n, 2)
        p = rng.uniform(-1, 1, size=n)
        direct = pullback_with_jacobian(comp.jacobian(p), w)
        mid = pullback_with_jacobian(phi.jacobian(psi.at(p)), w)
        staged = pullback_with_jacobian(psi.jacobian(p), mid)
        assert (direct - staged).max_abs() <= 1e-12


def test_pointmap_jacobian_matches_fd():
    phi = PointMap(2, (parse("x1^2 + x2", 2), parse("sin(x1)*x2", 2)))
    p = (0.4, -1.1)
    J = phi.jacobian(p)
    step = 1e-6
    for i in range(2):
        up = list(p)
        dn = list(p)
        up[i] += step
        dn[i] -= step
        col = (phi.at(up) - phi.at(dn)) / (2 * step)
        assert np.allclose(J[:, i], col, atol=1e-6)


def test_sign_tables():
    assert [inverse_law_sign(k) for k in (2, 3, 4, 5, 6)] == [-1, 1, -1, 1, -1]
    assert [hdw_vs_bracket_sign(k) for k in (2, 3, 4, 5, 6)] == [-1, -1, 1, 1, -1]


def test_inverse_law_sign_realized_on_canonical_pairs():
    for n in (2, 3, 4, 5):
        k = n
        w = FormValue(n, k, {tuple(range(1, k + 1)): 1.0})
        J = MultiVectorValue(n, k, {tuple(range(1, k + 1)): 1.0})
        for j in range(1, n + 1):
            X = [0.0] * n
            X[j - 1] = 1.0
            back = interior(interior_vector(X, w), J)
            assert back.coeffs == {(j,): float(inverse_law_sign(k))}


def test_grad_and_interior_vector_field():
    f = ScalarField.from_text("x1*x2", 2)
    df = grad_field(f)
    assert df.at((3.0, 5.0)).coeffs == {(1,): 5.0, (2,): 3.0}
    w = FormField(2, 2, {(1, 2): ex.ONE})
    X = VectorField(2, (parse("x2", 2), parse("-x1", 2)))
    iw = interior_vector_field(X, w)
    assert iw.at((1.0, 2.0)).coeffs == {(1,): 1.0, (2,): 2.0}


# ---------------------------------------------------------------------------
# One container under values and fields
# ---------------------------------------------------------------------------

# ints, signed zeros, the float range's ends, subnormals, infinities, NaN and
# numpy scalars: every kind of coefficient a value may be built from
PLAIN_POOL = [0, 1, -2, 3, 0.0, -0.0, 1.5, -0.25, 1e308, -1e308, 5e-324, -5e-324,
              1.1e-308, math.inf, -math.inf, math.nan]
NUMPY_POOL = [np.float64(0.7), np.float64(-0.0), np.float64(-1e308), np.float64(math.nan),
              np.int64(2), np.int64(0)]
COEFFICIENT = st.one_of(st.sampled_from(PLAIN_POOL), st.sampled_from(NUMPY_POOL))


def _hexed(c):
    return type(c), float.hex(float(c))


def _digest(value):
    """Type, bits and order of every coefficient, and the printed form."""
    return (value.n, value.k, [(key, *_hexed(c)) for key, c in value.coeffs.items()],
            repr(value))


def _outcome(build):
    try:
        with np.errstate(all="ignore"):
            return "value", _digest(build())
    except DimensionError as exc:
        return "error", str(exc)


@st.composite
def _coefficients(draw, n, k, any_keys):
    if any_keys:  # unsorted, repeated, out of range and wrong-degree keys
        keys = st.lists(st.integers(0, n + 1), max_size=n + 1).map(tuple)
    else:
        keys = st.lists(st.integers(1, n), min_size=k, max_size=k).map(tuple)
    return draw(st.dictionaries(keys, COEFFICIENT, min_size=1, max_size=4))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(data=st.data())
def test_value_container_matches_the_separate_ring_bodies(data):
    """Construction, +, -, scale, wedge and component on values give the
    coefficient types, bits and key order of the float ring written out on
    its own (``oracles.ReferenceValue``)."""
    n = data.draw(st.integers(1, 4))
    cls = data.draw(st.sampled_from([FormValue, MultiVectorValue]))
    k, l = data.draw(st.integers(0, n)), data.draw(st.integers(0, n))
    any_keys = data.draw(st.booleans())
    raw = [(data.draw(_coefficients(n, deg, any_keys)), deg) for deg in (k, k, l)]
    for coeffs, deg in raw:
        assert _outcome(lambda: cls(n, deg, coeffs)) == \
            _outcome(lambda: ReferenceValue(cls.__name__, n, deg, coeffs))
    normalized = data.draw(st.dictionaries(st.sampled_from(increasing_indices(n, k)),
                                           COEFFICIENT, max_size=4))
    assert _outcome(lambda: cls(n, k, normalized, _normalized=True)) == \
        _outcome(lambda: ReferenceValue(cls.__name__, n, k, normalized, _normalized=True))
    if any_keys:
        return

    (a, _), (a2, _), (b, _) = raw
    got = [cls(n, k, a), cls(n, k, a2), cls(n, l, b)]
    ref = [ReferenceValue(cls.__name__, n, k, a), ReferenceValue(cls.__name__, n, k, a2),
           ReferenceValue(cls.__name__, n, l, b)]
    factor = data.draw(COEFFICIENT)
    for op in (lambda x, y, z: wedge(x, z) if isinstance(x, cls) else reference_wedge(x, z),
               lambda x, y, z: x + y, lambda x, y, z: x - y,
               lambda x, y, z: x.scale(factor)):
        assert _outcome(lambda: op(*got)) == _outcome(lambda: op(*ref))
    for indices in data.draw(st.lists(st.lists(st.integers(1, n), min_size=k, max_size=k),
                                      max_size=3)):
        assert _hexed(got[0].component(indices)) == _hexed(ref[0].component(indices))


def _builtin_fields():
    out = []
    for name in sorted(systems.CATALOG):
        s = systems.build(name)
        grads = [grad_field(h) for h in s.hamiltonians]
        out += [(f, g) for f in (s.form, s.sigma()) if f is not None for g in grads]
        if s.tensor is not None:
            out.append((s.tensor, s.bracket_field.as_multivector()))
    return out


def test_a_divergence_is_the_node_the_former_per_component_sum_built():
    # the bracket fields of the built-ins and of a quasisymmetric field with
    # drawn constants, whose divergence does not vanish
    import ghm.identities

    rng = np.random.default_rng(17)
    a, b, c = (round(float(v), 4) for v in rng.uniform(0.05, 0.3, 3))
    drawn = systems.quasisymmetry(psi=f"x1^2 + x2^2 + {a}*x1*x3",
                                  bvec=(f"-x2 + {b}*x3", "x1", f"1 + x3 + {c}*x1^2"))
    fields = [systems.build(name).bracket_field for name in sorted(systems.CATALOG)]
    for X in fields + [drawn.bracket_field]:
        assert X.divergence_expr() is reference_divergence_expr(X)
    assert not ex.is_zero(drawn.bracket_field.divergence_expr())
    assert ghm.identities.divergence_exprs is ghm.exterior.divergence_exprs


def test_field_wedge_constant_and_sum_build_the_same_nodes():
    """On the built-in systems' structures, ``wedge``, ``constant`` and ``+``
    on fields store, key by key in the same order, the very interned nodes
    of the expression ring written out on its own."""
    pairs = _builtin_fields()
    assert len(pairs) > 8
    for a, b in pairs:
        for got, want in ((wedge(a, b).coeffs, reference_field_wedge(a, b)),
                          ((a + a).coeffs, reference_field_add(a, a)),
                          ((b + b).coeffs, reference_field_add(b, b))):
            assert list(got) == list(want)
            assert all(got[key] is want[key] for key in want)
    for cls in (FormField, MultiVectorField):
        coeffs = {(2, 1, 3): 1.0, (1, 2, 4): -0.5, (3, 4, 1): 2.0, (1, 1, 2): 7.0}
        got = cls.constant(4, 3, coeffs).coeffs
        want = reference_field_constant(4, 3, coeffs)
        assert list(got) == list(want)
        assert all(got[key] is want[key] for key in want)


def _drawn_keys(data, n, deg, ascending):
    keys = data.draw(st.lists(st.sampled_from(increasing_indices(n, deg)), unique=True,
                              max_size=6))
    return sorted(keys) if ascending else keys


# interned coefficients, some of which cancel in a sum
INTERIOR_POOL = ["x{i}", "-x{i}", "x{i}*x{j}", "x{i} - x{j}", "2.5", "-1", "sin(x{i})"]


@settings(max_examples=200, deadline=None, derandomize=True)
@given(data=st.data())
def test_field_interior_builds_the_nodes_of_the_slot_loop(data):
    """``interior`` on fields, by every degree 1..k in both variances and
    with keys and axes given in any order, stores for each key the very
    interned node of the slot-by-slot oracle, and in the oracle's key order
    whenever the keys of ``by`` are ascending."""
    n = data.draw(st.integers(1, 6))
    k = data.draw(st.integers(1, n))
    m = data.draw(st.integers(1, k))
    target_cls, by_cls = data.draw(st.sampled_from([(FormField, MultiVectorField),
                                                    (MultiVectorField, FormField)]))

    def field(cls, deg):
        coeffs = {}
        for key in _drawn_keys(data, n, deg, data.draw(st.booleans())):
            i, j = data.draw(st.integers(1, n)), data.draw(st.integers(1, n))
            text = data.draw(st.sampled_from(INTERIOR_POOL)).format(i=i, j=j)
            coeffs[tuple(data.draw(st.permutations(key)))] = parse(text, n)
        return cls(n, deg, coeffs)

    T, by = field(target_cls, k), field(by_cls, m)
    got, want = interior(by, T), reference_interior_field(by, T)
    assert type(got) is target_cls and got.k == k - m
    assert set(got.coeffs) == set(want)
    assert all(got.coeffs[key] is want[key] for key in want)
    if list(by.coeffs) == sorted(by.coeffs):
        assert list(got.coeffs) == list(want)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(data=st.data())
def test_value_interior_sums_in_target_key_order(data):
    """``interior`` on values sums each key's terms in target-key order: bit
    for bit the by-key-major reference when the target's keys are
    lexicographic and ``by`` is a degree-1 element with ascending keys, and
    otherwise within 1e-15 of the sum of the terms' magnitudes."""
    n = data.draw(st.integers(1, 6))
    k = data.draw(st.integers(1, n))
    m = data.draw(st.integers(1, k))
    target_cls, by_cls = data.draw(st.sampled_from([(FormValue, MultiVectorValue),
                                                    (MultiVectorValue, FormValue)]))
    coefficient = st.one_of(st.sampled_from([1.0, -1.0, 0.5, -2.0, 3.0]),
                            st.floats(-1e3, 1e3, allow_nan=False))
    lexicographic, ascending = data.draw(st.booleans()), data.draw(st.booleans())

    def value(cls, deg, ordered):
        return cls(n, deg, {key: data.draw(coefficient)
                            for key in _drawn_keys(data, n, deg, ordered)}, _normalized=True)

    T, by = value(target_cls, k, lexicographic), value(by_cls, m, ascending)
    got, want = interior(by, T), reference_interior(by, T)
    assert type(got) is target_cls and got.k == k - m
    if lexicographic and ascending and m == 1:
        assert {key: float.hex(c) for key, c in got.coeffs.items()} == \
            {key: float.hex(c) for key, c in want.coeffs.items()}
        return
    scale = {}  # the sum of the magnitudes of each key's terms
    for key, v in T.coeffs.items():
        for by_key, c in by.coeffs.items():
            if set(by_key) <= set(key):
                rest = tuple(a for a in key if a not in by_key)
                scale[rest] = scale.get(rest, 0.0) + abs(c * v)
    for key in set(got.coeffs) | set(want.coeffs):
        error = abs(got.coeffs.get(key, 0.0) - want.coeffs.get(key, 0.0))
        assert error <= 1e-15 * scale[key], key


def test_interior_rejects_what_the_reference_rejects():
    w = FormValue(3, 2, {(1, 2): 1.0})
    for by in (MultiVectorValue(4, 1, {(1,): 1.0}), MultiVectorValue(3, 3, {(1, 2, 3): 1.0})):
        with pytest.raises(DimensionError) as got:
            interior(by, w)
        with pytest.raises(DimensionError) as want:
            reference_interior(by, w)
        assert str(got.value) == str(want.value)


def test_interior_rejects_two_operands_of_the_same_variance():
    x1, x2 = parse("x1", 3), parse("x2", 3)
    pairs = [(FormValue(3, 1, {(1,): 1.0}), FormValue(3, 2, {(1, 2): 1.0})),
             (MultiVectorValue(3, 1, {(1,): 1.0}), MultiVectorValue(3, 2, {(1, 2): 1.0})),
             (FormField(3, 1, {(1,): x1}), FormField(3, 2, {(1, 2): x2})),
             (MultiVectorField(3, 1, {(1,): x1}), MultiVectorField(3, 2, {(1, 2): x2})),
             (FormValue(3, 1, {(1,): 1.0}), FormField(3, 2, {(1, 2): x2}))]
    for by, target in pairs:
        with pytest.raises(DimensionError, match="one form and one multivector"):
            interior(by, target)
    # opposite variances contract, in either ring
    assert interior(MultiVectorField(3, 1, {(1,): x1}), FormField(3, 2, {(1, 2): x2})).coeffs \
        == {(2,): ex.mul(x1, x2)}
    assert interior(FormValue(3, 1, {(1,): 2.0}), MultiVectorValue(3, 2, {(1, 2): 3.0})).coeffs \
        == {(2,): 6.0}


# coefficients that evaluate to +-0.0 at the drawn points, as well as others
GATHER_POOL = ["x{i}", "-x{i}", "x{i}*x{j}", "-x{i}*x{j} + 0.5*x{j}^3", "x{i}^2 - 1", "2.5",
               "sin(x{i})"]


@settings(max_examples=200, deadline=None, derandomize=True)
@given(data=st.data())
def test_gather_reads_every_component_as_the_entrywise_reference(data):
    # repeats, absent keys and every order of the axes, for values and jets;
    # compared by float.hex, so each signed zero counts
    n = data.draw(st.integers(1, 6))
    k = data.draw(st.integers(0, min(4, n)))
    cls = data.draw(st.sampled_from([FormField, MultiVectorField]))
    keys = data.draw(st.lists(st.sampled_from(increasing_indices(n, k)), unique=True,
                              max_size=6))
    coeffs = {}
    for key in keys:
        i, j = data.draw(st.integers(1, n)), data.draw(st.integers(1, n))
        coeffs[key] = parse(data.draw(st.sampled_from(GATHER_POOL)).format(i=i, j=j), n)
    field = cls(n, k, coeffs)
    indices = data.draw(st.lists(st.lists(st.integers(1, n), min_size=k, max_size=k).map(tuple),
                                 min_size=1, max_size=12))
    point = tuple(data.draw(st.lists(st.sampled_from([0.0, -0.0, 1.0, -1.5, 0.5]),
                                     min_size=n, max_size=n)))
    plan = field.gather_plan(indices)
    values = field.gather(plan, point)
    jet = field.gather(plan, point, jet=True)
    assert values.shape == (len(indices),) and jet.shape == (n + 1, len(indices))
    assert values.flags.c_contiguous and jet.flags.c_contiguous
    for m, I in enumerate(indices):
        want = reference_component(field, I, point)
        assert float.hex(values[m]) == float.hex(want) == float.hex(jet[0, m]), (I, point)
        for u in range(1, n + 1):
            assert float.hex(jet[u, m]) == float.hex(reference_component(field, I, point, u))


def test_nan_max_ranks_nan_above_every_number():
    nan = float("nan")
    assert math.isnan(nan_max([1.0, nan, 3.0]))
    assert math.isnan(nan_max([nan, 3.0]))
    assert nan_max([1.0, 3.0, 3.0]) == 3.0
    assert nan_max([], default=0.0) == 0.0
    assert nan_max([(1.0, "a"), (-2.0, "b"), (2.0, "c")], key=lambda t: abs(t[0])) == (-2.0, "b")
    assert math.isnan(nan_max([(1.0, "a"), (nan, "b")], key=lambda t: abs(t[0]))[0])
    # a NaN coefficient that is not the first one
    value = FormValue(3, 1, {(1,): 2.0, (2,): nan, (3,): -5.0}, _normalized=True)
    assert math.isnan(value.max_abs())
