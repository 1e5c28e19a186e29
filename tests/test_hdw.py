import itertools
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import ghm.expr as ex
from ghm.errors import DimensionError, EvalDomainError
from ghm.expr import ScalarField, parse
from ghm.exterior import FormField, grad_field, wedge
from ghm.hdw import (
    _hatmap_arrays,
    _hatmap_system,
    _min_norm,
    _null_space,
    assemble_hatmap,
    min_norm_divergence,
    obstruction_check,
    solve_hdw,
)
from ghm.systems import oscillator

CONFIGS = Path(__file__).resolve().parents[1] / "bench" / "configs"


def _sigma_from(hams):
    out = grad_field(hams[0])
    for h in hams[1:]:
        out = wedge(out, grad_field(h))
    return out


def test_obstruction_check():
    assert obstruction_check(3, 3) is True   # 3 >= C(3,2) = 3
    assert obstruction_check(4, 3) is False  # 4 <  C(4,2) = 6
    assert obstruction_check(7, 2) is True   # n >= n
    with pytest.raises(DimensionError):
        obstruction_check(2, 3)


def test_assemble_flat_3form():
    w = FormField.constant(3, 3, {(1, 2, 3): 1.0})
    hat = assemble_hatmap(w, (0.0, 0.0, 0.0))
    assert hat.rows == ((1, 2), (1, 3), (2, 3))
    # row (1,2): only j=3 contributes w_{312} = +1; row (1,3): j=2, w_{213} = -1;
    # row (2,3): j=1, w_{123} = +1
    assert np.array_equal(hat.matrix, np.array([[0, 0, 1], [0, -1, 0], [1, 0, 0]], dtype=float))


def test_assemble_symplectic_plane():
    w = FormField.constant(2, 2, {(1, 2): 1.0})
    hat = assemble_hatmap(w, (0.0, 0.0))
    assert hat.rows == ((1,), (2,))
    assert np.array_equal(hat.matrix, np.array([[0, -1], [1, 0]], dtype=float))


def test_a_hat_map_needs_a_form_of_degree_two_or_more():
    w = FormField.constant(3, 1, {(1,): 1.0})
    with pytest.raises(DimensionError, match="degree >= 2"):
        assemble_hatmap(w, (0.0,) * 3)


def test_assemble_zero_row():
    w = FormField.constant(4, 3, {(1, 2, 3): 1.0, (1, 2, 4): 1.0})
    hat = assemble_hatmap(w, (0.0,) * 4)
    assert hat.matrix.shape == (6, 4)
    row_34 = hat.rows.index((3, 4))
    assert np.all(hat.matrix[row_34] == 0.0)


def test_hatmap_reproduces_interior_product():
    from ghm.exterior import interior_vector

    rng = np.random.default_rng(2)
    n, k = 5, 3
    keys = list(itertools.combinations(range(1, n + 1), k))
    coeffs = {key: parse("x1 + 0.3*x2^2 - x5", n) for key in keys[::2]}
    w = FormField(n, k, coeffs)
    p = rng.uniform(-1, 1, size=n)
    hat = assemble_hatmap(w, p)
    for _ in range(5):
        X = rng.standard_normal(n)
        applied = hat.matrix @ X
        direct = interior_vector(X, w.at(p))
        for r, key in enumerate(hat.rows):
            assert applied[r] == pytest.approx(direct.coeffs.get(key, 0.0), abs=1e-12)


def test_solve_flat_nambu_r3():
    w = FormField.constant(3, 3, {(1, 2, 3): 1.0})
    sigma = _sigma_from([ScalarField(3, ex.Coord(1)), ScalarField(3, ex.Coord(2))])
    rep = solve_hdw(w, sigma, (0.2, -0.4, 1.0))
    assert rep.x == pytest.approx((0.0, 0.0, -1.0), abs=1e-14)
    assert rep.unique and rep.consistent and rep.kernel_dim == 0
    assert rep.residual == pytest.approx(0.0, abs=1e-14)
    assert rep.surjectivity_possible is True


def test_solve_inconsistent_sigma():
    w = FormField.constant(4, 3, {(1, 2, 3): 1.0, (1, 2, 4): 1.0})
    sigma = FormField.constant(4, 2, {(3, 4): 1.0})
    rep = solve_hdw(w, sigma, (0.0,) * 4)
    assert not rep.consistent
    assert rep.residual == pytest.approx(1.0, abs=1e-12)
    assert rep.surjectivity_possible is False


def test_solve_harmonic_oscillator_plane():
    w = FormField.constant(2, 2, {(1, 2): 1.0})
    H = ScalarField.from_text("(x1^2 + x2^2)/2", 2)
    sigma = _sigma_from([H])
    rep = solve_hdw(w, sigma, (0.3, 0.7))
    # realized convention: iota_X dx12 = -dH gives X = (-x2, x1)
    assert rep.x == pytest.approx((-0.7, 0.3), abs=1e-14)
    assert rep.unique


def _kernel(w, point):
    return _null_space(assemble_hatmap(w, point).matrix, point)


def test_kernel_examples():
    w12 = FormField.constant(3, 2, {(1, 2): 1.0})
    basis = _kernel(w12, (0.0,) * 3)
    assert len(basis) == 1
    assert abs(basis[0][2]) == pytest.approx(1.0)
    assert basis[0][0] == basis[0][1] == pytest.approx(0.0)

    w123 = FormField.constant(3, 3, {(1, 2, 3): 1.0})
    assert len(_kernel(w123, (0.0,) * 3)) == 0

    w = FormField(4, 3, {(1, 2, 4): ex.Coord(4)})  # x4 (dx12 + dx34) ^ dx4
    basis = _kernel(w, (0.0, 0.0, 0.0, 1.0))
    assert len(basis) == 1
    assert abs(basis[0][2]) == pytest.approx(1.0)


def test_consistent_solution_rechecked_via_exterior():
    from ghm.exterior import interior_vector

    w = FormField(4, 3, {(1, 2, 4): ex.Coord(4)})
    H = ScalarField.from_text("x1 + 0.5*x2^2", 4)
    sigma = _sigma_from([H, ScalarField(4, ex.Coord(4))])
    p = (0.4, -0.2, 0.9, 1.7)
    rep = solve_hdw(w, sigma, p)
    assert rep.consistent
    resid = interior_vector(rep.x, w.at(p)) + sigma.at(p)
    assert math.sqrt(sum(c * c for c in resid.coeffs.values())) <= 1e-12


def test_kernel_shifts_still_solve():
    from ghm.exterior import interior_vector

    w = FormField(4, 3, {(1, 2, 4): ex.Coord(4)})
    sigma = _sigma_from([ScalarField(4, ex.Coord(1)), ScalarField(4, ex.Coord(4))])
    p = (0.1, 0.2, 0.3, 2.0)
    rep = solve_hdw(w, sigma, p)
    assert rep.consistent
    for Y in _kernel(w, p):
        shifted = np.array(rep.x) + 0.7 * Y
        resid = interior_vector(shifted, w.at(p)) + sigma.at(p)
        assert math.sqrt(sum(c * c for c in resid.coeffs.values())) <= 1e-10


def test_solutions_annihilate_hamiltonians():
    w = FormField.constant(4, 3, {(1, 2, 3): 1.0, (1, 2, 4): 1.0})
    hams = [ScalarField.from_text("x1 + x3*x4", 4),
            ScalarField.from_text("x2 - 0.5*x4^2", 4)]
    sigma = _sigma_from(hams)
    rng = np.random.default_rng(4)
    for _ in range(5):
        p = rng.uniform(-1, 1, size=4)
        rep = solve_hdw(w, sigma, p)
        if not rep.consistent:
            continue
        for h in hams:
            assert abs(np.dot(rep.x, h.gradient(p))) <= 1e-9


def test_obstructed_random_sigma_inconsistent():
    w = FormField.constant(4, 3, {(1, 2, 3): 1.0, (1, 2, 4): 1.0})
    rng = np.random.default_rng(0)
    keys = list(itertools.combinations(range(1, 5), 2))
    residuals = []
    for _ in range(30):
        sigma = FormField.constant(4, 2, {key: float(rng.standard_normal()) for key in keys})
        residuals.append(solve_hdw(w, sigma, (0.0,) * 4).residual)
    assert min(residuals) > 0.1


def test_decomposable_sigma_solvable_despite_obstruction():
    w = FormField.constant(4, 3, {(1, 2, 3): 1.0, (1, 2, 4): 1.0})
    sigma = FormField.constant(4, 2, {(1, 2): 1.0})
    rep = solve_hdw(w, sigma, (0.0,) * 4)
    assert rep.consistent and rep.residual <= 1e-12
    assert rep.surjectivity_possible is False


def test_an_overflowed_solve_is_a_domain_error():
    osc = oscillator(lam=0.1)
    with pytest.raises(EvalDomainError, match="floating-point overflow"):
        solve_hdw(osc.form, osc.sigma(), (1e308, 1.0, 1.0, 0.0, 0.0, 2.0))
    assert solve_hdw(osc.form, osc.sigma(), osc.base_point).consistent


def test_a_non_finite_matrix_is_a_domain_error_before_lapack(capfd):
    # LAPACK would print DLASCL lines on a NaN or inf input and fail to converge
    from ghm.structure import Distribution

    osc = oscillator(lam=0.1)
    p = (0.0, 0.0, 0.0, 0.0, 1e308, 0.0)  # -2 q2 overflows to -inf
    with pytest.raises(EvalDomainError, match=r"overflow in the hat-map solve at \(0\.0, "):
        solve_hdw(osc.form, osc.sigma(), p)
    with pytest.raises(EvalDomainError, match="overflow in the hat-map solve"):
        min_norm_divergence(osc.form, osc.sigma(), p)
    with pytest.raises(EvalDomainError, match="overflow in a kernel SVD"):
        _kernel(osc.form, p)
    cube = ScalarField.from_text("x1*x1*x1", 3)  # its gradient is inf at x1 = 1e200
    with pytest.raises(EvalDomainError, match="overflow in a kernel SVD"):
        Distribution.annihilating([cube]).spanning_at((1e200, 0.0, 0.0))
    assert capfd.readouterr().err == ""


def test_report_json_round_trip():
    import json

    w = FormField.constant(3, 3, {(1, 2, 3): 1.0})
    sigma = FormField.constant(3, 2, {(1, 2): 1.0})
    rep = solve_hdw(w, sigma, (0.0,) * 3)
    doc = json.loads(rep.to_json())
    assert doc["n"] == 3 and doc["k"] == 3
    assert doc["unique"] is True
    assert doc["x"] == [0.0, 0.0, -1.0]


@pytest.mark.parametrize("n,k", [(4, 3), (3, 2)])
def test_min_norm_divergence_matches_central_differences(n, k):
    # random polynomial forms: the hat map has a one-dimensional kernel that
    # turns with the point, and sigma is not in its range (r = b - AX != 0),
    # so every term of the pseudo-inverse derivative contributes
    rng = np.random.default_rng(11 + n)

    def poly():
        c = rng.uniform(-1, 1, size=4)
        i, j = rng.integers(1, n + 1, size=2)
        return parse(f"{c[0]} + {c[1]}*x{i} + {c[2]}*x{i}*x{j} + {c[3]}*x{j}^2", n)

    w = FormField(n, k, {key: poly() for key in itertools.combinations(range(1, n + 1), k)})
    sigma = FormField(n, k - 1, {key: poly()
                                 for key in itertools.combinations(range(1, n + 1), k - 1)})
    for _ in range(5):
        p = rng.uniform(-1, 1, size=n)
        rep = solve_hdw(w, sigma, p)
        assert rep.kernel_dim == 1 and rep.residual > 1e-3
        fd = 0.0
        for i in range(n):
            up, um = p.copy(), p.copy()
            up[i] += 1e-5
            um[i] -= 1e-5
            fd += (solve_hdw(w, sigma, up).x[i] - solve_hdw(w, sigma, um).x[i]) / 2e-5
        div, solve = min_norm_divergence(w, sigma, p)
        assert div == pytest.approx(fd, rel=1e-6, abs=1e-7)
        assert solve.residual == pytest.approx(rep.residual, rel=1e-9)
        assert solve.consistent is rep.consistent is False


def test_a_form_is_freed_after_its_solves_without_the_collector():
    # the hat-map system is memoized on w, and its cached factor and
    # matrices functions close over n alone: nothing refers back to w
    import gc
    import weakref

    w = FormField(3, 2, {(1, 2): parse("x3", 3), (1, 3): parse("1 + x1^2", 3),
                         (2, 3): parse("x2", 3)})
    sigma = grad_field(ScalarField.from_text("x1*x2", 3))
    gc.disable()
    try:
        solve_hdw(w, sigma, (0.3, -0.2, 0.5))
        min_norm_divergence(w, sigma, (0.1, 0.4, -0.7))
        ref = weakref.ref(w)
        del w
        assert ref() is None
    finally:
        gc.enable()


def test_hatmap_jet_is_the_hatmap_system():
    # the jet lays A and b out as the value arrays do, signed zeros
    # included: -x1 evaluates to -0.0 at x1 = 0
    w = FormField(3, 2, {(1, 2): parse("-x1", 3), (1, 3): parse("x2*x3 - 1", 3),
                         (2, 3): parse("x3", 3)})
    sigma = FormField(3, 1, {(1,): parse("-x2", 3), (3,): parse("x1 + x3^2", 3)})
    p = (0.0, 0.0, 0.5)
    A, b = _hatmap_arrays(_hatmap_system(w, sigma), p, jet=True)
    A, b, dA, db = A[0], b[0], A[1:], b[1:]
    hat = assemble_hatmap(w, p)

    def rhs(point):
        return _hatmap_arrays(_hatmap_system(w, sigma), point)[1]

    assert A.tobytes() == hat.matrix.tobytes()
    assert b.tobytes() == rhs(p).tobytes()
    for u in range(3):
        up, um = list(p), list(p)
        up[u] += 1e-3
        um[u] -= 1e-3
        fd_A = (assemble_hatmap(w, up).matrix - assemble_hatmap(w, um).matrix) / 2e-3
        fd_b = (rhs(up) - rhs(um)) / 2e-3
        np.testing.assert_allclose(dA[u], fd_A, atol=1e-9)
        np.testing.assert_allclose(db[u], fd_b, atol=1e-9)


def _form_systems():
    from ghm import systems
    from ghm.cli import load_config

    specs = [systems.build(name) for name in sorted(systems.CATALOG)]
    specs += [systems.build("flat_nambu", n=n, k=k) for n, k in ((4, 3), (5, 4), (4, 2))]
    specs += [load_config(str(CONFIGS / f"{name}.json"))
              for name in ("oscillator_form", "fourdim_form")]
    return [s for s in specs if s.form is not None]


def test_hatmap_arrays_are_the_former_layout_byte_for_byte():
    from ghm.dynamics import sample_box
    from oracles import reference_hatmap

    for system in _form_systems():
        w, sigma = system.form, system.sigma()
        for p in sample_box(np.random.default_rng(3), system.domain, 25):
            for jet in (False, True):
                A, b = _hatmap_arrays(_hatmap_system(w, sigma), p, jet)
                ref_A, ref_b = reference_hatmap(w, sigma, p, jet)
                assert A.flags.c_contiguous and b.flags.c_contiguous
                assert A.shape == ref_A.shape and b.shape == ref_b.shape
                assert A.tobytes() == ref_A.tobytes(), (system.name, p, jet)
                assert b.tobytes() == ref_b.tobytes(), (system.name, p, jet)
            assert assemble_hatmap(w, p).matrix.tobytes() == A[0].tobytes()


def _bits(a):
    return a.shape, np.ascontiguousarray(a).view(np.int64).tolist()


def _assert_one_gather_is_two(w, sigma, points):
    from oracles import reference_two_gathers

    system = _hatmap_system(w, sigma)
    for p in points:
        for jet in (False, True):
            A, b = _hatmap_arrays(system, p, jet)
            ref_A, ref_b = reference_two_gathers(w, sigma, p, jet)
            assert _bits(A) == _bits(ref_A), (p, jet)
            assert _bits(b) == _bits(ref_b), (p, jet)


@pytest.mark.parametrize("name", ["oscillator_form", "fourdim_form", "flat_nambu", "quasisymmetry"])
def test_one_gather_is_the_two_per_field_gathers_bit_for_bit(name):
    from ghm import systems
    from ghm.cli import load_config
    from ghm.dynamics import sample_box

    if name.endswith("_form"):
        system = load_config(str(CONFIGS / f"{name}.json"))
    else:
        system = systems.build(name, **({"n": 4, "k": 3} if name == "flat_nambu" else {}))
    points = sample_box(np.random.default_rng(13), system.domain, 20)
    _assert_one_gather_is_two(system.form, system.sigma(), points)


# -x1 and x1*x2 give -0.0 at signed-zero coordinates, and so do their partials
_COEFFICIENTS = ("-x1", "x1*x2", "1 - x2", "-x1*x2 + 3", "x2^3", "2")


@settings(max_examples=100, deadline=None, derandomize=True)
@given(data=st.data())
def test_one_gather_is_the_two_per_field_gathers_on_drawn_forms(data):
    # absent keys, keys given in odd order (the field negates them), empty
    # forms, and points with signed zeros
    n = data.draw(st.integers(2, 5), label="n")
    k = data.draw(st.integers(2, n), label="k")

    def form(degree):
        coeffs = {}
        for key in itertools.combinations(range(1, n + 1), degree):
            if data.draw(st.booleans()):
                order = tuple(data.draw(st.permutations(key)))
                coeffs[order] = parse(data.draw(st.sampled_from(_COEFFICIENTS)), n)
        return FormField(n, degree, coeffs)

    w, sigma = form(k), form(k - 1)
    coordinate = st.sampled_from((0.0, -0.0, 0.5, -1.25, 3.0))
    points = [tuple(data.draw(st.lists(coordinate, min_size=n, max_size=n))) for _ in range(2)]
    _assert_one_gather_is_two(w, sigma, points)
    _assert_one_gather_is_two(w, form(k - 1), points)  # one system per sigma on the same w


@pytest.mark.parametrize("where", ["A", "b"])
def test_a_non_finite_entry_of_a_or_of_b_alone_stops_before_lapack(where, capfd, monkeypatch):
    # x1*x1*x1 overflows to inf at x1 = 1e200: in w, only A holds it; in H,
    # only b = -dH does
    from oracles import reference_two_gathers

    cube = ScalarField.from_text("x1*x1*x1", 2)
    if where == "A":
        w = FormField(2, 2, {(1, 2): cube.expression})
        sigma = grad_field(ScalarField.from_text("x2", 2))
    else:
        w, sigma = FormField.constant(2, 2, {(1, 2): 1.0}), grad_field(cube)
    p = (1e200, 0.0)
    A, b = reference_two_gathers(w, sigma, p)
    assert (np.isfinite(A).all(), np.isfinite(b).all()) == (where == "b", where == "A")

    def no_lapack(*args, **kwargs):
        raise AssertionError("the SVD ran on a non-finite hat map")

    monkeypatch.setattr(np.linalg, "svd", no_lapack)
    with pytest.raises(EvalDomainError, match=r"overflow in the hat-map solve at \(1e\+200, 0\.0\)"):
        solve_hdw(w, sigma, p)
    with pytest.raises(EvalDomainError, match=r"overflow in the hat-map solve at \(1e\+200, 0\.0\)"):
        min_norm_divergence(w, sigma, p)
    assert capfd.readouterr() == ("", "")


def test_the_finiteness_check_reads_values_not_partials():
    # at x1 = 1e-160, w = dx1^dx2 / x1 is 1e160 but its partial -1/x1^2 is
    # -inf: the solve runs, as before the one gather, and the divergence,
    # which is not finite, is the one that raises
    w = FormField(2, 2, {(1, 2): parse("1/x1", 2)})
    sigma = grad_field(ScalarField.from_text("x2", 2))
    p = (1e-160, 0.0)
    with pytest.raises(EvalDomainError, match=r"overflow in the hat-map divergence at \(1e-160"):
        min_norm_divergence(w, sigma, p)
    assert list(solve_hdw(w, sigma, p).x) == [-1e-160, 0.0]


def test_the_svd_solve_is_the_former_lstsq_solve():
    # every built-in form route and bench form config, the inconsistent one
    # included: the same rank and consistency, x to 1e-14 relative and the
    # residual to 1e-14 (1 + |sigma|)
    from ghm.cli import load_config
    from ghm.dynamics import sample_box
    from oracles import reference_min_norm_solve

    for system in _form_systems() + [load_config(str(CONFIGS / "inconsistent_form.json"))]:
        w, sigma = system.form, system.sigma()
        for p in sample_box(np.random.default_rng(9), system.domain, 200):
            rep = solve_hdw(w, sigma, p)
            A, b = _hatmap_arrays(_hatmap_system(w, sigma), p)
            x, residual, consistent, rank = reference_min_norm_solve(A, b)
            assert (rep.kernel_dim, rep.consistent) == (w.n - rank, consistent), (system.name, p)
            assert np.linalg.norm(np.subtract(rep.x, x)) <= 1e-14 * np.linalg.norm(x), \
                (system.name, p)
            assert abs(rep.residual - residual) <= 1e-14 * (1 + np.linalg.norm(b))


# ---------------------------------------------------------------------------
# The kept factorization of the last hat map of each system
# ---------------------------------------------------------------------------

def _solve_bytes(solve):
    return (solve.x.tobytes(), solve.r.tobytes(), solve.residual.hex(), solve.consistent,
            solve.pinv.tobytes(), solve.sv.tobytes(), solve.Vt.tobytes())


def _drawn_jets(jets):
    """Patch the hat-map gather so that the point ``key`` reads the jet
    ``jets[key]`` = (A with its partial rows, b with its partial rows)."""
    from unittest import mock

    return mock.patch("ghm.hdw._hatmap_arrays", lambda system, point, jet=False: jets[point])


def _outcome(fn, *args):
    try:
        return fn(*args)
    except EvalDomainError as exc:
        return str(exc)


@st.composite
def _hatmap_draws(draw):
    """(n, matrices, partials, rhs jets): two drawn (m >= n, n) hat maps of a
    drawn rank or of full rank, one with a zero entry and its -0.0 twin."""
    n = draw(st.integers(2, 4))
    m = draw(st.integers(n, n + 3))

    def ints(*shape):
        size = int(np.prod(shape))
        return np.array(draw(st.lists(st.integers(-3, 3), min_size=size, max_size=size)),
                        dtype=float).reshape(shape)

    def floats(*shape):
        size = int(np.prod(shape))
        return np.array(draw(st.lists(st.floats(-2, 2, allow_nan=False), min_size=size,
                                      max_size=size))).reshape(shape)

    matrices = []
    for _ in range(2):
        rank = draw(st.integers(0, n))
        A = ints(m, rank) @ ints(rank, n)  # rank <= the drawn one
        matrices.append(A + floats(m, n) if draw(st.booleans()) else A)
    zero = matrices[0].copy()
    zero[0, 0] = 0.0
    twin = zero.copy()
    twin[0, 0] = -0.0
    matrices += [zero, twin]
    partials = [ints(n, m, n) for _ in matrices]
    rhs = [floats(n + 1, m) for _ in range(2)]
    return n, matrices, partials, rhs


@settings(max_examples=80, deadline=None, derandomize=True)
@given(draws=_hatmap_draws(), data=st.data())
def test_a_kept_factorization_gives_the_bytes_of_a_fresh_one(draws, data):
    # two systems interleaved over a drawn sequence of hat maps with repeats,
    # a -0.0/+0.0 twin among them: every solve and div reads the bytes of a
    # fresh SVD, and each system factors a hat map only when its bytes differ
    # from those of that system's previous solve
    from unittest import mock

    from oracles import reference_min_norm, reference_min_norm_divergence

    n, matrices, partials, rhs = draws
    assert matrices[2].tobytes() != matrices[3].tobytes()
    jets = {(i, j): (np.ascontiguousarray(np.concatenate([A[None], dA])), b)
            for i, (A, dA) in enumerate(zip(matrices, partials)) for j, b in enumerate(rhs)}
    sigma = grad_field(ScalarField.from_text("x1", n))
    forms = [FormField.constant(n, 2, {(1, 2): 1.0}) for _ in range(2)]
    calls = data.draw(st.lists(st.tuples(st.integers(0, 1), st.integers(0, 3),
                                         st.integers(0, 1), st.booleans()),
                               min_size=1, max_size=12))
    calls += [(0, 2, 0, False), (0, 3, 0, True), (1, 3, 1, False), (1, 2, 1, True)]  # the twins
    svd, svds = np.linalg.svd, [0]

    def counted(*args, **kwargs):
        svds[0] += 1
        return svd(*args, **kwargs)

    last, factored, misses = [None, None], 0, 0
    with _drawn_jets(jets), mock.patch("numpy.linalg.svd", counted):
        for s, i, j, div in calls:
            A, b = jets[i, j][0][0], jets[i, j][1][0]
            misses += last[s] != A.tobytes()
            last[s] = A.tobytes()
            if div:
                want = _outcome(reference_min_norm_divergence, forms[s], sigma, (i, j))
                before = svds[0]
                got = _outcome(min_norm_divergence, forms[s], sigma, (i, j))
            else:
                want = reference_min_norm(A, b)
                before = svds[0]
                got = _min_norm(_hatmap_system(forms[s], sigma), A, b)
            factored += svds[0] - before
            if isinstance(want, str):
                assert got == want
            elif div:
                assert got[0].hex() == want[0].hex()
                assert _solve_bytes(got[1]) == _solve_bytes(want[1])
            else:
                assert _solve_bytes(got) == _solve_bytes(want)
    assert factored == misses


def _two_jets(n=4, m=6):
    """Two (A, b) jets on R^n, the second A rank-deficient."""
    rng = np.random.default_rng(18)
    jets = {}
    for key in range(2):
        A = rng.normal(size=(m, n))
        if key:
            A[:, -1] = A[:, 0]
        jets[key] = (np.ascontiguousarray(np.concatenate([A[None], rng.normal(size=(n, m, n))])),
                     rng.normal(size=(n + 1, m)))
    return jets


def _fresh_bytes(w, sigma, jets):
    """(solve, div, div's solve) bytes of the fresh oracle at each key of ``jets``."""
    from oracles import reference_min_norm, reference_min_norm_divergence

    want = {}
    for key, (A, b) in jets.items():
        div, solve = reference_min_norm_divergence(w, sigma, key)
        want[key] = (_solve_bytes(reference_min_norm(A[0], b[0])), div.hex(), _solve_bytes(solve))
    return want


@pytest.mark.parametrize("between", ["solve", "divergence"])
def test_a_solve_between_a_solve_and_its_divergence_pairs_no_two_matrices(between, monkeypatch):
    # what another thread may do: factor another matrix right after a
    # divergence's solve.  The divergence must not read the other matrix's
    # factors, and the system's cached factors stay the other matrix's
    import ghm.hdw

    n = 4
    jets = _two_jets(n)
    sigma = grad_field(ScalarField.from_text("x1", n))
    w = FormField.constant(n, 2, {(1, 2): 1.0})
    system = _hatmap_system(w, sigma)
    with _drawn_jets(jets):
        want = _fresh_bytes(w, sigma, jets)
        min_norm, interleave = ghm.hdw._min_norm, [True]

        def interleaved(*args, **kwargs):
            solve = min_norm(*args, **kwargs)
            if interleave.pop() if interleave else False:
                if between == "solve":
                    min_norm(system, jets[1][0][0], jets[1][1][0])
                else:
                    ghm.hdw.min_norm_divergence(w, sigma, 1)
            return solve

        monkeypatch.setattr(ghm.hdw, "_min_norm", interleaved)
        div, solve = min_norm_divergence(w, sigma, 0)
        assert (div.hex(), _solve_bytes(solve)) == want[0][1:]
        hits = system.factor.cache_info().hits
        system.factor(jets[1][0][0].tobytes())
        assert system.factor.cache_info().hits == hits + 1
        div, solve = min_norm_divergence(w, sigma, 1)  # a hit on the other matrix's factors
        assert (div.hex(), _solve_bytes(solve)) == want[1][1:]


def test_two_threads_alternating_two_hat_maps_read_fresh_bytes():
    # one system, two threads, each solving its own hat map, so that the
    # system's cached factors alternate between the two; a short switch interval
    # interleaves them within a solve: every solve and div is the fresh
    # oracle's, byte for byte
    import sys
    import threading

    n = 4
    jets = _two_jets(n)
    sigma = grad_field(ScalarField.from_text("x1", n))
    w = FormField.constant(n, 2, {(1, 2): 1.0})
    system = _hatmap_system(w, sigma)
    with _drawn_jets(jets):
        want = _fresh_bytes(w, sigma, jets)
        errors, start = [], threading.Barrier(2)

        def run(key):
            A, b = jets[key]
            try:
                start.wait()
                for _ in range(1500):
                    div, div_solve = min_norm_divergence(w, sigma, key)
                    got = (_solve_bytes(_min_norm(system, A[0], b[0])), div.hex(),
                           _solve_bytes(div_solve))
                    if got != want[key]:
                        errors.append(key)
            except Exception as exc:  # reported by the main thread
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=run, args=(key,)) for key in range(2)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
