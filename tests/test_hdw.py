import itertools

import numpy as np
import pytest

import ghm.expr as ex
from ghm.errors import DimensionError
from ghm.expr import ScalarField, parse
from ghm.exterior import FormField, grad_field, wedge_fields
from ghm.hdw import (
    _hatmap_jet,
    assemble_hatmap,
    hatmap_rhs,
    kernel_basis,
    min_norm_divergence,
    obstruction_check,
    solve_hdw,
)


def _sigma_from(hams):
    out = grad_field(hams[0])
    for h in hams[1:]:
        out = wedge_fields(out, grad_field(h))
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
        applied = hat.apply(X)
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


def test_kernel_examples():
    w12 = FormField.constant(3, 2, {(1, 2): 1.0})
    basis = kernel_basis(w12, (0.0,) * 3)
    assert len(basis) == 1
    assert abs(basis[0][2]) == pytest.approx(1.0)
    assert basis[0][0] == basis[0][1] == pytest.approx(0.0)

    w123 = FormField.constant(3, 3, {(1, 2, 3): 1.0})
    assert kernel_basis(w123, (0.0,) * 3) == []

    w = FormField(4, 3, {(1, 2, 4): ex.Coord(4)})  # x4 (dx12 + dx34) ^ dx4
    basis = kernel_basis(w, (0.0, 0.0, 0.0, 1.0))
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
    assert resid.norm() <= 1e-12


def test_kernel_shifts_still_solve():
    from ghm.exterior import interior_vector

    w = FormField(4, 3, {(1, 2, 4): ex.Coord(4)})
    sigma = _sigma_from([ScalarField(4, ex.Coord(1)), ScalarField(4, ex.Coord(4))])
    p = (0.1, 0.2, 0.3, 2.0)
    rep = solve_hdw(w, sigma, p)
    assert rep.consistent
    for Y in kernel_basis(w, p):
        shifted = np.array(rep.x) + 0.7 * Y
        resid = interior_vector(shifted, w.at(p)) + sigma.at(p)
        assert resid.norm() <= 1e-10


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
        div, residual, consistent = min_norm_divergence(w, sigma, p)
        assert div == pytest.approx(fd, rel=1e-6, abs=1e-7)
        assert residual == pytest.approx(rep.residual, rel=1e-9)
        assert consistent is rep.consistent is False


def test_hatmap_jet_is_the_hatmap_system():
    # the jet lays A and b out as assemble_hatmap and hatmap_rhs do, signed
    # zeros included: -x1 evaluates to -0.0 at x1 = 0
    w = FormField(3, 2, {(1, 2): parse("-x1", 3), (1, 3): parse("x2*x3 - 1", 3),
                         (2, 3): parse("x3", 3)})
    sigma = FormField(3, 1, {(1,): parse("-x2", 3), (3,): parse("x1 + x3^2", 3)})
    p = (0.0, 0.0, 0.5)
    A, b, dA, db = _hatmap_jet(w, sigma, p)
    hat = assemble_hatmap(w, p)
    assert A.tobytes() == hat.matrix.tobytes()
    assert b.tobytes() == hatmap_rhs(sigma, hat.rows, p).tobytes()
    for u in range(3):
        up, um = list(p), list(p)
        up[u] += 1e-3
        um[u] -= 1e-3
        fd_A = (assemble_hatmap(w, up).matrix - assemble_hatmap(w, um).matrix) / 2e-3
        fd_b = (hatmap_rhs(sigma, hat.rows, up) - hatmap_rhs(sigma, hat.rows, um)) / 2e-3
        np.testing.assert_allclose(dA[u], fd_A, atol=1e-9)
        np.testing.assert_allclose(db[u], fd_b, atol=1e-9)
