"""Independent dense oracles for the sparse exterior algebra.

Everything here works on full component dictionaries (arbitrary ordered index
tuples -> value, antisymmetrized by permutation parity) and combinatorial
formulas, deliberately avoiding the library's insertion-sort sign machinery.
"""

import functools
import itertools


def inversions(seq):
    return sum(1 for i in range(len(seq)) for j in range(i + 1, len(seq))
               if seq[i] > seq[j])


def perm_sign(seq):
    if len(set(seq)) != len(seq):
        return 0
    return -1 if inversions(seq) % 2 else 1


def full_components(sparse, n, k):
    """Expand an increasing-key dict into all ordered index tuples."""
    full = {}
    for key, c in sparse.items():
        for perm in itertools.permutations(key):
            full[perm] = perm_sign_relative(perm, key) * c
    return full


def perm_sign_relative(perm, sorted_key):
    return perm_sign(perm)


def merge_sign(left, right):
    """Parity of sorting the concatenation of two increasing tuples."""
    count = sum(1 for a in left for b in right if a > b)
    return -1 if count % 2 else 1


def dense_wedge(a, b, k, l):
    """(a ^ b)_I = sum over splits of I into increasing S, T with |S| = k."""
    out = {}
    keys = set()
    for ia in a:
        for ib in b:
            keys.add(tuple(sorted(set(ia) | set(ib))))
    for key in keys:
        if len(key) != k + l:
            continue
        total = 0.0
        for S in itertools.combinations(key, k):
            T = tuple(sorted(set(key) - set(S)))
            total += merge_sign(S, T) * a.get(S, 0.0) * b.get(T, 0.0)
        if total != 0.0:
            out[key] = total
    return out


def dense_interior(by_sparse, m, w_sparse, n, k):
    """(iota_A w)_K = sum_A A^{a_1..a_m} w_{a_1..a_m K} via full components:
    the contraction by a degree-m element, first factor first, of a degree-k
    element of the other variance."""
    full = full_components(w_sparse, n, k)
    out = {}
    for K in itertools.combinations(range(1, n + 1), k - m):
        total = sum(c * full.get(A + K, 0.0) for A, c in by_sparse.items())
        if total != 0.0:
            out[K] = total
    return out


def dense_pairing(J_sparse, w_sparse):
    return sum(c * w_sparse.get(key, 0.0) for key, c in J_sparse.items())


def fd_partial(f, point, axis, step=1e-6):
    """Central finite difference of a callable scalar field."""
    up = list(point)
    dn = list(point)
    up[axis - 1] += step
    dn[axis - 1] -= step
    return (f(up) - f(dn)) / (2 * step)


def dense_exterior_derivative(coeff_fns, point, n, k, step=1e-6):
    """(dw)_{i0<...<ik} = sum_p (-1)^p d_{i_p} w_{I minus i_p}, FD derivatives.

    ``coeff_fns``: increasing key -> callable coefficient.
    """
    out = {}
    for I in itertools.combinations(range(1, n + 1), k + 1):
        total = 0.0
        for p, axis in enumerate(I):
            rest = I[:p] + I[p + 1:]
            fn = coeff_fns.get(rest)
            if fn is None:
                continue
            total += (-1) ** p * fd_partial(fn, point, axis, step)
        out[I] = total
    return out


# ---------------------------------------------------------------------------
# Sparse containers: the two rings written out separately
# ---------------------------------------------------------------------------

class ReferenceValue:
    """The float-coefficient container with its ring written inline: ``s * c``
    for signs and ``out.get(key, 0.0) + c`` for sums.  The shared container
    in ``ghm.exterior`` must give the same coefficient types, bits and key
    order."""

    def __init__(self, kind, n, k, coeffs=None, _normalized=False):
        from ghm.errors import DimensionError
        from ghm.exterior import MAX_DIM, sort_with_sign

        if not (0 <= n <= MAX_DIM and 0 <= k <= MAX_DIM + 1):
            raise DimensionError(f"need n <= {MAX_DIM}, 0 <= k, got n={n}, k={k}")
        self.kind, self.n, self.k = kind, n, k
        out = {}
        for idx, c in (coeffs or {}).items():
            if c == 0.0:
                continue
            if _normalized:
                out[idx] = out.get(idx, 0.0) + c
            else:
                key, s = sort_with_sign(idx)
                if s == 0:
                    continue
                if len(key) != k:
                    raise DimensionError(f"key {idx} has degree {len(key)}, expected {k}")
                if key and (key[0] < 1 or key[-1] > n):
                    raise DimensionError(f"index out of range 1..{n}: {idx}")
                out[key] = out.get(key, 0.0) + s * c
        self.coeffs = {key: c for key, c in out.items() if c != 0.0}

    def component(self, indices):
        from ghm.exterior import sort_with_sign

        key, s = sort_with_sign(indices)
        if s == 0:
            return 0.0
        return s * self.coeffs.get(key, 0.0)

    def __add__(self, other):
        out = dict(self.coeffs)
        for key, c in other.coeffs.items():
            out[key] = out.get(key, 0.0) + c
        return ReferenceValue(self.kind, self.n, self.k, out, _normalized=True)

    def __sub__(self, other):
        return self + other.scale(-1.0)

    def scale(self, factor):
        return ReferenceValue(self.kind, self.n, self.k,
                              {key: factor * c for key, c in self.coeffs.items()},
                              _normalized=True)

    def __repr__(self):
        inner = ", ".join(f"{key}: {c:g}" for key, c in sorted(self.coeffs.items()))
        return f"{self.kind}(n={self.n}, k={self.k}, {{{inner}}})"


def reference_wedge(a, b):
    """Graded product of two ``ReferenceValue``s, terms as ``s * ca * cb``."""
    from ghm.exterior import sort_with_sign

    out = {}
    for ia, ca in a.coeffs.items():
        for ib, cb in b.coeffs.items():
            key, s = sort_with_sign(ia + ib)
            if s == 0:
                continue
            out[key] = out.get(key, 0.0) + s * ca * cb
    return ReferenceValue(a.kind, a.n, a.k + b.k, out, _normalized=True)


def reference_field_coeffs(n, k, coeffs, normalized=False):
    """The expression-coefficient constructor: the coefficient dict it
    stores, accumulating ``add(prev, term)`` only on a repeated key."""
    from ghm import expr as ex
    from ghm.exterior import sort_with_sign

    out = {}
    for idx, e in coeffs.items():
        if ex.is_zero(e):
            continue
        if normalized:
            key, s = tuple(idx), 1
        else:
            key, s = sort_with_sign(idx)
            if s == 0:
                continue
            assert len(key) == k and (not key or (key[0] >= 1 and key[-1] <= n))
        prev = out.get(key)
        term = e if s == 1 else ex.neg(e)
        out[key] = term if prev is None else ex.add(prev, term)
    return {key: e for key, e in out.items() if not ex.is_zero(e)}


def reference_field_wedge(a, b):
    """Coefficients of the graded product of two expression fields."""
    from ghm import expr as ex
    from ghm.exterior import sort_with_sign

    out = {}
    for ia, ea in a.coeffs.items():
        for ib, eb in b.coeffs.items():
            key, s = sort_with_sign(ia + ib)
            if s == 0:
                continue
            term = ex.mul(ea, eb)
            if s == -1:
                term = ex.neg(term)
            out[key] = ex.add(out[key], term) if key in out else term
    return reference_field_coeffs(a.n, a.k + b.k, out, normalized=True)


def reference_field_add(a, b):
    """Coefficients of the sum of two expression fields of one degree."""
    from ghm import expr as ex

    out = dict(a.coeffs)
    for key, e in b.coeffs.items():
        out[key] = ex.add(out[key], e) if key in out else e
    return reference_field_coeffs(a.n, a.k, out, normalized=True)


def reference_field_constant(n, k, coeffs):
    """Coefficients of the constant field with float coefficients ``coeffs``."""
    from ghm import expr as ex

    return reference_field_coeffs(n, k, {key: ex.const(c) for key, c in coeffs.items()})


def reference_interior(by, target):
    """iota_by target on values, by-key-major: each key of ``by`` contracts
    its axes one at a time, first axis first, each with its slot sign, and
    terms ``c * (sign * v)`` accumulate into one dict; a sum that reaches an
    exact zero drops out at once."""
    from ghm.errors import DimensionError

    if by.n != target.n:
        raise DimensionError("dimension mismatch")
    if by.k > target.k:
        raise DimensionError(f"contraction degree {by.k} exceeds degree {target.k}")
    out = {}
    for by_key, c in by.coeffs.items():
        for key, v in target.coeffs.items():
            rest, sign = key, 1.0
            for axis in by_key:
                if axis not in rest:
                    break
                pos = rest.index(axis)
                rest = rest[:pos] + rest[pos + 1:]
                sign = -sign if pos % 2 else sign
            else:
                total = out.get(rest, 0.0) + c * (sign * v)
                if total != 0.0:
                    out[rest] = total
                else:
                    out.pop(rest, None)
    return type(target)(target.n, target.k - by.k, out, _normalized=True)


def reference_interior_field(by, T):
    """Coefficients of iota_by T on fields, slot by slot: for each key of T,
    each increasing set of its positions p_0 < ... < p_{m-1} whose axes form
    a key of ``by`` adds ``mul(c, e)`` with the sign (-1)^(sum_i p_i - i) to
    the key left over.  At m = 1 this is the loop over a degree-1 field's
    components, one interned term per (key, slot)."""
    from ghm import expr as ex

    m = by.k
    out = {}
    for key, e in T.coeffs.items():
        for positions in itertools.combinations(range(len(key)), m):
            c = by.coeffs.get(tuple(key[p] for p in positions))
            if c is None:
                continue
            term = ex.mul(c, e)
            rest = tuple(a for p, a in enumerate(key) if p not in positions)
            odd = (sum(positions) - m * (m - 1) // 2) % 2
            out[rest] = ex.add(out.get(rest, ex.ZERO), ex.neg(term) if odd else term)
    return reference_field_coeffs(T.n, T.k - m, out, normalized=True)


# ---------------------------------------------------------------------------
# Expressions: the reference tree walk
# ---------------------------------------------------------------------------

def tree_walk(e, point):
    """Evaluate an expression by a plain recursive walk of its tree.

    The compiled evaluator in ``ghm.expr`` must agree with this bit for bit,
    and on a domain fault must name the same node.  Operands are evaluated
    left to right (the divisor after the dividend), and a fault is a
    ``EvalDomainError`` naming its node, overflow included.
    """
    import math
    from ghm import expr as ex
    from ghm.errors import EvalDomainError

    def walk(e):
        if isinstance(e, ex.Const):
            return e.value
        if isinstance(e, ex.Coord):
            return float(point[e.axis - 1])
        if isinstance(e, ex.Neg):
            return -walk(e.arg)
        if isinstance(e, (ex.Add, ex.Sub, ex.Mul, ex.Div)):
            a, b = walk(e.a), walk(e.b)
            if isinstance(e, ex.Add):
                return a + b
            if isinstance(e, ex.Sub):
                return a - b
            if isinstance(e, ex.Mul):
                return a * b
            if b == 0.0:
                raise EvalDomainError("division by zero", ex.to_str(e))
            return a / b
        if isinstance(e, ex.Pow):
            base = walk(e.base)
            try:
                if e.exponent.denominator == 1:
                    return base ** int(e.exponent)
                return math.pow(base, float(e.exponent))
            except (ValueError, ZeroDivisionError) as exc:
                raise EvalDomainError(f"power domain error: {exc}", ex.to_str(e)) from None
            except OverflowError:
                raise EvalDomainError("floating-point overflow", ex.to_str(e)) from None
        if isinstance(e, ex.Call):
            arg = walk(e.arg)
            if e.fn == "sqrt" and arg < 0.0:
                raise EvalDomainError("sqrt of negative value", ex.to_str(e))
            if e.fn == "log" and arg <= 0.0:
                raise EvalDomainError("log of nonpositive value", ex.to_str(e))
            try:
                return getattr(math, e.fn)(arg)
            except OverflowError:
                raise EvalDomainError("floating-point overflow", ex.to_str(e)) from None
            except ValueError as exc:
                raise EvalDomainError(f"{e.fn} domain error: {exc}", ex.to_str(e)) from None
        raise TypeError(f"not an Expr: {e!r}")

    return walk(e)


def reference_unique_nodes(exprs):
    """The former walk: every node reachable from ``exprs`` once, children
    before parents, in the order a left-to-right post-order walk first
    reaches it, collected before any source is written."""
    from ghm import expr as ex

    seen, order = set(), []

    def visit(e):
        if e not in seen:
            seen.add(e)
            for c in ex.children(e):
                visit(c)
            order.append(e)

    for e in exprs:
        visit(e)
    return order


def _reference_rhs(e, i, index, consts):
    from ghm import expr as ex

    if isinstance(e, ex.Const):
        name = f"_c{i}"
        consts[name] = e.value
        return name
    if isinstance(e, ex.Coord):
        return f"_float(x[{e.axis - 1}])"
    if isinstance(e, ex.Neg):
        return f"-t{index[e.arg]}"
    if isinstance(e, ex.Pow):
        p = e.exponent
        return (f"t{index[e.base]} ** {p.numerator}" if p.denominator == 1
                else f"_pow(t{index[e.base]}, {float(p)!r})")
    if isinstance(e, ex.Call):
        return f"_{e.fn}(t{index[e.arg]})"
    op = {ex.Add: "+", ex.Sub: "-", ex.Mul: "*", ex.Div: "/"}[type(e)]
    return f"t{index[e.a]} {op} t{index[e.b]}"


def reference_generate(exprs, scalar):
    """The former two-pass source generator: (source, constants by name, node
    of each line).  The nodes first, then their numbers, then one line each."""
    nodes = reference_unique_nodes(exprs)
    index = {e: i for i, e in enumerate(nodes)}
    consts = {}
    results = [f"t{index[e]}" for e in exprs]
    body = [f"  t{i} = {_reference_rhs(e, i, index, consts)}" for i, e in enumerate(nodes)]
    lines = [f"def _f(x{''.join(', ' + name for name in consts)}):", " try:", *body]
    lines.append(f"  return {results[0]}" if scalar
                 else f"  return ({''.join(r + ',' for r in results)})")
    lines += [" except _FAULTS as exc:", "  raise _fault(exc, _nodes) from None"]
    return "\n".join(lines), consts, nodes


def reference_derive(e, axis):
    """The former one-level derivative rule, by ``isinstance`` chain; the
    operands' derivatives come from the library's memo."""
    from ghm import expr as ex

    d = ex.differentiate
    if isinstance(e, ex.Const):
        return ex.ZERO
    if isinstance(e, ex.Coord):
        return ex.ONE if e.axis == axis else ex.ZERO
    if isinstance(e, ex.Neg):
        return ex.neg(d(e.arg, axis))
    if isinstance(e, ex.Add):
        return ex.add(d(e.a, axis), d(e.b, axis))
    if isinstance(e, ex.Sub):
        return ex.sub(d(e.a, axis), d(e.b, axis))
    if isinstance(e, ex.Mul):
        return ex.add(ex.mul(d(e.a, axis), e.b), ex.mul(e.a, d(e.b, axis)))
    if isinstance(e, ex.Div):
        da, db = d(e.a, axis), d(e.b, axis)
        return ex.div(ex.sub(ex.mul(da, e.b), ex.mul(e.a, db)), ex.powc(e.b, 2))
    if isinstance(e, ex.Pow):
        db = d(e.base, axis)
        coeff = ex.mul(ex.Const(float(e.exponent)), ex.powc(e.base, e.exponent - 1))
        return ex.mul(coeff, db)
    if isinstance(e, ex.Call):
        da = d(e.arg, axis)
        if e.fn == "sqrt":
            return ex.div(da, ex.mul(ex.Const(2.0), ex.call("sqrt", e.arg)))
        if e.fn == "sin":
            return ex.mul(ex.call("cos", e.arg), da)
        if e.fn == "cos":
            return ex.neg(ex.mul(ex.call("sin", e.arg), da))
        if e.fn == "exp":
            return ex.mul(ex.call("exp", e.arg), da)
        if e.fn == "log":
            return ex.div(da, e.arg)
    raise TypeError(f"not an Expr: {e!r}")


@functools.cache
def _reference_parameters():
    """The former symbolic parameter leaf, the former parser's ``atom``, which
    read a parameter name as that leaf, and the former ``bind_params``."""
    import re
    from dataclasses import dataclass
    from ghm import expr as ex
    from ghm.errors import EvalDomainError, ParseError

    @dataclass(frozen=True, eq=False, slots=True)
    class Param(ex.Expr):
        name: str

    class SymbolicParser(ex._Parser):
        def atom(self):
            kind, val, off = self.next()
            if kind == "num":
                return ex.Const(self._number(val, off))
            if kind == "ident":
                if val in ex.FUNCTIONS:
                    kind2, val2, off2 = self.peek()
                    if kind2 != "op" or val2 != "(":
                        raise ParseError(f"function {val!r} requires parenthesized argument",
                                         off2)
                    self.next()
                    self.enter(off)
                    arg = self.expr()
                    self.expect_op(")")
                    self.nesting -= 1
                    return ex.call(val, arg)
                if val in self.alias_map:
                    return ex.Coord(self.alias_map[val])
                m = re.fullmatch(r"x(\d+)", val)
                if m is not None:
                    axis = int(m.group(1))
                    if 1 <= axis <= self.n:
                        return ex.Coord(axis)
                    raise ParseError(f"coordinate {val!r} out of range 1..{self.n}", off)
                if val in self.params:
                    return Param(val)
                raise ParseError(f"unknown identifier {val!r}", off)
            if kind == "op" and val == "(":
                self.enter(off)
                e = self.expr()
                self.expect_op(")")
                self.nesting -= 1
                return e
            raise ParseError(f"unexpected token {val!r}" if val else "unexpected end of input",
                             off)

    def bind_params(e, values):
        memo = {Param(name): ex.Const(float(v)) for name, v in values.items()}
        try:
            out = ex._substitute(e, memo)
        except RecursionError:
            raise ex._too_deep("bind_params", [e]) from None
        # the leaf map comes first, then every node in post-order: the first
        # unbound parameter there is the first one a left-to-right walk meets
        for node in memo:
            if type(node) is Param and node.name not in values:
                raise EvalDomainError(f"unbound parameter {node.name!r}")
        return out

    return SymbolicParser, bind_params


def reference_parse_then_bind(text, n, params=None, aliases=None):
    """The former two-step reading of a text with parameters: parse it with
    each parameter name as a symbolic leaf, then bind the leaves to their
    values, refolding every node above them."""
    parser, bind_params = _reference_parameters()
    e = parser(text, n, frozenset(params or ()), aliases).parse()
    return bind_params(e, params) if params else e


def structural_node_count(exprs):
    """Number of structurally distinct nodes under ``exprs``: nodes compare by
    type and fields, floats by their bits (so 0.0 and -0.0 differ)."""
    import dataclasses
    from ghm import expr as ex

    keys = {}  # id -> structural key, so shared subtrees are keyed once

    def key(e):
        if id(e) not in keys:
            parts = [type(e).__name__]
            for f in dataclasses.fields(e):
                v = getattr(e, f.name)
                if isinstance(v, ex.Expr):
                    parts.append(key(v))
                elif isinstance(v, float):
                    parts.append(v.hex())
                else:
                    parts.append(v)
            keys[id(e)] = tuple(parts)
        return keys[id(e)]

    return len({key(e) for e in _all_nodes(exprs)})


def _all_nodes(exprs):
    import dataclasses
    from ghm import expr as ex

    seen, stack = {}, list(exprs)
    while stack:
        e = stack.pop()
        if id(e) in seen:
            continue
        seen[id(e)] = e
        stack.extend(getattr(e, f.name) for f in dataclasses.fields(e)
                     if isinstance(getattr(e, f.name), ex.Expr))
    return list(seen.values())


def csv_reference(traj, fh):
    """The per-cell trajectory CSV writer: header t,x1..xn,H1..H{k-1},div,
    then every value as f"{v:.17g}", one row at a time."""
    n = traj.states.shape[1]
    ham_cols = [f"H{i + 1}" for i in range(traj.hamiltonians.shape[1])]
    fh.write(",".join(["t"] + [f"x{i + 1}" for i in range(n)] + ham_cols + ["div"]) + "\n")
    for row in range(len(traj.times)):
        cells = [f"{traj.times[row]:.17g}"]
        cells += [f"{v:.17g}" for v in traj.states[row]]
        cells += [f"{v:.17g}" for v in traj.hamiltonians[row]]
        cells.append(f"{traj.divergences[row]:.17g}")
        fh.write(",".join(cells) + "\n")


# ---------------------------------------------------------------------------
# Identities: the scalar Jacobi sum
# ---------------------------------------------------------------------------

def jacobi_cyclic(J2, triple, point):
    """Signed cyclic sum J^{im} d_m J^{jl} + J^{jm} d_m J^{li} + J^{lm} d_m J^{ij},
    one component at a time through exact derivatives; the einsum scan of
    ``identities.jacobi_residual`` must agree with it."""
    from ghm import expr as ex
    from ghm.exterior import sort_with_sign

    i, j, l = triple
    total = 0.0
    for m in range(1, J2.n + 1):
        for (a, bc) in ((i, (j, l)), (j, (l, i)), (l, (i, j))):
            c = ex.evaluate(J2.component((a, m)), point)
            if c == 0.0:
                continue
            d = ex.ZERO
            key, s = sort_with_sign(bc)
            if s != 0:
                d = ex.differentiate(J2.coeffs.get(key, ex.ZERO), m)
                if s == -1:
                    d = ex.neg(d)
            total += c * ex.evaluate(d, point)
    return total


# ---------------------------------------------------------------------------
# Integration: the loop-form RK4 / RKF45 reference
# ---------------------------------------------------------------------------

def _sum311(values):
    """``sum()`` as Python 3.11 computes it for floats: a plain left fold
    from the integer 0 (3.12+ compensates the rounding)."""
    total = 0
    for v in values:
        total = total + v
    return total


def reference_rk4_step(f, x, dt):
    k1 = f(x)
    h2 = dt / 2
    k2 = f([xi + h2 * ki for xi, ki in zip(x, k1)])
    k3 = f([xi + h2 * ki for xi, ki in zip(x, k2)])
    k4 = f([xi + dt * ki for xi, ki in zip(x, k3)])
    w = dt / 6
    return [xi + w * (a + 2 * b + 2 * c + d)
            for xi, a, b, c, d in zip(x, k1, k2, k3, k4)]


def reference_rkf45_step(f, x, h):
    """(x4, x5) of one Fehlberg 4(5) step, stage by stage."""
    from ghm.dynamics import _RKF_A, _RKF_B4, _RKF_B5

    ks = []
    for stage in range(6):
        xs = list(x)
        for j, a in enumerate(_RKF_A[stage]):
            for i in range(len(x)):
                xs[i] += h * a * ks[j][i]
        ks.append(f(xs))
    x4 = [xi + h * _sum311(b * ks[j][i] for j, b in enumerate(_RKF_B4))
          for i, xi in enumerate(x)]
    x5 = [xi + h * _sum311(b * ks[j][i] for j, b in enumerate(_RKF_B5))
          for i, xi in enumerate(x)]
    return x4, x5


def reference_integrate(system, x0, t_end, dt=1e-3, method="rk4", reltol=1e-9):
    """(Trajectory, rejected RKF45 steps) from the loop-form integrator: the
    equations of motion straight from the bracket field or from a fresh SVD
    of the hat map at every solve (``reference_min_norm``), and every
    Hamiltonian, invariant and div evaluated by its own compiled function.
    ``ghm.dynamics.integrate`` must agree with it bit for bit."""
    import math

    import numpy as np
    from ghm import expr as ex
    from ghm.dynamics import Trajectory
    from ghm.errors import EvalDomainError, IntegrationError
    from ghm.hdw import _hatmap_arrays, _hatmap_system, _report

    if system.mode == "tensor":
        f = system.bracket_field.compiled
        div_fn = ex.compile_expr(system.bracket_field.divergence_expr())
    else:
        sigma = system.sigma()
        hatmap = _hatmap_system(system.form, sigma)

        def f(x):
            report = _report(system.form, reference_min_norm(*_hatmap_arrays(hatmap, x)), x)
            if not report.consistent:
                raise IntegrationError(f"hat-map system inconsistent at {tuple(x)}: "
                                       f"residual {report.residual:g}")
            return report.x

        def div_fn(x):
            div, solve = reference_min_norm_divergence(system.form, sigma, x)
            if not solve.consistent:
                raise IntegrationError(f"hat-map system inconsistent at {tuple(x)}: "
                                       f"residual {solve.residual:g}")
            return div

    lows = [lo - 1e-9 * (1 + abs(lo)) for lo, _ in system.domain]
    highs = [hi + 1e-9 * (1 + abs(hi)) for _, hi in system.domain]

    def inside(x):
        return all(lo <= v <= hi for v, lo, hi in zip(x, lows, highs))

    ham_fns = [h.compiled for h in system.hamiltonians]
    inv_fns = [h.compiled for h in system.invariants.values()]
    times, states, hams, invariants, divs = [], [], [], [], []
    truncated, note, rejected = False, "", 0

    def record(t, x):
        # the diagnostics row: Hamiltonians, invariants and, on the tensor
        # route only, the symbolic div; the form route's div is the field's SVD
        try:
            row = ([fn(x) for fn in ham_fns], [fn(x) for fn in inv_fns],
                   div_fn(x) if system.mode == "tensor" else None)
        except EvalDomainError as exc:
            raise IntegrationError(f"diagnostics row evaluation failed: {exc}") from exc
        times.append(t)
        states.append(x)
        hams.append(row[0])
        invariants.append(row[1])
        divs.append(row[2] if system.mode == "tensor" else div_fn(x))

    try:
        record(0.0, list(map(float, x0)))
        if method == "rk4":
            full = int(t_end / dt + 1e-9)
            remainder = t_end - full * dt
            plan = [dt] * full + ([remainder] if remainder > 1e-12 * t_end else [])
            x, t = states[0], 0.0
            for h in plan:
                x = reference_rk4_step(f, x, h)
                t += h
                if not inside(x):
                    truncated, note = True, f"state left the domain box at t={t:.6g}"
                    break
                record(t, x)
        else:
            t, x, h = 0.0, states[0], dt
            while t < t_end - 1e-14:
                h = min(h, t_end - t)
                x4, x5 = reference_rkf45_step(f, x, h)
                err = math.sqrt(sum((a - b) ** 2 for a, b in zip(x4, x5)))
                scale = reltol * (1.0 + math.sqrt(sum(v * v for v in x)))
                if err <= scale:
                    t += h
                    x = x4
                    if not inside(x):
                        truncated, note = True, f"state left the domain box at t={t:.6g}"
                        break
                    record(t, x)
                else:
                    rejected += 1
                factor = 0.9 * (scale / err) ** 0.2 if err > 0 else 5.0
                h *= min(5.0, max(0.2, factor))
                if h < 1e-14:
                    raise IntegrationError(f"step size underflow at t={t:.6g}")
    except (EvalDomainError, ValueError, ZeroDivisionError, OverflowError) as exc:
        raise IntegrationError(f"vector-field evaluation failed: {exc}") from exc

    traj = Trajectory(times=np.array(times), states=np.array(states),
                      hamiltonians=np.array(hams), invariant_names=tuple(system.invariants),
                      invariants=np.array(invariants), divergences=np.array(divs),
                      truncated=truncated, note=note)
    return traj, rejected


def reference_min_norm_solve(A, b, tolerance=1e-9):
    """(x, residual, consistent, rank) of the former hat-map solve: LAPACK
    gelsd through ``np.linalg.lstsq`` at ``hdw.RCOND``, the residual norm
    of b - A x, and consistency at tolerance * (1 + |b|)."""
    import numpy as np
    from ghm.hdw import RCOND

    x, _, rank, _ = np.linalg.lstsq(A, b, rcond=RCOND)
    residual = float(np.linalg.norm(A @ x - b))
    return x, residual, residual <= tolerance * (1.0 + float(np.linalg.norm(b))), int(rank)


def reference_min_norm(A, b, tolerance=1e-9):
    """The hat-map solve of ``ghm.hdw`` before its factorizations were kept:
    a fresh reduced SVD of A on every call, cut at ``numerical_rank``."""
    import math

    import numpy as np
    from ghm.hdw import MinNorm, numerical_rank

    U, sv, Vt = np.linalg.svd(A, full_matrices=False)
    rank = numerical_rank(sv)
    sv, Vt = sv[:rank], Vt[:rank]
    with np.errstate(over="ignore", invalid="ignore"):
        pinv = (Vt.T / sv) @ U[:, :rank].T
        x = pinv @ b
        r = b - A @ x
        residual = math.sqrt(r @ r)  # np.linalg.norm's sqrt(dot) without its checks
        consistent = residual <= tolerance * (1.0 + math.sqrt(b @ b))
    return MinNorm(x, r, residual, consistent, pinv, sv, Vt)


def reference_min_norm_divergence(w, sigma, point):
    """(div, solve) of ``ghm.hdw.min_norm_divergence`` before its
    factorizations were kept: ``reference_min_norm`` at the point, and the
    A-only matrices of the divergence computed afresh."""
    import math

    import numpy as np
    from ghm.errors import EvalDomainError
    from ghm.hdw import _hatmap_arrays, _hatmap_system

    system = _hatmap_system(w, sigma)
    A, b = _hatmap_arrays(system, point, jet=True)
    solve = reference_min_norm(A[0], b[0])
    X, pinv, sv, Vt, dA, eye = solve.x, solve.pinv, solve.sv, solve.Vt, A[1:], np.eye(w.n)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        div = float((pinv * (b[1:] - dA @ X)).sum()
                    + (((Vt.T / sv ** 2) @ Vt) * (solve.r @ dA)).sum()
                    + ((eye - Vt.T @ Vt) * ((pinv.T @ X) @ dA)).sum())
    if not math.isfinite(div):
        raise EvalDomainError(f"floating-point overflow in the hat-map divergence at {tuple(point)}")
    return div, solve


# ---------------------------------------------------------------------------
# Dense reads of a field: one entry at a time, and the former layouts
# ---------------------------------------------------------------------------

def reference_component(field, indices, point, axis=None):
    """The full component of ``indices`` at ``point``, or with ``axis`` its
    exact partial d/dx^axis, by tree walk and permutation parity.  A
    coefficient reads as its value plus 0.0 (a -0.0 value is dropped from
    the form value), an absent one as 0.0, and an odd order negates."""
    from ghm import expr as ex

    s = perm_sign(indices)
    e = field.coeffs.get(tuple(sorted(indices))) if s else None
    if e is None:
        value = 0.0
    else:
        value = ex.evaluate(e if axis is None else ex.differentiate(e, axis), point) + 0.0
    return -value if s < 0 else value


def reference_coefficients(field, point, jet=False):
    """The coefficient layout the hat map and the dense pair read before
    ``gather``: values in ``coeffs`` order plus one trailing 0.0 slot, or
    with ``jet`` the rows (values, d/dx^1, ..., d/dx^n) of that layout, each
    entry plus 0.0."""
    import numpy as np
    from ghm import expr as ex

    exprs = list(field.coeffs.values())
    rows = [exprs] + [[ex.differentiate(e, u) for e in exprs]
                      for u in range(1, field.n + 1)]
    c = np.zeros((len(rows), len(exprs) + 1))
    for r, row in enumerate(rows):
        for slot, e in enumerate(row):
            c[r, slot] = ex.evaluate(e, point)
    c += 0.0
    return c if jet else c[0].copy()


def _reference_gather_plan(field, indices):
    import numpy as np
    from ghm.exterior import sort_with_sign

    slot_of = {key: i for i, key in enumerate(field.coeffs)}
    absent = len(slot_of)
    slots, signs = [], []
    for I in indices:
        key, s = sort_with_sign(I)
        slots.append(slot_of.get(key, absent) if s else absent)
        signs.append(-1.0 if s < 0 else 1.0)
    return np.array(slots, dtype=np.intp), np.array(signs)


def reference_hatmap(w, sigma, point, jet=False):
    """(A, b) of the hat-map system iota_X w = -sigma in the former scatter
    layout: A from np.zeros with the entries j not in I filled, b gathered
    over the rows; with ``jet``, the leading axis of partial rows."""
    import numpy as np
    from ghm.exterior import increasing_indices

    rows = tuple(increasing_indices(w.n, w.k - 1))
    flat, indices = [], []
    for r, I in enumerate(rows):
        for j in range(1, w.n + 1):
            if j not in I:
                flat.append(r * w.n + j - 1)
                indices.append((j,) + I)
    flat = np.array(flat, dtype=np.intp)
    slots, signs = _reference_gather_plan(w, indices)
    c = reference_coefficients(w, point, jet)
    A = np.zeros(c.shape[:-1] + (len(rows) * w.n,))
    A.T[flat] = (signs * c.T[slots].T).T
    A = A.reshape(c.shape[:-1] + (len(rows), w.n))
    slots, signs = _reference_gather_plan(sigma, rows)
    b = -(signs * reference_coefficients(sigma, point, jet).T[slots].T)
    return A, b


def reference_two_gathers(w, sigma, point, jet=False):
    """(A, b) of the hat-map system read the former way: one gather of w
    over the (j, I) index tuples and one of sigma over the rows I, each
    through the field's own compiled function, then b negated."""
    from ghm.exterior import increasing_indices

    rows = tuple(increasing_indices(w.n, w.k - 1))
    A = w.gather(w.gather_plan((j,) + I for I in rows for j in range(1, w.n + 1)), point, jet)
    A = A.reshape(A.shape[:-1] + (len(rows), w.n))
    return A, -sigma.gather(sigma.gather_plan(rows), point, jet)


def reference_dense_pair(J, point):
    """The former scatter of each coefficient onto every permutation of its
    key: A = J and D = dJ at a point, from np.zeros."""
    import numpy as np
    from ghm.exterior import sort_with_sign

    n = J.n
    positions, slots, signs = [], [], []
    for slot, key in enumerate(J.coeffs):
        for perm in itertools.permutations(key):
            _, s = sort_with_sign(perm)
            flat = 0
            for axis in perm:  # row-major, 0-based
                flat = flat * n + axis - 1
            positions.append(flat)
            slots.append(slot)
            signs.append(float(s))
    pos, slot, sign = (np.array(positions, dtype=np.intp), np.array(slots, dtype=np.intp),
                       np.array(signs))
    u = np.arange(n, dtype=np.intp)[:, None]
    width = len(J.coeffs) + 1
    d_scatter = ((u * n ** J.k + pos).ravel(), (u * width + slot).ravel(), np.tile(sign, n))
    jet = reference_coefficients(J, point, jet=True)
    out = []
    for shape, values, (p, sl, sg) in zip(((n,) * J.k, (n,) * (J.k + 1)),
                                          (jet[0], jet[1:].ravel()),
                                          ((pos, slot, sign), d_scatter)):
        arr = np.zeros(shape)
        arr.flat[p] = sg * values[sl]
        out.append(arr)
    return out[0], out[1]


# ---------------------------------------------------------------------------
# Central differences: the former derivatives of the flattening and chart checks
# ---------------------------------------------------------------------------

def reference_flow_jacobian(flow_map, point, step=1e-5):
    """Central-difference Jacobian of a point map, one column per axis: the
    former derivative of the numeric flattening's discrete flow."""
    import numpy as np

    n = len(point)
    J = np.empty((n, n))
    for i in range(n):
        up, um = list(point), list(point)
        up[i] += step
        um[i] -= step
        J[:, i] = (np.asarray(flow_map(up)) - np.asarray(flow_map(um))) / (2 * step)
    return J


def reference_divergence_expr(X):
    """The former ``VectorField.divergence_expr``: one sum over every
    component, zero ones included."""
    from ghm import expr as ex

    out = ex.ZERO
    for i, c in enumerate(X.components, start=1):
        out = ex.add(out, ex.differentiate(c, i))
    return out


# ---------------------------------------------------------------------------
# Loop and per-term forms of the stacked pullback and the FI kernel
# ---------------------------------------------------------------------------

def reference_pullback_with_jacobian(J, omega):
    """The former per-minor pullback: one ``np.ix_`` minor and one ``det``
    per (I, K) pair, summed in ``omega.coeffs`` order."""
    import numpy as np
    from ghm.exterior import FormValue, increasing_indices

    n_src, k = int(J.shape[1]), omega.k
    out = {}
    for I in increasing_indices(n_src, k):
        cols = [i - 1 for i in I]
        total = 0.0
        for K, c in omega.coeffs.items():
            rows = [a - 1 for a in K]
            minor = J[np.ix_(rows, cols)]
            total += c * float(np.linalg.det(minor)) if k > 0 else c
        if total != 0.0:
            out[I] = total
    return FormValue(n_src, k, out, _normalized=True)


def reference_variational_flow(X, t):
    """The former numeric flow: one ``compile_vector`` bundle of X and the
    entries of DX·J, stepped by ``stepper("rk4", n + n*n)`` one step at a
    time from (p, I)."""
    from functools import reduce

    import numpy as np
    import ghm.expr as ex
    from ghm.dynamics import _EVAL_FAULTS, FLOW_STEPS_PER_UNIT, _step_count, stepper
    from ghm.errors import IntegrationError

    n, comps = X.n, X.components
    nsteps = max(1, _step_count(abs(t) * FLOW_STEPS_PER_UNIT + 0.5, f"flow time {t:g}"))
    h = t / nsteps
    DXJ = (reduce(ex.add, (ex.mul(ex.differentiate(comps[r], m + 1),
                                  ex.Coord(n + 1 + m * n + c)) for m in range(n)))
           for r in range(n) for c in range(n))
    f, rk4 = ex.compile_vector((*comps, *DXJ)), stepper("rk4", n + n * n)

    def flow_map(p):
        y = (*map(float, p), *np.eye(n).ravel().tolist())
        try:
            for step in range(nsteps):
                y = rk4(f, y, f(y), h)
        except _EVAL_FAULTS as exc:
            raise IntegrationError(f"the numeric flow of the sample point {tuple(p)} failed "
                                   f"at flow time {step * h:.6g}: {exc}") from exc
        return np.array(y[:n]), np.array(y[n:]).reshape(n, n)

    return flow_map


def reference_verify_flattening(problem, t, points, flow="closed"):
    """The former per-point flattening check: each point's map and
    Jacobian, w_t at the target as a value, a finite-Jacobian check, the
    per-minor pullback and |pulled - w0| as values, the largest a NaN first."""
    import numpy as np
    from ghm.dynamics import variational_flow
    from ghm.errors import EvalDomainError, InputError
    from ghm.exterior import nan_max

    wt = problem.w.scale(float(t)) + problem.w0.scale(1.0 - t)
    if flow == "closed":
        if problem.flow is None:
            raise InputError(f"problem {problem.name!r} has no closed-form flow")
        phi = problem.flow(t)
        flow_map = lambda p: (phi.at(p), phi.jacobian(p))
    elif flow == "numeric":
        flow_map = variational_flow(problem.X, t)
    else:
        raise InputError(f"unknown flow route {flow!r}")
    worst = 0.0
    for p in points:
        target, J = flow_map(p)
        value = wt.at(target)
        if not np.isfinite(J).all():
            bad = tuple(np.argwhere(~np.isfinite(J))[0])
            raise EvalDomainError(f"pullback jacobian entry {tuple(int(i) + 1 for i in bad)} "
                                  f"is {J[bad]}")
        pulled = reference_pullback_with_jacobian(J, value)
        worst = nan_max((worst, (pulled - problem.w0.at(p)).max_abs()))
    return worst


def reference_fundamental_identity_arrays(A, D):
    """The former FI kernel: one ``einsum`` per term of FIa and FIb."""
    import numpy as np

    fia = (
        np.einsum("uvq,uijk->ijkvq", A, D)
        - np.einsum("ujk,uivq->ijkvq", A, D)
        - np.einsum("uki,ujvq->ijkvq", A, D)
        - np.einsum("uij,ukvq->ijkvq", A, D)
    )
    fib = (
        np.einsum("ijk,uvq->ijkuvq", A, A)
        + np.einsum("vjk,uiq->ijkuvq", A, A)
        + np.einsum("uik,jvq->ijkuvq", A, A)
        + np.einsum("uvk,jiq->ijkuvq", A, A)
        + np.einsum("uji,kvq->ijkuvq", A, A)
        + np.einsum("ujv,kiq->ijkuvq", A, A)
    )
    return fia, fib


# ---------------------------------------------------------------------------
# The former per-scan check: each scan compiles its own functions and
# evaluates them over every point before the next scan starts
# ---------------------------------------------------------------------------

def _reference_report(name, values, samples, detail=""):
    from ghm.errors import InputError
    from ghm.exterior import nan_max
    from ghm.identities import IdentityReport

    if not values:
        raise InputError(f"{name}: no sample points")
    best = nan_max(values, key=lambda t: abs(t[0]))
    return IdentityReport(name=name, max_residual=abs(best[0]),
                          argmax_point=tuple(float(v) for v in best[1]),
                          argmax_index=best[2], signed_at_argmax=float(best[0]),
                          samples=samples, detail=detail)


def reference_closure_residual(w, points):
    """The former closure scan: dw's values through ``dw.at``, point by point."""
    from ghm.exterior import exterior_derivative, nan_max

    dw = exterior_derivative(w)
    best = []
    for p in points:
        V = dw.at(p)
        if V.coeffs:
            key = nan_max(V.coeffs, key=lambda kk: abs(V.coeffs[kk]))
            best.append((V.coeffs[key], tuple(p), key))
        else:
            best.append((0.0, tuple(p), ()))
    return _reference_report("closure", best, len(points))


def _reference_jet_arrays(J, values):
    """The dense arrays A and D of one jet row, through the field's own gather."""
    from ghm.identities import _dense_plan

    G = J.gather_from(_dense_plan(J), tuple(values), jet=True)
    return G[0].reshape((J.n,) * J.k), G[1:].reshape((J.n,) * (J.k + 1))


def reference_jacobi_candidates(A, D, point):
    """The former Jacobi step at one point: one einsum and its transposes."""
    import numpy as np

    t1 = np.einsum("im,mjl->ijl", A, D)
    signed, idx = reference_argmax_signed(t1 + t1.transpose(1, 2, 0) + t1.transpose(2, 0, 1))
    return [(signed, point, idx, "")]


def reference_jacobi_residual(J2, points):
    """The former Jacobi scan, through the tensor's own jet function."""
    best = []
    for p in points:
        A, D = _reference_jet_arrays(J2, J2.jet_function()(p))
        best.append(reference_jacobi_candidates(A, D, tuple(p))[0][:3])
    return _reference_report("jacobi", best, len(points))


def reference_dense_fundamental_identity_arrays(A, D):
    """The former dense FI kernel: FIa and FIb at every index tuple, each term
    a transpose of one contraction T or one outer product P = J (x) J, summed
    in order; P carries ``+ 0.0`` so that a -0.0 product reads +0.0."""
    import numpy as np

    T = np.einsum("uab,ucde->abcde", A, D)
    fia = (T.transpose(2, 3, 4, 0, 1) - T.transpose(2, 0, 1, 3, 4)
           - T.transpose(1, 2, 0, 3, 4) - T)
    P = np.multiply.outer(A, A) + 0.0
    fib = (P + P.transpose(4, 1, 2, 3, 0, 5) + P.transpose(1, 3, 2, 0, 4, 5)
           + P.transpose(4, 3, 2, 0, 1, 5) + P.transpose(2, 1, 3, 0, 4, 5)
           + P.transpose(4, 1, 3, 0, 2, 5))
    return fia, fib


def reference_argmax_signed(arr):
    """The first entry of largest magnitude, a NaN first, and its 1-based index."""
    import numpy as np

    flat = int(np.argmax(np.abs(arr)))
    idx = np.unravel_index(flat, arr.shape)
    return float(arr[idx]), tuple(int(i) + 1 for i in idx)


def reference_fundamental_identity_candidates(A, D, point,
                                              kernel=reference_dense_fundamental_identity_arrays):
    """The former FI step: the FIa and FIb candidates of the dense arrays."""
    fia, fib = kernel(A, D)
    sa, ia = reference_argmax_signed(fia)
    sb, ib = reference_argmax_signed(fib)
    return [(sa, point, ia, "FIa"), (sb, point, ib, "FIb")]


def reference_fundamental_identity_residual(J, points,
                                            kernel=reference_dense_fundamental_identity_arrays):
    """The former FI scan over the dense arrays, through the tensor's own jet
    function."""
    import dataclasses

    from ghm.exterior import nan_max

    candidates = []
    for p in points:
        candidates += reference_fundamental_identity_candidates(
            *_reference_jet_arrays(J, J.jet_function()(p)), tuple(p), kernel)
    rep = _reference_report("fundamental-identity", [t[:3] for t in candidates], len(points))
    return dataclasses.replace(rep, detail=nan_max(candidates, key=lambda t: abs(t[0]))[3])


def reference_measure_residual(J, g, points):
    """The former measure scan: the weight compiled alone and tested first
    at each point, then the divergences from their own function."""
    from ghm import expr as ex
    from ghm.errors import EvalDomainError
    from ghm.exterior import nan_max
    from ghm.identities import divergence_exprs

    gf = None
    if isinstance(g, (int, float)):
        if g != 1:
            gf = ex.ScalarField(J.n, ex.const(g))
    else:
        gf = g
    exprs = divergence_exprs(J, gf)
    values = ex.compile_vector(exprs.values())
    best = []
    for p in points:
        if gf is not None and gf(p) == 0.0:
            raise EvalDomainError(f"measure weight vanishes at {tuple(p)}")
        vals = dict(zip(exprs, values(p)))
        key = nan_max(vals, key=lambda kk: abs(vals[kk]), default=())
        best.append((vals.get(key, 0.0), tuple(p), key))
    return _reference_report("measure", best, len(points))


def reference_check_reports(system, points, tokens):
    """(token, label, report) of each check named in ``tokens``, the former
    way: one scan after another, in report order."""
    checks = []
    if system.form is not None:
        checks.append(("closure", "closure(w)",
                       lambda: reference_closure_residual(system.form, points)))
    if system.reduced_tensor is not None:
        checks.append(("jacobi", system.jacobi_label,
                       lambda: reference_jacobi_residual(system.reduced_tensor, points)))
    if system.tensor is not None and system.tensor.k == 3:
        checks.append(("fi", "fundamental-identity",
                       lambda: reference_fundamental_identity_residual(system.tensor, points)))
    if system.tensor is not None:
        weight = system.measure_weight if system.measure_weight is not None else 1.0
        checks.append(("measure", "measure",
                       lambda: reference_measure_residual(system.tensor, weight, points)))
    return [(token, label, run()) for token, label, run in checks if token in tokens]


# ---------------------------------------------------------------------------
# The former per-point steps of ``run_scans``: each step turned one point's
# row of values into that point's candidates
# ---------------------------------------------------------------------------

def _reference_largest(values, point):
    """The candidate of the key whose value has the largest magnitude, the
    first on a tie or a NaN; (0.0, ()) when there is no key."""
    from ghm.exterior import nan_max

    key = nan_max(values, key=lambda kk: abs(values[kk]), default=())
    return [(values.get(key, 0.0), point, key, "")]


def reference_scan_reports(scans, rows, points):
    """The reports of the former ``run_scans`` over given rows of values,
    one step call per scan and point, in point then scan order.  ``scans``
    holds ("closure", dw's keys), ("jacobi", J2), ("fundamental-identity",
    J) and ("measure", divergence keys, weighted) in row order; a weighted
    measure's last column is its weight."""
    from ghm.errors import EvalDomainError
    from ghm.exterior import nan_max
    from ghm.identities import IdentityReport

    def width(scan):
        kind, subject = scan[:2]
        if kind in ("closure", "measure"):
            return len(subject) + (kind == "measure" and scan[2])
        return len(subject.jet_plan()[0])

    starts = list(itertools.accumulate((width(scan) for scan in scans), initial=0))
    found = [[] for _ in scans]
    for row, point in zip(rows, points):
        point = tuple(point)
        for scan, lo, hi, out in zip(scans, starts, starts[1:], found):
            kind, subject, values = scan[0], scan[1], tuple(row[lo:hi])
            if kind == "closure":
                out += _reference_largest({key: v for key, v in zip(subject, values)
                                           if v != 0.0}, point)
            elif kind == "measure":
                if scan[2] and values[-1] == 0.0:
                    raise EvalDomainError(f"measure weight vanishes at {point}")
                out += _reference_largest(dict(zip(subject, values)), point)
            elif kind == "jacobi":
                out += reference_jacobi_candidates(*_reference_jet_arrays(subject, values), point)
            else:
                out += reference_fundamental_identity_candidates(
                    *_reference_jet_arrays(subject, values), point)
    reports = []
    for (kind, *_), out in zip(scans, found):
        best = nan_max(out, key=lambda t: abs(t[0]))
        reports.append(IdentityReport(kind, abs(best[0]), tuple(float(v) for v in best[1]),
                                      best[2], float(best[0]), len(points), best[3]))
    return reports
