"""Independent dense oracles for the sparse exterior algebra.

Everything here works on full component dictionaries (arbitrary ordered index
tuples -> value, antisymmetrized by permutation parity) and combinatorial
formulas, deliberately avoiding the library's insertion-sort sign machinery.
"""

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


def dense_interior_vector(X, w_sparse, n, k):
    """(iota_X w)_K = sum_j X^j w_{jK} via full components."""
    full = full_components(w_sparse, n, k)
    out = {}
    for K in itertools.combinations(range(1, n + 1), k - 1):
        total = sum(X[j - 1] * full.get((j,) + K, 0.0) for j in range(1, n + 1))
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
# Expressions: the reference tree walk
# ---------------------------------------------------------------------------

def tree_walk(e, point, params=None):
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
        if isinstance(e, ex.Param):
            if params is None or e.name not in params:
                raise EvalDomainError(f"unbound parameter {e.name!r}")
            return float(params[e.name])
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
