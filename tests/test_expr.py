import math
import struct
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import ghm.expr as ex
from ghm.errors import EvalDomainError, ParseError
from ghm.expr import (
    Add,
    Call,
    Const,
    Coord,
    Div,
    Mul,
    Neg,
    Param,
    Pow,
    ScalarField,
    Sub,
    compile_expr,
    differentiate,
    evaluate,
    parse,
    to_str,
)

from oracles import (
    reference_derive,
    reference_generate,
    reference_unique_nodes,
    structural_node_count,
    tree_walk,
)


def test_parse_basic_tree():
    e = parse("x1^2 + x2", n=2)
    assert e == Add(Pow(Coord(1), 2), Coord(2))


def test_parse_with_aliases_and_params():
    e = parse("-q1 - lambda*xi2", n=6, params={"lambda"},
              aliases=("p1", "q1", "xi1", "p2", "q2", "xi2"))
    # -q1 - lambda*xi2 at q1=1, xi2=2, lambda=0.1  ->  -1.2
    assert evaluate(e, (0, 1, 0, 0, 0, 2), {"lambda": 0.1}) == pytest.approx(-1.2)


@pytest.mark.parametrize("aliases, params", [
    (("q", "q"), ()),
    (("a", "p"), ("a",)),
    (("x2", "x1"), ()),
    (("x3", "p"), ()),
    (("exp", "p"), ()),
])
def test_parse_rejects_an_alias_that_would_rebind_a_name(aliases, params):
    with pytest.raises(ValueError, match="alias"):
        parse("x1", n=2, params=params, aliases=aliases)


def test_parse_accepts_a_coordinate_name_as_the_alias_of_its_own_axis():
    assert parse("x1 + p", n=2, aliases=("x1", "p")) == Add(Coord(1), Coord(2))


def test_parse_syntax_error_offset():
    with pytest.raises(ParseError) as err:
        parse("x1 +* x2", n=2)
    assert err.value.offset == 4


def test_parse_unknown_identifier():
    with pytest.raises(ParseError):
        parse("x1 + y", n=2)
    with pytest.raises(ParseError):
        parse("x3", n=2)


def test_parse_function_arity():
    with pytest.raises(ParseError):
        parse("sqrt + 1", n=1)


def test_parse_rational_exponent():
    e = parse("x1^(3/2)", n=1)
    assert evaluate(e, (4.0,)) == pytest.approx(8.0)
    e2 = parse("x1^-2", n=1)
    assert evaluate(e2, (2.0,)) == pytest.approx(0.25)


def test_evaluate_examples():
    assert evaluate(parse("x1^2 + x2", n=2), (2, 1)) == 5.0
    assert evaluate(parse("sqrt(x3 + x4)", n=4), (0, 0, 1, 1)) == pytest.approx(math.sqrt(2))
    with pytest.raises(EvalDomainError):
        evaluate(parse("1/x4", n=4), (0, 0, 0, 0))
    with pytest.raises(EvalDomainError):
        evaluate(parse("log(x1)", n=1), (-1.0,))
    with pytest.raises(EvalDomainError):
        evaluate(parse("sqrt(x1)", n=1), (-1.0,))


def test_differentiate_power_rule():
    d = differentiate(parse("x1^2 + x2", n=2), 1)
    assert to_str(d) == "2.0*x1"
    assert differentiate(parse("x1^2 + x2", n=2), 2) == ex.ONE


def test_differentiate_chain_rule_sqrt():
    d = differentiate(parse("sqrt(x3 + x4)", n=4), 3)
    for p in [(0, 0, 1.0, 1.0), (0, 0, 0.5, 2.0)]:
        expected = 1.0 / (2.0 * math.sqrt(p[2] + p[3]))
        assert evaluate(d, p) == pytest.approx(expected, rel=1e-14)


def _fd(e, point, axis, step=1e-5):
    up = list(point)
    dn = list(point)
    up[axis - 1] += step
    dn[axis - 1] -= step
    return (evaluate(e, up) - evaluate(e, dn)) / (2 * step)


@st.composite
def smooth_exprs(draw, depth=3):
    if depth == 0:
        return draw(st.sampled_from([
            Const(draw(st.floats(-2, 2, allow_nan=False)).__float__()),
            Coord(draw(st.integers(1, 3))),
        ]))
    kind = draw(st.sampled_from(["add", "sub", "mul", "neg", "sin", "cos", "pow", "leaf"]))
    if kind == "leaf":
        return draw(smooth_exprs(depth=0))
    if kind in ("add", "sub", "mul"):
        a = draw(smooth_exprs(depth=depth - 1))
        b = draw(smooth_exprs(depth=depth - 1))
        return {"add": ex.add, "sub": ex.sub, "mul": ex.mul}[kind](a, b)
    if kind == "neg":
        return ex.neg(draw(smooth_exprs(depth=depth - 1)))
    if kind == "pow":
        return ex.powc(draw(smooth_exprs(depth=depth - 1)), draw(st.integers(2, 3)))
    return ex.call(kind, draw(smooth_exprs(depth=depth - 1)))


@settings(max_examples=60, deadline=None)
@given(smooth_exprs(), st.lists(st.floats(-1.5, 1.5, allow_nan=False),
                                min_size=3, max_size=3), st.integers(1, 3))
def test_derivative_matches_finite_difference(e, point, axis):
    d = differentiate(e, axis)
    exact = evaluate(d, point)
    approx = _fd(e, point, axis)
    assert abs(exact - approx) <= 1e-6 * (1.0 + abs(exact))


@settings(max_examples=60, deadline=None)
@given(smooth_exprs(), st.lists(st.floats(-1.5, 1.5, allow_nan=False),
                                min_size=3, max_size=3))
def test_print_parse_round_trip(e, point):
    text = to_str(e)
    back = parse(text, n=3)
    assert evaluate(back, point) == evaluate(e, point)


@st.composite
def domain_exprs(draw, depth=3):
    """Expressions that may fault: division, sqrt, log, rational and negative
    powers, negative constants and -0.0."""
    if depth == 0:
        return draw(st.sampled_from([
            Const(draw(st.floats(-2, 2, allow_nan=False)).__float__()),
            Const(-0.0),
            Const(-draw(st.sampled_from([0.5, 1.0, 1.5]))),
            Coord(draw(st.integers(1, 3))),
        ]))
    kind = draw(st.sampled_from(["add", "sub", "mul", "div", "neg", "sqrt", "log", "exp",
                                 "sin", "pow", "leaf"]))
    if kind == "leaf":
        return draw(domain_exprs(depth=0))
    if kind in ("add", "sub", "mul", "div"):
        a = draw(domain_exprs(depth=depth - 1))
        b = draw(domain_exprs(depth=depth - 1))
        return getattr(ex, kind)(a, b)
    if kind == "neg":
        return ex.neg(draw(domain_exprs(depth=depth - 1)))
    if kind == "pow":
        exponent = draw(st.sampled_from([Fraction(1, 2), Fraction(3, 2), Fraction(-1, 3),
                                         Fraction(-2), Fraction(3)]))
        return ex.powc(draw(domain_exprs(depth=depth - 1)), exponent)
    return ex.call(kind, draw(domain_exprs(depth=depth - 1)))


def _outcome(fn):
    """A value's bits, or the node text of the domain fault it raised."""
    try:
        return float.hex(fn())
    except EvalDomainError as exc:
        return ("fault", exc.node)


@settings(max_examples=150, deadline=None)
@given(st.one_of(smooth_exprs(), domain_exprs()),
       st.lists(st.floats(-1.5, 1.5, allow_nan=False), min_size=3, max_size=3))
def test_compiled_matches_tree_walk(e, point):
    want = _outcome(lambda: tree_walk(e, point))
    assert _outcome(lambda: compile_expr(e)(point)) == want
    assert _outcome(lambda: evaluate(e, point)) == want
    # inside a batch, after a sibling that shares its subexpressions
    d = differentiate(e, 1)
    values = ex.compile_vector([d, e])
    if isinstance(_outcome(lambda: tree_walk(d, point)), str):  # d itself does not fault
        assert _outcome(lambda: values(point)[1]) == want


def test_domain_faults_name_the_node():
    cases = [("1/(x1 - x2)", (1.0, 1.0), "division by zero", "1.0/(x1 - x2)"),
             ("sqrt(x1)/x2", (-1.0, 0.0), "sqrt of negative value", "sqrt(x1)"),
             ("log(x2) + 1", (1.0, -0.0), "log of nonpositive value", "log(x2)"),
             ("x1^(1/2)", (-4.0, 0.0), "power domain error", "x1^(1/2)"),
             ("1 + x1^400", (999.0, 0.0), "floating-point overflow", "x1^400"),
             ("exp(x1) * 2", (1000.0, 0.0), "floating-point overflow", "exp(x1)")]
    for text, point, message, node in cases:
        e = parse(text, n=2)
        with pytest.raises(EvalDomainError) as err:
            compile_expr(e)(point)
        assert message in str(err.value) and err.value.node == node
        with pytest.raises(EvalDomainError) as ref:
            tree_walk(e, point)
        assert ref.value.node == node


def test_nodes_are_interned():
    text = "sin(x1)*exp(x2) - x1/(1 + x2^2)"
    assert parse(text, n=2) is parse(text, n=2)
    assert Const(0.0) is not Const(-0.0)
    assert Const(0.0) is Const(0.0) and Const(2) is Const(2.0)
    assert Pow(Coord(1), 2) is Pow(Coord(1), Fraction(2))
    e = parse(text, n=2)
    assert differentiate(e, 1) is differentiate(e, 1)
    assert differentiate(e, 2) is differentiate(parse(text, n=2), 2)
    import copy
    import pickle
    assert copy.deepcopy(e) is e and pickle.loads(pickle.dumps(e)) is e


def test_one_temporary_per_unique_node():
    from ghm import systems
    from ghm.identities import divergence_exprs

    qs = systems.build("quasisymmetry")
    exprs = list(divergence_exprs(qs.tensor, qs.measure_weight).values())
    fn = ex.compile_vector(exprs)
    temporaries = [name for name in fn.__code__.co_varnames if name.startswith("t")]
    assert len(temporaries) == structural_node_count(exprs)
    assert len(temporaries) == len(reference_unique_nodes(exprs))


def test_literal_overflow_is_a_parse_error():
    with pytest.raises(ParseError) as err:
        parse("1e400*x1^2", n=1)
    assert err.value.offset == 0
    with pytest.raises(ParseError) as err:
        parse("x1^1e400", n=1)
    assert err.value.offset == 3


def test_evaluation_deterministic():
    e = parse("sin(x1)*exp(x2) - x1/(1 + x2^2)", n=2)
    vals = {evaluate(e, (0.31, -1.7)) for _ in range(10)}
    assert len(vals) == 1


def test_substitute_composition():
    e = parse("x1^2 + x2", n=2)
    sub = ex.substitute(e, {1: parse("x2 + 1", n=2)})
    assert evaluate(sub, (0.0, 2.0)) == pytest.approx(11.0)


def test_bind_params():
    e = parse("a*x1", n=1, params={"a"})
    bound = ex.bind_params(e, {"a": 3.0})
    assert evaluate(bound, (2.0,)) == 6.0
    with pytest.raises(EvalDomainError):
        compile_expr(e)


def test_scalar_field_gradient():
    f = ScalarField.from_text("x1^2*x2 + sin(x3)", n=3)
    g = f.gradient((1.0, 2.0, 0.0))
    assert g == pytest.approx([4.0, 1.0, 1.0])
    assert f((1.0, 2.0, 0.0)) == pytest.approx(2.0)


def test_constant_folding_keeps_trees_small():
    e = parse("0*x1 + 1*x2 + x1^1 + x2^0", n=2)
    # 0*x1 -> 0, folded away; 1*x2 -> x2; x1^1 -> x1; x2^0 -> 1
    assert evaluate(e, (5.0, 7.0)) == pytest.approx(7.0 + 5.0 + 1.0)
    assert ex.is_zero(ex.mul(Const(0.0), Coord(1)))
    assert ex.mul(Const(1.0), Coord(2)) == Coord(2)


def _constant_family(a: str):
    from ghm import systems

    return systems.quasisymmetry(bvec=("-x2", "x1", f"1 + x3 + {a}*x1"))


def test_systems_differing_in_constants_share_code_but_not_values():
    first, second = _constant_family("0.2718"), _constant_family("0.3141")
    fields = [s.bracket_field for s in (first, second)]
    assert fields[0].compiled.__code__ is fields[1].compiled.__code__
    assert first._row.__code__ is second._row.__code__
    for field, a in zip(fields, ("0.2718", "0.3141")):
        for point in ((1.0, 0.5, 0.3), (1.7, -1.2, 0.9)):
            want = [tree_walk(e, point).hex() for e in field.components]
            assert [v.hex() for v in field.compiled(point)] == want
        # B vanishes at (0, 0, -1): grad|B| divides 0 by 0 in a node holding a
        with pytest.raises(EvalDomainError) as got:
            field.compiled((0.0, 0.0, -1.0))
        with pytest.raises(EvalDomainError) as want:
            [tree_walk(e, (0.0, 0.0, -1.0)) for e in field.components]
        assert got.value.node == want.value.node and a in got.value.node
    assert first.bracket_field.compiled((1.0, 0.5, 0.3)) != second.bracket_field.compiled(
        (1.0, 0.5, 0.3))


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan, -0.0])
def test_a_non_finite_or_signed_zero_constant_keeps_its_bits(value):
    bits = struct.Struct("<d").pack
    for e in (Const(value), ex.mul(Const(value), Coord(1)), ex.add(Coord(1), Const(value))):
        for point in ((2.0,), (-0.0,), (0.0,)):
            want = bits(tree_walk(e, point))
            assert bits(compile_expr(e)(point)) == want
            assert bits(ex.compile_vector([e, e])(point)[1]) == want


def test_the_code_cache_is_bounded_and_an_evicted_shape_recompiles():
    shapes = [ex.powc(Coord(1), k) for k in range(2, ex._CODE_CACHE_SIZE + 3)]
    first = ex.compile_vector([shapes[0]])
    for e in shapes[1:]:
        ex.compile_vector([e])
    assert ex._code.cache_info().currsize == ex._CODE_CACHE_SIZE
    misses = ex._code.cache_info().misses
    again = ex.compile_vector([shapes[0]])  # evicted as the least recent
    assert ex._code.cache_info().misses == misses + 1
    assert again.__code__ is not first.__code__
    assert again((1.5,)) == first((1.5,)) == (1.5 ** 2,)


def test_the_code_cache_keeps_no_node_alive():
    import gc
    import weakref

    def shape(c, d):
        e = ex.div(ex.call("exp", ex.mul(Const(c), Coord(3))), ex.add(Coord(2), Const(d)))
        return [e, ex.neg(e)]

    exprs = shape(0.8125, 7.25)
    ref = weakref.ref(exprs[0])
    fn = ex.compile_vector(exprs)
    code = fn.__code__
    assert fn((0.0, 1.0, 2.0))[0] == math.exp(0.8125 * 2.0) / 8.25
    del exprs, fn
    gc.collect()
    assert ref() is None
    misses = ex._code.cache_info().misses
    again = ex.compile_vector(shape(0.5, 7.0))
    assert again.__code__ is code and ex._code.cache_info().misses == misses
    assert again((0.0, 1.0, 2.0)) == (math.exp(1.0) / 8.0, -(math.exp(1.0) / 8.0))


def test_building_a_system_again_with_new_constants_compiles_nothing_new(capsys):
    from ghm.cli import main

    def build_and_check(a):
        s = _constant_family(a)
        s.bracket_field.compiled(s.base_point)
        s._row(s.base_point)
        assert main(["check", "quasisymmetry", f"--bvec=-x2;x1;1 + x3 + {a}*x1",
                     "--samples", "3"]) == 0
        return capsys.readouterr().out

    build_and_check("0.2718")
    misses = ex._code.cache_info().misses
    assert "overall: PASS" in build_and_check("0.3141")
    assert ex._code.cache_info().misses == misses


# ---------------------------------------------------------------------------
# The one-pass compiler against the former two-pass generator
# ---------------------------------------------------------------------------

def _generation(generate, exprs, scalar):
    """Source text, constants by name with their bits, and the node of each
    line by identity; or the message of the fault raised while generating."""
    try:
        source, consts, nodes = generate(exprs, scalar)
    except EvalDomainError as exc:
        return ("fault", str(exc))
    return source, [(name, float.hex(v)) for name, v in consts.items()], [id(e) for e in nodes]


def _assert_generated_as_before(exprs, scalar, axes):
    assert _generation(ex._generate, exprs, scalar) == _generation(reference_generate, exprs,
                                                                   scalar)
    for e in reference_unique_nodes(exprs):
        for axis in axes:
            assert ex._derive(e, axis) is reference_derive(e, axis), (to_str(e), axis)


_EXPONENTS = [Fraction(2), Fraction(3), Fraction(-1), Fraction(1, 2), Fraction(-3, 2)]


@st.composite
def shared_dags(draw):
    """Bundles over a pool of nodes in which each new node takes its operands
    from the earlier ones, so subtrees are shared; every node class, built
    raw or through the folding constructors, and the constants -0.0, inf
    and nan."""
    pool = [Const(-0.0), Const(math.inf), Const(math.nan), Coord(1), Coord(2), Coord(3),
            Const(draw(st.sampled_from([0.0, 1.0, -2.5, 0.1, 1e300])))]
    if draw(st.integers(0, 9)) == 0:
        pool.append(Param("a"))
    for _ in range(draw(st.integers(1, 30))):
        a, b = draw(st.sampled_from(pool)), draw(st.sampled_from(pool))
        kind = draw(st.sampled_from(["add", "sub", "mul", "div", "neg", "pow", "call"]))
        raw = draw(st.booleans())
        if kind in ("add", "sub", "mul", "div"):
            cls = {"add": Add, "sub": Sub, "mul": Mul, "div": Div}[kind]
            node = cls(a, b) if raw else getattr(ex, kind)(a, b)
        elif kind == "neg":
            node = Neg(a) if raw else ex.neg(a)
        elif kind == "pow":
            exponent = draw(st.sampled_from(_EXPONENTS))
            node = Pow(a, exponent) if raw else ex.powc(a, exponent)
        else:
            fn = draw(st.sampled_from(ex.FUNCTIONS))
            node = Call(fn, a) if raw else ex.call(fn, a)
        pool.append(node)
    return draw(st.lists(st.sampled_from(pool[-12:]), min_size=1, max_size=6))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(exprs=shared_dags(), scalar=st.booleans())
def test_the_one_pass_compiler_writes_the_former_source_on_drawn_dags(exprs, scalar):
    _assert_generated_as_before(exprs[:1] if scalar else exprs, scalar, axes=(1, 2, 3))


def test_the_one_pass_compiler_writes_the_former_source_for_the_systems(monkeypatch, capsys):
    # every bundle compiled while building and checking the built-ins,
    # flat_nambu(4, 3) and a quasisymmetric field with drawn constants
    from ghm.cli import main

    rng = np.random.default_rng(15)
    a, b, c = (round(float(v), 4) for v in rng.uniform(0.05, 0.3, 3))
    compile_, bundles = ex._compile, []

    def recorded(exprs, scalar):
        bundles.append((exprs, scalar))
        return compile_(exprs, scalar)

    monkeypatch.setattr(ex, "_compile", recorded)
    for argv in (["oscillator"], ["fourdim"], ["quasisymmetry"], ["flat_nambu"],
                 ["flat_nambu", "--n", "4", "--k", "3"],
                 ["quasisymmetry", f"--psi=x1^2 + x2^2 + {a}*x1*x3",
                  f"--bvec=-x2 + {b}*x3;x1;1 + x3 + {c}*x1^2"]):
        assert main(["check", *argv, "--samples", "3"]) in (0, 1)  # oscillator fails FI
    capsys.readouterr()
    # a check compiles its scans as one bundle: fewer bundles, the same 89 expressions
    assert len(bundles) >= 14 and sum(len(exprs) for exprs, _ in bundles) >= 89
    for exprs, scalar in bundles:
        _assert_generated_as_before(exprs, scalar, axes=range(1, 7))


# ---------------------------------------------------------------------------
# The depth limit
# ---------------------------------------------------------------------------

def _chain(cls, depth: int) -> str:
    """Text whose tree is ``depth`` levels deep, every other level (every
    level for a binary class) a ``cls`` node; binary chains alternate x1 and
    the parameter a."""
    if cls in (Add, Sub, Mul, Div):
        op = {Add: " + ", Sub: " - ", Mul: "*", Div: "/"}[cls]
        return op.join("a" if i % 2 else "x1" for i in range(depth))
    text = "x1"
    for i in range(depth - 1):
        if cls is Neg:  # -(-e) folds to e: a product between two minuses
            text = f"-({text})" if i % 2 == 0 else f"x2*{text}"
        elif cls is Pow:
            text = f"({text})^(1/2)" if i % 2 else f"({text})^2"
        else:
            text = f"{ex.FUNCTIONS[i % len(ex.FUNCTIONS)]}({text})"
    return text


@pytest.mark.parametrize("cls", [Add, Sub, Mul, Div, Neg, Pow, Call])
def test_a_chain_at_the_depth_limit_runs_every_walk(cls):
    # parse, bind, substitute, print, both derivative orders and compile,
    # under Python's default recursion limit
    import sys

    assert sys.getrecursionlimit() == 1000
    text = _chain(cls, ex.MAX_EXPR_DEPTH)
    e = ex.bind_params(parse(text, 2, params={"a"}), {"a": 0.75})
    assert ex.tree_depth(e) == ex.MAX_EXPR_DEPTH
    assert ex.tree_depth(parse(text, 2, params={"a"})) == ex.MAX_EXPR_DEPTH
    assert to_str(ex.substitute(e, {1: Coord(2)}))
    first = [differentiate(e, u) for u in (1, 2)]
    second = [differentiate(d, u) for d in first for u in (1, 2)]
    assert [to_str(d) for d in first + second]
    values = ex.compile_vector([e, *first, *second])
    for point in ((0.6, 0.8), (0.0, -0.5)):
        try:
            values(point)
        except EvalDomainError as exc:  # the fault names its node in full
            assert exc.node
    with pytest.raises(ParseError, match="more than"):
        parse(_chain(cls, ex.MAX_EXPR_DEPTH + 1), 2, params={"a"})


@pytest.mark.parametrize("opening, closing", [("(", ")"), ("-", ""), ("sin(", ")")],
                         ids=["parentheses", "minus", "call"])
def test_nesting_past_the_depth_limit_is_a_parse_error(opening, closing):
    # the parser's own descent is bounded before any tree exists
    depth = ex.MAX_EXPR_DEPTH
    assert parse(opening * (depth - 1) + "x1" + closing * (depth - 1), 1)
    with pytest.raises(ParseError, match=f"nested more than {depth} levels"):
        parse(opening * (depth + 1) + "x1" + closing * (depth + 1), 1)


@pytest.mark.parametrize("walk", ["compile_expr", "compile_vector", "differentiate", "substitute",
                                  "bind_params", "to_str"])
def test_a_built_tree_too_deep_to_walk_is_a_typed_error(walk):
    # no depth limit guards a tree built through the constructors: a sum of
    # 1,500 terms exceeds Python's recursion limit in every recursive walk
    from ghm.errors import ExprDepthError, GhmError

    e = Coord(1)
    for _ in range(1499):
        e = ex.add(e, Coord(1))
    calls = {"compile_expr": lambda: compile_expr(e),
             "compile_vector": lambda: ex.compile_vector([ex.ONE, e]),
             "differentiate": lambda: differentiate(e, 1),
             "substitute": lambda: ex.substitute(e, {1: Coord(2)}),
             "bind_params": lambda: ex.bind_params(e, {}),
             "to_str": lambda: to_str(e)}
    for _ in range(2):  # a failed walk leaves nothing behind that changes the next
        with pytest.raises(ExprDepthError, match=f"^{walk}: expression is 1500 levels deep") as info:
            calls[walk]()
        assert isinstance(info.value, GhmError) and info.value.depth == 1500
