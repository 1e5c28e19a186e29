import dataclasses
import math
import operator
import re
import struct
from collections.abc import Mapping
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
    guarded_tree_walk,
    reference_derive,
    reference_generate,
    reference_parse_then_bind,
    reference_tokenize,
    reference_unique_nodes,
    structural_node_count,
    tree_walk,
)


def test_parse_basic_tree():
    e = parse("x1^2 + x2", n=2)
    assert e == Add(Pow(Coord(1), 2), Coord(2))


def test_parse_with_aliases_and_params():
    e = parse("-q1 - lambda*xi2", n=6, params={"lambda": 0.1},
              aliases=("p1", "q1", "xi1", "p2", "q2", "xi2"))
    # -q1 - lambda*xi2 at q1=1, xi2=2, lambda=0.1  ->  -1.2
    assert e == Sub(Neg(Coord(2)), Mul(Const(0.1), Coord(6)))
    assert evaluate(e, (0, 1, 0, 0, 0, 2)) == pytest.approx(-1.2)


@pytest.mark.parametrize("aliases, params", [
    (("q", "q"), {}),
    (("a", "p"), {"a": 1.0}),
    (("x2", "x1"), {}),
    (("x3", "p"), {}),
    (("exp", "p"), {}),
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
    # the walk's value, or its first fault, or the guard's error for a value
    # that is not finite (a folded constant can be inf)
    want = _outcome(lambda: guarded_tree_walk([e], point)[0])
    assert _outcome(lambda: compile_expr(e)(point)) == want
    assert _outcome(lambda: evaluate(e, point)) == want
    # inside a batch, after a sibling that shares its subexpressions
    d = differentiate(e, 1)
    values = ex.compile_vector([d, e])
    assert _outcome(lambda: values(point)[1]) == _outcome(lambda: guarded_tree_walk([d, e],
                                                                                    point)[1])


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
    # a NaN is keyed by its bits: equal bits are one node, another payload another
    payload = struct.unpack("<d", struct.pack("<Q", 0x7FF8000000000001))[0]
    assert Const(math.nan) is Const(float("nan")) and Const(payload) is not Const(math.nan)


def _random_qs_texts(rng):
    def poly():
        c = rng.uniform(-1, 1, size=6)
        return (f"{c[0]:.6f} + {c[1]:.6f}*x1 + {c[2]:.6f}*x2 + {c[3]:.6f}*x3 "
                f"+ {c[4]:.6f}*x1*x2 + {c[5]:.6f}*x2*x3")

    return {"psi": poly(), "bvec": (f"1.5 + {poly()}", poly(), poly())}


def test_the_intern_table_keeps_only_live_nodes():
    # building and dropping systems leaves the table as it was, and no entry
    # holds a dead reference: a node's death deletes its own entry
    import gc

    from ghm import systems

    gc.collect()
    baseline = len(ex._LIVE)
    rng = np.random.default_rng(29)
    built = [systems.build(name) for name in ("oscillator", "fourdim", "quasisymmetry",
                                              "flat_nambu")]
    built += [systems.quasisymmetry(**_random_qs_texts(rng)) for _ in range(20)]
    for system in built:
        system.bracket_field.compiled(system.base_point)
    assert len(ex._LIVE) > baseline
    del built, system
    gc.collect()
    assert len(ex._LIVE) == baseline
    assert all(ref() is not None and ref.key == key for key, ref in ex._LIVE.items())


def test_a_node_built_again_after_its_death_is_a_new_node_under_the_same_key():
    import gc
    import weakref

    def build():
        return ex.mul(Coord(2), ex.call("exp", Const(0.1234567)))

    node = build()
    key, dead = (Mul, node.a, node.b), weakref.ref(node)
    assert ex._LIVE[key]() is node and build() is node
    del node
    gc.collect()
    assert dead() is None and key not in ex._LIVE
    again = build()
    assert ex._LIVE[key]() is again and ex._LIVE[key].key == key
    # the callback of a reference no longer in the table deletes nothing:
    # the entry holds the reference of the node built again
    stale = ex._Ref(Coord(2))
    stale.key = key
    ex._forget(stale)
    assert ex._LIVE[key]() is again and build() is again


_FOLD_OPERANDS = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0, 1e200, -1e-200, 5e-324]),
                           st.floats(allow_nan=False, allow_infinity=False))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(a=_FOLD_OPERANDS, b=_FOLD_OPERANDS)
def test_two_constants_fold_exactly_when_the_value_is_finite(a, b):
    # the folded constant has the float result's bits; an inf or NaN result
    # keeps the operation's node.  A 0 or 1 operand is a unit rule instead
    # (0 + e is e, 0 * e is 0.0), which can differ from the float result in
    # the sign of a zero
    bits = struct.Struct("<d").pack
    for fold, node, value in ((ex.add, Add, operator.add), (ex.sub, Sub, operator.sub),
                              (ex.mul, Mul, operator.mul), (ex.div, Div, operator.truediv)):
        if fold is ex.div and b == 0.0:
            continue
        want, got = value(a, b), fold(Const(a), Const(b))
        if not math.isfinite(want):
            assert got is node(Const(a), Const(b))
        elif a in (0.0, 1.0) or b in (0.0, 1.0):
            assert type(got) is Const and got.value == want
        else:
            assert got is Const(want) and bits(got.value) == bits(want)


def test_a_constant_fold_that_overflows_keeps_the_operation_written():
    assert to_str(parse("x1 + 1e200*1e200", 1)) == "x1 + 1e+200*1e+200"
    assert parse("1e308 + 1e308", 1) is Add(Const(1e308), Const(1e308))
    assert parse("1e300/1e-300 - 1", 1) is Sub(Div(Const(1e300), Const(1e-300)), Const(1.0))
    assert parse("1e-300/1e300", 1) is Const(0.0)  # an underflow is finite
    assert differentiate(parse("x1*1e200*1e200", 1), 1) is Mul(Const(1e200), Const(1e200))
    with pytest.raises(EvalDomainError, match=r"^non-finite value at node 1e\+200\*1e\+200$"):
        evaluate(parse("x1 + 1e200*1e200", 1), (1.0,))


@st.composite
def token_texts(draw):
    """Texts of the parser's grammar, with or without stray characters and
    surrounding whitespace."""
    text = draw(st.one_of(parameter_texts(),
                          st.text(alphabet=" \t\nx12.eE+-*/^()ab_$9", max_size=24)))
    if draw(st.booleans()):
        at = draw(st.integers(0, len(text)))
        text = text[:at] + draw(st.sampled_from("$#!@ \t")) + text[at:]
    return draw(st.sampled_from(["", " "])) + text + draw(st.sampled_from(["", "", " ", "\n"]))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(text=token_texts())
def test_the_one_pass_tokenizer_reads_the_former_tokens(text):
    try:
        want = reference_tokenize(text)
    except ParseError as err:
        with pytest.raises(ParseError) as got:
            ex._tokenize(text)
        assert (str(got.value), got.value.offset) == (str(err), err.offset)
        return
    except IndexError:  # the former tokenizer failed on trailing whitespace
        assert text != text.rstrip()
        want = reference_tokenize(text.rstrip())[:-1] + [("end", "", len(text))]
    assert ex._tokenize(text) == want


def test_trailing_whitespace_parses_as_the_text_without_it():
    assert parse("x1*x2 \n", 2) is parse(" x1*x2", 2)
    with pytest.raises(ParseError, match="unexpected end of input") as err:
        parse("x1 + \t", 2)
    assert err.value.offset == 6


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


# ---------------------------------------------------------------------------
# Parameters: numbers from the parse
# ---------------------------------------------------------------------------

def _exprs_of(value) -> list:
    """Every expression a system member holds, in a fixed order."""
    from ghm.exterior import FormField, MultiVectorField, VectorField

    if isinstance(value, ex.Expr):
        return [value]
    if isinstance(value, ScalarField):
        return [value.expression]
    if isinstance(value, (FormField, MultiVectorField)):
        return list(value.coeffs.values())
    if isinstance(value, VectorField):
        return list(value.components)
    if isinstance(value, Mapping):
        value = list(value.values())
    if isinstance(value, (tuple, list)):
        return [e for v in value for e in _exprs_of(v)]
    return []


def _config(name: str):
    from pathlib import Path

    from ghm.cli import load_config

    return lambda: load_config(str(Path(__file__).resolve().parents[1] / "bench" / "configs"
                                   / f"{name}.json"))


def _builders():
    from ghm import systems

    return {**{f"oscillator lam={lam!r}": (lambda lam=lam: systems.oscillator(lam))
               for lam in (0.1, 0.0, -0.0, -2.0)},
            "fourdim": systems.fourdim, "quasisymmetry": systems.quasisymmetry,
            "flat_nambu": systems.flat_nambu,
            **{name: _config(name) for name in ("fourdim_form", "inconsistent_form",
                                                "oscillator_form")}}


@pytest.mark.parametrize("name", list(_builders()))
def test_a_system_parses_to_the_nodes_of_the_former_parse_then_bind(monkeypatch, name):
    # every expression of the system, built once with the parameters read as
    # numbers and once with them parsed as leaves and bound afterwards, is
    # the same interned node
    build = _builders()[name]
    system, texts = build(), []

    def former(text, n, params=None, aliases=None):
        texts.append(text)
        return reference_parse_then_bind(text, n, params, aliases)

    monkeypatch.setattr(ex, "parse", former)
    reference = build()
    assert name == "flat_nambu" or texts  # only flat_nambu parses no text
    for field in dataclasses.fields(system):
        got, want = (_exprs_of(getattr(s, field.name)) for s in (system, reference))
        assert len(got) == len(want) and all(map(operator.is_, got, want)), field.name


@st.composite
def parameter_texts(draw, depth=3):
    """Texts over x1, x2 and the parameters a and b."""
    if depth == 0:
        return draw(st.sampled_from(["a", "b", "x1", "x2", "0", "1", "2.5"]))
    kind = draw(st.sampled_from(["+", "-", "*", "/", "neg", "pow", "call", "leaf"]))
    if kind == "leaf":
        return draw(parameter_texts(depth=0))
    inner = draw(parameter_texts(depth=depth - 1))
    if kind == "neg":
        return f"-{inner}"
    if kind == "pow":
        return f"({inner})^{draw(st.sampled_from(['2', '-1', '(1/2)', '(-3/2)']))}"
    if kind == "call":
        return f"{draw(st.sampled_from(ex.FUNCTIONS))}({inner})"
    text = f"{inner} {kind} {draw(parameter_texts(depth=depth - 1))}"
    return f"({text})" if draw(st.booleans()) else text


_PARAMETER_VALUES = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0]),
                              st.floats(allow_nan=False, allow_infinity=False))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(text=parameter_texts(), a=_PARAMETER_VALUES, b=_PARAMETER_VALUES)
def test_a_parameter_parses_as_its_value_written_in(text, a, b):
    values = {"a": a, "b": b}
    written = re.sub(r"\b[ab]\b", lambda m: f"({values[m.group()]!r})", text)
    assert parse(text, 2, params=values) is parse(written, 2)


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
    # -0.0 keeps its bits; an inf or NaN, the first value of each bundle
    # that is not finite, fails the guard, which names it
    bits = struct.Struct("<d").pack
    for e in (Const(value), ex.mul(Const(value), Coord(1)), ex.add(Coord(1), Const(value))):
        for point in ((2.0,), (-0.0,), (0.0,)):
            if math.isfinite(value):
                want = bits(tree_walk(e, point))
                assert bits(compile_expr(e)(point)) == want
                assert bits(ex.compile_vector([e, e])(point)[1]) == want
                continue
            for run in (compile_expr(e), ex.compile_vector([e, e])):
                with pytest.raises(EvalDomainError) as got:
                    run(point)
                assert str(got.value) == f"non-finite value at node {value!r}"


def test_the_guard_passes_large_finite_values_and_keeps_minus_zero():
    # 0.0 * 1e308 is 0.0 and 0.0 * -0.0 is -0.0: the guard sums only zeros,
    # where a plain sum of 1e308 and 1.5e308 would overflow
    f = ex.compile_vector([ex.mul(Coord(1), Const(1e308)), ex.mul(Coord(2), Const(1e308)),
                           ex.neg(Coord(3))])
    assert [v.hex() for v in f((1.0, 1.5, 0.0))] == [(1e308).hex(), (1.5e308).hex(),
                                                      (-0.0).hex()]


def test_the_guard_names_the_first_node_that_is_not_finite():
    # x1*1e200*1e200 overflows before the subtraction makes NaN of it; in a
    # bundle, the first such node in evaluation order is named, and a result
    # that is finite again (1/inf) is no fault
    h = parse("x1*1e200*1e200 - x1*1e200*1e200 + x2", 3)
    for run in (compile_expr(h), ex.compile_vector([parse("x3", 3), h])):
        with pytest.raises(EvalDomainError) as err:
            run((1.0, 0.5, 0.5))
        assert (str(err.value), err.value.node) == \
            ("non-finite value at node x1*1e+200*1e+200", "x1*1e+200*1e+200")
    assert compile_expr(h)((0.0, 0.5, 0.5)) == 0.5
    both = ex.compile_vector([parse("x2*1e300*1e300", 2), parse("x1*1e300*1e300", 2)])
    with pytest.raises(EvalDomainError, match=re.escape("at node x2*1e+300*1e+300")):
        both((1.0, 1.0))
    assert compile_expr(parse("1/(x1*1e200*1e200)", 1))((1.0,)) == 0.0


def test_a_bundle_of_thousands_of_results_compiles_with_its_guard():
    # the guard's sum of 5000 terms nests in groups of 64, two levels deep; a
    # flat chain of that many additions is deeper than Python's compiler goes
    exprs = [ex.mul(Coord(1), Const(float(i + 2))) for i in range(5000)]
    assert ex.compile_vector(exprs)((0.5,)) == tuple(0.5 * (i + 2) for i in range(5000))
    first = next(c for c in range(2, 5002) if math.isinf(3.6e304 * c))  # 4994
    with pytest.raises(EvalDomainError, match=re.escape(f"at node x1*{float(first)!r}")):
        ex.compile_vector(exprs)((3.6e304,))


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

def _generation(generate, exprs):
    """Source text, constants by name with their bits, and the node of each
    line by identity; or the message of the fault raised while generating."""
    try:
        source, consts, nodes = generate(exprs)
    except EvalDomainError as exc:
        return ("fault", str(exc))
    return source, [(name, float.hex(v)) for name, v in consts.items()], [id(e) for e in nodes]


def _assert_generated_as_before(exprs, axes):
    assert _generation(ex._generate, exprs) == _generation(
        lambda exprs: reference_generate(exprs, scalar=False), exprs)
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
@given(exprs=shared_dags(), single=st.booleans())
def test_the_one_pass_compiler_writes_the_former_source_on_drawn_dags(exprs, single):
    # a one-element bundle is what compile_expr compiles
    _assert_generated_as_before(exprs[:1] if single else exprs, axes=(1, 2, 3))


def test_the_one_pass_compiler_writes_the_former_source_for_the_systems(monkeypatch, capsys):
    # every bundle compiled while building and checking the built-ins,
    # flat_nambu(4, 3) and a quasisymmetric field with drawn constants
    from ghm.cli import main

    rng = np.random.default_rng(15)
    a, b, c = (round(float(v), 4) for v in rng.uniform(0.05, 0.3, 3))
    compile_, bundles = ex._compile, []

    def recorded(exprs):
        bundles.append(exprs)
        return compile_(exprs)

    monkeypatch.setattr(ex, "_compile", recorded)
    for argv in (["oscillator"], ["fourdim"], ["quasisymmetry"], ["flat_nambu"],
                 ["flat_nambu", "--n", "4", "--k", "3"],
                 ["quasisymmetry", f"--psi=x1^2 + x2^2 + {a}*x1*x3",
                  f"--bvec=-x2 + {b}*x3;x1;1 + x3 + {c}*x1^2"]):
        assert main(["check", *argv, "--samples", "3"]) in (0, 1)  # oscillator fails FI
    capsys.readouterr()
    # a check compiles its scans as one bundle: fewer bundles, the same 89 expressions
    assert len(bundles) >= 14 and sum(len(exprs) for exprs in bundles) >= 89
    for exprs in bundles:
        _assert_generated_as_before(exprs, axes=range(1, 7))


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
    # parse, substitute, print, both derivative orders and compile, under
    # Python's default recursion limit
    import sys

    assert sys.getrecursionlimit() == 1000
    e = parse(_chain(cls, ex.MAX_EXPR_DEPTH), 2, params={"a": 0.75})
    assert ex.tree_depth(e) == ex.MAX_EXPR_DEPTH
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
        parse(_chain(cls, ex.MAX_EXPR_DEPTH + 1), 2, params={"a": 0.75})


@pytest.mark.parametrize("opening, closing", [("(", ")"), ("-", ""), ("sin(", ")")],
                         ids=["parentheses", "minus", "call"])
def test_nesting_past_the_depth_limit_is_a_parse_error(opening, closing):
    # the parser's own descent is bounded before any tree exists
    depth = ex.MAX_EXPR_DEPTH
    assert parse(opening * (depth - 1) + "x1" + closing * (depth - 1), 1)
    with pytest.raises(ParseError, match=f"nested more than {depth} levels"):
        parse(opening * (depth + 1) + "x1" + closing * (depth + 1), 1)


@pytest.mark.parametrize("walk", ["compile_expr", "compile_vector", "differentiate", "substitute",
                                  "to_str"])
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
             "to_str": lambda: to_str(e)}
    for _ in range(2):  # a failed walk leaves nothing behind that changes the next
        with pytest.raises(ExprDepthError, match=f"^{walk}: expression is 1500 levels deep") as info:
            calls[walk]()
        assert isinstance(info.value, GhmError) and info.value.depth == 1500
