import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from errprop import eval_numeric, eval_uncertain, make_uncertain, parse_expr, render
from errprop.core import UncertainScalar, UncertainVector
from errprop.exceptions import LexError, ParseError, UnboundVariable, UnknownFunction
from errprop.expr import Binary, Const, Unary, Var, free_variables, parse, tokenize
from errprop.propagation import propagate_general


def test_tokenize_simple():
    toks = tokenize("x/y")
    assert [(t.kind, t.text) for t in toks] == [
        ("name", "x"), ("op", "/"), ("name", "y")
    ]


def test_tokenize_call_and_number():
    toks = tokenize("sin(x) + 2e-3")
    assert [(t.kind, t.text) for t in toks] == [
        ("name", "sin"), ("op", "("), ("name", "x"), ("op", ")"),
        ("op", "+"), ("num", "2e-3"),
    ]


def test_lex_error_offset():
    with pytest.raises(LexError) as ei:
        tokenize("x $ y")
    assert ei.value.offset == 2


def test_parse_division():
    assert parse_expr("x/y") == Binary("div", Var("x"), Var("y"))


def test_parse_distinguishes_scaling_from_self_addition():
    assert parse_expr("2*x") == Binary("mul", Const(2.0), Var("x"))
    assert parse_expr("x+x") == Binary("add", Var("x"), Var("x"))
    assert parse_expr("2*x") != parse_expr("x+x")


def test_precedence():
    assert parse_expr("a+b*c") == Binary(
        "add", Var("a"), Binary("mul", Var("b"), Var("c"))
    )
    assert parse_expr("a^b^c") == Binary(
        "pow", Var("a"), Binary("pow", Var("b"), Var("c"))
    )
    assert parse_expr("-a^2") == Unary("neg", Binary("pow", Var("a"), Const(2.0)))
    assert parse_expr("-a*b") == Binary("mul", Unary("neg", Var("a")), Var("b"))
    assert parse_expr("x**2") == parse_expr("x^2")


def test_parse_call_arity_and_unknown():
    assert parse_expr("atan2(y, x)") == Binary("atan2", Var("y"), Var("x"))
    with pytest.raises(ParseError):
        parse_expr("sin(x, y)")
    with pytest.raises(UnknownFunction):
        parse_expr("gamma(x)")


def test_parse_errors():
    with pytest.raises(ParseError):
        parse_expr("a +")
    with pytest.raises(ParseError):
        parse_expr("(a")
    with pytest.raises(ParseError):
        parse_expr("a b")


def test_eval_uncertain_division():
    ast = parse_expr("x/y")
    env = {"x": UncertainScalar(5, 0.01), "y": UncertainScalar(1, 0.01)}
    out = eval_uncertain(ast, env)
    assert out.value == 5.0
    assert out.error == pytest.approx(0.0509902, abs=1e-7)


def test_eval_uncertain_result_type():
    ast = parse_expr("x*y + 1")
    out = eval_uncertain(ast, {"x": UncertainScalar(2.0, 0.1), "y": 3})
    assert isinstance(out, UncertainScalar)
    assert out == UncertainScalar(7.0, 0.30000000000000004)
    assert isinstance(eval_uncertain(parse_expr("2"), {}), UncertainScalar)
    vec = make_uncertain([1.0, 2.0], 0.1)
    out = eval_uncertain(ast, {"x": vec, "y": UncertainScalar(3.0, 0.0)})
    assert isinstance(out, UncertainVector)
    assert out.values.tolist() == [4.0, 7.0]
    assert out[1] == eval_uncertain(ast, {"x": vec[1], "y": UncertainScalar(3.0, 0.0)})
    # a vector binding makes a vector, even one the expression leaves unused
    assert eval_uncertain(parse_expr("x"), {"x": 5, "v": vec}) == make_uncertain([5.0], 0.0)


def test_eval_independence_semantics():
    env = {"x": UncertainScalar(1.0, 1 / 30)}
    double = eval_uncertain(parse_expr("x+x"), env)
    scaled = eval_uncertain(parse_expr("2*x"), env)
    assert double.value == scaled.value == 2.0
    assert double.error == pytest.approx(0.04714045, abs=1e-8)
    assert scaled.error == pytest.approx(0.06666667, abs=1e-8)


def test_eval_unbound():
    with pytest.raises(UnboundVariable):
        eval_uncertain(parse_expr("x/y"), {"x": UncertainScalar(5, 0.01)})
    with pytest.raises(UnboundVariable):
        eval_numeric(parse_expr("x"), {})


def test_eval_numeric_basics():
    assert eval_numeric(parse_expr("x/y"), {"x": 5.0, "y": 1.0}) == 5.0
    assert eval_numeric(parse_expr("sin(0)"), {}) == 0.0
    out = eval_numeric(parse_expr("x + y"), {"x": np.arange(3.0), "y": 1.0})
    assert out.tolist() == [1.0, 2.0, 3.0]


def test_free_variables():
    assert free_variables(parse_expr("sin(x) + atan2(y, 2*z)")) == {"x", "y", "z"}


names = st.sampled_from(["x", "y", "z"])
unary_fns = st.sampled_from(["sin", "cos", "exp", "atan", "tanh", "neg"])


@st.composite
def asts(draw, depth=0):
    if depth > 3 or draw(st.booleans()):
        if draw(st.booleans()):
            return Var(draw(names))
        return Const(draw(st.floats(0.1, 4.0) | st.sampled_from([math.inf, 1e300, 1e22])))
    kind = draw(st.integers(0, 2))
    if kind == 0:
        return Unary(draw(unary_fns), draw(asts(depth + 1)))
    fn = draw(st.sampled_from(["add", "sub", "mul", "div", "pow", "atan2"]))
    return Binary(fn, draw(asts(depth + 1)), draw(asts(depth + 1)))


@settings(max_examples=200, deadline=None)
@given(ast=asts())
def test_render_parse_roundtrip(ast):
    assert parse_expr(render(ast)) == ast


def test_render_flat_product():
    # 5,000 levels deep: tree equality would recurse, so compare the text
    text = " * ".join(["x"] * 5000)
    assert render(parse_expr(text.replace(" ", ""))) == text
    assert render(parse_expr(text)) == text


@settings(max_examples=200, deadline=None)
@given(ast=asts())
# x - inf: a 0-d (-inf)^0.5 takes numpy's sqrt path (NaN), a 1-d one pow (inf)
@example(ast=parse_expr("(x + -(x + 1e999))^0.5"))
def test_value_part_matches_numeric(ast):
    env = {n: UncertainScalar(v, v / 10) for n, v in
           zip("xyz", (1.5, 2.5, 0.75))}
    numeric = float(np.asarray(eval_numeric(ast, {k: s.value for k, s in env.items()})))
    uncertain = eval_uncertain(ast, env)
    if math.isnan(numeric):
        assert math.isnan(uncertain.value)
    else:
        assert uncertain.value == numeric


@settings(max_examples=200, deadline=None)
@given(ast=asts())
@example(ast=parse_expr("sin(x)^2"))
def test_value_part_matches_numeric_on_vectors(ast):
    # a length-1 operand meets a vector in both evaluators: numpy takes other
    # paths for a broadcast one (x*x for x^2), and their last bits can differ
    values = dict(zip("xyz", np.random.default_rng(0).uniform(-3, 3, (3, 200))))
    env = {n: make_uncertain(v, np.abs(v) / 10) for n, v in values.items()}
    numeric = np.broadcast_to(eval_numeric(ast, values), 200)
    uncertain = np.broadcast_to(eval_uncertain(ast, env).values, 200)
    assert np.array_equal(uncertain, numeric, equal_nan=True)


def test_single_occurrence_matches_general_law():
    # each variable once: the rule-by-rule error must equal J S J^T with a
    # finite-difference Jacobian
    exprs = ["x*y + z", "sin(x) / y", "exp(x) + atan2(y, z)", "x^2 + y"]
    values = {"x": 1.3, "y": 2.1, "z": 0.7}
    errs = {"x": 0.013, "y": 0.021, "z": 0.007}
    h = 1e-6
    for src in exprs:
        ast = parse_expr(src)
        free = sorted(free_variables(ast))
        jac = []
        for n in free:
            up = dict(values)
            dn = dict(values)
            up[n] += h
            dn[n] -= h
            jac.append(
                (float(np.asarray(eval_numeric(ast, up)))
                 - float(np.asarray(eval_numeric(ast, dn)))) / (2 * h)
            )
        cov = propagate_general([jac], np.diag([errs[n] ** 2 for n in free]))
        direct = eval_uncertain(
            ast, {n: UncertainScalar(values[n], errs[n]) for n in free}
        )
        assert math.sqrt(cov[0, 0]) == pytest.approx(direct.error, rel=1e-6)


# ±0, ±inf, NaN, subnormals, values whose square overflows or is exact, and
# values in [1, 2], where numpy's pow is 1 ulp off x*x for about 5% of x
_SQUARE_BASES = st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324,
                                 1e-310, 2.2e-308, 1e200, -1e200, 1.5, -3.0]) \
    | st.floats(1, 2) | st.floats()


def _bits(a):
    return np.asarray(a, dtype=float).tobytes()


def _pow_rule_errors(x, y, e):
    # the pow rule's x term, |y * x^(y - 1)| * e, and 0 for a zero error
    with np.errstate(all="ignore"):
        t = np.abs(y * np.power(x, y - 1.0)) * e
    t[e == 0.0] = 0.0
    return t


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([1, 2, 7, 33, 2**15 + 1]), st.lists(_SQUARE_BASES, min_size=1, max_size=33),
       st.sampled_from([2, 2.0, "vector", "full"]))
def test_square_is_x_times_x(n, bases, two):
    # x^2 is x*x bit for bit at every length, in both evaluators and through **
    x = np.random.default_rng(n).uniform(1, 2, n)
    x[:len(bases)] = bases[:n]
    e = np.resize(np.array([0.1, 0.0, 1e300]), n)
    with np.errstate(all="ignore"):
        xx = x * x
    errors = _pow_rule_errors(x, 2.0, e)
    errors[np.isnan(xx)] = np.nan
    y = {"vector": make_uncertain([2.0], [0.0]), "full": make_uncertain(np.full(n, 2.0), 0.0)}.get(
        two, two)
    numeric_y = {"vector": np.array([2.0]), "full": np.full(n, 2.0)}.get(two, two)
    ux = UncertainVector._unchecked(x.copy(), e.copy())
    for got in (eval_uncertain(parse_expr("x^y"), {"x": ux, "y": y}), ux ** y):
        assert _bits(got.values) == _bits(xx)
        assert np.array_equal(got.errors, errors, equal_nan=True)
    assert _bits(eval_numeric(parse_expr("x^y"), {"x": x, "y": numeric_y})) == _bits(xx)
    if n == 1 and two in (2, 2.0):
        s = UncertainScalar._unchecked(float(x[0]), float(e[0])) ** two
        assert _bits(s.value) == _bits(xx[0])


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 40), st.data())
def test_vector_exponent_squares_only_its_twos(n, data):
    # an exponent of exactly 2 is x*x for that element; 0.5, 3 and -1 and
    # uncertain exponents keep numpy's pow and the rule's errors
    x = np.array(data.draw(st.lists(_SQUARE_BASES, min_size=n, max_size=n)))
    y = np.array(data.draw(st.lists(st.sampled_from([2.0, 0.5, 3.0, -1.0]), min_size=n, max_size=n)))
    ey = np.array(data.draw(st.lists(st.sampled_from([0.0, 0.1]), min_size=n, max_size=n)))
    ex = np.full(n, 0.1)
    with np.errstate(all="ignore"):
        want = np.where(y == 2.0, x * x, np.power(x, y))
        want_errors = np.hypot(_pow_rule_errors(x, y, ex),
                               np.abs(np.log(x) * np.power(x, y)) * np.where(ey == 0, 0.0, ey))
    want_errors[ey == 0] = _pow_rule_errors(x, y, ex)[ey == 0]
    want_errors[np.isnan(want)] = np.nan
    got = eval_uncertain(parse_expr("x^y"), {"x": make_uncertain(x, ex),
                                             "y": UncertainVector._unchecked(y, ey)})
    assert _bits(got.values) == _bits(want)
    assert _bits(eval_numeric(parse_expr("x^y"), {"x": x, "y": y})) == _bits(want)
    assert np.array_equal(got.errors, want_errors, equal_nan=True)
    for k in range(n):  # no element's value depends on the others
        one = eval_numeric(parse_expr("x^y"), {"x": x[k:k + 1], "y": y[k:k + 1]})
        assert _bits(one) == _bits(want[k:k + 1])
