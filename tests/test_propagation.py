import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from errprop import (
    cumulative_prod,
    cumulative_sum,
    diff,
    get_errors,
    make_uncertain,
    maximum,
    mean,
    median,
    minimum,
    product,
    propagate_binary,
    propagate_general,
    propagate_unary,
    total,
    value_range,
    weighted_mean,
)
from errprop.core import UncertainVector
from errprop.exceptions import (
    DimensionMismatch,
    LengthMismatch,
    NotSymmetric,
    TooShort,
    UnknownFunction,
)
from errprop.propagation import BINARY_RULES, UNARY_RULES

# sampling windows where each function is smooth and defined
UNARY_DOMAINS = {
    "neg": (-10, 10),
    "abs": (0.5, 10),
    "sqrt": (0.1, 10),
    "exp": (-5, 5),
    "ln": (0.1, 10),
    "log2": (0.1, 10),
    "log10": (0.1, 10),
    "sin": (-3, 3),
    "cos": (-3, 3),
    "tan": (-1.2, 1.2),
    "asin": (-0.9, 0.9),
    "acos": (-0.9, 0.9),
    "atan": (-5, 5),
    "sinh": (-3, 3),
    "cosh": (-3, 3),
    "tanh": (-3, 3),
}

BINARY_DOMAINS = {
    "add": ((-10, 10), (-10, 10)),
    "sub": ((-10, 10), (-10, 10)),
    "mul": ((-10, 10), (-10, 10)),
    "div": ((-10, 10), (0.5, 10)),
    "pow": ((0.5, 3), (-2, 2)),
    "atan2": ((0.5, 10), (0.5, 10)),
}


def central_diff(f, x, h=1e-6):
    return (f(x + h) - f(x - h)) / (2 * h)


@pytest.mark.parametrize("fn", sorted(UNARY_RULES))
def test_unary_gradients_match_finite_differences(fn):
    lo, hi = UNARY_DOMAINS[fn]
    rng = np.random.default_rng(hash(fn) % 2**32)
    xs = rng.uniform(lo, hi, 100)
    f, fp = UNARY_RULES[fn]
    num = central_diff(f, xs)
    ana = fp(xs)
    np.testing.assert_allclose(ana, num, rtol=1e-6, atol=1e-6)


@pytest.mark.parametrize("fn", sorted(BINARY_RULES))
def test_binary_gradients_match_finite_differences(fn):
    (xlo, xhi), (ylo, yhi) = BINARY_DOMAINS[fn]
    rng = np.random.default_rng(hash(fn) % 2**32 + 1)
    xs = rng.uniform(xlo, xhi, 100)
    ys = rng.uniform(ylo, yhi, 100)
    f, dfdx, dfdy = BINARY_RULES[fn]
    np.testing.assert_allclose(
        dfdx(xs, ys), central_diff(lambda t: f(t, ys), xs), rtol=1e-6, atol=1e-6
    )
    np.testing.assert_allclose(
        dfdy(xs, ys), central_diff(lambda t: f(xs, t), ys), rtol=1e-6, atol=1e-6
    )


def test_sin_paper_value():
    x = make_uncertain([1.0], [1 / 30])
    out = propagate_unary("sin", x)
    assert out.values[0] == pytest.approx(math.sin(1.0))
    assert out.errors[0] == pytest.approx(abs(math.cos(1.0)) / 30)


def test_square_via_pow():
    x = make_uncertain([1.0], [1 / 30])
    out = propagate_binary("pow", x, make_uncertain([2.0], [0.0]))
    assert out.values[0] == 1.0
    assert out.errors[0] == pytest.approx(2 / 30)


def test_exp_zero_error():
    out = propagate_unary("exp", make_uncertain([0.0], [0.0]))
    assert out.values[0] == 1.0
    assert out.errors[0] == 0.0


def test_ln_derived_value():
    # independent oracle: central finite difference of log at 5
    x = make_uncertain([5.0], [0.05])
    out = propagate_unary("ln", x)
    num = central_diff(np.log, np.array([5.0]))[0]
    assert out.values[0] == pytest.approx(math.log(5.0))
    assert out.errors[0] == pytest.approx(abs(num) * 0.05, rel=1e-9)
    assert out.errors[0] == pytest.approx(0.01, rel=1e-9)


def test_unknown_function():
    with pytest.raises(UnknownFunction):
        propagate_unary("gamma", make_uncertain([1.0], [0.1]))
    with pytest.raises(UnknownFunction):
        propagate_binary("mod", make_uncertain([1.0], [0.1]), 2)


def test_sqrt_of_negative_gives_nan_pair():
    out = propagate_unary("sqrt", make_uncertain([-4.0], [0.1]))
    assert np.isnan(out.values[0]) and np.isnan(out.errors[0])


def test_abs_derivative_at_zero():
    out = propagate_unary("abs", make_uncertain([0.0], [0.3]))
    assert out.errors[0] == 0.0


def test_division_paper_regression():
    x = make_uncertain([5.0], [0.01])
    y = make_uncertain([1.0], [0.01])
    out = propagate_binary("div", x, y)
    assert out.values[0] == 5.0
    assert out.errors[0] == pytest.approx(0.0509902, abs=1e-7)


def test_nan_value_carries_nan_error():
    # every function that returns a vector applies it, cumulative_sum and diff too
    x = make_uncertain([1.0, math.nan, 2.0], [0.1, 0.1, 0.1])
    for out in (cumulative_sum(x), diff(x), cumulative_prod(x),
                propagate_unary("neg", x), propagate_binary("add", x, 1.0)):
        assert np.array_equal(np.isnan(out.values), np.isnan(out.errors))
        assert np.isnan(out.values).any()
    assert cumulative_sum(x).errors[0] == 0.1


def test_self_addition_is_independent():
    x = make_uncertain([1.0], [1 / 30])
    out = propagate_binary("add", x, x)
    assert out.errors[0] == pytest.approx(math.sqrt(2) / 30)


def test_self_subtraction():
    x = make_uncertain([3.0], [0.2])
    out = propagate_binary("sub", x, x)
    assert out.values[0] == 0.0
    assert out.errors[0] == pytest.approx(math.sqrt(2) * 0.2)


def test_exact_scaling_is_exact():
    x = make_uncertain([1.0, 2.0], [0.125, 0.25])
    out = propagate_binary("mul", make_uncertain([2.0], [0.0]), x)
    assert out.errors.tolist() == [0.25, 0.5]


def test_pow_uncertain_exponent_negative_base():
    x = make_uncertain([-2.0], [0.1])
    y = make_uncertain([2.0], [0.1])
    out = propagate_binary("pow", x, y)
    assert out.values[0] == 4.0
    assert np.isnan(out.errors[0])


def test_broadcast_and_length_mismatch():
    x = make_uncertain([1.0, 2.0, 3.0], 0.1)
    out = propagate_binary("add", x, make_uncertain([1.0], [0.0]))
    assert out.values.tolist() == [2.0, 3.0, 4.0]
    with pytest.raises(LengthMismatch):
        propagate_binary("add", x, make_uncertain([1.0, 2.0], 0.1))


def test_error_monotone_in_input_error():
    rng = np.random.default_rng(7)
    for _ in range(50):
        fn = rng.choice(sorted(BINARY_RULES))
        (xlo, xhi), (ylo, yhi) = BINARY_DOMAINS[fn]
        xv, yv = rng.uniform(xlo, xhi), rng.uniform(ylo, yhi)
        e1, e2 = rng.uniform(0.01, 0.1, 2)
        small = propagate_binary(
            fn, make_uncertain([xv], [e1]), make_uncertain([yv], [e2])
        )
        big = propagate_binary(
            fn, make_uncertain([xv], [e1 * 3]), make_uncertain([yv], [e2])
        )
        assert big.errors[0] >= small.errors[0]


def test_general_law_sum_reduction():
    e1, e2 = 0.3, 0.4
    out = propagate_general([[1.0, 1.0]], np.diag([e1**2, e2**2]))
    assert out[0, 0] == pytest.approx(e1**2 + e2**2)


def test_general_law_division_example():
    j = [[1 / 1.0, -5 / 1.0**2]]
    s = np.diag([0.01**2, 0.01**2])
    out = propagate_general(j, s)
    assert math.sqrt(out[0, 0]) == pytest.approx(0.0509902, abs=1e-7)


def test_general_law_identity():
    s = np.array([[2.0, 0.5], [0.5, 1.0]])
    np.testing.assert_allclose(propagate_general(np.eye(2), s), s)


def test_general_law_errors():
    with pytest.raises(DimensionMismatch):
        propagate_general([[1.0, 2.0]], np.eye(3))
    with pytest.raises(NotSymmetric):
        propagate_general([[1.0, 2.0]], [[1.0, 0.2], [0.1, 1.0]])


def test_general_law_matches_elementwise_rules():
    rng = np.random.default_rng(11)
    for _ in range(200):
        fn = rng.choice(sorted(BINARY_RULES))
        (xlo, xhi), (ylo, yhi) = BINARY_DOMAINS[fn]
        xv, yv = rng.uniform(xlo, xhi), rng.uniform(ylo, yhi)
        ex, ey = rng.uniform(0.001, 0.1, 2)
        _, dfdx, dfdy = BINARY_RULES[fn]
        j = [[float(dfdx(np.float64(xv), np.float64(yv))),
              float(dfdy(np.float64(xv), np.float64(yv)))]]
        cov = propagate_general(j, np.diag([ex**2, ey**2]))
        direct = propagate_binary(
            fn, make_uncertain([xv], [ex]), make_uncertain([yv], [ey])
        )
        assert math.sqrt(cov[0, 0]) == pytest.approx(direct.errors[0], rel=1e-12)


def test_cumsum_paper_values():
    x = make_uncertain(range(1, 9), [i / 30 for i in range(1, 9)])
    out = cumulative_sum(x)
    assert out.values[0] == 1.0
    assert out.errors[0] == pytest.approx(1 / 30)
    assert out.values[4] == 15.0
    assert out.errors[4] == pytest.approx(math.sqrt(sum(i**2 for i in range(1, 6))) / 30)


def test_cumsum_single():
    x = make_uncertain([2.0], [0.5])
    out = cumulative_sum(x)
    assert out == x


def _same(a, b):
    """Bitwise equal arrays, where a NaN need only be a NaN."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    nan = np.isnan(a)
    return (a.shape == b.shape and np.array_equal(nan, np.isnan(b))
            and a[~nan].tobytes() == b[~nan].tobytes())


def test_cumprod_matches_repeated_mul():
    # zero values, zero running products and zero errors among the steps;
    # many short vectors, where the two terms of a step are alike in size
    # (there the last bits of math.hypot and np.hypot differ)
    rng = np.random.default_rng(5)
    v = rng.uniform(-3, 3, (500, 4))
    e = rng.uniform(0, 0.5, (500, 4))
    v[rng.random(v.shape) < 0.1] = 0.0
    v[rng.random(v.shape) < 0.05] = -0.0
    e[rng.random(e.shape) < 0.2] = 0.0
    for values, errors in ([[2.0, 3.0, 4.0], [0.1, 0.2, 0.3]],
                           [[2.0, 0.5, 1e300, 1e300, 4.0, 0.0], [0.0, 0.0, 0.1, 0.2, 0.0, 1.0]],
                           *zip(v, e)):
        x = make_uncertain(values, errors)
        out = cumulative_prod(x)
        step = x[0].as_vector()
        steps = [step]
        for i in range(1, len(x)):
            step = propagate_binary("mul", step, x[i].as_vector())
            steps.append(step)
        assert _same(out.values, [s.values[0] for s in steps])
        assert _same(out.errors, [s.errors[0] for s in steps])


def test_diff_rule():
    x = make_uncertain([1.0, 1.0], [0.2, 0.2])
    out = diff(x)
    # oracle: the binary sub rule applied pairwise
    oracle = propagate_binary("sub", x[1].as_vector(), x[0].as_vector())
    assert out.values[0] == oracle.values[0] == 0.0
    assert out.errors[0] == pytest.approx(oracle.errors[0])
    with pytest.raises(TooShort):
        diff(make_uncertain([1.0], [0.1]))


@pytest.mark.parametrize("fn, values", [
    (cumulative_sum, [math.inf, -math.inf, math.inf]),
    (diff, [math.inf, math.inf]),
], ids=["cumulative_sum", "diff"])
def test_inf_minus_inf_is_silent(fn, values):
    # like every other rule: a NaN result, and no numpy floating-point warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = fn(make_uncertain(values, 0.1))
    assert math.isnan(out.values[-1]) and math.isnan(out.errors[-1])


def test_zero_error_in_zero_error_out():
    x = make_uncertain([0.7], [0.0])
    for fn in UNARY_RULES:
        out = propagate_unary(fn, x)
        assert out.errors[0] == 0.0, fn


# A copy of the np.where formulas the rules were first written with: each
# rule's error is |df/dx| dx (0 where dx is 0) combined in quadrature with
# |df/dy| dy, and a NaN value carries a NaN error.

def _reference_term(deriv, err):
    return np.where(err == 0.0, 0.0, np.abs(deriv) * err)


def _reference_result(values, errors):
    return values, np.where(np.isnan(values), np.nan, errors)


def _vector(x):
    # a plain number is exact
    if isinstance(x, UncertainVector):
        return x
    return UncertainVector._unchecked(np.array([x]), np.array([0.0]))


def _reference_unary(fn, x):
    f, fp = UNARY_RULES[fn]
    x = _vector(x)
    with np.errstate(all="ignore"):
        return _reference_result(f(x.values), _reference_term(fp(x.values), x.errors))


def _reference_binary(fn, x, y):
    f, dfdx, dfdy = BINARY_RULES[fn]
    x, y = _vector(x), _vector(y)
    n = max(len(x), len(y))
    xv, xe, yv, ye = (np.repeat(a, n) if len(a) == 1 else a
                      for a in (x.values, x.errors, y.values, y.errors))
    with np.errstate(all="ignore"):
        errors = np.hypot(_reference_term(dfdx(xv, yv), xe), _reference_term(dfdy(xv, yv), ye))
        return _reference_result(f(xv, yv), errors)


_SPECIAL_VALUES = st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, 2.0, -2.5, 1e-300, 1e300,
                                   math.inf, -math.inf, math.nan])
_VALUES = _SPECIAL_VALUES | st.floats()
# results may carry infinite or NaN errors, so operands are built unchecked
_ERRORS = st.sampled_from([0.0, -0.0, 0.1, 1.0, 1e300, math.inf, math.nan]) \
    | st.floats(min_value=0.0)


@st.composite
def _operands(draw, n):
    """A vector of length n, exact or not, a length-1 vector, or a plain number."""
    kind = draw(st.sampled_from(["vector", "exact vector", "length-1", "number"]))
    if kind == "number":
        return draw(_VALUES)
    m = 1 if kind == "length-1" else n
    values = draw(st.lists(_VALUES, min_size=m, max_size=m))
    errors = [0.0] * m if kind == "exact vector" else draw(
        st.lists(_ERRORS, min_size=m, max_size=m))
    return UncertainVector._unchecked(np.array(values), np.array(errors))


@settings(max_examples=600, deadline=None)
@given(st.data(), st.integers(1, 6))
def test_rules_match_reference_formulas(data, n):
    fn = data.draw(st.sampled_from(sorted(UNARY_RULES)))
    x = data.draw(_operands(n))
    got = propagate_unary(fn, x)
    want = _reference_unary(fn, x)
    assert _same(got.values, want[0]) and _same(got.errors, want[1])

    fn = data.draw(st.sampled_from(sorted(BINARY_RULES)))
    x, y = data.draw(_operands(n)), data.draw(_operands(n))
    got = propagate_binary(fn, x, y)
    want = _reference_binary(fn, x, y)
    assert _same(got.values, want[0]) and _same(got.errors, want[1])


def test_exact_operand_derivative_not_evaluated(monkeypatch):
    x = make_uncertain([-2.0, 0.0, 3.0], [0.1, 0.2, 0.0])
    want = propagate_binary("pow", x, 2.0)
    f, dfdx, _ = BINARY_RULES["pow"]

    def never(x, y):
        raise AssertionError("d/dy evaluated for an exact exponent")

    monkeypatch.setitem(BINARY_RULES, "pow", (f, dfdx, never))
    for y in (2.0, make_uncertain([2.0], [0.0]), make_uncertain([2.0] * 3, 0.0)):
        assert propagate_binary("pow", x, y) == want


@st.composite
def _kept_operands(draw, n):
    """A vector of length n or 1, exact or not, or a caller's writable
    float64 array of length n or 1 (exact, through as_uncertain)."""
    m = draw(st.sampled_from([1, n]))
    values = np.array(draw(st.lists(_VALUES, min_size=m, max_size=m)))
    if draw(st.booleans()):
        return values
    errors = draw(st.sampled_from([[0.0] * m, draw(st.lists(_ERRORS, min_size=m, max_size=m))]))
    return UncertainVector._unchecked(values, np.array(errors))


def _state(x):
    """The bytes and writability of every array an operand holds."""
    arrays = (x,) if isinstance(x, np.ndarray) else (x.values, x.errors)
    return [(a.tobytes(), a.flags.writeable) for a in arrays]


_SUMMARIES = (cumulative_sum, cumulative_prod, diff, total, product, mean, median,
              minimum, maximum, value_range, lambda x: weighted_mean(x, np.ones(len(x))))


@settings(max_examples=150, deadline=None)
@given(st.data(), st.integers(2, 5))
def test_operands_are_never_written(data, n):
    # a vector's arrays are read-only, a caller's array stays writable, and
    # no rule writes either: not mul, whose derivative is the other operand,
    # nor a length-1 operand repeated in either position
    x, y = data.draw(_kept_operands(n)), data.draw(_kept_operands(n))
    before = _state(x), _state(y)
    for fn in UNARY_RULES:
        propagate_unary(fn, x)
    for fn in BINARY_RULES:
        propagate_binary(fn, x, y)
        propagate_binary(fn, y, x)
    if len(x) > 1:
        for fn in _SUMMARIES:
            fn(x)
    assert (_state(x), _state(y)) == before
    for operand, state in zip((x, y), before):
        assert all(writable == isinstance(operand, np.ndarray) for _, writable in state)


def _peak(call):
    call()  # first-call allocations out of the count
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_kernels_allocate_their_outputs_and_little_else():
    # A result holds two arrays of 8n bytes.  sin builds one more, its
    # derivative, which becomes the errors in place; the NaN test of the
    # values is n bytes more: 17n in all.  mul copies each operand as its
    # term and writes the hypot into the first: 8n * 3 + n = 25n.  Kernels
    # that take each term's abs, and the hypot, into fresh arrays peak at
    # 25n and 33n (measured), so both bounds fail for them.
    n = 100_000
    x = make_uncertain(np.linspace(1.0, 2.0, n), 0.1)
    y = make_uncertain(np.linspace(2.0, 3.0, n), 0.2)
    assert _peak(lambda: propagate_unary("sin", x)) <= 2.5 * 8 * n
    assert _peak(lambda: propagate_binary("mul", x, y)) <= 3.5 * 8 * n
