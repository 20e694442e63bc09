import math
import operator
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from errprop import (
    concat,
    errors_max,
    errors_min,
    get_errors,
    make_uncertain,
    subset,
)
from errprop.core import UncertainScalar, UncertainVector
from errprop.exceptions import (
    DimensionMismatch,
    IndexOutOfBounds,
    LengthMismatch,
    NegativeError,
)
from errprop.expr import eval_uncertain, parse_expr
from errprop.propagation import _OPERATORS, propagate_binary, propagate_unary


def test_scalar_error_broadcast():
    x = make_uncertain([5, 1], 0.01)
    assert get_errors(x).tolist() == [0.01, 0.01]


def test_caller_array_stays_writable():
    # the vector holds a read-only view of the caller's float64 arrays, no copy
    a, e = np.array([1.0, 2.0]), np.array([0.1, 0.2])
    for x in (make_uncertain(a, e), UncertainVector(a, e), propagate_unary("neg", a)):
        a[0] = 5.0
        e[0] = 0.3
        assert a.flags.writeable and e.flags.writeable
        assert not x.values.flags.writeable and not x.errors.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            x.values[0] = 1.0
    assert make_uncertain(a, e).values[0] == 5.0  # shared memory
    assert np.shares_memory(make_uncertain(a, e).values, a)


def test_zero_error_allowed():
    x = make_uncertain([3], [0])
    assert get_errors(x).tolist() == [0.0]


def test_length_mismatch():
    with pytest.raises(LengthMismatch):
        make_uncertain([1, 2], [0.1, 0.2, 0.3])


def test_negative_error_rejected():
    with pytest.raises(NegativeError):
        make_uncertain([1.0], [-0.1])


def test_nan_error_requires_nan_value():
    x = make_uncertain([float("nan")], [float("nan")])
    assert np.isnan(x.values[0]) and np.isnan(x.errors[0])
    with pytest.raises(NegativeError):
        make_uncertain([1.0], [float("nan")])
    with pytest.raises(NegativeError):
        make_uncertain([1.0], [math.inf])


def test_constructors_apply_one_rule():
    # finite and nonnegative, or NaN on a NaN value
    for value, error in [(1.0, math.nan), (1.0, math.inf), (1.0, -0.1), (math.inf, math.inf)]:
        with pytest.raises(NegativeError):
            UncertainScalar(value, error)
        with pytest.raises(NegativeError, match="at index 1"):
            UncertainVector([0.0, value], [0.0, error])
    for value, error in [(math.nan, math.nan), (math.nan, 0.1), (math.inf, 1.0), (1.0, -0.0)]:
        s = UncertainScalar(value, error)
        assert np.array_equal([s.value, s.error], [value, error], equal_nan=True)
        assert UncertainVector([value], [error]) == s.as_vector()


def test_results_are_not_checked_again():
    # a finite value with a NaN error feeds the next operation
    out = (UncertainScalar(-2, 0.1) ** UncertainScalar(2, 0.1)) + 1
    assert out.value == 5.0 and math.isnan(out.error)
    vec = (make_uncertain([-2], [0.1]) ** make_uncertain([2], [0.1])) + 1
    assert vec.values[0] == 5.0 and math.isnan(vec.errors[0])
    # an infinite error, at the scalar and the vector level
    root = propagate_unary("sqrt", UncertainScalar(0.0, 1.0))
    assert (root[0] * 2).error == math.inf
    assert list(root) == [root[0]] and concat([root, root])[1] == root[0]


def test_get_errors_eighths():
    x = make_uncertain(range(1, 9), [i / 30 for i in range(1, 9)])
    np.testing.assert_allclose(
        get_errors(x)[:2], [0.03333333, 0.06666667], atol=5e-9
    )


def test_interval_bounds():
    x = make_uncertain([5], [0.05])
    assert errors_min(x)[0] == 4.95
    assert errors_max(x)[0] == 5.05
    y = make_uncertain([1.0], [1 / 30])
    assert errors_min(y)[0] == 1.0 - 1 / 30
    assert errors_max(y)[0] == 1.0 + 1 / 30
    z = make_uncertain([7.0], [0.0])
    assert errors_min(z)[0] == errors_max(z)[0] == 7.0


def test_interval_bounds_past_the_float_range():
    # inf, with no overflow warning (pyproject makes a RuntimeWarning an error)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert errors_max(make_uncertain([1.7e308], [1e308])).tolist() == [np.inf]
        assert errors_min(make_uncertain([-1.7e308], [1e308])).tolist() == [-np.inf]


def test_subset_and_concat():
    x = make_uncertain([5, 1], 0.01)
    first = subset(x, [0])
    assert first.values.tolist() == [5.0]
    assert first.errors.tolist() == [0.01]
    a = make_uncertain([1], [0.1])
    b = make_uncertain([2], [0.2])
    c = concat([a, b])
    assert len(c) == 2
    assert get_errors(c).tolist() == [0.1, 0.2]


def test_subset_out_of_bounds():
    x = make_uncertain([5, 1], 0.01)
    with pytest.raises(IndexOutOfBounds):
        subset(x, [2])
    with pytest.raises(IndexOutOfBounds):
        x[2]


def test_subset_refuses_indices_that_are_not_integers():
    x = make_uncertain([5, 1, 3], 0.01)
    for bad in ([1.7], [1.0], ["1"], [[0, 1]]):
        with pytest.raises(IndexOutOfBounds):
            subset(x, bad)
    with pytest.raises(IndexError):
        x[1.9]
    assert subset(x, []) == make_uncertain([], [])
    assert subset(x, [True, False, True]) == make_uncertain([5, 3], 0.01)


@pytest.mark.parametrize("mask", [True, False, np.True_, np.False_])
def test_a_bool_index_is_a_one_element_mask(mask):
    # True is an int, but selects as np.True_ does, not as index 1
    one = make_uncertain([5.0], 0.1)
    assert one[mask] == (one if mask else make_uncertain([], []))
    with pytest.raises(IndexOutOfBounds, match="mask length"):
        make_uncertain([5.0, 1.0], 0.1)[mask]


def test_vectors_are_one_dimensional():
    with pytest.raises(DimensionMismatch):
        make_uncertain([[1, 2], [3, 4]], 0.1)
    with pytest.raises(DimensionMismatch):
        make_uncertain([1, 2], [[0.1]])
    with pytest.raises(DimensionMismatch):
        make_uncertain([1, 2], 0.1) + np.ones((2, 2))


def test_subset_concat_identity():
    x = make_uncertain([1.0, 2.0, 3.0], [0.1, 0.2, 0.3])
    again = concat([subset(x, [i]) for i in range(3)])
    assert again == x


def test_immutability():
    x = make_uncertain([1.0], [0.1])
    with pytest.raises(AttributeError):
        x.values = np.array([2.0])
    with pytest.raises(ValueError):
        x.values[0] = 2.0


@given(
    st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=20),
    st.data(),
)
def test_permutation_keeps_pairing(values, data):
    errors = [abs(v) % 7 + 0.5 for v in values]
    x = make_uncertain(values, errors)
    perm = data.draw(st.permutations(range(len(values))))
    y = subset(x, list(perm))
    for k, p in enumerate(perm):
        assert y.values[k] == x.values[p]
        assert y.errors[k] == x.errors[p]


def test_scalar_roundtrip():
    s = UncertainScalar(5.0, 0.01)
    v = s.as_vector()
    assert isinstance(v, UncertainVector)
    assert v[0] == s


def test_bitwise_broadcast():
    e = 0.1234567890123
    x = make_uncertain([1, 2, 3], e)
    assert all(err == e for err in get_errors(x))


@pytest.mark.parametrize("fn, op", [
    ("add", operator.add), ("sub", operator.sub), ("mul", operator.mul),
    ("div", operator.truediv), ("pow", operator.pow),
])
def test_binary_operators_apply_the_rule(fn, op):
    a, b = UncertainScalar(1.7, 0.02), UncertainScalar(2.3, 0.05)
    v = make_uncertain([0.5, 1.7, 3.1], [0.01, 0.0, 0.2])
    assert op(a, b) == propagate_binary(fn, a, b)[0]
    assert op(a, v) == propagate_binary(fn, a, v)
    assert op(v, a) == propagate_binary(fn, v, a)
    assert op(a, 2.5) == propagate_binary(fn, a, 2.5)[0]
    # reflected methods keep the operand order
    assert op(2.5, a) == propagate_binary(fn, 2.5, a)[0]
    assert op(2.5, v) == propagate_binary(fn, 2.5, v)


@pytest.mark.parametrize("fn, op", [("neg", operator.neg), ("abs", operator.abs)])
def test_unary_operators_apply_the_rule(fn, op):
    a = UncertainScalar(-1.7, 0.02)
    v = make_uncertain([-0.5, 0.0, 3.1], [0.01, 0.1, 0.2])
    assert op(a) == propagate_unary(fn, a)[0]
    assert op(v) == propagate_unary(fn, v)


# operands that are results: an infinite error (sqrt at 0), a NaN error on
# a finite value (negative base to an uncertain power), a NaN pair
RESULT_EXPRS = ["x", "sqrt(x - x)", "(-x)^y", "sqrt(-x)", "x / (x - x)"]


def _same(s, v):
    return np.array_equal([s.value, s.error], [v.values[0], v.errors[0]], equal_nan=True)


@settings(max_examples=150, deadline=None)
@given(
    exprs=st.tuples(*[st.sampled_from(RESULT_EXPRS)] * 2),
    xs=st.tuples(*[st.floats(0.5, 3.0)] * 2),
    es=st.tuples(*[st.sampled_from([0.0, 0.1, 1.0])] * 2),
    plain=st.sampled_from([2.5, 0.0, -1.0]),
)
def test_scalar_operators_equal_length_1_vector_operators(exprs, xs, es, plain):
    scalars, vectors = [], []
    for src, x, e in zip(exprs, xs, es):
        ast = parse_expr(src)
        scalars.append(eval_uncertain(ast, {"x": UncertainScalar(x, e),
                                            "y": UncertainScalar(2.0, 0.1)}))
        vectors.append(eval_uncertain(ast, {"x": make_uncertain([x], [e]),
                                            "y": make_uncertain([2.0], [0.1])}))
    (a, b), (va, vb) = scalars, vectors
    for names in _OPERATORS.values():
        op = getattr(operator, names[0].strip("_"))
        if len(names) == 1:
            assert _same(op(a), op(va))
            continue
        assert _same(op(a, b), op(va, vb))
        assert _same(op(a, plain), op(va, plain))
        assert _same(op(plain, a), op(plain, va))
