import math

import numpy as np
import pytest

from errprop import (
    cumulative_prod,
    cumulative_sum,
    diff,
    get_errors,
    make_uncertain,
    propagate_binary,
    propagate_general,
    propagate_unary,
)
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


def test_cumprod_matches_repeated_mul():
    x = make_uncertain([2.0, 3.0, 4.0], [0.1, 0.2, 0.3])
    out = cumulative_prod(x)
    step = x[0].as_vector()
    for i in (1, 2):
        step = propagate_binary("mul", step, x[i].as_vector())
        assert out.values[i] == step.values[0]
        assert out.errors[i] == pytest.approx(step.errors[0], rel=1e-14)


def test_diff_rule():
    x = make_uncertain([1.0, 1.0], [0.2, 0.2])
    out = diff(x)
    # oracle: the binary sub rule applied pairwise
    oracle = propagate_binary("sub", x[1].as_vector(), x[0].as_vector())
    assert out.values[0] == oracle.values[0] == 0.0
    assert out.errors[0] == pytest.approx(oracle.errors[0])
    with pytest.raises(TooShort):
        diff(make_uncertain([1.0], [0.1]))


def test_zero_error_in_zero_error_out():
    x = make_uncertain([0.7], [0.0])
    for fn in UNARY_RULES:
        out = propagate_unary(fn, x)
        assert out.errors[0] == 0.0, fn
