import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from errprop import (
    make_uncertain,
    maximum,
    mean,
    median,
    minimum,
    product,
    total,
    value_range,
    weighted_mean,
)
from errprop.core import UncertainVector
from errprop.exceptions import EmptyInput, LengthMismatch, NegativeError, ZeroWeightSum
from errprop.summaries import MEDIAN_FACTOR


def eighths():
    return make_uncertain(range(1, 9), [i / 30 for i in range(1, 9)])


def test_sum_paper_value():
    out = total(eighths())
    assert out.value == 36.0
    assert out.error == pytest.approx(math.sqrt(204) / 30)
    assert out.error == pytest.approx(0.47609, abs=1e-5)


def test_sum_single():
    out = total(make_uncertain([3.0], [0.4]))
    assert (out.value, out.error) == (3.0, 0.4)


def test_sum_quadrature_identity():
    rng = np.random.default_rng(3)
    v = rng.normal(size=10)
    e = rng.uniform(0.1, 1.0, 10)
    out = total(make_uncertain(v, e))
    assert out.error**2 == pytest.approx(float(np.sum(e**2)), rel=1e-12)


def test_prod_one_exact_factor():
    out = product(make_uncertain([2.0, 3.0], [0.0, 0.3]))
    assert out.value == 6.0
    assert out.error == pytest.approx(0.6)


def test_mean_sem_dominates():
    out = mean(eighths())
    # hand oracle: sd(1..8) = sqrt(42/7), SEM = sd/sqrt(8)
    sem = math.sqrt(42 / 7) / math.sqrt(8)
    assert out.value == 4.5
    assert sem == pytest.approx(0.8660254, abs=1e-7)
    assert out.error == max(sem, 0.15)


def test_mean_constant_vector():
    out = mean(make_uncertain([2.0, 2.0, 2.0], 0.3))
    assert (out.value, out.error) == (2.0, 0.3)


def test_mean_single_element():
    out = mean(make_uncertain([5.0], [0.1]))
    assert (out.value, out.error) == (5.0, 0.1)


def test_mean_never_below_individual_errors():
    rng = np.random.default_rng(17)
    for _ in range(100):
        n = rng.integers(1, 12)
        v = rng.normal(size=n)
        e = rng.uniform(0.0, 2.0, n)
        out = mean(make_uncertain(v, e))
        assert out.error >= float(np.mean(e)) - 1e-15
        if n > 1:
            assert out.error >= float(np.std(v, ddof=1) / math.sqrt(n)) - 1e-15


def test_weighted_mean_uniform_equals_mean():
    x = eighths()
    wm = weighted_mean(x, [1.0] * 8)
    m = mean(x)
    assert wm.value == m.value
    assert wm.error == m.error


def test_weighted_mean_degenerate_weight():
    x = make_uncertain([1.0, 3.0], [0.1, 0.7])
    out = weighted_mean(x, [1.0, 0.0])
    assert (out.value, out.error) == (1.0, 0.1)


def test_weighted_mean_oracle():
    x = make_uncertain([1.0, 3.0], [0.1, 0.1])
    out = weighted_mean(x, [1.0, 3.0])
    assert out.value == 2.5
    # direct evaluation of the documented formula (with its n/(n-1) factor)
    wsem = math.sqrt((1 * 2.25 + 3 * 0.25) * 2 / (4 * 1)) / math.sqrt(2)
    assert out.error == pytest.approx(max(wsem, 0.1))


def test_weighted_mean_errors():
    x = make_uncertain([1.0, 2.0], [0.1, 0.1])
    with pytest.raises(LengthMismatch):
        weighted_mean(x, [1.0])
    with pytest.raises(ZeroWeightSum):
        weighted_mean(x, [0.0, 0.0])


@pytest.mark.parametrize("weights, index", [
    ([1.0, math.nan, 1.0], 1),
    ([1.0, math.inf, 1.0], 1),
    ([math.inf] * 3, 0),
    ([1.0, 1.0, -1.0], 2),
])
def test_weighted_mean_rejects_bad_weight(weights, index):
    x = make_uncertain([1.0, 2.0, 3.0], 0.1)
    with pytest.raises(NegativeError, match=f"at index {index}: weights must be finite"):
        weighted_mean(x, weights)


_MEAN_VALUES = st.floats() | st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan])


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(_MEAN_VALUES, st.floats(0, 1e300) | st.sampled_from([0.0, -0.0])),
                min_size=1, max_size=12))
@example([(-0.0, -0.0)])
@example([(math.nan, 0.1), (1.0, 0.2)])
@example([(math.inf, 0.1), (-math.inf, 0.1)])
def test_mean_is_weighted_mean_with_unit_weights(pairs):
    x = UncertainVector._unchecked(*(np.array(a) for a in zip(*pairs)))
    assert _bits(mean(x)) == _bits(weighted_mean(x, np.ones(len(x))))


def test_weighted_mean_of_weights_whose_sum_overflows():
    # the weights sum to inf; equal weights weigh as unit weights do
    x = make_uncertain([1.0, 2.0], 0.1)
    got = weighted_mean(x, [1e308, 1e308])
    assert _bits(got) == _bits(weighted_mean(x, [1.0, 1.0]))
    assert str(got) == "1.5(5)"


def test_weighted_mean_whose_weighted_sum_overflows():
    # the weights' sum is finite, their products with the values are not;
    # powers of two scale exactly, so the bits are the unit weights'
    x = make_uncertain([1e10, 3e10, 2e10], [0.1, 0.2, 0.4])
    got = weighted_mean(x, [2.0**1000] * 3)
    assert _bits(got) == _bits(weighted_mean(x, [1.0] * 3))
    assert math.isfinite(got.value) and math.isfinite(got.error)


def test_median_paper_rule():
    out = median(eighths())
    m = mean(eighths())
    assert out.value == 4.5
    assert out.error == MEDIAN_FACTOR * m.error
    assert out.error == pytest.approx(1.0854, abs=5e-5)


def test_median_constant_and_single():
    out = median(make_uncertain([2.0, 2.0], 0.1))
    assert out.error == pytest.approx(MEDIAN_FACTOR * 0.1)
    single = median(make_uncertain([5.0], [0.2]))
    assert single.error == pytest.approx(MEDIAN_FACTOR * 0.2)


def test_median_ratio_exact():
    rng = np.random.default_rng(23)
    for _ in range(50):
        n = rng.integers(1, 10)
        x = make_uncertain(rng.normal(size=n), rng.uniform(0.01, 1, n))
        assert median(x).error == MEDIAN_FACTOR * mean(x).error


def test_min_max_range():
    x = make_uncertain([3.0, 1.0, 2.0], [0.3, 0.1, 0.2])
    assert (minimum(x).value, minimum(x).error) == (1.0, 0.1)
    assert (maximum(x).value, maximum(x).error) == (3.0, 0.3)
    r = value_range(x)
    assert r.value == 2.0
    assert r.error == pytest.approx(math.hypot(0.1, 0.3))


def _bits(s):
    return np.float64(s.value).tobytes(), np.float64(s.error).tobytes()


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.floats(allow_nan=False) | st.sampled_from([0.0, -0.0, 1.0]),
                          st.floats(0, 1) | st.floats(0, 1e300) | st.sampled_from([0.0, 0.1])),
                min_size=1, max_size=20))
@example([(1.0, 0.2512675781710818), (2.0, 0.27674387428377045)])  # math.hypot's last bit differs
def test_range_is_the_sub_rule(pairs):
    x = UncertainVector(*zip(*pairs))
    assert _bits(value_range(x)) == _bits(maximum(x) - minimum(x))


def test_summaries_of_inf_minus_inf():
    # a NaN value carries a NaN error, and no numpy warning leaks
    x = make_uncertain([1.0, math.inf, -math.inf, 2.0], 1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for fn in (total, mean, median, lambda x: weighted_mean(x, [1, 2, 1, 1])):
            out = fn(x)
            assert math.isnan(out.error), fn
        assert math.isnan(total(x).value) and math.isnan(mean(x).value)
        assert mean(make_uncertain([1.0, math.inf], 1.0)).value == math.inf


def test_empty_inputs():
    empty = make_uncertain([], [])
    for fn in (total, product, mean, median, minimum, maximum):
        with pytest.raises(EmptyInput):
            fn(empty)
