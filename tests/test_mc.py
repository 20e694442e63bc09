import gc
import math
import sys
import threading
import time
import tracemalloc
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from errprop import McConfig, compare_tsm_mcm, eval_numeric, mc, mc_propagate, parse_expr
from errprop.core import UncertainScalar
from errprop.exceptions import NonFiniteSamples, UnboundVariable
from errprop.expr import free_variables
from errprop.mc import CHUNK, MAD_SCALE, MAX_SAMPLES, _fill, _mean


def _order_stats(out, quantiles):
    """mc._order_stats on a helper thread of its own."""
    with mc._helper() as both:
        return mc._order_stats(out, quantiles, _both_zeros(out), both)


def _sd(o):
    """float(np.std(o, ddof=1)), bit for bit, with no temporary as long
    as o: the squared deviations from np.std's mean are summed along
    numpy's own pairwise tree (see mc._deviation_sum)."""
    m = np.add.reduce(o) / o.size  # summed from 0.0, as np.std's mean is
    return math.sqrt(mc._deviation_sum(o, m, np.empty(min(o.size, mc._block()))) / (o.size - 1))


def _both_zeros(out):
    """Whether out holds both -0.0 and 0.0, as mc._zero_signs reads it."""
    return all(mc._zero_signs(out))


def xy_env():
    return {"x": UncertainScalar(5, 0.01), "y": UncertainScalar(1, 0.01)}


def test_division_sd_near_reference():
    cfg = McConfig(samples=1_000_000, seed=42)
    out = mc_propagate(parse_expr("x/y"), xy_env(), cfg)
    assert out.sd == pytest.approx(0.05112, rel=0.02)
    # ratio bias: E[x/y] = 5 (1 + sigma_y^2) for y ~ N(1, sigma_y^2)
    expected_mean = 5 * (1 + 0.01**2)
    assert out.mean == pytest.approx(
        expected_mean, abs=5 * 0.0511 / math.sqrt(cfg.samples)
    )


def test_identity_passthrough():
    cfg = McConfig(samples=200_000, seed=1)
    out = mc_propagate(parse_expr("x"), {"x": UncertainScalar(0, 1)}, cfg)
    n = cfg.samples
    assert out.mean == pytest.approx(0.0, abs=3 / math.sqrt(n))
    assert out.sd == pytest.approx(1.0, abs=3 / math.sqrt(2 * n))
    assert out.median == pytest.approx(0.0, abs=4 / math.sqrt(n))
    assert out.mad == pytest.approx(1.0, abs=0.01)


def test_determinism():
    cfg = McConfig(samples=10_000, seed=99)
    a = mc_propagate(parse_expr("x/y"), xy_env(), cfg)
    b = mc_propagate(parse_expr("x/y"), xy_env(), cfg)
    assert a == b


def test_quantiles_sorted_and_config_validation():
    cfg = McConfig(samples=50_000, seed=3, quantiles=(0.025, 0.5, 0.975))
    out = mc_propagate(parse_expr("x"), {"x": UncertainScalar(0, 1)}, cfg)
    assert list(out.quantile_values) == sorted(out.quantile_values)
    with pytest.raises(ValueError):
        McConfig(samples=1)
    McConfig(samples=MAX_SAMPLES)  # a config allocates nothing
    with pytest.raises(ValueError, match="samples"):
        McConfig(samples=MAX_SAMPLES + 1)
    with pytest.raises(ValueError):
        McConfig(quantiles=(0.0, 0.9))


def test_unbound_variable():
    with pytest.raises(UnboundVariable):
        mc_propagate(parse_expr("x/y"), {"x": UncertainScalar(5, 0.01)})


def test_nonfinite_rejection():
    # sqrt of N(0,1): about half the samples are NaN
    with pytest.raises(NonFiniteSamples):
        mc_propagate(
            parse_expr("sqrt(x)"),
            {"x": UncertainScalar(0, 1)},
            McConfig(samples=10_000, seed=5),
        )


def test_nonfinite_rejection_stops_sampling(monkeypatch):
    # no chunk is evaluated after the one where the non-finite count passes
    # 1% of all the samples
    n, chunk = 10_000, 100
    monkeypatch.setattr(mc, "CHUNK", chunk)
    chunks = []
    monkeypatch.setattr(mc, "eval_numeric", lambda ast, env: chunks.append(1) or eval_numeric(ast, env))
    cfg = McConfig(samples=n, seed=5)
    with pytest.raises(NonFiniteSamples) as err:
        mc_propagate(parse_expr("sqrt(x)"), {"x": UncertainScalar(0, 1)}, cfg)
    bad = np.cumsum(_streams(cfg.seed, ["x"])["x"].normal(0, 1, n) < 0)[chunk - 1::chunk]
    last = int(np.argmax(bad > mc.NONFINITE_LIMIT * n))
    assert len(chunks) == last + 1 < n // chunk
    assert str(err.value) == f"{bad[last]} non-finite evaluations in the first {(last + 1) * chunk} of {n}"


def test_nonfinite_below_threshold_counted():
    # ln of N(3, 1): a tiny negative tail gets excluded, not fatal
    out = mc_propagate(
        parse_expr("ln(x)"),
        {"x": UncertainScalar(3, 0.9)},
        McConfig(samples=100_000, seed=6),
    )
    assert 0 < out.n_nonfinite < 1000
    assert math.isfinite(out.sd)


def test_compare_division():
    rep = compare_tsm_mcm(
        parse_expr("x/y"), xy_env(), McConfig(samples=1_000_000, seed=42)
    )
    assert rep.tsm_sd == pytest.approx(0.0509902, abs=1e-7)
    assert rep.mcm_sd == pytest.approx(rep.tsm_sd, rel=0.02)
    assert rep.relative_gap < 0.02


def test_compare_linear_is_tight():
    env = {"a": UncertainScalar(2, 0.3), "b": UncertainScalar(-1, 0.4)}
    ok = 0
    for seed in range(10):
        rep = compare_tsm_mcm(
            parse_expr("a+b"), env, McConfig(samples=100_000, seed=seed)
        )
        assert rep.relative_gap < 0.01
        bound = 4 * rep.mcm_sd / math.sqrt(2 * 100_000)
        ok += abs(rep.mcm_sd - rep.tsm_sd) <= bound
    assert ok >= 9


def test_nonlinear_breakdown():
    # oracle: Var(x^2) for x ~ N(mu, sigma^2) is 4 mu^2 sigma^2 + 2 sigma^4
    mu, sigma = 1.0, 0.5
    rep = compare_tsm_mcm(
        parse_expr("x^2"),
        {"x": UncertainScalar(mu, sigma)},
        McConfig(samples=500_000, seed=7),
    )
    exact_sd = math.sqrt(4 * mu**2 * sigma**2 + 2 * sigma**4)
    assert rep.mcm_sd == pytest.approx(exact_sd, rel=0.01)
    assert rep.relative_gap > 0.05


def test_plain_numbers_in_env():
    out = mc_propagate(
        parse_expr("x*k"),
        {"x": UncertainScalar(2, 0.1), "k": 3},
        McConfig(samples=10_000, seed=8),
    )
    assert out.mean == pytest.approx(6.0, abs=0.02)


def _negative_zeros(out):
    """Whether out holds -0.0 and not 0.0."""
    zeros = out[out == 0]
    return zeros.size > 0 and bool(np.signbit(zeros).all())


def _reference_mean(out):
    return -0.0 if _negative_zeros(out) and not out.any() else float(np.mean(out))


def _reference_order_stats(out, quantiles):
    """Median, MAD and quantiles as three separate numpy calls on the draws,
    but a median of -0.0 where the middle ranks are -0.0."""
    med = float(np.median(out))
    if _negative_zeros(out) and not np.sort(out)[(out.size - 1) // 2:out.size // 2 + 1].any():
        med = -0.0  # the middle ranks are -0.0
    return [med, float(MAD_SCALE * np.median(np.abs(out - med))),
            *map(float, np.quantile(out, quantiles))]


def _bits(*xs):
    return [np.float64(x).tobytes() for x in xs]


QUANTILES = (0.025, 0.25, 0.5, 0.975)
# few distinct values make ties; both zeros and values near the float
# limits make the signed zeros and overflowing deviations
_POOL = [-3.0, -2.0, -1.0, -0.0, 0.0, 1.0, 2.0, 3.0, 0.5, 5e-324, 1e308, -1e308]


@settings(max_examples=1000, deadline=None)
@given(st.lists(
    st.sampled_from(_POOL) | st.floats(allow_nan=False, allow_infinity=False),
    min_size=1, max_size=80,
))
@example([7.0])
@example([2.0, 2.0, 2.0, 2.0])  # all equal
@example([1.0, 2.0, 3.0, 10.0])  # the median falls between two values
@example([1.0, 2.0, 3.0])  # deviations tied across the two runs
@example([0.0, -0.0, 0.0, 1.0])  # both zeros
@example([1e308, 1.5e308])  # the median overflows
@example([-0.0])  # the median of -0.0 is -0.0
@example([-1.0, -0.0, -0.0, 2.0])
@example([-1.0, -0.0, 1.0, 2.0])  # the middle ranks are -0.0 and 1.0
@example([-3.0, -0.0, 5e-324, 1.0])  # -0.0 and 5e-324, whose mean underflows to 0.0
def test_order_stats_bitwise_equal_to_numpy(values):
    out = np.array(values)
    with np.errstate(all="ignore"):  # overflow in either is the same overflow
        got = _order_stats(out.copy(), QUANTILES)
        want = _reference_order_stats(out, QUANTILES)
    assert _bits(*got) == _bits(*want)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from(_POOL) | st.floats(-1e300, 1e300), min_size=1, max_size=300))
@example([-0.0])
@example([-0.0] * 200)
@example([-0.0, 0.0])
@example([-1.0, 1.0, -0.0])
def test_mean_is_numpys_from_negative_zero(values):
    # np.mean's bits, pairwise blocks included, but -0.0 for all -0.0
    out = np.array(values)
    with np.errstate(all="ignore"):  # overflow in either is the same overflow
        assert _bits(_mean(out)) == _bits(_reference_mean(out))


def _streams(seed, names):
    """The stream of each variable: spawned from the seed, in sorted-name order."""
    return dict(zip(sorted(names), np.random.default_rng(seed).spawn(len(names))))


def _reference(ast, env, cfg):
    """The finite outputs of mc_propagate in draw order, and its non-finite
    count and statistics, by whole-array numpy calls on every draw of each
    stream at once."""
    n = cfg.samples
    # an exact variable is its value; its stream is spawned but not drawn from
    draws = {}
    for name, rng in _streams(cfg.seed, free_variables(ast)).items():
        value = float(getattr(env[name], "value", env[name]))
        error = float(getattr(env[name], "error", 0.0))
        draws[name] = rng.normal(value, error, n) if error else value
    out = np.broadcast_to(eval_numeric(ast, draws), n)
    out = out[np.isfinite(out)]
    return out, (n - out.size, _bits(_reference_mean(out), np.std(out, ddof=1),
                                     *_reference_order_stats(out, cfg.quantiles)))


def _got(result):
    return result.n_nonfinite, _bits(result.mean, result.sd, result.median, result.mad,
                                     *result.quantile_values)


@pytest.mark.parametrize("expr, env, n", [
    ("ln(x)", {"x": UncertainScalar(3, 0.9)}, 100_000),  # drops draws
    ("x*k", {"x": UncertainScalar(0, 1), "k": 0}, 31),  # both zeros
    ("x", {"x": UncertainScalar(1, 1)}, 20_000),
    ("2", {}, 2),  # constant
    # k is bound to -0.0, not drawn as -0.0 + 0 * z, which is 0.0
    ("atan2(k, x) + y", {"k": -0.0, "x": UncertainScalar(-1, 0.1),
                         "y": UncertainScalar(0, 0.1)}, 1000),
])
def test_mc_propagate_bitwise_equal_to_reference(expr, env, n):
    cfg = McConfig(samples=n, seed=6, quantiles=QUANTILES)
    got = _got(mc_propagate(parse_expr(expr), env, cfg))
    assert got == _reference(parse_expr(expr), env, cfg)[1]
    assert (got[0] > 0) == (expr == "ln(x)")


def test_mc_exact_variable_is_not_drawn():
    # atan2(-0.0, x < 0) is -pi, atan2(0.0, x < 0) is +pi
    env = {"k": UncertainScalar(-0.0, 0.0), "x": UncertainScalar(-1, 0.1)}
    rep = compare_tsm_mcm(parse_expr("atan2(k, x)"), env, McConfig(samples=1000, seed=2))
    assert rep.tsm_value == -math.pi
    assert rep.mcm.mean == pytest.approx(-math.pi, rel=1e-2)
    assert rep.mcm.quantile_values[1] == -math.pi


@pytest.mark.parametrize("expr, env, n", [
    ("ln(x) + y", {"x": UncertainScalar(2, 0.7), "y": UncertainScalar(1, 0.1)}, 3000),
    ("x*k", {"x": UncertainScalar(0, 1), "k": 0}, 31),  # both zeros
    ("2", {}, 5),  # constant
    # constant operands, which numpy treats otherwise when it broadcasts them
    ("sin(x)/y + ln(z)^2 + atan2(x, 2) + x^0.5 + y^-1",
     {"x": UncertainScalar(2, 0.5), "y": UncertainScalar(2.5, 0.1), "z": UncertainScalar(5, 2)},
     3000),
])
@pytest.mark.parametrize("chunk", [lambda n: 1, lambda n: 7, lambda n: n - 1, lambda n: n,
                                   lambda n: n + 1], ids=["1", "7", "n-1", "n", "n+1"])
def test_mc_propagate_does_not_depend_on_chunk(monkeypatch, expr, env, n, chunk):
    monkeypatch.setattr(mc, "CHUNK", chunk(n))
    # the finite outputs, in draw order, as the order statistics receive them
    outputs, order_stats = [], mc._order_stats
    monkeypatch.setattr(mc, "_order_stats", lambda out, qs, both_zeros, both:
                        outputs.append(out.copy()) or order_stats(out, qs, both_zeros, both))
    cfg = McConfig(samples=n, seed=9, quantiles=QUANTILES)
    got = _got(mc_propagate(parse_expr(expr), env, cfg))
    want_outputs, want = _reference(parse_expr(expr), env, cfg)
    assert outputs[0].tobytes() == want_outputs.tobytes()
    assert got == want
    assert (got[0] > 0) == ("ln" in expr)


_EXTREMES = [0.0, -0.0, 5e-324, -5e-324, 2.2e-308, 1e-310, 1.0, 1e307, 1.7e308, -1.7e308,
             math.inf, -math.inf]


@settings(max_examples=200, deadline=None)
@given(st.one_of(
    st.tuples(st.sampled_from(_EXTREMES) | st.floats(allow_nan=False),
              st.sampled_from([0.0, 5e-324, 1e-310, 1.0, 1e307, 1.7e308])
              | st.floats(0, allow_nan=False, allow_infinity=False)),
    st.just((math.nan, math.nan)),  # NaN carries a NaN error
), st.integers(1, CHUNK + 1), st.integers(0, 2**32 - 1))
@example((1.7e308, 1e307), 1000, 5)  # draws past the float limit
@example((5e-324, 5e-324), CHUNK + 1, 0)  # subnormal draws
@example((math.nan, math.nan), 1, 0)
@example((-math.inf, 1.7e308), CHUNK, 3)  # -inf + inf draws
def test_fill_is_numpys_normal_bit_for_bit(pair, m, seed):
    # an overflow warning, which pyproject makes an error, would fail it
    value, error = pair
    buf = np.empty(m)
    assert _fill(np.random.default_rng(seed), value, error, buf) is buf
    assert buf.tobytes() == np.random.default_rng(seed).normal(value, error, m).tobytes()


def _ln_env():
    return {"x": UncertainScalar(2, 0.7), "y": UncertainScalar(1, 0.1), "z": UncertainScalar(3, 1)}


@pytest.mark.parametrize("expr, env", [
    ("x", {"x": UncertainScalar(0, 1)}),  # the helper draws the only variable
    ("ln(x) + y*z", _ln_env()),  # the helper draws x and y, the caller z
    ("2", {}),  # nothing is drawn
    ("sqrt(x) + y*z", {**_ln_env(), "x": UncertainScalar(0, 1)}),  # NonFiniteSamples
])
def test_mc_propagate_leaves_no_thread(monkeypatch, expr, env):
    monkeypatch.setattr(mc, "CHUNK", 1000)
    before = threading.active_count()
    run = lambda: mc_propagate(parse_expr(expr), env, McConfig(samples=10_000, seed=4))
    if expr.startswith("sqrt"):
        pytest.raises(NonFiniteSamples, run)
    else:
        run()
    assert threading.active_count() == before


def test_failing_run_draws_at_most_one_chunk_it_does_not_evaluate(monkeypatch):
    monkeypatch.setattr(mc, "CHUNK", 100)
    fills, evaluations, fill = [], [], mc._fill
    monkeypatch.setattr(mc, "_fill", lambda *args: fills.append(1) or fill(*args))

    def evaluate(ast, env):  # slow, so that the helper runs as far ahead as it may
        evaluations.append(1)
        time.sleep(0.005)
        return eval_numeric(ast, env)

    monkeypatch.setattr(mc, "eval_numeric", evaluate)
    with pytest.raises(NonFiniteSamples):
        mc_propagate(parse_expr("sqrt(x)"), {"x": UncertainScalar(0, 1)},
                     McConfig(samples=10_000, seed=5))
    assert len(evaluations) <= len(fills) <= len(evaluations) + 1 < 100


def test_drawer_failure_reaches_the_caller(monkeypatch):
    # with one uncertain variable the helper draws it: its error is raised
    # by mc_propagate, which waits for no chunk that will not come
    class DrawFailed(Exception):
        pass

    def fail(*args):
        raise DrawFailed

    before = threading.active_count()
    monkeypatch.setattr(mc, "_fill", fail)
    with pytest.raises(DrawFailed):
        mc_propagate(parse_expr("x"), {"x": UncertainScalar(0, 1)}, McConfig(samples=100, seed=1))
    assert threading.active_count() == before


@pytest.mark.parametrize("value, error", [(1.7e308, 1e300), (-1.7e308, 1e300), (0.0, 1e307)])
def test_statistics_of_draws_near_the_float_limit(value, error):
    # sums of these finite draws overflow; each statistic that overflowed
    # is taken again on scaled draws and agrees with exact arithmetic
    n = 1000
    cfg = McConfig(samples=n, seed=5, quantiles=QUANTILES)
    got = mc_propagate(parse_expr("x"), {"x": UncertainScalar(value, error)}, cfg)
    draws = _streams(cfg.seed, ["x"])["x"].normal(value, error, n)
    assert np.isfinite(draws).all()
    exact = sorted(map(Fraction, draws.tolist()))
    mean = sum(exact) / n
    scale = 2**1000  # the exact variance is past the float range
    sd = math.sqrt(float(sum((d - mean) ** 2 for d in exact) / (n - 1) / scale**2)) * scale
    median = (exact[n // 2 - 1] + exact[n // 2]) / 2
    deviations = sorted(abs(d - median) for d in exact)
    mad = MAD_SCALE * float((deviations[n // 2 - 1] + deviations[n // 2]) / 2)
    assert got.mean == pytest.approx(float(mean), rel=1e-12, abs=1e-12 * error)
    assert got.sd == pytest.approx(sd, rel=1e-12)
    assert got.median == pytest.approx(float(median), rel=1e-15, abs=1e-15 * error)
    # the deviations are from the median rounded to a float
    assert got.mad == pytest.approx(mad, rel=1e-12, abs=4 * math.ulp(float(median)))
    q = np.quantile(draws / 2.0**600, QUANTILES) * 2.0**600
    assert got.quantile_values == pytest.approx(tuple(q), rel=1e-15)


def test_rescaled_order_statistics_look_their_copy_over_for_zeros(monkeypatch):
    # at an even count the median of two draws near the float limit
    # overflows, and the order statistics are taken again on a scaled
    # copy, whose smallest draws may underflow to zeros that out lacks
    n, looked_over, zero_signs = 1000, [], mc._zero_signs
    monkeypatch.setattr(mc, "_zero_signs", lambda o: looked_over.append(o.copy()) or zero_signs(o))
    mc_propagate(parse_expr("x"), {"x": UncertainScalar(1.7e308, 1e300)}, McConfig(samples=n, seed=5))
    draws = _streams(5, ["x"])["x"].normal(1.7e308, 1e300, n)
    k = math.frexp(draws.max())[1] - 256
    assert [np.sort(o).tobytes() for o in looked_over] == [np.sort(draws).tobytes(),
                                                            np.sort(draws * 2.0**-k).tobytes()]


def _peak(n):
    ast = parse_expr("sin(x)/y + ln(z)^2")
    env = {"x": UncertainScalar(2.0, 0.005), "y": UncertainScalar(2.5, 0.01),
           "z": UncertainScalar(5.0, 0.01)}
    cfg = McConfig(samples=n, seed=3)
    tracemalloc.start()
    try:
        mc_propagate(ast, env, cfg)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_mc_propagate_memory():
    # the finite outputs grow with n; the chunk's draws and evaluation
    # temporaries do not
    n = 100_000
    _peak(n)  # first-call allocations out of the count
    small, large = _peak(n), _peak(4 * n)
    assert small <= 6.5 * 8 * n
    assert large - small <= 2.25 * 8 * 3 * n


def test_mc_propagate_memory_is_8_bytes_per_draw():
    # the finite outputs are all that grows with n: the sd takes no n-length
    # temporary, and the test for both zeros no n-length mask
    n = 100_000
    _peak(n)  # first-call allocations out of the count
    small, large = _peak(n), _peak(4 * n)
    assert large - small <= 1.1 * 8 * 3 * n
    n = 4 * 10**6
    assert _peak(n) <= 8 * n + 3.5e6


@pytest.mark.parametrize("expr, env", [
    ("sin(x)/y + ln(z)^2", _ln_env()),
    ("x*k", {"x": UncertainScalar(0, 1), "k": 0}),  # both zeros
    ("x", {"x": UncertainScalar(1.7e308, 1e300)}),  # statistics taken again, rescaled
])
def test_mc_propagate_holds_no_draws_after_it_returns(expr, env):
    # with no cyclic garbage collector, a reference cycle would keep the
    # finite outputs alive after mc_propagate returns
    n = 100_000
    enabled = gc.isenabled()
    gc.disable()
    tracemalloc.start()
    try:
        mc_propagate(parse_expr(expr), env, McConfig(samples=n, seed=2))
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
        if enabled:
            gc.enable()
    assert held < 8 * n


@settings(max_examples=200, deadline=None)
@given(st.integers(2, 300) | st.integers(2, 4 * CHUNK + 9), st.integers(0, 2**32 - 1),
       st.sampled_from([1.0, -1.0, -3.7, 1e-300, -1e-300, 5e-324, 1e150, -1e150, 1e200, 1e306]),
       st.sampled_from([1, 7, CHUNK]))
@example(CHUNK + 1, 0, 1.0, CHUNK)  # one leaf more than a chunk
@example(4 * CHUNK + 9, 1, 1e200, 7)  # the squares overflow
def test_sd_is_numpys_std_bit_for_bit(n, seed, scale, chunk):
    # the pairwise tree's leaves are a chunk, but at least 128 draws long
    rng = np.random.default_rng(seed)
    o = (rng.standard_normal(n) + rng.standard_normal()) * scale
    # overflow in either is the same overflow
    with np.errstate(all="ignore"), mock.patch.object(mc, "CHUNK", chunk):
        assert _bits(_sd(o)) == _bits(np.std(o, ddof=1))


@pytest.mark.parametrize("chunk", [1, 7, CHUNK])
@pytest.mark.parametrize("seed", range(4))
def test_order_stats_finds_both_zeros_in_different_chunks(monkeypatch, chunk, seed):
    # the zeros of the first block read at a time are 0.0, those of the
    # later ones -0.0, or the other way round
    monkeypatch.setattr(mc, "CHUNK", chunk)
    block, rng = max(chunk, 128), np.random.default_rng(seed)
    n = 3 * block + 5
    out = np.where(rng.random(n) < 0.5, 0.0, rng.standard_normal(n))
    first, later = (0.0, -0.0) if seed % 2 else (-0.0, 0.0)
    out[out == 0] = later
    out[:block][out[:block] == 0] = first
    assert _both_zeros(out) and not _both_zeros(np.abs(out))
    got = _order_stats(out.copy(), QUANTILES)
    assert _bits(*got) == _bits(*_reference_order_stats(out, QUANTILES))


# draws that hold no two zeros of opposite sign, as the sorted path gets them
_ONE_ZERO_LISTS = st.lists(st.sampled_from(_POOL) | st.floats(allow_nan=False, allow_infinity=False),
                           min_size=1, max_size=60).filter(lambda v: not _both_zeros(np.array(v)))


@settings(max_examples=200, deadline=None)
@given(_ONE_ZERO_LISTS, st.lists(st.sampled_from([1e-9, 0.001, 0.025, 0.25, 0.5, 0.75, 0.975,
                                                  0.999, 1 - 1e-9]) | st.floats(0, 1, exclude_min=True,
                                                                               exclude_max=True),
                                 min_size=1, max_size=4))
@example([-0.0], [0.5])  # numpy reads the last draw at index -1, so -0.0 stays -0.0
@example([1.0, 2.0], [0.5, 0.5])  # a repeated quantile
@example([-1.7e308, 1.7e308], [0.5])  # the difference overflows
def test_quantile_reader_is_numpys(values, qs):
    s = np.sort(np.array(values))
    at = mc._ranks(s[:0], s)
    with np.errstate(all="ignore"):  # overflow in either is the same overflow
        got = [mc._quantile(at, s.size, q) for q in qs]
        want = np.quantile(s, tuple(qs))
    assert _bits(*got) == _bits(*want)


# few distinct values make ties; + 0.0 makes -0.0 0.0, so no two zeros differ
_TIED = st.sampled_from([-2.0, -1.0, 0.0, 1.0, 1.5, 3.0]) | st.floats(-10, 10).map(lambda v: v + 0.0)


@settings(max_examples=100, deadline=None)
@given(st.lists(_TIED, max_size=40), st.lists(_TIED, max_size=40))
def test_rank_reader_reads_the_merged_sort(a, b):
    # halves with ties, of unequal lengths, or empty
    a, b = np.sort(np.array(a, dtype=float)), np.sort(np.array(b, dtype=float))
    merged = np.sort(np.concatenate((a, b)))
    at = mc._ranks(a, b)
    assert _bits(*(at(r) for r in range(merged.size))) == _bits(*merged)


@pytest.mark.parametrize("n", sorted({2, 3, *range(mc.PAIRWISE_BLOCK - 9, mc.PAIRWISE_BLOCK + 10),
                                      *range(2 * mc.PAIRWISE_BLOCK - 9, 2 * mc.PAIRWISE_BLOCK + 10),
                                      CHUNK - 9, CHUNK, CHUNK + 1, CHUNK + 9, 2 * CHUNK + 9}))
def test_moments_on_two_threads_are_mean_and_sd(n):
    # one thread takes both moments (the name predates that)
    rng = np.random.default_rng(n)
    for scale in (1.0, -3.7, 1e-300, 1e200):
        o = (rng.standard_normal(n) + rng.standard_normal()) * scale
        with np.errstate(all="ignore"):
            assert _bits(*mc._moments(o)) == _bits(_mean(o), _sd(o))
            assert _bits(*mc._moments(o)) == _bits(_mean(o), float(np.std(o, ddof=1)))
    zeros = -np.zeros(n)  # all -0.0: the mean is -0.0
    assert _bits(*mc._moments(zeros)) == _bits(_mean(zeros), _sd(zeros))
    assert _bits(*mc._moments(zeros)) == _bits(_mean(zeros), float(np.std(zeros, ddof=1)))


def _helpers():
    return [t for t in threading.enumerate() if t.name == "errprop-mc-helper"]


@pytest.mark.parametrize("where", ["_zero_signs", "_fill"])
def test_helper_failure_reaches_the_caller(monkeypatch, where):
    # an error in the helper thread, in a job with no meet inside
    # (_zero_signs) or after a meet (_fill of its second chunk), is raised
    # by mc_propagate, and the helper is gone
    class HelperFailed(Exception):
        pass

    real, calls, calls_before = getattr(mc, where), [], int(where == "_fill")

    def fail_off_the_main_thread(*args):
        if threading.current_thread() is not threading.main_thread():
            calls.append(1)
            if len(calls) > calls_before:
                raise HelperFailed
        return real(*args)

    monkeypatch.setattr(mc, "CHUNK", 100)  # the helper draws x, ten chunks
    monkeypatch.setattr(mc, where, fail_off_the_main_thread)
    before = threading.active_count()
    with pytest.raises(HelperFailed):
        mc_propagate(parse_expr("x"), {"x": UncertainScalar(0, 1)}, McConfig(samples=1000, seed=1))
    assert threading.active_count() == before and not _helpers()


def test_no_helper_remains_after_a_return_or_a_failure(monkeypatch):
    monkeypatch.setattr(mc, "CHUNK", 100)
    before = threading.active_count()
    mc_propagate(parse_expr("ln(x)"), {"x": UncertainScalar(3, 0.9)}, McConfig(samples=1000, seed=1))
    with pytest.raises(NonFiniteSamples):
        mc_propagate(parse_expr("sqrt(x)"), {"x": UncertainScalar(0, 1)},
                     McConfig(samples=1000, seed=1))
    assert threading.active_count() == before and not _helpers()


@pytest.mark.parametrize("expr, env", [
    ("sin(x)/y + ln(z)^2", _ln_env()),
    ("x", {"x": UncertainScalar(1.7e308, 1e300)}),  # statistics taken again, rescaled
    ("2", {}),  # nothing is drawn
    ("sqrt(x)", {"x": UncertainScalar(0, 1)}),  # NonFiniteSamples
])
def test_mc_propagate_starts_one_thread(monkeypatch, expr, env):
    # the draws, the moments and the sort, twice on the rescaled path,
    # all run on one helper
    starts = []

    class CountingThread(threading.Thread):
        def start(self):
            starts.append(self.name)
            super().start()

    monkeypatch.setattr(mc.threading, "Thread", CountingThread)
    run = lambda: mc_propagate(parse_expr(expr), env, McConfig(samples=100_000, seed=3))
    if expr.startswith("sqrt"):
        pytest.raises(NonFiniteSamples, run)
    else:
        run()
    assert starts == ["errprop-mc-helper"]


def test_stopping_the_helper_after_a_return_keeps_its_results(monkeypatch):
    # the caller aborts the barrier once its last meet has passed, which
    # the helper may not have left yet; short switch intervals and chunks
    # make that abort land at every point of the helper's last wait
    monkeypatch.setattr(mc, "CHUNK", 7)
    cases = [("x*k", {"x": UncertainScalar(0, 1), "k": 0}),  # both zeros
             ("sin(x)/y + z^2", _ln_env()), ("x", {"x": UncertainScalar(1, 1)})]
    before, interval = threading.active_count(), sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for call in range(200):
            expr, env = cases[call % len(cases)]
            cfg = McConfig(samples=2 + call * 3 // 2, seed=call, quantiles=QUANTILES)
            got = _got(mc_propagate(parse_expr(expr), env, cfg))
            assert got == _reference(parse_expr(expr), env, cfg)[1], (expr, cfg)
    finally:
        sys.setswitchinterval(interval)
    assert threading.active_count() == before and not _helpers()
