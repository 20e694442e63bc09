"""Monte Carlo propagation oracle.

Inputs are modeled as independent normals N(value, error^2), each drawn
from its own stream, spawned from numpy's default PCG64 generator, pushed
through the expression a chunk of CHUNK draws at a time and summarized.
A drawer thread draws chunk k + 1 while the calling thread evaluates
chunk k (see _drawn_ahead); each stream is drawn by one thread, so given
the same (expr, env, config) the result is bitwise that of drawing
everything at once, whatever CHUNK is.  Memory holds the finite outputs,
8 bytes per draw, and a fixed amount for two chunks; draws with both
zeros, or whose sums overflow near the float limit, take more.  A run
that fails on its non-finite outputs may have drawn one chunk that it
never evaluates.  Used to cross-check the first-order Taylor
approximation, which degrades when the relative errors are large and the
expression is strongly nonlinear.
"""

from __future__ import annotations

import math
import threading
from contextlib import closing
from dataclasses import dataclass

import numpy as np

from .exceptions import NonFiniteSamples, UnboundVariable
from .expr import ExprAst, Var, eval_numeric, eval_uncertain, free_variables

__all__ = ["McConfig", "McResult", "TsmMcmReport", "mc_propagate", "compare_tsm_mcm"]

# normal-consistency constant for the median absolute deviation
MAD_SCALE = 1.4826

# above this fraction of non-finite evaluations the run is rejected
NONFINITE_LIMIT = 0.01

# draws per variable sampled, handed over by the drawer thread (see
# _drawn_ahead) and evaluated at once: the results are the same bits
# whatever it is, and two chunks are the fixed part of the memory
CHUNK = 2**15

# order statistics need every output, so a run holds about 8 bytes per
# draw at its peak: 0.8 GB at this many (draws with both zeros, or whose
# sums overflow near the float limit, take more)
MAX_SAMPLES = 10**8

# numpy sums a float64 array pairwise, and splits a run longer than this
PAIRWISE_BLOCK = 128


@dataclass(frozen=True)
class McConfig:
    samples: int = 100_000
    seed: int = 0
    quantiles: tuple = (0.025, 0.975)

    def __post_init__(self):
        # each message starts with the field's name, which is the CLI flag's
        if not 2 <= self.samples <= MAX_SAMPLES:
            raise ValueError(f"samples must lie in [2, {MAX_SAMPLES}], got {self.samples}")
        if any(not 0 < q < 1 for q in self.quantiles):
            raise ValueError("quantiles must lie in (0, 1)")
        if self.seed < 0:
            raise ValueError(f"seed must be a nonnegative integer, got {self.seed}")


@dataclass(frozen=True)
class McResult:
    mean: float
    sd: float
    median: float
    mad: float
    quantile_values: tuple
    n_nonfinite: int = 0


@dataclass(frozen=True)
class TsmMcmReport:
    tsm_value: float
    tsm_sd: float
    mcm: McResult
    relative_gap: float

    @property
    def mcm_sd(self) -> float:
        return self.mcm.sd


def mc_propagate(expr: ExprAst, env: dict, cfg: McConfig = McConfig()) -> McResult:
    """Sample the inputs, evaluate the expression, summarize the output.

    Raises NonFiniteSamples after the first chunk at which more than 1% of
    all the evaluations are non-finite; below that threshold they are
    excluded and counted.
    """
    names = sorted(free_variables(expr))
    missing = [n for n in names if n not in env]
    if missing:
        raise UnboundVariable(missing[0])
    inputs = [eval_uncertain(Var(name), env) for name in names]  # a plain number is exact
    # one stream per variable, in sorted-name order: the draws of a variable
    # are the same whether taken at once or a chunk at a time, and whether
    # or not another variable is exact
    streams = np.random.default_rng(cfg.seed).spawn(len(names))
    # an exact variable is bound to its value, not drawn: value + 0 * z
    # costs m normals and turns -0.0 into 0.0
    exact = {name: s.value for name, s in zip(names, inputs) if not s.error}
    drawn = [(name, rng, s.value, s.error)
             for name, s, rng in zip(names, inputs, streams) if s.error]
    # the drawer takes every uncertain variable but the last, or the only
    # one; the calling thread draws the last just before it evaluates, so
    # that the two threads' shares of a chunk are about even
    split = max(1, len(drawn) - 1)
    starts = range(0, cfg.samples, CHUNK)
    sizes = [min(CHUNK, cfg.samples - start) for start in starts]
    own = {name: np.empty(sizes[0]) for name, *_ in drawn[split:]}
    out = np.empty(cfg.samples)
    kept = 0  # the finite outputs, in draw order, fill out[:kept]
    with closing(_drawn_ahead(drawn[:split], sizes)) as chunks:
        for start, m, draws in zip(starts, sizes, chunks):
            for name, rng, value, error in drawn[split:]:
                draws[name] = _fill(rng, value, error, own[name][:m])
            chunk = np.broadcast_to(eval_numeric(expr, exact | draws), m)  # a constant broadcasts
            finite = np.isfinite(chunk)
            k = int(np.count_nonzero(finite))
            out[kept:kept + k] = chunk if k == m else chunk[finite]
            kept += k
            n_bad = start + m - kept
            if n_bad > NONFINITE_LIMIT * cfg.samples:
                raise NonFiniteSamples(f"{n_bad} non-finite evaluations in the first "
                                       f"{start + m} of {cfg.samples}")
    out = out[:kept]
    with np.errstate(over="ignore", invalid="ignore"):
        mean, sd = _rescaled(lambda o: [_mean(o), _sd(o)], out)
        med, mad, *quantiles = _rescaled(lambda o: _order_stats(o, cfg.quantiles), out)
    return McResult(mean=mean, sd=sd, median=med, mad=mad,
                    quantile_values=tuple(quantiles), n_nonfinite=n_bad)


def _drawn_ahead(drawn: list, sizes: list[int]):
    """For each chunk length m in sizes, yield a dict of the next m draws of
    each (name, rng, value, error) in drawn, drawn by a thread one chunk
    ahead into two sets of buffers, taken in turn and allocated here, on
    the calling thread.  The threads meet at a barrier once per chunk k,
    after which the drawer fills chunk k + 1 into the set of chunk k - 1,
    which the caller is done with.  Closing the generator aborts the
    barrier and joins the thread, which may have drawn one chunk more.
    """
    slots = [{name: np.empty(sizes[0]) for name, *_ in drawn} for _ in range(2)]
    handoff, failure = threading.Barrier(2), []

    def draw():
        try:
            for k, m in enumerate(sizes):
                for name, rng, value, error in drawn:
                    _fill(rng, value, error, slots[k % 2][name][:m])
                handoff.wait()
        except threading.BrokenBarrierError:  # the caller stopped
            return
        except BaseException as exc:  # handed to the caller, which would wait forever
            failure.append(exc)
            handoff.abort()

    thread = threading.Thread(target=draw, name="errprop-mc-drawer", daemon=True)
    thread.start()
    try:
        for k, m in enumerate(sizes):
            handoff.wait()
            yield {name: buf[:m] for name, buf in slots[k % 2].items()}
    except threading.BrokenBarrierError:  # only the drawer aborts while the caller waits
        raise failure[0] from None
    finally:
        handoff.abort()
        thread.join()


def _fill(rng, value: float, error: float, buf: np.ndarray) -> np.ndarray:
    """rng.normal(value, error, buf.size), bit for bit, drawn into buf:
    numpy's normal is value + error * z for a standard normal z."""
    rng.standard_normal(out=buf)
    # numpy's error state is per thread, and rng.normal warns of nothing
    with np.errstate(over="ignore", invalid="ignore"):
        buf *= error
        buf += value
    return buf


def _rescaled(stats_of, out: np.ndarray) -> list[float]:
    """stats_of(out), where a sum or a difference of finite draws near the
    float limit may overflow to inf or nan: only then, each statistic that
    did is taken again on the draws scaled by the power of two that brings
    the largest near 2**256, where sums and squares stay finite, and
    scaled back."""
    stats = stats_of(out)
    if all(map(math.isfinite, stats)):
        return stats
    k = math.frexp(max(-out.min(), out.max()))[1] - 256
    scaled = stats_of(out * 2.0**-k)
    return [s if math.isfinite(s) else t * 2.0**k for s, t in zip(stats, scaled)]


def _mean(o: np.ndarray) -> float:
    """np.mean(o), but summed from -0.0, the additive identity, where numpy
    starts from 0.0: draws that are all -0.0 have the mean -0.0.  Any
    other draws give np.mean's bits."""
    return float(np.add.reduce(o, initial=-0.0) / o.size)


def _block() -> int:
    """The draws a statistic reads at a time: a chunk, but no fewer than
    numpy's pairwise block, so that _deviation_sum's leaves are numpy's
    own subtrees."""
    return max(CHUNK, PAIRWISE_BLOCK)


def _sd(o: np.ndarray) -> float:
    """float(np.std(o, ddof=1)), bit for bit, with no temporary as long
    as o: the squared deviations from np.std's mean are summed along
    numpy's own pairwise tree (see _deviation_sum)."""
    m = np.add.reduce(o) / o.size  # summed from 0.0, as np.std's mean is
    return math.sqrt(_deviation_sum(o, m, np.empty(min(o.size, _block()))) / (o.size - 1))


def _deviation_sum(o: np.ndarray, m: np.float64, buf: np.ndarray) -> float:
    """np.add.reduce((o - m)**2), bit for bit, squared buf.size at a time.

    numpy sums a run of k > PAIRWISE_BLOCK elements as the sum of its
    first h = k//2 - (k//2) % 8 and the sum of the rest.  Runs longer
    than buf are split here in the same way; a shorter one, which numpy
    would sum as a subtree of its own, is squared into buf and summed by
    numpy.  The sums are nonnegative, so numpy's 0.0 start adds nothing.
    """
    k = o.size
    if k <= buf.size:
        d = np.subtract(o, m, out=buf[:k])
        return float(np.add.reduce(np.square(d, out=d)))
    h = k // 2 - k // 2 % 8
    return _deviation_sum(o[:h], m, buf) + _deviation_sum(o[h:], m, buf)


def _both_zeros(out: np.ndarray) -> bool:
    """Whether out holds both -0.0 and 0.0, read a block at a time."""
    negative = positive = False
    step = _block()
    for start in range(0, out.size, step):
        block = out[start:start + step]
        zeros = block[block == 0]
        n_negative = int(np.count_nonzero(np.signbit(zeros)))
        negative |= n_negative > 0
        positive |= n_negative < zeros.size
        if negative and positive:
            return True
    return False


def _order_stats(out: np.ndarray, quantiles: tuple) -> list[float]:
    """Median, MAD and quantiles of finite draws, in that order, read off
    one sort of out in place.

    The results are bitwise those of m = float(np.median(out)),
    MAD_SCALE * np.median(np.abs(out - m)) and np.quantile(out,
    quantiles), which make three selections and an n-length |out - m|.
    """
    if _both_zeros(out):
        # -0.0 == 0.0: which zero numpy's selection puts at a rank is its
        # own detail, and its sort may even turn one zero into the other,
        # so draws with both zeros, left in draw order, need the same calls
        # for the same bits
        med = float(np.median(out))
        mad = np.median(np.abs(out - med))
        qs = np.quantile(out, quantiles)
    else:
        out.sort()
        lo, hi = (out.size - 1) // 2, out.size // 2 + 1  # the one or two middle ranks
        med = _mean(out[lo:hi])
        mad = np.median([_kth_deviation(out, med, j) for j in range(lo, hi)])
        qs = np.quantile(out, quantiles, overwrite_input=True)  # out is read last
    return [med, float(MAD_SCALE * mad), *map(float, qs)]


def _kth_deviation(s: np.ndarray, med: float, j: int) -> np.float64:
    """The j-th smallest (from 0) of |s - med| for sorted s, in O(log n).

    Split at k, the deviations form two ascending runs: |s[k-1] - med|,
    |s[k-2] - med|, ... and |s[k] - med|, |s[k+1] - med|, ...  A binary
    search finds how many of the j + 1 smallest the first run holds.
    """
    k = int(np.searchsorted(s, med))
    lo, hi = max(0, j + 1 - (s.size - k)), min(j + 1, k)
    while lo < hi:
        a = (lo + hi) // 2
        if abs(s[k - 1 - a] - med) < abs(s[k + j - a] - med):
            lo = a + 1
        else:
            hi = a
    # the last one taken from each run; the larger is the j-th smallest
    taken = [abs(s[k - lo] - med)] if lo else []
    if lo <= j:
        taken.append(abs(s[k + j - lo] - med))
    return max(taken)


def compare_tsm_mcm(expr: ExprAst, env: dict, cfg: McConfig = McConfig()) -> TsmMcmReport:
    """Run both propagation methods and report the relative spread gap."""
    tsm = eval_uncertain(expr, env)
    mcm = mc_propagate(expr, env, cfg)
    gap = abs(tsm.error - mcm.sd) / mcm.sd if mcm.sd else float("inf")
    return TsmMcmReport(
        tsm_value=tsm.value,
        tsm_sd=tsm.error,
        mcm=mcm,
        relative_gap=gap,
    )
