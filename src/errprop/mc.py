"""Monte Carlo propagation oracle.

Inputs are modeled as independent normals N(value, error^2), each drawn
from its own stream, spawned from numpy's default PCG64 generator, pushed
through the expression a chunk of CHUNK draws at a time and summarized.
Each call runs one helper thread (see _helper): it draws chunk k + 1
while the calling thread evaluates chunk k.  After the last chunk the
caller takes the moments while the helper looks the outputs over for
zeros, and then each sorts one half of them.  Each stream is drawn by
one thread, so given the same (expr, env, config) the result is bitwise
that of numpy calls on everything drawn at once, whatever CHUNK is; the
quantiles are read off the two sorted halves.
Memory holds the finite outputs, 8 bytes per draw, and a fixed amount
for two chunks; draws with both zeros, or whose sums overflow near the
float limit, take more.  A run that fails on its non-finite outputs may
have drawn one chunk that it never evaluates.  Used to cross-check the
first-order Taylor approximation, which degrades when the relative
errors are large and the expression is strongly nonlinear.
"""

from __future__ import annotations

import math
import threading
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .exceptions import NonFiniteSamples, UnboundVariable
from .expr import ExprAst, Var, eval_numeric, eval_uncertain, free_variables

__all__ = ["McConfig", "McResult", "TsmMcmReport", "mc_propagate", "compare_tsm_mcm"]

# normal-consistency constant for the median absolute deviation
MAD_SCALE = 1.4826

# above this fraction of non-finite evaluations the run is rejected
NONFINITE_LIMIT = 0.01

# draws per variable sampled, handed over at the helper's barrier (see
# _helper) and evaluated at once: the results are the same bits whatever
# it is, and two chunks are the fixed part of the memory
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
        if len(set(self.quantiles)) < len(self.quantiles):
            raise ValueError("quantiles must be distinct")
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
    # the helper draws every uncertain variable but the last, or the only
    # one, a chunk ahead; the calling thread draws the last, so that the
    # two threads' shares of a chunk are about even
    split = max(1, len(drawn) - 1)
    ahead, own = drawn[:split], drawn[split:]
    starts = range(0, cfg.samples, CHUNK)
    sizes = [min(CHUNK, cfg.samples - start) for start in starts]
    # every buffer is allocated here: two sets for ahead's, taken in turn
    slots = [{name: np.empty(sizes[0]) for name, *_ in ahead} for _ in range(2)]
    mine = {name: np.empty(sizes[0]) for name, *_ in own}
    out = np.empty(cfg.samples)

    def draw(i, meet) -> int:
        """The helper (i = 1) fills chunk k of ahead's into slots[k % 2] and
        meets the caller, which has drawn own's chunk k; then it fills
        chunk k + 1 into the set of chunk k - 1 while the caller evaluates
        chunk k and keeps its finite outputs.  Returns how many it kept."""
        kept = 0  # the finite outputs, in draw order, fill out[:kept]
        for k, (start, m) in enumerate(zip(starts, sizes)):
            share, bufs = (ahead, slots[k % 2]) if i else (own, mine)
            draws = {name: _fill(rng, value, error, bufs[name][:m])
                     for name, rng, value, error in share}
            meet()
            if i:
                continue
            draws = {name: buf[:m] for name, buf in slots[k % 2].items()} | draws
            chunk = np.broadcast_to(eval_numeric(expr, exact | draws), m)  # a constant broadcasts
            finite = np.isfinite(chunk)
            n = int(np.count_nonzero(finite))
            out[kept:kept + n] = chunk if n == m else chunk[finite]
            kept += n
            if start + m - kept > NONFINITE_LIMIT * cfg.samples:
                raise NonFiniteSamples(f"{start + m - kept} non-finite evaluations in the "
                                       f"first {start + m} of {cfg.samples}")
        return kept

    # the helper's error state is the caller's on entry (see _helper)
    with np.errstate(over="ignore", invalid="ignore"), _helper() as both:
        kept = both(draw)[0]
        out = out[:kept]
        # the caller takes the moments while the helper looks for zeros:
        # both jobs only read out
        (mean, sd), signs = both(lambda i, meet: _zero_signs(out) if i else
                                 _rescaled(_moments, out))
        # a scaled copy's smallest draws may underflow to zeros that out lacks
        med, mad, *quantiles = _rescaled(lambda o: _order_stats(
            o, cfg.quantiles, all(signs if o is out else _zero_signs(o)), both), out)
    return McResult(mean=mean, sd=sd, median=med, mad=mad,
                    quantile_values=tuple(quantiles), n_nonfinite=cfg.samples - kept)


@contextmanager
def _helper():
    """Yield both(work), which returns [work(0, meet), work(1, meet)]: the
    first runs on the calling thread, the second on one helper thread
    that lives as long as the with block, under the numpy error state
    that the caller had on entry; meet() waits for the other.  The two
    meet at one barrier: to hand over the work, at each meet() and once
    both are done.  Leaving the block aborts the barrier and joins the
    helper, on every path, and an error in the helper is raised in the
    caller.  Buffers are the caller's to allocate."""
    meet, state, failure, theirs = threading.Barrier(2), np.geterr(), [], [None]

    def serve():
        try:
            with np.errstate(**state):  # numpy's error state is per thread
                while True:
                    meet.wait()  # for work, or for the abort that ends the helper
                    theirs[0] = theirs[0](1, meet.wait)  # the work, then its result
                    # written before the last meet: the caller, done, may
                    # abort while this thread is still in that wait()
                    meet.wait()
        except threading.BrokenBarrierError:  # the caller stopped
            return
        except BaseException as exc:  # handed to the caller, which may be waiting
            failure.append(exc)
            meet.abort()

    def both(work) -> list:
        theirs[0] = work
        meet.wait()
        mine = work(0, meet.wait)
        meet.wait()
        return [mine, theirs[0]]

    thread = threading.Thread(target=serve, name="errprop-mc-helper", daemon=True)
    thread.start()
    try:
        yield both
    except threading.BrokenBarrierError:  # only the helper aborts while the caller waits
        raise failure[0] from None
    finally:
        meet.abort()
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


def _moments(out: np.ndarray) -> list[float]:
    """[_mean(out), float(np.std(out, ddof=1))], bit for bit: the sum from
    -0.0 is numpy's, and the squared deviations are summed along its
    pairwise tree (see _deviation_sum)."""
    total = np.add.reduce(out, initial=-0.0)
    m = (0.0 + total) / out.size  # np.std's mean, summed from 0.0
    deviations = _deviation_sum(out, m, np.empty(min(out.size, _block())))
    return [float(total / out.size), math.sqrt(deviations / (out.size - 1))]


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


def _zero_signs(out: np.ndarray) -> tuple[bool, bool]:
    """Whether out holds -0.0, and whether it holds 0.0, read a block at a time."""
    negative = positive = False
    step = _block()
    for start in range(0, out.size, step):
        block = out[start:start + step]
        zeros = block[block == 0]
        n_negative = int(np.count_nonzero(np.signbit(zeros)))
        negative |= n_negative > 0
        positive |= n_negative < zeros.size
        if negative and positive:
            break
    return negative, positive


def _order_stats(out: np.ndarray, quantiles: tuple, both_zeros: bool, both) -> list[float]:
    """Median, MAD and quantiles of finite draws, in that order, where
    both_zeros says whether out holds both -0.0 and 0.0.  Without them,
    out is sorted in place, one half on each thread of both (see
    _helper), and the statistics are read off the two sorted halves.

    The results are bitwise those of m = float(np.median(out)),
    MAD_SCALE * np.median(np.abs(out - m)) and np.quantile(out,
    quantiles), which make three selections and an n-length |out - m|.
    """
    if both_zeros:
        # -0.0 == 0.0: which zero numpy's selection puts at a rank is its
        # own detail, and its sort may even turn one zero into the other,
        # so draws with both zeros, left in draw order, need the same calls
        # for the same bits
        med = float(np.median(out))
        mad = np.median(np.abs(out - med))
        return [med, float(MAD_SCALE * mad), *map(float, np.quantile(out, quantiles))]
    halves = out[:out.size // 2], out[out.size // 2:]
    both(lambda i, meet: halves[i].sort())
    return _sorted_stats(*halves, quantiles)


def _sorted_stats(a: np.ndarray, b: np.ndarray, quantiles: tuple) -> list[float]:
    """Median, MAD and quantiles of the draws of the sorted a and b
    together, which hold no two zeros of opposite sign, in O(log n)."""
    n, at = a.size + b.size, _ranks(a, b)
    lo, hi = (n - 1) // 2, n // 2 + 1  # the one or two middle ranks
    med = _mean(np.array([at(r) for r in range(lo, hi)]))
    below = int(np.searchsorted(a, med)) + int(np.searchsorted(b, med))
    mad = np.median([_kth_deviation(at, n, below, med, j) for j in range(lo, hi)])
    return [med, float(MAD_SCALE * mad), *(_quantile(at, n, q) for q in quantiles)]


def _ranks(a: np.ndarray, b: np.ndarray):
    """at(r): the r-th smallest (from 0) of the sorted a and b together, in
    O(log n), which is np.sort(np.concatenate((a, b)))[r] where equal
    draws have equal bits."""
    def at(r: int) -> np.float64:
        # the r + 1 smallest are the first i of a and the first r + 1 - i
        # of b, for the least i with a[i] >= b[r - i]
        lo, hi = max(0, r + 1 - b.size), min(r + 1, a.size)
        while lo < hi:
            i = (lo + hi) // 2
            if a[i] < b[r - i]:
                lo = i + 1
            else:
                hi = i
        # the last one taken from each; the larger is the r-th smallest
        return max(([a[lo - 1]] if lo else []) + ([b[r - lo]] if lo <= r else []))

    return at


def _quantile(at, n: int, q: float) -> float:
    """float(np.quantile(s, q)) for the n sorted draws s read by at, with
    numpy's linear method step for step: the virtual index (n - 1) * q, a
    rank at or past the end read as index -1 (so the weight is v + 1),
    and numpy's two-sided lerp."""
    v = (n - 1) * q
    prev = -1 if v >= n - 1 else math.floor(v)
    below, above = (at(prev), at(prev + 1)) if prev >= 0 else (at(n - 1),) * 2
    gamma = v - prev
    d = above - below
    return float(above - d * (1 - gamma) if gamma >= 0.5 else below + d * gamma)


def _kth_deviation(at, n: int, k: int, med: float, j: int) -> np.float64:
    """The j-th smallest (from 0) of |s - med| for the n sorted draws s read
    by at, k of which are below med, in O(log n).

    Split at k, the deviations form two ascending runs: |s[k-1] - med|,
    |s[k-2] - med|, ... and |s[k] - med|, |s[k+1] - med|, ...  A binary
    search finds how many of the j + 1 smallest the first run holds.
    """
    lo, hi = max(0, j + 1 - (n - k)), min(j + 1, k)
    while lo < hi:
        a = (lo + hi) // 2
        if abs(at(k - 1 - a) - med) < abs(at(k + j - a) - med):
            lo = a + 1
        else:
            hi = a
    # the last one taken from each run; the larger is the j-th smallest
    taken = [abs(at(k - lo) - med)] if lo else []
    if lo <= j:
        taken.append(abs(at(k + j - lo) - med))
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
