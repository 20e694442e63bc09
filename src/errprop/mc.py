"""Monte Carlo propagation oracle.

Inputs are modeled as independent normals N(value, error^2), sampled
with numpy's default PCG64 bit generator, pushed through the expression
and summarized.  Given the same (expr, env, config), the result is
bitwise reproducible.  Used to cross-check the first-order Taylor
approximation, which degrades when the relative errors are large and
the expression is strongly nonlinear.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exceptions import NonFiniteSamples, UnboundVariable
from .expr import ExprAst, Var, eval_numeric, eval_uncertain, free_variables

__all__ = ["McConfig", "McResult", "TsmMcmReport", "mc_propagate", "compare_tsm_mcm"]

# normal-consistency constant for the median absolute deviation
MAD_SCALE = 1.4826

# above this fraction of non-finite evaluations the run is rejected
NONFINITE_LIMIT = 0.01


@dataclass(frozen=True)
class McConfig:
    samples: int = 100_000
    seed: int = 0
    quantiles: tuple = (0.025, 0.975)

    def __post_init__(self):
        if self.samples < 2:
            raise ValueError("samples must be >= 2")
        if any(not 0 < q < 1 for q in self.quantiles):
            raise ValueError("quantiles must lie in (0, 1)")


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

    Raises NonFiniteSamples when more than 1% of evaluations are
    non-finite; below that threshold they are excluded and counted.
    """
    names = sorted(free_variables(expr))
    missing = [n for n in names if n not in env]
    if missing:
        raise UnboundVariable(missing[0])
    rng = np.random.default_rng(cfg.seed)
    # draw in sorted-name order so the stream assignment is reproducible
    draws = {}
    for name in names:
        s = eval_uncertain(Var(name), env)  # a plain number is exact
        draws[name] = rng.normal(s.value, s.error, cfg.samples)
    out = np.asarray(eval_numeric(expr, draws), dtype=float)
    if out.ndim == 0:
        out = np.full(cfg.samples, float(out))
    finite = np.isfinite(out)
    n_bad = int(cfg.samples - finite.sum())
    if n_bad > NONFINITE_LIMIT * cfg.samples:
        raise NonFiniteSamples(
            f"{n_bad} of {cfg.samples} evaluations non-finite"
        )
    if n_bad:
        out = out[finite]
    stats = _summary(out, cfg.quantiles)
    if not all(map(math.isfinite, stats)):
        # finite draws near the float limit overflowed a sum or a difference:
        # those statistics again, on the draws scaled by the power of two that
        # brings the largest near 2**256, where sums and squares stay finite
        k = math.frexp(max(-out.min(), out.max()))[1] - 256
        scaled = _summary(out * 2.0**-k, cfg.quantiles)
        stats = [s if math.isfinite(s) else t * 2.0**k for s, t in zip(stats, scaled)]
    mean, sd, med, mad, *quantiles = stats
    return McResult(mean=mean, sd=sd, median=med, mad=mad,
                    quantile_values=tuple(quantiles), n_nonfinite=n_bad)


def _summary(out: np.ndarray, quantiles: tuple) -> list[float]:
    """Mean, sd, median, MAD and quantiles of finite draws.  One whose sum
    or difference leaves the float range is inf or nan, with no warning."""
    with np.errstate(over="ignore", invalid="ignore"):
        med, mad, qs = _order_stats(out, quantiles)
        return [float(np.mean(out)), float(np.std(out, ddof=1)), med, mad, *qs]


def _order_stats(out: np.ndarray, quantiles: tuple) -> tuple[float, float, tuple]:
    """Median, MAD and quantiles of finite draws, read off one sort.

    The results are bitwise those of m = float(np.median(out)),
    MAD_SCALE * np.median(np.abs(out - m)) and np.quantile(out,
    quantiles), which make three selections and an n-length |out - m|.
    """
    s = np.sort(out)  # a copy: out keeps the draw order for the calls below
    zeros = np.searchsorted(s, 0.0, "right") - np.searchsorted(s, 0.0, "left")
    if zeros and 0 < np.signbit(out[out == 0]).sum() < zeros:
        # -0.0 == 0.0: which zero numpy's selection puts at a rank is its
        # own detail, and its sort may even turn one zero into the other,
        # so draws with both zeros need the same calls for the same bits
        med = float(np.median(out))
        mad = np.median(np.abs(out - med))
        qs = np.quantile(out, quantiles)
    else:
        lo, hi = (s.size - 1) // 2, s.size // 2 + 1  # the one or two middle ranks
        med = float(np.median(s[lo:hi]))
        mad = np.median([_kth_deviation(s, med, j) for j in range(lo, hi)])
        qs = np.quantile(s, quantiles, overwrite_input=True)  # s is read last
    return med, float(MAD_SCALE * mad), tuple(float(q) for q in qs)


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
