"""Seeded input generation for the benchmark workloads.

This runs in the parent process, before the measured process starts, so
no timing includes it.  The same seed gives byte-identical files.  The
measured program sees only the files written here and the argument
lists recorded in ``spec.json``; the exact values behind every file go
to ``inputs.npz`` for the reference checks.
"""

from __future__ import annotations

import csv
import json
import math
from decimal import Decimal
from pathlib import Path

import numpy as np

WORKLOADS = ("table", "mc_oracle", "library_api")

TABLE_ROWS = 10_000
GROUPS = ("alpha", "beta", "gamma", "delta", "epsilon", "zeta")
DERIVES = ("r=sin(x)/y + x^2", "s=sqrt(r)*u")
SUMMARIES = ("mean(r)", "median(s)", "sum(x)")
X_REL_ERROR = 0.01

# Each variable occurs once: errprop treats every occurrence as an
# independent measurement, so a repeated variable would make the delta
# method and Monte Carlo disagree by design, not by nonlinearity.
MC_EXPR = "sin(x)/y + ln(z)^2"
MC_SAMPLES = 1_000_000

LIB_N = 1_000_000
# cumulative_prod and product fold in a Python loop (about 11 us per
# element), so they get a shorter vector than the whole-array calls.
LIB_FOLD_N = 10_000
LIB_SCALARS = 1_000


def measurement(v: float, e: float, digits: int, plus_minus: bool) -> tuple[str, float, float]:
    """Write ``v`` with uncertainty ``e`` as a GUM cell.

    The uncertainty keeps ``digits`` significant digits and the value is
    cut at the same place.  Values whose display exponent leaves [-4, 15]
    are written with an exponent.  Returns the text and the two floats it
    denotes exactly (correctly rounded from the decimal text).
    """
    place = math.floor(math.log10(e)) - (digits - 1)
    vi = round(v / 10.0**place)
    ui = max(1, round(e / 10.0**place))
    dv, du = Decimal(vi).scaleb(place), Decimal(ui).scaleb(place)
    if -4 <= dv.adjusted() <= 15:
        if plus_minus:
            text = f"{dv:f} ± {du:f}"
        else:
            text = f"{dv:f}({ui if place < 0 else format(du, 'f')})"
    else:
        sign = "-" if vi < 0 else ""
        s, su = str(abs(vi)), str(ui)
        mant = s[0] + ("." + s[1:] if len(s) > 1 else "")
        exp = place + len(s) - 1
        if plus_minus:
            umant = su[0] + ("." + su[1:] if len(su) > 1 else "")
            text = f"{sign}{mant}e{exp:+03d} ± {umant}e{place + len(su) - 1:+03d}"
        else:
            # the parenthesised digits refer to the mantissa's last decimals
            text = f"{sign}{mant}({ui})e{exp:+03d}"
    return text, float(dv), float(du)


def _write_csv(path: Path, header: list[str], columns: list[list[str]]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(header)
        w.writerows(zip(*columns))


def _derive_input(rng, d: Path) -> list[str]:
    """x, y with its error column ey, uncertain cells u, and a group label."""
    n = TABLE_ROWS
    g = rng.integers(len(GROUPS), size=n)
    x = rng.uniform(1.1, 10.0, n)
    y = rng.uniform(1.0, 5.0, n)
    ey = y * rng.uniform(1e-3, 1e-2, n)
    u_cells, u_val, u_err = [], np.empty(n), np.empty(n)
    for i, (v, rel) in enumerate(zip(rng.uniform(1.0, 100.0, n), 10.0 ** rng.uniform(-4, -2, n))):
        text, u_val[i], u_err[i] = measurement(v, v * rel, 2, False)
        u_cells.append(text)
    _write_csv(d / "derive.csv", ["g", "x", "y", "ey", "u"], [
        [GROUPS[k] for k in g],
        [repr(float(v)) for v in x],
        [repr(float(v)) for v in y],
        [repr(float(v)) for v in ey],
        u_cells,
    ])
    np.savez(d / "derive.npz", g=g, x=x, y=y, ey=ey, u_val=u_val, u_err=u_err)
    argv = ["table", str(d / "derive.csv"), "--rel-error", f"x={X_REL_ERROR}",
            "--error-col", "y=ey"]
    for spec in DERIVES:
        argv += ["--derive", spec]
    for spec in SUMMARIES:
        argv += ["--summarize", spec]
    return argv + ["--format", "csv"]


def _roundtrip_input(rng, d: Path) -> None:
    """Four uncertain columns, each cell in V(U) or V ± U notation."""
    n = TABLE_ROWS
    g = rng.integers(len(GROUPS), size=n)
    names = ["a", "b", "c", "d"]
    cells, vals, errs = {}, {}, {}
    for name in names:
        # 26 decades, so both fixed and scientific display occur
        mag = 10.0 ** rng.uniform(-8, 18, n)
        sign = np.where(rng.random(n) < 0.5, -1.0, 1.0) if name == "c" else 1.0
        rel = 10.0 ** rng.uniform(-4, -1.3, n)
        pm = rng.random(n) < 0.5
        digits = rng.integers(1, 3, size=n)
        col = [measurement(v, abs(v) * r, int(k), bool(p))
               for v, r, k, p in zip(sign * mag, rel, digits, pm)]
        cells[name] = [c[0] for c in col]
        vals[name] = np.array([c[1] for c in col])
        errs[name] = np.array([c[2] for c in col])
    _write_csv(d / "roundtrip.csv", ["g"] + names,
               [[GROUPS[k] for k in g]] + [cells[k] for k in names])
    np.savez(d / "roundtrip.npz", g=g, **{f"{k}_val": vals[k] for k in names},
             **{f"{k}_err": errs[k] for k in names})


def _table(rng, d: Path) -> dict:
    derive_argv = _derive_input(rng, d)
    _roundtrip_input(rng, d)
    roundtrip, svg = str(d / "roundtrip.csv"), str(d / "plot.svg")
    return {
        "rows": TABLE_ROWS,
        "derive_argv": derive_argv,
        "roundtrip_argv": ["table", roundtrip, "--notation", "plus-minus",
                           "--digits", "2", "--format", "json"],
        "plot_argv": ["plot", roundtrip, "--x", "a", "--y", "b", "--group", "g", "-o", svg],
        "svg": svg,
        "input_bytes": sum((d / f).stat().st_size for f in ("derive.csv", "roundtrip.csv")),
        # float64 values and errors of the largest table: five uncertain
        # columns and ey after the derives
        "working_set_bytes": TABLE_ROWS * 8 * (2 * 5 + 1),
    }


def _mc_oracle(rng, d: Path, seed: int) -> dict:
    lo = {"x": 1.0, "y": 1.0, "z": 2.0}
    hi = {"x": 3.0, "y": 4.0, "z": 10.0}
    env, args = {}, []
    for name in ("x", "y", "z"):
        v = rng.uniform(lo[name], hi[name])
        # relative errors of 0.05% to 0.5%: the linear regime, where the
        # delta method and the Monte Carlo sd must agree closely
        text, fv, fe = measurement(v, v * 10.0 ** rng.uniform(-3.3, -2.3), 2, False)
        env[name] = [fv, fe]
        args.append(f"{name}={text}")
    mc_seed = int(np.random.SeedSequence([seed, 4]).generate_state(1)[0])
    return {
        "samples": MC_SAMPLES,
        "env": env,
        "argv": ["mc", MC_EXPR, *args, "--samples", str(MC_SAMPLES),
                 "--seed", str(mc_seed), "--format", "json"],
        "input_bytes": 0,
        # one float64 draw per variable and sample, plus the output
        "working_set_bytes": MC_SAMPLES * 8 * (len(env) + 1),
    }


def _library_api(rng, d: Path) -> dict:
    n = LIB_N
    x = rng.uniform(1.0, 2.0, n)
    y = rng.uniform(1.0, 2.0, n)
    # inside (0, 1), the domain of every unary rule
    q = rng.uniform(0.1, 0.9, n)
    p = rng.uniform(0.99, 1.01, LIB_FOLD_N)
    arrays = {
        "x": x, "ex": x * rng.uniform(1e-3, 1e-2, n),
        "y": y, "ey": y * rng.uniform(1e-3, 1e-2, n),
        "q": q, "eq": q * rng.uniform(1e-3, 1e-2, n),
        "w": rng.uniform(0.5, 1.5, n),
        "p": p, "ep": p * rng.uniform(1e-3, 1e-2, LIB_FOLD_N),
    }
    np.savez(d / "inputs.npz", **arrays)
    return {
        "n": n, "fold_n": LIB_FOLD_N, "scalars": LIB_SCALARS,
        "items": 3 * n + LIB_FOLD_N,
        "input_bytes": sum(a.nbytes for a in arrays.values()),
        # values and errors of the vectors alive at once: three inputs, the
        # operator result, one unary result, and the short fold vector
        "working_set_bytes": 2 * 8 * (5 * n + LIB_FOLD_N),
    }


def generate(workload: str, seed: int, d: Path) -> dict:
    """Write the inputs of one workload into ``d`` and return its spec."""
    d.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    if workload == "table":
        spec = _table(rng, d)
    elif workload == "mc_oracle":
        spec = _mc_oracle(rng, d, seed)
    else:
        spec = _library_api(rng, d)
    spec.update(workload=workload, seed=seed, dir=str(d))
    (d / "spec.json").write_text(json.dumps(spec, indent=1))
    return spec
