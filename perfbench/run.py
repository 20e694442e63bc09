"""Run the errprop benchmark and print its metrics.

    python3 perfbench/run.py --workload table --seed 1 --seconds 32 --trace 0

Run it from anywhere inside an errprop checkout; it measures the code
under ``src/``.  For each workload it generates the inputs from the seed,
times how long a fresh interpreter takes to import ``errprop.cli``
(``setup_s``), then starts one more fresh interpreter that runs the
workload in a closed loop (see worker.py).  ``--trace 1`` reports the
per-layer metrics instead of the end-to-end ones.  ``--workload all``
runs every workload in turn.

Metric names and units come from BENCHMARK.json at the checkout root.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the full record,
with the run context, goes to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from gen import WORKLOADS, generate

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"
# interpreter starts per run, half before and half after the measured
# loop, so that one slow stretch of the machine cannot move them all;
# their median is setup_s
SETUP_STARTS = 12
# a run must end within 180 s; this leaves time to start and report
DEADLINE_S = 170.0


def child_env() -> dict[str, str]:
    """The environment of every measured interpreter."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("ERRPROP_")}
    env["PYTHONPATH"] = str(ROOT / "src")
    env["OPENBLAS_NUM_THREADS"] = "1"
    return env


def setup_times(env: dict[str, str], starts: int) -> list[float]:
    """Seconds from spawning an interpreter to ``import errprop.cli`` returning."""
    code = "import time, errprop.cli; print(time.perf_counter())"
    times = []
    for _ in range(starts):
        t0 = time.perf_counter()
        done = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                              capture_output=True, text=True, timeout=60, check=True)
        # perf_counter is CLOCK_MONOTONIC, shared by every process
        times.append(float(done.stdout.split()[-1]) - t0)
    return times


def tail(times: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten samples beyond it, and its rank.

    It is never taken below the median: with fewer than 21 samples no
    percentile above the median has ten beyond it, and the median is
    reported, as the 50th.  The value then changes smoothly with the
    count instead of jumping to the maximum.
    """
    t = sorted(times)
    n = len(t)
    median = statistics.median(t)
    if n < 11 or t[n - 11] < median:
        return median, 50.0
    return t[n - 11], 100.0 * (n - 10) / n


def run_context(seed: int) -> dict:
    try:
        llc = int(subprocess.run(["getconf", "LEVEL3_CACHE_SIZE"], capture_output=True,
                                 text=True, timeout=10).stdout.strip())
    except (OSError, ValueError, subprocess.SubprocessError):
        llc = None
    return {"seed": seed, "python": platform.python_version(),
            "nproc": len(os.sched_getaffinity(0)), "llc_bytes": llc,
            "machine": platform.machine()}


def run_workload(name: str, seed: int, seconds: float, trace: bool, bench: dict,
                 deadline: float) -> dict:
    d = OUT / name
    for stale in ("result.json", "trace.npz"):
        (d / stale).unlink(missing_ok=True)
    spec = generate(name, seed, d)
    env = child_env()
    # the first start may write the bytecode caches, so it is dropped
    setups = [] if trace else setup_times(env, SETUP_STARTS // 2 + 1)[1:]
    cmd = [sys.executable, str(Path(__file__).with_name("worker.py")), "--dir", str(d),
           "--seconds", str(seconds), "--trace", str(int(trace))]
    done = subprocess.run(cmd, env=env, cwd=ROOT, timeout=max(1.0, deadline - time.monotonic()))
    if done.returncode != 0:
        raise RuntimeError(f"{name}: measured process exited with code {done.returncode}")
    res = json.loads((d / "result.json").read_text())
    if not trace:
        setups += setup_times(env, SETUP_STARTS - len(setups))

    times = res["op_seconds"]
    problems = res["problems"] + res.get("invariant_problems", [])
    if trace:
        values = res["layers"]
        wanted = bench["per_layer"]
    else:
        tail_s, tail_pct = tail(times)
        values = {
            "setup_s": statistics.median(setups),
            "op_p50_s": statistics.median(times),
            "op_tail_s": tail_s,
            "items_per_s": res["items_per_op"] * len(times) / sum(times),
            "peak_rss_mb": res["peak_rss_mb"],
            "success_ratio": 1.0 - res["failed"] / res["attempted"],
        }
        res.update(setup_seconds=setups, op_tail_percentile=tail_pct)
        wanted = bench["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    inputs = {k: spec[k] for k in ("rows", "samples", "n", "fold_n", "scalars",
                                   "input_bytes", "working_set_bytes") if k in spec}
    return {
        "workload": name, "trace": int(trace), "seconds": seconds,
        "correct": not problems, "attempted": res["attempted"], "failed": res["failed"],
        "metrics": metrics, "inputs": inputs, "problems": problems, "detail": res,
    }


def report(r: dict) -> None:
    """Human-readable lines for one workload."""
    name, det = r["workload"], r["detail"]
    print(f"{name}: inputs {json.dumps(r['inputs'])} (working_set_bytes is computed)")
    for metric, m in r["metrics"].items():
        line = f"{name:16s} {metric:32s} {m['value']!s:>24} {m['unit']}"
        if metric == "op_tail_s":
            line += (f"  (p{det['op_tail_percentile']:.1f} of {len(det['op_seconds'])} operations;"
                     f" below 21 operations this is the median)")
        elif metric == "op_p50_s":
            line += f"  ({len(det['op_seconds'])} operations)"
        print(line)
    print(f"{name:16s} {'fail_ratio':32s} {r['failed']:>18d} / {r['attempted']}")
    if det.get("missing"):
        print(f"{name}: wrapped names gone from the program: {', '.join(det['missing'])}")
    for p in r["problems"]:
        print(f"{name}: FAILED CHECK {p}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=(*WORKLOADS, "all"), default="all")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=32.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    start = time.monotonic()

    if not (ROOT / "src" / "errprop" / "__init__.py").is_file():
        print(f"perfbench: no errprop sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    bench_file = ROOT / "BENCHMARK.json"
    if not bench_file.is_file():
        print(f"perfbench: {bench_file} is missing", file=sys.stderr)
        return 2
    bench = json.loads(bench_file.read_text())

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    context = run_context(args.seed)
    results = []
    for i, name in enumerate(names):
        # split what is left of the deadline over the workloads still to run
        share = (DEADLINE_S * len(names) - (time.monotonic() - start)) / (len(names) - i)
        try:
            r = run_workload(name, args.seed, args.seconds, bool(args.trace), bench,
                             time.monotonic() + share)
        except (RuntimeError, OSError, subprocess.SubprocessError) as exc:
            print(f"perfbench: {exc}", file=sys.stderr)
            return 1
        context.update(r["detail"]["versions"])
        r["context"] = context
        path = OUT / f"{name}-seed{args.seed}-trace{args.trace}.json"
        path.write_text(json.dumps(r, indent=1))
        report(r)
        results.append(r)
    print("context: " + json.dumps(context))

    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v for r in results for k, v in r["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
