"""The measured process: one workload, one client, in a closed loop.

Started by run.py in a fresh interpreter with the checkout's ``src`` on
``PYTHONPATH``.  It runs one warm-up operation, whose outputs are checked
in full against the closed forms, then operations back to back for the
given number of seconds.  Every later output must be bitwise identical
to the checked one.  With ``--trace 1`` every second operation runs with
the span wrappers installed.  The figures go to ``result.json`` in the
workload's directory.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import struct
import sys
import time
import zlib
from contextlib import contextmanager
from pathlib import Path

import numpy as np

import errprop

ROOT = Path(__file__).resolve().parent.parent


class Clock:
    """Sums the timed steps of one operation; each step is a span when traced."""

    def __init__(self, tracer=None):
        self.seconds = 0.0
        self.tracer = tracer

    @contextmanager
    def step(self, name: str):
        i = self.tracer.open(name) if self.tracer else None
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.seconds += time.perf_counter() - t0
            if i is not None:
                self.tracer.close(i)

    def tally(self, key: str, n: int) -> None:
        if self.tracer:
            self.tracer.tally(key, n)


def _buffers(out):
    if isinstance(out, str):
        data = out.encode()
        yield struct.pack("q", len(data))
        yield data
    elif isinstance(out, errprop.UncertainVector):
        yield np.ascontiguousarray(out.values)
        yield np.ascontiguousarray(out.errors)
    elif isinstance(out, errprop.UncertainScalar):
        yield struct.pack("dd", out.value, out.error)
    else:
        for item in out:
            yield from _buffers(item)


def digest(out) -> int:
    crc = 0
    for buf in _buffers(out):
        crc = zlib.crc32(buf, crc)
    return crc


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--dir", type=Path, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    src = (ROOT / "src").resolve()
    if src not in Path(errprop.__file__).resolve().parents:
        print(f"errprop was imported from {errprop.__file__}, not from {src}", file=sys.stderr)
        return 2
    from spans import EXACT_COUNTS, Tracer, layer_metrics
    from workloads import WORKLOADS

    spec = json.loads((args.dir / "spec.json").read_text())
    wl = WORKLOADS[spec["workload"]](spec)
    tracer = Tracer() if args.trace else None
    checked: dict[str, int] = {}
    problems: list[str] = []

    def run_op(index: int, traced: bool) -> tuple[float, list[str]]:
        found: list[str] = []

        def emit(key, out, error=None):
            if error is not None:
                found.append(f"{key}: {error}")
                return
            d = digest(out)
            if key not in checked:
                try:
                    bad = wl.check(key, out)
                except Exception as exc:  # a malformed output can break any check
                    bad = [f"{key}: check raised {type(exc).__name__}: {exc}"]
                found.extend(bad)
                if not bad:
                    checked[key] = d
            elif d != checked[key]:
                found.append(f"{key}: output differs from the checked output")

        clock = Clock(tracer if traced else None)
        if traced:
            tracer.begin_op(index)
        try:
            wl.op(emit, clock)
        except Exception as exc:  # the operation counts as failed; the run goes on
            found.append(f"operation raised {type(exc).__name__}: {exc}")
        finally:
            if traced:
                tracer.end_op()
        return clock.seconds, found

    # warm-up: caches fill, lazy set-up finishes, every output is checked
    _, found = run_op(-1, False)
    attempted, failed = 1, int(bool(found))
    problems += found
    times: list[float] = []
    traced_times: list[float] = []
    min_ops = 2 if tracer else 1
    deadline = time.perf_counter() + args.seconds
    while len(times) + len(traced_times) < min_ops or time.perf_counter() < deadline:
        traced = tracer is not None and (len(times) + len(traced_times)) % 2 == 1
        seconds, found = run_op(attempted - 1, traced)
        (traced_times if traced else times).append(seconds)
        attempted += 1
        failed += bool(found)
        problems += found

    result = {
        "op_seconds": times,
        "attempted": attempted,
        "failed": failed,
        "problems": problems[:20],
        "items_per_op": wl.items,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        "versions": {"python": sys.version.split()[0], "numpy": np.__version__,
                     "errprop": errprop.__version__},
    }
    if tracer:
        per_op = layer_metrics(tracer)
        invariant = []
        for key in EXACT_COUNTS:
            seen = {m[key] for m in per_op}
            if len(seen) > 1:
                invariant.append(f"{key} differs between operations: {sorted(seen, key=str)}")
        for m in per_op:
            for key, want in wl.exact.items():
                if m[key] is not None and m[key] != want:
                    invariant.append(f"{key} is {m[key]}, expected {want}")
        layers = {}
        for k in per_op[0]:
            values = [m[k] for m in per_op]
            # median_low keeps a count a whole number
            middle = statistics.median_low if k in EXACT_COUNTS else statistics.median
            layers[k] = None if None in values else middle(values)
        layers["trace.overhead_pct"] = 100.0 * (
            statistics.median(traced_times) / statistics.median(times) - 1.0)
        result.update(traced_op_seconds=traced_times, layers=layers,
                      missing=sorted(tracer.missing), invariant_problems=invariant)
        tracer.write(args.dir / "trace.npz")
    (args.dir / "result.json").write_text(json.dumps(result, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
