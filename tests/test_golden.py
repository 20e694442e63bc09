"""`errprop table` and `errprop plot` output, byte for byte, on a fixed CSV.

The input, tests/data/golden/input.csv, has 300 seeded rows: uncertain
columns in both cell notations whose values span 26 decades (so fixed and
scientific display both occur), plain numeric columns, a text column and
a numeric group column holding both `1` and `1.0`.  Each case's expected
output is a file next to it.  After a deliberate change of output, write
the files again with

    PYTHONPATH=src python tests/test_golden.py

and review the diff.
"""

from __future__ import annotations

import contextlib
import csv
import io
from pathlib import Path

import numpy as np
import pytest

from errprop.cli import main
from errprop.formatting import Notation, format_value

DATA = Path(__file__).resolve().parent / "data" / "golden"
INPUT = DATA / "input.csv"
ROWS = 300

_DERIVE = ["--rel-error", "x=0.02", "--error-col", "y=ey",
           "--derive", "r=a*x/y", "--derive", "s=sqrt(abs(b)) + x",
           "--summarize", "mean(r)", "--summarize", "median(s)", "--summarize", "sum(a)"]

# name -> argv after the input path; a plot case writes its SVG to -o
CASES = {
    "table-text-parenthesis-1": ["table", "--format", "text", "--digits", "1"],
    "table-csv-plus-minus-2": ["table", "--format", "csv", "--notation", "plus-minus",
                               "--digits", "2"],
    "table-json-parenthesis-3": ["table", "--format", "json", "--digits", "3"],
    "table-json-plus-minus-1": ["table", "--format", "json", "--notation", "plus-minus"],
    "table-text-plus-minus-3": ["table", "--format", "text", "--notation", "plus-minus",
                                "--digits", "3"],
    "table-csv-parenthesis-17": ["table", "--format", "csv", "--digits", "17"],
    "derive-csv-parenthesis-2": ["table", *_DERIVE, "--format", "csv", "--digits", "2"],
    "derive-text-plus-minus-1": ["table", *_DERIVE, "--notation", "plus-minus"],
    "plot-group-text": ["plot", "--x", "a", "--y", "b", "--group", "g"],
    "plot-group-numeric": ["plot", "--rel-error", "x=0.02", "--error-col", "y=ey",
                           "--x", "x", "--y", "y", "--group", "k"],
}


def _run(name: str, svg: Path) -> str:
    """The case's output: standard output, or the SVG a plot writes."""
    command, *flags = CASES[name]
    argv = [command, str(INPUT), *flags] + (["-o", str(svg)] if command == "plot" else [])
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    assert code == 0, name
    return svg.read_text(encoding="utf-8") if command == "plot" else out.getvalue()


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_unchanged(name, tmp_path):
    expected = (DATA / f"{name}.out").read_text(encoding="utf-8")
    assert _run(name, tmp_path / "out.svg") == expected


def _measurement(rng, sign: float, digits: int, style: str) -> str:
    v = sign * 10.0 ** rng.uniform(-8, 18)
    return format_value(v, abs(v) * 10.0 ** rng.uniform(-4, -1.3), Notation(style, digits))


def _write_input(path: Path) -> None:
    rng = np.random.default_rng(20181804)
    rows = []
    for i in range(ROWS):
        style = ("parenthesis", "plus-minus")[i % 2]
        a = _measurement(rng, 1.0, int(rng.integers(1, 3)), style)
        b = _measurement(rng, float(rng.choice([-1.0, 1.0])), int(rng.integers(1, 3)),
                         ("plus-minus", "parenthesis")[i % 3 == 0])
        y = float(rng.uniform(1.0, 5.0))
        rows.append([("alpha", "beta", "gamma")[i % 3], ("1", "1.0", "2", "3.5")[i % 4],
                     a, b, repr(float(rng.uniform(1.1, 10.0))), repr(y),
                     repr(y * float(rng.uniform(1e-3, 1e-2))), f"row {i}"])
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["g", "k", "a", "b", "x", "y", "ey", "t"])
        w.writerows(rows)


if __name__ == "__main__":
    DATA.mkdir(parents=True, exist_ok=True)
    if not INPUT.exists():
        _write_input(INPUT)
    for case in CASES:
        (DATA / f"{case}.out").write_text(_run(case, DATA / "plot.svg"), encoding="utf-8")
    (DATA / "plot.svg").unlink()
