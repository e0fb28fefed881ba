"""Whole command outputs against the recorded files in tests/golden.

Each case reruns one command through qgs.cli.main in a fresh directory
and compares the file it writes with the recorded one.  Structure,
strings, flags, empty cells, nulls and integers must match exactly, and
the exit code too; every other float must lie within GOLDEN_RTOL of the
recorded value, relative.  A CSV column counts as integer when every cell
of it is an integer literal.

A change that moves an output on purpose rewrites the files with

    PYTHONPATH=src python tests/test_golden.py

which reruns every command in a temporary directory, prints per file the
number of values past GOLDEN_RTOL and, per column or key, the largest
relative and absolute deviation, and then copies into tests/golden the
files that fail the gate.  A file that passes stays as recorded.  The
printed diff goes into CHANGES.md.
"""

import contextlib
import csv
import io
import json
import math
import os
import re
import shutil
import tempfile
from pathlib import Path

import pytest

from qgs.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
# loose enough for a BLAS or numpy update, tight enough to catch a real change
GOLDEN_RTOL = 1e-13

# recorded file -> (the argv that writes it into the working directory, exit code)
COMMANDS = {
    "scan_default.csv": (["scan", "--out", "scan_default.csv"], 0),
    "scan_n_peak_1.5.csv": (["scan", "--n-peak", "1.5", "--out", "scan_n_peak_1.5.csv"], 0),
    "p.json": (["pnd", "--separation", "1", "--out", "p.json"], 0),
    "validate_report.json": (
        ["validate", "--samples", "200000", "--seed", "7", "--report", "validate_report.json"],
        0,
    ),
}


def _number(cell: str):
    try:
        return float(cell)
    except ValueError:
        return cell


def _typed(column: tuple) -> list:
    """A CSV column's cells: integers if every cell is one, else floats where they parse."""
    try:
        return [int(cell) for cell in column]
    except ValueError:
        return [_number(cell) for cell in column]


def load(path: Path):
    """A JSON file as parsed; a CSV file as a list of typed row dicts."""
    if path.suffix == ".json":
        return json.loads(path.read_text())
    header, *rows = csv.reader(path.read_text().splitlines())
    columns = [_typed(column) for column in zip(*rows)]
    return [dict(zip(header, row)) for row in zip(*columns)]


def deviations(want, got, where: str):
    """(relative deviation, where, want, got) for every leaf; inf where an exact match fails."""
    if isinstance(want, dict) and isinstance(got, dict) and list(want) == list(got):
        for key in want:
            yield from deviations(want[key], got[key], f"{where}.{key}")
    elif isinstance(want, list) and isinstance(got, list) and len(want) == len(got):
        for i, (w, g) in enumerate(zip(want, got)):
            yield from deviations(w, g, f"{where}[{i}]")
    elif type(want) is float and type(got) is float and want != 0 and math.isfinite(want + got):
        yield abs(got - want) / abs(want), where, want, got
    else:
        same = type(got) is type(want) and repr(got) == repr(want)
        yield (0.0 if same else math.inf), where, want, got


@pytest.mark.parametrize("name", list(COMMANDS))
def test_output_matches_golden(name, tmp_path, monkeypatch):
    argv, code = COMMANDS[name]
    monkeypatch.chdir(tmp_path)
    assert main(argv) == code
    found = list(deviations(load(GOLDEN / name), load(tmp_path / name), name))
    worst, where, want, got = max(found, key=lambda d: d[0])
    n_off = sum(d[0] > GOLDEN_RTOL for d in found)
    assert worst <= GOLDEN_RTOL, (
        f"{n_off} of {len(found)} values differ; the largest deviation, {worst:.3g} "
        f"relative, is at {where}: recorded {want!r}, got {got!r}"
    )


def report(name: str, code: int, want_code: int, found: list) -> bool:
    """Print the diff of one rerun file; True when it passes the gate."""
    n_off = sum(d[0] > GOLDEN_RTOL for d in found)
    print(
        f"{name}: exit {code} (recorded {want_code}); "
        f"{n_off} of {len(found)} values past {GOLDEN_RTOL:g} relative"
    )
    worst = {}
    for rel, where, want, got in found:
        key = re.sub(r"\[\d+\]", "", where[len(name):]).lstrip(".") or "(value)"
        numeric = type(want) is float and type(got) is float and math.isfinite(want + got)
        dev = (rel, abs(got - want) if numeric else (0.0 if rel == 0 else math.inf))
        worst[key] = tuple(map(max, worst.get(key, dev), dev))
    for key, (rel, dev) in worst.items():
        print(f"  {key:<32} rel {rel:.3g}  abs {dev:.3g}")
    return n_off == 0 and code == want_code


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        with contextlib.redirect_stdout(io.StringIO()):
            codes = {name: main(argv) for name, (argv, _) in COMMANDS.items()}
        failing = []
        for name, (_, want_code) in COMMANDS.items():
            if not (GOLDEN / name).exists():
                print(f"{name}: exit {codes[name]}; no recorded file")
                failing.append(name)
                continue
            found = list(deviations(load(GOLDEN / name), load(Path(name)), name))
            if not report(name, codes[name], want_code, found):
                failing.append(name)
        for name in failing:
            shutil.copyfile(name, GOLDEN / name)
        print("rewrote", ", ".join(failing) if failing else "nothing")
