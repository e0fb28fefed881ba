"""Whole command outputs against the recorded files in tests/golden.

Each case reruns one command through qgs.cli.main in a fresh directory
and compares the file it writes with the recorded one.  Structure,
strings, flags, empty cells, nulls and integers must match exactly, and
the exit code too; every other float must lie within GOLDEN_RTOL of the
recorded value, relative.  A CSV column counts as integer when every cell
of it is an integer literal.

A change that moves an output on purpose rewrites the files with

    PYTHONPATH=src python tests/test_golden.py

and states the difference in CHANGES.md.
"""

import csv
import json
import math
import os
import sys
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


if __name__ == "__main__":
    os.chdir(GOLDEN)
    sys.exit(max(main(argv) for argv, _ in COMMANDS.values()))
