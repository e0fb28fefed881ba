"""CLI exit codes and the cost of importing the package."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from qgs.cli import main


def test_scan_succeeds(tmp_path):
    out = tmp_path / "scan.csv"
    assert main(["scan", "--steps", "3", "--out", str(out)]) == 0
    assert len(out.read_text().splitlines()) == 1 + 3 * 8


@pytest.mark.parametrize("pairs", ["1,2,3", "a,b", "20,1"])
def test_malformed_pairs_is_config_error(tmp_path, pairs):
    out = tmp_path / "scan.csv"
    assert main(["scan", "--steps", "3", "--pairs", pairs, "--out", str(out)]) == 2
    assert not out.exists()


def test_unreachable_tail_is_certification_failure(tmp_path):
    # no truncation under any cap reaches a marginal tail of 5e-21
    out = tmp_path / "scan.csv"
    assert main(["scan", "--steps", "3", "--tail-tol", "1e-20", "--out", str(out)]) == 3


def test_perturbed_validation_fails(tmp_path):
    report = tmp_path / "report.json"
    argv = ["validate", "--samples", "200000", "--perturb-cell", "3,3,20000"]
    assert main(argv + ["--report", str(report)]) == 1
    assert report.exists()


def test_import_loads_no_scipy():
    src = Path(__file__).resolve().parents[1] / "src"
    path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    subprocess.run(
        [sys.executable, "-c", "import qgs, sys; assert 'scipy' not in sys.modules"],
        env=dict(os.environ, PYTHONPATH=path),
        check=True,
        timeout=120,
    )
