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


@pytest.mark.parametrize(
    "argv",
    [
        ["fit-g2", "--target", "1.5", "--mu-peak", "x"],
        ["validate", "--samples", "1000", "--perturb-cell", "a,b,c"],
    ],
    ids=["mu-peak", "perturb-cell"],
)
def test_malformed_option_is_config_error(tmp_path, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 2
    assert not any(tmp_path.iterdir())


def test_perturbed_validation_fails(tmp_path):
    report = tmp_path / "report.json"
    argv = ["validate", "--samples", "200000", "--perturb-cell", "3,3,20000"]
    assert main(argv + ["--report", str(report)]) == 1
    assert report.exists()


def run_fresh(code):
    src = Path(__file__).resolve().parents[1] / "src"
    path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=path),
        check=True,
        timeout=120,
    )


def test_import_loads_no_scipy():
    run_fresh("import qgs, sys; assert 'scipy' not in sys.modules")


def test_cli_import_loads_no_process_pool():
    # a pool's modules load only on the multi-worker branch that uses them
    run_fresh("import qgs.cli, sys; assert 'concurrent.futures.process' not in sys.modules")
