"""CLI exit codes, option precedence and the cost of importing the package."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from qgs.cli import _load_config, build_parser, main
from qgs.scan import config_to_dict, default_config


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
        ["scan", "--steps", "3", "--out", "missing/scan.csv"],
        ["pnd", "--separation", "1", "--out", "missing/pnd.csv"],
        ["validate", "--samples", "1000", "--report", "missing/report.json"],
        ["scan", "--steps", "3", "--workers", "0"],
        ["scan", "--steps", "3", "--workers", "-3"],
        ["validate", "--samples", "0"],
        ["scan", "--steps", "3", "--tail-tol", "-1"],
    ],
    ids=[
        "mu-peak",
        "perturb-cell",
        "scan-out",
        "pnd-out",
        "validate-report",
        "workers-zero",
        "workers-negative",
        "samples-zero",
        "tail-tol-negative",
    ],
)
def test_malformed_option_is_config_error(tmp_path, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 2
    assert not any(tmp_path.iterdir())


def write_config(tmp_path, **mc):
    """The default configuration as a file, with mc.n_workers only if given."""
    doc = config_to_dict(default_config())
    del doc["mc"]["n_workers"]
    doc["mc"].update(mc)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.mark.parametrize(
    "flag, in_file, env, expected",
    [
        (["--workers", "3"], {"n_workers": 1}, "2", 3),
        ([], {"n_workers": 1}, "2", 1),
        ([], {"n_workers": 4}, "2", 4),
        ([], {}, "2", 2),
        ([], {}, None, 1),
    ],
    ids=["flag", "file-one", "file", "env", "default"],
)
def test_worker_precedence(tmp_path, monkeypatch, flag, in_file, env, expected):
    if env is None:
        monkeypatch.delenv("QGS_WORKERS", raising=False)
    else:
        monkeypatch.setenv("QGS_WORKERS", env)
    argv = ["scan", "--config", write_config(tmp_path, **in_file), *flag]
    assert _load_config(build_parser().parse_args(argv)).mc.n_workers == expected


@pytest.mark.parametrize("source", ["env", "file"])
def test_zero_workers_is_config_error_from_any_source(tmp_path, monkeypatch, source):
    if source == "env":
        monkeypatch.setenv("QGS_WORKERS", "0")
        config = write_config(tmp_path)
    else:
        monkeypatch.delenv("QGS_WORKERS", raising=False)
        config = write_config(tmp_path, n_workers=0)
    out = tmp_path / "scan.csv"
    assert main(["scan", "--config", config, "--steps", "3", "--out", str(out)]) == 2
    assert not out.exists()


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
    run_fresh("import qgs.cli, sys; assert 'scipy' not in sys.modules")


def test_cli_import_loads_no_process_pool():
    # a pool's modules load only on the multi-worker branch that uses them
    run_fresh("import qgs.cli, sys; assert 'concurrent.futures.process' not in sys.modules")
