"""CLI exit codes, option precedence and the cost of importing the package."""

import json
import os
import subprocess
import sys
import warnings
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
    # a tail_tol below the 1e-12 resolution of the normalization check
    # cannot be certified in double precision
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
        ["scan", "--steps", "3", "--n-peak", "inf"],
        ["scan", "--steps", "3", "--mu-peak", "nan"],
        ["pnd", "--separation", "1", "--mu-peak", "inf"],
        ["scan", "--steps", "3", "--scan-max", "inf"],
        ["validate", "--samples", "1000", "--scan-min=-inf"],
        ["scan", "--steps", "3", "--fixed-position", "nan"],
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
        "n-peak-inf",
        "mu-peak-nan",
        "mu-peak-inf",
        "scan-max-inf",
        "scan-min-inf",
        "fixed-position-nan",
    ],
)
def test_malformed_option_is_config_error(tmp_path, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 2
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize(
    "argv, code, message",
    [
        (["scan", "--steps", "3", "--n-peak", "1e300"], 3, "24 rows failed"),
        (["scan", "--steps", "3", "--mu-peak", "1e200"], 3, "24 rows failed"),
        (["pnd", "--separation", "1", "--n-peak", "1e300"], 3, "not reachable"),
        (["pnd", "--separation", "1", "--mu-peak", "1e200"], 3, "not reachable"),
        (["validate", "--samples", "1000", "--n-peak", "1e300"], 3, "not reachable"),
        (["validate", "--samples", "1000", "--mu-peak", "1e200"], 3, "not reachable"),
        # the fitted n_peak overflows to inf
        (["fit-g2", "--target", "1.5", "--mu-peak", "1e200"], 2, "n_peak must be"),
        (["fit-g2", "--target", "1.5", "--mu-peak", "nan"], 2, "mu_peak must be finite"),
    ],
    ids=[
        "scan-n-peak",
        "scan-mu-peak",
        "pnd-n-peak",
        "pnd-mu-peak",
        "validate-n-peak",
        "validate-mu-peak",
        "fit-mu-peak",
        "fit-mu-peak-nan",
    ],
)
def test_extreme_beam_fails_typed(tmp_path, monkeypatch, capsys, argv, code, message):
    # squaring a huge beam overflows a Python float; the failure must be a
    # typed exit that names its cause, not an OverflowError or a RuntimeWarning
    monkeypatch.chdir(tmp_path)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(argv) == code
    assert message in capsys.readouterr().err


def test_dim_beam_rows_flag_marginal_floor(tmp_path):
    # far out on the beam p1(16) p2(16) underflows to 0
    out = tmp_path / "scan.csv"
    argv = ["scan", "--fixed-position", "10", "--scan-max", "1", "--steps", "2"]
    assert main(argv + ["--out", str(out)]) == 0
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    dim = [r for r in rows if (r[1], r[2]) == ("16", "16")]
    assert len(dim) == 2
    assert all(r[3] == "" and "marginal-floor" in r[-1].split(";") for r in dim)


def test_report_path_checked_before_sampling(tmp_path, monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("sampled before checking the report path")

    monkeypatch.setattr("qgs.scan.empirical_pnd", never)
    monkeypatch.chdir(tmp_path)
    assert main(["validate", "--samples", "1000", "--report", "missing/r.json"]) == 2
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize(
    "section, key", [(None, "tail_toll"), ("mc", "n_sample")], ids=["top", "nested"]
)
def test_unknown_config_key_is_config_error(tmp_path, capsys, section, key):
    doc = config_to_dict(default_config())
    (doc[section] if section else doc)[key] = 5
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "scan.csv"
    assert main(["scan", "--config", str(path), "--steps", "3", "--out", str(out)]) == 2
    assert key in capsys.readouterr().err
    assert not out.exists()


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
    doc = json.loads(report.read_text())
    cells = [c for r in doc["results"] for c in r["report"]["failing_cells"]]
    perturbed = [c for c in cells if c[:2] == [3, 3]]
    assert perturbed
    for n, m, z, expected, observed in perturbed:
        assert isinstance(observed, int)
        assert observed - expected > 19000


def test_validate_report_independent_of_workers(tmp_path):
    reports = []
    for workers in ("1", "2"):
        report = tmp_path / f"report-{workers}.json"
        argv = ["validate", "--samples", "200000", "--workers", workers]
        assert main(argv + ["--report", str(report)]) == 0
        reports.append(report.read_bytes())
    assert reports[0] == reports[1]


@pytest.mark.parametrize(
    "flags",
    [
        ["--seed", str(2**64 - 1)],
        ["--seed", str(2**64 - 2)],  # seed + 2 at the third separation
        ["--seed", "-1"],
        ["--perturb-cell=-3,3,20000"],
        ["--perturb-cell=3,-3,20000"],
    ],
    ids=["seed-max", "seed-last-separation", "seed-negative", "perturb-row", "perturb-column"],
)
def test_bad_validate_input_rejected_before_sampling(tmp_path, monkeypatch, flags):
    def never(*args, **kwargs):
        raise AssertionError("sampled before checking the input")

    monkeypatch.setattr("qgs.scan.empirical_pnd", never)
    monkeypatch.chdir(tmp_path)
    assert main(["validate", "--samples", "1000", *flags]) == 2
    assert not any(tmp_path.iterdir())


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
