"""CLI exit codes, option sets and precedence, and the cost of importing the package."""

import argparse
import csv
import json
import os
import subprocess
import sys
import warnings
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from qgs.cli import _load_config, build_parser, main
from qgs.mc_oracle import empirical_pnd
from qgs.scan import MCSettings, ScanConfig, config_to_dict, default_config
from qgs.source_model import BeamProfile


def test_scan_succeeds(tmp_path):
    out = tmp_path / "scan.csv"
    assert main(["scan", "--steps", "3", "--out", str(out)]) == 0
    assert len(out.read_text().splitlines()) == 1 + 3 * 8


@pytest.mark.parametrize("pairs", ["1,2,3", "a,b", "41,1"])
def test_malformed_pairs_is_config_error(tmp_path, pairs):
    # 41 lies beyond HARD_CAP, the largest truncation joint_pnd searches
    out = tmp_path / "scan.csv"
    assert main(["scan", "--steps", "3", "--pairs", pairs, "--out", str(out)]) == 2
    assert not out.exists()


def test_scan_truncates_at_its_largest_pair_index(tmp_path):
    out = tmp_path / "scan.csv"
    assert main(["scan", "--pairs", "20,1", "--steps", "3", "--out", str(out)]) == 0
    rows = list(csv.DictReader(out.read_text().splitlines()))
    assert [(r["N"], r["M"]) for r in rows] == [("20", "1")] * 3
    assert all(float(r["g2_tilde"]) > 0 for r in rows)


@pytest.mark.parametrize("fixed,pairs", [("10", "0,0"), ("6", "1,1")], ids=["10-0,0", "6-1,1"])
def test_small_pairs_keep_the_default_truncation(tmp_path, fixed, pairs):
    # classical_g2 and tail_mass come from the truncated matrix, so small
    # pairs at a dim position must not lower the truncation below 16
    argv = ["scan", "--fixed-position", fixed, "--scan-max", "1", "--steps", "2"]
    small, default = tmp_path / "small.csv", tmp_path / "default.csv"
    assert main([*argv, "--pairs", pairs, "--out", str(small)]) == 0
    assert main([*argv, "--out", str(default)]) == 0
    columns = ("separation", "classical_g2", "tail_mass")
    want = {tuple(r[c] for c in columns) for r in csv.DictReader(default.read_text().splitlines())}
    got = [tuple(r[c] for c in columns) for r in csv.DictReader(small.read_text().splitlines())]
    assert len(got) == 2 and set(got) == want
    assert all(float(r[1]) > 0 for r in got)


@pytest.mark.parametrize(
    "argv", [["pnd", "--separation", "1"], ["validate", "--samples", "20000"]], ids=["pnd", "validate"]
)
def test_scan_pairs_do_not_bound_pnd_or_validate(tmp_path, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config_to_dict(default_config(pairs=((20, 20), (1, 1))))))
    assert main([*argv, "--config", str(path)]) == 0


def test_unreachable_tail_is_certification_failure(tmp_path):
    # a tail_tol below the 1e-12 resolution of the normalization check
    # cannot be certified in double precision
    out = tmp_path / "scan.csv"
    assert main(["scan", "--steps", "3", "--tail-tol", "1e-20", "--out", str(out)]) == 3


@pytest.mark.parametrize(
    "argv",
    [
        ["fit-g2", "--target", "1.5", "--mu-peak", "x"],
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
        ["scan", "--steps", "3", "--mu-peak", "1.5e308,1.5e308"],
        ["pnd", "--separation", "1", "--mu-peak", "1.5e308,1.5e308"],
        ["validate", "--samples", "1000", "--mu-peak", "1.5e308,1.5e308"],
        ["fit-g2", "--target", "1.5", "--mu-peak", "1.5e308,1.5e308"],
        ["pnd", "--separation", "inf"],
        ["pnd", "--separation", "nan"],
        ["pnd", "--separation", "1e300"],
        ["scan", "--scan-max", "60", "--steps", "3"],
        ["scan", "--steps", "100000000000000000000"],
    ],
    ids=[
        "mu-peak",
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
        "scan-mu-modulus",
        "pnd-mu-modulus",
        "validate-mu-modulus",
        "fit-mu-modulus",
        "separation-inf",
        "separation-nan",
        "separation-underflow",
        "position-underflow",
        "steps-huge",
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
        # |mu| beyond the float range, and positions whose envelope underflows
        (["scan", "--steps", "3", "--mu-peak", "1.5e308,1.5e308"], 2, "mu_peak must be finite"),
        (["fit-g2", "--target", "1.5", "--mu-peak", "1.5e308,1.5e308"], 2, "mu_peak must"),
        (["pnd", "--separation", "nan"], 2, "separation must be finite"),
        (["pnd", "--separation", "1e300"], 2, "underflows to 0 at position 1e+300"),
        (["scan", "--scan-max", "60", "--steps", "3"], 2, "underflows to 0 at position 60"),
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
        "scan-mu-modulus",
        "fit-mu-modulus",
        "separation-nan",
        "separation-underflow",
        "position-underflow",
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


VACUUM = ["--n-peak", "1e-300", "--mu-peak", "0"]


def test_vacuum_beam_scan_flags_precision_loss(tmp_path):
    # the two means are about 1e-300 each, and their product underflows
    out = tmp_path / "scan.csv"
    assert main(["scan", *VACUUM, "--steps", "3", "--out", str(out)]) == 3
    rows = list(csv.DictReader(out.read_text().splitlines()))
    assert len(rows) == 3 * 8
    assert all("precision-loss" in r["flags"].split(";") for r in rows)
    assert all(r["classical_g2"] == r["g2_tilde"] == "" for r in rows)


def test_vacuum_beam_validates_without_warning(tmp_path):
    # p(0, 0) = 1 gives the one qualifying cell a zero variance
    report = tmp_path / "r.json"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["validate", *VACUUM, "--samples", "20000", "--report", str(report)]) == 0
    results = json.loads(report.read_text())["results"]
    assert [r["report"]["max_abs_z"] for r in results] == [0.0] * 3


def reject_constant(name):
    raise ValueError(f"non-standard JSON token {name}")


def test_validate_report_is_strict_json(tmp_path):
    # with 10 samples no cell qualifies, so max_abs_z is NaN in the report
    report = tmp_path / "r.json"
    assert main(["validate", "--samples", "10", "--report", str(report)]) == 1
    results = json.loads(report.read_text(), parse_constant=reject_constant)["results"]
    assert [r["report"]["max_abs_z"] for r in results] == [None] * 3


def test_dim_beam_rows_flag_marginal_floor(tmp_path):
    # far out on the beam p1(16) p2(16) underflows to 0
    out = tmp_path / "scan.csv"
    argv = ["scan", "--fixed-position", "10", "--scan-max", "1", "--steps", "2"]
    assert main(argv + ["--out", str(out)]) == 0
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    dim = [r for r in rows if (r[1], r[2]) == ("16", "16")]
    assert len(dim) == 2
    assert all(r[3] == "" and "marginal-floor" in r[-1].split(";") for r in dim)


@pytest.mark.parametrize(
    "argv",
    [
        ["scan", "--steps", "3", "--out", "missing/x.csv"],
        ["pnd", "--separation", "1", "--out", "missing/p.csv"],
    ],
    ids=["scan", "pnd"],
)
def test_output_path_checked_before_work(tmp_path, monkeypatch, argv):
    def never(*args, **kwargs):
        raise AssertionError("computed before checking the output path")

    monkeypatch.setattr("qgs.cli.run_scan", never)
    monkeypatch.setattr("qgs.cli.joint_pnd", never)
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 2
    assert not any(tmp_path.iterdir())


def test_scan_json_has_the_csv_rows(tmp_path):
    csv_out, json_out = tmp_path / "s.csv", tmp_path / "s.json"
    for out in (csv_out, json_out):
        assert main(["scan", "--steps", "3", "--out", str(out)]) == 0
    doc = json.loads(json_out.read_text())
    assert not {"n_max", "validate_separations", "output_format"} & set(doc["metadata"]["config"])
    rows = list(csv.DictReader(csv_out.read_text().splitlines()))
    assert len(rows) == len(doc["rows"]) == 3 * 8
    for row, rec in zip(rows, doc["rows"]):
        assert list(row) == list(rec)
        for key, value in rec.items():
            if key == "flags":
                assert row[key] == ";".join(value)
            elif value is None:
                assert row[key] == ""
            else:
                assert float(row[key]) == value


def test_scan_json_records_only_what_scan_read(tmp_path):
    # the Monte Carlo settings change no scan row
    out = tmp_path / "s.json"
    assert main(["scan", "--steps", "2", "--out", str(out)]) == 0
    config = json.loads(out.read_text())["metadata"]["config"]
    assert list(config) == [
        "profile", "fixed_position", "scan_min", "scan_max", "steps", "pairs", "tail_tol",
        "output_path",
    ]


def test_pnd_json_is_normalized(tmp_path):
    out = tmp_path / "p.json"
    assert main(["pnd", "--separation", "1", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    p = np.array(doc["p"])
    assert p.shape == (doc["n_max"] + 1, doc["n_max"] + 1)
    assert abs(p.sum() + doc["tail_mass"] - 1.0) <= 1e-12


@pytest.mark.parametrize("config", [False, True], ids=["defaults", "config-file"])
def test_pnd_json_records_only_what_pnd_read(tmp_path, config):
    argv = ["pnd", "--separation", "1", "--out", str(tmp_path / "p.json")]
    if config:
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config_to_dict(default_config(steps=5, pairs=((1, 1),)))))
        argv += ["--config", str(path)]
    assert main(argv) == 0
    metadata = json.loads((tmp_path / "p.json").read_text())["metadata"]
    assert list(metadata["config"]) == ["profile", "fixed_position", "tail_tol", "output_path"]
    assert metadata["separation"] == 1.0


@pytest.mark.parametrize("name", ["out.dat", "out.json.csv"])
@pytest.mark.parametrize(
    "argv, header",
    [(["scan", "--steps", "2"], "separation,N,M,"), (["pnd", "--separation", "1"], "N,M,p\n")],
    ids=["scan", "pnd"],
)
def test_other_suffix_gets_csv(tmp_path, argv, header, name):
    out = tmp_path / name
    assert main([*argv, "--out", str(out)]) == 0
    assert out.read_text().startswith(header)


def test_report_path_checked_before_sampling(tmp_path, monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("sampled before checking the report path")

    monkeypatch.setattr("qgs.scan.empirical_pnd", never)
    monkeypatch.chdir(tmp_path)
    assert main(["validate", "--samples", "1000", "--report", "missing/r.json"]) == 2
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize(
    "section, key",
    [
        (None, "tail_toll"),
        ("mc", "n_sample"),
        # settings the run works out for itself
        (None, "n_max"),
        (None, "validate_separations"),
        (None, "output_format"),
    ],
    ids=["top", "nested", "n_max", "validate_separations", "output_format"],
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
    "flag, in_file, expected",
    [
        (["--workers", "3"], {"n_workers": 1}, 3),
        ([], {"n_workers": 1}, 1),
        ([], {"n_workers": 4}, 4),
        ([], {}, 1),
    ],
    ids=["flag", "file-one", "file", "default"],
)
def test_worker_precedence(tmp_path, flag, in_file, expected):
    argv = ["scan", "--config", write_config(tmp_path, **in_file), *flag]
    assert _load_config(build_parser().parse_args(argv)).mc.n_workers == expected


@pytest.mark.parametrize("source", ["file"])
def test_zero_workers_is_config_error_from_any_source(tmp_path, source):
    config = write_config(tmp_path, n_workers=0)
    out = tmp_path / "scan.csv"
    assert main(["scan", "--config", config, "--steps", "3", "--out", str(out)]) == 2
    assert not out.exists()


@pytest.mark.parametrize(
    "text, message",
    [
        (b'{"steps": 2.7}', "invalid steps"),
        (b'{"steps": true}', "invalid steps"),
        (b'{"steps": 1e20}', "steps must lie in [2, 10000]"),
        (b'{"pairs": [[0.9, 1]]}', "invalid pairs"),
        (b'{"profile": {"mu_peak": [1, 2, 3]}}', "invalid mu_peak"),
        (b'{"mc": {"n_workers": 2.5}}', "invalid n_workers"),
        (b"[1, 2]", "config config.json must be a JSON object"),
        (b'{"mc": null}', "mc must be a JSON object"),
        (b"\xff\xfe", "cannot read config config.json"),
    ],
    ids=[
        "steps", "steps-bool", "steps-huge", "pairs", "mu-peak", "workers", "document", "mc-null",
        "not-utf8",
    ],
)
def test_bad_config_value_is_config_error(tmp_path, monkeypatch, capsys, text, message):
    # a file value is refused as the option of the same setting is, never rounded
    monkeypatch.chdir(tmp_path)
    (tmp_path / "config.json").write_bytes(text)
    assert main(["scan", "--config", "config.json"]) == 2
    assert message in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ["config.json"]


# one case per setting an option reaches: the option and the same setting in a file
FLAG_AND_FILE = [
    pytest.param("scan", ["--n-peak", "1.5"], {"profile": {"n_peak": 1.5}}, id="n_peak"),
    pytest.param("scan", ["--mu-peak", "0.5,-0.25"], {"profile": {"mu_peak": [0.5, -0.25]}},
                 id="mu_peak"),
    pytest.param("scan", ["--sigma0", "3"], {"profile": {"sigma0": 3}}, id="sigma0"),
    pytest.param("scan", ["--sigma1", "2.5"], {"profile": {"sigma1": 2.5}}, id="sigma1"),
    pytest.param("scan", ["--fixed-position", "0.5"], {"fixed_position": 0.5},
                 id="fixed_position"),
    pytest.param("scan", ["--tail-tol", "1e-8"], {"tail_tol": 1e-8}, id="tail_tol"),
    pytest.param("scan", ["--scan-min", "0.5"], {"scan_min": 0.5}, id="scan_min"),
    pytest.param("scan", ["--scan-max", "3"], {"scan_max": 3}, id="scan_max"),
    pytest.param("scan", ["--workers", "2"], {"mc": {"n_workers": 2}}, id="n_workers"),
    pytest.param("scan", ["--steps", "5"], {"steps": 5}, id="steps"),
    pytest.param("scan", ["--pairs", "1,1;16,1"], {"pairs": [[1, 1], [16, 1]]}, id="pairs"),
    pytest.param("scan", ["--out", "s.json"], {"output_path": "s.json"}, id="output_path"),
    pytest.param("validate", ["--seed", "7"], {"mc": {"seed": 7}}, id="seed"),
    pytest.param("validate", ["--samples", "1000"], {"mc": {"n_samples": 1000}}, id="n_samples"),
]


@pytest.mark.parametrize("command, option, in_file", FLAG_AND_FILE)
def test_option_and_file_agree(tmp_path, command, option, in_file):
    def load(*argv):
        return _load_config(build_parser().parse_args([command, *argv]))

    def config_file(name, doc):
        path = tmp_path / name
        path.write_text(json.dumps(doc))
        return str(path)

    from_option = load(*option)
    assert from_option != default_config()
    from_file = load("--config", config_file("one.json", in_file))
    assert from_file == from_option
    # a partial file takes every other setting from the defaults
    want = config_to_dict(default_config())
    for key, value in in_file.items():
        want[key] = {**want[key], **value} if isinstance(value, dict) else value
    assert json.loads(json.dumps(config_to_dict(from_file))) == json.loads(json.dumps(want))
    # an option wins over the file
    full = config_file("full.json", config_to_dict(default_config()))
    assert load("--config", full, *option) == from_option


def test_perturbed_validation_fails(tmp_path, monkeypatch):
    def perturbed(*args, **kwargs):
        # move 20000 counts from the fullest cell into cell (3, 3)
        emp = empirical_pnd(*args, **kwargs)
        rows, cols = emp.counts.shape
        counts = np.zeros((max(rows, 4), max(cols, 4)), dtype=np.int64)
        counts[:rows, :cols] = emp.counts
        counts[np.unravel_index(np.argmax(counts), counts.shape)] -= 20000
        counts[3, 3] += 20000
        return replace(emp, counts=counts)

    monkeypatch.setattr("qgs.scan.empirical_pnd", perturbed)
    report = tmp_path / "report.json"
    argv = ["validate", "--samples", "200000"]
    assert main(argv + ["--report", str(report)]) == 1
    doc = json.loads(report.read_text())
    cells = [c for r in doc["results"] for c in r["report"]["failing_cells"]]
    perturbed = [c for c in cells if c[:2] == [3, 3]]
    assert perturbed
    for n, m, z, expected, observed in perturbed:
        assert isinstance(observed, int)
        assert observed - expected > 19000


def test_scan_forks_no_pool(tmp_path, monkeypatch, pool_sizes):
    # --workers is accepted and read by no scan
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    outputs = []
    for workers in ("1", "2"):
        out = tmp_path / f"scan-{workers}.csv"
        assert main(["scan", "--steps", "3", "--workers", workers, "--out", str(out)]) == 0
        outputs.append(out.read_bytes())
    assert pool_sizes == []
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize(
    "samples, sizes", [("200000", [2]), ("1000", [])], ids=["4-blocks", "1-block"]
)
def test_validate_forks_one_pool(tmp_path, monkeypatch, pool_sizes, samples, sizes):
    # one pool serves all three separations; one block per separation needs none
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    argv = ["validate", "--samples", samples, "--workers", "2"]
    assert main(argv + ["--report", str(tmp_path / "report.json")]) == 0
    assert pool_sizes == sizes


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
        ["--scan-max", "60"],  # the envelope underflows at the last separation
    ],
    ids=["seed-max", "seed-last-separation", "seed-negative", "scan-max-underflow"],
)
def test_bad_validate_input_rejected_before_sampling(tmp_path, monkeypatch, flags):
    def never(*args, **kwargs):
        raise AssertionError("sampled before checking the input")

    monkeypatch.setattr("qgs.scan.empirical_pnd", never)
    monkeypatch.chdir(tmp_path)
    assert main(["validate", "--samples", "1000", *flags]) == 2
    assert not any(tmp_path.iterdir())


BEAM = ["--config", "--mu-peak", "--sigma0", "--sigma1"]
ENGINE = BEAM + ["--n-peak", "--fixed-position", "--tail-tol"]
RANGE = ENGINE + ["--scan-min", "--scan-max", "--workers"]
OPTIONS = {
    "fit-g2": BEAM + ["--target"],
    "pnd": ENGINE + ["--separation", "--out"],
    "validate": RANGE + ["--seed", "--samples", "--report"],
    "scan": RANGE + ["--steps", "--pairs", "--out"],
}


def subparsers():
    (action,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    return action.choices


def test_each_command_takes_only_the_options_it_reads():
    commands = subparsers()
    assert sorted(commands) == sorted(OPTIONS)
    # the leaf settings; profile and mc hold the BeamProfile and MCSettings ones
    settings = {f.name for cls in (ScanConfig, BeamProfile, MCSettings) for f in fields(cls)}
    settings -= {"profile", "mc"}
    dests = set()
    for name, parser in commands.items():
        actions = [a for a in parser._actions if a.dest != "help"]
        assert [opt for a in actions for opt in a.option_strings] == OPTIONS[name]
        own = {"config", "target", "separation", "report"}
        assert {a.dest for a in actions} - own <= settings, name
        dests |= {a.dest for a in actions}
    # no setting is reachable from a config file alone
    assert settings <= dests
    # and each has a case in test_option_and_file_agree
    assert {case.id for case in FLAG_AND_FILE} == settings


@pytest.mark.parametrize(
    "argv",
    [["scan", "--seed", "1"], ["fit-g2", "--target", "1.5", "--pairs", "1,1"]],
    ids=["scan-seed", "fit-pairs"],
)
def test_option_a_command_does_not_read_is_rejected(tmp_path, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert not any(tmp_path.iterdir())


def test_pnd_leaves_the_scan_output_alone(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["scan", "--steps", "2"]) == 0
    scan = (tmp_path / "scan.csv").read_bytes()
    assert main(["pnd", "--separation", "1"]) == 0
    assert (tmp_path / "scan.csv").read_bytes() == scan
    assert (tmp_path / "pnd.csv").read_text().startswith("N,M,p\n")


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



N_PEAKS = ("1e-300", "1e-3", "1", "1e300")
MU_PEAKS = ("0", "1e-200", "1", "1e150")
SIGMAS = ("1e-300", "1", "1e300")
SHAPES = [
    ["--mu-peak", mu, "--sigma0", s0, "--sigma1", s1]
    for mu in MU_PEAKS
    for s0 in SIGMAS
    for s1 in SIGMAS
]
BEAMS = [
    ["--n-peak", n, *shape, "--fixed-position", x]
    for n in N_PEAKS
    for shape in SHAPES
    for x in ("0", "1e3")
]


def test_input_domain_sweep(tmp_path, monkeypatch):
    # every beam of the grid ends in a typed exit, and a successful run
    # writes a number or a flag in every row and a normalized distribution
    monkeypatch.chdir(tmp_path)
    codes = set()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for beam in BEAMS:
            code = main(["scan", *beam, "--steps", "3", "--out", "s.json"])
            assert code in (0, 2, 3), beam
            if code == 0:
                doc = json.loads(Path("s.json").read_text(), parse_constant=reject_constant)
                assert all(r["g2_tilde"] is not None or r["flags"] for r in doc["rows"]), beam
            codes.add(code)
            code = main(["pnd", *beam, "--separation", "1", "--out", "p.json"])
            assert code in (0, 2, 3), beam
            if code == 0:
                doc = json.loads(Path("p.json").read_text(), parse_constant=reject_constant)
                assert abs(np.sum(doc["p"]) + doc["tail_mass"] - 1.0) <= 1e-12, beam
            codes.add(code)
        for shape in SHAPES:
            assert main(["fit-g2", *shape, "--target", "1.5"]) in (0, 2), shape
        for n in N_PEAKS:
            for mu in MU_PEAKS:
                argv = ["validate", "--n-peak", n, "--mu-peak", mu, "--samples", "2000"]
                assert main([*argv, "--report", "r.json"]) in (0, 1, 2, 3), argv
    # the grid reaches every outcome
    assert codes == {0, 2, 3}
