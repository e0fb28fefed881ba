"""Command-line front end.

Subcommands:
  scan      separation scan, emits CSV/JSON rows
  validate  analytic-versus-Monte-Carlo comparison, writes a report;
            the gates are mc_oracle.compare's
  fit-g2    rescale the beam to a target zero-separation correlation
  pnd       dump the joint photon-number distribution at one separation

Exit codes: 0 success, 1 validation failure, 2 configuration error,
3 numerical-certification failure.  Each command accepts only the
settings it reads, but scan takes --workers and ignores it: bench/run.py
passes it until a benchmark change drops it (ROADMAP item 4).  Only
validate forks: one multiprocessing.Pool of up to --workers processes,
forked once every analytic table is certified and kept for the whole
run; each separation hands each worker one task, its share of the Monte
Carlo blocks.  scan computes in this process.  A setting comes from the
defaults, then the --config file, then its option, the later winning;
the file is a JSON object laid out as config_to_dict writes it, holding
any subset of the settings.  A numeric setting refuses a bool, an
integer setting also a number with a fraction, and output_path anything
but a string; mu_peak is [re], [re, im] or a number (re or re,im as an
option).  An output path
(scan's and pnd's --out) ending in .json gets JSON, any other gets CSV.
Every JSON output is strict JSON: a non-finite number, such as a
validate report's max_abs_z when no cell qualifies, is written as null.
Importing this module freezes the heap the imports built (gc.freeze), so
that a run's collections and its interpreter shutdown skip numpy's objects.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import sys
from dataclasses import replace

from . import __version__
from .errors import CertificationError, ConfigError, QgsError
from .fock_stats import joint_pnd
from .scan import (
    ScanConfig,
    check_writable,
    config_from_dict,
    config_to_dict,
    csv_table,
    default_config,
    emit,
    fit_g2_zero,
    json_text,
    output_format,
    run_scan,
    validate,
    write_output,
)
from .source_model import two_point_params

# The modules imported above live until exit; frozen, no later collection
# walks them, and the collections at interpreter shutdown skip them too.
gc.freeze()

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_CONFIG = 2
EXIT_CERTIFICATION = 3


def _merge(doc: dict, update, where: str) -> None:
    """Set doc's entries from update's, section by section; each level is a JSON object."""
    if not isinstance(update, dict):
        raise ConfigError(f"{where} must be a JSON object, got {type(update).__name__}")
    for key, value in update.items():
        if isinstance(doc.get(key), dict):
            _merge(doc[key], value, key)
        else:
            doc[key] = value


def _load_config(args) -> ScanConfig:
    """The defaults, then the --config file, then every option given.

    bench/invoke.py wraps this function by name to time the end of set-up.
    """
    doc = config_to_dict(default_config())
    if args.config:
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                found = json.load(fh)
        except (OSError, ValueError) as exc:  # ValueError: not JSON, or not UTF-8
            raise ConfigError(f"cannot read config {args.config}: {exc}") from exc
        _merge(doc, found, f"config {args.config}")
    given = {k: v for k, v in vars(args).items() if v is not None}
    for section in (doc, doc["profile"], doc["mc"]):
        section.update({k: given[k] for k in section if k in given})
    return config_from_dict(doc)


def _add_beam(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="JSON configuration file")
    parser.add_argument("--mu-peak", type=lambda t: t.split(","), help="re or re,im")
    parser.add_argument("--sigma0", type=float)
    parser.add_argument("--sigma1", type=float)


def _add_engine(parser: argparse.ArgumentParser) -> None:
    _add_beam(parser)
    parser.add_argument("--n-peak", dest="n_peak", type=float)
    parser.add_argument("--fixed-position", dest="fixed_position", type=float)
    parser.add_argument("--tail-tol", dest="tail_tol", type=float)


def _add_range(parser: argparse.ArgumentParser) -> None:
    _add_engine(parser)
    parser.add_argument("--scan-min", dest="scan_min", type=float)
    parser.add_argument("--scan-max", dest="scan_max", type=float)
    parser.add_argument("--workers", dest="n_workers", type=int, help="processes for validate")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qgs",
        description="Multiphoton coherence scans of partially coherent light",
    )
    parser.add_argument("--version", action="version", version=f"qgs {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_scan = sub.add_parser("scan", help="run a separation scan")
    _add_range(p_scan)
    p_scan.add_argument("--steps", type=int)
    p_scan.add_argument(
        "--pairs",
        type=lambda t: [p.split(",") for p in t.split(";") if p.strip()],
        help="semicolon-separated N,M pairs",
    )
    p_scan.add_argument("--out", dest="output_path", help="output path")

    p_val = sub.add_parser("validate", help="compare analytic and Monte Carlo routes")
    _add_range(p_val)
    p_val.add_argument("--seed", type=int)
    p_val.add_argument(
        "--samples", dest="n_samples", type=int, help="Monte Carlo samples per separation"
    )
    p_val.add_argument("--report", default="validate_report.json", help="JSON report path")

    p_fit = sub.add_parser("fit-g2", help="fit n_peak to a target g2(0)")
    _add_beam(p_fit)
    p_fit.add_argument("--target", type=float, required=True)

    p_pnd = sub.add_parser("pnd", help="dump the joint distribution at one separation")
    _add_engine(p_pnd)
    p_pnd.add_argument("--separation", type=float, required=True)
    p_pnd.add_argument("--out", dest="output_path", default="pnd.csv", help="output path")
    return parser


def _cmd_scan(args) -> int:
    cfg = _load_config(args)
    check_writable(cfg.output_path)
    rows = run_scan(cfg, n_workers=cfg.mc.n_workers)
    emit(rows, output_format(cfg.output_path), cfg.output_path, cfg)
    hard = [r for r in rows if {"truncation-unmet", "precision-loss"} & set(r["flags"])]
    print(f"wrote {len(rows)} rows to {cfg.output_path}")
    if hard:
        print(f"{len(hard)} rows failed numerical certification", file=sys.stderr)
        return EXIT_CERTIFICATION
    return EXIT_OK


def _cmd_validate(args) -> int:
    cfg = _load_config(args)
    check_writable(args.report)
    doc = validate(cfg)
    write_output(args.report, json_text(doc))
    for res in doc["results"]:
        rep = res["report"]
        verdict = "pass" if rep["passed"] else "FAIL"
        print(
            f"separation {res['separation']:g}: {verdict} (tv={rep['tv_distance']:.2e}, "
            f"failing z cells {rep['n_failing']}/{rep['n_qualifying']})"
        )
    print(f"report written to {args.report}")
    return EXIT_OK if doc["passed"] else EXIT_VALIDATION


def _cmd_fit_g2(args) -> int:
    cfg = _load_config(args)
    fitted = replace(cfg, profile=fit_g2_zero(args.target, cfg.profile))
    sys.stdout.write(json_text(config_to_dict(fitted)["profile"]))
    return EXIT_OK


def _cmd_pnd(args) -> int:
    # --out has a default, so pnd never writes to a scan's output_path from --config
    cfg = _load_config(args)
    if not math.isfinite(args.separation):
        raise ConfigError(f"separation must be finite, got {args.separation}")
    check_writable(cfg.output_path)
    s1 = cfg.fixed_position
    params = two_point_params(cfg.profile, s1, s1 + args.separation)
    pnd = joint_pnd(params, 0, tail_tol=cfg.tail_tol)
    if output_format(cfg.output_path) == "csv":
        cells = enumerate(pnd.p.tolist())
        payload = csv_table([{"N": n, "M": m, "p": p} for n, ps in cells for m, p in enumerate(ps)])
    else:
        pnd_reads = ("profile", "fixed_position", "tail_tol", "output_path")
        config = {k: v for k, v in config_to_dict(cfg).items() if k in pnd_reads}
        metadata = {"version": __version__, "separation": args.separation, "config": config}
        doc = dict(metadata=metadata, n_max=pnd.n_max, tail_mass=pnd.tail_mass, p=pnd.p.tolist())
        payload = json_text(doc)
    write_output(cfg.output_path, payload)
    print(f"wrote joint distribution (n_max={pnd.n_max}) to {cfg.output_path}")
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "scan": _cmd_scan,
        "validate": _cmd_validate,
        "fit-g2": _cmd_fit_g2,
        "pnd": _cmd_pnd,
    }
    try:
        return handlers[args.command](args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except CertificationError as exc:
        print(f"numerical certification failure: {exc}", file=sys.stderr)
        return EXIT_CERTIFICATION
    except QgsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
