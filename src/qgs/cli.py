"""Command-line front end.

Subcommands:
  scan      separation scan, emits CSV/JSON rows
  validate  analytic-versus-Monte-Carlo comparison, writes a report;
            the gates are mc_oracle.compare's
  fit-g2    rescale the beam to a target zero-separation correlation
  pnd       dump the joint photon-number distribution at one separation

Exit codes: 0 success, 1 validation failure, 2 configuration error,
3 numerical-certification failure.  Each command accepts only the
settings it reads.  An option overrides the field of the same name in
ScanConfig, BeamProfile or MCSettings, taken from --config or the
defaults; the worker count follows the same rule.  An output path
(scan's and pnd's --out) ending in .json gets JSON, any other gets CSV.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import fields, replace

from . import __version__
from .errors import CertificationError, ConfigError, QgsError
from .fock_stats import joint_pnd
from .scan import (
    ScanConfig,
    check_writable,
    config_from_dict,
    config_to_dict,
    default_config,
    emit,
    fit_g2_zero,
    output_format,
    run_scan,
    validate,
    write_output,
)
from .source_model import two_point_params

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_CONFIG = 2
EXIT_CERTIFICATION = 3


def _parse_pairs(text: str):
    pairs = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        try:
            n, m = (int(v) for v in chunk.split(","))
        except ValueError as exc:
            raise ConfigError(f"bad pair {chunk!r}; expected N,M") from exc
        pairs.append((n, m))
    if not pairs:
        raise ConfigError("no pairs given")
    return tuple(pairs)


def _parse_complex_pair(text: str) -> complex:
    parts = text.split(",")
    try:
        if len(parts) == 1:
            return complex(float(parts[0]), 0.0)
        if len(parts) == 2:
            return complex(float(parts[0]), float(parts[1]))
    except ValueError as exc:
        raise ConfigError(f"bad complex value {text!r}; expected re or re,im") from exc
    raise ConfigError(f"bad complex value {text!r}; expected re or re,im")


def _override(obj, given: dict):
    """obj with each field that given names set to given's value."""
    updates = {f.name: given[f.name] for f in fields(obj) if f.name in given}
    return replace(obj, **updates) if updates else obj


def _load_config(args) -> ScanConfig:
    """The --config file or the defaults, overridden by every option given.

    bench/invoke.py wraps this function by name to time the end of set-up.
    """
    if args.config:
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                doc = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config {args.config}: {exc}") from exc
        cfg = config_from_dict(doc)
    else:
        cfg = default_config()

    given = {k: v for k, v in vars(args).items() if v is not None}
    if "mu_peak" in given:
        given["mu_peak"] = _parse_complex_pair(given["mu_peak"])
    if "pairs" in given:
        given["pairs"] = _parse_pairs(given["pairs"])
    given["profile"] = _override(cfg.profile, given)
    given["mc"] = _override(cfg.mc, given)
    return _override(cfg, given)


def _add_beam(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="JSON configuration file")
    parser.add_argument("--mu-peak", dest="mu_peak", help="re or re,im")
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
    parser.add_argument("--workers", dest="n_workers", type=int)


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
    p_scan.add_argument("--pairs", help="semicolon-separated N,M pairs")
    p_scan.add_argument("--out", dest="output_path", help="output path")

    p_val = sub.add_parser("validate", help="compare analytic and Monte Carlo routes")
    _add_range(p_val)
    p_val.add_argument("--seed", type=int)
    p_val.add_argument(
        "--samples", dest="n_samples", type=int, help="Monte Carlo samples per separation"
    )
    p_val.add_argument("--report", help="path for the JSON report")

    p_fit = sub.add_parser("fit-g2", help="fit n_peak to a target g2(0)")
    _add_beam(p_fit)
    p_fit.add_argument("--target", type=float, required=True)

    p_pnd = sub.add_parser("pnd", help="dump the joint distribution at one separation")
    _add_engine(p_pnd)
    p_pnd.add_argument("--separation", type=float, required=True)
    p_pnd.add_argument("--out", default="pnd.csv", help="output path")
    return parser


def _cmd_scan(args) -> int:
    cfg = _load_config(args)
    check_writable(cfg.output_path)
    rows = run_scan(cfg, n_workers=cfg.mc.n_workers)
    emit(rows, output_format(cfg.output_path), cfg.output_path, cfg)
    hard = [r for r in rows if "truncation-unmet" in r.flags or "precision-loss" in r.flags]
    print(f"wrote {len(rows)} rows to {cfg.output_path}")
    if hard:
        print(f"{len(hard)} rows failed numerical certification", file=sys.stderr)
        return EXIT_CERTIFICATION
    return EXIT_OK


def _cmd_validate(args) -> int:
    cfg = _load_config(args)
    report_path = args.report or "validate_report.json"
    check_writable(report_path)
    doc = validate(cfg)
    write_output(report_path, json.dumps(doc, indent=2) + "\n")
    for res in doc["results"]:
        rep = res["report"]
        print(
            "separation {separation:g}: {verdict} "
            "(tv={tv:.2e}, failing z cells {fail}/{qual})".format(
                separation=res["separation"],
                verdict="pass" if rep["passed"] else "FAIL",
                tv=rep["tv_distance"],
                fail=rep["n_failing"],
                qual=rep["n_qualifying"],
            )
        )
    print(f"report written to {report_path}")
    return EXIT_OK if doc["passed"] else EXIT_VALIDATION


def _cmd_fit_g2(args) -> int:
    cfg = _load_config(args)
    fitted = replace(cfg, profile=fit_g2_zero(args.target, cfg.profile))
    print(json.dumps(config_to_dict(fitted)["profile"], indent=2))
    return EXIT_OK


def _cmd_pnd(args) -> int:
    # the JSON metadata records the file this run wrote, never the scan's
    cfg = replace(_load_config(args), output_path=args.out)
    if not math.isfinite(args.separation):
        raise ConfigError(f"separation must be finite, got {args.separation}")
    check_writable(cfg.output_path)
    params = two_point_params(
        cfg.profile, cfg.fixed_position, cfg.fixed_position + args.separation
    )
    pnd = joint_pnd(params, 0, tail_tol=cfg.tail_tol)
    if output_format(cfg.output_path) == "csv":
        lines = ["N,M,p"]
        for n in range(pnd.n_max + 1):
            for m in range(pnd.n_max + 1):
                lines.append(f"{n},{m},{format(pnd.p[n, m], '.17g')}")
        payload = "\n".join(lines) + "\n"
    else:
        pnd_reads = ("profile", "fixed_position", "tail_tol", "output_path")
        config = {k: v for k, v in config_to_dict(cfg).items() if k in pnd_reads}
        payload = (
            json.dumps(
                {
                    "metadata": {
                        "version": __version__,
                        "separation": args.separation,
                        "config": config,
                    },
                    "n_max": pnd.n_max,
                    "tail_mass": pnd.tail_mass,
                    "p": pnd.p.tolist(),
                },
                indent=2,
            )
            + "\n"
        )
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
