"""Detector-separation scans, validation runs, and beam fitting.

A scan fixes detector 1 and walks detector 2 across the beam, computing
the joint photon-number distribution once per position and deriving the
wavepacket correlations for every requested (N, M) pair plus the
classical intensity correlation.  Positions are independent tasks;
output order is deterministic regardless of the worker pool.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import asdict, dataclass, fields, replace

import numpy as np

from . import __version__
from .errors import (
    ConfigError,
    DomainError,
    InsufficientCountsError,
    PrecisionLossError,
    TruncationError,
)
from .fock_stats import classical_g2, joint_pnd, wavepacket_g2
from .mc_oracle import compare, empirical_pnd
from .source_model import BeamProfile, two_point_params

DEFAULT_PAIRS = ((0, 0), (1, 1), (5, 5), (8, 8), (16, 16), (5, 1), (8, 1), (16, 1))


@dataclass(frozen=True)
class MCSettings:
    """Monte Carlo settings used by validation runs."""

    n_samples: int = 1_000_000
    seed: int = 20240801
    n_workers: int = 1

    def __post_init__(self) -> None:
        if self.n_samples < 1:
            raise ConfigError(f"n_samples must be at least 1, got {self.n_samples}")
        if self.n_workers < 1:
            raise ConfigError(f"n_workers must be at least 1, got {self.n_workers}")


@dataclass(frozen=True)
class ScanConfig:
    """Full description of a scan or validation run."""

    profile: BeamProfile
    fixed_position: float = 0.0
    scan_min: float = 0.0
    scan_max: float = 4.0
    steps: int = 81
    pairs: tuple = DEFAULT_PAIRS
    n_max: int = 16
    tail_tol: float = 1e-6
    mc: MCSettings = MCSettings()
    validate_separations: tuple | None = None
    output_format: str = "csv"
    output_path: str = "scan.csv"

    def __post_init__(self) -> None:
        positions = (self.fixed_position, self.scan_min, self.scan_max)
        if not all(map(math.isfinite, positions + (self.validate_separations or ()))):
            raise ConfigError("positions and separations must be finite")
        if not self.scan_min < self.scan_max:
            raise ConfigError("scan_min must be below scan_max")
        if self.steps < 2:
            raise ConfigError("steps must be at least 2")
        if not self.tail_tol > 0:
            raise ConfigError(f"tail_tol must be positive, got {self.tail_tol}")
        if not self.pairs:
            raise ConfigError("at least one (N, M) pair is required")
        for pair in self.pairs:
            n, m = pair
            if n < 0 or m < 0:
                raise ConfigError(f"pair indices must be nonnegative, got {pair}")
            if max(n, m) > self.n_max:
                raise ConfigError(f"pair {pair} exceeds n_max = {self.n_max}")
        if self.output_format not in ("csv", "json"):
            raise ConfigError(f"unknown output format {self.output_format!r}")
        # validate seeds separation i with seed + i
        last_seed = self.mc.seed + len(validation_separations(self)) - 1
        if not (0 <= self.mc.seed and last_seed < 2**64):
            raise ConfigError(
                f"seed must lie in [0, 2**64) at every validation separation, got {self.mc.seed}"
            )


@dataclass(frozen=True)
class ScanRow:
    """One (separation, pair) result."""

    separation: float
    pair: tuple
    g2_tilde: float | None
    log2_g2_tilde: float | None
    classical_g2: float | None
    tail_mass: float | None
    flags: tuple = ()


def separations(cfg: ScanConfig) -> np.ndarray:
    return np.linspace(cfg.scan_min, cfg.scan_max, cfg.steps)


def _scan_position(cfg: ScanConfig, sep: float):
    """All rows for one detector-2 position."""
    s1 = cfg.fixed_position
    params = two_point_params(cfg.profile, s1, s1 + sep)
    base_flags = ("degenerate-g",) if params.is_degenerate else ()
    try:
        pnd = joint_pnd(params, cfg.n_max, tail_tol=cfg.tail_tol)
    except (TruncationError, PrecisionLossError) as exc:
        flag = "truncation-unmet" if isinstance(exc, TruncationError) else "precision-loss"
        return [
            ScanRow(sep, tuple(pair), None, None, None, None, base_flags + (flag,))
            for pair in cfg.pairs
        ]
    cls = classical_g2(pnd)
    rows = []
    for pair in cfg.pairs:
        n, m = pair
        flags = base_flags
        g2 = None
        log2g2 = None
        try:
            g2 = wavepacket_g2(pnd, n, m)
        except InsufficientCountsError:
            flags = flags + ("marginal-floor",)
        if g2 is not None:
            if g2 > 0:
                log2g2 = math.log2(g2)
            else:
                flags = flags + ("log-undefined",)
        rows.append(
            ScanRow(sep, (n, m), g2, log2g2, cls, pnd.tail_mass, flags)
        )
    return rows


def _scan_task(args):
    cfg, sep = args
    return _scan_position(cfg, sep)


def run_scan(cfg: ScanConfig, n_workers: int):
    """Compute every ScanRow of a configuration, ordered by (position, pair).

    The name and the position of n_workers are kept for bench/tracing.py,
    which wraps qgs.cli.run_scan and reads the worker count from the call.
    """
    tasks = [(cfg, float(s)) for s in separations(cfg)]
    if n_workers > 1 and len(tasks) > 1:
        # imported here: one-worker runs never load multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=n_workers) as pool:
            per_position = list(pool.map(_scan_task, tasks, chunksize=1))
    else:
        per_position = [_scan_task(t) for t in tasks]
    return [row for group in per_position for row in group]


def fit_g2_zero(target: float, profile: BeamProfile) -> BeamProfile:
    """Rescale n_peak so the zero-separation intensity correlation hits target.

    The correlation at zero separation depends only on the thermal
    fraction f = n/(n + |mu|^2) through 1 + 2f - f^2, whose root in
    [0, 1] is f = 1 - sqrt(2 - target); n_peak is set from it while
    mu_peak and the widths are kept.
    """
    if not (1.0 < target < 2.0):
        raise DomainError(f"target must lie strictly inside (1, 2), got {target}")
    mu2 = abs(profile.mu_peak) * abs(profile.mu_peak)
    if mu2 <= 0:
        raise DomainError("fit requires a nonzero coherent amplitude")
    f = 1.0 - math.sqrt(2.0 - target)
    return replace(profile, n_peak=f * mu2 / (1.0 - f))


def default_profile(target: float = 1.7) -> BeamProfile:
    """Reference beam: unit coherent amplitude, widths (4, 1), fitted n_peak."""
    base = BeamProfile(n_peak=1.0, mu_peak=1.0 + 0.0j, sigma0=4.0, sigma1=1.0)
    return fit_g2_zero(target, base)


def default_config(**overrides) -> ScanConfig:
    cfg = ScanConfig(profile=default_profile())
    return replace(cfg, **overrides) if overrides else cfg


def _fmt_float(x) -> str:
    if x is None:
        return ""
    return format(float(x), ".17g")


def config_to_dict(cfg: ScanConfig) -> dict:
    """JSON-ready form of a configuration; mu_peak is written as [re, im]."""
    doc = asdict(cfg)
    mu = cfg.profile.mu_peak
    doc["profile"]["mu_peak"] = [mu.real, mu.imag]
    return doc


def _complex(v) -> complex:
    return complex(v[0], v[1]) if isinstance(v, (list, tuple)) else complex(v)


def _build(cls, doc):
    """cls from the entries of doc, each coerced to the type of its field.

    An entry that names no field of cls is a ConfigError, so a misspelt
    setting is never replaced by its default without a word.
    """
    unknown = sorted(set(doc) - {f.name for f in fields(cls)})
    if unknown:
        raise ConfigError(f"unknown {cls.__name__} setting {', '.join(unknown)}")
    return cls(**{f.name: _COERCE[f.type](doc[f.name]) for f in fields(cls) if f.name in doc})


# keyed by the field annotations as written (they stay strings under
# `from __future__ import annotations`)
_COERCE = {
    "float": float,
    "int": int,
    "str": str,
    "complex": _complex,
    "tuple": lambda v: tuple(tuple(int(x) for x in pair) for pair in v),  # pairs
    "tuple | None": lambda v: tuple(float(x) for x in v) if v else None,  # separations
    "BeamProfile": lambda v: _build(BeamProfile, v),
    "MCSettings": lambda v: _build(MCSettings, v),
}


def config_from_dict(doc: dict) -> ScanConfig:
    """Inverse of config_to_dict; absent entries take the dataclass defaults."""
    try:
        return _build(ScanConfig, doc)
    except (TypeError, ValueError, IndexError) as exc:
        raise ConfigError(f"invalid configuration: {exc}") from exc


def check_writable(path: str) -> None:
    """Raise the ConfigError write_output would, before any work is spent.

    Only the directory is checked, so no file is created.
    """
    parent = os.path.dirname(path) or "."
    if os.path.isdir(path) or not os.path.isdir(parent) or not os.access(parent, os.W_OK):
        raise ConfigError(f"cannot write {path}: no writable directory {parent}")


def write_output(path: str, payload: str) -> None:
    """Write one output file; a path that cannot be written is a ConfigError."""
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(payload)
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc}") from exc


def _row_doc(r: ScanRow) -> dict:
    """One scan row keyed by its output column, in column order."""
    return {
        "separation": r.separation,
        "N": r.pair[0],
        "M": r.pair[1],
        "g2_tilde": r.g2_tilde,
        "log2_g2_tilde": r.log2_g2_tilde,
        "classical_g2": r.classical_g2,
        "tail_mass": r.tail_mass,
        "flags": list(r.flags),
    }


def _csv_field(value) -> str:
    return ";".join(value) if isinstance(value, list) else _fmt_float(value)


def emit(rows, fmt: str, path: str, cfg: ScanConfig) -> None:
    """Write rows as CSV or JSON with full-precision floats.

    The argument order is kept for bench/tracing.py, which wraps
    qgs.cli.emit and sizes the file named by its third argument.
    """
    docs = [_row_doc(r) for r in rows]
    if fmt == "csv":
        lines = [",".join(docs[0])] + [",".join(map(_csv_field, d.values())) for d in docs]
        payload = "\n".join(lines) + "\n"
    else:
        doc = {"metadata": {"version": __version__, "config": config_to_dict(cfg)}, "rows": docs}
        payload = json.dumps(doc, indent=2) + "\n"
    write_output(path, payload)


def validation_separations(cfg: ScanConfig):
    if cfg.validate_separations is not None:
        return list(cfg.validate_separations)
    return [cfg.scan_min, 0.5 * (cfg.scan_min + cfg.scan_max), cfg.scan_max]


def validate(cfg: ScanConfig) -> dict:
    """Analytic-versus-Monte-Carlo comparison at the configured separations.

    Separation i is sampled with seed mc.seed + i, and compare gates each
    one; the returned report passes when every separation does.
    """
    n_samples, seed = cfg.mc.n_samples, cfg.mc.seed
    seps = validation_separations(cfg)
    # every separation is reduced and certified before the first sample,
    # so a failure at a later one costs no sampling
    params = [
        two_point_params(cfg.profile, cfg.fixed_position, cfg.fixed_position + sep)
        for sep in seps
    ]
    pnds = [joint_pnd(p, cfg.n_max, tail_tol=cfg.tail_tol) for p in params]
    results = []
    for i, (sep, p, pnd) in enumerate(zip(seps, params, pnds)):
        emp = empirical_pnd(p, n_samples, seed + i, cfg.mc.n_workers)
        report = asdict(compare(pnd, emp))
        results.append(
            {"separation": sep, "n_samples": n_samples, "seed": seed + i, "report": report}
        )
    passed = all(r["report"]["passed"] for r in results)
    return {"version": __version__, "passed": passed, "results": results}
