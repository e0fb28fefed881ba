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
from dataclasses import dataclass, replace

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
from .mc_oracle import SamplerConfig, compare, empirical_pnd
from .source_model import BeamProfile, two_point_params

DEFAULT_PAIRS = ((0, 0), (1, 1), (5, 5), (8, 8), (16, 16), (5, 1), (8, 1), (16, 1))

# Scans keep high-photon-number rows defined at large separations, where
# the exact marginals are far below any fixed absolute floor but the
# positive-sum evaluation is still relatively accurate.
SCAN_MARGINAL_FLOOR = 1e-300


@dataclass(frozen=True)
class MCSettings:
    """Monte Carlo settings used by validation runs."""

    n_samples: int = 1_000_000
    seed: int = 20240801
    n_workers: int = 1


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
        if not self.scan_min < self.scan_max:
            raise ConfigError("scan_min must be below scan_max")
        if self.steps < 2:
            raise ConfigError("steps must be at least 2")
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
            g2 = wavepacket_g2(pnd, n, m, marginal_floor=SCAN_MARGINAL_FLOOR)
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


def default_workers() -> int:
    env = os.environ.get("QGS_WORKERS")
    if env is not None:
        try:
            n = int(env)
        except ValueError as exc:
            raise ConfigError(f"QGS_WORKERS must be an integer, got {env!r}") from exc
        if n < 1:
            raise ConfigError("QGS_WORKERS must be at least 1")
        return n
    return 1


def run_scan(cfg: ScanConfig, n_workers: int | None = None):
    """Compute every ScanRow of a configuration, ordered by (position, pair)."""
    if n_workers is None:
        n_workers = default_workers()
    seps = separations(cfg)
    tasks = [(cfg, float(s)) for s in seps]
    if n_workers > 1 and len(tasks) > 1:
        # imported here: one-worker runs never load multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=n_workers) as pool:
            per_position = list(pool.map(_scan_task, tasks, chunksize=1))
    else:
        per_position = [_scan_task(t) for t in tasks]
    rows = [row for group in per_position for row in group]
    return rows


def fit_g2_zero(target: float, profile: BeamProfile) -> BeamProfile:
    """Rescale n_peak so the zero-separation intensity correlation hits target.

    The correlation at zero separation depends only on the thermal
    fraction f = n/(n + |mu|^2) through 1 + 2f - f^2, whose root in
    [0, 1] is f = 1 - sqrt(2 - target); n_peak is set from it while
    mu_peak and the widths are kept.
    """
    if not (1.0 < target < 2.0):
        raise DomainError(f"target must lie strictly inside (1, 2), got {target}")
    mu2 = abs(profile.mu_peak) ** 2
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


CSV_HEADER = "separation,N,M,g2_tilde,log2_g2_tilde,classical_g2,tail_mass,flags"


def rows_to_csv(rows) -> str:
    lines = [CSV_HEADER]
    for r in rows:
        lines.append(
            ",".join(
                [
                    _fmt_float(r.separation),
                    str(r.pair[0]),
                    str(r.pair[1]),
                    _fmt_float(r.g2_tilde),
                    _fmt_float(r.log2_g2_tilde),
                    _fmt_float(r.classical_g2),
                    _fmt_float(r.tail_mass),
                    ";".join(r.flags),
                ]
            )
        )
    return "\n".join(lines) + "\n"


def config_to_dict(cfg: ScanConfig) -> dict:
    return {
        "profile": {
            "n_peak": cfg.profile.n_peak,
            "mu_peak": [cfg.profile.mu_peak.real, cfg.profile.mu_peak.imag],
            "sigma0": cfg.profile.sigma0,
            "sigma1": cfg.profile.sigma1,
        },
        "fixed_position": cfg.fixed_position,
        "scan_min": cfg.scan_min,
        "scan_max": cfg.scan_max,
        "steps": cfg.steps,
        "pairs": [list(p) for p in cfg.pairs],
        "n_max": cfg.n_max,
        "tail_tol": cfg.tail_tol,
        "mc": {
            "n_samples": cfg.mc.n_samples,
            "seed": cfg.mc.seed,
            "n_workers": cfg.mc.n_workers,
        },
        "validate_separations": (
            list(cfg.validate_separations) if cfg.validate_separations else None
        ),
        "output_format": cfg.output_format,
        "output_path": cfg.output_path,
    }


def config_from_dict(doc: dict) -> ScanConfig:
    try:
        prof = doc["profile"]
        mu = prof["mu_peak"]
        mu_peak = complex(mu[0], mu[1]) if isinstance(mu, (list, tuple)) else complex(mu)
        profile = BeamProfile(
            n_peak=float(prof["n_peak"]),
            mu_peak=mu_peak,
            sigma0=float(prof["sigma0"]),
            sigma1=float(prof["sigma1"]),
        )
        mc_doc = doc.get("mc", {})
        mc = MCSettings(
            n_samples=int(mc_doc.get("n_samples", MCSettings.n_samples)),
            seed=int(mc_doc.get("seed", MCSettings.seed)),
            n_workers=int(mc_doc.get("n_workers", MCSettings.n_workers)),
        )
        vsep = doc.get("validate_separations")
        return ScanConfig(
            profile=profile,
            fixed_position=float(doc.get("fixed_position", 0.0)),
            scan_min=float(doc.get("scan_min", 0.0)),
            scan_max=float(doc.get("scan_max", 4.0)),
            steps=int(doc.get("steps", 81)),
            pairs=tuple(tuple(int(v) for v in p) for p in doc.get("pairs", DEFAULT_PAIRS)),
            n_max=int(doc.get("n_max", 16)),
            tail_tol=float(doc.get("tail_tol", 1e-6)),
            mc=mc,
            validate_separations=tuple(float(s) for s in vsep) if vsep else None,
            output_format=str(doc.get("output_format", "csv")),
            output_path=str(doc.get("output_path", "scan.csv")),
        )
    except (KeyError, TypeError, ValueError, DomainError) as exc:
        raise ConfigError(f"invalid configuration: {exc}") from exc


def emit(rows, fmt: str, path: str, cfg: ScanConfig | None = None) -> None:
    """Write rows as CSV or JSON with full-precision floats."""
    if not rows:
        raise ConfigError("no rows to emit")
    if fmt == "csv":
        payload = rows_to_csv(rows)
    elif fmt == "json":
        doc = {
            "metadata": {
                "version": __version__,
                "config": config_to_dict(cfg) if cfg is not None else None,
            },
            "rows": [
                {
                    "separation": r.separation,
                    "N": r.pair[0],
                    "M": r.pair[1],
                    "g2_tilde": r.g2_tilde,
                    "log2_g2_tilde": r.log2_g2_tilde,
                    "classical_g2": r.classical_g2,
                    "tail_mass": r.tail_mass,
                    "flags": list(r.flags),
                }
                for r in rows
            ],
        }
        payload = json.dumps(doc, indent=2) + "\n"
    else:
        raise ConfigError(f"unknown output format {fmt!r}")
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(payload)
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc}") from exc


def validation_separations(cfg: ScanConfig):
    if cfg.validate_separations is not None:
        return list(cfg.validate_separations)
    return [cfg.scan_min, 0.5 * (cfg.scan_min + cfg.scan_max), cfg.scan_max]


def validate(
    cfg: ScanConfig,
    n_samples: int | None = None,
    seed: int | None = None,
    perturb: tuple | None = None,
    tv_tolerance: float | None = None,
):
    """Analytic-versus-Monte-Carlo comparison at the configured separations.

    Returns (passed, report_dict).  perturb = (N, M, delta) is a test
    hook that moves delta counts into cell (N, M) before comparing.
    The default total-variation gate is 3e-3 at 1e7 samples, scaled as
    1/sqrt(n_samples) since the statistical TV noise floor scales that way.
    """
    n_samples = cfg.mc.n_samples if n_samples is None else n_samples
    seed = cfg.mc.seed if seed is None else seed
    if tv_tolerance is None:
        tv_tolerance = 3e-3 * math.sqrt(1e7 / n_samples)
    results = []
    all_passed = True
    for i, sep in enumerate(validation_separations(cfg)):
        params = two_point_params(cfg.profile, cfg.fixed_position, cfg.fixed_position + sep)
        pnd = joint_pnd(params, cfg.n_max, tail_tol=cfg.tail_tol)
        scfg = SamplerConfig(
            params=params, n_samples=n_samples, seed=seed + i, n_workers=cfg.mc.n_workers
        )
        emp = empirical_pnd(scfg)
        if perturb is not None:
            pn, pm, delta = perturb
            counts = emp.counts.copy()
            side = (max(counts.shape[0], pn + 1), max(counts.shape[1], pm + 1))
            grown = np.zeros(side, dtype=counts.dtype)
            grown[: counts.shape[0], : counts.shape[1]] = counts
            src = np.unravel_index(np.argmax(grown), grown.shape)
            moved = int(delta)
            if moved >= 0:
                moved = min(moved, int(grown[src]))
                grown[src] -= moved
                grown[pn, pm] += moved
            else:
                take = min(-moved, int(grown[pn, pm]))
                grown[pn, pm] -= take
                grown[src] += take
            emp = replace(emp, counts=grown)
        report = compare(pnd, emp, tv_tolerance=tv_tolerance)
        all_passed &= report.passed
        results.append(
            {
                "separation": sep,
                "n_samples": n_samples,
                "seed": seed + i,
                "report": report.to_dict(),
            }
        )
    doc = {
        "version": __version__,
        "passed": all_passed,
        "results": results,
    }
    return all_passed, doc
