"""Detector-separation scans, validation runs, and beam fitting.

A scan fixes detector 1 and walks detector 2 across the beam, computing
the joint photon-number distribution once per position and deriving the
wavepacket correlations for every requested (N, M) pair plus the
classical intensity correlation.  A scan computes every position in the
calling process; only validate forks, one mc_oracle.sampling_pool.

A scan row is a dict keyed by its output column and written as built;
csv_table and json_text hold the two file formats every command writes.
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
    QgsError,
    TruncationError,
)
from .fock_stats import DEFAULT_TAIL_TOL, HARD_CAP, classical_g2, joint_pnd, wavepacket_g2
from .mc_oracle import compare, empirical_pnd, sampling_pool
from .source_model import BeamProfile, two_point_params

DEFAULT_PAIRS = ((0, 0), (1, 1), (5, 5), (8, 8), (16, 16), (5, 1), (8, 1), (16, 1))
MAX_STEPS = 10_000  # a scan's rows are held in memory until emit writes them
# a time bound: one core draws about 5e6 samples/s at separation 0 of the
# default beam, so 10**9 samples take about 3.5 minutes per separation
MAX_SAMPLES = 10**9


@dataclass(frozen=True)
class MCSettings:
    """Monte Carlo settings used by validation runs."""

    n_samples: int = 1_000_000
    seed: int = 20240801
    n_workers: int = 1

    def __post_init__(self) -> None:
        if not 1 <= self.n_samples <= MAX_SAMPLES:
            raise ConfigError(f"n_samples must lie in [1, {MAX_SAMPLES}], got {self.n_samples}")
        if self.n_workers < 1:
            raise ConfigError(f"n_workers must be at least 1, got {self.n_workers}")


@dataclass(frozen=True)
class ScanConfig:
    """Full description of a scan or validation run.

    A scan has 2 to MAX_STEPS positions.  Every pair index lies in [0, HARD_CAP],
    the largest truncation joint_pnd searches; the scan's truncation floor is
    the largest index of its pairs and DEFAULT_PAIRS (16), and validate and
    pnd pass 0.  Validation samples scan_min, the midpoint and scan_max.
    """

    profile: BeamProfile
    fixed_position: float = 0.0
    scan_min: float = 0.0
    scan_max: float = 4.0
    steps: int = 81
    pairs: tuple = DEFAULT_PAIRS
    tail_tol: float = DEFAULT_TAIL_TOL
    mc: MCSettings = MCSettings()
    output_path: str = "scan.csv"

    def __post_init__(self) -> None:
        if not all(map(math.isfinite, (self.fixed_position, self.scan_min, self.scan_max))):
            raise ConfigError("positions must be finite")
        if not self.scan_min < self.scan_max:
            raise ConfigError("scan_min must be below scan_max")
        if not 2 <= self.steps <= MAX_STEPS:
            raise ConfigError(f"steps must lie in [2, {MAX_STEPS}], got {self.steps}")
        if not 0 < self.tail_tol < 1:  # every tail is below 1
            raise ConfigError(f"tail_tol must lie in (0, 1), got {self.tail_tol}")
        if not self.pairs:
            raise ConfigError("at least one (N, M) pair is required")
        for pair in self.pairs:
            n, m = pair
            if not (0 <= n <= HARD_CAP and 0 <= m <= HARD_CAP):
                raise ConfigError(f"pair indices must lie in [0, {HARD_CAP}], got {pair}")
        # validate seeds its three separations with seed, seed + 1 and seed + 2
        if not (0 <= self.mc.seed and self.mc.seed + 2 < 2**64):
            raise ConfigError(
                f"seed must lie in [0, 2**64) at every validation separation, got {self.mc.seed}"
            )


def _scan_position(cfg: ScanConfig, sep: float) -> list[dict]:
    """The rows of one detector-2 position, one column dict per pair.

    An uncertified position keeps its rows, with no numbers and the reason as a flag.
    """
    s1 = cfg.fixed_position
    params = two_point_params(cfg.profile, s1, s1 + sep)
    flags = ["degenerate-g"] if params.is_degenerate else []
    # at least 16: at a dim position, the smallest certified truncation is 2e-4 off classical_g2
    floor = max(map(max, DEFAULT_PAIRS + tuple(cfg.pairs)))
    pnd = cls = tail = None
    try:
        pnd = joint_pnd(params, floor, tail_tol=cfg.tail_tol)
        cls, tail = classical_g2(pnd), pnd.tail_mass
    except TruncationError:
        flags.append("truncation-unmet")
    except PrecisionLossError:
        flags.append("precision-loss")
    rows = []
    for n, m in cfg.pairs:
        row_flags = list(flags)
        g2 = log2g2 = None
        if cls is not None:
            try:
                g2 = wavepacket_g2(pnd, n, m)
            except InsufficientCountsError:
                row_flags.append("marginal-floor")
            else:
                if g2 > 0:
                    log2g2 = math.log2(g2)
                else:
                    row_flags.append("log-undefined")
        rows.append(dict(separation=sep, N=n, M=m, g2_tilde=g2, log2_g2_tilde=log2g2,
                         classical_g2=cls, tail_mass=tail, flags=row_flags))
    return rows


def run_scan(cfg: ScanConfig, n_workers: int) -> list[dict]:
    """Every row of a configuration as a column dict, ordered by (position, pair).

    The columns are separation, N, M, g2_tilde, log2_g2_tilde, classical_g2,
    tail_mass (None where not computed) and the list of flags.  Every position
    is computed in this process.  n_workers is not read but keeps its name and
    place for bench/tracing.py, which wraps qgs.cli.run_scan and reads it.
    """
    seps = np.linspace(cfg.scan_min, cfg.scan_max, cfg.steps).tolist()
    return [row for sep in seps for row in _scan_position(cfg, sep)]


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


def config_to_dict(cfg: ScanConfig) -> dict:
    """JSON-ready form of a configuration; mu_peak is written as [re, im]."""
    doc = asdict(cfg)
    mu = cfg.profile.mu_peak
    doc["profile"]["mu_peak"] = [mu.real, mu.imag]
    return doc


def _int(v) -> int:
    """An integer setting; a bool or a number with a fraction is refused, not rounded."""
    if isinstance(v, bool) or (isinstance(v, float) and not v.is_integer()):
        raise ValueError(f"expected an integer, got {v!r}")
    return int(v)


def _float(v) -> float:
    """A real setting; a bool is refused, not read as 0 or 1."""
    if isinstance(v, bool):
        raise ValueError(f"expected a number, got {v!r}")
    return float(v)


def _str(v) -> str:
    """A path setting; anything but a string is refused, not turned into its text."""
    if not isinstance(v, str):
        raise ValueError(f"expected a string, got {v!r}")
    return v


def _complex(v) -> complex:
    """mu_peak from [re], [re, im] or a number."""
    parts = v if isinstance(v, (list, tuple)) else [v]
    if len(parts) not in (1, 2):
        raise ValueError(f"expected [re], [re, im] or a number, got {v!r}")
    return complex(*map(_float, parts))


def _build(cls, doc):
    """cls from the entries of doc, each coerced to the type of its field.

    An entry that names no field of cls, or that its coercion refuses, is a
    ConfigError naming it: a misspelt setting never silently takes its default.
    """
    types = {f.name: f.type for f in fields(cls)}
    unknown = sorted(set(doc) - set(types))
    if unknown:
        raise ConfigError(f"unknown {cls.__name__} setting {', '.join(unknown)}")
    values = {}
    for name, value in doc.items():
        try:
            values[name] = _COERCE[types[name]](value)
        except QgsError:  # ConfigError and DomainError are ValueErrors: pass them on as raised
            raise
        except (TypeError, ValueError, OverflowError) as exc:
            raise ConfigError(f"invalid {name}: {exc}") from exc
    return cls(**values)


# the one coercion of every setting, from a file or an option, keyed by the
# field annotations as written (strings under `from __future__ import annotations`)
_COERCE = {
    "float": _float,
    "int": _int,
    "str": _str,
    "complex": _complex,
    "tuple": lambda v: tuple((_int(n), _int(m)) for n, m in v),  # pairs
    "BeamProfile": lambda v: _build(BeamProfile, v),
    "MCSettings": lambda v: _build(MCSettings, v),
}


def config_from_dict(doc: dict) -> ScanConfig:
    """Inverse of config_to_dict; absent entries take the dataclass defaults."""
    return _build(ScanConfig, doc)


def check_writable(path: str) -> None:
    """Raise the ConfigError write_output would, before any work is spent.

    Only the directory is checked, so no file is created.  An empty path,
    like a directory, names no file.
    """
    parent = os.path.dirname(path) or "."
    if os.path.isdir(path or ".") or not os.path.isdir(parent) or not os.access(parent, os.W_OK):
        raise ConfigError(f"cannot write {path!r}: not a file in a writable directory {parent}")


def write_output(path: str, payload: str) -> None:
    """Write one output file; a path that cannot be written is a ConfigError."""
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(payload)
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc}") from exc


def _csv_cell(value) -> str:
    if value is None:
        return ""
    return ";".join(value) if isinstance(value, list) else format(value, ".17g")


def csv_table(rows: list[dict]) -> str:
    """CSV of column dicts under their keys: .17g numbers, None empty, flags joined by ';'."""
    lines = [",".join(rows[0])] + [",".join(map(_csv_cell, r.values())) for r in rows]
    return "\n".join(lines) + "\n"


def _strict(obj):
    """obj with every non-finite float replaced by None, tuples as lists."""
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else None
    if isinstance(obj, dict):
        return {k: _strict(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_strict(v) for v in obj]
    return obj


def json_text(doc) -> str:
    """Strict JSON text of doc, indented by 2: NaN and infinities become null."""
    return json.dumps(_strict(doc), indent=2, allow_nan=False) + "\n"


def output_format(path: str) -> str:
    """The format of an output file: JSON for a path ending in .json, else CSV."""
    return "json" if path.endswith(".json") else "csv"


def emit(rows: list[dict], fmt: str, path: str, cfg: ScanConfig) -> None:
    """Write scan rows as CSV or JSON; JSON metadata omits mc, which no row depends on.

    The argument order is kept for bench/tracing.py, which wraps
    qgs.cli.emit and sizes the file named by its third argument.
    """
    if fmt == "csv":
        payload = csv_table(rows)
    else:
        config = {k: v for k, v in config_to_dict(cfg).items() if k != "mc"}
        metadata = {"version": __version__, "config": config}
        payload = json_text({"metadata": metadata, "rows": rows})
    write_output(path, payload)


def validate(cfg: ScanConfig) -> dict:
    """Analytic-versus-Monte-Carlo comparison at scan_min, the midpoint and scan_max.

    Separation i is sampled with seed mc.seed + i, one share of its blocks per
    worker of one sampling_pool; compare gates each, and the report passes if all do.
    """
    n_samples, seed = cfg.mc.n_samples, cfg.mc.seed
    seps = [cfg.scan_min, 0.5 * (cfg.scan_min + cfg.scan_max), cfg.scan_max]
    # every separation is reduced and certified before the first sample,
    # so a failure at a later one costs no sampling
    s1 = cfg.fixed_position
    params = [two_point_params(cfg.profile, s1, s1 + sep) for sep in seps]
    pnds = [joint_pnd(p, 0, tail_tol=cfg.tail_tol) for p in params]
    results = []
    with sampling_pool(cfg.mc.n_workers, n_samples) as pool:
        for i, (sep, p, pnd) in enumerate(zip(seps, params, pnds)):
            emp = empirical_pnd(p, n_samples, seed + i, pool)
            report = asdict(compare(pnd, emp))
            results.append(
                {"separation": sep, "n_samples": n_samples, "seed": seed + i, "report": report}
            )
    passed = all(r["report"]["passed"] for r in results)
    return {"version": __version__, "passed": passed, "results": results}
