"""Scan configuration round trip, worker-pool row order and the g2 fit."""

import json
from dataclasses import replace

import pytest

from qgs.fock_stats import classical_g2_closed
from qgs.scan import (
    MCSettings,
    config_from_dict,
    config_to_dict,
    default_config,
    default_profile,
    fit_g2_zero,
    run_scan,
)
from qgs.source_model import two_point_params


def test_config_round_trip():
    cfg = default_config(
        steps=7,
        pairs=((0, 0), (3, 1)),
        tail_tol=1e-8,
        mc=MCSettings(n_samples=1234, seed=5, n_workers=2),
        validate_separations=(0.5, 1.5),
        output_format="json",
        output_path="out.json",
    )
    cfg = replace(cfg, profile=replace(cfg.profile, mu_peak=0.3 - 0.7j))
    assert config_from_dict(config_to_dict(cfg)) == cfg
    assert config_from_dict(json.loads(json.dumps(config_to_dict(cfg)))) == cfg


def test_rows_independent_of_workers():
    cfg = default_config(steps=3)
    rows = run_scan(cfg, n_workers=1)
    assert len(rows) == 3 * len(cfg.pairs)
    assert run_scan(cfg, n_workers=2) == rows


@pytest.mark.parametrize("target", [1.0001, 1.3, 1.7, 1.9999])
def test_fit_hits_target(target):
    profile = fit_g2_zero(target, default_profile())
    g2 = classical_g2_closed(two_point_params(profile, 0.0, 0.0))
    assert abs(g2 - target) <= 1e-14 * target
