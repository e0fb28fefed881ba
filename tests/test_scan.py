"""Scan configuration round trip and worker-pool row order."""

import json
from dataclasses import replace

from qgs.scan import MCSettings, config_from_dict, config_to_dict, default_config, run_scan


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
