"""Scan configuration round trip and bounds, strict JSON and the g2 fit."""

import json
import math
from dataclasses import replace

import numpy as np
import pytest

from qgs.errors import ConfigError
from qgs.fock_stats import HARD_CAP, classical_g2_closed
from qgs.scan import (
    MAX_SAMPLES,
    MAX_STEPS,
    MCSettings,
    config_from_dict,
    config_to_dict,
    default_config,
    default_profile,
    fit_g2_zero,
    json_text,
)
from qgs.source_model import two_point_params


def test_config_round_trip():
    cfg = default_config(
        steps=7,
        pairs=((0, 0), (3, 1)),
        tail_tol=1e-8,
        mc=MCSettings(n_samples=1234, seed=5, n_workers=2),
        output_path="out.json",
    )
    cfg = replace(cfg, profile=replace(cfg.profile, mu_peak=0.3 - 0.7j))
    assert config_from_dict(config_to_dict(cfg)) == cfg
    assert config_from_dict(json.loads(json.dumps(config_to_dict(cfg)))) == cfg


def test_seed_range_covers_every_validation_separation():
    # separation i is sampled with seed + i, and every seed must fit in 64 bits
    assert default_config(mc=MCSettings(seed=2**64 - 3)).mc.seed == 2**64 - 3
    with pytest.raises(ConfigError):
        default_config(mc=MCSettings(seed=2**64 - 2))


def test_pair_indices_lie_within_hard_cap():
    # checked on the configuration only: no engine call at a huge index
    assert default_config(pairs=((HARD_CAP, 0),)).pairs == ((HARD_CAP, 0),)
    for pair in [(HARD_CAP + 1, 1), (1, HARD_CAP + 1), (-1, 0), (10**18, 0)]:
        with pytest.raises(ConfigError):
            default_config(pairs=(pair,))


def test_steps_lie_between_two_and_max_steps():
    # checked on the configuration only: nothing is allocated for a huge count
    assert default_config(steps=MAX_STEPS).steps == MAX_STEPS
    for steps in (1, MAX_STEPS + 1, 10**20):
        with pytest.raises(ConfigError, match=r"steps must lie in \[2, 10000\]"):
            default_config(steps=steps)


def test_samples_lie_between_one_and_max_samples():
    # checked on the settings only: no block plan is built for a huge count
    assert MCSettings(n_samples=MAX_SAMPLES).n_samples == MAX_SAMPLES
    for n_samples in (0, MAX_SAMPLES + 1, 10**20):
        with pytest.raises(ConfigError, match=r"n_samples must lie in \[1, 1000000000\]"):
            MCSettings(n_samples=n_samples)


def test_json_text_writes_non_finite_numbers_as_null():
    def reject(name):
        raise ValueError(f"non-standard JSON token {name}")

    doc = {
        "a": math.nan,
        "b": (1.5, math.inf, [-math.inf, {"c": np.float64("-inf"), "d": (0.25,)}]),
        "e": [None, "x", 3, True],
    }
    text = json_text(doc)
    assert text.endswith("}\n")
    assert json.loads(text, parse_constant=reject) == {
        "a": None,
        "b": [1.5, None, [None, {"c": None, "d": [0.25]}]],
        "e": [None, "x", 3, True],
    }


@pytest.mark.parametrize("target", [1.0001, 1.3, 1.7, 1.9999])
def test_fit_hits_target(target):
    profile = fit_g2_zero(target, default_profile())
    g2 = classical_g2_closed(two_point_params(profile, 0.0, 0.0))
    assert abs(g2 - target) <= 1e-14 * target
