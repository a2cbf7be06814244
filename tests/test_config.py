"""Run configurations: the JSON round trip and the canonical recipes."""

import json
import math

import pytest

from fsoqkd.config import RunConfig, WavefrontSettings
from fsoqkd.recipes import build_recipe, recipe_names


@pytest.mark.parametrize("config", [
    RunConfig(),
    RunConfig(mu=0.3, beta=0.95, noise_override=1e-8, eve_offset=0.05,
              optimize_mu=True, objective="skr_cv", sweep_spacing="linear",
              wavefront=WavefrontSettings(0.2, 11, (1_000.0, 20_000.0))),
], ids=["defaults", "every_kind_of_field"])
def test_json_round_trip(config):
    text = config.to_json()
    assert RunConfig.from_json(text) == config
    assert json.loads(text)["version"] == 1


def test_infinite_mu_is_the_string_inf():
    text = RunConfig(mu=math.inf).to_json()
    assert json.loads(text)["mu"] == "inf"
    assert math.isinf(RunConfig.from_json(text).mu)


def test_rate_inputs_carry_the_protocol_settings():
    config = RunConfig(mu=2.0, beta=0.9, f_L=1.2, pulse_rate=1e8)
    rates = config.rate_inputs()
    assert (rates.mu, rates.beta, rates.f_L, rates.pulse_rate) == (2.0, 0.9, 1.2, 1e8)
    assert rates.misalignment == 0.0


@pytest.mark.parametrize("name", recipe_names())
def test_every_recipe_builds_validates_and_round_trips(name):
    recipe = build_recipe(name)
    assert recipe.items
    for item in recipe.items:
        assert item.config.validate() is item.config
        assert RunConfig.from_json(item.config.to_json()) == item.config
