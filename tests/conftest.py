"""Shared fixtures: the default scenario and a fast reduced variant."""

import dataclasses

import pytest

from jrcsim.context import build_context
from jrcsim.radar_sensing import ClutterSteering
from jrcsim.scenario import ScenarioConfig


@pytest.fixture(scope="session")
def default_scenario():
    return ScenarioConfig()


@pytest.fixture(scope="session")
def default_context(default_scenario):
    return build_context(default_scenario)


def at_sigma(ctx, sigma):
    """The context's scene with its clutter amplitude scale set to sigma."""
    return dataclasses.replace(ctx, clutter=ClutterSteering(ctx.clutter.matrix, sigma))


def reduced_scenario(sc: ScenarioConfig) -> ScenarioConfig:
    """Same physics, desk-scale Monte Carlo and coarse grids."""
    return dataclasses.replace(
        sc,
        detection=dataclasses.replace(sc.detection, trials=5000, kappa_points=9),
        sweep=dataclasses.replace(sc.sweep, realizations=5),
        power=dataclasses.replace(sc.power, points=7),
        optimizer=dataclasses.replace(sc.optimizer, power_points=24, rho_points=11),
    )


@pytest.fixture(scope="session")
def fast_scenario(default_scenario):
    return reduced_scenario(default_scenario)
