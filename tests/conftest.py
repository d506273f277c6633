"""Shared fixtures: the default scenario, a fast reduced variant, call counts,
and two scenes where feasibility is not monotone in power."""

import dataclasses

import pytest

import jrcsim.power_allocation as power_allocation
import jrcsim.radar_sensing as radar_sensing
from jrcsim.context import build_context
from jrcsim.scenario import ScenarioConfig, scenario_from_dict


@pytest.fixture(scope="session")
def default_scenario():
    return ScenarioConfig()


@pytest.fixture(scope="session")
def default_context(default_scenario):
    return build_context(default_scenario)


@pytest.fixture
def counts(monkeypatch):
    """Running counts of kernel decompositions (SVDs) and evaluate_point audits.
    A context keeps each split's kernel once made, so a count is only
    meaningful on a context built inside the counting test."""
    counts = {"svd": 0, "evaluate_point": 0}
    svd, audit = radar_sensing.np.linalg.svd, power_allocation.evaluate_point

    def counted_svd(*args, **kwargs):
        counts["svd"] += 1
        return svd(*args, **kwargs)

    def counted_audit(*args, **kwargs):
        counts["evaluate_point"] += 1
        return audit(*args, **kwargs)

    monkeypatch.setattr(radar_sensing.np.linalg, "svd", counted_svd)
    monkeypatch.setattr(power_allocation, "evaluate_point", counted_audit)
    return counts


# two scenes where feasibility is not monotone in power (ROADMAP's Baseline):
# under A, optimize reports no feasible power below the ceiling although
# 38.1 W at rho = 0.35 is feasible; under B, the tradeoff's feasible column
# turns off and on again, and rho = 0.95 is the optimum's split
SCENARIO_A = scenario_from_dict({
    "seed": 991796955670, "array": {"n_antennas": 10},
    "target": {"range_m": 6.39124960302922, "angle_rad": 2.5852464503727033},
    "clutter": {"count": 8, "sigma": 8.836357389755566},
    "targets": {"rate_bps_hz": 0.01, "pfa_max": 0.05, "pd_min": 0.33537391540368255},
})
SCENARIO_B = scenario_from_dict({
    "seed": 1039396857529, "array": {"n_antennas": 10},
    "target": {"range_m": 3.4429290129767476, "angle_rad": 2.7870745418920917},
    "clutter": {"count": 4, "sigma": 1.1624992644387133},
    "targets": {"rate_bps_hz": 0.01, "pfa_max": 0.05, "pd_min": 0.5203331916295098},
})


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
