"""Shared fixtures: the default scenario, a fast reduced variant, call counts,
two scenes where feasibility is not monotone in power, and drawn scenario
files that validate."""

import dataclasses

import numpy as np
import pytest
from hypothesis import Phase, settings
from hypothesis import strategies as st

import jrcsim.power_allocation as power_allocation
import jrcsim.radar_sensing as radar_sensing
from jrcsim.context import build_context
from jrcsim.scenario import CLUTTER_LEVELS, ScenarioConfig, scenario_from_dict


# any failing example kills a mutant, so tests/mutants.py runs its tests
# under this profile, which does not shrink the example it finds
settings.register_profile("mutants", phases=(Phase.explicit, Phase.reuse, Phase.generate))


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
        optimizer=dataclasses.replace(sc.optimizer, rho_points=11),
    )


@pytest.fixture(scope="session")
def fast_scenario(default_scenario):
    return reduced_scenario(default_scenario)


_UNIT_OPEN = st.floats(0.01, 0.99, allow_nan=False)


@st.composite
def relay_and_destination(draw) -> dict:
    """Relay and destination positions: apart, coincident, a few ulps apart
    or within a micrometre and microradian of each other."""
    destination = {"range_m": draw(st.floats(10.0, 50.0)), "angle_rad": draw(st.floats(0.05, 3.09))}
    mode = draw(st.sampled_from(["apart", "coincident", "ulps", "close"]))
    if mode == "apart":
        relay = {"range_m": draw(st.floats(0.5, 9.5)), "angle_rad": draw(st.floats(0.05, 3.09))}
    else:
        relay = {}
        for name, value in destination.items():
            if mode == "ulps":
                value += draw(st.sampled_from([-2, -1, 0, 1, 2])) * float(np.spacing(value))
            elif mode == "close":
                value += draw(st.sampled_from([-1.0, 1.0])) * draw(st.floats(1e-9, 1e-6))
            relay[name] = value
    return {
        **{f"destination_{name}": value for name, value in destination.items()},
        **{f"relay_{name}": value for name, value in relay.items()},
    }


@st.composite
def valid_configs(draw):
    """A raw scenario file that validates, but for a relay drawn onto the
    destination: small N, few scatterers, every law, relay and destination
    anywhere from apart to coincident, distinct list entries, degenerate sigma
    and splits, pd_min up to 0.999, thresholds out to their bounds, tiny trial
    counts and grids."""
    kind = draw(st.sampled_from(["free_space", "tr38901_umi_los"]))
    heights = st.floats(1.1, 30.0) if kind == "tr38901_umi_los" else st.floats(0.1, 30.0)
    min_dbm = draw(st.floats(-40.0, 20.0))
    levels = st.lists(st.sampled_from(sorted(CLUTTER_LEVELS)), min_size=1, max_size=3, unique=True)
    kappa_min = draw(st.one_of(st.sampled_from([-1e300, 0.0, 1e300]), st.floats(-1e300, 1e300)))
    above = [st.none()]  # a kappa_max of None sizes the grid from the operating points
    if kappa_min < 1e300:
        above += [st.just(1e300), st.floats(kappa_min, 1e300, exclude_min=True)]
    return {
        "seed": draw(st.integers(0, 2**32 - 1)),
        "array": {"n_antennas": draw(st.integers(1, 8))},
        "target": {"phase": draw(st.sampled_from(["zero", "uniform"]))},
        "clutter": {
            "count": draw(st.integers(0, 8)),
            "sigma": draw(st.sampled_from([0.0, 0.1, 0.8, 5.0])),
        },
        "path_loss": {"kind": kind, "h_bs_m": draw(heights), "h_ut_m": draw(heights)},
        "comm": {
            **draw(relay_and_destination()),
            "fading": draw(st.sampled_from(["los", "rayleigh"])),
            "relay_power_w": draw(st.sampled_from([0.0, 0.01, 1.0])),
        },
        "power": {
            "min_dbm": min_dbm,
            "max_dbm": min_dbm + draw(st.floats(1.0, 60.0)),
            "points": draw(st.integers(2, 4)),
            "rho": draw(st.one_of(st.sampled_from([0.0, 1.0]), _UNIT_OPEN)),
        },
        "detection": {
            "trials": draw(st.integers(1, 40)),
            "powers_dbm": draw(st.lists(st.floats(-10.0, 60.0), min_size=1, max_size=2, unique=True)),
            "clutter_levels": draw(levels),
            "kappa_points": draw(st.integers(1, 4)),
            "kappa_min": kappa_min,
            "kappa_max": draw(st.one_of(*above)),
        },
        "targets": {
            "rate_bps_hz": draw(st.floats(0.0, 10.0)),
            "pfa_max": 10.0 ** draw(st.floats(-9.0, -1.0)),
            "pd_min": draw(st.one_of(st.sampled_from([0.0, 0.999]), st.floats(0.0, 0.999))),
            "p_max_dbm": min_dbm + draw(st.floats(1.0, 70.0)),
        },
        "optimizer": {
            "rho_points": draw(st.integers(2, 4)),
            "fixed_rho": draw(st.one_of(st.none(), st.sampled_from([0.0, 1.0]), _UNIT_OPEN)),
        },
        "sweep": {
            "antennas": draw(st.lists(st.integers(1, 8), min_size=1, max_size=2, unique=True)),
            "carriers_ghz": draw(st.lists(st.sampled_from([2.8, 28.0]), min_size=1, max_size=2, unique=True)),
            "clutter_levels": draw(levels),
            "realizations": draw(st.integers(1, 2)),
        },
    }
