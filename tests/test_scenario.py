"""Scenario defaults, JSON round trips, validation messages, and fingerprints."""

import copy
import dataclasses
import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jrcsim.scenario import (
    CLUTTER_LEVELS,
    ConfigError,
    PathLossSection,
    ScenarioConfig,
    config_hash,
    dbm_to_watts,
    load_scenario,
    scenario_from_dict,
    watts_to_dbm,
)
from conftest import valid_configs
from oracles import reference_from_dict, reference_validation, scenario_as_dict, scenario_hash


def canonical_json(config: ScenarioConfig) -> str:
    """Key-sorted, whitespace-free JSON; the round-trip identity anchor."""
    return json.dumps(config.to_dict(), sort_keys=True, separators=(",", ":"))


class TestUnitConversions:
    def test_anchor_values(self):
        assert dbm_to_watts(30.0) == pytest.approx(1.0, rel=1e-15)
        assert dbm_to_watts(0.0) == pytest.approx(1e-3, rel=1e-15)
        assert dbm_to_watts(46.0) == pytest.approx(39.810717055349734, rel=1e-12)
        assert watts_to_dbm(1.0) == pytest.approx(30.0, abs=1e-12)
        assert watts_to_dbm(0.001) == pytest.approx(0.0, abs=1e-12)

    def test_round_trips(self):
        for p_dbm in np.linspace(-40.0, 50.0, 19):
            assert watts_to_dbm(dbm_to_watts(float(p_dbm))) == pytest.approx(p_dbm, abs=1e-12)
        for p_w in np.geomspace(1e-7, 100.0, 10):
            assert dbm_to_watts(watts_to_dbm(float(p_w))) == pytest.approx(p_w, rel=1e-12)

    def test_rejects_non_positive_watts(self):
        for bad in (0.0, -1.0):
            with pytest.raises(ValueError):
                watts_to_dbm(bad)


class TestDefaults:
    def test_geometry_and_scene(self):
        sc = ScenarioConfig()
        assert sc.seed == 20260817
        assert sc.array.n_antennas == 5
        assert sc.array.carrier_ghz == 28.0
        assert sc.array.spacing_m is None
        assert sc.target.range_m == 5.0
        assert sc.target.angle_rad == pytest.approx(np.pi / 3.0)
        assert sc.target.rcs_scale == 3.0e7
        assert sc.target.phase == "uniform"
        assert sc.clutter.count == 3
        assert sc.clutter.sigma == 0.8
        assert (sc.clutter.min_range_m, sc.clutter.max_range_m) == (0.5, 5.0)
        assert sc.clutter.angle_exclusion_rad == 0.05

    def test_link_and_power(self):
        sc = ScenarioConfig()
        assert sc.path_loss.kind == "free_space"
        assert sc.comm.destination_range_m == 20.0
        assert sc.comm.destination_angle_rad == 1.7
        assert sc.comm.relay_range_m == 10.0
        assert sc.comm.relay_angle_rad == 1.4
        assert sc.comm.noise_var_dest_w == 4.0e-13
        assert sc.comm.noise_var_relay_w == 4.0e-13
        assert sc.comm.relay_power_w == 0.01
        assert sc.comm.fading == "los"
        assert dataclasses.asdict(sc.power) == {"min_dbm": -10.0, "max_dbm": 40.0, "points": 21, "rho": 0.5}

    def test_detection_targets_and_grids(self):
        sc = ScenarioConfig()
        assert sc.detection.trials == 100_000
        assert sc.detection.powers_dbm == (30.0, 36.0)
        assert sc.detection.clutter_levels == ("light", "intense")
        assert sc.detection.kappa_min == 0.0
        assert sc.detection.kappa_max is None
        assert sc.detection.kappa_points == 21
        assert sc.targets.rate_bps_hz == 5.0
        assert sc.targets.pfa_max == 1.0e-6
        assert sc.targets.pd_min == 0.6
        assert sc.targets.p_max_dbm == 46.0
        assert sc.optimizer.rho_points == 21
        assert sc.optimizer.tol_factor == 1.0e-3
        assert sc.optimizer.fixed_rho is None
        assert sc.sweep.antennas == (5, 10)
        assert sc.sweep.carriers_ghz == (2.8, 28.0)
        assert sc.sweep.clutter_levels == ("none", "light", "intense")
        assert sc.sweep.realizations == 100
        assert sc.output.dir == "runs"
        assert sc.output.format == "csv"

    def test_named_clutter_levels(self):
        assert CLUTTER_LEVELS == {"none": 0.0, "light": 0.1, "intense": 0.8}

    def test_power_grid_spans_the_window(self):
        sc = ScenarioConfig()
        grid = sc.power_grid_dbm()
        assert grid == pytest.approx(np.linspace(-10.0, 40.0, 21))


class TestRoundTrip:
    def test_defaults_survive_dict_round_trip(self):
        sc = ScenarioConfig()
        again = scenario_from_dict(sc.to_dict())
        assert again == sc
        assert canonical_json(again) == canonical_json(sc)

    def test_empty_object_means_all_defaults(self):
        assert scenario_from_dict({}) == ScenarioConfig()

    def test_modified_config_survives_round_trip(self):
        sc = ScenarioConfig()
        sc = dataclasses.replace(
            sc,
            seed=7,
            array=dataclasses.replace(sc.array, n_antennas=10, carrier_ghz=2.8, spacing_m=0.05),
            detection=dataclasses.replace(sc.detection, kappa_max=50.0, powers_dbm=(20.0,)),
            optimizer=dataclasses.replace(sc.optimizer, fixed_rho=0.25),
            output=dataclasses.replace(sc.output, dir="elsewhere", format="json"),
        )
        again = scenario_from_dict(json.loads(canonical_json(sc)))
        assert again == sc

    def test_partial_object_fills_remaining_defaults(self):
        sc = scenario_from_dict({"seed": 3, "array": {"n_antennas": 7}})
        assert sc.seed == 3
        assert sc.array.n_antennas == 7
        assert sc.array.carrier_ghz == 28.0
        assert sc.clutter == ScenarioConfig().clutter


class TestValidation:
    def test_unknown_fields_are_named_with_their_path(self):
        with pytest.raises(ConfigError, match=r"config\.arrray: unknown field"):
            scenario_from_dict({"arrray": {}})
        with pytest.raises(ConfigError, match=r"array\.n_antenas: unknown field"):
            scenario_from_dict({"array": {"n_antenas": 5}})
        with pytest.raises(ConfigError, match=r"output\.path: unknown field"):
            scenario_from_dict({"output": {"path": "x"}})
        # keys that were once part of the schema are unknown like any other
        for section, key in (("power", "nominal_dbm"), ("optimizer", "kappa_points"), ("detection", "eta")):
            with pytest.raises(ConfigError, match=rf"^{section}\.{key}: unknown field$"):
                scenario_from_dict({section: {key: 1.0}})

    def test_sections_must_be_objects(self):
        with pytest.raises(ConfigError, match="array: expected an object"):
            scenario_from_dict({"array": 5})

    def test_type_errors_name_the_field(self):
        with pytest.raises(ConfigError, match="config.seed"):
            scenario_from_dict({"seed": "twelve"})
        with pytest.raises(ConfigError, match="config.seed"):
            scenario_from_dict({"seed": True})
        with pytest.raises(ConfigError, match="array.carrier_ghz"):
            scenario_from_dict({"array": {"carrier_ghz": "fast"}})
        with pytest.raises(ConfigError, match="power.rho"):
            scenario_from_dict({"power": {"rho": True}})

    def test_range_errors(self):
        # scalar messages are held whole: name, bound and offending value
        cases = [
            ({"seed": -1}, "config.seed: must be >= 0, got -1"),
            # the seed is one 64-bit Philox key word; a larger one would alias a smaller one
            ({"seed": 2**64}, "config.seed: must be <= 18446744073709551615, got 18446744073709551616"),
            ({"array": {"n_antennas": 0}}, "array.n_antennas: must be >= 1, got 0"),
            ({"array": {"carrier_ghz": -1.0}}, "array.carrier_ghz: must be >= 1e-06, got -1.0"),
            ({"array": {"carrier_ghz": 0.0}}, "array.carrier_ghz: must be >= 1e-06, got 0.0"),
            ({"array": {"spacing_m": 0.0}}, "array.spacing_m: must be >= 1e-06, got 0.0"),
            ({"array": {"carrier_ghz": 1e7}}, "array.carrier_ghz: must be <= 1000000.0, got 10000000.0"),
            ({"array": {"spacing_m": 1e10}}, "array.spacing_m: must be <= 1000000000.0, got 10000000000.0"),
            ({"target": {"range_m": 1e-300}}, "target.range_m: must be >= 1e-06, got 1e-300"),
            ({"target": {"range_m": 0.0}}, "target.range_m: must be >= 1e-06, got 0.0"),
            ({"comm": {"destination_range_m": -1.0}}, "comm.destination_range_m: must be >= 1e-06, got -1.0"),
            ({"clutter": {"max_range_m": 1e10}}, "clutter.max_range_m: must be <= 1000000000.0, got 10000000000.0"),
            ({"path_loss": {"h_bs_m": 1e10}}, "path_loss.h_bs_m: must be <= 1000000000.0, got 10000000000.0"),
            ({"comm": {"relay_range_m": 1e300}}, "comm.relay_range_m: must be <= 1000000000.0, got 1e+300"),
            ({"comm": {"relay_power_w": 1e300}}, "comm.relay_power_w: must be <= 1e+40, got 1e+300"),
            ({"comm": {"relay_power_w": -1.0}}, "comm.relay_power_w: must be >= 0.0, got -1.0"),
            ({"targets": {"rate_bps_hz": 1001.0}}, "targets.rate_bps_hz: must be <= 1000.0, got 1001.0"),
            (
                {"target": {"angle_rad": 3.5}},
                "target.angle_rad: must be < 3.141592653589793, got 3.5",
            ),
            (
                {"target": {"angle_rad": float(np.pi)}},
                "target.angle_rad: must be < 3.141592653589793, got 3.141592653589793",
            ),
            # endfire bearings degenerate the lateral geometry at both ends of (0, pi)
            ({"comm": {"destination_angle_rad": 0.0}}, "comm.destination_angle_rad: must be > 0.0, got 0.0"),
            ({"target": {"rcs_scale": 0.0}}, "target.rcs_scale: must be >= 1e-30, got 0.0"),
            ({"target": {"rcs_scale": 1e200}}, "target.rcs_scale: must be <= 1e+40, got 1e+200"),
            ({"clutter": {"sigma": 1e200}}, "clutter.sigma: must be <= 1e+40, got 1e+200"),
            ({"clutter": {"sigma": -0.1}}, "clutter.sigma: must be >= 0.0, got -0.1"),
            ({"clutter": {"count": -1}}, "clutter.count: must be >= 0, got -1"),
            ({"clutter": {"angle_exclusion_rad": -0.1}}, "clutter.angle_exclusion_rad: must be >= 0.0, got -0.1"),
            ({"comm": {"noise_var_dest_w": 0.0}}, "comm.noise_var_dest_w: must be >= 1e-30, got 0.0"),
            ({"comm": {"noise_var_relay_w": 1e41}}, "comm.noise_var_relay_w: must be <= 1e+40, got 1e+41"),
            ({"power": {"rho": 1.5}}, "power.rho: must be <= 1.0, got 1.5"),
            ({"power": {"points": 1}}, "power.points: must be >= 2, got 1"),
            ({"detection": {"trials": 0}}, "detection.trials: must be >= 1, got 0"),
            # thresholds within +-1e300, so the grid's span stays finite
            ({"detection": {"kappa_min": -1e301}}, "detection.kappa_min: must be >= -1e+300, got -1e+301"),
            ({"detection": {"kappa_max": 1e301}}, "detection.kappa_max: must be <= 1e+300, got 1e+301"),
            ({"targets": {"pfa_max": 0.0}}, "targets.pfa_max: must be > 0.0, got 0.0"),
            ({"targets": {"pfa_max": 1.5}}, "targets.pfa_max: must be < 1.0, got 1.5"),
            ({"targets": {"pfa_max": 1.0}}, "targets.pfa_max: must be < 1.0, got 1.0"),
            ({"targets": {"pd_min": -0.1}}, "targets.pd_min: must be >= 0.0, got -0.1"),
            ({"targets": {"pd_min": 1.1}}, "targets.pd_min: must be <= 1.0, got 1.1"),
            ({"targets": {"rate_bps_hz": -1.0}}, "targets.rate_bps_hz: must be >= 0.0, got -1.0"),
            ({"optimizer": {"rho_points": 1}}, "optimizer.rho_points: must be >= 2, got 1"),
            ({"optimizer": {"tol_factor": 0.0}}, "optimizer.tol_factor: must be > 0.0, got 0.0"),
            ({"optimizer": {"fixed_rho": 1.5}}, "optimizer.fixed_rho: must be <= 1.0, got 1.5"),
            ({"sweep": {"realizations": 0}}, "sweep.realizations: must be >= 1, got 0"),
            # a sweep stream key holds the realization index in 24 bits
            ({"sweep": {"realizations": (1 << 24) + 1}}, "sweep.realizations: must be <= 16777216, got 16777217"),
            # powers outside [-300, 300] dBm, non-finite entries, overflowing literals
            ({"power": {"max_dbm": 1e300}}, "power.max_dbm: must be <= 300.0"),
            ({"power": {"min_dbm": -1e300}}, "power.min_dbm: must be >= -300.0"),
            ({"power": {"min_dbm": float("inf")}}, "power.min_dbm: must be finite"),
            ({"power": {"max_dbm": 10**400}}, "power.max_dbm: must be finite"),
            ({"targets": {"p_max_dbm": 1e300}}, "targets.p_max_dbm: must be <= 300.0"),
            ({"detection": {"powers_dbm": [float("nan")]}}, "detection.powers_dbm[0]: must be finite"),
            ({"detection": {"powers_dbm": [30.0, float("inf")]}}, "detection.powers_dbm[1]: must be finite"),
            ({"detection": {"powers_dbm": [301.0]}}, "detection.powers_dbm[0]: must be <= 300.0"),
            ({"sweep": {"carriers_ghz": [float("nan")]}}, "sweep.carriers_ghz[0]: must be finite"),
            ({"sweep": {"carriers_ghz": [float("inf")]}}, "sweep.carriers_ghz[0]: must be finite"),
            # cross-field rules: placements need bearings outside the exclusion
            # window, and the TR 38.901 law needs heights above 1 m
            (
                {"clutter": {"angle_exclusion_rad": 3.0}, "target": {"angle_rad": 1.5}},
                "clutter.angle_exclusion_rad: must leave part of (0, pi) outside the window "
                "about target.angle_rad=1.5, got 3.0",
            ),
            # the relay-to-destination hop needs a positive length, also where
            # the law of cosines rounds below zero
            (
                {"comm": {"relay_range_m": 20.0, "relay_angle_rad": 1.7}},
                "comm.relay_range_m: must place the relay off the destination at destination_range_m=20.0, "
                "destination_angle_rad=1.7, got 20.0 at relay_angle_rad=1.7",
            ),
            (
                {"comm": {
                    "relay_range_m": 8.631297041553337, "relay_angle_rad": 0.7172098864869696,
                    "destination_range_m": 8.631297041553339, "destination_angle_rad": 0.7172098864869697,
                }},
                "comm.relay_range_m: must place the relay off the destination",
            ),
            (
                {"path_loss": {"kind": "tr38901_umi_los", "h_bs_m": 0.5}},
                "path_loss.h_bs_m: must exceed 1.0 for tr38901_umi_los, got 0.5",
            ),
            (
                {"path_loss": {"kind": "tr38901_umi_los", "h_ut_m": 1.0}},
                "path_loss.h_ut_m: must exceed 1.0 for tr38901_umi_los, got 1.0",
            ),
        ]
        for raw, needle in cases:
            with pytest.raises(ConfigError) as err:
                scenario_from_dict(raw)
            assert needle in str(err.value)
        scenario_from_dict({"detection": {"kappa_min": -1e300, "kappa_max": 1e300}})
        # without clutter there are no placements to draw, so any window is valid
        scenario_from_dict({"clutter": {"count": 0, "angle_exclusion_rad": 3.0}, "target": {"angle_rad": 1.5}})
        # the largest sweep a key holds, validated without running it
        assert scenario_from_dict({"sweep": {"realizations": 1 << 24}}).sweep.realizations == 1 << 24
        # a relay anywhere off the destination is valid, however close
        scenario_from_dict({"comm": {"relay_range_m": 20.000000000000004, "relay_angle_rad": 1.7}})

    def test_list_entries_are_named_by_index(self):
        with pytest.raises(ConfigError, match=r"detection\.clutter_levels\[1\]"):
            scenario_from_dict({"detection": {"clutter_levels": ["light", "medium"]}})
        with pytest.raises(ConfigError, match=r"detection\.powers_dbm\[0\]"):
            scenario_from_dict({"detection": {"powers_dbm": ["loud"]}})
        with pytest.raises(ConfigError, match=r"sweep\.antennas\[1\]"):
            scenario_from_dict({"sweep": {"antennas": [5, 0]}})
        with pytest.raises(ConfigError, match=r"sweep\.carriers_ghz\[0\]"):
            scenario_from_dict({"sweep": {"carriers_ghz": [-2.8]}})
        with pytest.raises(ConfigError):
            scenario_from_dict({"detection": {"powers_dbm": []}})

    def test_list_entries_must_be_distinct(self):
        # each entry keys its own table rows, so a repeat is rejected, also
        # one that repeats only once an integer is read as a float
        for section, name, value, shown in (
            ("sweep", "antennas", [5, 10, 5], "[5, 10, 5]"),
            ("sweep", "carriers_ghz", [28, 28.0], "[28.0, 28.0]"),
            ("sweep", "clutter_levels", ["none", "none"], "['none', 'none']"),
            ("detection", "powers_dbm", [30.0, 36.0, 30.0], "[30.0, 36.0, 30.0]"),
            ("detection", "clutter_levels", ["light", "intense", "light"], "['light', 'intense', 'light']"),
        ):
            message = f"{section}.{name}: entries must be distinct, got {shown}"
            with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
                scenario_from_dict({section: {name: value}})
            scenario_from_dict({section: {name: list(dict.fromkeys(value))}})

    def test_every_construction_is_validated(self):
        with pytest.raises(ConfigError, match=r"^optimizer\.rho_points: must be >= 2, got 1$"):
            dataclasses.replace(ScenarioConfig().optimizer, rho_points=1)
        with pytest.raises(ConfigError, match=r"^config\.seed: must be >= 0, got -1$"):
            ScenarioConfig(seed=-1)
        with pytest.raises(ConfigError, match=r"^detection\.powers_dbm\[0\]: must be finite$"):
            dataclasses.replace(ScenarioConfig().detection, powers_dbm=(float("nan"),))
        low = dataclasses.replace(ScenarioConfig().targets, p_max_dbm=-20.0)
        with pytest.raises(ConfigError, match=r"^targets\.p_max_dbm: must exceed power\.min_dbm"):
            ScenarioConfig(targets=low)
        with pytest.raises(ConfigError, match=r"^array: expected an object"):
            ScenarioConfig(array={"n_antennas": 5})
        # the TR 38.901 height rule belongs to the section, so a lone section is checked too
        with pytest.raises(ConfigError, match=r"^path_loss\.h_ut_m: must exceed 1\.0 for tr38901_umi_los"):
            PathLossSection(kind="tr38901_umi_los", h_ut_m=1.0)
        with pytest.raises(ConfigError, match=r"^path_loss\.h_bs_m: must exceed 1\.0 for tr38901_umi_los"):
            dataclasses.replace(ScenarioConfig().path_loss, kind="tr38901_umi_los", h_bs_m=0.5)

    def test_construction_normalizes_like_parsing(self):
        sc = ScenarioConfig()
        built = dataclasses.replace(
            sc,
            array=dataclasses.replace(sc.array, carrier_ghz=28),
            detection=dataclasses.replace(sc.detection, powers_dbm=[30, 36]),
        )
        assert built == sc
        assert isinstance(built.array.carrier_ghz, float)
        assert config_hash(built) == config_hash(sc)

    def test_cross_field_constraints(self):
        with pytest.raises(ConfigError, match="clutter.max_range_m"):
            scenario_from_dict({"clutter": {"min_range_m": 2.0, "max_range_m": 1.0}})
        with pytest.raises(ConfigError, match="power.max_dbm"):
            scenario_from_dict({"power": {"min_dbm": 10.0, "max_dbm": 0.0}})
        with pytest.raises(ConfigError, match="detection.kappa_max"):
            scenario_from_dict({"detection": {"kappa_min": 5.0, "kappa_max": 1.0}})
        with pytest.raises(ConfigError, match="targets.p_max_dbm"):
            scenario_from_dict({"targets": {"p_max_dbm": -20.0}})

    def test_string_choices(self):
        with pytest.raises(ConfigError, match="target.phase"):
            scenario_from_dict({"target": {"phase": "random"}})
        with pytest.raises(ConfigError, match="target.phase"):
            scenario_from_dict({"target": {"phase": ["zero"]}})
        with pytest.raises(ConfigError, match="path_loss.kind"):
            scenario_from_dict({"path_loss": {"kind": "two_ray"}})
        # the only names the channel and reflectivity draws ever see
        for fading in ("rician", "LoS"):
            with pytest.raises(ConfigError, match="comm.fading"):
                scenario_from_dict({"comm": {"fading": fading}})
        with pytest.raises(ConfigError, match="output.format"):
            scenario_from_dict({"output": {"format": "xml"}})
        with pytest.raises(ConfigError, match="output.dir"):
            scenario_from_dict({"output": {"dir": ""}})


@st.composite
def drawn_scenarios(draw) -> ScenarioConfig:
    """Valid scenarios with fields of every kind drawn: ints, floats, optional
    floats, strings and tuples of each entry kind."""
    distinct = lambda elements, size: st.lists(elements, min_size=1, max_size=size, unique=True)
    return scenario_from_dict({
        "seed": draw(st.integers(0, 2**64 - 1)),
        "array": {"n_antennas": draw(st.integers(1, 64)), "spacing_m": draw(st.none() | st.floats(1e-3, 1.0))},
        "target": {"phase": draw(st.sampled_from(["zero", "uniform"])), "rcs_scale": draw(st.floats(1.0, 1e9))},
        "clutter": {"count": draw(st.integers(0, 8)), "sigma": draw(st.floats(0.0, 5.0))},
        "detection": {
            "powers_dbm": draw(distinct(st.floats(-10.0, 60.0), 4)),
            "clutter_levels": draw(distinct(st.sampled_from(sorted(CLUTTER_LEVELS)), 3)),
            "kappa_max": draw(st.none() | st.floats(1.0, 1e3)),
        },
        "optimizer": {"fixed_rho": draw(st.none() | st.floats(0.0, 1.0))},
        "sweep": {
            "antennas": draw(distinct(st.integers(1, 64), 3)),
            "carriers_ghz": draw(distinct(st.floats(0.1, 100.0), 3)),
        },
        "output": {"dir": draw(st.text("ab/_.", min_size=1, max_size=8)), "format": draw(st.sampled_from(["csv", "json"]))},
    })


class TestToDict:
    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(sc=drawn_scenarios())
    def test_matches_the_asdict_reference(self, sc):
        # equal as dicts (a tuple never equals its list) and in key order
        assert sc.to_dict() == scenario_as_dict(sc)
        assert json.dumps(sc.to_dict()) == json.dumps(scenario_as_dict(sc))


# every field a scenario file sets: (section, or None for the top level, field)
FILE_FIELDS = [
    (None if f.metadata else f.name, g)
    for f in dataclasses.fields(ScenarioConfig)
    for g in ([f] if f.metadata else dataclasses.fields(f.default_factory))
]


def corruptions(field: dataclasses.Field, raw: dict, section: str | None) -> list:
    """Values that break one field's rule, each as a scenario file can hold it,
    those of the rule first: each bound crossed, or met where it is open, the
    value of the field it must exceed, a wrong type and a bool for a number;
    for a list, each of those as an entry after a valid one, and a repeated
    entry."""
    kind, lo, hi, lo_open, hi_open, choices = field.metadata["rule"]
    values = []
    for bound, step in ((lo, -1.0), (hi, 1.0)):
        if bound is not None:
            values += [bound, bound + step * max(1.0, abs(bound) * 1e-6)]
            values += [int(bound) + int(step)] if kind is int else []
    above = field.metadata["above"]
    if above is not None:
        partner = (raw.get(section) or {}).get(above, vars(getattr(ScenarioConfig(), section))[above])
        values += [partner, partner - 1.0] if partner is not None else []
    values += [*(choices or ()), "x", 5, 2.5, True, False, None, [], {}, 1e400, -1e400, 10**400]
    if isinstance(field.default, tuple):
        entry = field.default[0]
        repeats = [[entry, entry], [int(entry), float(entry)] if kind is float else [entry, entry, entry]]
        return repeats + [[entry, value] for value in values] + values
    return values


def outcome(build, hash_of):
    """The JSON of what build() gives (to_dict for a config, its fields for a
    section) and, for a config, hash_of(it); or the ConfigError message."""
    try:
        built = build()
    except ConfigError as exc:
        return "error", str(exc)
    if isinstance(built, ScenarioConfig):
        return json.dumps(built.to_dict()), hash_of(built)
    return repr(built), None


def field_id(entry) -> str:
    section, field = entry
    return f"{section or 'config'}.{field.name}"


class TestValidatorOracle:
    # the declared rules are checked from a table built once; the reference
    # reads each class's dataclass fields on every check, forms every path and
    # builds a file's absent sections anew, as the checker once did. Accepted
    # input gives the same scenario and hash, rejected input the same message.
    @pytest.mark.parametrize("entry", FILE_FIELDS, ids=field_id)
    @settings(max_examples=5, deadline=None, derandomize=True, database=None)
    @given(raw=valid_configs(), drawn=st.floats() | st.integers() | st.text(max_size=2))
    def test_a_corrupted_field_loads_as_the_reference(self, entry, raw, drawn):
        section, field = entry
        for value in [*corruptions(field, raw, section), drawn]:
            corrupted = copy.deepcopy(raw)
            (corrupted.setdefault(section, {}) if section else corrupted)[field.name] = value
            want = outcome(lambda: reference_from_dict(corrupted), scenario_hash)
            assert outcome(lambda: scenario_from_dict(corrupted), config_hash) == want, value

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(raw=valid_configs(), data=st.data())
    def test_unknown_keys_and_sections_that_are_no_object_load_as_the_reference(self, raw, data):
        sections = list(ScenarioConfig.__dataclass_fields__)[1:]
        if data.draw(st.booleans()):
            section = data.draw(st.sampled_from([None, *sections]))
            target = raw.setdefault(section, {}) if section else raw
            target[data.draw(st.sampled_from(["bogus", "kappa_points", "seed", "Array", "array"]))] = 1
        else:
            raw[data.draw(st.sampled_from(sections))] = data.draw(st.sampled_from([5, "x", [], [1], None, True, {}]))
        want = outcome(lambda: reference_from_dict(raw), scenario_hash)
        assert outcome(lambda: scenario_from_dict(raw), config_hash) == want

    @pytest.mark.parametrize("entry", FILE_FIELDS, ids=field_id)
    @settings(max_examples=3, deadline=None, derandomize=True, database=None)
    @given(raw=valid_configs(), drawn=st.floats() | st.integers() | st.text(max_size=2))
    def test_a_replaced_field_checks_as_the_reference(self, entry, raw, drawn):
        # a field given to dataclasses.replace, of its section alone or of the
        # config; a section replaced in the config, or given as no section
        section, field = entry
        try:
            sc = scenario_from_dict(raw)
        except ConfigError:  # a relay drawn onto the destination
            sc = ScenarioConfig()
        for value in [*corruptions(field, raw, section), drawn]:
            if section is None:
                builds = [lambda: dataclasses.replace(sc, **{field.name: value})]
            else:
                part = lambda: dataclasses.replace(getattr(sc, section), **{field.name: value})
                builds = [part, lambda: dataclasses.replace(sc, **{section: part()})]
                builds.append(lambda: dataclasses.replace(sc, **{section: {field.name: value}}))
            for build in builds:
                with reference_validation():
                    want = outcome(build, scenario_hash)
                assert outcome(build, config_hash) == want, value


class TestFingerprint:
    def test_hash_is_hex_and_stable(self):
        h = config_hash(ScenarioConfig())
        assert len(h) == 64
        assert set(h) <= set("0123456789abcdef")
        assert config_hash(ScenarioConfig()) == h

    def test_default_hash_is_pinned(self):
        # every manifest and JSON table carries this provenance; a change in
        # how the scenario is serialized must show here first
        assert config_hash(ScenarioConfig()) == "5f1120a512802389b0c6d39a97a84fb712c859e46858ab8fb1de866a7daca65e"

    def test_hash_tracks_physics_changes(self):
        base = ScenarioConfig()
        for changed in (
            dataclasses.replace(base, seed=1),
            dataclasses.replace(base, clutter=dataclasses.replace(base.clutter, sigma=0.3)),
            dataclasses.replace(base, array=dataclasses.replace(base.array, n_antennas=10)),
        ):
            assert config_hash(changed) != config_hash(base)

    def test_hash_ignores_where_results_are_written(self):
        base = ScenarioConfig()
        moved = dataclasses.replace(
            base, output=dataclasses.replace(base.output, dir="elsewhere", format="json")
        )
        assert config_hash(moved) == config_hash(base)
        assert canonical_json(moved) != canonical_json(base)


class TestLoadScenario:
    def test_loads_partial_file(self, tmp_path):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps({"seed": 9, "power": {"rho": 0.25}}))
        sc = load_scenario(str(path))
        assert sc.seed == 9
        assert sc.power.rho == 0.25
        assert sc.array == ScenarioConfig().array

    def test_empty_file_means_defaults(self, tmp_path):
        path = tmp_path / "empty.json"
        path.write_text("  \n")
        assert load_scenario(str(path)) == ScenarioConfig()

    def test_full_round_trip_through_disk(self, tmp_path):
        sc = ScenarioConfig()
        sc = dataclasses.replace(
            sc, detection=dataclasses.replace(sc.detection, trials=777, kappa_max=12.0)
        )
        path = tmp_path / "scenario.json"
        path.write_text(canonical_json(sc))
        assert load_scenario(str(path)) == sc

    def test_invalid_json_is_a_config_error(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError, match="invalid JSON"):
            load_scenario(str(path))

    def test_missing_file_is_a_config_error(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            load_scenario(str(tmp_path / "absent.json"))
