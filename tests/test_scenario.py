"""Scenario defaults, JSON round trips, validation messages, and fingerprints."""

import dataclasses
import json

import numpy as np
import pytest

from jrcsim.scenario import (
    CLUTTER_LEVELS,
    ConfigError,
    ScenarioConfig,
    canonical_json,
    config_hash,
    dbm_to_watts,
    load_scenario,
    scenario_from_dict,
    watts_to_dbm,
)


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
        assert (sc.power.min_dbm, sc.power.max_dbm, sc.power.points) == (-10.0, 40.0, 21)
        assert sc.power.nominal_dbm == 30.0
        assert sc.power.rho == 0.5

    def test_detection_targets_and_grids(self):
        sc = ScenarioConfig()
        assert sc.detection.eta == 1.0e-6
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
        assert (sc.optimizer.power_points, sc.optimizer.rho_points, sc.optimizer.kappa_points) == (64, 21, 101)
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
            ({"array": {"n_antennas": 0}}, "array.n_antennas: must be >= 1, got 0"),
            ({"array": {"carrier_ghz": -1.0}}, "array.carrier_ghz: must be > 0.0, got -1.0"),
            (
                {"target": {"angle_rad": 3.5}},
                "target.angle_rad: must be <= 3.141592653589793, got 3.5",
            ),
            (
                {"target": {"angle_rad": float(np.pi)}},
                "target.angle_rad: must be < pi, got 3.141592653589793",
            ),
            ({"target": {"rcs_scale": 0.0}}, "target.rcs_scale: must be > 0.0, got 0.0"),
            ({"comm": {"noise_var_dest_w": 0.0}}, "comm.noise_var_dest_w: must be > 0.0, got 0.0"),
            ({"power": {"rho": 1.5}}, "power.rho: must be <= 1.0, got 1.5"),
            ({"power": {"points": 1}}, "power.points: must be >= 2, got 1"),
            ({"detection": {"eta": 0.0}}, "detection.eta: must be > 0.0, got 0.0"),
            ({"detection": {"trials": 0}}, "detection.trials: must be >= 1, got 0"),
            ({"targets": {"pfa_max": 0.0}}, "targets.pfa_max: must be > 0.0, got 0.0"),
            ({"targets": {"pfa_max": 1.5}}, "targets.pfa_max: must be <= 1.0, got 1.5"),
            ({"targets": {"pd_min": -0.1}}, "targets.pd_min: must be >= 0.0, got -0.1"),
            ({"optimizer": {"rho_points": 1}}, "optimizer.rho_points: must be >= 2, got 1"),
            ({"optimizer": {"kappa_points": 2}}, "optimizer.kappa_points: must be >= 3, got 2"),
            ({"optimizer": {"tol_factor": 0.0}}, "optimizer.tol_factor: must be > 0.0, got 0.0"),
            ({"optimizer": {"fixed_rho": 1.5}}, "optimizer.fixed_rho: must be <= 1.0, got 1.5"),
            ({"sweep": {"realizations": 0}}, "sweep.realizations: must be >= 1, got 0"),
            # powers outside [-300, 300] dBm, non-finite entries, overflowing literals
            ({"power": {"max_dbm": 1e300}}, "power.max_dbm: must be <= 300.0"),
            ({"power": {"min_dbm": -1e300}}, "power.min_dbm: must be >= -300.0"),
            ({"power": {"nominal_dbm": float("inf")}}, "power.nominal_dbm: must be finite"),
            ({"power": {"max_dbm": 10**400}}, "power.max_dbm: must be finite"),
            ({"targets": {"p_max_dbm": 1e300}}, "targets.p_max_dbm: must be <= 300.0"),
            ({"detection": {"powers_dbm": [float("nan")]}}, "detection.powers_dbm[0]: must be finite"),
            ({"detection": {"powers_dbm": [30.0, float("inf")]}}, "detection.powers_dbm[1]: must be finite"),
            ({"detection": {"powers_dbm": [301.0]}}, "detection.powers_dbm[0]: must be <= 300.0"),
            ({"sweep": {"carriers_ghz": [float("nan")]}}, "sweep.carriers_ghz[0]: must be finite"),
            ({"sweep": {"carriers_ghz": [float("inf")]}}, "sweep.carriers_ghz[0]: must be finite"),
        ]
        for raw, needle in cases:
            with pytest.raises(ConfigError) as err:
                scenario_from_dict(raw)
            assert needle in str(err.value)

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

    def test_every_construction_is_validated(self):
        with pytest.raises(ConfigError, match=r"^optimizer\.kappa_points: must be >= 3, got 2$"):
            dataclasses.replace(ScenarioConfig().optimizer, kappa_points=2)
        with pytest.raises(ConfigError, match=r"^config\.seed: must be >= 0, got -1$"):
            ScenarioConfig(seed=-1)
        with pytest.raises(ConfigError, match=r"^detection\.powers_dbm\[0\]: must be finite$"):
            dataclasses.replace(ScenarioConfig().detection, powers_dbm=(float("nan"),))
        low = dataclasses.replace(ScenarioConfig().targets, p_max_dbm=-20.0)
        with pytest.raises(ConfigError, match=r"^targets\.p_max_dbm: must exceed power\.min_dbm"):
            ScenarioConfig(targets=low)
        with pytest.raises(ConfigError, match=r"^array: expected an object"):
            ScenarioConfig(array={"n_antennas": 5})

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
        with pytest.raises(ConfigError, match="comm.fading"):
            scenario_from_dict({"comm": {"fading": "rician"}})
        with pytest.raises(ConfigError, match="output.format"):
            scenario_from_dict({"output": {"format": "xml"}})
        with pytest.raises(ConfigError, match="output.dir"):
            scenario_from_dict({"output": {"dir": ""}})


class TestFingerprint:
    def test_hash_is_hex_and_stable(self):
        h = config_hash(ScenarioConfig())
        assert len(h) == 64
        assert set(h) <= set("0123456789abcdef")
        assert config_hash(ScenarioConfig()) == h

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
        path.write_text(json.dumps({"seed": 9, "power": {"nominal_dbm": 20.0}}))
        sc = load_scenario(str(path))
        assert sc.seed == 9
        assert sc.power.nominal_dbm == 20.0
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
