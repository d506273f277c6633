"""Scene realization: stream keying, level mapping, matched beams, waveforms."""

import dataclasses
import math

import numpy as np
import pytest

from conftest import at_sigma
from jrcsim.context import (
    KIND_SCENE,
    build_context,
    stream_id,
)
from jrcsim.power_allocation import evaluate_point
from jrcsim.propagation import path_loss_db
from jrcsim.radar_sensing import waveform_from_symbols
from jrcsim.scenario import CLUTTER_LEVELS, ConfigError, ScenarioConfig, dbm_to_watts, scenario_from_dict


class TestStreamIds:
    def test_kind_and_index_pack_without_collisions(self):
        assert stream_id(KIND_SCENE, 3) == (KIND_SCENE << 48) | 3
        assert stream_id(KIND_SCENE) == KIND_SCENE << 48
        seen = {stream_id(kind, idx) for kind in range(1, 8) for idx in (0, 1, 2, 77)}
        assert len(seen) == 7 * 4

    def test_index_bounds(self):
        stream_id(1, (1 << 48) - 1)
        for bad in (-1, 1 << 48):
            with pytest.raises(ValueError):
                stream_id(1, bad)


class TestLevelMapping:
    def test_named_levels(self):
        assert CLUTTER_LEVELS == {"none": 0.0, "light": 0.1, "intense": 0.8}

    def test_unknown_level_rejected(self):
        # a level reaches the runners only as a validated choice of CLUTTER_LEVELS
        for section in ("sweep", "detection"):
            with pytest.raises(ConfigError, match=rf"^{section}\.clutter_levels\[0\]: "):
                scenario_from_dict({section: {"clutter_levels": ["medium"]}})


class TestBuildContext:
    def test_rebuild_is_identical(self, default_scenario):
        a = build_context(default_scenario)
        b = build_context(default_scenario)
        assert a.alpha0 == b.alpha0
        assert np.array_equal(a.symbols, b.symbols)
        assert np.array_equal(a.h_sd, b.h_sd)
        assert np.array_equal(a.clutter.matrix, b.clutter.matrix)

    def test_relay_power_reaches_the_relayed_link(self, default_scenario):
        silent = dataclasses.replace(
            default_scenario, comm=dataclasses.replace(default_scenario.comm, relay_power_w=0.0)
        )
        assert build_context(silent).operating_point(1.0, 0.5).gamma_relayed == 0.0
        assert build_context(default_scenario).operating_point(1.0, 0.5).gamma_relayed > 0.0

    def test_scene_key_selects_the_realization(self, default_scenario):
        a = build_context(default_scenario, scene_key=0)
        b = build_context(default_scenario, scene_key=1)
        assert a.alpha0 != b.alpha0  # drawn phase differs
        assert abs(a.alpha0) == pytest.approx(abs(b.alpha0), rel=1e-12)
        assert not np.array_equal(a.clutter.matrix, b.clutter.matrix)
        # line-of-sight channels are geometric, so they do not change
        assert np.array_equal(a.h_sd, b.h_sd)
        assert np.array_equal(a.h_sr, b.h_sr) and a.h_rd == b.h_rd

    def test_sigma_override_keeps_placements(self, default_scenario):
        light = at_sigma(build_context(default_scenario), 0.1)
        intense = at_sigma(build_context(default_scenario), 0.8)
        assert np.all(light.clutter.scale == 0.1)
        assert np.all(intense.clutter.scale == 0.8)
        # sigma reaches the context only through the clutter amplitude scales
        assert np.array_equal(light.clutter.matrix, intense.clutter.matrix)
        assert light.alpha0 == intense.alpha0
        assert np.array_equal(light.symbols, intense.symbols)
        assert np.array_equal(light.comm_direction, intense.comm_direction)

    def test_cell_overrides_change_the_array(self, default_scenario):
        ctx = build_context(default_scenario, n_antennas=10, carrier_ghz=2.8)
        assert ctx.array.n_antennas == 10
        assert ctx.array.carrier_freq == pytest.approx(2.8e9)
        assert ctx.array.spacing == pytest.approx(ctx.array.wavelength / 2.0, rel=1e-12)
        assert len(ctx.target_steering) == 10

    def test_no_clutter_override(self, default_scenario):
        sc = dataclasses.replace(default_scenario, clutter=dataclasses.replace(default_scenario.clutter, count=0))
        ctx = build_context(sc)
        assert ctx.clutter.matrix.shape == (ctx.array.n_antennas, 0)
        assert ctx.clutter.scale.shape == (0,)

    def test_reflectivity_follows_the_two_way_law(self, default_scenario):
        sc = dataclasses.replace(
            default_scenario,
            target=dataclasses.replace(default_scenario.target, phase="zero"),
        )
        ctx = build_context(sc)
        pl_db = path_loss_db(sc.path_loss, ctx.array.carrier_freq, sc.target.range_m)
        expected = sc.target.rcs_scale * 10.0 ** (-2.0 * pl_db / 20.0)
        assert ctx.alpha0 == pytest.approx(expected, rel=1e-12)
        assert ctx.alpha0.imag == 0.0


class TestBeamsAndWaveform:
    def test_split_conserves_power(self, default_context):
        for rho in (0.0, 0.25, 0.5, 1.0):
            beams = default_context.beams_at(2.0, rho)
            assert np.sum(np.abs(beams) ** 2) == pytest.approx(2.0, rel=1e-12)

    def test_extreme_splits_silence_one_beam(self, default_context):
        comm_only = default_context.beams_at(2.0, 0.0)
        radar_only = default_context.beams_at(2.0, 1.0)
        assert np.linalg.norm(comm_only[1]) == 0.0
        assert np.linalg.norm(radar_only[0]) == 0.0

    def test_beams_point_along_matched_directions(self, default_context):
        # row 0 is the data beam, (1 - rho) P along the destination channel;
        # row 1 is the radar beam, rho P along the target; a split grid stacks
        # one such pair per split
        ctx = default_context
        beams = ctx.beams_at(4.0, 0.25)
        assert beams.shape == (2, ctx.array.n_antennas)
        assert beams[0] == pytest.approx(np.sqrt(3.0) * ctx.comm_direction, rel=1e-12)
        assert beams[1] == pytest.approx(1.0 * ctx.radar_direction, rel=1e-12)
        assert ctx.comm_direction == pytest.approx(np.conj(ctx.h_sd) / np.linalg.norm(ctx.h_sd), rel=1e-12)
        a = ctx.target_steering
        assert ctx.radar_direction == pytest.approx(np.conj(a) / np.linalg.norm(a), rel=1e-12)
        stacked = ctx.beams_at(4.0, np.array([0.0, 0.25]))
        assert stacked.shape == (2, 2, ctx.array.n_antennas)
        assert np.array_equal(stacked[1], beams)

    def test_rejects_bad_split_arguments(self, default_context):
        with pytest.raises(ValueError):
            default_context.beams_at(-1.0, 0.5)
        for rho in (-0.1, 1.1, np.nan):
            with pytest.raises(ValueError):
                default_context.beams_at(1.0, rho)

    def test_rejects_nonfinite_power(self, default_context):
        for power in (np.inf, np.nan):
            with pytest.raises(ValueError, match=r"power must lie in \[0, inf\)"):
                default_context.beams_at(power, 0.5)
        with pytest.raises(ValueError, match=r"power must lie in \[0, inf\)"):
            evaluate_point(default_context, math.inf, 0.5, 0.0)

    def test_zero_power_gives_zero_beams(self, default_context):
        beams = default_context.beams_at(0.0, 0.5)
        assert beams.shape == (2, default_context.array.n_antennas)
        assert not np.any(beams)

    def test_waveform_is_the_fixed_symbol_combination(self, default_context):
        ctx = default_context
        point = ctx.operating_point(dbm_to_watts(30.0), 0.5)
        beams, x = point.beams, point.x
        expected = beams[0] * ctx.symbols[0] + beams[1] * ctx.symbols[1]
        assert x == pytest.approx(expected, rel=1e-12)
        assert np.array_equal(x, ctx.operating_point(dbm_to_watts(30.0), 0.5).x)
        assert np.array_equal(x, waveform_from_symbols(beams, ctx.symbols))
