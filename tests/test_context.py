"""Scene realization: stream keying, level mapping, matched beams, waveforms."""

import dataclasses

import numpy as np
import pytest

from jrcsim.context import (
    KIND_SCENE,
    build_context,
    sigma_for_level,
    stream_id,
)
from jrcsim.propagation import PathLossModel, path_loss_db
from jrcsim.radar_sensing import waveform_from_symbols
from jrcsim.scenario import ScenarioConfig, dbm_to_watts


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
        assert sigma_for_level("none") == 0.0
        assert sigma_for_level("light") == 0.1
        assert sigma_for_level("intense") == 0.8

    def test_unknown_level_rejected(self):
        with pytest.raises(ValueError):
            sigma_for_level("medium")


class TestBuildContext:
    def test_rebuild_is_identical(self, default_scenario):
        a = build_context(default_scenario)
        b = build_context(default_scenario)
        assert a.alpha0 == b.alpha0
        assert np.array_equal(a.symbols, b.symbols)
        assert np.array_equal(a.channels.h_sd, b.channels.h_sd)
        assert [el.position for el in a.scene.clutter] == [el.position for el in b.scene.clutter]

    def test_scene_key_selects_the_realization(self, default_scenario):
        a = build_context(default_scenario, scene_key=0)
        b = build_context(default_scenario, scene_key=1)
        assert a.alpha0 != b.alpha0  # drawn phase differs
        assert abs(a.alpha0) == pytest.approx(abs(b.alpha0), rel=1e-12)
        assert [el.position for el in a.scene.clutter] != [el.position for el in b.scene.clutter]
        # line-of-sight channels are geometric, so they do not change
        assert np.array_equal(a.channels.h_sd, b.channels.h_sd)

    def test_sigma_override_keeps_placements(self, default_scenario):
        light = build_context(default_scenario, sigma=0.1)
        intense = build_context(default_scenario, sigma=0.8)
        assert [el.position for el in light.scene.clutter] == [
            el.position for el in intense.scene.clutter
        ]
        assert all(el.amplitude_scale == 0.1 for el in light.scene.clutter)
        assert all(el.amplitude_scale == 0.8 for el in intense.scene.clutter)

    def test_cell_overrides_change_the_array(self, default_scenario):
        ctx = build_context(default_scenario, n_antennas=10, carrier_ghz=2.8)
        assert ctx.n_antennas == 10
        assert ctx.array.carrier_freq == pytest.approx(2.8e9)
        assert ctx.array.spacing == pytest.approx(ctx.array.wavelength / 2.0, rel=1e-12)
        assert len(ctx.target_steering) == 10

    def test_no_clutter_override(self, default_scenario):
        ctx = build_context(default_scenario, clutter_count=0)
        assert ctx.scene.clutter == ()

    def test_reflectivity_follows_the_two_way_law(self, default_scenario):
        sc = dataclasses.replace(
            default_scenario,
            target=dataclasses.replace(default_scenario.target, phase="zero"),
        )
        ctx = build_context(sc)
        pl_db = path_loss_db(ctx.path_loss, ctx.array.carrier_freq, sc.target.range_m)
        expected = sc.target.rcs_scale * 10.0 ** (-2.0 * pl_db / 20.0)
        assert ctx.alpha0 == pytest.approx(expected, rel=1e-12)
        assert ctx.alpha0.imag == 0.0

    def test_target_response_is_rank_one(self, default_context):
        a = default_context.target_steering
        assert default_context.target_response == pytest.approx(np.outer(a, a), rel=1e-12)
        assert default_context.relay_budget == 0.01


class TestBeamsAndWaveform:
    def test_split_conserves_power(self, default_context):
        for rho in (0.0, 0.25, 0.5, 1.0):
            beams = default_context.beams_at(2.0, rho)
            assert beams.total_power == pytest.approx(2.0, rel=1e-12)

    def test_extreme_splits_silence_one_beam(self, default_context):
        comm_only = default_context.beams_at(2.0, 0.0)
        radar_only = default_context.beams_at(2.0, 1.0)
        assert np.linalg.norm(comm_only.radar_beam) == 0.0
        assert np.linalg.norm(radar_only.comm_beams[0]) == 0.0

    def test_beams_point_along_matched_directions(self, default_context):
        ctx = default_context
        beams = ctx.beams_at(4.0, 0.25)
        assert beams.comm_beams[0] == pytest.approx(np.sqrt(3.0) * ctx.comm_direction, rel=1e-12)
        assert beams.radar_beam == pytest.approx(1.0 * ctx.radar_direction, rel=1e-12)
        assert ctx.comm_direction == pytest.approx(
            np.conj(ctx.channels.h_sd) / np.linalg.norm(ctx.channels.h_sd), rel=1e-12
        )

    def test_rejects_bad_split_arguments(self, default_context):
        with pytest.raises(ValueError):
            default_context.beams_at(-1.0, 0.5)
        for rho in (-0.1, 1.1):
            with pytest.raises(ValueError):
                default_context.beams_at(1.0, rho)

    def test_waveform_is_the_fixed_symbol_combination(self, default_context):
        ctx = default_context
        beams = ctx.beams_at(dbm_to_watts(30.0), 0.5)
        x = ctx.waveform_at(beams)
        expected = beams.comm_beams[0] * ctx.symbols[0] + beams.radar_beam * ctx.symbols[1]
        assert x == pytest.approx(expected, rel=1e-12)
        assert np.array_equal(x, ctx.waveform_at(beams))
        assert np.array_equal(x, waveform_from_symbols(beams, ctx.symbols))
