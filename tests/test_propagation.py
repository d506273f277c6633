"""Path loss, channel synthesis, target reflectivity, clutter placement.

A channel handed a random stream draws from it (Rayleigh fading), and a
reflectivity handed uniform draws takes its phases from them; handed none
either is deterministic (line of sight, zero phase). Clutter placements map a
block of each realization's first uniform draws. Which settings reach these
functions is the scenario's business: its choices tests reject any other
fading or phase name, and its range tests every clutter or reflectivity value
the draws could not use.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from jrcsim.array_geometry import separation, steering_vector
from jrcsim.propagation import (
    amplitude_gain,
    make_clutter_scene,
    path_loss_db,
    synthesize_comm_channel,
    synthesize_scalar_channel,
    target_reflectivity,
)
from jrcsim.scenario import ArraySection, ClutterSection, PathLossSection, ScenarioConfig, TargetSection
from jrcsim.stats import Streams, derive_stream
from oracles import clutter_placements

C_LIGHT = 299_792_458.0
FREE = PathLossSection()
UMI = PathLossSection(kind="tr38901_umi_los")


def target_at(carrier_ghz: float = 28.0, **target) -> ScenarioConfig:
    """The default scenario with the array's carrier and target fields replaced."""
    return ScenarioConfig(array=ArraySection(carrier_ghz=carrier_ghz), target=TargetSection(**target))


def clutter_about(target_angle: float, **clutter) -> ScenarioConfig:
    """The default scenario with the target bearing and clutter fields replaced."""
    return ScenarioConfig(target=TargetSection(angle_rad=target_angle), clutter=ClutterSection(**clutter))


@st.composite
def clutter_scenarios(draw):
    """A valid scenario over the clutter fields and the target bearing. The
    window reaches anywhere short of the farther end of (0, pi), so it is
    often clipped at the nearer end, 0 or pi."""
    angle = draw(st.floats(0.0, np.pi, exclude_min=True, exclude_max=True))
    window = draw(st.floats(0.0, max(angle, np.pi - angle), exclude_max=True))
    min_range = draw(st.floats(1e-6, 1e3))
    return clutter_about(
        angle,
        count=draw(st.integers(0, 8)),
        min_range_m=min_range,
        max_range_m=draw(st.floats(min_range, 1e9, exclude_min=True)),
        angle_exclusion_rad=window,
    )


class TestFreeSpacePathLoss:
    def test_reference_value_one_metre(self):
        # independent recomputation of 20 log10(4 pi f / c) at 2.8 GHz
        expected = 20.0 * np.log10(4.0 * np.pi * 1.0 * 2.8e9 / C_LIGHT)
        got = path_loss_db(FREE, 2.8e9, 1.0)
        assert got == pytest.approx(expected, abs=1e-12)
        assert 41.3 < got < 41.5

    def test_twenty_db_per_distance_decade(self):
        for f in (2.8e9, 28e9):
            assert path_loss_db(FREE, f, 50.0) - path_loss_db(FREE, f, 5.0) == pytest.approx(
                20.0, abs=1e-12
            )

    def test_twenty_db_per_frequency_decade(self):
        assert path_loss_db(FREE, 28e9, 5.0) - path_loss_db(FREE, 2.8e9, 5.0) == pytest.approx(
            20.0, abs=1e-12
        )

    def test_rejects_nonpositive_inputs(self):
        with pytest.raises(ValueError):
            path_loss_db(FREE, 2.8e9, 0.0)
        with pytest.raises(ValueError):
            path_loss_db(FREE, 0.0, 5.0)

    def test_unknown_law_is_rejected_not_read_as_the_other(self):
        with pytest.raises(ValueError):
            PathLossSection(kind="free-space")

    def test_amplitude_gain_consistent(self):
        g = amplitude_gain(FREE, 28e9, 5.0)
        assert -20.0 * np.log10(g) == pytest.approx(path_loss_db(FREE, 28e9, 5.0), rel=1e-12)


class TestStreetCanyonPathLoss:
    def breakpoint(self, f):
        return 4.0 * (UMI.h_bs_m - 1.0) * (UMI.h_ut_m - 1.0) * f / C_LIGHT

    def test_continuous_at_breakpoint(self):
        for f in (2.8e9, 28e9):
            d_bp = self.breakpoint(f)
            below = path_loss_db(UMI, f, d_bp * (1.0 - 1e-9))
            above = path_loss_db(UMI, f, d_bp * (1.0 + 1e-9))
            assert above - below == pytest.approx(0.0, abs=1e-5)

    def test_strictly_monotone_in_distance(self):
        for f in (2.8e9, 28e9):
            grid = np.geomspace(1.0, 5000.0, 400)
            vals = [path_loss_db(UMI, f, float(d)) for d in grid]
            assert np.all(np.diff(vals) > 0.0)

    def test_strictly_monotone_in_frequency(self):
        for d in (3.0, 50.0, 2000.0):
            freqs = np.geomspace(1e9, 100e9, 50)
            vals = [path_loss_db(UMI, float(f), d) for f in freqs]
            assert np.all(np.diff(vals) > 0.0)

    def test_steeper_beyond_breakpoint(self):
        f = 28e9
        d_bp = self.breakpoint(f)
        slope_near = path_loss_db(UMI, f, d_bp * 0.8) - path_loss_db(UMI, f, d_bp * 0.4)
        slope_far = path_loss_db(UMI, f, d_bp * 4.0) - path_loss_db(UMI, f, d_bp * 2.0)
        assert slope_near == pytest.approx(21.0 * np.log10(2.0), abs=0.2)
        assert slope_far == pytest.approx(40.0 * np.log10(2.0), abs=0.2)


class TestSeparation:
    def test_coincident(self):
        assert separation(5.0, 1.0, 5.0, 1.0) == 0.0

    def test_symmetric_and_matches_cartesian(self):
        a, b = (5.0, 0.9), (12.0, 2.1)
        ax, ay = a[0] * np.cos(a[1]), a[0] * np.sin(a[1])
        bx, by = b[0] * np.cos(b[1]), b[0] * np.sin(b[1])
        expected = np.hypot(ax - bx, ay - by)
        assert separation(*a, *b) == pytest.approx(expected, rel=1e-14)
        assert separation(*a, *b) == separation(*b, *a)

    def test_rounding_below_zero_gives_zero(self):
        # the law of cosines rounds to -2.8e-14 here; the square root would be NaN
        assert separation(8.631297041553337, 0.7172098864869696, 8.631297041553339, 0.7172098864869697) == 0.0


class TestChannelSynthesis:
    def test_los_is_gain_times_steering(self):
        cfg = ArraySection(n_antennas=5, carrier_ghz=28.0)
        h = synthesize_comm_channel(cfg, FREE, 20.0, 1.7)
        g = amplitude_gain(FREE, 28e9, 20.0)
        assert h == pytest.approx(g * steering_vector(cfg, 20.0, 1.7), rel=1e-14)

    def test_los_scales_linearly_with_gain(self):
        cfg = ArraySection(n_antennas=5, carrier_ghz=28.0)
        near = synthesize_comm_channel(cfg, FREE, 10.0, 1.0)
        far = synthesize_comm_channel(cfg, FREE, 100.0, 1.0)
        assert np.linalg.norm(near) == pytest.approx(10.0 * np.linalg.norm(far), rel=1e-12)

    def test_rayleigh_mean_power(self):
        # law of large numbers: ||h||^2 / (N g^2) -> 1
        cfg = ArraySection(n_antennas=4, carrier_ghz=2.8)
        g = amplitude_gain(FREE, 2.8e9, 30.0)
        rng = np.random.default_rng(7)
        draws = 100_000
        acc = 0.0
        for _ in range(draws // 400):
            for _ in range(400):
                h = synthesize_comm_channel(cfg, FREE, 30.0, 1.2, rng=rng)
                acc += float(np.vdot(h, h).real)
        mean = acc / (draws * cfg.n_antennas * g * g)
        assert abs(mean - 1.0) < 0.02

    def test_a_stream_is_drawn_from_in_a_fixed_order(self):
        # 2N normals for the array channel (real parts, then imaginary), two
        # for the scalar one; nothing is drawn without a stream
        cfg = ArraySection(n_antennas=4, carrier_ghz=2.8)
        rng, twin = np.random.default_rng(9), np.random.default_rng(9)
        h = synthesize_comm_channel(cfg, FREE, 30.0, 1.2, rng)
        z = twin.standard_normal(4) + 1j * twin.standard_normal(4)
        assert np.array_equal(h, amplitude_gain(FREE, 2.8e9, 30.0) * z / np.sqrt(2.0))
        h_rd = synthesize_scalar_channel(cfg, FREE, 11.0, rng)
        z = twin.standard_normal() + 1j * twin.standard_normal()
        assert h_rd == complex(amplitude_gain(FREE, 2.8e9, 11.0) * z / np.sqrt(2.0))
        assert rng.uniform() == twin.uniform()

    def test_scalar_channel_magnitude(self):
        cfg = ArraySection(n_antennas=4, carrier_ghz=28.0)
        h = synthesize_scalar_channel(cfg, FREE, 11.0)
        assert abs(h) == pytest.approx(amplitude_gain(FREE, 28e9, 11.0), rel=1e-12)

    def test_scalar_rayleigh_deterministic_per_stream(self):
        cfg = ArraySection(n_antennas=4, carrier_ghz=28.0)
        a = synthesize_scalar_channel(cfg, FREE, 11.0, np.random.default_rng(3))
        b = synthesize_scalar_channel(cfg, FREE, 11.0, np.random.default_rng(3))
        assert a == b


class TestTargetReflectivity:
    def test_two_way_magnitude(self):
        # under the scenario's own path-loss law
        for law in (FREE, UMI):
            pl = path_loss_db(law, 28e9, 5.0)
            expected = 3.0e7 * 10.0 ** (-2.0 * pl / 20.0)
            scenario = dataclasses.replace(target_at(range_m=5.0, rcs_scale=3.0e7), path_loss=law)
            a0 = target_reflectivity(scenario)
            assert a0 == pytest.approx(expected, rel=1e-12)
            assert a0.imag == 0.0

    def test_forty_db_stronger_at_tenth_frequency(self):
        # |alpha0| follows f^-2, so the SCNR gap between carriers is 40 dB
        lo = abs(target_reflectivity(target_at(2.8, range_m=5.0, rcs_scale=1.0)))
        hi = abs(target_reflectivity(target_at(28.0, range_m=5.0, rcs_scale=1.0)))
        assert 20.0 * np.log10(lo / hi) == pytest.approx(40.0, abs=1e-9)

    def test_uniform_phase_preserves_magnitude(self):
        scenario = target_at(range_m=5.0, rcs_scale=3.0e7)
        a0 = target_reflectivity(scenario, np.random.default_rng(11).random(200))
        assert a0.shape == (200,)
        assert len({round(abs(a), 15) for a in a0}) == 1
        assert np.std(np.angle(a0)) > 0.5  # phases actually spread

    def test_a_stream_draws_one_uniform_phase(self):
        # each entry's phase is the first uniform of its own stream, as a scalar draw gives it
        ids = [3, 4, 5]
        scenario = target_at(range_m=5.0, rcs_scale=3.0e7)
        a0 = target_reflectivity(scenario, Streams().first_doubles(scenario.seed, ids, 1)[:, 0])
        mag = target_reflectivity(scenario)
        phases = [derive_stream(scenario.seed, i).uniform() for i in ids]
        assert [complex(a) for a in a0] == [complex(mag.real * np.exp(2j * np.pi * u)) for u in phases]


def placements(scenario: ScenarioConfig, ids) -> tuple[np.ndarray, np.ndarray]:
    """The clutter placements of the streams ids on the scenario's seed."""
    return make_clutter_scene(scenario, Streams().first_doubles(scenario.seed, ids, 2 * scenario.clutter.count), ids)


class Replay:
    """A stream whose uniform draws are the given values, in order."""

    def __init__(self, values):
        self.values = iter(values)

    def uniform(self) -> float:
        return float(next(self.values))


class TestClutterScene:
    def test_count_scale_and_ranges(self):
        scenario = clutter_about(np.pi / 3, count=3, max_range_m=5.0, angle_exclusion_rad=0.05, min_range_m=0.5)
        ranges, angles = placements(scenario, [5, 6])
        assert ranges.shape == angles.shape == (2, 3)
        assert np.all((0.5 < ranges) & (ranges <= 5.0))
        assert np.all((0.0 < angles) & (angles < np.pi))

    def test_exclusion_window_respected(self):
        target = 1.1
        scenario = clutter_about(target, count=1, max_range_m=5.0, angle_exclusion_rad=0.1, min_range_m=0.5)
        _, angles = placements(scenario, range(10_000))
        assert np.all(np.abs(angles - target) >= 0.1)

    def test_angles_cover_both_sides(self):
        target = np.pi / 2
        scenario = clutter_about(target, count=1, max_range_m=5.0, angle_exclusion_rad=0.3, min_range_m=0.5)
        _, angles = placements(scenario, range(500))
        assert np.any(angles < target) and np.any(angles > target)

    def test_deterministic_given_stream(self):
        scenario = clutter_about(np.pi / 3, count=3, max_range_m=5.0, angle_exclusion_rad=0.05, min_range_m=0.5)
        assert np.array_equal(placements(scenario, [9, 4]), placements(scenario, [9, 4]))

    def test_zero_count(self):
        ranges, angles = make_clutter_scene(clutter_about(1.0, count=0), np.empty((3, 0)), [])
        assert ranges.shape == angles.shape == (3, 0)

    def test_an_angle_on_an_edge_draws_the_row_again_from_its_stream(self):
        # an exact 0 angle draw below a window whose lower edge is above 0 places
        # the element at bearing 0, which a one-at-a-time draw rejects and draws
        # again; the row then follows its stream in order, and the others keep
        # their block
        scenario = clutter_about(1.0, count=3, angle_exclusion_rad=0.5)
        ids = [11, 12, 13]
        draws = Streams().first_doubles(scenario.seed, ids, 6)
        draws[1, 3] = 0.0
        ranges, angles = make_clutter_scene(scenario, draws, ids)
        assert np.all((0.0 < angles) & (angles < np.pi))
        for row, stream in enumerate(ids):
            want = clutter_placements(scenario, derive_stream(scenario.seed, stream))
            assert np.array_equal((ranges[row], angles[row]), want)

    def test_a_zero_draw_under_a_window_clipped_at_0_lands_on_its_far_edge(self):
        # with the window's lower edge at 0 no bearing lies below it, so a 0 draw
        # maps to the upper edge as in a one-at-a-time draw, and nothing is drawn again
        scenario = clutter_about(0.5, count=2, angle_exclusion_rad=2.0)
        ids = [21, 22]
        draws = Streams().first_doubles(scenario.seed, ids, 4)
        draws[0, 1] = 0.0
        ranges, angles = make_clutter_scene(scenario, draws, ids)
        assert angles[0, 0] == 2.5
        for row, values in enumerate(draws):
            want = clutter_placements(scenario, Replay(values))
            assert np.array_equal((ranges[row], angles[row]), want)

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(scenario=clutter_scenarios(), key=st.integers(0, 2**32 - 1))
    @example(scenario=clutter_about(0.5, count=12, angle_exclusion_rad=2.0), key=5)
    @example(scenario=clutter_about(2.8, count=12, angle_exclusion_rad=1.0), key=5)
    @example(scenario=clutter_about(1.0, count=0, angle_exclusion_rad=3.5), key=5)
    def test_the_draw_keeps_its_contract(self, scenario, key):
        # count placements, ranges in [min, max], angles in (0, pi) outside the
        # window, and both at their uniform draws: the range at max - u (max - min),
        # which rounding can land on min (a range one ulp wide does), and the
        # angle at its draw's share of the bearings left outside the window,
        # each row on its own stream; without clutter nothing is drawn
        clutter, angle = scenario.clutter, scenario.target.angle_rad
        window = clutter.angle_exclusion_rad
        ids = [key, key + 1]
        ranges, angles = placements(scenario, ids)
        assert ranges.shape == angles.shape == (2, clutter.count)
        assert np.all((clutter.min_range_m <= ranges) & (ranges <= clutter.max_range_m))
        assert np.all((0.0 < angles) & (angles < np.pi))
        assert not np.any((angle - window < angles) & (angles < angle + window))
        assert np.array_equal((ranges, angles), placements(scenario, ids))
        lo, hi = max(0.0, angle - window), min(np.pi, angle + window)
        below = np.minimum(angles, lo) + np.maximum(0.0, angles - hi)
        for row, stream in enumerate(ids):
            twin = derive_stream(scenario.seed, stream)
            for i, share in enumerate(below[row]):
                assert ranges[row, i] == clutter.max_range_m - twin.uniform() * (clutter.max_range_m - clutter.min_range_m)
                assert share == pytest.approx(twin.uniform() * (lo + np.pi - hi), rel=1e-12, abs=1e-14)
