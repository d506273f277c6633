"""Detection statistic moments, closed-form rates, and Monte Carlo agreement.

The statistic parameters are checked against a dense matrix-form oracle, the
closed-form probabilities against an independent erfc-based tail function,
and the empirical rates against three-binomial-standard-error bands.
"""

import dataclasses
import functools
import math

import numpy as np
import pytest

from jrcsim.array_geometry import ArrayConfig, PolarPosition, steering_vector
from jrcsim.comm_link import BeamformerSet
from jrcsim.context import build_context
from jrcsim.detection import (
    DetectionStatisticParams,
    detection_probability,
    false_alarm_probability,
    roc_sweep,
    sample_test_statistics,
    simulate_detection,
    statistic_params,
    with_threshold,
)
from jrcsim.propagation import ClutterElement, Scene
from jrcsim.radar_sensing import (
    ClutterSteering,
    clutter_covariance,
    optimal_receive_beamformer,
    response_matrix,
    transmit_covariance,
)
from jrcsim.scenario import ScenarioConfig, dbm_to_watts
from jrcsim.stats import inverse_q

CFG = ArrayConfig(n_antennas=5, carrier_freq=28e9)
TARGET = PolarPosition(5.0, np.pi / 3)
_FROZEN = object()  # default sentinel: reuse the cell's own frozen waveform


def tail_oracle(z):
    # standard normal upper tail, written independently of the package
    return 0.5 * math.erfc(z / math.sqrt(2.0))


def make_scene(rng, n_clutter=3, sigma=0.8, alpha0=0.5 + 0.2j):
    clutter = tuple(
        ClutterElement(
            position=PolarPosition(float(rng.uniform(0.5, 5.0)), float(rng.uniform(0.2, 2.9))),
            amplitude_scale=sigma,
        )
        for _ in range(n_clutter)
    )
    return Scene(target=TARGET, alpha0=alpha0, clutter=clutter)


def make_beams(rng, n=5, power=1.0):
    u = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    u *= np.sqrt(power / 2.0) / np.linalg.norm(u)
    v *= np.sqrt(power / 2.0) / np.linalg.norm(v)
    return BeamformerSet(comm_beams=(u,), radar_beam=v)


class OperatingCell:
    """One end-to-end receive chain: beams, frozen waveform, beamformer, moments."""

    def __init__(self, sigma, power_dbm=30.0):
        scenario = ScenarioConfig()
        self.ctx = build_context(scenario, sigma=sigma)
        self.beams = self.ctx.beams_at(dbm_to_watts(power_dbm), scenario.power.rho)
        self.x = self.ctx.waveform_at(self.beams)
        cov = clutter_covariance(self.ctx.array, self.ctx.scene, transmit_covariance(self.beams))
        self.w = optimal_receive_beamformer(self.ctx.target_steering, cov, self.x)
        self.params = statistic_params(
            self.w, self.ctx.alpha0, self.ctx.target_steering, self.ctx.clutter, self.x, eta=1.0
        )

    def sample(self, trials, seed, x=_FROZEN):
        rng = np.random.default_rng(seed)
        waveform = self.x if x is _FROZEN else x
        return sample_test_statistics(
            self.ctx.array, self.ctx.scene, self.beams, self.w, trials, rng, x=waveform
        )


@functools.lru_cache(maxsize=None)
def cell(sigma, power_dbm=30.0):
    return OperatingCell(sigma, power_dbm=power_dbm)


class TestStatisticParams:
    def test_matches_dense_matrix_form(self):
        # mu_1 = alpha_0 w^H A x, sigma^2 = ||w||^2 + sum sigma_l^2 |w^H A_l x|^2
        rng = np.random.default_rng(0)
        scene = make_scene(rng)
        mat = response_matrix(CFG, TARGET)
        clutter_mats = [response_matrix(CFG, el.position) for el in scene.clutter]
        for _ in range(50):
            w = rng.standard_normal(5) + 1j * rng.standard_normal(5)
            x = rng.standard_normal(5) + 1j * rng.standard_normal(5)
            got = statistic_params(w, scene.alpha0, steering_vector(CFG, TARGET), ClutterSteering.of(CFG, scene), x, eta=1.0)
            mu_expected = scene.alpha0 * (w.conj() @ mat @ x)
            var_expected = float(np.vdot(w, w).real) + sum(
                el.amplitude_scale**2 * abs(w.conj() @ m @ x) ** 2
                for el, m in zip(scene.clutter, clutter_mats)
            )
            assert got.mu1 == pytest.approx(mu_expected, rel=1e-12)
            assert got.sigma2 == pytest.approx(var_expected, rel=1e-12)

    def test_unit_ratio_threshold_is_signal_energy(self):
        # at eta = 1 the log term vanishes and kappa = |mu_1|^2
        rng = np.random.default_rng(1)
        scene = make_scene(rng)
        w = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        x = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        got = statistic_params(w, scene.alpha0, steering_vector(CFG, TARGET), ClutterSteering.of(CFG, scene), x, eta=1.0)
        assert got.kappa == pytest.approx(abs(got.mu1) ** 2, rel=1e-12)
        assert got.eta == 1.0

    def test_threshold_combines_variance_and_signal_terms(self):
        rng = np.random.default_rng(2)
        scene = make_scene(rng)
        w = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        x = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        got = statistic_params(w, scene.alpha0, steering_vector(CFG, TARGET), ClutterSteering.of(CFG, scene), x, eta=1e-6)
        assert got.kappa == pytest.approx(got.sigma2 * math.log(1e-6) + abs(got.mu1) ** 2, rel=1e-12)

    def test_weak_target_gives_negative_threshold(self):
        # when the variance term dominates, ln(eta) < 0 drags kappa below zero
        rng = np.random.default_rng(3)
        scene = make_scene(rng, alpha0=1e-6 + 0j)
        w = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        x = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        got = statistic_params(w, scene.alpha0, steering_vector(CFG, TARGET), ClutterSteering.of(CFG, scene), x, eta=1e-6)
        assert got.kappa < 0.0

    def test_rejects_non_positive_ratio(self):
        rng = np.random.default_rng(4)
        scene = make_scene(rng)
        w = np.ones(5, dtype=complex)
        x = np.ones(5, dtype=complex)
        a = steering_vector(CFG, TARGET)
        for eta in (0.0, -1.0):
            with pytest.raises(ValueError):
                statistic_params(w, scene.alpha0, a, ClutterSteering.of(CFG, scene), x, eta=eta)

    def test_rejects_non_positive_variance(self):
        with pytest.raises(ValueError):
            DetectionStatisticParams(mu1=1.0 + 0j, sigma2=0.0, kappa=0.0)

    def test_with_threshold_keeps_moments(self):
        params = DetectionStatisticParams(mu1=2.0 + 1j, sigma2=3.0, kappa=5.0, eta=1.0)
        moved = with_threshold(params, -7.5)
        assert moved.kappa == -7.5
        assert moved.eta is None
        assert moved.mu1 == params.mu1
        assert moved.sigma2 == params.sigma2


class TestClosedForms:
    PARAMS = DetectionStatisticParams(mu1=1.5 - 0.5j, sigma2=4.0, kappa=0.0)

    def scale(self, params):
        return abs(params.mu1) * math.sqrt(2.0 * params.sigma2)

    def test_false_alarm_matches_tail_oracle(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            params = DetectionStatisticParams(
                mu1=complex(rng.standard_normal(), rng.standard_normal()),
                sigma2=float(rng.uniform(0.1, 10.0)),
                kappa=float(rng.uniform(-20.0, 20.0)),
            )
            expected = tail_oracle(params.kappa / self.scale(params))
            assert false_alarm_probability(params) == pytest.approx(expected, rel=1e-13, abs=1e-300)

    def test_detection_matches_tail_oracle(self):
        rng = np.random.default_rng(6)
        for _ in range(200):
            params = DetectionStatisticParams(
                mu1=complex(rng.standard_normal(), rng.standard_normal()),
                sigma2=float(rng.uniform(0.1, 10.0)),
                kappa=float(rng.uniform(-20.0, 20.0)),
            )
            mu_sq = abs(params.mu1) ** 2
            expected = tail_oracle((params.kappa - 2.0 * mu_sq) / self.scale(params))
            assert detection_probability(params) == pytest.approx(expected, rel=1e-13, abs=1e-300)

    def test_zero_threshold_false_alarm_is_half(self):
        assert false_alarm_probability(self.PARAMS) == 0.5

    def test_detection_is_half_at_twice_signal_energy(self):
        mu_sq = abs(self.PARAMS.mu1) ** 2
        at_center = with_threshold(self.PARAMS, 2.0 * mu_sq)
        assert detection_probability(at_center) == 0.5

    def test_threshold_limits(self):
        low = with_threshold(self.PARAMS, -1e9)
        high = with_threshold(self.PARAMS, 1e9)
        assert false_alarm_probability(low) == pytest.approx(1.0, abs=1e-12)
        assert detection_probability(low) == pytest.approx(1.0, abs=1e-12)
        assert false_alarm_probability(high) == pytest.approx(0.0, abs=1e-12)
        assert detection_probability(high) == pytest.approx(0.0, abs=1e-12)

    def test_detection_dominates_false_alarm(self):
        # the H1 mean shift 2|mu_1|^2 > 0 moves mass above any threshold
        for kappa in np.linspace(-30.0, 30.0, 41):
            at = with_threshold(self.PARAMS, float(kappa))
            assert detection_probability(at) >= false_alarm_probability(at)
        mid = with_threshold(self.PARAMS, abs(self.PARAMS.mu1) ** 2)
        assert detection_probability(mid) > false_alarm_probability(mid)

    def test_rates_non_increasing_in_threshold(self):
        kappas = np.linspace(-30.0, 30.0, 61)
        pfa = [false_alarm_probability(with_threshold(self.PARAMS, float(k))) for k in kappas]
        pd = [detection_probability(with_threshold(self.PARAMS, float(k))) for k in kappas]
        assert np.all(np.diff(pfa) <= 0.0)
        assert np.all(np.diff(pd) <= 0.0)
        assert pfa[0] > pfa[-1]
        assert pd[0] > pd[-1]

    def test_zero_signal_rejected(self):
        degenerate = DetectionStatisticParams(mu1=0.0 + 0j, sigma2=1.0, kappa=0.0)
        with pytest.raises(ValueError):
            false_alarm_probability(degenerate)
        with pytest.raises(ValueError):
            detection_probability(degenerate)


class TestSampledStatistics:
    def test_empirical_moments_match_parameters(self):
        trials = 200_000
        run = cell(0.8)
        t_h0, t_h1, params = run.sample(trials, seed=11)
        mu_sq = abs(params.mu1) ** 2
        var_expected = 2.0 * mu_sq * params.sigma2
        se_mean = math.sqrt(var_expected / trials)
        assert abs(float(np.mean(t_h0))) < 5.0 * se_mean
        assert float(np.mean(t_h1)) == pytest.approx(2.0 * mu_sq, abs=5.0 * se_mean)
        assert float(np.var(t_h0)) == pytest.approx(var_expected, rel=0.03)
        assert float(np.var(t_h1)) == pytest.approx(var_expected, rel=0.03)

    def test_null_statistic_is_symmetric_and_light_tailed(self):
        # T is linear in the Gaussian clutter amplitudes and noise, so the
        # standardized null sample should show no skew
        trials = 200_000
        t_h0, _, _ = cell(0.8).sample(trials, seed=12)
        z = (t_h0 - np.mean(t_h0)) / np.std(t_h0)
        assert abs(float(np.mean(z**3))) < 0.05
        assert float(np.mean(z**4)) == pytest.approx(3.0, abs=0.2)

    def test_moments_agree_with_reported_parameters(self):
        run = cell(0.1)
        _, _, params = run.sample(4, seed=13)
        direct = statistic_params(
            run.w, run.ctx.alpha0, run.ctx.target_steering, run.ctx.clutter, run.x, eta=1.0
        )
        assert params.mu1 == pytest.approx(direct.mu1, rel=1e-12)
        assert params.sigma2 == pytest.approx(direct.sigma2, rel=1e-12)

    def test_waveform_stays_frozen_across_trials(self):
        # a different frozen snapshot changes the moments; the same one does not
        run = cell(0.1)
        rng = np.random.default_rng(14)
        _, _, params_base = run.sample(1000, seed=15)
        _, _, params_repeat = run.sample(1000, seed=16)
        assert params_repeat.mu1 == params_base.mu1
        scrambled = run.x * np.exp(2j * np.pi * rng.uniform(size=run.x.shape))
        _, _, params_other = run.sample(1000, seed=17, x=scrambled)
        assert params_other.mu1 != params_base.mu1

    def test_leading_block_is_schedule_independent(self):
        # trials are drawn in fixed-size blocks from jumped streams, so the
        # first block does not depend on how many trials follow it
        run = cell(0.8)
        long_h0, long_h1, _ = run.sample(40_000, seed=18)
        short_h0, short_h1, _ = run.sample(20_000, seed=18)
        block = 16_384
        assert np.array_equal(long_h0[:block], short_h0[:block])
        assert np.array_equal(long_h1[:block], short_h1[:block])

    def test_rejects_non_positive_trials(self):
        run = cell(0.1)
        with pytest.raises(ValueError):
            run.sample(0, seed=19)


class TestSimulatedRates:
    def probe_thresholds(self, params):
        # place thresholds where both probabilities are well inside (0, 1)
        scale = abs(params.mu1) * math.sqrt(2.0 * params.sigma2)
        mu_sq = abs(params.mu1) ** 2
        from_pfa = [inverse_q(p) * scale for p in (0.3, 0.05, 0.01)]
        from_pd = [2.0 * mu_sq + inverse_q(p) * scale for p in (0.9, 0.5, 0.1)]
        return sorted(from_pfa + from_pd)

    def test_rates_within_three_standard_errors(self):
        trials = 100_000
        checked = 0
        for sigma in (0.1, 0.8):
            run = cell(sigma)
            kappas = self.probe_thresholds(run.params)
            points = roc_sweep(
                run.ctx.array, run.ctx.scene, run.beams, run.w, kappas, trials,
                np.random.default_rng(20), x=run.x,
            )
            for pt in points:
                for analytic, empirical in ((pt.pfa_analytic, pt.pfa_mc), (pt.pd_analytic, pt.pd_mc)):
                    if not 1e-3 <= analytic <= 1.0 - 1e-3:
                        continue
                    se = math.sqrt(analytic * (1.0 - analytic) / trials)
                    assert abs(empirical - analytic) <= 3.0 * se
                    checked += 1
        assert checked >= 10

    def test_intervals_bracket_estimates_with_binomial_width(self):
        trials = 100_000
        run = cell(0.8)
        points = roc_sweep(
            run.ctx.array, run.ctx.scene, run.beams, run.w,
            self.probe_thresholds(run.params), trials, np.random.default_rng(21), x=run.x,
        )
        for pt in points:
            assert pt.trials == trials
            for analytic, empirical, ci in (
                (pt.pfa_analytic, pt.pfa_mc, pt.pfa_ci),
                (pt.pd_analytic, pt.pd_mc, pt.pd_ci),
            ):
                assert ci.lo <= empirical <= ci.hi
                if 1e-3 <= analytic <= 1.0 - 1e-3:
                    expected_width = 2.0 * 1.959963984540054 * math.sqrt(empirical * (1.0 - empirical) / trials)
                    assert ci.hi - ci.lo == pytest.approx(expected_width, rel=0.05)

    def test_interval_coverage_over_independent_replicates(self):
        # a 95% interval should cover the closed-form rate about 95% of the
        # time; points within one sweep share draws, so calibration has to be
        # measured across independently seeded runs
        run = cell(0.8)
        scale = abs(run.params.mu1) * math.sqrt(2.0 * run.params.sigma2)
        mu_sq = abs(run.params.mu1) ** 2
        kappa_fa = inverse_q(0.2) * scale
        kappa_d = 2.0 * mu_sq + inverse_q(0.5) * scale
        replicates = 150
        covered_fa = 0
        covered_d = 0
        for rep in range(replicates):
            points = roc_sweep(
                run.ctx.array, run.ctx.scene, run.beams, run.w,
                [kappa_fa, kappa_d], 2000, np.random.default_rng(1000 + rep), x=run.x,
            )
            low, high = points
            covered_fa += int(low.pfa_ci.lo <= low.pfa_analytic <= low.pfa_ci.hi)
            covered_d += int(high.pd_ci.lo <= high.pd_analytic <= high.pd_ci.hi)
        assert covered_fa >= 0.88 * replicates
        assert covered_d >= 0.88 * replicates
        assert covered_fa < replicates or covered_d < replicates

    def test_repeat_runs_are_identical(self):
        run = cell(0.1)
        kappa = abs(run.params.mu1) ** 2
        first = simulate_detection(
            run.ctx.array, run.ctx.scene, run.beams, run.w, kappa, 20_000,
            np.random.default_rng(22), x=run.x,
        )
        second = simulate_detection(
            run.ctx.array, run.ctx.scene, run.beams, run.w, kappa, 20_000,
            np.random.default_rng(22), x=run.x,
        )
        assert first == second
        third = simulate_detection(
            run.ctx.array, run.ctx.scene, run.beams, run.w, kappa, 20_000,
            np.random.default_rng(23), x=run.x,
        )
        assert (third.pfa_mc, third.pd_mc) != (first.pfa_mc, first.pd_mc)

    def test_single_point_sweep_equals_direct_simulation(self):
        run = cell(0.8)
        kappa = 0.5 * abs(run.params.mu1) ** 2
        swept = roc_sweep(
            run.ctx.array, run.ctx.scene, run.beams, run.w, [kappa], 20_000,
            np.random.default_rng(24), x=run.x,
        )
        direct = simulate_detection(
            run.ctx.array, run.ctx.scene, run.beams, run.w, kappa, 20_000,
            np.random.default_rng(24), x=run.x,
        )
        assert swept == [direct]

    def test_shared_draws_give_monotone_sorted_curves(self):
        run = cell(0.8)
        mu_sq = abs(run.params.mu1) ** 2
        grid = np.linspace(-0.5 * mu_sq, 3.0 * mu_sq, 15)
        shuffled = np.random.default_rng(25).permutation(grid)
        points = roc_sweep(
            run.ctx.array, run.ctx.scene, run.beams, run.w, shuffled, 20_000,
            np.random.default_rng(26), x=run.x,
        )
        kappas = [pt.kappa for pt in points]
        assert kappas == sorted(kappas)
        assert kappas == pytest.approx(list(grid))
        pfa = [pt.pfa_mc for pt in points]
        pd = [pt.pd_mc for pt in points]
        assert np.all(np.diff(pfa) <= 0.0)
        assert np.all(np.diff(pd) <= 0.0)
        for pt in points:
            assert pt.pd_mc >= pt.pfa_mc

    def test_sweep_rejects_bad_grids(self):
        run = cell(0.1)
        for grid in ([], [np.nan], [0.0, np.inf]):
            with pytest.raises(ValueError):
                roc_sweep(
                    run.ctx.array, run.ctx.scene, run.beams, run.w, grid, 100,
                    np.random.default_rng(27), x=run.x,
                )

    def test_absent_target_reports_nan_closed_forms(self):
        run = cell(0.1)
        silent = dataclasses.replace(run.ctx.scene, alpha0=0.0 + 0.0j)
        point = simulate_detection(
            run.ctx.array, silent, run.beams, run.w, 0.0, 20_000,
            np.random.default_rng(28), x=run.x,
        )
        assert math.isnan(point.pfa_analytic)
        assert math.isnan(point.pd_analytic)
        assert 0.0 <= point.pfa_mc <= 1.0
        assert 0.0 <= point.pd_mc <= 1.0


class TestOperatingOrderings:
    def test_stronger_clutter_degrades_detection_everywhere(self):
        # same clutter placements, amplitude scale 0.1 versus 0.8
        light = cell(0.1)
        intense = cell(0.8)
        mu_sq = abs(intense.params.mu1) ** 2
        scale = abs(intense.params.mu1) * math.sqrt(2.0 * intense.params.sigma2)
        for kappa in np.linspace(0.0, 2.0 * mu_sq + 4.0 * scale, 21):
            pd_light = detection_probability(with_threshold(light.params, float(kappa)))
            pd_intense = detection_probability(with_threshold(intense.params, float(kappa)))
            assert pd_light > pd_intense

    def test_more_transmit_power_improves_detection(self):
        low = cell(0.8, power_dbm=30.0)
        high = cell(0.8, power_dbm=36.0)
        mu_sq = abs(low.params.mu1) ** 2
        scale = abs(low.params.mu1) * math.sqrt(2.0 * low.params.sigma2)
        for kappa in np.linspace(0.0, 2.0 * mu_sq + 4.0 * scale, 15):
            pd_low = detection_probability(with_threshold(low.params, float(kappa)))
            pd_high = detection_probability(with_threshold(high.params, float(kappa)))
            assert pd_high > pd_low
