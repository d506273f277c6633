"""Detection statistic moments, closed-form rates, and Monte Carlo agreement.

The statistic parameters are checked against a dense matrix-form oracle, the
closed-form probabilities against an independent erfc-based tail function,
the empirical rates against three-binomial-standard-error bands, and the
record's deflection against the frozen waveform's Cauchy-Schwarz bound.
"""

import dataclasses
import functools
import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import SCENARIO_A, SCENARIO_B
from jrcsim.array_geometry import steering_vector
from jrcsim.context import build_context
from jrcsim.detection import (
    _BLOCK_TRIALS,
    detection_probability,
    false_alarm_probability,
    false_alarm_threshold,
    roc_sweep,
    statistic_moments,
)
from jrcsim.experiments import (
    _table,
    _validation_blocks,
    run_detection_sweep,
    run_validation,
)
from jrcsim.radar_sensing import InterferenceKernel, waveform_from_symbols
from jrcsim.scenario import ArraySection, ScenarioConfig, dbm_to_watts
from jrcsim.stats import binomial_ci, inverse_q
from oracles import (
    clutter_at,
    clutter_covariance,
    full_draw_rates,
    optimal_receive_beamformer,
    random_positions,
    response_matrix,
    sample_test_statistics,
    scalar_false_alarm_threshold,
    transmit_covariance,
)

CFG = ArraySection(n_antennas=5, carrier_ghz=28.0)
TARGET = (5.0, np.pi / 3)
A_TARGET = steering_vector(CFG, *TARGET)
ALPHA0 = 0.5 + 0.2j


def tail_oracle(z):
    # standard normal upper tail, written independently of the package
    return 0.5 * math.erfc(z / math.sqrt(2.0))


class OperatingCell:
    """One end-to-end receive chain: the default context and its operating point at one power."""

    def __init__(self, sigma, power_dbm=30.0):
        scenario = ScenarioConfig()
        self.ctx = build_context(scenario).at_sigma(sigma)
        self.point = self.ctx.operating_point(dbm_to_watts(power_dbm), scenario.power.rho)
        # |mu_1| and sigma^2, as the closed-form rates read them
        self.params = (float(self.point.mu1_abs), float(self.point.sigma2))

    def sample(self, trials, seed, point=None):
        rng = np.random.default_rng(seed)
        return sample_test_statistics(self.ctx, point or self.point, trials=trials, rng=rng)

    def sweep(self, kappas, trials, seed):
        return roc_sweep(self.ctx, self.point, kappas, trials=trials, rng=np.random.default_rng(seed))


@functools.lru_cache(maxsize=None)
def cell(sigma, power_dbm=30.0):
    return OperatingCell(sigma, power_dbm=power_dbm)


class TestStatisticParams:
    def test_matches_dense_matrix_form(self):
        # mu_1 = alpha_0 w^H A x, sigma^2 = ||w||^2 + sum sigma^2 |w^H A_l x|^2
        rng = np.random.default_rng(0)
        ranges, angles = random_positions(rng)
        clutter = clutter_at(CFG, ranges, angles)
        mat = response_matrix(CFG, *TARGET)
        clutter_mats = [response_matrix(CFG, r, theta) for r, theta in zip(ranges, angles)]
        for _ in range(50):
            w = rng.standard_normal(5) + 1j * rng.standard_normal(5)
            x = rng.standard_normal(5) + 1j * rng.standard_normal(5)
            mu1, sigma2 = statistic_moments(w, ALPHA0, A_TARGET, clutter, x)
            mu_expected = ALPHA0 * (w.conj() @ mat @ x)
            var_expected = float(np.vdot(w, w).real) + sum(
                clutter.sigma**2 * abs(w.conj() @ m @ x) ** 2 for m in clutter_mats
            )
            assert mu1 == pytest.approx(mu_expected, rel=1e-12)
            assert sigma2 == pytest.approx(var_expected, rel=1e-12)

    def test_rejects_non_positive_variance(self):
        # one bad entry among good moments raises too, rather than reading NaN
        moments = [(1.0, 0.0), (1.0, -1.0), (np.full(3, 1.0), np.array([4.0, 0.0, 1.0]))]
        for mu1_abs, sigma2 in moments:
            for closed_form in (false_alarm_probability, detection_probability, false_alarm_threshold):
                with pytest.raises(ValueError, match="sigma2 must be positive"):
                    closed_form(mu1_abs, sigma2, 1e-6)


class TestClosedForms:
    # |mu_1| = |1.5 - 0.5j| and sigma^2
    PARAMS = (abs(1.5 - 0.5j), 4.0)

    def scale(self, params):
        mu1_abs, sigma2 = params
        return mu1_abs * math.sqrt(2.0 * sigma2)

    def test_false_alarm_matches_tail_oracle(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            params = (abs(complex(rng.standard_normal(), rng.standard_normal())), float(rng.uniform(0.1, 10.0)))
            kappa = float(rng.uniform(-20.0, 20.0))
            expected = tail_oracle(kappa / self.scale(params))
            assert false_alarm_probability(*params, kappa) == pytest.approx(expected, rel=1e-13, abs=1e-300)

    def test_detection_matches_tail_oracle(self):
        rng = np.random.default_rng(6)
        for _ in range(200):
            params = (abs(complex(rng.standard_normal(), rng.standard_normal())), float(rng.uniform(0.1, 10.0)))
            kappa = float(rng.uniform(-20.0, 20.0))
            mu_sq = params[0] ** 2
            expected = tail_oracle((kappa - 2.0 * mu_sq) / self.scale(params))
            assert detection_probability(*params, kappa) == pytest.approx(expected, rel=1e-13, abs=1e-300)

    def test_zero_threshold_false_alarm_is_half(self):
        assert false_alarm_probability(*self.PARAMS, 0.0) == 0.5

    def test_detection_is_half_at_twice_signal_energy(self):
        mu_sq = self.PARAMS[0] ** 2
        assert detection_probability(*self.PARAMS, 2.0 * mu_sq) == 0.5

    def test_threshold_limits(self):
        low, high = -1e9, 1e9
        assert false_alarm_probability(*self.PARAMS, low) == pytest.approx(1.0, abs=1e-12)
        assert detection_probability(*self.PARAMS, low) == pytest.approx(1.0, abs=1e-12)
        assert false_alarm_probability(*self.PARAMS, high) == pytest.approx(0.0, abs=1e-12)
        assert detection_probability(*self.PARAMS, high) == pytest.approx(0.0, abs=1e-12)

    def test_thresholds_past_the_float_range_read_the_limits_quietly(self):
        # kappa / (|mu_1| sqrt(2 sigma^2)) overflows to +-inf; Q(+-inf) is the
        # right limit, at a float threshold and an array of them alike, and
        # neither may warn
        tiny = (1e-160, 1e-160)
        kappas = np.array([-1e300, -1e-200, 1e-200, 1e300])
        expected = [1.0, 1.0, 0.0, 0.0]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for closed_form in (false_alarm_probability, detection_probability):
                assert [closed_form(*tiny, float(k)) for k in kappas] == expected
                assert [closed_form(*tiny, k) for k in kappas] == expected
                assert list(closed_form(*tiny, kappas)) == expected

    def test_detection_dominates_false_alarm(self):
        # the H1 mean shift 2|mu_1|^2 > 0 moves mass above any threshold
        for kappa in np.linspace(-30.0, 30.0, 41):
            assert detection_probability(*self.PARAMS, kappa) >= false_alarm_probability(*self.PARAMS, kappa)
        mid = self.PARAMS[0] ** 2
        assert detection_probability(*self.PARAMS, mid) > false_alarm_probability(*self.PARAMS, mid)

    def test_rates_non_increasing_in_threshold(self):
        kappas = np.linspace(-30.0, 30.0, 61)
        pfa = [false_alarm_probability(*self.PARAMS, k) for k in kappas]
        pd = [detection_probability(*self.PARAMS, k) for k in kappas]
        assert np.all(np.diff(pfa) <= 0.0)
        assert np.all(np.diff(pd) <= 0.0)
        assert pfa[0] > pfa[-1]
        assert pd[0] > pd[-1]

    def test_zero_signal_rejected(self):
        # one dead entry among live moments raises too, rather than reading NaN
        for degenerate in ((0.0, 1.0), (np.array([1.5, 0.0, 2.0]), np.full(3, 4.0))):
            with pytest.raises(ValueError, match="degenerate"):
                false_alarm_probability(*degenerate, 0.0)
            with pytest.raises(ValueError, match="degenerate"):
                detection_probability(*degenerate, 0.0)
            with pytest.raises(ValueError, match="degenerate"):
                false_alarm_threshold(*degenerate, 1e-6)


def _decades(lo, hi):
    """Positive floats spread evenly over the decades from 10^lo to 10^hi."""
    return st.builds(lambda e, m: m * 10.0**e, st.integers(lo, hi - 1), st.floats(1.0, 10.0, exclude_max=True))


class TestFalseAlarmThreshold:
    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(
        st.lists(
            st.tuples(
                st.one_of(st.sampled_from([1e-160, 3e-100, 1e-12]), _decades(-160, 3)),
                st.one_of(st.sampled_from([1e-6, 1e6]), _decades(-6, 6)),
            ),
            min_size=1,
            max_size=8,
        ),
        st.one_of(
            # kappa_fa misses caps 0.674 and 0.85 by rounding, so the climb runs below zero
            st.sampled_from([1e-300, 0.5, 0.674, 0.7, 0.85, 1.0 - 2.0**-53]),
            _decades(-300, 0),
            st.floats(0.5, 1.0, exclude_max=True),
        ),
    )
    def test_matches_the_scalar_search_bit_for_bit(self, moments, cap):
        # the masked array search stops each entry where the one-threshold
        # scalar search stops, including the negative thresholds of caps
        # above 1/2, whose ulp steps climb toward zero
        expected = [scalar_false_alarm_threshold(m, s, cap).hex() for m, s in moments]
        mu1_abs, sigma2 = np.array(moments).T
        assert [kappa.hex() for kappa in false_alarm_threshold(mu1_abs, sigma2, cap).tolist()] == expected
        single = false_alarm_threshold(*moments[0], cap)
        assert np.ndim(single) == 0 and float(single).hex() == expected[0]

    def test_smallest_threshold_meeting_the_cap(self):
        # kappa_fa = |mu_1| sqrt(2 sigma^2) Q^-1(cap) can miss the cap by
        # rounding; the returned threshold meets it, and the float below it
        # does not unless it is kappa_fa itself
        rng = np.random.default_rng(7)
        nudged = 0
        for _ in range(400):
            mu1_abs = abs(complex(*rng.uniform(-1e3, 1e3, size=2)))
            sigma2 = float(10.0 ** rng.uniform(-6.0, 6.0))
            cap = float(10.0 ** rng.uniform(-300.0, -1e-3))
            kappa = false_alarm_threshold(mu1_abs, sigma2, cap)
            kappa_fa = mu1_abs * math.sqrt(2.0 * sigma2) * inverse_q(cap)
            assert kappa >= kappa_fa
            assert false_alarm_probability(mu1_abs, sigma2, kappa) <= cap
            if kappa > kappa_fa:
                nudged += 1
                assert false_alarm_probability(mu1_abs, sigma2, math.nextafter(kappa, -math.inf)) > cap
        assert nudged > 0

    def test_caps_close_to_one_and_one_half(self):
        params = (abs(1.5 - 0.5j), 4.0)
        assert false_alarm_threshold(*params, 0.5) == 0.0
        for cap in (0.9999999999, 1.0 - 2.0**-53, 0.7, 0.85):
            kappa = false_alarm_threshold(*params, cap)
            assert kappa < 0.0
            assert false_alarm_probability(*params, kappa) <= cap


class TestSampledStatistics:
    def test_empirical_moments_match_parameters(self):
        trials = 200_000
        run = cell(0.8)
        t_h0 = run.sample(trials, seed=11)
        mu1_abs, sigma2 = run.params
        var_expected = 2.0 * mu1_abs**2 * sigma2
        se_mean = math.sqrt(var_expected / trials)
        assert abs(float(np.mean(t_h0))) < 5.0 * se_mean
        assert float(np.var(t_h0)) == pytest.approx(var_expected, rel=0.03)

    def test_h1_is_h0_shifted_by_twice_signal_energy(self):
        # both hypotheses read one set of draws and the target echo is
        # deterministic, so the sweep counts P_D on T_1 = T_0 + 2|mu_1|^2,
        # trial by trial
        run = cell(0.8)
        t_h0 = run.sample(50_000, seed=30)
        shift = 2.0 * abs(complex(run.point.mu1)) ** 2
        assert shift > 1.0
        kappas = np.linspace(-shift, 2.0 * shift, 9)
        curve = run.sweep(kappas, 50_000, seed=30)
        t_h1 = t_h0 + 2.0 * float(run.point.mu1_abs) ** 2
        assert list(curve["pd_mc"]) == [np.mean(t_h1 >= kappa) for kappa in kappas]

    def test_noise_only_variance_carries_the_beamformer_norm(self):
        # without clutter, w^H n ~ CN(0, ||w||^2), so var T = 2|mu_1|^2 ||w||^2;
        # ||w||^2 is far from 1 here, so a unit-scale noise draw misses by far
        run = cell(0.0)
        w_norm2 = float(np.vdot(run.point.w, run.point.w).real)
        assert w_norm2 > 10.0
        mu1_abs, sigma2 = run.params
        assert sigma2 == pytest.approx(w_norm2, rel=1e-12)
        t_h0 = run.sample(200_000, seed=31)
        assert float(np.var(t_h0)) == pytest.approx(2.0 * mu1_abs**2 * w_norm2, rel=0.015)

    def test_every_scatterer_adds_its_own_variance(self):
        # steering w at each scatterer in turn gives that scatterer a large
        # share of sigma^2 (at least 9 % here), so the sampled variance only
        # matches 2|mu_1|^2 sigma^2 if every scatterer has its own amplitude
        run = cell(0.8)
        ctx = run.ctx
        for l, a_l in enumerate(ctx.clutter.matrix.T):
            mu1, sigma2 = statistic_moments(a_l, ctx.alpha0, ctx.target_steering, ctx.clutter, run.point.x)
            share = abs(np.vdot(a_l, ctx.clutter.echoes(run.point.x)[l])) ** 2 / sigma2
            assert share > 0.05
            steered = dataclasses.replace(run.point, w=a_l, mu1=mu1, sigma2=sigma2)
            t_h0 = run.sample(200_000, seed=32 + l, point=steered)
            assert float(np.var(t_h0)) == pytest.approx(2.0 * abs(mu1) ** 2 * sigma2, rel=0.015)

    def test_null_statistic_is_symmetric_and_light_tailed(self):
        # T is linear in the Gaussian clutter amplitudes and noise, so the
        # standardized null sample should show no skew
        trials = 200_000
        t_h0 = cell(0.8).sample(trials, seed=12)
        z = (t_h0 - np.mean(t_h0)) / np.std(t_h0)
        assert abs(float(np.mean(z**3))) < 0.05
        assert float(np.mean(z**4)) == pytest.approx(3.0, abs=0.2)

    def test_moments_agree_with_reported_parameters(self):
        # the point's moments match those of the dense Cholesky beamformer
        run = cell(0.1)
        ctx, point = run.ctx, run.point
        cov = clutter_covariance(ctx.clutter, transmit_covariance(point.beams))
        w = optimal_receive_beamformer(ctx.target_steering, cov, point.x)
        mu1, sigma2 = statistic_moments(w, ctx.alpha0, ctx.target_steering, ctx.clutter, point.x)
        assert run.point.mu1 == pytest.approx(mu1, rel=1e-12)
        assert run.params == pytest.approx((abs(mu1), sigma2), rel=1e-12)

    def test_waveform_stays_frozen_across_trials(self):
        # every trial transmits the point's x, so the H1 mean sits at 2|mu_1|^2
        # of that x; a point with another frozen x moves it to its own value
        run = cell(0.8)
        ctx, trials = run.ctx, 50_000
        x = run.point.x * np.exp(2j * np.pi * np.random.default_rng(14).uniform(size=run.point.x.shape))
        mu1, sigma2 = statistic_moments(run.point.w, ctx.alpha0, ctx.target_steering, ctx.clutter, x)
        other = dataclasses.replace(run.point, x=x, mu1=mu1, sigma2=sigma2)
        means = []
        for point in (run.point, other):
            mu_sq = abs(point.mu1) ** 2
            t_h1 = run.sample(trials, seed=15, point=point) + 2.0 * mu_sq
            se = math.sqrt(2.0 * mu_sq * point.sigma2 / trials)
            assert float(np.mean(t_h1)) == pytest.approx(2.0 * mu_sq, abs=5.0 * se)
            means.append((2.0 * mu_sq, se))
        assert abs(means[0][0] - means[1][0]) > 20.0 * max(means[0][1], means[1][1])

    def test_a_prefix_does_not_depend_on_the_trials_that_follow(self):
        # one stream serves every trial count, so a shorter run is a prefix of
        # a longer one at any length, inside a block or across block edges
        run = cell(0.8)
        block = _BLOCK_TRIALS
        for long, short in ((40_000, 20_001), (2 * block + 3, block + 1), (2 * block + 3, block - 1)):
            assert np.array_equal(run.sample(long, seed=18)[:short], run.sample(short, seed=18))

    @pytest.mark.parametrize("sigma", [0.0, 0.8, None], ids=["sigma 0", "sigma 0.8", "no clutter"])
    def test_each_trial_is_one_normal_at_the_closed_form_scale(self, sigma):
        # T_0 is a linear functional of i.i.d. normals, so it is one normal per
        # trial scaled by |mu_1| sqrt(2 sigma^2); the sampler sums its scale
        # from the per-scatterer echoes and the noise projection, and sigma^2
        # is the closed-form sum, so each dropped term shows here
        if sigma is None:
            ctx, point = degenerate_cell("no clutter")
        else:
            ctx, point = cell(sigma).ctx, cell(sigma).point
        trials, seed = 30_000, 17
        t_h0 = sample_test_statistics(ctx, point, trials=trials, rng=np.random.default_rng(seed))
        z = np.random.Generator(np.random.default_rng(seed).bit_generator.jumped(1)).standard_normal(trials)
        scale = float(point.mu1_abs) * math.sqrt(2.0 * float(point.sigma2))
        np.testing.assert_allclose(t_h0, scale * z, rtol=1e-12, atol=0.0)

    def test_rejects_non_positive_trials(self):
        run = cell(0.1)
        with pytest.raises(ValueError):
            run.sample(0, seed=19)


class TestSimulatedRates:
    def probe_thresholds(self, params):
        # place thresholds where both probabilities are well inside (0, 1)
        mu1_abs, sigma2 = params
        scale = mu1_abs * math.sqrt(2.0 * sigma2)
        mu_sq = mu1_abs**2
        from_pfa = [inverse_q(p) * scale for p in (0.3, 0.05, 0.01)]
        from_pd = [2.0 * mu_sq + inverse_q(p) * scale for p in (0.9, 0.5, 0.1)]
        return sorted(from_pfa + from_pd)

    def test_rates_within_three_standard_errors(self):
        trials = 100_000
        checked = 0
        for sigma in (0.1, 0.8):
            run = cell(sigma)
            curve = run.sweep(self.probe_thresholds(run.params), trials, seed=20)
            for rate in ("pfa", "pd"):
                for analytic, empirical in zip(curve[f"{rate}_analytic"], curve[f"{rate}_mc"]):
                    if not 1e-3 <= analytic <= 1.0 - 1e-3:
                        continue
                    se = math.sqrt(analytic * (1.0 - analytic) / trials)
                    assert abs(empirical - analytic) <= 3.0 * se
                    checked += 1
        assert checked >= 10

    def test_intervals_bracket_estimates_with_binomial_width(self):
        trials = 100_000
        run = cell(0.8)
        curve = run.sweep(self.probe_thresholds(run.params), trials, seed=21)
        for rate in ("pfa", "pd"):
            for analytic, empirical, lo, hi in zip(
                *(curve[f"{rate}_{column}"] for column in ("analytic", "mc", "ci_lo", "ci_hi"))
            ):
                assert lo <= empirical <= hi
                if 1e-3 <= analytic <= 1.0 - 1e-3:
                    expected_width = 2.0 * 1.959963984540054 * math.sqrt(empirical * (1.0 - empirical) / trials)
                    assert hi - lo == pytest.approx(expected_width, rel=0.05)

    def test_interval_coverage_over_independent_replicates(self):
        # a 95% interval should cover the closed-form rate about 95% of the
        # time; points within one sweep share draws, so calibration has to be
        # measured across independently seeded runs
        run = cell(0.8)
        mu1_abs, sigma2 = run.params
        scale = mu1_abs * math.sqrt(2.0 * sigma2)
        mu_sq = mu1_abs**2
        kappa_fa = inverse_q(0.2) * scale
        kappa_d = 2.0 * mu_sq + inverse_q(0.5) * scale
        replicates = 150
        covered_fa = 0
        covered_d = 0
        for rep in range(replicates):
            c = run.sweep([kappa_fa, kappa_d], 2000, seed=1000 + rep)
            covered_fa += int(c["pfa_ci_lo"][0] <= c["pfa_analytic"][0] <= c["pfa_ci_hi"][0])
            covered_d += int(c["pd_ci_lo"][1] <= c["pd_analytic"][1] <= c["pd_ci_hi"][1])
        assert covered_fa >= 0.88 * replicates
        assert covered_d >= 0.88 * replicates
        assert covered_fa < replicates or covered_d < replicates

    def test_repeat_runs_are_identical(self):
        run = cell(0.1)
        kappa = run.params[0] ** 2
        first = run.sweep([kappa], 20_000, seed=22)
        second = run.sweep([kappa], 20_000, seed=22)
        assert first.keys() == second.keys()
        assert all(np.array_equal(first[k], second[k]) for k in first)
        third = run.sweep([kappa], 20_000, seed=23)
        assert (third["pfa_mc"], third["pd_mc"]) != (first["pfa_mc"], first["pd_mc"])

    def test_single_point_sweep_equals_direct_simulation(self):
        run = cell(0.8)
        # one threshold applied by hand to the sampled statistic, and the same
        # threshold inside a larger grid on the same stream
        kappa = 0.5 * run.params[0] ** 2
        swept = run.sweep([kappa], 20_000, seed=24)
        t_h0 = run.sample(20_000, seed=24)
        t_h1 = t_h0 + 2.0 * float(run.point.mu1_abs) ** 2
        assert (swept["pfa_mc"][0], swept["pd_mc"][0]) == (np.mean(t_h0 >= kappa), np.mean(t_h1 >= kappa))
        wider = run.sweep([-kappa, kappa, 3.0 * kappa], 20_000, seed=24)
        assert swept.keys() == wider.keys()
        assert all(wider[k][1] == swept[k][0] for k in swept)

    def test_shared_draws_give_monotone_sorted_curves(self):
        run = cell(0.8)
        mu_sq = run.params[0] ** 2
        grid = np.linspace(-0.5 * mu_sq, 3.0 * mu_sq, 15)
        shuffled = np.random.default_rng(25).permutation(grid)
        curve = run.sweep(shuffled, 20_000, seed=26)
        kappas = list(curve["kappa"])
        assert kappas == sorted(kappas)
        assert kappas == pytest.approx(list(grid))
        assert np.all(np.diff(curve["pfa_mc"]) <= 0.0)
        assert np.all(np.diff(curve["pd_mc"]) <= 0.0)
        assert np.all(curve["pd_mc"] >= curve["pfa_mc"])

    def test_closed_forms_are_the_scalar_closed_forms(self):
        # the kappa arrays hold, entry by entry, the bits of the scalar calls,
        # and each rate's interval the bits of a one-rate interval call
        run = cell(0.8)
        mu_sq = run.params[0] ** 2
        trials = 1_000
        curve = run.sweep(np.linspace(-mu_sq, 4.0 * mu_sq, 11), trials, seed=29)
        for kappa, pfa, pd in zip(curve["kappa"], curve["pfa_analytic"], curve["pd_analytic"]):
            assert pfa == false_alarm_probability(*run.params, kappa)
            assert pd == detection_probability(*run.params, kappa)
        for rate in ("pfa", "pd"):
            lo, hi = binomial_ci(np.rint(curve[f"{rate}_mc"] * trials).astype(int), trials)
            assert np.array_equal(curve[f"{rate}_ci_lo"], lo) and np.array_equal(curve[f"{rate}_ci_hi"], hi)

    def test_sweep_rejects_bad_grids(self):
        run = cell(0.1)
        for grid in ([], [np.nan], [0.0, np.inf]):
            with pytest.raises(ValueError):
                run.sweep(grid, 100, seed=27)

    def test_absent_target_reports_nan_closed_forms(self):
        silent = dataclasses.replace(cell(0.1).ctx, alpha0=0.0 + 0.0j)
        silent_point = silent.operating_point(dbm_to_watts(30.0), 0.5)
        curve = roc_sweep(silent, silent_point, [0.0], trials=20_000, rng=np.random.default_rng(28))
        assert math.isnan(curve["pfa_analytic"][0])
        assert math.isnan(curve["pd_analytic"][0])
        assert 0.0 <= curve["pfa_mc"][0] <= 1.0
        assert 0.0 <= curve["pd_mc"][0] <= 1.0


class TestBlockedStreaming:
    # trial counts at the block edges: one and two trials, a block short by
    # one, exactly one block, one trial into a second block, and a partial third
    B = _BLOCK_TRIALS
    EDGES = (1, 2, B - 1, B, B + 1, 2 * B + 3)

    @pytest.mark.parametrize("name", ["20 dBm", "30 dBm", "40 dBm", "sigma 0", "no clutter"])
    def test_blocked_counts_equal_one_full_draw(self, name):
        # the sweep streams its trials through one buffer a block at a time;
        # its rates equal, bit for bit, one draw of all the trials sorted and
        # counted at once, at every trial count around the block edges
        if name == "no clutter":
            ctx, point = degenerate_cell(name)
        else:
            run = cell(0.0) if name == "sigma 0" else cell(0.8, power_dbm=float(name.split()[0]))
            ctx, point = run.ctx, run.point
        shift = 2.0 * float(point.mu1_abs) ** 2
        kappas = np.linspace(-shift, 2.0 * shift, 13)
        for trials in self.EDGES:
            curve = roc_sweep(ctx, point, kappas, trials=trials, rng=np.random.default_rng(trials))
            expected = full_draw_rates(ctx, point, kappas, trials=trials, rng=np.random.default_rng(trials))
            for column, rates in expected.items():
                assert curve[column].tobytes() == rates.tobytes(), (trials, column)

    @pytest.mark.parametrize("name", ["30 dBm", "sigma 0"])
    def test_thresholds_on_and_beside_trial_values_count_as_one_full_draw(self, name):
        # each block counts only the thresholds between its minimum and its
        # maximum: a grid on each block's minimum, maximum and one interior
        # trial, under both hypotheses, and on their neighbouring floats, gives
        # the hits of one full draw; so do grids wholly below every trial and
        # wholly above every trial
        run = cell(0.0) if name == "sigma 0" else cell(0.8)
        trials = self.B + 5
        t_h0 = run.sample(trials, seed=7)
        t_h1 = t_h0 + 2.0 * np.float_power(run.point.mu1_abs, 2.0)
        ties = []
        for t in (t_h0, t_h1):
            for block in (t[: self.B], t[self.B :]):
                ties += [block.min(), block.max(), block[len(block) // 2]]
        ties = np.array(ties)
        lowest, highest = min(t_h0.min(), t_h1.min()), max(t_h0.max(), t_h1.max())
        grids = {
            "ties": np.unique(np.concatenate((ties, np.nextafter(ties, -np.inf), np.nextafter(ties, np.inf)))),
            "below": np.nextafter(lowest, -np.inf) - np.array([1.0, 0.5, 0.0]) * abs(lowest),
            "above": np.nextafter(highest, np.inf) + np.array([0.0, 0.5, 1.0]) * abs(highest),
        }
        curves = {grid: run.sweep(kappas, trials, seed=7) for grid, kappas in grids.items()}
        for grid, kappas in grids.items():
            expected = full_draw_rates(run.ctx, run.point, kappas, trials=trials, rng=np.random.default_rng(7))
            for column, rates in expected.items():
                assert curves[grid][column].tobytes() == rates.tobytes(), (grid, column)
        for grid, rate in (("below", 1.0), ("above", 0.0)):
            assert np.all(curves[grid]["pfa_mc"] == rate) and np.all(curves[grid]["pd_mc"] == rate)


def degenerate_cell(name):
    """The context and operating point of a detection cell at 30 dBm on a
    scene at the edge of the model."""
    scenario = ScenarioConfig()
    if name == "no clutter":
        scenario = dataclasses.replace(scenario, clutter=dataclasses.replace(scenario.clutter, count=0))
    elif name == "one antenna":
        scenario = dataclasses.replace(scenario, array=dataclasses.replace(scenario.array, n_antennas=1))
    ctx = build_context(scenario)
    if name == "absent target":
        ctx = dataclasses.replace(ctx, alpha0=0.0 + 0.0j)
    return ctx, ctx.operating_point(dbm_to_watts(30.0), scenario.power.rho)


class TestDegenerateCells:
    TRIALS = 5_000

    @pytest.mark.parametrize("name", ["no clutter", "one antenna", "absent target"])
    def test_finite_counts_valid_intervals_and_one_row_for_both_tables(self, name):
        ctx, point = degenerate_cell(name)
        assert ctx.clutter.matrix.shape == (ctx.scenario.array.n_antennas, 0 if name == "no clutter" else 3)
        assert ctx.scenario.array.n_antennas == (1 if name == "one antenna" else 5)
        live = name != "absent target"
        scale = float(point.mu1_abs) * math.sqrt(2.0 * float(point.sigma2)) if live else 1.0
        kappas = np.linspace(-3.0 * scale, 2.0 * float(point.mu1_abs) ** 2 + 3.0 * scale, 9)
        kappas = np.unique(np.append(kappas, [0.0, 1e-300]))
        curve = roc_sweep(ctx, point, kappas, trials=self.TRIALS, rng=np.random.default_rng(40))
        for rate in ("pfa", "pd"):
            hits = curve[f"{rate}_mc"] * self.TRIALS
            assert np.all(np.isfinite(hits)) and np.allclose(hits, np.round(hits), rtol=0.0, atol=1e-9)
            assert np.all((0.0 <= curve[f"{rate}_ci_lo"]) & (curve[f"{rate}_ci_lo"] <= curve[f"{rate}_mc"]))
            assert np.all((curve[f"{rate}_mc"] <= curve[f"{rate}_ci_hi"]) & (curve[f"{rate}_ci_hi"] <= 1.0))
            assert np.all(np.isfinite(curve[f"{rate}_analytic"])) == live
        if not live:
            # mu_1 = 0 gives T = 0 in every trial: both rates are 1 up to
            # kappa = 0 and 0 above it, and the closed forms do not apply
            expected = (curve["kappa"] <= 0.0).astype(float)
            assert np.array_equal(curve["pfa_mc"], expected)
            assert np.array_equal(curve["pd_mc"], expected)
        # the detection-sweep row and the validate rows of one threshold
        # report the same numbers
        keys = {"power_dbm": 30.0, "clutter": "intense"}
        detection = _table("detection_sweep", [{**curve, **keys, "trials": self.TRIALS}], ()).rows
        report = _table("validate", _validation_blocks(keys, curve, self.TRIALS), ())
        validate = {(r["kappa"], r["metric"]): r for r in report.rows}
        assert len(detection) == kappas.size and len(validate) == 2 * kappas.size
        for row in detection:
            assert row["trials"] == self.TRIALS
            for rate in ("pfa", "pd"):
                other = validate[(row["kappa"], rate)]
                got = (row[f"{rate}_mc"], row[f"{rate}_ci_lo"], row[f"{rate}_ci_hi"])
                assert got == (other["mc"], other["ci_lo"], other["ci_hi"])
                if live:
                    assert row[f"{rate}_analytic"] == other["analytic"]
                else:
                    assert math.isnan(row[f"{rate}_analytic"]) and math.isnan(other["analytic"])
                    assert other["checked"] is False and other["ok"] is True

    @pytest.mark.parametrize("section,field,value", [("clutter", "count", 0), ("array", "n_antennas", 1)])
    def test_both_commands_agree_on_a_shared_grid(self, section, field, value):
        base = ScenarioConfig()
        scenario = dataclasses.replace(
            base,
            **{section: dataclasses.replace(getattr(base, section), **{field: value})},
            detection=dataclasses.replace(base.detection, trials=2_000, kappa_min=-5.0, kappa_max=50.0, kappa_points=7),
        )
        (sweep,) = run_detection_sweep(scenario)
        (report,) = run_validation(scenario)
        assert len(report.rows) == 2 * len(sweep.rows) == 2 * 2 * 2 * 7
        validate = {(r["power_dbm"], r["clutter"], r["kappa"], r["metric"]): r for r in report.rows}
        for row in sweep.rows:
            for rate in ("pfa", "pd"):
                other = validate[(row["power_dbm"], row["clutter"], row["kappa"], rate)]
                assert math.isfinite(row[f"{rate}_analytic"])
                assert row[f"{rate}_analytic"] == other["analytic"]
                for r, mc, lo, hi in ((row, f"{rate}_mc", f"{rate}_ci_lo", f"{rate}_ci_hi"), (other, "mc", "ci_lo", "ci_hi")):
                    assert 0.0 <= r[lo] <= r[mc] <= r[hi] <= 1.0
                    assert r[mc] * 2_000 == pytest.approx(round(r[mc] * 2_000), rel=0.0, abs=1e-9)
        assert all(r["ok"] for r in report.rows)


class TestOperatingOrderings:
    def test_stronger_clutter_degrades_detection_everywhere(self):
        # same clutter placements, amplitude scale 0.1 versus 0.8
        light = cell(0.1)
        intense = cell(0.8)
        mu1_abs, sigma2 = intense.params
        mu_sq, scale = mu1_abs**2, mu1_abs * math.sqrt(2.0 * sigma2)
        for kappa in np.linspace(0.0, 2.0 * mu_sq + 4.0 * scale, 21):
            pd_light = detection_probability(*light.params, kappa)
            pd_intense = detection_probability(*intense.params, kappa)
            assert pd_light > pd_intense

    def test_more_transmit_power_improves_detection(self):
        low = cell(0.8, power_dbm=30.0)
        high = cell(0.8, power_dbm=36.0)
        mu1_abs, sigma2 = low.params
        mu_sq, scale = mu1_abs**2, mu1_abs * math.sqrt(2.0 * sigma2)
        for kappa in np.linspace(0.0, 2.0 * mu_sq + 4.0 * scale, 15):
            pd_low = detection_probability(*low.params, kappa)
            pd_high = detection_probability(*high.params, kappa)
            assert pd_high > pd_low


@st.composite
def frozen_waveform_points(draw):
    """A drawn scene, split and power: N from 1 to 16, 0-9 scatterers, sigma 0
    or from 0.01 to 32, either fading, rho in [0, 1] and P from 1e-4 to 1e5 W."""
    sc = ScenarioConfig()
    sc = dataclasses.replace(
        sc,
        seed=draw(st.integers(0, 2**32 - 1)),
        array=dataclasses.replace(sc.array, n_antennas=draw(st.integers(1, 16))),
        clutter=dataclasses.replace(
            sc.clutter, count=draw(st.integers(0, 9)), sigma=draw(st.one_of(st.just(0.0), st.floats(0.01, 32.0)))
        ),
        comm=dataclasses.replace(sc.comm, fading=draw(st.sampled_from(["los", "rayleigh"]))),
    )
    return sc, draw(st.floats(0.0, 1.0)), 10.0 ** draw(st.floats(-4.0, 5.0))


class TestFrozenWaveformBound:
    """w = W^-1 a (a^T x) is matched to the symbol-averaged covariance W, but the
    detector is scored on the frozen waveform's own, W_x = I + P B diag(g_x) B^H
    with g_x,l = sigma^2 |a_l^T x_1|^2 for x = sqrt(P) x_1. By Cauchy-Schwarz no w
    gives a deflection^2 above D_x^2 = 2 |alpha_0|^2 P |a^T x_1|^2 a^H W_x^-1 a,
    and w = W_x^-1 a (a^T x) attains it; D_x rises with P while the record's
    deflection need not."""

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(frozen_waveform_points())
    # the non-monotone scenes at their splits, across their falling bands
    @example((SCENARIO_A, 0.35, 32.4))
    @example((SCENARIO_A, 0.35, 38.1))
    @example((SCENARIO_A, 0.35, 39.8))
    @example((SCENARIO_B, 0.95, 0.05))
    @example((SCENARIO_B, 0.95, 0.1906375))
    @example((SCENARIO_B, 0.95, 3.0))
    def test_the_record_is_bounded_and_the_frozen_match_attains_it(self, drawn):
        sc, rho, power = drawn
        ctx = build_context(sc)
        point = ctx.operating_point(power, rho)
        assume(point.mu1_abs > 0.0)
        a, clutter = ctx.target_steering, ctx.clutter
        x1 = waveform_from_symbols(ctx.beams_at(1.0, rho), ctx.symbols)
        frozen = InterferenceKernel(clutter, clutter.gains(x1[None, :]))  # W_x at unit sigma and power
        scale = clutter.sigma**2 * power
        bound = 2.0 * abs(ctx.alpha0) ** 2 * power * abs(a @ x1) ** 2 * frozen.quadratic(a, [scale])[0]
        assert point.deflection**2 <= bound * (1.0 + 1e-10)
        w = frozen.solve(a * (a @ point.x), scale)
        mu1, sigma2 = statistic_moments(w, ctx.alpha0, a, clutter, point.x)
        assert 2.0 * abs(mu1) ** 2 / sigma2 == pytest.approx(bound, rel=1e-10)
