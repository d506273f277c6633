"""Constraint targets, point audits, power minimization, and the tradeoff sweep.

The minimizer is checked against a direct scan of its own coarse grid plus a
below-tolerance infeasibility probe, so the reported power is certified
minimal to within the bisection tolerance.
"""

import dataclasses

import numpy as np
import pytest

from jrcsim.comm_link import mrc_rate, rate_threshold
from jrcsim.context import build_context
from jrcsim.detection import (
    detection_probability,
    false_alarm_probability,
    statistic_params,
    with_threshold,
)
from jrcsim.power_allocation import (
    ConstraintTargets,
    evaluate_point,
    first_feasible_split,
    minimize_power,
    threshold_grid,
    tradeoff_sweep,
)
from jrcsim.radar_sensing import (
    average_scnr,
    clutter_covariance,
    optimal_receive_beamformer,
    scnr_at_optimum,
    transmit_covariance,
)
from jrcsim.scenario import ConfigError, ScenarioConfig, dbm_to_watts, watts_to_dbm
from jrcsim.stats import q_function


@pytest.fixture(scope="module")
def fast_context(fast_scenario):
    return build_context(fast_scenario)


@pytest.fixture(scope="module")
def solved(fast_context):
    return minimize_power(fast_context)


class TestConstraintTargets:
    def test_from_scenario_uses_linear_sinr_threshold(self):
        targets = ConstraintTargets.from_scenario(ScenarioConfig())
        assert targets.gamma_min == rate_threshold(5.0)
        assert targets.gamma_min == pytest.approx(31.0, rel=1e-12)
        assert targets.pfa_max == 1e-6
        assert targets.pd_min == 0.6
        assert targets.p_max_watts == pytest.approx(dbm_to_watts(46.0), rel=1e-12)

    def test_rejects_out_of_range_targets(self):
        good = dict(gamma_min=31.0, pfa_max=1e-6, pd_min=0.6, p_max_watts=39.8)
        for bad in (
            dict(gamma_min=-1.0),
            dict(pfa_max=0.0),
            dict(pfa_max=1.5),
            dict(pd_min=-0.1),
            dict(pd_min=1.1),
            dict(p_max_watts=0.0),
        ):
            with pytest.raises(ValueError):
                ConstraintTargets(**{**good, **bad})


class TestThresholdGrid:
    def test_symmetric_span_scaled_by_statistic_size(self):
        grid = threshold_grid(1.0, 2.0, 101)
        assert len(grid) == 101
        assert grid[0] == pytest.approx(-grid[-1], rel=1e-12)
        assert grid[-1] == pytest.approx(10.0 * (2.0 + 1.0), rel=1e-12)
        assert np.all(np.diff(grid) > 0.0)

    def test_grid_covers_the_whole_operating_curve(self):
        # both probabilities saturate at the ends of the window
        mu, sigma2 = 1.0, 2.0
        grid = threshold_grid(mu, sigma2, 51)
        scale = mu * np.sqrt(2.0 * sigma2)
        assert q_function(grid[0] / scale) == pytest.approx(1.0, abs=1e-12)
        assert q_function(grid[-1] / scale) == pytest.approx(0.0, abs=1e-12)
        assert q_function((grid[0] - 2.0 * mu**2) / scale) == pytest.approx(1.0, abs=1e-12)
        assert q_function((grid[-1] - 2.0 * mu**2) / scale) == pytest.approx(0.0, abs=1e-12)


class TestEvaluatePoint:
    def test_zero_power_with_positive_threshold(self, default_context):
        point = evaluate_point(default_context, 0.0, 0.5, 1.0)
        assert point.degenerate
        assert point.rate_bps_hz == 0.0
        assert point.pfa == 0.0 and point.pd == 0.0
        assert point.meets_pfa and not point.meets_pd
        assert not point.meets_rate
        assert point.within_budget
        assert not point.feasible

    def test_zero_power_with_non_positive_threshold_always_alarms(self, default_context):
        point = evaluate_point(default_context, 0.0, 0.5, -1.0)
        assert point.degenerate
        assert point.pfa == 1.0 and point.pd == 1.0
        assert not point.meets_pfa
        assert not point.feasible

    def test_rejects_negative_power(self, default_context):
        with pytest.raises(ValueError):
            evaluate_point(default_context, -1.0, 0.5, 0.0)

    def test_fields_match_independent_reassembly(self, default_context):
        # rebuild the same operating point from the public pieces
        ctx = default_context
        power, rho = 2.0, 0.5
        beams = ctx.beams_at(power, rho)
        x = ctx.waveform_at(beams)
        cov = clutter_covariance(ctx.array, ctx.scene, transmit_covariance(beams))
        w = optimal_receive_beamformer(ctx.target_steering, cov, x)
        params = statistic_params(
            w, ctx.alpha0, ctx.target_steering, ctx.clutter, x, eta=1.0
        )
        kappa = abs(params.mu1) ** 2
        point = evaluate_point(ctx, power, rho, kappa)
        assert point.mu1_abs == pytest.approx(abs(params.mu1), rel=1e-12)
        assert point.sigma2 == pytest.approx(params.sigma2, rel=1e-12)
        at = with_threshold(params, kappa)
        assert point.pfa == pytest.approx(false_alarm_probability(at), rel=1e-12)
        assert point.pd == pytest.approx(detection_probability(at), rel=1e-12)
        assert point.rate_bps_hz == pytest.approx(
            mrc_rate(point.gamma_direct, point.gamma_relayed), rel=1e-12
        )
        assert point.scnr_opt == pytest.approx(
            scnr_at_optimum(ctx.alpha0, ctx.target_steering, cov, x), rel=1e-12
        )
        assert point.scnr_avg == pytest.approx(
            average_scnr(ctx.array, beams, ctx.alpha0, ctx.target_steering, ctx.scene), rel=1e-12
        )

    def test_budget_holds_by_construction(self, default_context):
        for power in (0.01, 1.0, 10.0):
            for rho in (0.0, 0.3, 1.0):
                point = evaluate_point(default_context, power, rho, 0.0)
                assert point.within_budget

    def test_feasible_is_the_conjunction_of_flags(self, default_context):
        point = evaluate_point(default_context, 2.0, 0.5, 0.0)
        assert point.feasible == (
            point.meets_rate and point.meets_pfa and point.meets_pd and point.within_budget
        )

    def test_all_radar_split_carries_no_data(self, default_context):
        # rho = 1 silences the communication beam entirely
        ctx = default_context
        point = evaluate_point(ctx, 2.0, 1.0, 0.0)
        assert point.gamma_direct == 0.0
        assert point.gamma_relayed == 0.0
        assert point.rate_bps_hz == 0.0
        assert not point.meets_rate

    def test_all_comm_split_degrades_sensing(self, default_context):
        ctx = default_context
        comm_only = evaluate_point(ctx, 2.0, 0.0, 0.0)
        radar_only = evaluate_point(ctx, 2.0, 1.0, 0.0)
        assert comm_only.rate_bps_hz > 0.0
        assert radar_only.scnr_avg > comm_only.scnr_avg


class TestMinimizePower:
    def test_default_targets_are_reachable(self, solved):
        result = solved
        assert result.feasible
        assert 0.0 < result.p_star_watts <= result.p_ceiling_watts
        assert 0.0 <= result.rho_star <= 1.0
        assert result.evaluations > 0
        assert result.p_ceiling_watts == pytest.approx(dbm_to_watts(46.0), rel=1e-12)

    def test_certificate_point_revalidates(self, fast_context, solved):
        result = solved
        point = result.point
        assert point.feasible
        assert point.power_watts == result.p_star_watts
        assert point.rho == result.rho_star
        assert point.kappa == result.kappa_star
        again = evaluate_point(
            fast_context, result.p_star_watts, result.rho_star, result.kappa_star
        )
        assert again == point

    def test_tolerance_below_optimum_is_infeasible(self, fast_context, solved):
        result = solved
        assert result.tolerance_watts == pytest.approx(
            fast_context.scenario.optimizer.tol_factor * result.p_ceiling_watts, rel=1e-12
        )
        probe = result.p_star_watts - result.tolerance_watts
        assert probe > 0.0
        assert first_feasible_split(fast_context, probe) is None

    def test_matches_direct_scan_of_the_coarse_grid(self, fast_context, solved):
        # feasibility along the power axis is monotone, and the reported
        # optimum lies inside the bracket the scan identifies
        sc = fast_context.scenario
        powers = np.geomspace(
            dbm_to_watts(sc.power.min_dbm), dbm_to_watts(sc.targets.p_max_dbm), sc.optimizer.power_points
        )
        flags = [first_feasible_split(fast_context, float(p)) is not None for p in powers]
        assert flags == sorted(flags)  # infeasible powers all precede feasible ones
        assert any(flags)
        i = flags.index(True)
        assert i > 0
        assert powers[i - 1] < solved.p_star_watts <= powers[i] * (1.0 + 1e-12)

    def test_feasibility_persists_above_the_optimum(self, fast_context, solved):
        for p in np.geomspace(solved.p_star_watts, solved.p_ceiling_watts, 4):
            assert first_feasible_split(fast_context, float(p)) is not None

    def test_infeasible_ceiling_reports_cleanly(self, fast_context):
        targets = ConstraintTargets(
            gamma_min=31.0, pfa_max=1e-6, pd_min=0.6, p_max_watts=dbm_to_watts(10.0)
        )
        result = minimize_power(fast_context, targets=targets)
        assert not result.feasible
        assert result.p_star_watts is None
        assert result.rho_star is None
        assert result.kappa_star is None
        assert result.point is None
        assert result.p_ceiling_watts == pytest.approx(dbm_to_watts(10.0), rel=1e-12)
        assert result.evaluations > 0

    def test_vacuous_targets_stop_at_the_grid_floor(self, fast_context):
        targets = ConstraintTargets(
            gamma_min=0.0, pfa_max=1.0, pd_min=0.0, p_max_watts=dbm_to_watts(46.0)
        )
        result = minimize_power(fast_context, targets=targets)
        assert result.feasible
        assert result.p_star_watts == pytest.approx(
            dbm_to_watts(fast_context.scenario.power.min_dbm), rel=1e-12
        )
        assert result.rho_star == 0.0
        # first allowed threshold is the bottom of the window
        expected_kappa = threshold_grid(
            result.point.mu1_abs, result.point.sigma2, fast_context.scenario.optimizer.kappa_points
        )[0]
        assert result.kappa_star == pytest.approx(expected_kappa, rel=1e-12)
        assert result.evaluations == 2  # one probe plus the certificate

    def test_unreachable_rate_floor_is_infeasible(self, fast_context):
        targets = ConstraintTargets(
            gamma_min=1e12, pfa_max=1e-6, pd_min=0.6, p_max_watts=dbm_to_watts(46.0)
        )
        result = minimize_power(fast_context, targets=targets)
        assert not result.feasible

    def test_floor_above_ceiling_is_rejected(self, fast_context):
        targets = ConstraintTargets(
            gamma_min=31.0, pfa_max=1e-6, pd_min=0.6, p_max_watts=dbm_to_watts(-20.0)
        )
        with pytest.raises(ValueError):
            minimize_power(fast_context, targets=targets)

    def test_rejects_bad_grids_and_tolerances(self, fast_context):
        # a bad grid cannot reach the optimizer: the section refuses to be built
        opt = fast_context.scenario.optimizer
        for field, value in (
            ("power_points", 1),
            ("rho_points", 0),
            ("kappa_points", 2),
            ("tol_factor", 0.0),
            ("fixed_rho", 1.5),
        ):
            with pytest.raises(ConfigError, match=rf"^optimizer\.{field}: "):
                dataclasses.replace(opt, **{field: value})

    def test_fixed_split_is_respected(self, fast_context):
        sc = fast_context.scenario
        fixed = dataclasses.replace(sc, optimizer=dataclasses.replace(sc.optimizer, fixed_rho=0.9))
        result = minimize_power(fixed)
        assert result.feasible
        assert result.rho_star == 0.9
        assert result.point.rho == 0.9


@pytest.fixture(scope="module")
def swept(fast_context):
    return tradeoff_sweep(fast_context)


class TestTradeoffSweep:
    def test_default_grid_spans_floor_to_ceiling(self, fast_context, swept):
        sc = fast_context.scenario
        assert len(swept.records) == sc.power.points
        powers = [rec.power_watts for rec in swept.records]
        assert powers == sorted(powers)
        assert powers[0] == pytest.approx(dbm_to_watts(sc.power.min_dbm), rel=1e-12)
        assert powers[-1] == pytest.approx(dbm_to_watts(sc.targets.p_max_dbm), rel=1e-12)

    def test_feasibility_is_monotone_along_the_grid(self, swept):
        flags = [rec.feasible for rec in swept.records]
        assert flags == sorted(flags)
        assert not flags[0]
        assert flags[-1]

    def test_marked_record_is_the_first_feasible_one(self, swept):
        idx = swept.marked_index
        assert idx is not None
        assert swept.records[idx].feasible
        assert all(not rec.feasible for rec in swept.records[:idx])
        assert swept.marked == swept.records[idx]

    def test_marked_record_meets_both_service_targets(self, fast_context, swept):
        marked = swept.marked
        assert marked.rate_bps_hz >= fast_context.scenario.targets.rate_bps_hz
        assert marked.pd >= fast_context.scenario.targets.pd_min
        assert marked.pfa <= fast_context.scenario.targets.pfa_max

    def test_starved_end_fails_both_services(self, swept):
        low = swept.records[0]
        assert low.rate_bps_hz < 5.0
        assert low.pd < 0.6

    def test_rate_grows_with_power(self, swept):
        rates = [rec.rate_bps_hz for rec in swept.records]
        assert np.all(np.diff(rates) >= 0.0)
        assert rates[-1] > rates[0]

    def test_consistent_with_the_minimizer(self, swept, solved):
        # the marked grid power brackets the bisected optimum from above
        idx = swept.marked_index
        assert solved.p_star_watts <= swept.records[idx].power_watts + solved.tolerance_watts
        if idx > 0:
            assert solved.p_star_watts > swept.records[idx - 1].power_watts

    def test_custom_grid_is_used_verbatim(self, fast_context):
        grid = np.array([0.5, 1.0, 2.0, 4.0, 8.0])
        result = tradeoff_sweep(fast_context, power_grid_watts=grid)
        assert [rec.power_watts for rec in result.records] == pytest.approx(list(grid))

    def test_rejects_malformed_grids(self, fast_context):
        for grid in ([], [[1.0, 2.0]], [0.0, 1.0], [2.0, 1.0], [1.0, 1.0]):
            with pytest.raises(ValueError):
                tradeoff_sweep(fast_context, power_grid_watts=np.array(grid))

    def test_impossible_targets_leave_nothing_marked(self, fast_context):
        targets = ConstraintTargets(
            gamma_min=1e12, pfa_max=1e-6, pd_min=0.6, p_max_watts=dbm_to_watts(46.0)
        )
        result = tradeoff_sweep(fast_context, targets=targets)
        assert result.marked_index is None
        assert result.marked is None
        assert all(not rec.feasible for rec in result.records)

    def test_fixed_split_pins_every_record(self, fast_scenario):
        scenario = dataclasses.replace(
            fast_scenario,
            optimizer=dataclasses.replace(fast_scenario.optimizer, fixed_rho=0.9),
        )
        result = tradeoff_sweep(scenario)
        assert all(rec.rho == 0.9 for rec in result.records)
