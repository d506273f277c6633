"""The feasibility rule, point audits, power minimization, and the tradeoff sweep.

The minimizer is checked against a dense power scan of the record, with no
bisection, plus a below-tolerance infeasibility probe at every split, so the
reported power is certified minimal to within the tolerance where feasibility
is not monotone in power too; over random valid scenarios its emitted
certificate is read back from CSV and re-evaluated.
"""

import dataclasses
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import SCENARIO_A, SCENARIO_B
from jrcsim.comm_link import mrc_rate, rate_threshold
import jrcsim.power_allocation as power_allocation
from jrcsim.context import build_context
from jrcsim.detection import (
    detection_probability,
    false_alarm_probability,
    false_alarm_threshold,
    statistic_moments,
)
from jrcsim.experiments import _optimum_table, emit_outputs, run_detection_sweep, run_tradeoff, run_validation
from jrcsim.power_allocation import (
    _BAND,
    _SAFETY,
    OptimizationResult,
    _SplitForms,
    _certificate,
    _descartes,
    _polynomial,
    _rate_floor,
    _rho_grid,
    _settle,
    _tradeoff_record,
    _verdicts,
    evaluate_point,
    minimize_power,
    tradeoff_sweep,
)
from jrcsim.radar_sensing import waveform_from_symbols
from jrcsim.scenario import ConfigError, ScenarioConfig, TargetsSection, dbm_to_watts
from jrcsim.stats import canonical_ceil, canonical_float, canonical_floor, inverse_q, q_function
from oracles import (
    average_scnr,
    clutter_covariance,
    first_feasible_split,
    optimal_receive_beamformer,
    parse_table_csv,
    power_by_power,
    scalar_false_alarm_threshold,
    transmit_covariance,
)


@pytest.fixture(scope="module")
def fast_context(fast_scenario):
    return build_context(fast_scenario)


def feasible_split(ctx, power_watts):
    """The first feasible split at one power on the scenario's own targets and grid, as the record reads it."""
    return first_feasible_split(ctx, power_watts, _rho_grid(ctx.scenario.optimizer))


def searched_split(forms, power_watts):
    """The first split the search's verdicts call feasible at one power, or None."""
    row = _verdicts(forms, np.array([float(power_watts)]))[0]
    return int(np.argmax(row)) if row.any() else None


def with_targets(ctx, **targets):
    """The context with its scenario's targets section changed."""
    scenario = dataclasses.replace(ctx.scenario, targets=dataclasses.replace(ctx.scenario.targets, **targets))
    return dataclasses.replace(ctx, scenario=scenario)


def first_row(record):
    """Row 0 of a tradeoff record, as floats and bools."""
    return {name: column[0].item() for name, column in record.items()}


def first_feasible_index(columns):
    return next((i for i, feasible in enumerate(columns["feasible"]) if feasible), None)


@pytest.fixture(scope="module")
def solved(fast_context):
    return minimize_power(fast_context)


_POWERS, _RHOS = np.geomspace(1e-3, 1e3, 7), np.linspace(0.0, 1.0, 5)


@pytest.fixture(scope="module")
def stacked(fast_context):
    """Records at 7 powers from 1 mW to 1 kW over 5 splits, and where mu_1 is live."""
    point = power_by_power(fast_context, _POWERS, _RHOS)
    live = point.mu1_abs > 0.0
    assert live.any()
    return point, live


def feasible_mask(ctx, **targets):
    """The search's verdicts over _POWERS x _RHOS, at the context's targets changed."""
    return _verdicts(_SplitForms(with_targets(ctx, **targets), _RHOS), _POWERS)


class TestFeasible:
    def test_deflection_floor_at_the_detection_extremes(self, fast_context, stacked):
        # a floor of 0 holds at any threshold, so every live split passes
        _, live = stacked
        assert np.array_equal(feasible_mask(fast_context, rate_bps_hz=0.0, pd_min=0.0), live)

    def test_a_unit_detection_floor_holds_nowhere(self, fast_context):
        assert not feasible_mask(fast_context, rate_bps_hz=0.0, pd_min=1.0).any()

    def test_between_the_extremes_every_target_binds(self, fast_context, stacked):
        # the rate target is the SINR sum 2^5 - 1 = 31, and the deflection
        # floor is Q^-1(pfa_max) - Q^-1(pd_min)
        point, live = stacked
        floor = inverse_q(1e-6) - inverse_q(0.6)
        expected = (point.gamma_direct + point.gamma_relayed >= 31.0) & live & (point.deflection >= floor)
        assert expected.any() and not expected.all()
        assert np.array_equal(feasible_mask(fast_context), expected)


class TestEvaluatePoint:
    def test_zero_power_with_positive_threshold(self, default_context):
        # no command audits zero power: the minimizer and the tradeoff grid start above it
        with pytest.raises(ValueError, match="power must be positive"):
            evaluate_point(default_context, 0.0, 0.5, 1.0)

    def test_zero_power_with_non_positive_threshold_always_alarms(self, default_context):
        # the threshold does not matter: zero power is rejected before any audit
        with pytest.raises(ValueError, match="power must be positive"):
            evaluate_point(default_context, 0.0, 0.5, -1.0)

    def test_rejects_negative_power(self, default_context):
        with pytest.raises(ValueError):
            evaluate_point(default_context, -1.0, 0.5, 0.0)

    def test_fields_match_independent_reassembly(self, default_context):
        # rebuild the same operating point from the public pieces
        ctx = default_context
        power, rho = 2.0, 0.5
        beams = ctx.beams_at(power, rho)
        x = waveform_from_symbols(beams, ctx.symbols)
        cov = clutter_covariance(ctx.clutter, transmit_covariance(beams))
        w = optimal_receive_beamformer(ctx.target_steering, cov, x)
        mu1, sigma2 = statistic_moments(w, ctx.alpha0, ctx.target_steering, ctx.clutter, x)
        kappa = abs(mu1) ** 2
        point = evaluate_point(ctx, power, rho, kappa)
        record = ctx.operating_point(power, rho)
        assert float(record.mu1_abs) == pytest.approx(abs(mu1), rel=1e-12)
        assert float(record.sigma2) == pytest.approx(sigma2, rel=1e-12)
        assert point.pfa == pytest.approx(false_alarm_probability(abs(mu1), sigma2, kappa), rel=1e-12)
        assert point.pd == pytest.approx(detection_probability(abs(mu1), sigma2, kappa), rel=1e-12)
        assert point.rate_bps_hz == pytest.approx(
            mrc_rate(float(record.gamma_direct), float(record.gamma_relayed)), rel=1e-12
        )
        assert point.scnr_avg == pytest.approx(
            average_scnr(ctx.clutter, beams, ctx.alpha0, ctx.target_steering), rel=1e-12
        )

    def test_budget_holds_by_construction(self, default_context):
        for power in (0.01, 1.0, 10.0):
            for rho in (0.0, 0.3, 1.0):
                point = evaluate_point(default_context, power, rho, 0.0)
                assert point.within_budget

    def test_feasible_is_the_conjunction_of_flags(self, default_context):
        # feasible is derived, not stored, and every stored field is a Python float or bool
        point = evaluate_point(default_context, 2.0, 0.5, 0.0)
        assert point.feasible == (
            point.meets_rate and point.meets_pfa and point.meets_pd and point.within_budget
        )
        assert "feasible" not in {field.name for field in dataclasses.fields(point)}
        assert all(type(value) in (float, bool) for value in dataclasses.astuple(point))

    def test_all_radar_split_carries_no_data(self, default_context):
        # rho = 1 silences the communication beam entirely
        ctx = default_context
        point = evaluate_point(ctx, 2.0, 1.0, 0.0)
        record = ctx.operating_point(2.0, 1.0)
        assert record.gamma_direct == 0.0
        assert record.gamma_relayed == 0.0
        assert point.rate_bps_hz == 0.0
        assert not point.meets_rate

    def test_all_comm_split_degrades_sensing(self, default_context):
        ctx = default_context
        comm_only = evaluate_point(ctx, 2.0, 0.0, 0.0)
        radar_only = evaluate_point(ctx, 2.0, 1.0, 0.0)
        assert comm_only.rate_bps_hz > 0.0
        assert radar_only.scnr_avg > comm_only.scnr_avg


class TestMinimizePower:
    def test_default_targets_are_reachable(self, fast_context, solved):
        result = solved
        ceiling = dbm_to_watts(fast_context.scenario.targets.p_max_dbm)
        assert result.feasible
        assert 0.0 < result.point.power_watts <= ceiling
        assert 0.0 <= result.point.rho <= 1.0
        assert result.evaluations > 0
        assert ceiling == pytest.approx(dbm_to_watts(46.0), rel=1e-12)

    def test_certificate_point_revalidates(self, fast_context, solved):
        result = solved
        point = result.point
        assert point.feasible
        again = evaluate_point(fast_context, point.power_watts, point.rho, point.kappa)
        assert again == point

    def test_tolerance_below_optimum_is_infeasible(self, fast_context, solved):
        # the tolerance is relative: p* / (1 + tol_factor) lies below the optimum
        probe = solved.point.power_watts / (1.0 + fast_context.scenario.optimizer.tol_factor)
        assert feasible_split(fast_context, probe) is None

    def test_certificate_is_the_emitted_triple(self, fast_context, solved):
        # power, split and threshold print as they are at 9 significant
        # digits, so re-reading the table gives back the certified point
        certificate = solved.point
        for value in (certificate.power_watts, certificate.rho, certificate.kappa):
            assert canonical_float(value) == value
        point = fast_context.operating_point(certificate.power_watts, certificate.rho)
        kappa_fa = false_alarm_threshold(float(point.mu1_abs), float(point.sigma2), 1e-6)
        assert certificate.kappa == canonical_ceil(kappa_fa)
        assert solved.point.pfa <= 1e-6 and solved.point.pd >= 0.6

    def test_default_optimum_is_the_closed_form_minimum(self, default_context):
        # settled to 1e-12 on the default split grid, the closed-form minimum
        # is the crossing 1.78076681 W at rho = 0.9; the default tolerance of
        # 1e-3 is relative and the certificate lies within it, above the minimum
        tight = dataclasses.replace(
            default_context.scenario,
            optimizer=dataclasses.replace(default_context.scenario.optimizer, tol_factor=1e-12),
        )
        exact = minimize_power(dataclasses.replace(default_context, scenario=tight)).point
        assert exact.power_watts == pytest.approx(1.78076681, abs=2e-8)
        assert exact.rho == 0.9
        result = minimize_power(default_context).point
        assert exact.power_watts <= result.power_watts <= exact.power_watts * (1.0 + 1e-3)

    def test_matches_direct_scan_of_a_coarse_grid(self, fast_context, solved):
        # on this scene feasibility along the power axis is monotone, and the
        # reported optimum lies inside the bracket the scan identifies
        sc = fast_context.scenario
        powers = np.geomspace(dbm_to_watts(sc.power.min_dbm), dbm_to_watts(sc.targets.p_max_dbm), 64)
        flags = [feasible_split(fast_context, float(p)) is not None for p in powers]
        assert flags == sorted(flags)  # infeasible powers all precede feasible ones
        assert any(flags)
        i = flags.index(True)
        assert i > 0
        assert powers[i - 1] < solved.point.power_watts <= powers[i] * (1.0 + 1e-12)

    def test_feasibility_persists_above_the_optimum(self, fast_context, solved):
        ceiling = dbm_to_watts(fast_context.scenario.targets.p_max_dbm)
        for p in np.geomspace(solved.point.power_watts, ceiling, 4):
            assert feasible_split(fast_context, float(p)) is not None

    def test_infeasible_ceiling_reports_cleanly(self, fast_context):
        ctx = with_targets(fast_context, p_max_dbm=10.0)
        assert rate_threshold(ctx.scenario.targets.rate_bps_hz) == 31.0
        result = minimize_power(ctx)
        assert not result.feasible
        assert result.point is None
        # the forms decide every split at the ceiling, and no sensing term is made
        assert result.evaluations == 11 and fast_context.scenario.optimizer.rho_points == 11

    def test_vacuous_targets_stop_at_the_grid_floor(self, fast_context):
        ctx = with_targets(fast_context, rate_bps_hz=0.0, pfa_max=0.5, pd_min=0.0)
        result = minimize_power(ctx)
        assert result.feasible
        assert result.point.power_watts == pytest.approx(
            dbm_to_watts(fast_context.scenario.power.min_dbm), rel=1e-12
        )
        assert result.point.rho == 0.0
        # a cap of one half puts the smallest allowed threshold at Q^-1(1/2) = 0
        assert result.point.kappa == 0.0
        # every split at the ceiling and at the floor and a tolerance below it, and the certificate
        assert result.evaluations == 3 * 11 + 1

    def test_a_saturated_deflection_still_certifies(self, default_scenario):
        # with one antenna the clutter caps the deflection as power grows; a
        # floor 1e-7 below that cap leaves kappa's rounding almost no room, and
        # one grid unit at a time the certificate would climb for over 20,000
        # evaluations; doubling steps reach a certifiable power in a few
        sc = dataclasses.replace(
            default_scenario,
            array=dataclasses.replace(default_scenario.array, n_antennas=1),
            optimizer=dataclasses.replace(default_scenario.optimizer, fixed_rho=1.0, tol_factor=1e-12),
        )
        ctx = build_context(sc)
        cap = float(ctx.operating_point(1e12, 1.0).deflection)
        floor = cap * (1.0 - 1e-7)
        pd_min = float(q_function(inverse_q(1e-6) - floor))
        ctx = with_targets(ctx, rate_bps_hz=0.0, pfa_max=1e-6, pd_min=pd_min, p_max_dbm=230.0)
        result = minimize_power(ctx)
        assert result.feasible and result.point.pd >= pd_min
        assert result.evaluations < 200

    def test_a_polynomial_out_of_range_leaves_its_split_to_the_settling(self, default_scenario):
        # a tiny sigma with the largest reflectivity overflows gain / z, the
        # polynomial's leading scale; the split is searched from its rate floor
        # by the verdicts instead, and meets the same contract
        sc = dataclasses.replace(
            default_scenario,
            target=dataclasses.replace(default_scenario.target, rcs_scale=1e40),
            clutter=dataclasses.replace(default_scenario.clutter, sigma=1e-150),
        )
        ctx = build_context(sc)
        forms = _SplitForms(ctx, _rho_grid(sc.optimizer))
        forms._sense()
        with np.errstate(all="ignore"):
            assert not np.isfinite(_polynomial(forms)[0]).all()
        result = minimize_power(ctx)
        assert result.feasible and result.point.feasible
        assert feasible_split(ctx, result.point.power_watts / (1.0 + sc.optimizer.tol_factor)) is None

    def test_unit_detection_floor_is_infeasible(self, fast_context):
        ctx = with_targets(fast_context, rate_bps_hz=0.0, pfa_max=0.5, pd_min=1.0)
        assert not minimize_power(ctx).feasible
        assert not tradeoff_sweep(ctx)["feasible"].any()
        # the floor is +inf, so settling from any power climbs to the ceiling and stops there
        sc = ctx.scenario
        forms = _SplitForms(ctx, _rho_grid(sc.optimizer))
        p_min, p_max = dbm_to_watts(sc.power.min_dbm), dbm_to_watts(sc.targets.p_max_dbm)
        assert forms.floor == math.inf and p_min < 1.0 < p_max
        hi, row = _settle(forms, 1.0, p_min, p_max, 1e-3)
        assert hi is None and row.shape == forms.rhos.shape and not row.any()

    def test_a_certificate_past_the_ceiling_is_none(self, default_context):
        # no split reaches 30 b/s/Hz, so no candidate is accepted; p_max (1 - 1e-7)
        # lies about 40 grid units under the ceiling p_max, the grid value under
        # 46 dBm, room for the candidates 0, 1, 3, 7, 15 and 31 units up, and
        # 46 dBm itself rounds up past it
        ctx = with_targets(default_context, rate_bps_hz=30.0)
        ceiling = dbm_to_watts(ctx.scenario.targets.p_max_dbm)
        p_max = canonical_floor(ceiling)
        assert _certificate(ctx, p_max * (1.0 - 1e-7), 0.9, p_max) == (None, 6)
        assert canonical_ceil(ceiling) > ceiling
        assert _certificate(ctx, ceiling, 0.9, p_max) == (None, 0)

    def test_unreachable_rate_floor_is_infeasible(self, fast_context):
        result = minimize_power(with_targets(fast_context, rate_bps_hz=40.0))
        assert not result.feasible

    def test_floor_above_ceiling_is_rejected(self, fast_context):
        # a grid floor at or above the ceiling cannot reach the optimizer: the
        # scenario refuses to be built
        with pytest.raises(ConfigError, match=r"^targets\.p_max_dbm: must exceed power\.min_dbm"):
            with_targets(fast_context, p_max_dbm=-20.0)

    def test_rejects_bad_grids_and_tolerances(self, fast_context):
        # a bad grid cannot reach the optimizer: the section refuses to be built
        opt = fast_context.scenario.optimizer
        for field, value in (
            ("rho_points", 0),
            ("tol_factor", 0.0),
            ("fixed_rho", 1.5),
        ):
            with pytest.raises(ConfigError, match=rf"^optimizer\.{field}: "):
                dataclasses.replace(opt, **{field: value})

    def test_fixed_split_is_respected(self, fast_context):
        sc = fast_context.scenario
        fixed = dataclasses.replace(sc, optimizer=dataclasses.replace(sc.optimizer, fixed_rho=0.9))
        result = minimize_power(build_context(fixed))
        assert result.feasible
        assert result.point.rho == 0.9

    def test_a_rate_floor_just_under_the_ceiling_certifies_at_the_ceiling(self, default_scenario):
        # the rate turns on 3e-7 below a 40 dBm ceiling, 10 W on the 9-digit
        # grid; the nudge past the crossing's rounding stops at the ceiling,
        # where the certificate's first audit holds
        sc = dataclasses.replace(
            default_scenario,
            optimizer=dataclasses.replace(default_scenario.optimizer, fixed_rho=0.9),
            targets=dataclasses.replace(default_scenario.targets, p_max_dbm=40.0),
        )
        point = build_context(sc).operating_point(10.0 * (1.0 - 3e-7), 0.9)
        rate = float(mrc_rate(point.gamma_direct, point.gamma_relayed))
        ctx = build_context(dataclasses.replace(sc, targets=dataclasses.replace(sc.targets, rate_bps_hz=rate)))
        assert dbm_to_watts(40.0) == 10.0
        assert 10.0 / (1.0 + 1e-6) < _rate_floor(_SplitForms(ctx, np.array([0.9])))[0] < 10.0
        result = minimize_power(ctx)
        assert result.feasible and result.point.power_watts == 10.0 and result.point.feasible

    def test_an_off_grid_ceiling_certifies_its_last_printable_power(self, default_scenario):
        # the 46 dBm ceiling, 39.810717055 W, prints as 39.8107171, above it;
        # the rate turns on 3e-9 below it, past 39.8107169, so the search stops
        # at the last printable power under the ceiling, 39.810717, and the
        # certificate holds there
        sc = dataclasses.replace(
            default_scenario, optimizer=dataclasses.replace(default_scenario.optimizer, fixed_rho=0.9)
        )
        ceiling = dbm_to_watts(sc.targets.p_max_dbm)
        point = build_context(sc).operating_point(ceiling * (1.0 - 3e-9), 0.9)
        rate = float(mrc_rate(point.gamma_direct, point.gamma_relayed))
        ctx = build_context(dataclasses.replace(sc, targets=dataclasses.replace(sc.targets, rate_bps_hz=rate)))
        assert rate == 5.074927282373557 and canonical_ceil(ceiling) > ceiling
        assert not evaluate_point(ctx, 39.8107169, 0.9, None).meets_rate
        result = minimize_power(ctx)
        assert result.feasible and result.point.power_watts == 39.810717 == canonical_floor(ceiling)
        certificate = result.point
        assert evaluate_point(ctx, certificate.power_watts, certificate.rho, certificate.kappa).feasible

    def test_no_printable_power_between_the_floor_and_the_ceiling_is_infeasible(self, default_scenario):
        # P_min, at 46 - 1e-12 dBm, lies between 39.810717, the last printable
        # power under the 46 dBm ceiling, and the ceiling: the targets hold at
        # P_min, yet no power the tables can print lies in [P_min, P_max], and
        # none below P_min is certified
        power = dataclasses.replace(default_scenario.power, min_dbm=46.0 - 1e-12, max_dbm=47.0)
        ctx = build_context(dataclasses.replace(default_scenario, power=power))
        p_min, ceiling = dbm_to_watts(power.min_dbm), dbm_to_watts(ctx.scenario.targets.p_max_dbm)
        assert canonical_floor(ceiling) < p_min < ceiling
        assert evaluate_point(ctx, p_min, 0.9, None).feasible
        assert minimize_power(ctx).point is None


@pytest.fixture(scope="module")
def swept(fast_context):
    return tradeoff_sweep(fast_context)


class TestTradeoffSweep:
    def test_default_grid_spans_floor_to_ceiling(self, fast_context, swept):
        sc = fast_context.scenario
        powers = swept["power_watts"].tolist()
        assert len(powers) == sc.power.points
        assert powers == sorted(powers)
        assert powers[0] == pytest.approx(dbm_to_watts(sc.power.min_dbm), rel=1e-12)
        assert powers[-1] == pytest.approx(dbm_to_watts(sc.targets.p_max_dbm), rel=1e-12)

    def test_feasibility_is_monotone_along_the_grid(self, swept):
        flags = swept["feasible"].tolist()
        assert flags == sorted(flags)
        assert not flags[0]
        assert flags[-1]

    def test_marked_record_is_the_first_feasible_one(self, fast_context, swept):
        # the first feasible grid power is where the split search first succeeds
        idx = first_feasible_index(swept)
        powers = swept["power_watts"]
        assert feasible_split(fast_context, powers[idx]) is not None
        assert idx == 0 or feasible_split(fast_context, powers[idx - 1]) is None

    def test_marked_record_meets_both_service_targets(self, fast_context, swept):
        idx = first_feasible_index(swept)
        assert swept["rate_bps_hz"][idx] >= fast_context.scenario.targets.rate_bps_hz
        assert swept["pd"][idx] >= fast_context.scenario.targets.pd_min
        assert swept["pfa"][idx] <= fast_context.scenario.targets.pfa_max

    def test_starved_end_fails_both_services(self, swept):
        assert swept["rate_bps_hz"][0] < 5.0
        assert swept["pd"][0] < 0.6

    def test_rate_grows_with_power(self, swept):
        rates = swept["rate_bps_hz"]
        assert np.all(np.diff(rates) >= 0.0)
        assert rates[-1] > rates[0]

    def test_consistent_with_the_minimizer(self, fast_context, swept, solved):
        # the marked grid power brackets the optimum from above
        idx = first_feasible_index(swept)
        tol_factor = fast_context.scenario.optimizer.tol_factor
        powers = swept["power_watts"]
        assert solved.point.power_watts <= powers[idx] * (1.0 + tol_factor)
        if idx > 0:
            assert solved.point.power_watts > powers[idx - 1]

    def test_feasible_column_is_the_split_search_at_every_power(self, fast_context, swept):
        # the column and the minimizer's verdicts apply one rule
        forms = _SplitForms(fast_context, _rho_grid(fast_context.scenario.optimizer))
        flags = [searched_split(forms, p) is not None for p in swept["power_watts"].tolist()]
        assert swept["feasible"].tolist() == flags

    def test_impossible_targets_leave_nothing_marked(self, fast_context):
        result = tradeoff_sweep(with_targets(fast_context, rate_bps_hz=40.0))
        assert first_feasible_index(result) is None

    def test_fixed_split_pins_every_record(self, fast_scenario):
        scenario = dataclasses.replace(
            fast_scenario,
            optimizer=dataclasses.replace(fast_scenario.optimizer, fixed_rho=0.9),
        )
        result = tradeoff_sweep(build_context(scenario))
        assert np.all(result["rho"] == 0.9)

    def test_columns_match_the_split_by_split_scan(self, fast_context, swept):
        rhos = _rho_grid(fast_context.scenario.optimizer)
        for i, p in enumerate(swept["power_watts"].tolist()):
            assert_oracle_row({name: column[i].item() for name, column in swept.items()}, fast_context, p, rhos)


# The split search evaluates every split of a power in one batch. The oracle
# below is the split-by-split scan it replaced: the record of each split
# alone, its deflection written out from the moments, and the closed-form
# detector test; the two must agree exactly.


def _oracle_physics(ctx, power, rho):
    point = ctx.operating_point(power, float(rho))
    params = (abs(complex(point.mu1)), float(point.sigma2))  # (|mu_1|, sigma^2)
    with np.errstate(divide="ignore", invalid="ignore"):
        deflection = np.sqrt(2.0) * params[0] / np.sqrt(params[1])
    return params, deflection, float(point.gamma_direct), float(point.gamma_relayed)


def _oracle_first_feasible(ctx, power, rhos):
    targets, evals = ctx.scenario.targets, 0
    floor = inverse_q(targets.pfa_max) - inverse_q(targets.pd_min)
    for k, rho in enumerate(rhos):
        params, deflection, gamma_direct, gamma_relayed = _oracle_physics(ctx, power, rho)
        evals += 1
        if gamma_direct + gamma_relayed < rate_threshold(targets.rate_bps_hz) or params[0] <= 0.0:
            continue
        if deflection >= floor:
            return k, evals
    return None, evals


def _oracle_tradeoff_record(ctx, power, rhos):
    targets = ctx.scenario.targets
    best_rate = 0.0
    best = None  # (deflection, rho, params)
    jointly_feasible = False
    floor = inverse_q(targets.pfa_max) - inverse_q(targets.pd_min)
    for rho in rhos:
        params, deflection, gamma_direct, gamma_relayed = _oracle_physics(ctx, power, rho)
        best_rate = max(best_rate, float(mrc_rate(gamma_direct, gamma_relayed)))
        if params[0] <= 0.0:
            continue
        if best is None or deflection > best[0]:
            best = (deflection, float(rho), params)
        if gamma_direct + gamma_relayed >= rate_threshold(targets.rate_bps_hz) and deflection >= floor:
            jointly_feasible = True
    rho, kappa, pd, pfa = float(rhos[0]), 0.0, 0.0, 0.0
    if best is not None:
        _, rho, params = best
        kappa = scalar_false_alarm_threshold(*params, targets.pfa_max)
        pd, pfa = float(detection_probability(*params, kappa)), float(false_alarm_probability(*params, kappa))
    return {
        "power_watts": power, "rho": rho, "kappa": kappa, "rate_bps_hz": best_rate,
        "pd": pd, "pfa": pfa, "feasible": jointly_feasible,
    }


def assert_oracle_row(row, ctx, power, rhos):
    """The tradeoff row is the split-by-split scan's: its power, split, rate
    and verdict exactly, and kappa, P_D and P_FA within relative bounds that
    follow from the split forms' error budget b = _BAND / 1000. The row reads
    those three from the forms' |mu_1| and sigma^2, which TestSplitForms holds,
    with the deflection D, within b of the record's wherever the forms decide
    (elsewhere the row is the record's). kappa = |mu_1| sqrt(2 sigma^2) t with
    t = Q^-1(pfa_max), so it moves by at most 1.5 b. P_FA = Q(t) moves only
    with the threshold's last bits. P_D = Q(u) with u = t - D moves by at most
    its relative slope phi(u) / Q(u) times D b. Where u > 0, D < t and that
    slope is at most 1 + u <= 1 + t; where u <= 0, Q(u) >= 1/2 and
    2 phi(u) D <= 0.8 |t| + 1/2. Either way (1 + T) T b bounds both, with
    T = max(|t|, 1)."""
    oracle, budget = _oracle_tradeoff_record(ctx, power, rhos), _BAND / 1000.0
    assert list(row) == list(oracle)
    assert [row[name] for name in _EXACT] == [oracle[name] for name in _EXACT]
    t = max(abs(inverse_q(ctx.scenario.targets.pfa_max)), 1.0)
    for name, rel in (("kappa", 1.5 * budget), ("pd", (1.0 + t) * t * budget), ("pfa", (1.0 + t) * t * budget)):
        assert row[name] == pytest.approx(oracle[name], rel=rel, abs=0.0), name


_EXACT = ("power_watts", "rho", "rate_bps_hz", "feasible")


def _uniform(lo, hi):
    # sampled_from spreads draws evenly; st.floats favours its bounds
    return st.sampled_from(np.linspace(lo, hi, 1001).tolist())


def _scenes(draw, sc):
    """A random valid scene and split grid on top of sc."""
    return dataclasses.replace(
        sc,
        seed=draw(st.integers(0, 2**32 - 1)),
        array=dataclasses.replace(
            sc.array,
            n_antennas=draw(st.sampled_from(range(1, 13))),
            carrier_ghz=draw(st.sampled_from([2.8, 28.0])),
        ),
        clutter=dataclasses.replace(
            sc.clutter,
            count=draw(st.sampled_from(range(9))),
            sigma=draw(st.one_of(st.just(0.0), _uniform(0.0, 1.5), _uniform(0.0, 1.5))),
        ),
        comm=dataclasses.replace(sc.comm, fading=draw(st.sampled_from(["los", "rayleigh"]))),
        optimizer=dataclasses.replace(
            sc.optimizer,
            rho_points=draw(st.sampled_from(range(2, 22))),
            fixed_rho=draw(st.sampled_from([None, None, None, 0.0, 1.0])),
        ),
    )


@st.composite
def split_searches(draw):
    """A random valid scene, targets and split grid, and a power from 1e-4 W to 300 dBm."""
    sc = _scenes(draw, ScenarioConfig())
    targets = TargetsSection(
        rate_bps_hz=draw(_uniform(0.0, 12.0)),
        pfa_max=10.0 ** draw(st.one_of(_uniform(-12.0, -1e-3), _uniform(-300.0, -1e-3))),
        pd_min=draw(_uniform(0.0, 1.0)),
        p_max_dbm=300.0,
    )
    # half the draws stay below 1 MW, where the first feasible split moves
    power = 10.0 ** draw(st.one_of(_uniform(-4.0, 6.0), _uniform(-4.0, 27.0)))
    return dataclasses.replace(sc, targets=targets), power


class TestBatchedSplitSearch:
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(split_searches())
    def test_matches_the_split_by_split_scan(self, search):
        sc, power = search
        ctx = build_context(sc)
        rhos = _rho_grid(sc.optimizer)
        assert searched_split(_SplitForms(ctx, rhos), power) == _oracle_first_feasible(ctx, power, rhos)[0]
        assert_oracle_row(first_row(_tradeoff_record(_SplitForms(ctx, rhos), np.array([power]))), ctx, power, rhos)

    def test_a_silent_target_leaves_no_split_live(self, fast_context):
        ctx = dataclasses.replace(fast_context, alpha0=0.0)
        rhos = np.linspace(0.0, 1.0, 4)
        assert searched_split(_SplitForms(ctx, rhos), 2.0) is None
        record = first_row(_tradeoff_record(_SplitForms(ctx, rhos), np.array([2.0])))
        assert_oracle_row(record, ctx, 2.0, rhos)
        assert (record["rho"], record["kappa"], record["pd"], record["pfa"]) == (0.0, 0.0, 0.0, 0.0)

    def test_a_tiny_cap_still_meets_its_threshold(self, fast_context):
        # every live split has a smallest threshold meeting any cap in (0, 1)
        ctx = with_targets(fast_context, rate_bps_hz=0.0, pfa_max=1e-300, pd_min=0.0, p_max_dbm=60.0)
        rhos = np.linspace(0.0, 1.0, 4)
        record = first_row(_tradeoff_record(_SplitForms(ctx, rhos), np.array([2.0])))
        assert_oracle_row(record, ctx, 2.0, rhos)
        assert 0.0 < record["pfa"] <= 1e-300
        assert record["feasible"]

    def test_ties_go_to_the_smallest_split(self, fast_context):
        # vacuous targets make every split feasible at its threshold
        ctx = with_targets(fast_context, rate_bps_hz=0.0, pfa_max=0.5, pd_min=0.0, p_max_dbm=60.0)
        rhos = np.linspace(0.0, 1.0, 5)
        assert _verdicts(_SplitForms(ctx, rhos), np.array([2.0])).all()
        # a repeated split ties with itself; the first copy is reported
        twice = np.array([0.25, 0.5, 0.5])
        deflection = fast_context.operating_point(2.0, twice).deflection
        assert deflection[1] == deflection[2] > deflection[0]
        record = first_row(_tradeoff_record(_SplitForms(ctx, twice), np.array([2.0])))
        assert_oracle_row(record, ctx, 2.0, twice)
        assert record["rho"] == 0.5

    def test_a_deflection_on_the_floor_is_feasible(self, fast_context):
        # pd_min = 1/2 puts Q^-1(pd_min) at 0, so the floor is Q^-1(pfa_max);
        # a cap whose floor equals a split's deflection exactly meets both targets
        rho = np.array([0.9])
        for power in (1.0, 2.0, 3.0, 5.0, 8.0):
            deflection = float(fast_context.operating_point(power, rho).deflection[0])
            cap = float(q_function(deflection))
            for _ in range(200):
                floor = inverse_q(cap)
                if floor == deflection:
                    break
                cap = math.nextafter(cap, math.inf if floor > deflection else -math.inf)
            if floor == deflection:
                break
        assert floor == deflection
        ctx = with_targets(fast_context, rate_bps_hz=0.0, pfa_max=cap, pd_min=0.5, p_max_dbm=60.0)
        assert inverse_q(cap) - inverse_q(0.5) == deflection
        assert searched_split(_SplitForms(ctx, rho), power) is not None
        assert _tradeoff_record(_SplitForms(ctx, rho), np.array([power]))["feasible"][0]


# Power enters W(P) = I + P M(rho) as one scale, so one unit-power kernel per
# split grid serves every power. The record over a split grid must be, bit for
# bit, the record of each split alone, and the verdicts over a stack of powers
# must be those of each power alone.

_RECORD_FIELDS = ("beams", "x", "w", "mu1", "sigma2", "gamma_direct", "gamma_relayed")


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@st.composite
def power_stacks(draw):
    """A random valid scene and split grid, and powers from 1e-4 W to 300 dBm."""
    sc = _scenes(draw, ScenarioConfig())
    exponents = draw(st.lists(st.one_of(_uniform(-4.0, 6.0), _uniform(-4.0, 27.0)), min_size=1, max_size=6))
    return sc, 10.0 ** np.array(exponents)


@st.composite
def power_grids(draw):
    """A split search with an ascending power grid of 1 to 40 points up to 300 dBm."""
    sc, _ = draw(split_searches())
    floor = 10.0 ** draw(_uniform(-4.0, 3.0))
    powers = np.geomspace(floor, 10.0 ** draw(_uniform(4.0, 27.0)), draw(st.sampled_from(range(1, 41))))
    return sc, powers


class TestStackedPowers:
    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(power_stacks())
    def test_split_record_matches_each_split(self, stack):
        sc, powers = stack
        ctx = build_context(sc)
        rhos = _rho_grid(sc.optimizer)
        for p in powers.tolist():
            stacked = ctx.operating_point(p, rhos)
            assert stacked.beams.shape == (len(rhos), 2, sc.array.n_antennas)
            for k, rho in enumerate(rhos.tolist()):
                alone = ctx.operating_point(p, rho)
                for name in _RECORD_FIELDS:
                    assert _same_bits(getattr(stacked, name)[k], getattr(alone, name)), (p, rho, name)

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(power_stacks())
    def test_a_warm_kernel_changes_no_number(self, stack):
        # a record built on a context that already holds the split's kernel is
        # the record of a freshly built context, and so is the tradeoff row
        sc, powers = stack
        warm, rhos = build_context(sc), _rho_grid(sc.optimizer)
        warm.unit_kernel(rhos)
        point, fresh = power_by_power(warm, powers, rhos), power_by_power(build_context(sc), powers, rhos)
        for name in _RECORD_FIELDS:
            assert _same_bits(getattr(point, name), getattr(fresh, name)), name
        record, fresh = (_tradeoff_record(_SplitForms(ctx, rhos), powers) for ctx in (warm, build_context(sc)))
        assert all(_same_bits(record[name], fresh[name]) for name in record)

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(power_grids())
    def test_verdicts_over_powers_match_each_power_alone(self, grid):
        sc, powers = grid
        ctx = build_context(sc)
        rhos = _rho_grid(sc.optimizer)
        stacked = _verdicts(_SplitForms(ctx, rhos), powers)
        alone = [_verdicts(_SplitForms(ctx, rhos), np.array([p]))[0] for p in powers.tolist()]
        assert np.array_equal(stacked, np.array(alone).reshape(stacked.shape))


class TestOneDecompositionPerSplitGrid:
    """A context decomposes each split, or split grid, once and scales that
    kernel at every power: the optimizer's search reads the grid's, and the
    certificate's audits read their split's entry of it, where its bits are a
    grid value's, or the split's own. Each test counts on a context of its
    own, since a shared one holds its kernels."""

    def test_minimize_power(self, default_scenario, counts):
        result = minimize_power(build_context(default_scenario))
        assert result.feasible and counts["evaluate_point"] >= 1
        assert counts["svd"] == 1

    def test_tradeoff_sweep(self, default_scenario, counts):
        tradeoff_sweep(build_context(default_scenario))
        assert counts["svd"] == 1

    def test_a_certificate_at_a_split_linspace_rounds_reads_the_grid(self, counts):
        # linspace puts 7 of the 21 default splits, 0.95 among them, one bit
        # off their 9-digit texts; the grid's i / (n - 1) is each text's own
        # double, so scenario B's certificate at rho = 0.95 reads the grid's kernel
        assert all(canonical_float(rho) == rho for rho in _rho_grid(SCENARIO_B.optimizer).tolist())
        result = minimize_power(build_context(SCENARIO_B))
        assert result.point.rho == 0.95 and counts["evaluate_point"] >= 1
        assert counts["svd"] == 1

    def test_evaluate_point(self, default_scenario, counts):
        ctx = build_context(default_scenario)
        evaluate_point(ctx, 2.0, 0.5, None)
        evaluate_point(ctx, 3.0, 0.5, None)
        assert counts["svd"] == 1

    def test_run_tradeoff(self, default_scenario, counts):
        # the sweep, the search and the certificate share one kernel of the split grid
        run_tradeoff(default_scenario)
        assert counts["evaluate_point"] >= 1
        assert counts["svd"] == 1

    def test_a_search_where_no_row_reaches_the_rate_decomposes_nothing(self, default_scenario, counts):
        # the split forms make their sensing terms, and the grid's kernel, on
        # first use; at 30 b/s/Hz no split reaches the rate at the ceiling, so
        # the search ends there, having read every split once
        sc = dataclasses.replace(default_scenario, targets=dataclasses.replace(default_scenario.targets, rate_bps_hz=30.0))
        ctx = build_context(sc)
        assert minimize_power(ctx) == OptimizationResult(None, sc.optimizer.rho_points)
        assert not ctx._kernels and counts["svd"] == 0

    @pytest.mark.parametrize("rate, kernels", [(5.0, 1), (30.0, 1)])
    def test_a_tradeoff_decomposes_its_split_grid_once(self, default_scenario, counts, rate, kernels):
        # the tradeoff rows read the sensing forms whatever the rate, and the
        # search reads the same forms; a feasible search's certificate, at
        # rho = 0.9, reads its entry of the grid's kernel
        targets = dataclasses.replace(default_scenario.targets, rate_bps_hz=rate)
        ctx = build_context(dataclasses.replace(default_scenario, targets=targets))
        tradeoff_sweep(ctx)
        minimize_power(ctx)
        grid = [shape for shape, _ in ctx._kernels if shape == (default_scenario.optimizer.rho_points,)]
        assert len(grid) == 1 and counts["svd"] == kernels

    @pytest.mark.parametrize("runner", [run_detection_sweep, run_validation])
    def test_one_for_every_clutter_level(self, default_scenario, counts, runner):
        # the kernel is made at unit sigma, so every (level, power) cell reads
        # the split's one kernel at its own scale sigma^2 P
        runner(default_scenario)
        assert len(default_scenario.detection.clutter_levels) == 2
        assert counts["svd"] == 1


# The split search decides each entry from per-split closed forms in P and
# builds the record only at near-ties of the deflection, where the forms' last
# bits could flip a comparison the record would make otherwise. Outside the
# entries the forms route to the record, their deflection must agree with it
# to a thousandth of the band; their SINR sum is the record's, bit for bit.

def _decided(error):
    return _SAFETY * error <= _BAND / 1000.0


class TestSplitForms:
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(power_stacks())
    def test_forms_match_the_record(self, stack):
        sc, powers = stack
        ctx = build_context(sc)
        rhos = _rho_grid(sc.optimizer)
        forms = _SplitForms(ctx, rhos)
        deflection, q1, q2, error = forms(powers[:, None])
        mu1_abs, sigma2 = forms.mu1_unit * powers[:, None] * q1, forms.cc * powers[:, None] * q2
        point = power_by_power(ctx, powers, rhos)
        bound = _BAND / 1000.0
        assert np.array_equal(np.add(*forms.link(powers[:, None])), point.gamma_direct + point.gamma_relayed)
        decided, live = _decided(error), point.mu1_abs > 0.0
        assert np.array_equal(np.broadcast_to(forms.live, live.shape)[decided], live[decided])
        on = decided & live
        for got, want in ((deflection, point.deflection), (mu1_abs, point.mu1_abs), (sigma2, point.sigma2)):
            assert np.all(np.abs(got - want)[on] <= bound * want[on])

    @pytest.mark.parametrize("power_points", [64, 512])
    def test_the_default_walk_needs_no_record(self, default_context, power_points):
        # the rounding estimate routes only ill-conditioned entries, none of
        # which lie on the default grid from its power floor to its ceiling
        sc = default_context.scenario
        powers = np.geomspace(dbm_to_watts(sc.power.min_dbm), dbm_to_watts(sc.targets.p_max_dbm), power_points)
        *_, error = _SplitForms(default_context, _rho_grid(sc.optimizer))(powers[:, None])
        assert _decided(error).all()


def _solve_exactly(fn, target, x, increasing=True):
    """An x a few hundred ulps from the start at which fn(x) == target exactly,
    walking one ulp at a time toward it, or None where fn steps over it."""
    for _ in range(400):
        y = fn(x)
        if y == target:
            return x
        x = math.nextafter(x, math.inf if (y < target) == increasing else -math.inf)
    return None


class TestNearTies:
    """A threshold put exactly on the record's value, or one ulp above it: the
    search must answer as the record does. At entries where the forms'
    deflection differs from the record's in its last bits, the forms alone
    would not; their SINR sum is the record's own."""

    @pytest.fixture(scope="class")
    def differing(self, fast_context):
        """(power, split, record, forms) of the deflection at entries where the two differ."""
        entries = []
        for rho in (0.3, 0.6, 0.9):
            rhos = np.array([rho])
            forms = _SplitForms(fast_context, rhos)
            for power in np.geomspace(1.0, 30.0, 40).tolist():
                deflection, _, _, error = forms(power)
                assert _decided(error).all()
                exact = fast_context.operating_point(power, rhos).deflection[0]
                if exact != deflection[0]:
                    entries.append((power, rhos, float(exact), float(deflection[0])))
        assert len(entries) >= 10
        return entries

    def _check(self, ctx, power, rhos, forms_say):
        """The search's answer is the record's; returns whether the forms alone would have differed."""
        answer = searched_split(_SplitForms(ctx, rhos), power)
        assert answer == _oracle_first_feasible(ctx, power, rhos)[0]
        return forms_say != (answer is not None)

    def test_a_floor_on_the_record_deflection(self, fast_context, differing):
        flips = 0
        for power, rhos, exact, approx in differing:
            for floor in (exact, math.nextafter(exact, math.inf)):
                cap = _solve_exactly(inverse_q, floor, float(q_function(floor)), increasing=False)
                if cap is None:
                    continue
                ctx = with_targets(fast_context, rate_bps_hz=0.0, pfa_max=cap, pd_min=0.5)
                flips += self._check(ctx, power, rhos, approx >= floor)
        assert flips >= 3

    def test_a_rate_target_on_the_record_sinr_sum(self, fast_context):
        checked = 0
        for rhos in (np.array([0.3]), np.array([0.6]), np.array([0.9])):
            for power in np.geomspace(1.0, 30.0, 10).tolist():
                point = fast_context.operating_point(power, rhos)
                exact = float(point.gamma_direct[0] + point.gamma_relayed[0])
                for threshold in (exact, math.nextafter(exact, math.inf)):
                    rate = _solve_exactly(rate_threshold, threshold, math.log2(1.0 + threshold))
                    if rate is None:
                        continue
                    ctx = with_targets(fast_context, rate_bps_hz=rate, pd_min=0.0)
                    answer = searched_split(_SplitForms(ctx, rhos), power)
                    assert answer == _oracle_first_feasible(ctx, power, rhos)[0]
                    assert (answer is not None) == (threshold == exact)
                    checked += 1
        assert checked >= 10


@st.composite
def optimizer_scenarios(draw, tol_factors):
    """A random valid scenario with its own targets, power grid and tolerance."""
    sc = _scenes(draw, ScenarioConfig())
    # a wide window with targets on the paper's scale puts most optima inside it
    min_dbm = draw(_uniform(-40.0, 0.0))
    return dataclasses.replace(
        sc,
        power=dataclasses.replace(sc.power, min_dbm=min_dbm, max_dbm=min_dbm + 10.0),
        targets=dataclasses.replace(
            sc.targets,
            rate_bps_hz=draw(_uniform(1.0, 8.0)),
            pfa_max=10.0 ** draw(_uniform(-12.0, -1.0)),
            pd_min=draw(_uniform(0.05, 0.99)),
            p_max_dbm=draw(_uniform(40.0, 80.0)),
        ),
        optimizer=dataclasses.replace(
            sc.optimizer,
            rho_points=draw(st.sampled_from(range(2, 8))),
            tol_factor=draw(st.sampled_from(tol_factors)),
        ),
    )


class TestOptimizerProperties:
    """The premises and promises of minimize_power over random valid scenarios."""

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(optimizer_scenarios([1e-3]))
    @example(SCENARIO_A)
    @example(SCENARIO_B)
    def test_a_split_the_descartes_gate_passes_crosses_the_floor_at_most_once(self, sc):
        # the gate's premise: at most one sign change among the coefficients
        # whose signs are known means at most one crossing, which a dense scan
        # of the record over the search's range sees
        ctx = build_context(sc)
        forms = _SplitForms(ctx, _rho_grid(sc.optimizer))
        if not forms.floor > 0.0 or not np.isfinite(forms.floor):
            return
        forms._sense()
        poly, error, _ = _polynomial(forms)
        gated, _ = _descartes(poly, error)
        powers = np.geomspace(dbm_to_watts(sc.power.min_dbm), dbm_to_watts(sc.targets.p_max_dbm), 400)
        deflection = np.array([ctx.operating_point(p, forms.rhos).deflection for p in powers.tolist()])
        with np.errstate(invalid="ignore"):
            above = deflection >= forms.floor
        crossings = np.sum(above[1:] != above[:-1], axis=0)
        assert np.all(crossings[gated] <= 1)

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(optimizer_scenarios([1e-20, 1e-9, 1e-6, 1e-3, 1e-1, 2.0]))
    def test_emitted_certificate_revalidates(self, tmp_path_factory, sc):
        result = minimize_power(build_context(sc))
        sc = dataclasses.replace(sc, output=dataclasses.replace(sc.output, dir=str(tmp_path_factory.mktemp("optimum"))))
        written = emit_outputs([_optimum_table(result)], sc, command="optimize")
        (row,) = parse_table_csv(written["optimum"], "optimum")
        assert row["feasible"] is result.feasible
        if result.feasible:
            point = evaluate_point(sc, row["p_star_watts"], row["rho"], row["kappa"])
            assert point.feasible
            assert point == result.point
            assert row["p_star_watts"] <= dbm_to_watts(sc.targets.p_max_dbm)

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(optimizer_scenarios([1e-5, 1e-3, 1e-1, 2.0]))
    def test_optimum_is_tight_from_below(self, sc):
        # p* / (1 + tol_factor) is infeasible unless p* is the grid floor;
        # the tolerances stay well above the 9-digit grid p* is rounded onto
        ctx = build_context(sc)
        result = minimize_power(ctx)
        if result.feasible and result.point.power_watts > canonical_ceil(dbm_to_watts(sc.power.min_dbm)):
            assert feasible_split(ctx, result.point.power_watts / (1.0 + sc.optimizer.tol_factor)) is None


@st.composite
def searches(draw):
    """A random valid scene with drawn targets and tolerance, 1e-20 settling on
    float spacing and 2.0 at once. Half of them put the detection floor inside
    a band where one split's deflection falls as power rises, found on a scan
    of the record, as scenarios A and B do (N from 2 to 10, L >= N, sigma up to
    10, P_FA up to 0.3), so feasibility need not be monotone in power there."""
    sc = _scenes(draw, ScenarioConfig())
    min_dbm = draw(_uniform(-40.0, 10.0))
    sc = dataclasses.replace(
        sc,
        power=dataclasses.replace(sc.power, min_dbm=min_dbm),
        targets=dataclasses.replace(
            sc.targets,
            rate_bps_hz=draw(_uniform(0.0, 6.0)),
            pfa_max=10.0 ** draw(_uniform(-8.0, -1.0)),
            pd_min=draw(_uniform(0.05, 0.9)),
            p_max_dbm=draw(_uniform(min_dbm + 10.0, 90.0)),
        ),
        optimizer=dataclasses.replace(
            sc.optimizer,
            tol_factor=draw(st.sampled_from([1e-20, 1e-12, 1e-6, 1e-3, 1e-1, 2.0])),
            fixed_rho=draw(st.sampled_from([None, None, None, 0.3, 0.9])),
        ),
    )
    if draw(st.booleans()):
        n = draw(st.sampled_from(range(2, 11)))
        sc = _with(_with(sc, "array", n_antennas=n), "clutter", count=draw(st.sampled_from(range(n, 11))),
                   sigma=draw(_uniform(0.5, 10.0)))
        ctx, rhos = build_context(sc), _rho_grid(sc.optimizer)
        rho = rhos[draw(st.sampled_from(range(rhos.size)))]
        powers = np.geomspace(dbm_to_watts(sc.power.min_dbm), dbm_to_watts(sc.targets.p_max_dbm), 100)
        deflection = np.array([ctx.operating_point(p, rho).deflection for p in powers.tolist()])
        falls = np.flatnonzero(np.diff(deflection) < 0.0)
        if falls.size:
            i = falls[draw(st.sampled_from(range(falls.size)))]
            pfa = draw(_uniform(0.01, 0.3))
            pd_min = float(q_function(inverse_q(pfa) - 0.5 * (deflection[i] + deflection[i + 1])))
            sc = _with(sc, "targets", rate_bps_hz=0.01, pfa_max=pfa, pd_min=pd_min)
    return sc


def _with(sc, section, **changes):
    return dataclasses.replace(sc, **{section: dataclasses.replace(getattr(sc, section), **changes)})


class TestExactSearch:
    """minimize_power assumes no monotonicity in power: its certified power
    is at most the first feasible power of a dense scan of the record, times
    1 + tol, and p* (1 - tol) and p* / (1 + tol) are infeasible at every split."""

    @settings(max_examples=80, deadline=None, derandomize=True, database=None)
    @given(searches())
    @example(SCENARIO_A)  # the island at rho = 0.35, between two coarse grid points
    @example(SCENARIO_B)  # feasible, infeasible and feasible again at rho = 0.95
    @example(ScenarioConfig())
    @example(_with(ScenarioConfig(), "optimizer", tol_factor=1e-20))  # settles on float spacing
    @example(_with(ScenarioConfig(), "optimizer", fixed_rho=0.9))
    @example(_with(ScenarioConfig(), "targets", rate_bps_hz=0.0, pd_min=0.0))  # feasible at the floor
    @example(_with(ScenarioConfig(), "targets", p_max_dbm=20.0))  # infeasible at the ceiling
    @example(_with(ScenarioConfig(), "targets", rate_bps_hz=30.0))  # no split reaches the rate
    @example(_with(ScenarioConfig(), "targets", p_max_dbm=300.0))  # undecided entries near the ceiling
    @example(_with(SCENARIO_A, "targets", p_max_dbm=150.0))
    @example(_with(SCENARIO_B, "optimizer", tol_factor=1e-20))
    def test_p_star_is_the_first_feasible_power_of_a_dense_scan(self, sc):
        # p* is the power the search hands the certificate, which rounds it up
        # onto the 9-digit grid and climbs from there until its audit passes
        ctx, rhos, tol = build_context(sc), _rho_grid(sc.optimizer), sc.optimizer.tol_factor
        p_min, p_max = dbm_to_watts(sc.power.min_dbm), dbm_to_watts(sc.targets.p_max_dbm)
        handed, certify = [], power_allocation._certificate
        with mock.patch.object(power_allocation, "_certificate", lambda c, p, r, m: handed.append(p) or certify(c, p, r, m)):
            result = minimize_power(ctx)
        scan = np.geomspace(p_min, p_max, 300)
        first = next((p for p in scan.tolist() if first_feasible_split(ctx, p, rhos) is not None), None)
        if first is not None:
            assert result.feasible and handed[0] <= first * (1.0 + tol)
        if handed:
            assert not result.feasible or result.point.power_watts >= handed[0]
            for below in (handed[0] * (1.0 - tol), handed[0] / (1.0 + tol)):
                below = min(below, math.nextafter(handed[0], 0.0))
                assert below < p_min or first_feasible_split(ctx, below, rhos) is None

    def test_a_replaced_context_builds_its_own_forms(self, default_context):
        # a context keeps the split forms of its first search, which hold its
        # targets; a context with other targets must not read them
        assert minimize_power(default_context).feasible
        assert not minimize_power(with_targets(default_context, rate_bps_hz=30.0)).feasible

    @pytest.mark.parametrize("scenario", [ScenarioConfig(), SCENARIO_A, SCENARIO_B], ids=["default", "A", "B"])
    def test_the_count_does_not_depend_on_what_the_shared_forms_read(self, scenario):
        # the shared forms count every entry any reader tests; a search reports
        # the entries it tested itself, whatever a tradeoff's rows or an earlier
        # search read on them first
        fresh, warm = minimize_power(build_context(scenario)), build_context(scenario)
        tradeoff_sweep(warm)
        minimize_power(warm)
        again = minimize_power(warm)
        assert again.evaluations == fresh.evaluations and again.point == fresh.point


class TestFeasibilityIsNotMonotone:
    """Scenario A, where feasibility is not monotone in power."""

    def test_a_feasible_island_below_the_ceiling(self):
        # at rho = 0.35 the detection floor holds near 38.1 W only; all three
        # powers lie below the 39.81 W ceiling
        points = [evaluate_point(SCENARIO_A, p, 0.35, None) for p in (32.4, 38.1, 39.8)]
        assert [point.feasible for point in points] == [False, True, False]
        assert points[1].pd == pytest.approx(0.335376, abs=5e-7)
        assert max(p.power_watts for p in points) < dbm_to_watts(SCENARIO_A.targets.p_max_dbm)

    def test_minimize_power_finds_the_island(self):
        result = minimize_power(build_context(SCENARIO_A))
        assert result.feasible and result.point.rho == 0.35
        assert 38.0 <= result.point.power_watts <= 38.1

    def test_scenario_b_keeps_its_optimum_at_the_first_of_three_crossings(self):
        # rho = 0.95 turns feasible at 0.190536 W, infeasible at 0.373976 W and
        # feasible again at 1.17802 W; the optimum is the first crossing
        result = minimize_power(build_context(SCENARIO_B))
        assert result.feasible and result.point.rho == 0.95
        assert result.point.power_watts == pytest.approx(0.1906, rel=1e-3)


class TestRateFloor:
    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(split_searches())
    def test_the_rate_test_turns_on_at_the_rate_floor(self, search):
        # the SINR sum rises in P, so the rate test is false just below the
        # one positive root of its quadratic and true just above it
        sc, _ = search
        forms = _SplitForms(build_context(sc), _rho_grid(sc.optimizer))
        floor = _rate_floor(forms)
        assert np.all(floor >= 0.0)
        finite = np.isfinite(floor) & (floor > 0.0)
        for side, reached in ((1.0 - 1e-9, False), (1.0 + 1e-9, True)):
            powers = np.where(finite, floor * side, 1.0)
            rows = forms.reaches(powers)
            assert np.all(np.diagonal(rows)[finite] == reached)
        # no root means the sum stays below 2^r - 1 up to any power
        assert not forms.reaches(np.array([1e300]))[0][np.isinf(floor)].any()


class TestDescartesGate:
    def test_one_sign_change_passes_and_more_shut_the_gate(self):
        poly = np.array([[-2.0, 0.0, 1.0, 3.0], [-2.0, 1.0, -1.0, 3.0], [-1.0, -1.0, -1.0, -1.0]])
        gated, rising = _descartes(poly, np.zeros_like(poly))
        assert gated.tolist() == [True, False, True] and rising.tolist() == [True, True, False]

    def test_an_unknown_sign_shuts_the_gate(self):
        # -(x^2 - d x + d^2 / 8) has two positive roots; with its middle
        # coefficient within its rounding estimate, its computed sign says
        # nothing, and trusting a - would allow no root at all
        d = 1e-3
        poly = np.array([[-d * d / 8.0, -1e-20, -1.0]])
        gated, _ = _descartes(poly, np.array([[0.0, 1e-18, 0.0]]))
        assert not gated[0]
        poly[0, 1] = d
        assert not _descartes(poly, np.zeros_like(poly))[0][0]

    def test_the_default_splits_pass_the_gate(self, default_context):
        forms = _SplitForms(default_context, _rho_grid(default_context.scenario.optimizer))
        forms._sense()
        gated, rising = _descartes(*_polynomial(forms)[:2])
        assert gated.all() and rising[forms.live].all()


class TestLargeArrays:
    def test_a_scene_of_32_antennas_and_32_scatterers(self, default_scenario):
        # k = min(N, L) = 32: the polynomials have degree 65, and the search
        # meets its contract there as on small scenes
        sc = dataclasses.replace(
            default_scenario,
            array=dataclasses.replace(default_scenario.array, n_antennas=32),
            clutter=dataclasses.replace(default_scenario.clutter, count=32),
        )
        ctx = build_context(sc)
        result = minimize_power(ctx)
        assert result.feasible and evaluate_point(sc, result.point.power_watts, result.point.rho, result.point.kappa).feasible
        rhos, tol = _rho_grid(sc.optimizer), sc.optimizer.tol_factor
        assert first_feasible_split(ctx, result.point.power_watts / (1.0 + tol), rhos) is None
