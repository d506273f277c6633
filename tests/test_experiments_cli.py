"""Reporting pipelines, file emission, and the command-line interface.

Emission is held to a round-trip standard: CSV parses back to the exact
records, JSON carries the same records, and re-running a scenario writes
byte-identical files wherever the output lands.
"""

import collections
import contextlib
import dataclasses
import io
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import jrcsim
from conftest import at_sigma
from jrcsim import cli
from jrcsim.cli import main
from jrcsim.context import KIND_CHANNEL, KIND_SCENE, KIND_TARGET_PHASE, build_context
from jrcsim.experiments import (
    COLUMNS,
    _level_curves,
    _table,
    emit_outputs,
    run_detection_sweep,
    run_optimize,
    run_scnr_sweep,
    run_tradeoff,
    run_validation,
)
from jrcsim.power_allocation import evaluate_point, minimize_power
from jrcsim.scenario import (
    CLUTTER_LEVELS,
    ConfigError,
    ScenarioConfig,
    config_hash,
    load_scenario,
    scenario_from_dict,
    watts_to_dbm,
)
from jrcsim.stats import canonical_ceil, canonical_float, derive_stream, first_doubles, float_text, inverse_q
from oracles import parse_table_csv, render_csv


@pytest.fixture(scope="module")
def scnr_run(fast_scenario):
    return run_scnr_sweep(fast_scenario)


@pytest.fixture(scope="module")
def detection_run(fast_scenario):
    return run_detection_sweep(fast_scenario)


@pytest.fixture(scope="module")
def tradeoff_run(fast_scenario):
    return run_tradeoff(fast_scenario)


@pytest.fixture(scope="module")
def validation_run(fast_scenario):
    return run_validation(fast_scenario)


def emit_into(tables, sc, out_dir, fmt="csv", command="test"):
    """emit_outputs with the scenario's output section set to out_dir and fmt."""
    output = dataclasses.replace(sc.output, dir=str(out_dir), format=fmt)
    return emit_outputs(tables, dataclasses.replace(sc, output=output), command=command)


def cell_values(rows, keys, value):
    out = {}
    for row in rows:
        out.setdefault(tuple(row[k] for k in keys), []).append(row[value])
    return out


class TestCanonicalFloat:
    def test_rounds_to_nine_significant_digits(self):
        assert canonical_float(1.0 / 3.0) == 0.333333333
        assert canonical_float(123456789.123) == 123456789.0
        assert canonical_float(0.000123456789123) == 0.000123456789
        assert canonical_float(31.0) == 31.0
        assert canonical_float(-2.5) == -2.5
        assert math.copysign(1.0, canonical_float(-0.0)) == 1.0

    def test_idempotent_across_magnitudes(self):
        rng = np.random.default_rng(0)
        for _ in range(500):
            x = float(rng.standard_normal() * 10.0 ** rng.integers(-12, 12))
            once = canonical_float(x)
            assert canonical_float(once) == once

    def test_ceiling_is_the_next_grid_value_up(self):
        assert canonical_ceil(1.0 / 3.0) == 0.333333334
        assert canonical_ceil(-1.0 / 3.0) == -0.333333333
        assert canonical_ceil(999999999.5) == 1e9
        assert canonical_ceil(0.0) == 0.0
        rng = np.random.default_rng(1)
        for _ in range(500):
            x = float(rng.standard_normal() * 10.0 ** rng.integers(-30, 30))
            up = canonical_ceil(x)
            assert up >= x and canonical_float(up) == up
            assert up == canonical_float(x) or canonical_float(x) < x


class TestScnrSweep:
    def test_shape_and_order(self, fast_scenario, scnr_run, tmp_path):
        sweep, summary = scnr_run
        assert sweep.name == "scnr_sweep"
        assert list(sweep.rows[0]) == [name for name, _ in COLUMNS["scnr_sweep"]]
        sc = fast_scenario
        expected = (
            sc.power.points
            * len(sc.sweep.antennas)
            * len(sc.sweep.carriers_ghz)
            * len(sc.sweep.clutter_levels)
        )
        assert len(sweep.rows) == expected
        keys = [
            (r["power_dbm"], r["n_antennas"], r["carrier_ghz"], r["clutter"]) for r in sweep.rows
        ]
        assert keys == sorted(keys)
        assert all(r["realizations"] == sc.sweep.realizations for r in sweep.rows)
        assert all(r["scnr_db_std"] >= 0.0 for r in sweep.rows)
        with open(emit_into(scnr_run, sc, tmp_path, "json")["scnr_sweep"], encoding="ascii") as fh:
            assert json.load(fh)["provenance"] == {"seed": sc.seed, "config_hash": config_hash(sc)}

    def test_clutter_free_cells_have_no_spread(self, scnr_run):
        # with no clutter only the target phase changes per realization,
        # which cannot move the average beyond rounding noise; noise below
        # the mean's 9th significant digit is emitted as an exact zero
        sweep, _ = scnr_run
        for row in sweep.rows:
            if row["clutter"] == "none":
                assert row["scnr_db_std"] == 0.0

    def test_clutter_orderings_hold_at_every_power(self, scnr_run):
        sweep, _ = scnr_run
        means = cell_values(
            sweep.rows, ("power_dbm", "n_antennas", "carrier_ghz", "clutter"), "scnr_db_mean"
        )
        for (p, n, f, level), values in means.items():
            assert len(values) == 1
            if level == "none":
                assert values[0] > means[(p, n, f, "light")][0]
                assert means[(p, n, f, "light")][0] > means[(p, n, f, "intense")][0]

    def test_aperture_and_carrier_orderings(self, scnr_run):
        sweep, _ = scnr_run
        means = {
            (r["power_dbm"], r["n_antennas"], r["carrier_ghz"]): r["scnr_db_mean"]
            for r in sweep.rows
            if r["clutter"] == "none"
        }
        powers = {p for p, _, _ in means}
        for p in powers:
            assert means[(p, 10, 2.8)] > means[(p, 5, 2.8)]
            assert means[(p, 10, 28.0)] > means[(p, 5, 28.0)]
            assert means[(p, 5, 2.8)] > means[(p, 5, 28.0)]
            assert means[(p, 10, 2.8)] > means[(p, 10, 28.0)]

    def test_summary_reduces_the_per_power_means(self, fast_scenario, scnr_run):
        sweep, summary = scnr_run
        assert summary.name == "scnr_table"
        assert list(summary.rows[0]) == [name for name, _ in COLUMNS["scnr_table"]]
        assert len(summary.rows) == len(fast_scenario.sweep.antennas) * len(
            fast_scenario.sweep.carriers_ghz
        )
        by_cell = cell_values(
            sweep.rows, ("carrier_ghz", "n_antennas", "clutter"), "scnr_db_mean"
        )
        for row in summary.rows:
            key = (row["carrier_ghz"], row["n_antennas"])
            none_mean = float(np.mean(by_cell[key + ("none",)]))
            intense_mean = float(np.mean(by_cell[key + ("intense",)]))
            assert row["mean_scnr_db"] == pytest.approx(none_mean, abs=1e-7)
            assert row["error_db"] == pytest.approx(none_mean - intense_mean, abs=1e-7)
            assert row["error_db"] > 0.0

    def test_summary_needs_both_reference_levels(self, fast_scenario):
        partial = dataclasses.replace(
            fast_scenario,
            sweep=dataclasses.replace(fast_scenario.sweep, clutter_levels=("light",), realizations=2),
        )
        sweep, summary = run_scnr_sweep(partial)
        assert len(sweep.rows) > 0
        assert summary.rows == ()


@st.composite
def sweep_pairs(draw):
    """A random valid scene for one (N, carrier) sweep pair and powers from 1e-4 W to 300 dBm.

    The clutter exclusion window is a multiple of the target's distance to the
    nearer end of (0, pi): at 1 it touches that end exactly, and at 1.5 it
    covers it, never both ends."""
    sc = ScenarioConfig()
    n = draw(st.sampled_from(range(1, 13)))
    f_ghz = draw(st.sampled_from([2.8, 28.0]))
    levels = draw(st.lists(st.sampled_from(["none", "light", "intense"]), min_size=1, max_size=3, unique=True))
    angle = draw(st.sampled_from([0.3, np.pi / 3, 2.0, 2.8]))
    window = draw(st.sampled_from([0.0, 0.05, 1.0, 1.5])) * min(angle, np.pi - angle)
    sc = dataclasses.replace(
        sc,
        seed=draw(st.integers(0, 2**32 - 1)),
        sweep=dataclasses.replace(
            sc.sweep,
            antennas=(n,),
            carriers_ghz=(f_ghz,),
            clutter_levels=tuple(levels),
            realizations=draw(st.sampled_from(range(1, 7))),
        ),
        array=dataclasses.replace(sc.array, spacing_m=draw(st.sampled_from([None, 0.004, 0.05]))),
        target=dataclasses.replace(sc.target, angle_rad=angle, phase=draw(st.sampled_from(["zero", "uniform"]))),
        clutter=dataclasses.replace(
            sc.clutter, count=draw(st.sampled_from(range(9))), angle_exclusion_rad=window
        ),
        path_loss=dataclasses.replace(sc.path_loss, kind=draw(st.sampled_from(["free_space", "tr38901_umi_los"]))),
        comm=dataclasses.replace(sc.comm, fading=draw(st.sampled_from(["los", "rayleigh"]))),
        power=dataclasses.replace(sc.power, rho=draw(st.sampled_from([0.0, 0.5, 1.0]))),
    )
    exponents = draw(st.lists(st.floats(-4.0, 27.0, allow_nan=False), min_size=1, max_size=8))
    return sc, n, f_ghz, draw(st.integers(0, 255)), 10.0 ** np.array(exponents)


def _oracle_level_curves(sc, n, f_ghz, pair_index, powers_w):
    """One context at the level's sigma and one lone curve per (level, realization)."""
    cell = dataclasses.replace(sc, array=dataclasses.replace(sc.array, n_antennas=n, carrier_ghz=f_ghz))
    out = []
    for level in sc.sweep.clutter_levels:
        curves = []
        for r in range(sc.sweep.realizations):
            scene = build_context(cell, scene_key=(pair_index << 24) | r)
            ctx = at_sigma(scene, CLUTTER_LEVELS[level])
            curves.append(ctx.average_scnr_curve(sc.power.rho, powers_w))
        out.append((level, np.array(curves)))
    return out


class TestStackedLevels:
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(sweep_pairs())
    def test_matches_the_per_realization_loop(self, pair):
        stacked = _level_curves(*pair)
        oracle = _oracle_level_curves(*pair)
        assert [level for level, _ in stacked] == [level for level, _ in oracle]
        for (_, got), (_, want) in zip(stacked, oracle):
            assert got.shape == want.shape
            assert np.array_equal(got, want)


class TestSweepDrawsOnlyTheScene:
    @pytest.mark.parametrize("fading, phase", [("los", "uniform"), ("rayleigh", "zero")])
    def test_no_context_and_only_the_drawn_streams(self, fast_scenario, fading, phase):
        sc = dataclasses.replace(
            fast_scenario,
            comm=dataclasses.replace(fast_scenario.comm, fading=fading),
            target=dataclasses.replace(fast_scenario.target, phase=phase),
        )
        contexts, kinds = 0, collections.Counter()

        def record(frame, event, arg):
            nonlocal contexts
            if event == "call" and frame.f_code is build_context.__code__:
                contexts += 1
            elif event == "call" and frame.f_code is derive_stream.__code__:
                kinds[frame.f_locals["stream_id"] >> 48] += 1
            elif event == "call" and frame.f_code is first_doubles.__code__:
                kinds.update(stream >> 48 for stream in frame.f_locals["stream_ids"])

        sys.setprofile(record)
        try:
            run_scnr_sweep(sc)
        finally:
            sys.setprofile(None)
        # the reduced scene has clutter; a phase or channel stream is keyed only where
        # drawn, whether one at a time or in a keyed pass over every realization
        realizations = len(sc.sweep.antennas) * len(sc.sweep.carriers_ghz) * sc.sweep.realizations
        drawn = {KIND_SCENE: realizations}
        if phase == "uniform":
            drawn[KIND_TARGET_PHASE] = realizations
        if fading == "rayleigh":
            drawn[KIND_CHANNEL] = realizations
        assert contexts == 0
        assert kinds == drawn


class TestDetectionSweep:
    def test_shape_shared_grid_and_order(self, fast_scenario, detection_run):
        (table,) = detection_run
        assert table.name == "detection_sweep"
        det = fast_scenario.detection
        cells = len(det.powers_dbm) * len(det.clutter_levels)
        assert len(table.rows) == cells * det.kappa_points
        kappas = sorted({r["kappa"] for r in table.rows})
        assert len(kappas) == det.kappa_points  # one grid shared by every cell
        per_cell = cell_values(table.rows, ("power_dbm", "clutter"), "kappa")
        assert all(sorted(v) == kappas for v in per_cell.values())
        keys = [(r["kappa"], r["power_dbm"], r["clutter"]) for r in table.rows]
        assert keys == sorted(keys)

    def test_rows_are_well_formed(self, fast_scenario, detection_run):
        (table,) = detection_run
        for r in table.rows:
            assert 0.0 <= r["pfa_mc"] <= 1.0
            assert 0.0 <= r["pd_mc"] <= 1.0
            assert r["pfa_ci_lo"] <= r["pfa_mc"] <= r["pfa_ci_hi"]
            assert r["pd_ci_lo"] <= r["pd_mc"] <= r["pd_ci_hi"]
            assert r["trials"] == fast_scenario.detection.trials
            assert r["pd_analytic"] >= r["pfa_analytic"] - 1e-9

    def test_curves_fall_with_the_threshold(self, detection_run):
        (table,) = detection_run
        by_cell = {}
        for r in table.rows:
            by_cell.setdefault((r["power_dbm"], r["clutter"]), []).append(r)
        for rows in by_cell.values():
            rows = sorted(rows, key=lambda r: r["kappa"])
            pd_mc = [r["pd_mc"] for r in rows]
            pfa_mc = [r["pfa_mc"] for r in rows]
            assert all(a >= b for a, b in zip(pd_mc, pd_mc[1:]))
            assert all(a >= b for a, b in zip(pfa_mc, pfa_mc[1:]))

    def test_light_clutter_dominates_intense(self, detection_run):
        (table,) = detection_run
        pd = {
            (r["kappa"], r["power_dbm"], r["clutter"]): r["pd_analytic"] for r in table.rows
        }
        strict = 0
        for (kappa, power, level), value in pd.items():
            if level != "light":
                continue
            other = pd[(kappa, power, "intense")]
            assert value >= other
            strict += int(value > other)
        assert strict > 0

    def test_rerun_is_identical(self, fast_scenario, detection_run):
        again = run_detection_sweep(fast_scenario)
        assert again[0].rows == detection_run[0].rows


class TestTradeoffAndOptimize:
    def test_tables_and_certificate(self, fast_scenario, tradeoff_run):
        sweep, optimum = tradeoff_run
        assert sweep.name == "tradeoff"
        assert optimum.name == "optimum"
        assert list(sweep.rows[0]) == [name for name, _ in COLUMNS["tradeoff"]]
        assert len(sweep.rows) == fast_scenario.power.points
        powers = [r["power_dbm"] for r in sweep.rows]
        assert powers == sorted(powers)
        flags = [r["feasible"] for r in sweep.rows]
        assert flags == sorted(flags) and not flags[0] and flags[-1]
        assert optimum.rows[0]["feasible"] is True

    def test_optimum_row_reflects_the_result(self, fast_scenario, tradeoff_run):
        result = minimize_power(build_context(fast_scenario))
        (row,) = tradeoff_run[1].rows
        assert row["feasible"] is True
        assert row["p_star_watts"] == pytest.approx(result.point.power_watts, rel=1e-8)
        assert row["p_star_dbm"] == pytest.approx(watts_to_dbm(result.point.power_watts), rel=1e-8)
        assert row["rho"] == pytest.approx(result.point.rho, rel=1e-8)
        assert row["kappa"] == pytest.approx(result.point.kappa, rel=1e-8)
        assert row["evaluations"] == result.evaluations
        targets = fast_scenario.targets
        assert row["rate_bps_hz"] >= targets.rate_bps_hz - 1e-9
        assert row["pd"] >= targets.pd_min - 1e-9
        assert row["pfa"] <= targets.pfa_max * (1.0 + 1e-6)
        assert row["scnr_avg"] > 0.0

    def test_even_odds_cap_emits_no_negative_zero(self, fast_scenario, tmp_path):
        # at pfa_max 0.5 the threshold is Q^-1(0.5) = -0.0 on every row; it
        # reads as 0 in the tradeoff rows as in the optimum row
        even = dataclasses.replace(
            fast_scenario, targets=dataclasses.replace(fast_scenario.targets, pfa_max=0.5)
        )
        tables = run_tradeoff(even)
        for fmt in ("csv", "json"):
            emit_into(tables, even, tmp_path / fmt, fmt=fmt)
        cells = [
            cell
            for name in ("tradeoff", "optimum")
            for line in (tmp_path / "csv" / f"{name}.csv").read_text().splitlines()[1:]
            for cell in line.split(",")
        ]
        assert "0" in cells and "-0" not in cells
        kappas = [
            record["kappa"]
            for name in ("tradeoff", "optimum")
            for record in json.loads((tmp_path / "json" / f"{name}.json").read_text())["records"]
        ]
        assert kappas and all(k == 0.0 and math.copysign(1.0, k) == 1.0 for k in kappas)

    def test_infeasible_run_emits_an_explicit_record(self, fast_scenario):
        pinched = dataclasses.replace(
            fast_scenario,
            targets=dataclasses.replace(fast_scenario.targets, p_max_dbm=10.0),
        )
        tables = run_optimize(pinched)
        (row,) = tables[0].rows
        assert list(row) == [name for name, _ in COLUMNS["optimum"]]
        assert row["feasible"] is False
        for key in ("p_star_dbm", "p_star_watts", "rho", "kappa", "rate_bps_hz", "pd", "pfa", "scnr_avg"):
            assert row[key] is None
        assert isinstance(row["evaluations"], int) and row["evaluations"] > 0


class TestTableTypes:
    def test_every_value_is_empty_or_its_column_kind(
        self, fast_scenario, scnr_run, detection_run, tradeoff_run, validation_run, monkeypatch
    ):
        # a NumPy bool_ would print True in the CSV, not true, and a NumPy
        # int64 would break json.dump; an infeasible optimum row holds None
        pinched = dataclasses.replace(
            fast_scenario, targets=dataclasses.replace(fast_scenario.targets, p_max_dbm=10.0)
        )
        tables = [*scnr_run, *detection_run, *tradeoff_run, *run_optimize(pinched), *validation_run]
        names = ["scnr_sweep", "scnr_table", "detection_sweep", "tradeoff", "optimum", "optimum", "validate"]
        assert [table.name for table in tables] == names
        for table in tables:
            kinds = dict(COLUMNS[table.name])
            assert table.rows
            for row in table.rows:
                for name, value in row.items():
                    assert value is None or type(value) is kinds[name], (table.name, name, type(value))
        # NumPy scalars of every kind, shared or per row, become Python values,
        # each cell with the CSV text of its value: a float rounded once, and
        # a zero, negative or not, read as 0 with the value +0.0
        monkeypatch.setitem(COLUMNS, "kinds", (("x", float), ("n", int), ("flag", bool), ("label", str)))
        xs = [-0.0, 1e-5, 1.5e20, np.float32(0.5), np.inf, None]
        block = {"x": xs, "n": np.int64(3), "flag": np.array([True, False] * 3), "label": np.str_("a")}
        table = _table("kinds", [block], ())
        kinds = [[type(v) for v in row.values()] for row in table.rows]
        assert kinds == [[float, int, bool, str]] * 5 + [[type(None), int, bool, str]]
        assert [row["x"] for row in table.rows] == [0.0, 1e-5, 1.5e20, 0.5, np.inf, None]
        assert math.copysign(1.0, table.rows[0]["x"]) == 1.0
        assert table.texts == (
            ("0", "3", "true", "a"),
            ("0.00001", "3", "false", "a"),
            ("150000000000000000000", "3", "true", "a"),
            ("0.5", "3", "false", "a"),
            ("inf", "3", "true", "a"),
            ("", "3", "false", "a"),
        )

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(st.lists(st.floats(), min_size=1, max_size=8))
    def test_each_float_is_rounded_once(self, xs):
        # any double, subnormals, infinities, -0.0 and NaN among them: the
        # value is the canonical float and the text is that value's own text
        with pytest.MonkeyPatch.context() as patch:
            patch.setitem(COLUMNS, "floats", (("x", float),))
            table = _table("floats", [{"x": xs}], ())
        for x, row, (text,) in zip(xs, table.rows, table.texts, strict=True):
            assert type(row["x"]) is float and repr(row["x"]) == repr(canonical_float(x))
            assert text == float_text(row["x"])


class TestCsvText:
    @pytest.mark.parametrize("case", ["fast", "even_odds", "pinched"])
    def test_each_file_is_its_rows_rendered_cell_by_cell(self, fast_scenario, case, tmp_path):
        # the CSV writes the text each float was rounded from; rendered anew
        # from the rounded values, one cell at a time, every file reads the
        # same byte for byte: at pfa_max 0.5 every threshold is -0.0, and at a
        # 10 dBm ceiling the optimum row is all empty
        targets = {"fast": {}, "even_odds": {"pfa_max": 0.5}, "pinched": {"p_max_dbm": 10.0}}[case]
        sc = dataclasses.replace(fast_scenario, targets=dataclasses.replace(fast_scenario.targets, **targets))
        runners = (run_scnr_sweep, run_detection_sweep, run_tradeoff, run_optimize, run_validation)
        every = []
        for run in runners:
            tables = run(sc)
            written = emit_into(tables, sc, tmp_path / run.__name__)
            for table in tables:
                with open(written[table.name], "rb") as fh:
                    assert fh.read() == render_csv(table), (run.__name__, table.name)
            every.extend(tables)
        names = ["scnr_sweep", "scnr_table", "detection_sweep", "tradeoff", "optimum", "optimum", "validate"]
        assert [table.name for table in every] == names
        (optimum,) = every[5].rows
        if case == "even_odds":
            assert optimum["kappa"] == 0.0
        assert optimum["feasible"] is (case != "pinched")


class TestValidation:
    def test_shape_and_order(self, fast_scenario, validation_run):
        (table,) = validation_run
        assert table.name == "validate"
        assert list(table.rows[0]) == [name for name, _ in COLUMNS["validate"]]
        det = fast_scenario.detection
        cells = len(det.powers_dbm) * len(det.clutter_levels)
        assert len(table.rows) == cells * det.kappa_points * 2
        keys = [(r["power_dbm"], r["clutter"], r["kappa"], r["metric"]) for r in table.rows]
        assert keys == sorted(keys)

    def test_grids_are_tailored_per_cell(self, fast_scenario, validation_run):
        # every cell spans its own transition, so the grid tops differ
        (table,) = validation_run
        tops = {
            (r["power_dbm"], r["clutter"]): max(
                row["kappa"]
                for row in table.rows
                if (row["power_dbm"], row["clutter"]) == (r["power_dbm"], r["clutter"])
            )
            for r in table.rows
        }
        assert len(set(tops.values())) == len(tops)

    def test_check_flags_are_consistent(self, validation_run):
        (table,) = validation_run
        checked = 0
        for r in table.rows:
            assert r["abs_err"] == pytest.approx(abs(r["analytic"] - r["mc"]), abs=2e-9)
            in_band = 1e-3 <= r["analytic"] <= 1.0 - 1e-3
            assert r["checked"] == in_band
            if r["checked"]:
                checked += 1
                assert r["ok"] == (r["abs_err"] <= r["tol_3se"])
            else:
                assert r["ok"] is True
        assert checked > 0

    def test_every_checked_probability_agrees(self, validation_run):
        # each row's own flag is a 3-standard-error test, which a correct
        # sampler misses somewhere in 28 checked rows about 7 % of the time
        # (1 - 0.9973^28); the table is held to a family-wise false-failure
        # rate of 1e-3 instead, Q^-1(1e-3 / (2 m)) standard errors over m rows
        # (about 4.13 at m = 28). The draw itself is pinned trial by trial in
        # test_detection.
        (table,) = validation_run
        checked = [r for r in table.rows if r["checked"]]
        z_max = inverse_q(1e-3 / (2 * len(checked)))
        for r in checked:
            assert r["abs_err"] <= z_max * r["tol_3se"] / 3.0, r


class TestEmission:
    def test_csv_round_trips_exactly(self, fast_scenario, detection_run, tmp_path):
        written = emit_into(detection_run, fast_scenario, tmp_path / "a")
        records = parse_table_csv(written["detection_sweep"], "detection_sweep")
        assert records == list(detection_run[0].rows)

    def test_json_carries_the_same_records(self, fast_scenario, detection_run, tmp_path):
        csv_files = emit_into(detection_run, fast_scenario, tmp_path / "c")
        json_files = emit_into(detection_run, fast_scenario, tmp_path / "j", "json")
        with open(json_files["detection_sweep"], encoding="ascii") as fh:
            doc = json.load(fh)
        assert doc["name"] == "detection_sweep"
        assert doc["columns"] == [name for name, _ in COLUMNS["detection_sweep"]]
        with open(json_files["manifest"], encoding="ascii") as fh:
            manifest = json.load(fh)
        # one provenance per run: every table carries the manifest's seed and hash
        assert doc["provenance"] == {"seed": manifest["seed"], "config_hash": manifest["config_hash"]}
        assert doc["provenance"] == {"seed": fast_scenario.seed, "config_hash": config_hash(fast_scenario)}
        assert doc["records"] == parse_table_csv(csv_files["detection_sweep"], "detection_sweep")

    def test_nulls_round_trip_through_both_formats(self, fast_scenario, tmp_path):
        pinched = dataclasses.replace(
            fast_scenario,
            targets=dataclasses.replace(fast_scenario.targets, p_max_dbm=10.0),
        )
        tables = run_optimize(pinched)
        csv_files = emit_into(tables, pinched, tmp_path / "c")
        json_files = emit_into(tables, pinched, tmp_path / "j", "json")
        (record,) = parse_table_csv(csv_files["optimum"], "optimum")
        assert record["p_star_dbm"] is None
        assert record["feasible"] is False
        with open(csv_files["optimum"], encoding="ascii") as fh:
            header, line = fh.read().splitlines()
        assert line.startswith("false,,,")  # None renders as an empty cell
        with open(json_files["optimum"], encoding="ascii") as fh:
            doc = json.load(fh)
        assert doc["records"] == [record]  # null and empty cell mean the same absence

    def test_manifest_names_the_run_without_timestamps(self, fast_scenario, detection_run, tmp_path):
        out = tmp_path / "m"
        written = emit_into(detection_run, fast_scenario, out, command="detection-sweep")
        with open(written["manifest"], encoding="ascii") as fh:
            manifest = json.load(fh)
        assert sorted(manifest) == ["command", "config_hash", "files", "format", "seed", "version"]
        assert manifest["command"] == "detection-sweep"
        assert manifest["config_hash"] == config_hash(fast_scenario)
        assert manifest["files"] == {"detection_sweep": "detection_sweep.csv"}
        assert manifest["format"] == "csv"
        assert manifest["seed"] == fast_scenario.seed
        assert manifest["version"] == jrcsim.__version__

    def test_reruns_are_byte_identical_anywhere(self, fast_scenario, detection_run, tmp_path):
        first = emit_into(detection_run, fast_scenario, tmp_path / "x")
        second = emit_into(detection_run, fast_scenario, tmp_path / "y")
        for name in first:
            with open(first[name], "rb") as fh:
                a = fh.read()
            with open(second[name], "rb") as fh:
                b = fh.read()
            assert a == b

    def test_writes_where_the_scenario_says_and_nowhere_else(self, fast_scenario, detection_run, tmp_path):
        written = emit_into(detection_run, fast_scenario, tmp_path / "s", "json")
        assert written["detection_sweep"] == str(tmp_path / "s" / "detection_sweep.json")
        # the directory is the scenario's, so a stale positional one is an error, not ignored
        with pytest.raises(TypeError):
            emit_outputs(detection_run, fast_scenario, str(tmp_path / "stale"))
        assert not (tmp_path / "stale").exists()

    def test_blocked_output_path_raises_os_error(self, fast_scenario, detection_run, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        with pytest.raises(OSError):
            emit_into(detection_run, fast_scenario, blocker)

    def test_parser_rejects_foreign_headers(self, fast_scenario, detection_run, tmp_path):
        written = emit_into(detection_run, fast_scenario, tmp_path / "h")
        path = written["detection_sweep"]
        with open(path, encoding="ascii") as fh:
            lines = fh.read().splitlines()
        lines[0] = lines[0].replace("kappa", "threshold")
        with open(path, "w", encoding="ascii") as fh:
            fh.write("\n".join(lines) + "\n")
        with pytest.raises(ValueError):
            parse_table_csv(path, "detection_sweep")


CLI_CONFIG = {
    "sweep": {
        "antennas": [5],
        "carriers_ghz": [2.8],
        "clutter_levels": ["none", "intense"],
        "realizations": 2,
    },
    "power": {"points": 3},
    "detection": {
        "trials": 400,
        "kappa_points": 5,
        "powers_dbm": [30.0],
        "clutter_levels": ["light"],
    },
    "optimizer": {"power_points": 12, "rho_points": 5},
}


@pytest.fixture()
def cli_config(tmp_path):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(CLI_CONFIG))
    return str(path)


class TestCli:
    def test_every_subcommand_writes_its_tables(self, cli_config, tmp_path, capsys):
        expected_files = {
            "scnr-sweep": ["scnr_sweep.csv", "scnr_table.csv"],
            "detection-sweep": ["detection_sweep.csv"],
            "tradeoff": ["tradeoff.csv", "optimum.csv"],
            "optimize": ["optimum.csv"],
            "validate": ["validate.csv"],
        }
        for command, names in expected_files.items():
            out = tmp_path / command.replace("-", "_")
            rc = main([command, "--config", cli_config, "--out", str(out)])
            text = capsys.readouterr().out
            assert rc == 0
            assert "wrote" in text
            for name in names + ["manifest.json"]:
                assert (out / name).is_file()

    def test_summaries_are_printed(self, cli_config, tmp_path, capsys):
        rc = main(["validate", "--config", cli_config, "--out", str(tmp_path / "v")])
        assert rc == 0
        assert "within 3 standard errors" in capsys.readouterr().out
        rc = main(["optimize", "--config", cli_config, "--out", str(tmp_path / "o")])
        assert rc == 0
        assert "p* =" in capsys.readouterr().out

    def test_json_format_flag(self, cli_config, tmp_path):
        out = tmp_path / "j"
        rc = main([
            "detection-sweep", "--config", cli_config, "--out", str(out), "--format", "json",
        ])
        assert rc == 0
        assert (out / "detection_sweep.json").is_file()
        with open(out / "manifest.json", encoding="ascii") as fh:
            assert json.load(fh)["format"] == "json"

    def test_trials_and_seed_overrides_take_effect(self, cli_config, tmp_path):
        out = tmp_path / "t"
        rc = main([
            "detection-sweep", "--config", cli_config, "--out", str(out),
            "--trials", "200", "--seed", "5",
        ])
        assert rc == 0
        records = parse_table_csv(str(out / "detection_sweep.csv"), "detection_sweep")
        assert all(r["trials"] == 200 for r in records)
        with open(out / "manifest.json", encoding="ascii") as fh:
            manifest = json.load(fh)
        assert manifest["seed"] == 5

    def test_runs_are_reproducible_across_directories(self, cli_config, tmp_path):
        for out in ("a", "b"):
            rc = main(["scnr-sweep", "--config", cli_config, "--out", str(tmp_path / out)])
            assert rc == 0
        for name in ("scnr_sweep.csv", "scnr_table.csv", "manifest.json"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_usage_and_config_errors_exit_one(self, cli_config, tmp_path, capsys):
        bad_config = tmp_path / "bad.json"
        bad_config.write_text(json.dumps({"array": {"n_antenas": 5}}))
        broken = tmp_path / "broken.json"
        broken.write_text("{oops")
        cases = [
            [],
            ["mystery-command"],
            ["optimize", "--bogus"],
            ["optimize", "--seed", "-1"],
            ["optimize", "--trials", "0"],
            ["optimize", "--config", str(bad_config)],
            ["optimize", "--config", str(broken)],
            ["optimize", "--config", str(tmp_path / "absent.json")],
        ]
        for argv in cases:
            rc = main(argv)
            err = capsys.readouterr().err
            assert rc == 1
            assert "error:" in err

    def test_seed_is_one_philox_key_word(self, cli_config, tmp_path, capsys):
        # a seed past one 64-bit Philox key word would alias a smaller seed, so it is rejected
        rc = main(["optimize", "--config", cli_config, "--out", str(tmp_path / "big"), "--seed", str(2**64)])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("error: config.seed: ") and err.count("\n") == 1
        assert not (tmp_path / "big").exists()
        out = tmp_path / "top"
        rc = main(["optimize", "--config", cli_config, "--out", str(out), "--seed", str(2**64 - 1)])
        assert rc == 0
        with open(out / "manifest.json", encoding="ascii") as fh:
            assert json.load(fh)["seed"] == 2**64 - 1

    def test_format_flag_is_checked_by_the_output_section(self, cli_config, tmp_path, capsys):
        # the scenario's output section holds the one format rule
        out = tmp_path / "out"
        rc = main(["optimize", "--config", cli_config, "--out", str(out), "--format", "xml"])
        assert rc == 1
        assert capsys.readouterr().err == "error: output.format: must be one of ['csv', 'json'], got 'xml'\n"
        assert not out.exists()

    def test_scenes_that_cannot_be_built_are_config_errors(self, tmp_path, capsys):
        # each passed validation once and then raised from the scene build
        for field, config in (
            ("clutter.angle_exclusion_rad", {"clutter": {"angle_exclusion_rad": 3.0}, "target": {"angle_rad": 1.5}}),
            ("path_loss.h_bs_m", {"path_loss": {"kind": "tr38901_umi_los", "h_bs_m": 0.5}}),
            # a relay on the destination once failed in the relay hop's path loss
            ("comm.relay_range_m", {"comm": {"relay_range_m": 20.0, "relay_angle_rad": 1.7}}),
        ):
            path = tmp_path / f"{field}.json"
            path.write_text(json.dumps(config))
            for command in ("scnr-sweep", "detection-sweep", "tradeoff", "optimize", "validate"):
                rc = main([command, "--config", str(path), "--out", str(tmp_path / "out")])
                err = capsys.readouterr().err
                assert rc == 1
                assert err.startswith(f"error: {field}: ") and err.count("\n") == 1
                assert "Traceback" not in err

    def test_removed_and_out_of_range_fields_are_one_line_errors(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        for config, message in (
            ({"optimizer": {"kappa_points": 101}}, "optimizer.kappa_points: unknown field"),
            ({"detection": {"eta": 1e-6}}, "detection.eta: unknown field"),
            ({"targets": {"pfa_max": 1.0}}, "targets.pfa_max: must be < 1.0, got 1.0"),
            ({"target": {"rcs_scale": 1e200}}, "target.rcs_scale: must be <= 1e+40, got 1e+200"),
            ({"clutter": {"sigma": 1e200}}, "clutter.sigma: must be <= 1e+40, got 1e+200"),
            ({"target": {"range_m": 1e-300}}, "target.range_m: must be >= 1e-06, got 1e-300"),
            ({"array": {"carrier_ghz": 1e-300}}, "array.carrier_ghz: must be >= 1e-06, got 1e-300"),
            ({"comm": {"noise_var_dest_w": 1e-300}}, "comm.noise_var_dest_w: must be >= 1e-30, got 1e-300"),
            ({"sweep": {"carriers_ghz": [28.0, 1e7]}}, "sweep.carriers_ghz[1]: must be <= 1000000.0, got 10000000.0"),
            ({"targets": {"rate_bps_hz": 1e6}}, "targets.rate_bps_hz: must be <= 1000.0, got 1000000.0"),
            # repeated entries once wrote rows with tied keys and a summary of the last pair only
            (
                {"sweep": {"antennas": [5, 5], "carriers_ghz": [2.8, 2.8]}},
                "sweep.antennas: entries must be distinct, got [5, 5]",
            ),
            # a threshold span past the float range once overflowed the kappa grid
            (
                {"detection": {"kappa_min": -1e308, "kappa_max": 1e308}},
                "detection.kappa_min: must be >= -1e+300, got -1e+308",
            ),
            ({"detection": {"kappa_max": 1e308}}, "detection.kappa_max: must be <= 1e+300, got 1e+308"),
        ):
            path.write_text(json.dumps(config))
            for command in ("scnr-sweep", "detection-sweep", "tradeoff", "optimize", "validate"):
                rc = main([command, "--config", str(path), "--out", str(tmp_path / "out")])
                assert rc == 1
                assert capsys.readouterr().err == f"error: {message}\n"

    def test_unit_detection_floor_exits_two(self, tmp_path, capsys):
        # P_D = 1 needs an infinite deflection, which no power gives
        path = tmp_path / "certain.json"
        path.write_text(json.dumps(dict(CLI_CONFIG, targets={"pd_min": 1.0})))
        out = tmp_path / "out"
        assert main(["optimize", "--config", str(path), "--out", str(out)]) == 2
        capsys.readouterr()
        assert parse_table_csv(str(out / "optimum.csv"), "optimum")[0]["feasible"] is False

    def test_infeasible_budget_exits_two_but_reports(self, tmp_path, capsys):
        config = dict(CLI_CONFIG)
        config["targets"] = {"p_max_dbm": 10.0}
        path = tmp_path / "pinched.json"
        path.write_text(json.dumps(config))
        out = tmp_path / "out"
        rc = main(["optimize", "--config", str(path), "--out", str(out)])
        text = capsys.readouterr().out
        assert rc == 2
        assert "infeasible" in text
        records = parse_table_csv(str(out / "optimum.csv"), "optimum")
        assert records[0]["feasible"] is False

    def test_tolerance_below_float_spacing_still_finishes(self, tmp_path, capsys):
        # the bisection stops once the bracket cannot be split any further
        config = dict(CLI_CONFIG, optimizer={**CLI_CONFIG["optimizer"], "tol_factor": 1e-20})
        path = tmp_path / "tight.json"
        path.write_text(json.dumps(config))
        out = tmp_path / "out"
        assert main(["optimize", "--config", str(path), "--out", str(out)]) == 0
        capsys.readouterr()
        row = parse_table_csv(str(out / "optimum.csv"), "optimum")[0]
        point = evaluate_point(
            load_scenario(str(path)), row["p_star_watts"], row["rho"], row["kappa"]
        )
        assert point.feasible

    @pytest.mark.parametrize(
        "command", ["scnr-sweep", "tradeoff", "detection-sweep", "optimize", "validate", "optimize --format json"]
    )
    def test_extreme_powers_give_finite_tables(self, command, tmp_path, capsys):
        # past ~178 dBm I + P M is no longer numerically positive definite,
        # which once crashed a Cholesky factorization with a traceback; the
        # schema admits powers out to +-300 dBm, reflectivity and clutter
        # scales, lengths, carriers, noise variances, relay power and rate
        # target out to their bounds, so every command must run at those ends,
        # each bound at both dBm ends and with the largest reflectivity and
        # clutter scale (optimize may find the target out of reach and exit 2)
        windows = [(150.0, 200.0, 210.0), (250.0, 300.0, 300.0), (-300.0, -240.0, -240.0)]
        strongest = {"target": {"rcs_scale": 1e40}, "clutter": {"sigma": 1e40}}
        magnitudes = [
            {"target": {"rcs_scale": 1e40}},
            strongest,
            {"target": {"rcs_scale": 1e-30}, "clutter": {"sigma": 1e40}},
        ]
        bounds = [
            {section: {name: value}}
            for section, name, values in (
                ("target", "range_m", (1e-6, 1e9)),
                ("comm", "destination_range_m", (1e-6, 1e9)),
                ("comm", "relay_range_m", (1e-6, 1e9)),
                ("array", "spacing_m", (1e-6, 1e9)),
                ("array", "carrier_ghz", (1e-6, 1e6)),
                ("comm", "noise_var_dest_w", (1e-30, 1e40)),
                ("comm", "noise_var_relay_w", (1e-30, 1e40)),
                ("comm", "relay_power_w", (0.0, 1e40)),
                ("targets", "rate_bps_hz", (1000.0,)),
                ("sweep", "carriers_ghz", ([1e-6, 1e6],)),
                ("detection", "kappa_min", (-1e300,)),
            )
            for value in values
        ] + [
            {"clutter": {"min_range_m": 1e-6, "max_range_m": 2e-6}},
            {"clutter": {"min_range_m": 5e8, "max_range_m": 1e9}},
            {"path_loss": {"kind": "tr38901_umi_los", "h_bs_m": 1e9, "h_ut_m": 1e9}},
            {"detection": {"kappa_min": -1e300, "kappa_max": 1e300}},
        ]
        cases = (
            [(window, ()) for window in windows]
            + [(window, (m,)) for window in windows[1:] for m in magnitudes]
            + [(window, (b,)) for window in windows[1:] for b in bounds]
            + [(windows[1], (b, strongest)) for b in bounds]
        )
        for k, ((min_dbm, max_dbm, p_max_dbm), extremes) in enumerate(cases):
            config = {
                "power": {"min_dbm": min_dbm, "max_dbm": max_dbm, "points": 6},
                "targets": {"p_max_dbm": p_max_dbm},
                "detection": {"powers_dbm": [min_dbm, max_dbm], "trials": 400, "kappa_points": 5},
                "sweep": {"realizations": 3},
                "optimizer": {"power_points": 12, "rho_points": 5},
            }
            for extreme in extremes:
                for section, values in extreme.items():
                    config.setdefault(section, {}).update(values)
            path = tmp_path / f"extreme_{k}.json"
            path.write_text(json.dumps(config))
            out = tmp_path / f"out_{k}"
            rc = main([*command.split(), "--config", str(path), "--out", str(out)])
            capsys.readouterr()
            assert rc == 0 or (command.startswith("optimize") and rc == 2), config
            manifest = json.loads((out / "manifest.json").read_text())
            for name, filename in manifest["files"].items():
                if manifest["format"] == "json":
                    rows = json.loads((out / filename).read_text())["records"]
                else:
                    rows = parse_table_csv(str(out / filename), name)
                for row in rows:
                    for col, kind in COLUMNS[name]:
                        if kind is float and row[col] is not None:
                            assert np.isfinite(row[col]), (config, name, col, row)

    def test_unwritable_output_exits_three(self, cli_config, tmp_path, capsys):
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        rc = main(["optimize", "--config", cli_config, "--out", str(blocker)])
        assert rc == 3
        assert "i/o error:" in capsys.readouterr().err

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert jrcsim.__version__ in capsys.readouterr().out

    def test_out_of_memory_exits_one_with_one_line(self, cli_config, tmp_path, capsys, monkeypatch):
        message = "Unable to allocate 76.3 MiB for an array with shape (10000000,) and data type float64"

        def exhausted(scenario):
            raise MemoryError(message)

        help_text, _, summary = cli._COMMANDS["validate"]
        monkeypatch.setitem(cli._COMMANDS, "validate", (help_text, exhausted, summary))
        rc = main(["validate", "--config", cli_config, "--out", str(tmp_path / "v")])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.err.splitlines() == [f"error: out of memory: {message}; reduce the scenario's size"]
        assert captured.out == ""


# A child interpreter that caps its own address space (RLIMIT_AS) before it
# imports jrcsim, runs one command and prints its peak virtual size in KiB, so
# the cap never applies to the test process or to anything else.
_CAPPED_CHILD = """
import resource, sys
cap = int(sys.argv[1])
if cap:
    resource.setrlimit(resource.RLIMIT_AS, (cap, cap))
from jrcsim.cli import main
code = main(sys.argv[2:])
with open("/proc/self/status") as fh:
    print(next(line.split()[1] for line in fh if line.startswith("VmPeak:")))
sys.exit(code)
"""

# headroom over a default-sized run's peak: less than one float64 array of
# 10^7 trials (76.3 MiB)
_CAP_MARGIN = 48 << 20


def _run_capped(args, cap=0):
    src = os.path.dirname(os.path.dirname(jrcsim.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    return subprocess.run(
        [sys.executable, "-c", _CAPPED_CHILD, str(cap), *args], env=env, capture_output=True, text=True, timeout=120,
    )


def _cap_from(args) -> int:
    """The child's own peak virtual size on a default-sized run, plus the margin, in bytes."""
    done = _run_capped(args)
    assert done.returncode == 0, done.stderr
    return int(done.stdout.split()[-1]) * 1024 + _CAP_MARGIN


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="reads the peak virtual size from /proc")
class TestMemoryCeiling:
    def test_many_trials_fit_in_the_memory_of_the_default(self, tmp_path):
        # the trials of a cell stream through one block buffer, so 10^7 per
        # cell run under a cap that one array of them would overflow
        cap = _cap_from(["detection-sweep", "--out", str(tmp_path / "default")])
        done = _run_capped(["detection-sweep", "--trials", "10000000", "--out", str(tmp_path / "many")], cap)
        assert done.returncode == 0, done.stderr
        assert "10000000 trials each" in done.stdout
        records = parse_table_csv(str(tmp_path / "many" / "detection_sweep.csv"), "detection_sweep")
        assert records and all(r["trials"] == 10_000_000 for r in records)

    def test_out_of_memory_is_one_error_line(self, tmp_path):
        # 2^24 realizations pass validation but cannot be held under the cap
        config = tmp_path / "big.json"
        config.write_text(json.dumps({"sweep": {"realizations": 1 << 24}}))
        cap = _cap_from(["scnr-sweep", "--out", str(tmp_path / "default")])
        done = _run_capped(["scnr-sweep", "--config", str(config), "--out", str(tmp_path / "big")], cap)
        assert done.returncode == 1
        (line,) = done.stderr.splitlines()
        assert line.startswith("error: out of memory")
        assert not (tmp_path / "big").exists()

    @pytest.mark.parametrize(
        "command, tables",
        [("optimize", ["optimum"]), ("tradeoff", ["tradeoff", "optimum"]), ("scnr-sweep", ["scnr_sweep", "scnr_table"])],
    )
    def test_large_array_fits_in_one_gib(self, tmp_path, command, tables):
        # the kernel keeps an (N, L) basis per split or realization, so N = 4,096
        # runs where an N x N one would need gigabytes per stack
        config = tmp_path / "large.json"
        config.write_text(json.dumps({"array": {"n_antennas": 4096}, "sweep": {"antennas": [4096]}}))
        done = _run_capped([command, "--config", str(config), "--out", str(tmp_path / "large")], 1 << 30)
        assert done.returncode == 0, done.stderr
        for name in tables:
            assert parse_table_csv(str(tmp_path / "large" / f"{name}.csv"), name)

    def test_optimize_at_6144_antennas_fits_in_one_gib(self, tmp_path):
        # the search decides from per-split terms of O(L) numbers and builds no
        # (powers, splits, N) record, so only the kernel and the audits scale with N
        config = tmp_path / "larger.json"
        config.write_text(json.dumps({"array": {"n_antennas": 6144}}))
        done = _run_capped(["optimize", "--config", str(config), "--out", str(tmp_path / "larger")], 1 << 30)
        assert done.returncode == 0, done.stderr
        assert parse_table_csv(str(tmp_path / "larger" / "optimum.csv"), "optimum")


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
            "power_points": draw(st.integers(2, 6)),
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


class TestEveryValidConfig:
    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(valid_configs())
    def test_every_command_exits_cleanly(self, tmp_path_factory, raw):
        # a validated scenario gives tables (optimize may exit 2 when the
        # targets are out of reach) or one error line, never a traceback; a
        # relay on the destination is that one error line
        try:
            scenario_from_dict(raw)
            valid = True
        except ConfigError as exc:  # the one rule a drawn file may break
            assert str(exc).startswith("comm.relay_range_m: must place the relay off the destination"), exc
            valid = False
        root = tmp_path_factory.mktemp("fuzz")
        path = root / "scenario.json"
        path.write_text(json.dumps(raw))
        for command in ("scnr-sweep", "detection-sweep", "tradeoff", "optimize", "validate"):
            for fmt in ("csv", "json"):
                out = root / f"{command}-{fmt}"
                stdout, stderr = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                    rc = main([command, "--config", str(path), "--out", str(out), "--format", fmt])
                if rc == 1:
                    err = stderr.getvalue()
                    assert err.startswith("error: ") and err.count("\n") == 1, err
                    assert valid or err.startswith("error: comm.relay_range_m: "), err
                    continue
                assert valid, (command, rc)
                assert rc == 0 or (command == "optimize" and rc == 2), (rc, stderr.getvalue())
                manifest = json.loads((out / "manifest.json").read_text())
                assert manifest["files"] and all((out / f).is_file() for f in manifest["files"].values())
