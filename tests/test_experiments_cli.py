"""Reporting pipelines, file emission, and the command-line interface.

Emission is held to a round-trip standard: CSV parses back to the exact
records, JSON carries the same records, and re-running a scenario writes
byte-identical files wherever the output lands.
"""

import dataclasses
import json
import os

import numpy as np
import pytest

import jrcsim
from jrcsim.cli import main
from jrcsim.experiments import (
    DETECTION_COLUMNS,
    OPTIMUM_COLUMNS,
    SCNR_SWEEP_COLUMNS,
    SCNR_TABLE_COLUMNS,
    TRADEOFF_COLUMNS,
    VALIDATE_COLUMNS,
    canonical_float,
    emit_outputs,
    parse_table_csv,
    run_detection_sweep,
    run_optimize,
    run_scnr_sweep,
    run_tradeoff,
    run_validation,
)
from jrcsim.scenario import ScenarioConfig, config_hash, watts_to_dbm


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

    def test_idempotent_across_magnitudes(self):
        rng = np.random.default_rng(0)
        for _ in range(500):
            x = float(rng.standard_normal() * 10.0 ** rng.integers(-12, 12))
            once = canonical_float(x)
            assert canonical_float(once) == once


class TestScnrSweep:
    def test_shape_and_order(self, fast_scenario, scnr_run):
        sweep, summary = scnr_run
        assert sweep.name == "scnr_sweep"
        assert [name for name, _ in sweep.columns] == [name for name, _ in SCNR_SWEEP_COLUMNS]
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
        assert sweep.provenance == {"seed": sc.seed, "config_hash": config_hash(sc)}

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
        assert [name for name, _ in summary.columns] == [name for name, _ in SCNR_TABLE_COLUMNS]
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
        tables, result = tradeoff_run
        sweep, optimum = tables
        assert sweep.name == "tradeoff"
        assert optimum.name == "optimum"
        assert [name for name, _ in sweep.columns] == [name for name, _ in TRADEOFF_COLUMNS]
        assert len(sweep.rows) == fast_scenario.power.points
        powers = [r["power_dbm"] for r in sweep.rows]
        assert powers == sorted(powers)
        flags = [r["feasible"] for r in sweep.rows]
        assert flags == sorted(flags) and not flags[0] and flags[-1]
        assert result.feasible

    def test_optimum_row_reflects_the_result(self, fast_scenario, tradeoff_run):
        tables, result = tradeoff_run
        (row,) = tables[1].rows
        assert row["feasible"] is True
        assert row["p_star_watts"] == pytest.approx(result.p_star_watts, rel=1e-8)
        assert row["p_star_dbm"] == pytest.approx(watts_to_dbm(result.p_star_watts), rel=1e-8)
        assert row["rho"] == pytest.approx(result.rho_star, rel=1e-8)
        assert row["kappa"] == pytest.approx(result.kappa_star, rel=1e-8)
        assert row["evaluations"] == result.evaluations
        targets = fast_scenario.targets
        assert row["rate_bps_hz"] >= targets.rate_bps_hz - 1e-9
        assert row["pd"] >= targets.pd_min - 1e-9
        assert row["pfa"] <= targets.pfa_max * (1.0 + 1e-6)
        assert row["scnr_avg"] > 0.0

    def test_infeasible_run_emits_an_explicit_record(self, fast_scenario):
        pinched = dataclasses.replace(
            fast_scenario,
            targets=dataclasses.replace(fast_scenario.targets, p_max_dbm=10.0),
        )
        tables, result = run_optimize(pinched)
        assert not result.feasible
        (row,) = tables[0].rows
        assert [name for name, _ in tables[0].columns] == [name for name, _ in OPTIMUM_COLUMNS]
        assert row["feasible"] is False
        for key in ("p_star_dbm", "p_star_watts", "rho", "kappa", "rate_bps_hz", "pd", "pfa", "scnr_avg"):
            assert row[key] is None
        assert isinstance(row["evaluations"], int) and row["evaluations"] > 0


class TestValidation:
    def test_shape_and_order(self, fast_scenario, validation_run):
        (table,) = validation_run
        assert table.name == "validate"
        assert [name for name, _ in table.columns] == [name for name, _ in VALIDATE_COLUMNS]
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
        (table,) = validation_run
        assert all(r["ok"] for r in table.rows)


class TestEmission:
    def test_csv_round_trips_exactly(self, fast_scenario, detection_run, tmp_path):
        written = emit_outputs(detection_run, fast_scenario, str(tmp_path / "a"), fmt="csv")
        records = parse_table_csv(written["detection_sweep"], DETECTION_COLUMNS)
        assert records == list(detection_run[0].rows)

    def test_json_carries_the_same_records(self, fast_scenario, detection_run, tmp_path):
        csv_files = emit_outputs(detection_run, fast_scenario, str(tmp_path / "c"), fmt="csv")
        json_files = emit_outputs(detection_run, fast_scenario, str(tmp_path / "j"), fmt="json")
        with open(json_files["detection_sweep"], encoding="ascii") as fh:
            doc = json.load(fh)
        assert doc["name"] == "detection_sweep"
        assert doc["columns"] == [name for name, _ in DETECTION_COLUMNS]
        assert doc["provenance"] == detection_run[0].provenance
        assert doc["records"] == parse_table_csv(csv_files["detection_sweep"], DETECTION_COLUMNS)

    def test_nulls_round_trip_through_both_formats(self, fast_scenario, tmp_path):
        pinched = dataclasses.replace(
            fast_scenario,
            targets=dataclasses.replace(fast_scenario.targets, p_max_dbm=10.0),
        )
        tables, _ = run_optimize(pinched)
        csv_files = emit_outputs(tables, pinched, str(tmp_path / "c"), fmt="csv")
        json_files = emit_outputs(tables, pinched, str(tmp_path / "j"), fmt="json")
        (record,) = parse_table_csv(csv_files["optimum"], OPTIMUM_COLUMNS)
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
        written = emit_outputs(
            detection_run, fast_scenario, str(out), fmt="csv", command="detection-sweep"
        )
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
        first = emit_outputs(detection_run, fast_scenario, str(tmp_path / "x"), fmt="csv")
        second = emit_outputs(detection_run, fast_scenario, str(tmp_path / "y"), fmt="csv")
        for name in first:
            with open(first[name], "rb") as fh:
                a = fh.read()
            with open(second[name], "rb") as fh:
                b = fh.read()
            assert a == b

    def test_rejects_unknown_format(self, fast_scenario, detection_run, tmp_path):
        with pytest.raises(ValueError):
            emit_outputs(detection_run, fast_scenario, str(tmp_path), fmt="xml")

    def test_blocked_output_path_raises_os_error(self, fast_scenario, detection_run, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        with pytest.raises(OSError):
            emit_outputs(detection_run, fast_scenario, str(blocker), fmt="csv")

    def test_parser_rejects_foreign_headers(self, fast_scenario, detection_run, tmp_path):
        written = emit_outputs(detection_run, fast_scenario, str(tmp_path / "h"), fmt="csv")
        path = written["detection_sweep"]
        with open(path, encoding="ascii") as fh:
            lines = fh.read().splitlines()
        lines[0] = lines[0].replace("kappa", "threshold")
        with open(path, "w", encoding="ascii") as fh:
            fh.write("\n".join(lines) + "\n")
        with pytest.raises(ValueError):
            parse_table_csv(path, DETECTION_COLUMNS)


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
    "optimizer": {"power_points": 12, "rho_points": 5, "kappa_points": 31},
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
        records = parse_table_csv(str(out / "detection_sweep.csv"), DETECTION_COLUMNS)
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
        records = parse_table_csv(str(out / "optimum.csv"), OPTIMUM_COLUMNS)
        assert records[0]["feasible"] is False

    @pytest.mark.parametrize("command", ["scnr-sweep", "tradeoff"])
    def test_extreme_powers_give_finite_tables(self, command, tmp_path, capsys):
        # past ~178 dBm I + P M is no longer numerically positive definite,
        # which once crashed a Cholesky factorization with a traceback; the
        # schema admits powers out to +-300 dBm, so both ends must run too
        schemas = {
            "scnr_sweep": SCNR_SWEEP_COLUMNS,
            "scnr_table": SCNR_TABLE_COLUMNS,
            "tradeoff": TRADEOFF_COLUMNS,
            "optimum": OPTIMUM_COLUMNS,
        }
        for min_dbm, max_dbm, p_max_dbm in ((150.0, 200.0, 210.0), (250.0, 300.0, 300.0),
                                            (-300.0, -240.0, -240.0)):
            config = {
                "power": {"min_dbm": min_dbm, "max_dbm": max_dbm, "points": 6},
                "targets": {"p_max_dbm": p_max_dbm},
                "sweep": {"realizations": 3},
                "optimizer": {"power_points": 12, "rho_points": 5, "kappa_points": 31},
            }
            path = tmp_path / f"extreme_{min_dbm:g}.json"
            path.write_text(json.dumps(config))
            out = tmp_path / f"out_{min_dbm:g}"
            assert main([command, "--config", str(path), "--out", str(out)]) == 0, config
            capsys.readouterr()
            manifest = json.loads((out / "manifest.json").read_text())
            for name, filename in manifest["files"].items():
                columns = schemas[name]
                for row in parse_table_csv(str(out / filename), columns):
                    for col, kind in columns:
                        if kind is float and row[col] is not None:
                            assert np.isfinite(row[col]), (min_dbm, name, col, row)

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
