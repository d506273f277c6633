"""Experiment sweeps and tabular emission.

One runner per CLI command returns that command's tables: run_scnr_sweep
(SCNR versus power across antenna counts, carriers, and clutter levels, plus
a summary table with the clutter-free-versus-intense error column),
run_detection_sweep (analytic and Monte Carlo detector operating curves on a
shared threshold grid), run_tradeoff (rate and guarded detection versus
power, plus the optimizer certificate), run_optimize (the certificate alone)
and run_validation (analytic-versus-Monte-Carlo agreement report).
emit_outputs writes them where and as scenario.output says.

Every float is canonicalized to 9 significant digits before it enters a
record, so CSV and JSON emissions carry identical values and reruns with the
same configuration and seed are byte-identical. Rows are sorted by their
independent variables, never by completion order.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import math
import os
from dataclasses import dataclass

import numpy as np

from . import __version__
from .context import (
    KIND_DETECTION,
    KIND_VALIDATE,
    OperatingPoint,
    SimulationContext,
    build_context,
    stream_id,
)
from .detection import roc_sweep
from .power_allocation import (
    ConstraintTargets,
    OptimizationResult,
    minimize_power,
    tradeoff_sweep,
)
from .radar_sensing import ClutterSteering, average_scnr_curve
from .scenario import (
    CLUTTER_LEVELS,
    ScenarioConfig,
    config_hash,
    dbm_to_watts,
    watts_to_dbm,
)
from .stats import canonical_float, derive_stream, float_text

__all__ = [
    "SweepTable",
    "SCNR_SWEEP_COLUMNS",
    "SCNR_TABLE_COLUMNS",
    "DETECTION_COLUMNS",
    "TRADEOFF_COLUMNS",
    "OPTIMUM_COLUMNS",
    "VALIDATE_COLUMNS",
    "emit_outputs",
    "parse_table_csv",
    "run_detection_sweep",
    "run_optimize",
    "run_scnr_sweep",
    "run_tradeoff",
    "run_validation",
]

SCNR_SWEEP_COLUMNS = (
    ("power_dbm", float),
    ("n_antennas", int),
    ("carrier_ghz", float),
    ("clutter", str),
    ("scnr_db_mean", float),
    ("scnr_db_std", float),
    ("realizations", int),
)

SCNR_TABLE_COLUMNS = (
    ("carrier_ghz", float),
    ("n_antennas", int),
    ("mean_scnr_db", float),
    ("error_db", float),
)

DETECTION_COLUMNS = (
    ("kappa", float),
    ("power_dbm", float),
    ("clutter", str),
    ("pfa_analytic", float),
    ("pd_analytic", float),
    ("pfa_mc", float),
    ("pfa_ci_lo", float),
    ("pfa_ci_hi", float),
    ("pd_mc", float),
    ("pd_ci_lo", float),
    ("pd_ci_hi", float),
    ("trials", int),
)

TRADEOFF_COLUMNS = (
    ("power_dbm", float),
    ("rho", float),
    ("kappa", float),
    ("rate_bps_hz", float),
    ("pd", float),
    ("pfa", float),
    ("feasible", bool),
)

OPTIMUM_COLUMNS = (
    ("feasible", bool),
    ("p_star_dbm", float),
    ("p_star_watts", float),
    ("rho", float),
    ("kappa", float),
    ("rate_bps_hz", float),
    ("pd", float),
    ("pfa", float),
    ("scnr_avg", float),
    ("evaluations", int),
)

VALIDATE_COLUMNS = (
    ("power_dbm", float),
    ("clutter", str),
    ("kappa", float),
    ("metric", str),
    ("analytic", float),
    ("mc", float),
    ("ci_lo", float),
    ("ci_hi", float),
    ("abs_err", float),
    ("tol_3se", float),
    ("checked", bool),
    ("ok", bool),
)

# probabilities outside this band are not Monte Carlo checkable at desk scale
_CHECK_BAND = 1.0e-3


@dataclass(frozen=True)
class SweepTable:
    """One emitted table: column schema, canonicalized rows, provenance."""

    name: str
    columns: tuple[tuple[str, type], ...]
    rows: tuple[dict, ...]
    provenance: dict


def _make_row(columns, values: dict) -> dict:
    row = {}
    for name, kind in columns:
        value = values[name]
        if value is None:
            row[name] = None
        elif kind is float:
            row[name] = canonical_float(value)
        elif kind is int:
            row[name] = int(value)
        elif kind is bool:
            row[name] = bool(value)
        else:
            row[name] = str(value)
    return row


def _provenance(scenario: ScenarioConfig) -> dict:
    return {"seed": scenario.seed, "config_hash": config_hash(scenario)}


def _resolved_spread(std: float, mean: float) -> float:
    """Zero a spread below half a unit in the 9th significant digit of its mean.

    The table resolves the mean no finer than that, and a smaller spread is
    summation-order rounding (it moves with the BLAS build), not data.
    """
    if mean == 0.0:
        return std
    half_unit = 0.5 * 10.0 ** (math.floor(math.log10(abs(mean))) - 8)
    return 0.0 if std < half_unit else std


def _level_curves(scenario: ScenarioConfig, n: int, f_ghz: float, pair_index: int, powers_w) -> list:
    """(level, SCNR curves (realizations, powers)) for each clutter level of one (N, carrier) pair.

    The levels share each realization's placements, channels and steering and
    differ only in the clutter amplitude scale sigma, so every realization is
    built once and each level scores all of them in one stacked kernel pass.
    """
    ctxs = [
        build_context(scenario, n_antennas=n, carrier_ghz=f_ghz, scene_key=(pair_index << 24) | r)
        for r in range(scenario.sweep.realizations)
    ]
    matrices = np.stack([ctx.clutter.matrix for ctx in ctxs])
    alpha0 = np.array([ctx.alpha0 for ctx in ctxs])
    a_target = np.stack([ctx.target_steering for ctx in ctxs])
    beams = np.stack([ctx.beams_at(1.0, scenario.power.rho) for ctx in ctxs])
    curves = []
    for level in scenario.sweep.clutter_levels:
        clutter = ClutterSteering.at_sigma(matrices, CLUTTER_LEVELS[level])
        curves.append((level, average_scnr_curve(clutter, alpha0, a_target, beams, powers_w)))
    return curves


def run_scnr_sweep(scenario: ScenarioConfig) -> list[SweepTable]:
    """SCNR versus power per (antennas, carrier, clutter) cell, plus summary."""
    prov = _provenance(scenario)
    powers_dbm = scenario.power_grid_dbm()
    powers_w = np.array([dbm_to_watts(p) for p in powers_dbm])
    realizations = scenario.sweep.realizations

    rows = []
    cell_means: dict[tuple[float, int, str], float] = {}
    pair_index = 0
    for n in scenario.sweep.antennas:
        for f_ghz in scenario.sweep.carriers_ghz:
            for level, scnr in _level_curves(scenario, n, f_ghz, pair_index, powers_w):
                db = 10.0 * np.log10(scnr)
                for j, p_dbm in enumerate(powers_dbm):
                    mean = float(np.mean(db[:, j]))
                    std = float(np.std(db[:, j], ddof=1)) if realizations > 1 else 0.0
                    rows.append(_make_row(SCNR_SWEEP_COLUMNS, {
                        "power_dbm": p_dbm,
                        "n_antennas": n,
                        "carrier_ghz": f_ghz,
                        "clutter": level,
                        "scnr_db_mean": mean,
                        "scnr_db_std": _resolved_spread(std, mean),
                        "realizations": realizations,
                    }))
                cell_means[(f_ghz, n, level)] = float(np.mean(db))
            pair_index += 1

    rows.sort(key=lambda r: (r["power_dbm"], r["n_antennas"], r["carrier_ghz"], r["clutter"]))
    sweep = SweepTable("scnr_sweep", SCNR_SWEEP_COLUMNS, tuple(rows), prov)

    table_rows = []
    have = set(scenario.sweep.clutter_levels)
    if {"none", "intense"} <= have:
        for f_ghz in scenario.sweep.carriers_ghz:
            for n in scenario.sweep.antennas:
                table_rows.append(_make_row(SCNR_TABLE_COLUMNS, {
                    "carrier_ghz": f_ghz,
                    "n_antennas": n,
                    "mean_scnr_db": cell_means[(f_ghz, n, "none")],
                    "error_db": cell_means[(f_ghz, n, "none")] - cell_means[(f_ghz, n, "intense")],
                }))
        table_rows.sort(key=lambda r: (r["carrier_ghz"], r["n_antennas"]))
    summary = SweepTable("scnr_table", SCNR_TABLE_COLUMNS, tuple(table_rows), prov)
    return [sweep, summary]


@dataclass(frozen=True)
class _DetectionCell:
    level: str
    power_dbm: float
    ctx: SimulationContext
    point: OperatingPoint


def _detection_cells(scenario: ScenarioConfig) -> list[_DetectionCell]:
    """One (level, power) cell per operating point. The scene is built once;
    each level reads its steering matrix with the level's own sigma."""
    scene = build_context(scenario)
    cells = []
    for level in scenario.detection.clutter_levels:
        clutter = ClutterSteering.at_sigma(scene.clutter.matrix, CLUTTER_LEVELS[level])
        ctx = dataclasses.replace(scene, clutter=clutter)
        for p_dbm in scenario.detection.powers_dbm:
            point = ctx.operating_point(dbm_to_watts(p_dbm), scenario.power.rho)
            cells.append(_DetectionCell(level, p_dbm, ctx, point))
    return cells


def _auto_kappa_max(cells) -> float:
    # past 2|mu1|^2 + 6 sigma_T the detection probability is numerically zero
    return 1.05 * max(
        2.0 * c.point.mu1_abs**2 + 6.0 * c.point.mu1_abs * np.sqrt(2.0 * c.point.sigma2)
        for c in cells
    )


def run_detection_sweep(scenario: ScenarioConfig) -> list[SweepTable]:
    """Operating curves on one shared threshold grid across powers and levels."""
    prov = _provenance(scenario)
    det = scenario.detection
    cells = _detection_cells(scenario)
    kappa_max = det.kappa_max if det.kappa_max is not None else _auto_kappa_max(cells)
    kappas = np.linspace(det.kappa_min, kappa_max, det.kappa_points)

    rows = []
    for idx, cell in enumerate(cells):
        rng = derive_stream(scenario.seed, stream_id(KIND_DETECTION, idx))
        points = roc_sweep(cell.ctx, cell.point, kappas, trials=det.trials, rng=rng)
        for op in points:
            rows.append(_make_row(DETECTION_COLUMNS, {
                "kappa": op.kappa,
                "power_dbm": cell.power_dbm,
                "clutter": cell.level,
                "pfa_analytic": op.pfa_analytic,
                "pd_analytic": op.pd_analytic,
                "pfa_mc": op.pfa_mc,
                "pfa_ci_lo": op.pfa_ci.lo,
                "pfa_ci_hi": op.pfa_ci.hi,
                "pd_mc": op.pd_mc,
                "pd_ci_lo": op.pd_ci.lo,
                "pd_ci_hi": op.pd_ci.hi,
                "trials": op.trials,
            }))
    rows.sort(key=lambda r: (r["kappa"], r["power_dbm"], r["clutter"]))
    return [SweepTable("detection_sweep", DETECTION_COLUMNS, tuple(rows), prov)]


def _optimum_table(scenario: ScenarioConfig, result: OptimizationResult) -> SweepTable:
    """The certificate row: the evaluated point, every entry of which already
    sits on the emission grid, or all-empty values when none is feasible."""
    values = dict.fromkeys((name for name, _ in OPTIMUM_COLUMNS), None)
    values.update(feasible=result.feasible, evaluations=result.evaluations)
    pt = result.point
    if pt is not None:
        values.update(
            p_star_dbm=watts_to_dbm(pt.power_watts), p_star_watts=pt.power_watts, rho=pt.rho,
            kappa=pt.kappa, rate_bps_hz=pt.rate_bps_hz, pd=pt.pd, pfa=pt.pfa, scnr_avg=pt.scnr_avg,
        )
    row = _make_row(OPTIMUM_COLUMNS, values)
    return SweepTable("optimum", OPTIMUM_COLUMNS, (row,), _provenance(scenario))


def run_tradeoff(scenario: ScenarioConfig) -> list[SweepTable]:
    """Tradeoff sweep plus the power-minimization certificate."""
    prov = _provenance(scenario)
    ctx = build_context(scenario)
    targets = ConstraintTargets.from_scenario(scenario)
    rows = []
    for rec in tradeoff_sweep(ctx, targets):
        rows.append(_make_row(TRADEOFF_COLUMNS, {
            "power_dbm": watts_to_dbm(rec.power_watts),
            "rho": rec.rho,
            "kappa": rec.kappa,
            "rate_bps_hz": rec.rate_bps_hz,
            "pd": rec.pd,
            "pfa": rec.pfa,
            "feasible": rec.feasible,
        }))
    rows.sort(key=lambda r: r["power_dbm"])
    return [
        SweepTable("tradeoff", TRADEOFF_COLUMNS, tuple(rows), prov),
        _optimum_table(scenario, minimize_power(ctx, targets)),
    ]


def run_optimize(scenario: ScenarioConfig) -> list[SweepTable]:
    """Power minimization alone, emitted as a one-row certificate table."""
    return [_optimum_table(scenario, minimize_power(scenario))]


def run_validation(scenario: ScenarioConfig) -> list[SweepTable]:
    """Analytic-versus-Monte-Carlo agreement report, one row per probability."""
    prov = _provenance(scenario)
    det = scenario.detection
    cells = _detection_cells(scenario)
    rows = []
    for idx, cell in enumerate(cells):
        # per-cell grid so each curve is probed across its own transition
        kappa_max = det.kappa_max if det.kappa_max is not None else _auto_kappa_max([cell])
        kappas = np.linspace(det.kappa_min, kappa_max, det.kappa_points)
        rng = derive_stream(scenario.seed, stream_id(KIND_VALIDATE, idx))
        points = roc_sweep(cell.ctx, cell.point, kappas, trials=det.trials, rng=rng)
        for op in points:
            for metric, analytic, mc, ci in (
                ("pfa", op.pfa_analytic, op.pfa_mc, op.pfa_ci),
                ("pd", op.pd_analytic, op.pd_mc, op.pd_ci),
            ):
                se = float(np.sqrt(analytic * (1.0 - analytic) / op.trials))
                checked = _CHECK_BAND <= analytic <= 1.0 - _CHECK_BAND
                abs_err = abs(analytic - mc)
                rows.append(_make_row(VALIDATE_COLUMNS, {
                    "power_dbm": cell.power_dbm,
                    "clutter": cell.level,
                    "kappa": op.kappa,
                    "metric": metric,
                    "analytic": analytic,
                    "mc": mc,
                    "ci_lo": ci.lo,
                    "ci_hi": ci.hi,
                    "abs_err": abs_err,
                    "tol_3se": 3.0 * se,
                    "checked": checked,
                    "ok": (not checked) or abs_err <= 3.0 * se,
                }))
    rows.sort(key=lambda r: (r["power_dbm"], r["clutter"], r["kappa"], r["metric"]))
    return [SweepTable("validate", VALIDATE_COLUMNS, tuple(rows), prov)]


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return float_text(value)
    return str(value)


def _write_csv(table: SweepTable, path: str) -> None:
    with open(path, "w", encoding="ascii", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow([name for name, _ in table.columns])
        for row in table.rows:
            writer.writerow([_csv_cell(row[name]) for name, _ in table.columns])


def _write_json(table: SweepTable, path: str) -> None:
    doc = {
        "name": table.name,
        "provenance": table.provenance,
        "columns": [name for name, _ in table.columns],
        "records": [dict(row) for row in table.rows],
    }
    with open(path, "w", encoding="ascii") as fh:
        json.dump(doc, fh, indent=2, sort_keys=False, allow_nan=False)
        fh.write("\n")


def parse_table_csv(path: str, columns) -> list[dict]:
    """Read an emitted CSV back into typed records (inverse of the CSV writer)."""
    with open(path, "r", encoding="ascii", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        expected = [name for name, _ in columns]
        if header != expected:
            raise ValueError(f"unexpected CSV header in {path}: {header}")
        kinds = dict(columns)
        records = []
        for cells in reader:
            row = {}
            for name, cell in zip(expected, cells):
                if cell == "":
                    row[name] = None
                elif kinds[name] is float:
                    row[name] = float(cell)
                elif kinds[name] is int:
                    row[name] = int(cell)
                elif kinds[name] is bool:
                    row[name] = cell == "true"
                else:
                    row[name] = cell
            records.append(row)
    return records


def emit_outputs(tables: list[SweepTable], scenario: ScenarioConfig, *, command: str) -> dict[str, str]:
    """Write one file per table plus a run manifest into scenario.output.dir,
    in scenario.output.format; returns name -> path."""
    out_dir, fmt = scenario.output.dir, scenario.output.format
    os.makedirs(out_dir, exist_ok=True)
    write = _write_csv if fmt == "csv" else _write_json
    written: dict[str, str] = {}
    for table in tables:
        path = os.path.join(out_dir, f"{table.name}.{fmt}")
        write(table, path)
        written[table.name] = path
    manifest = {
        "command": command,
        "config_hash": config_hash(scenario),
        "files": {name: os.path.basename(path) for name, path in written.items()},
        "format": fmt,
        "seed": scenario.seed,
        "version": __version__,
    }
    manifest_path = os.path.join(out_dir, "manifest.json")
    with open(manifest_path, "w", encoding="ascii") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    written["manifest"] = manifest_path
    return written
