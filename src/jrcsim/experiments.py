"""Experiment sweeps and tabular emission.

One runner per CLI command returns that command's tables: run_scnr_sweep
(SCNR versus power across antenna counts, carriers, and clutter levels, plus
a summary table with the clutter-free-versus-intense error column),
run_detection_sweep (analytic and Monte Carlo detector operating curves on a
shared threshold grid), run_tradeoff (rate and guarded detection versus
power, plus the optimizer certificate), run_optimize (the certificate alone)
and run_validation (analytic-versus-Monte-Carlo agreement report).
emit_outputs writes them where and as scenario.output says.

Every runner hands its results to one table builder, by table name, as
blocks of whole columns, each one value shared by its rows or one entry per
row. COLUMNS lists each table's columns; the builder gives every value its
column's Python kind and its CSV text. A float is rounded once, to its 9
significant digit text, every float of a block in one call, and its value
is read back from that text; the CSV writes the text, joined with commas
since no cell needs quoting, and the JSON the value, so both carry identical
values and reruns with the same configuration and seed are byte-identical. Rows are
sorted stably by their independent variables, never by completion order.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import operator
import os
from dataclasses import dataclass

import numpy as np

from . import __version__
from .context import KIND_DETECTION, KIND_VALIDATE, build_context, build_scene, stream_id
from .detection import roc_sweep
from .power_allocation import OptimizationResult, minimize_power, tradeoff_sweep
from .scenario import (
    CLUTTER_LEVELS,
    ScenarioConfig,
    config_hash,
    dbm_to_watts,
    watts_to_dbm,
)
from .stats import _float_texts, derive_stream, digit_unit, float_text

__all__ = [
    "SweepTable",
    "COLUMNS",
    "emit_outputs",
    "run_detection_sweep",
    "run_optimize",
    "run_scnr_sweep",
    "run_tradeoff",
    "run_validation",
]

# each emitted table's columns, in order, with the Python kind of their values
COLUMNS = {
    "scnr_sweep": (
        ("power_dbm", float),
        ("n_antennas", int),
        ("carrier_ghz", float),
        ("clutter", str),
        ("scnr_db_mean", float),
        ("scnr_db_std", float),
        ("realizations", int),
    ),
    "scnr_table": (
        ("carrier_ghz", float),
        ("n_antennas", int),
        ("mean_scnr_db", float),
        ("error_db", float),
    ),
    "detection_sweep": (
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
    ),
    "tradeoff": (
        ("power_dbm", float),
        ("rho", float),
        ("kappa", float),
        ("rate_bps_hz", float),
        ("pd", float),
        ("pfa", float),
        ("feasible", bool),
    ),
    "optimum": (
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
    ),
    "validate": (
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
    ),
}

# probabilities outside this band are not Monte Carlo checkable at desk scale
_CHECK_BAND = 1.0e-3


@dataclass(frozen=True)
class SweepTable:
    """One emitted table: its name, which keys its COLUMNS, its rows, and each row's CSV cell texts."""

    name: str
    rows: tuple[dict, ...]
    texts: tuple[tuple[str, ...], ...]


def _cell(kind: type, value) -> tuple:
    """(value, CSV text) of one cell, by its column's kind: a float's text is its
    9-digit rounding (a zero reads 0) and its value is read back from that text;
    None is an empty cell."""
    if value is None:
        return None, ""
    if kind is float:
        text = float_text(value)
        return float(text) + 0.0, "0" if text == "-0" else text
    value = kind(value)
    if kind is bool:
        return value, "true" if value else "false"
    return value, str(value)


def _columns(columns, values) -> tuple[list, list]:
    """The value lists and CSV text lists of a block's columns, one entry per
    row; a list, tuple or array of at least one dimension has an entry per row,
    any other value is shared by every row. Every float of the block, shared
    or in a float sequence, is rounded in one call of the column formatter and
    read back in one pass, a zero, negative or not, read as 0; any other value
    goes cell by cell."""
    per_row = [isinstance(value, (list, tuple)) or getattr(value, "ndim", 0) > 0 for value in values]
    n = max((len(value) for value, listed in zip(values, per_row) if listed), default=1)
    floats, spans = [], []
    for (_, kind), value, listed in zip(columns, values, per_row):
        if kind is float and ((column := np.asarray(value)).dtype.kind == "f" if listed else value is not None):
            start = len(floats)
            floats.extend(column.tolist() if listed else [float(value)])
            spans.append((start, len(floats)))
        else:
            spans.append(None)
    texts = _float_texts(floats)
    if "-0" in texts:
        texts = ["0" if text == "-0" else text for text in texts]
    rounded = list(map(float, texts))
    value_columns, text_columns = [], []
    for (_, kind), value, listed, span in zip(columns, values, per_row, spans):
        if span is not None:
            column_values, column_texts = rounded[span[0]:span[1]], texts[span[0]:span[1]]
        else:
            cells = [_cell(kind, v) for v in (value if listed else [value])]
            column_values, column_texts = [v for v, _ in cells], [text for _, text in cells]
        value_columns.append(column_values if listed else column_values * n)
        text_columns.append(column_texts if listed else column_texts * n)
    return value_columns, text_columns


def _table(name: str, blocks, order) -> SweepTable:
    """The emitted table `name`, with its COLUMNS, from blocks of whole columns.

    A block maps each column to one value shared by all of its rows or to a
    sequence with one entry per row. Every value becomes a cell of its
    column's kind; rows keep block order, then sort stably by `order`.
    """
    columns = COLUMNS[name]
    names = [column for column, _ in columns]
    rows = []
    for block in blocks:
        value_columns, text_columns = _columns(columns, [block[column] for column in names])
        value_rows = (dict(zip(names, row)) for row in zip(*value_columns, strict=True))
        rows.extend(zip(value_rows, zip(*text_columns, strict=True)))
    if order:
        key = operator.itemgetter(*order)
        rows.sort(key=lambda pair: key(pair[0]))
    return SweepTable(name, tuple(row for row, _ in rows), tuple(texts for _, texts in rows))


def _spread_on_mean_grid(std: float, mean: float) -> float:
    """std rounded to the nearest multiple of digit_unit(mean), the grid its mean
    is printed on: its digits below that are summation-order rounding (they move
    with the BLAS build), not data. A mean of exactly 0 leaves std as it is."""
    if mean == 0.0:
        return std
    unit = digit_unit(mean)
    return round(std / unit) * unit


def _level_curves(scenario: ScenarioConfig, n: int, f_ghz: float, pair_index: int, powers_w) -> np.ndarray:
    """SCNR curves (realizations, clutter levels, powers) of one (N, carrier) pair,
    from one stacked sensing scene of the pair's realizations, with none of the relay
    channels or symbols of a full context. A level is a scale of the scene's one
    unit-sigma kernel, as a power is, so one call scores every level at once."""
    # sweep.realizations is at most 2^24, so no two pairs share a key
    keys = (pair_index << 24) | np.arange(scenario.sweep.realizations)
    cell = dataclasses.replace(scenario, array=dataclasses.replace(scenario.array, n_antennas=n, carrier_ghz=f_ghz))
    scene, _ = build_scene(cell, scene_keys=keys)
    sigmas = [CLUTTER_LEVELS[level] for level in scenario.sweep.clutter_levels]
    return scene.average_scnr_curve(scenario.power.rho, powers_w, sigmas)


def run_scnr_sweep(scenario: ScenarioConfig) -> list[SweepTable]:
    """SCNR versus power per (antennas, carrier, clutter) cell, plus summary."""
    powers_dbm = scenario.power_grid_dbm()
    powers_w = np.array([dbm_to_watts(p) for p in powers_dbm])
    realizations, levels = scenario.sweep.realizations, scenario.sweep.clutter_levels

    blocks, summary = [], []
    pairs = itertools.product(scenario.sweep.antennas, scenario.sweep.carriers_ghz)
    for pair_index, (n, f_ghz) in enumerate(pairs):
        curves = _level_curves(scenario, n, f_ghz, pair_index, powers_w)
        # (level, power, realization), contiguous: each row sums as that column of one level alone does
        db = 10.0 * np.log10(np.ascontiguousarray(np.moveaxis(curves, 0, -1)))
        stds = np.std(db, axis=-1, ddof=1) if realizations > 1 else np.zeros(db.shape[:-1])
        for level, means, spreads in zip(levels, np.mean(db, axis=-1).tolist(), stds.tolist()):
            blocks.append({
                "power_dbm": powers_dbm,
                "n_antennas": n,
                "carrier_ghz": f_ghz,
                "clutter": level,
                "scnr_db_mean": means,
                "scnr_db_std": [_spread_on_mean_grid(std, mean) for std, mean in zip(spreads, means)],
                "realizations": realizations,
            })
        # each level's mean over its (realization, power) block, summed in that order
        level_means = dict(zip(levels, np.mean(np.ascontiguousarray(db.swapaxes(1, 2)), axis=(1, 2)).tolist()))
        if {"none", "intense"} <= level_means.keys():
            clear, error = level_means["none"], level_means["none"] - level_means["intense"]
            summary.append({"carrier_ghz": f_ghz, "n_antennas": n, "mean_scnr_db": clear, "error_db": error})
    order = ("power_dbm", "n_antennas", "carrier_ghz", "clutter")
    return [
        _table("scnr_sweep", blocks, order),
        _table("scnr_table", summary, ("carrier_ghz", "n_antennas")),
    ]


def _auto_kappa_max(points) -> float:
    # past 2|mu1|^2 + 6 sigma_T the detection probability is numerically zero
    return 1.05 * max(
        2.0 * pt.mu1_abs**2 + 6.0 * pt.mu1_abs * np.sqrt(2.0 * pt.sigma2)
        for pt in points
    )


def _cell_curves(scenario: ScenarioConfig, stream_kind: int, shared_grid: bool):
    """(key columns, roc_sweep arrays) for each (level, power) cell, on the
    cell's own stream of `stream_kind`. The scene is built once; each level is
    that context at the level's sigma, and the scene's one unit-sigma kernel of
    the split serves every level and power. Without a configured kappa_max
    the grid top spans every cell's transition when the grid is shared, else
    the cell's own."""
    det = scenario.detection
    scene = build_context(scenario)
    cells, rho = [], scenario.power.rho
    for level in det.clutter_levels:
        ctx = scene.at_sigma(CLUTTER_LEVELS[level])
        for p_dbm in det.powers_dbm:
            point = ctx.operating_point(dbm_to_watts(p_dbm), rho)
            cells.append(({"power_dbm": p_dbm, "clutter": level}, ctx, point))
    points = [point for _, _, point in cells]
    for idx, (keys, ctx, point) in enumerate(cells):
        scope = points if shared_grid else [point]
        kappa_max = det.kappa_max if det.kappa_max is not None else _auto_kappa_max(scope)
        kappas = np.linspace(det.kappa_min, kappa_max, det.kappa_points)
        rng = derive_stream(scenario.seed, stream_id(stream_kind, idx))
        yield keys, roc_sweep(ctx, point, kappas, trials=det.trials, rng=rng)


def _validation_blocks(keys: dict, curve: dict, trials: int) -> list[dict]:
    """The validate columns of one cell, one block per rate (pfa, pd): the
    closed form against the Monte Carlo rate, checked within three binomial
    standard errors where the rate is resolvable."""
    blocks = []
    for metric in ("pfa", "pd"):
        analytic, mc = curve[f"{metric}_analytic"], curve[f"{metric}_mc"]
        tol_3se = 3.0 * np.sqrt(analytic * (1.0 - analytic) / trials)
        checked = (_CHECK_BAND <= analytic) & (analytic <= 1.0 - _CHECK_BAND)
        abs_err = np.abs(analytic - mc)
        blocks.append({
            **keys,
            "kappa": curve["kappa"],
            "metric": metric,
            **{name: curve[f"{metric}_{name}"] for name in ("analytic", "mc", "ci_lo", "ci_hi")},
            "abs_err": abs_err,
            "tol_3se": tol_3se,
            "checked": checked,
            "ok": ~checked | (abs_err <= tol_3se),
        })
    return blocks


def run_detection_sweep(scenario: ScenarioConfig) -> list[SweepTable]:
    """Operating curves on one shared threshold grid across powers and levels."""
    trials = scenario.detection.trials
    curves = _cell_curves(scenario, KIND_DETECTION, shared_grid=True)
    blocks = [{**curve, **keys, "trials": trials} for keys, curve in curves]
    order = ("kappa", "power_dbm", "clutter")
    return [_table("detection_sweep", blocks, order)]


def run_validation(scenario: ScenarioConfig) -> list[SweepTable]:
    """Analytic-versus-Monte-Carlo agreement report, one row per probability,
    each cell probed across its own transition."""
    trials = scenario.detection.trials
    blocks = [
        block
        for keys, curve in _cell_curves(scenario, KIND_VALIDATE, shared_grid=False)
        for block in _validation_blocks(keys, curve, trials)
    ]
    order = ("power_dbm", "clutter", "kappa", "metric")
    return [_table("validate", blocks, order)]


def _optimum_table(result: OptimizationResult) -> SweepTable:
    """The certificate row: the evaluated point, every entry of which already
    sits on the emission grid, or all-empty values when none is feasible."""
    values = dict.fromkeys((name for name, _ in COLUMNS["optimum"]), None)
    values.update(feasible=result.feasible, evaluations=result.evaluations)
    pt = result.point
    if pt is not None:
        values.update(
            p_star_dbm=watts_to_dbm(pt.power_watts), p_star_watts=pt.power_watts, rho=pt.rho,
            kappa=pt.kappa, rate_bps_hz=pt.rate_bps_hz, pd=pt.pd, pfa=pt.pfa, scnr_avg=pt.scnr_avg,
        )
    return _table("optimum", [values], ())


def run_tradeoff(scenario: ScenarioConfig) -> list[SweepTable]:
    """Tradeoff sweep plus the power-minimization certificate, on one context
    and so on one build of the split grid's forms and its decomposition."""
    ctx = build_context(scenario)
    curve = tradeoff_sweep(ctx)
    block = {**curve, "power_dbm": [watts_to_dbm(p) for p in curve["power_watts"]]}
    return [_table("tradeoff", [block], ("power_dbm",)), _optimum_table(minimize_power(ctx))]


def run_optimize(scenario: ScenarioConfig) -> list[SweepTable]:
    """Power minimization alone, emitted as a one-row certificate table."""
    return [_optimum_table(minimize_power(build_context(scenario)))]


def _fresh_file(path: str, newline: str | None = None):
    """path opened for writing as a new file: a previous file there is removed,
    not truncated. Truncating a file and writing it again makes the file
    system flush its blocks on close (ext4's auto_da_alloc); a new file
    costs no flush. A directory at path still raises."""
    try:
        os.remove(path)
    except FileNotFoundError:
        pass
    return open(path, "w", encoding="ascii", newline=newline)


def _write_csv(table: SweepTable, path: str) -> None:
    """The table's header and rows, comma-joined, one line each. Every cell text
    is a number, true/false, empty, or a validated choice, none of which holds
    a comma, quote or line break, so no cell needs CSV quoting."""
    lines = [",".join(name for name, _ in COLUMNS[table.name]), *map(",".join, table.texts)]
    with _fresh_file(path, newline="") as fh:
        fh.write("\n".join(lines) + "\n")


def _write_json(table: SweepTable, path: str, provenance: dict) -> None:
    doc = {
        "name": table.name,
        "provenance": provenance,
        "columns": [name for name, _ in COLUMNS[table.name]],
        "records": [dict(row) for row in table.rows],
    }
    with _fresh_file(path) as fh:
        fh.write(json.dumps(doc, indent=2, sort_keys=False, allow_nan=False) + "\n")


def emit_outputs(tables: list[SweepTable], scenario: ScenarioConfig, *, command: str) -> dict[str, str]:
    """Write one file per table plus a run manifest into scenario.output.dir,
    in scenario.output.format; returns name -> path. Every JSON table and the
    manifest carry the same provenance: the seed and the config hash. A file
    already at one of those paths is removed and created anew (a file written
    over in place is flushed on close by ext4), and each file's text is
    formed whole and written in one call. The directory is made only when it
    is missing: makedirs on an existing one raises, and catches, an error."""
    out_dir, fmt = scenario.output.dir, scenario.output.format
    if not os.path.isdir(out_dir):
        os.makedirs(out_dir, exist_ok=True)
    provenance = {"seed": scenario.seed, "config_hash": config_hash(scenario)}
    written: dict[str, str] = {}
    for table in tables:
        path = os.path.join(out_dir, f"{table.name}.{fmt}")
        if fmt == "csv":
            _write_csv(table, path)
        else:
            _write_json(table, path, provenance)
        written[table.name] = path
    manifest = {
        "command": command,
        "files": {name: os.path.basename(path) for name, path in written.items()},
        "format": fmt,
        "version": __version__,
        **provenance,
    }
    manifest_path = os.path.join(out_dir, "manifest.json")
    with _fresh_file(manifest_path) as fh:
        fh.write(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    written["manifest"] = manifest_path
    return written
