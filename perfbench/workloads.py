"""Seeded workload generator and per-job correctness checks.

Generation uses only the standard library, so it runs in the parent process
before any jrcsim import. The same seed always gives the same scenarios; the
program receives nothing but the scenario files written here.

Every scenario keeps its transmit powers at or below the default 46 dBm
ceiling, so no workload reaches the Cholesky breakdown near 178 dBm.
"""

from __future__ import annotations

import csv
import hashlib
import math
import os
import random

WORKLOADS = ("sweep", "detect", "optimize")

# the calibration kernel that shares each workload's kind of work: the trace
# puts ~95 % of detect in vectorized Monte Carlo sampling and nearly all of
# sweep and optimize in Python-dispatched 5x5 algebra. Set-up (imports) is
# neither, and takes the steadier vectorized kernel.
CALIBRATION = {"sweep": "dispatch", "detect": "vectorized", "optimize": "dispatch", "setup": "vectorized"}

EXIT_OK = 0
EXIT_INFEASIBLE = 2

# optimize: variants per pass and how many of them are infeasible at the ceiling
OPTIMIZE_VARIANTS = 8
OPTIMIZE_INFEASIBLE = 2
# detect: scenarios per pass, each run through detection-sweep then validate
DETECT_SCENARIOS = 4

# family-wise error rate of the Monte Carlo agreement check over one table
_VALIDATE_FAMILY_ALPHA = 1.0e-3


def _master_seed(rng: random.Random) -> int:
    return rng.getrandbits(31)


def _uniform(rng: random.Random, lo: float, hi: float) -> float:
    return round(lo + (hi - lo) * rng.random(), 6)


def _stratum(rng: random.Random, lo: float, hi: float, k: int, strata: int) -> float:
    """A value drawn from the k-th of `strata` equal slices of [lo, hi]."""
    width = (hi - lo) / strata
    return _uniform(rng, lo + k * width, lo + (k + 1) * width)


def _sweep_jobs(rng: random.Random) -> list[dict]:
    # the default grid, N in {5, 10} x {2.8, 28} GHz x three clutter levels x
    # 100 realizations x 21 powers up to 40 dBm, as one job per (N, carrier)
    # pair: a calibration run between jobs then follows the machine's speed
    # every second or so instead of every five. Only the geometry varies.
    r = _uniform(rng, 4.0, 6.0)
    scene = {
        "seed": _master_seed(rng),
        "target": {"range_m": r, "angle_rad": _uniform(rng, 0.9, 2.2)},
        "clutter": {"max_range_m": r},
    }
    return [
        {
            "config": {**scene, "sweep": {"antennas": [n], "carriers_ghz": [f]}},
            "commands": [["scnr-sweep", [EXIT_OK]]],
        }
        for n in (5, 10)
        for f in (2.8, 28.0)
    ]


def _detect_jobs(rng: random.Random) -> list[dict]:
    jobs = []
    for _ in range(DETECT_SCENARIOS):
        r = _uniform(rng, 3.0, 7.0)
        low = _uniform(rng, 24.0, 33.0)
        config = {
            "seed": _master_seed(rng),
            "target": {"range_m": r, "angle_rad": _uniform(rng, 0.9, 2.2)},
            "clutter": {"max_range_m": r},
            "detection": {"powers_dbm": [low, _uniform(rng, low + 3.0, 42.0)]},
        }
        jobs.append({
            "config": config,
            "commands": [["detection-sweep", [EXIT_OK]], ["validate", [EXIT_OK]]],
        })
    return jobs


def _optimize_jobs(rng: random.Random) -> list[dict]:
    # feasible variants are stratified in target range and rate target so a
    # pass does nearly the same amount of bisection work on every seed
    feasible = OPTIMIZE_VARIANTS - OPTIMIZE_INFEASIBLE
    rate_strata = list(range(feasible))
    rng.shuffle(rate_strata)
    variants = []
    for k in range(OPTIMIZE_VARIANTS):
        infeasible = k >= feasible
        r = _stratum(rng, 3.0, 6.0, k % 3, 3)
        config = {
            "seed": _master_seed(rng),
            "array": {"n_antennas": (5, 10)[k % 2]},
            "target": {"range_m": r},
            "clutter": {"max_range_m": r, "sigma": _uniform(rng, 0.1, 0.8)},
            "targets": {
                # all power on the data beam reaches under 21 b/s/Hz at
                # 46 dBm for N <= 10, and any radar share lowers the rate
                "rate_bps_hz": (
                    _uniform(rng, 24.0, 28.0)
                    if infeasible
                    else _stratum(rng, 2.0, 8.0, rate_strata[k], feasible)
                ),
                "pd_min": _uniform(rng, 0.5, 0.9),
            },
        }
        # the frozen random waveform can starve the radar return of a
        # feasible-by-design variant, so either outcome is checked there
        expected = [EXIT_INFEASIBLE] if infeasible else [EXIT_OK, EXIT_INFEASIBLE]
        variants.append({
            "config": config,
            "commands": [["optimize", expected], ["tradeoff", [EXIT_OK]]],
        })
    rng.shuffle(variants)
    return variants


_GENERATORS = {"sweep": _sweep_jobs, "detect": _detect_jobs, "optimize": _optimize_jobs}


def generate(workload: str, seed: int) -> list[dict]:
    """The scenarios of one pass: each has a config and (command, allowed exit codes) pairs."""
    rng = random.Random(f"{workload}:{seed}")
    return _GENERATORS[workload](rng)


def designed_infeasible_share(jobs: list[dict]) -> float:
    """Share of optimize variants built to be infeasible at the ceiling."""
    allowed = [codes for job in jobs for cmd, codes in job["commands"] if cmd == "optimize"]
    return sum(codes == [EXIT_INFEASIBLE] for codes in allowed) / len(allowed) if allowed else 0.0


def table_digests(out_dir: str, manifest: dict) -> dict[str, str]:
    """SHA-256 of every emitted table file named in the run manifest."""
    digests = {}
    for name, filename in sorted(manifest["files"].items()):
        with open(os.path.join(out_dir, filename), "rb") as fh:
            digests[name] = hashlib.sha256(fh.read()).hexdigest()
    return digests


def _read_table(out_dir: str, name: str) -> list[dict]:
    with open(os.path.join(out_dir, f"{name}.csv"), newline="", encoding="ascii") as fh:
        return list(csv.DictReader(fh))


def _check_scnr_sweep(out_dir: str) -> list[str]:
    rows = _read_table(out_dir, "scnr_sweep")
    if not rows:
        return ["scnr_sweep: no rows"]
    problems = []
    cells: dict[tuple, dict[str, float]] = {}
    for row in rows:
        mean = float(row["scnr_db_mean"])
        if not math.isfinite(mean):
            problems.append(f"scnr_sweep: non-finite mean in {row}")
        key = (row["power_dbm"], row["n_antennas"], row["carrier_ghz"])
        cells.setdefault(key, {})[row["clutter"]] = mean
    # placements are shared across levels and W grows with sigma^2, so more
    # clutter never raises SCNR; the slack covers the 9-digit emission only
    order = ("none", "light", "intense")
    for key, by_level in sorted(cells.items()):
        present = [lvl for lvl in order if lvl in by_level]
        for hi, lo in zip(present, present[1:]):
            slack = 1e-8 * max(1.0, abs(by_level[hi]))
            if by_level[lo] > by_level[hi] + slack:
                problems.append(
                    f"scnr_sweep: {lo} > {hi} at power/N/carrier {key}: "
                    f"{by_level[lo]} > {by_level[hi]}"
                )
    return problems


def _check_detection_sweep(out_dir: str) -> list[str]:
    rows = _read_table(out_dir, "detection_sweep")
    if not rows:
        return ["detection_sweep: no rows"]
    curves: dict[tuple, list[tuple[float, float, float]]] = {}
    for row in rows:
        key = (row["power_dbm"], row["clutter"])
        curves.setdefault(key, []).append(
            (float(row["kappa"]), float(row["pfa_analytic"]), float(row["pd_analytic"]))
        )
    problems = []
    for key, points in sorted(curves.items()):
        points.sort()
        if not all(math.isfinite(v) for point in points for v in point):
            problems.append(f"detection_sweep: non-finite analytic value at {key}")
        for (k0, pfa0, pd0), (k1, pfa1, pd1) in zip(points, points[1:]):
            if pfa1 > pfa0 or pd1 > pd0:
                problems.append(
                    f"detection_sweep: analytic curve rises between kappa {k0} and {k1} at {key}"
                )
    return problems


def _check_validate(out_dir: str) -> list[str]:
    from jrcsim.stats import inverse_q

    rows = _read_table(out_dir, "validate")
    checked = [r for r in rows if r["checked"] == "true"]
    if not checked:
        return ["validate: no checked rows"]
    # The table's own `ok` flag is a per-row 3-standard-error test, which a
    # correct program misses on about one job in five for ~60 checked rows.
    # A job fails only when a row falls outside the Bonferroni band that
    # holds the whole table to a 1e-3 false-failure rate.
    z_max = inverse_q(_VALIDATE_FAMILY_ALPHA / (2 * len(checked)))
    problems = []
    for row in checked:
        se = float(row["tol_3se"]) / 3.0
        z = float(row["abs_err"]) / se if se > 0.0 else math.inf
        if z > z_max:
            problems.append(
                f"validate: {row['metric']} at power {row['power_dbm']}, {row['clutter']}, "
                f"kappa {row['kappa']} is {z:.2f} standard errors off (limit {z_max:.2f})"
            )
    return problems


def validate_rows_outside_3se(out_dir: str) -> int:
    """Checked validate rows whose own 3-standard-error flag is false."""
    rows = _read_table(out_dir, "validate")
    return sum(r["checked"] == "true" and r["ok"] == "false" for r in rows)


_OPTIMUM_VALUES = ("p_star_dbm", "p_star_watts", "rho", "kappa", "rate_bps_hz", "pd", "pfa", "scnr_avg")


def _check_optimum(out_dir: str, scenario_path: str, exit_code: int) -> list[str]:
    rows = _read_table(out_dir, "optimum")
    if len(rows) != 1:
        return [f"optimum: expected one row, got {len(rows)}"]
    row = rows[0]
    if exit_code == EXIT_INFEASIBLE:
        filled = [k for k in _OPTIMUM_VALUES if row[k] != ""]
        if row["feasible"] != "false" or filled:
            return [f"optimum: exit 2 but row is not all-empty (feasible={row['feasible']}, filled={filled})"]
        return []
    if row["feasible"] != "true":
        return ["optimum: exit 0 but row is not feasible"]
    from jrcsim.power_allocation import evaluate_point
    from jrcsim.scenario import load_scenario

    point = evaluate_point(
        load_scenario(scenario_path),
        float(row["p_star_watts"]),
        float(row["rho"]),
        float(row["kappa"]),
    )
    if not point.feasible:
        return [
            "optimum: evaluate_point rejects the certificate "
            f"(rate {point.meets_rate}, pfa {point.meets_pfa}, pd {point.meets_pd}, "
            f"budget {point.within_budget})"
        ]
    return []


def check_job(command: str, out_dir: str, scenario_path: str, exit_code: int) -> list[str]:
    """Problems with one finished command's outputs; empty when they are correct."""
    if command == "optimize":
        return _check_optimum(out_dir, scenario_path, exit_code)
    check = {
        "scnr-sweep": _check_scnr_sweep,
        "detection-sweep": _check_detection_sweep,
        "validate": _check_validate,
    }.get(command)
    return check(out_dir) if check else []
