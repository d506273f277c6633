"""End-to-end acceptance gates for the simulator.

Each test prints a single PASS/FAIL line for one gate (run with ``-s`` to see
them as they go):

 1. the closed-form receive beamformer beats every random beamformer and
    matches a generalized-eigenvalue solver;
 2. the interference-plus-noise covariance matches synthesized snapshots;
 3. analytic detection and false-alarm rates match million-trial Monte Carlo;
 4. the power curve is exactly linear without clutter and saturates with it;
 5. scene-averaged SCNR orderings across carriers, apertures, and clutter;
 6. detection curves have the expected shape and orderings;
 7. the power minimizer agrees with exhaustive grid search and certifies
    minimality;
 8. identical runs write byte-identical files;
 9. the near-field phase model is accurate where promised and materially
    different from the plane-wave model at close range.
"""

import dataclasses
import itertools
import json
import time

import numpy as np
import pytest
import scipy.linalg

from jrcsim.array_geometry import array_constants, element_index_offsets, steering_vector
from jrcsim.cli import main
from jrcsim.comm_link import rate_threshold
from jrcsim.context import build_context
from jrcsim.experiments import (
    run_detection_sweep,
    run_scnr_sweep,
    run_validation,
)
from jrcsim.power_allocation import _rho_grid, evaluate_point, minimize_power
from jrcsim.scenario import ArraySection, dbm_to_watts
from jrcsim.stats import inverse_q, q_function
from oracles import (
    aperture,
    average_scnr,
    clutter_covariance,
    exact_distance,
    first_feasible_split,
    fraunhofer_distance,
    fresnel_distance,
    optimal_receive_beamformer,
    radar_snapshot_batch,
    scnr,
    transmit_covariance,
)


def with_clutter_count(scenario, count):
    return dataclasses.replace(scenario, clutter=dataclasses.replace(scenario.clutter, count=count))


def with_antennas(scenario, n_antennas):
    return dataclasses.replace(scenario, array=dataclasses.replace(scenario.array, n_antennas=n_antennas))


def report(gate: str, ok: bool, detail: str = "") -> None:
    line = f"[{'PASS' if ok else 'FAIL'}] {gate}"
    if detail:
        line += f" — {detail}"
    print(line)
    assert ok, line


class TestAcceptance:
    def test_01_receive_beamformer_is_globally_optimal(self, default_scenario):
        start = time.perf_counter()
        rng = np.random.default_rng(20260817)
        cells = list(itertools.product((5, 10), (0, 1, 3), (0.1, 0.8)))
        cases = [(n, l, s, 0) for n, l, s in cells] + [(n, l, s, 1) for n, l, s in cells[:8]]
        assert len(cases) == 20
        worst_margin = np.inf
        worst_oracle = 0.0
        for n_ant, n_clutter, sigma, key in cases:
            scene = build_context(with_antennas(with_clutter_count(default_scenario, n_clutter), n_ant), scene_key=key)
            ctx = scene.at_sigma(sigma)
            power = float(rng.uniform(0.05, 10.0))
            rho = float(rng.uniform(0.0, 1.0))
            point = ctx.operating_point(power, rho)
            beams, x = point.beams, point.x
            cov = clutter_covariance(ctx.clutter, transmit_covariance(beams))
            w_star = optimal_receive_beamformer(ctx.target_steering, cov, x)
            s_star = scnr(w_star, ctx.alpha0, ctx.target_steering, cov, x)

            z = rng.standard_normal((10_000, n_ant)) + 1j * rng.standard_normal((10_000, n_ant))
            z /= np.linalg.norm(z, axis=1, keepdims=True)
            y = ctx.target_steering * np.dot(ctx.target_steering, x)
            numer = abs(ctx.alpha0) ** 2 * np.abs(z.conj() @ y) ** 2
            denom = np.einsum("ij,jk,ik->i", z.conj(), cov, z).real
            worst_margin = min(worst_margin, float(s_star - (numer / denom).max()))

            top_pair = scipy.linalg.eigh(
                abs(ctx.alpha0) ** 2 * np.outer(y, y.conj()), cov, eigvals_only=True
            )[-1]
            worst_oracle = max(worst_oracle, abs(s_star - top_pair) / top_pair)
        elapsed = time.perf_counter() - start
        report(
            "closed-form receive beamformer dominates 10^4 random beamformers per scene "
            "and matches the generalized-eigenvalue solver",
            worst_margin >= -1e-9 and worst_oracle <= 1e-9 and elapsed < 10.0,
            f"min margin {worst_margin:.3e}, max oracle gap {worst_oracle:.2e}, {elapsed:.1f}s",
        )

    def test_02_covariance_matches_synthesized_snapshots(self, default_context):
        start = time.perf_counter()
        ctx = default_context
        beams = ctx.beams_at(1.0, ctx.scenario.power.rho)
        cov = clutter_covariance(ctx.clutter, transmit_covariance(beams))
        snaps = radar_snapshot_batch(
            ctx.clutter, 0j, ctx.target_steering, beams, np.random.default_rng(20260817), 100_000
        )
        sampled = snaps.T @ snaps.conj() / len(snaps)
        rel_err = np.linalg.norm(sampled - cov) / np.linalg.norm(cov)
        elapsed = time.perf_counter() - start
        report(
            "interference-plus-noise covariance matches 10^5 synthesized snapshots "
            "within 2% relative error",
            rel_err < 0.02 and elapsed < 30.0,
            f"relative error {rel_err:.4f}, {elapsed:.1f}s",
        )

    def test_03_closed_forms_match_million_trial_monte_carlo(self, default_scenario):
        start = time.perf_counter()
        cfg = dataclasses.replace(
            default_scenario,
            detection=dataclasses.replace(default_scenario.detection, trials=1_000_000),
        )
        (table,) = run_validation(cfg)
        checked = [r for r in table.rows if r["checked"]]
        failures = [r for r in checked if not r["ok"]]
        round_trip = abs(q_function(inverse_q(1e-6)) - 1e-6) <= 1e-9 * 1e-6
        elapsed = time.perf_counter() - start
        report(
            "analytic detection and false-alarm probabilities sit within 3 standard "
            "errors of million-trial Monte Carlo wherever estimable",
            len(checked) >= 20 and not failures and round_trip and elapsed < 300.0,
            f"{len(checked)} probabilities checked, {len(failures)} failures, {elapsed:.1f}s",
        )

    def test_04_power_curve_is_linear_then_clutter_limited(self, default_scenario):
        clean = build_context(default_scenario).at_sigma(0.0)
        rho = default_scenario.power.rho
        powers_dbm = np.linspace(-10.0, 40.0, 11)
        clean_db = np.array(
            [
                10.0
                * np.log10(
                    average_scnr(
                        clean.clutter,
                        clean.beams_at(dbm_to_watts(p), rho),
                        clean.alpha0,
                        clean.target_steering,
                    )
                )
                for p in powers_dbm
            ]
        )
        slopes = np.diff(clean_db) / np.diff(powers_dbm)
        slope_err = float(np.max(np.abs(slopes - 1.0)))

        dense = build_context(with_clutter_count(default_scenario, 8)).at_sigma(0.8)
        high_dbm = np.linspace(-10.0, 70.0, 17)
        dense_db = np.array(
            [
                10.0
                * np.log10(
                    average_scnr(
                        dense.clutter,
                        dense.beams_at(dbm_to_watts(p), rho),
                        dense.alpha0,
                        dense.target_steering,
                    )
                )
                for p in high_dbm
            ]
        )
        curvature = np.diff(dense_db, n=2)

        unit_rx = transmit_covariance(dense.beams_at(1.0, rho))
        a = dense.target_steering
        n_ant = dense.scenario.array.n_antennas
        limit_cov = np.zeros((n_ant, n_ant), dtype=complex)
        for a_l in dense.clutter.matrix.T:
            gain = np.vdot(np.conj(a_l), unit_rx @ np.conj(a_l)).real
            limit_cov += dense.clutter.sigma**2 * gain * np.outer(a_l, a_l.conj())
        ceiling = float(
            abs(dense.alpha0) ** 2
            * np.vdot(a, np.linalg.solve(limit_cov, a)).real
            * np.vdot(np.conj(a), unit_rx @ np.conj(a)).real
        )
        at_million = average_scnr(
            dense.clutter,
            dense.beams_at(1e6, rho),
            dense.alpha0,
            dense.target_steering,
        )
        gap = abs(at_million - ceiling) / ceiling
        report(
            "SCNR grows dB-for-dB without clutter and bends onto the clutter-limited "
            "ceiling with it",
            slope_err <= 1e-6
            and np.all(curvature <= 1e-9)
            and curvature.min() < -1e-3
            and gap <= 0.01,
            f"slope error {slope_err:.1e}, ceiling gap {gap:.2e}",
        )

    def test_05_scene_average_orderings(self, default_scenario):
        start = time.perf_counter()
        sweep, summary = run_scnr_sweep(default_scenario)
        assert all(r["realizations"] == 100 for r in sweep.rows)
        mean = {(r["carrier_ghz"], r["n_antennas"]): r["mean_scnr_db"] for r in summary.rows}
        err = {(r["carrier_ghz"], r["n_antennas"]): r["error_db"] for r in summary.rows}
        ok = (
            mean[(2.8, 5)] > mean[(28.0, 5)]
            and mean[(2.8, 10)] > mean[(28.0, 10)]
            and mean[(2.8, 10)] > mean[(2.8, 5)]
            and mean[(28.0, 10)] > mean[(28.0, 5)]
            and err[(2.8, 5)] > err[(2.8, 10)]
            and err[(28.0, 5)] > err[(28.0, 10)]
        )
        elapsed = time.perf_counter() - start
        report(
            "100-realization scene averages order correctly across carrier, aperture, "
            "and clutter severity",
            ok and elapsed < 60.0,
            f"errors N=5 {err[(2.8, 5)]:.2f}/{err[(28.0, 5)]:.2f} dB vs "
            f"N=10 {err[(2.8, 10)]:.2f}/{err[(28.0, 10)]:.2f} dB, {elapsed:.1f}s",
        )

    def test_06_detection_curves_have_the_reported_shape(self, default_scenario):
        (table,) = run_detection_sweep(default_scenario)
        cells = {}
        for row in table.rows:
            cells.setdefault((row["power_dbm"], row["clutter"]), []).append(row)
        monotone = True
        dominated = True
        for rows in cells.values():
            rows.sort(key=lambda r: r["kappa"])
            for col in ("pfa_analytic", "pd_analytic"):
                series = [r[col] for r in rows]
                monotone &= all(a >= b for a, b in zip(series, series[1:]))
            dominated &= all(r["pd_analytic"] >= r["pfa_analytic"] for r in rows)

        pd = {(r["kappa"], r["power_dbm"], r["clutter"]): r["pd_analytic"] for r in table.rows}
        light_over_intense = all(
            pd[(k, p, "light")] >= pd[(k, p, "intense")] for k, p, c in pd if c == "light"
        ) and any(pd[(k, p, "light")] > pd[(k, p, "intense")] for k, p, c in pd if c == "light")
        power_helps = all(
            pd[(k, 36.0, c)] >= pd[(k, 30.0, c)] for k, p, c in pd if p == 30.0
        ) and any(pd[(k, 36.0, c)] > pd[(k, 30.0, c)] for k, p, c in pd if p == 30.0)
        report(
            "detection curves fall with the threshold, dominate the false-alarm rate, "
            "and improve with lighter clutter or more power",
            monotone and dominated and light_over_intense and power_helps,
        )

    def test_07_power_minimizer_matches_exhaustive_search(self, default_context):
        start = time.perf_counter()
        ctx = default_context
        targets = ctx.scenario.targets
        assert rate_threshold(targets.rate_bps_hz) == pytest.approx(31.0)
        assert targets.pd_min == 0.6
        p_max = dbm_to_watts(targets.p_max_dbm)

        result = minimize_power(ctx)
        p_star = result.point.power_watts
        certificate = evaluate_point(ctx, p_star, result.point.rho, result.point.kappa)
        revalidates = (
            result.feasible
            and certificate.feasible
            and certificate.rate_bps_hz == pytest.approx(result.point.rate_bps_hz, rel=1e-12)
            and certificate.pd == pytest.approx(result.point.pd, rel=1e-12)
        )

        # the exhaustive search: every split at each of 64 grid powers, split
        # by split from the record
        opt = ctx.scenario.optimizer
        powers = np.geomspace(dbm_to_watts(ctx.scenario.power.min_dbm), p_max, 64)
        rhos = _rho_grid(opt)
        flags = [first_feasible_split(ctx, p, rhos) is not None for p in powers.tolist()]
        first = flags.index(True)
        bracketed = (
            flags == sorted(flags)
            and p_star <= powers[first] * (1.0 + 1e-12)
            and (first == 0 or p_star > powers[first - 1])
        )

        tol = opt.tol_factor * p_max
        below = first_feasible_split(ctx, p_star - 10.0 * tol, rhos) is None
        elapsed = time.perf_counter() - start
        report(
            "minimum transmit power is feasible, re-validates, brackets the exhaustive "
            "grid optimum, and is tight from below",
            revalidates and bracketed and below and elapsed < 60.0,
            f"p* = {p_star:.3f} W, grid step [{powers[max(first - 1, 0)]:.3f}, "
            f"{powers[first]:.3f}] W, {elapsed:.1f}s",
        )

    def test_08_identical_runs_write_identical_bytes(self, tmp_path, capsys):
        config = {
            "sweep": {
                "antennas": [5],
                "carriers_ghz": [28.0],
                "clutter_levels": ["none", "intense"],
                "realizations": 2,
            },
            "power": {"points": 4},
            "detection": {
                "trials": 2000,
                "kappa_points": 5,
                "powers_dbm": [30.0],
                "clutter_levels": ["intense"],
            },
            "optimizer": {"rho_points": 7},
        }
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(config))
        mismatches = []
        for command in ("scnr-sweep", "detection-sweep", "tradeoff", "optimize", "validate"):
            outs = []
            for tag in ("a", "b"):
                out = tmp_path / f"{command}-{tag}"
                rc = main([command, "--config", str(path), "--out", str(out)])
                assert rc == 0, command
                outs.append(out)
            capsys.readouterr()
            names = sorted(p.name for p in outs[0].iterdir())
            assert names == sorted(p.name for p in outs[1].iterdir())
            for name in names:
                if (outs[0] / name).read_bytes() != (outs[1] / name).read_bytes():
                    mismatches.append(f"{command}/{name}")
        report(
            "every subcommand writes byte-identical files when repeated with the same "
            "configuration and seed",
            not mismatches,
            "all five subcommands compared" if not mismatches else ", ".join(mismatches),
        )

    def test_09_near_field_phase_model_is_faithful(self):
        bound_ok = True
        for cfg in (ArraySection(5, 28.0), ArraySection(10, 28.0), ArraySection(10, 2.8)):
            budget = array_constants(cfg)[2]**2 * cfg.n_antennas**2
            for r in np.geomspace(10.0 * aperture(cfg), 1e3 * aperture(cfg), 24):
                for theta in np.linspace(0.02 * np.pi, 0.98 * np.pi, 25):
                    gap = np.abs(fresnel_distance(cfg, r, theta) - exact_distance(cfg, r, theta)).max()
                    bound_ok &= gap < budget / r

        cfg = ArraySection(10, 28.0)
        theta = np.pi / 3.0
        near = steering_vector(cfg, 5.0, theta)
        offsets = element_index_offsets(cfg.n_antennas)
        far = np.exp(1j * np.pi * offsets * np.cos(theta))
        phase_gap = float(np.abs(np.angle(near * far.conj())).max())
        report(
            "distance approximation error stays inside its bound and the close-range "
            "steering vector departs measurably from the plane-wave model",
            bound_ok and phase_gap > 1e-3,
            f"max phase gap {phase_gap:.4f} rad at 5 m "
            f"(boundary distance {fraunhofer_distance(cfg):.3f} m)",
        )
