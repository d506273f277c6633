"""Command-line interface.

Five subcommands cover the reporting surface: scnr-sweep, detection-sweep,
tradeoff, optimize, and validate. Every run writes one file per result table
plus a manifest.json into the output directory, in CSV or JSON form.

Exit codes: 0 success, 1 configuration or usage error, 2 power minimization
infeasible at the configured budget ceiling, 3 output I/O failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys

from . import __version__
from .experiments import (
    emit_outputs,
    run_detection_sweep,
    run_optimize,
    run_scnr_sweep,
    run_tradeoff,
    run_validation,
)
from .scenario import ConfigError, ScenarioConfig, load_scenario, watts_to_dbm

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_INFEASIBLE = 2
EXIT_IO = 3

_COMMANDS = (
    ("scnr-sweep", "average SCNR versus transmit power across antennas, carriers, clutter"),
    ("detection-sweep", "analytic and Monte Carlo detector curves over a threshold grid"),
    ("tradeoff", "rate and guarded detection versus power with minimal feasible power marked"),
    ("optimize", "minimize transmit power subject to rate, false-alarm, and detection targets"),
    ("validate", "analytic-versus-Monte-Carlo agreement report"),
)


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad usage; funnel through ConfigError so
    # usage mistakes and config mistakes share exit code 1
    def error(self, message):
        raise ConfigError(message)


def _build_parser() -> _Parser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", metavar="PATH", help="scenario JSON file (all defaults when omitted)")
    common.add_argument("--seed", type=int, metavar="INT", help="override the master seed")
    common.add_argument("--trials", type=int, metavar="INT", help="override Monte Carlo trials per operating point")
    common.add_argument("--out", metavar="DIR", help="output directory (default from the scenario)")
    common.add_argument("--format", choices=("csv", "json"), help="output file format (default from the scenario)")

    parser = _Parser(prog="jrcsim", description="near-field joint radar and communication link simulator")
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser, metavar="COMMAND")
    for name, help_text in _COMMANDS:
        sub.add_parser(name, parents=[common], help=help_text, description=help_text)
    return parser


def _replaced(obj, **changes):
    """obj with every change that is not None applied, validated as it is rebuilt."""
    return dataclasses.replace(obj, **{k: v for k, v in changes.items() if v is not None})


def _scenario_from_args(args: argparse.Namespace) -> ScenarioConfig:
    scenario = load_scenario(args.config) if args.config else ScenarioConfig()
    return _replaced(
        scenario,
        seed=args.seed,
        detection=_replaced(scenario.detection, trials=args.trials),
        output=_replaced(scenario.output, dir=args.out, format=args.format),
    )


def _report_files(written: dict[str, str]) -> None:
    for name in written:
        print(f"wrote {written[name]}")


def _run(args: argparse.Namespace) -> int:
    scenario = _scenario_from_args(args)
    out_dir = scenario.output.dir
    fmt = scenario.output.format
    command = args.command

    if command == "scnr-sweep":
        tables = run_scnr_sweep(scenario)
        written = emit_outputs(tables, scenario, out_dir, fmt, command=command)
        _report_files(written)
        print(f"scnr-sweep: {len(tables[0].rows)} records, {len(tables[1].rows)} summary rows")
        return EXIT_OK

    if command == "detection-sweep":
        tables = run_detection_sweep(scenario)
        written = emit_outputs(tables, scenario, out_dir, fmt, command=command)
        _report_files(written)
        print(f"detection-sweep: {len(tables[0].rows)} records, {scenario.detection.trials} trials each")
        return EXIT_OK

    if command == "tradeoff":
        tables, result = run_tradeoff(scenario)
        written = emit_outputs(tables, scenario, out_dir, fmt, command=command)
        _report_files(written)
        if result.feasible:
            print(
                f"tradeoff: minimal feasible power {watts_to_dbm(result.p_star_watts):.3f} dBm "
                f"(rho = {result.rho_star:.3f})"
            )
        else:
            print(
                "tradeoff: no feasible power at ceiling "
                f"{watts_to_dbm(result.p_ceiling_watts):.3f} dBm"
            )
        return EXIT_OK

    if command == "optimize":
        tables, result = run_optimize(scenario)
        written = emit_outputs(tables, scenario, out_dir, fmt, command=command)
        _report_files(written)
        if not result.feasible:
            print(
                "optimize: infeasible at ceiling "
                f"{watts_to_dbm(result.p_ceiling_watts):.3f} dBm "
                f"({result.evaluations} evaluations)"
            )
            return EXIT_INFEASIBLE
        pt = result.point
        print(
            f"optimize: p* = {watts_to_dbm(result.p_star_watts):.3f} dBm "
            f"(rho = {result.rho_star:.3f}, kappa = {result.kappa_star:.6g}); "
            f"rate = {pt.rate_bps_hz:.3f} b/s/Hz, pd = {pt.pd:.4f}, pfa = {pt.pfa:.3g}"
        )
        return EXIT_OK

    if command == "validate":
        tables = run_validation(scenario)
        written = emit_outputs(tables, scenario, out_dir, fmt, command=command)
        _report_files(written)
        rows = tables[0].rows
        checked = [r for r in rows if r["checked"]]
        agreeing = [r for r in checked if r["ok"]]
        print(
            f"validate: {len(agreeing)}/{len(checked)} checked probabilities within "
            f"3 standard errors ({len(rows)} rows, {scenario.detection.trials} trials)"
        )
        return EXIT_OK

    raise ConfigError(f"unknown command {command!r}")


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return _run(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
