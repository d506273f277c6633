"""Command-line interface.

Five subcommands cover the reporting surface: scnr-sweep, detection-sweep,
tradeoff, optimize, and validate. Every run writes one file per result table
plus a manifest.json into the output directory, in CSV or JSON form.

Exit codes: 0 success, 1 configuration or usage error or a scenario too large
for the process's memory, 2 power minimization infeasible at the configured
budget ceiling, 3 output I/O failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
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
from .scenario import ConfigError, ScenarioConfig, load_scenario

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_INFEASIBLE = 2
EXIT_IO = 3


def _sweep_summary(tables, scenario: ScenarioConfig) -> str:
    return f"scnr-sweep: {len(tables[0].rows)} records, {len(tables[1].rows)} summary rows"


def _detection_summary(tables, scenario: ScenarioConfig) -> str:
    return f"detection-sweep: {len(tables[0].rows)} records, {scenario.detection.trials} trials each"


def _tradeoff_summary(tables, scenario: ScenarioConfig) -> str:
    (row,) = tables[1].rows
    if not row["feasible"]:
        return f"tradeoff: no feasible power at ceiling {scenario.targets.p_max_dbm:.3f} dBm"
    return (
        f"tradeoff: minimal feasible power {row['p_star_dbm']:.3f} dBm "
        f"(rho = {row['rho']:.3f})"
    )


def _optimize_summary(tables, scenario: ScenarioConfig) -> str:
    (row,) = tables[0].rows
    if not row["feasible"]:
        return (
            f"optimize: infeasible at ceiling {scenario.targets.p_max_dbm:.3f} dBm "
            f"({row['evaluations']} evaluations)"
        )
    return (
        f"optimize: p* = {row['p_star_dbm']:.3f} dBm "
        f"(rho = {row['rho']:.3f}, kappa = {row['kappa']:.6g}); "
        f"rate = {row['rate_bps_hz']:.3f} b/s/Hz, pd = {row['pd']:.4f}, pfa = {row['pfa']:.3g}"
    )


def _validate_summary(tables, scenario: ScenarioConfig) -> str:
    rows = tables[0].rows
    checked = [r for r in rows if r["checked"]]
    agreeing = [r for r in checked if r["ok"]]
    return (
        f"validate: {len(agreeing)}/{len(checked)} checked probabilities within "
        f"3 standard errors ({len(rows)} rows, {scenario.detection.trials} trials)"
    )


# name -> (help, runner, summary line); each summary reads the tables as
# emitted, so stdout reports what the files hold
_COMMANDS = {
    "scnr-sweep": (
        "average SCNR versus transmit power across antennas, carriers, clutter",
        run_scnr_sweep,
        _sweep_summary,
    ),
    "detection-sweep": (
        "analytic and Monte Carlo detector curves over a threshold grid",
        run_detection_sweep,
        _detection_summary,
    ),
    "tradeoff": (
        "rate and guarded detection versus power with minimal feasible power marked",
        run_tradeoff,
        _tradeoff_summary,
    ),
    "optimize": (
        "minimize transmit power subject to rate, false-alarm, and detection targets",
        run_optimize,
        _optimize_summary,
    ),
    "validate": ("analytic-versus-Monte-Carlo agreement report", run_validation, _validate_summary),
}


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad usage; funnel through ConfigError so
    # usage mistakes and config mistakes share exit code 1
    def error(self, message):
        raise ConfigError(message)


# built on the first main call, not at import, and reused by every later call
# in the process; _run looks each command up in _COMMANDS when it runs
@functools.cache
def _build_parser() -> _Parser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", metavar="PATH", help="scenario JSON file (all defaults when omitted)")
    common.add_argument("--seed", type=int, metavar="INT", help="override the master seed")
    common.add_argument("--trials", type=int, metavar="INT", help="override Monte Carlo trials per operating point")
    common.add_argument("--out", metavar="DIR", help="output directory (default from the scenario)")
    common.add_argument("--format", help="output file format (default from the scenario)")

    parser = _Parser(prog="jrcsim", description="near-field joint radar and communication link simulator")
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser, metavar="COMMAND")
    for name, (help_text, _, _) in _COMMANDS.items():
        sub.add_parser(name, parents=[common], help=help_text, description=help_text)
    return parser


def _replaced(obj, **changes):
    """obj rebuilt, and so validated, with every change that is not None; None
    when every change is None, so a section that no flag overrides is kept."""
    changes = {k: v for k, v in changes.items() if v is not None}
    return dataclasses.replace(obj, **changes) if changes else None


def _scenario_from_args(args: argparse.Namespace) -> ScenarioConfig:
    scenario = load_scenario(args.config) if args.config else ScenarioConfig()
    detection = _replaced(scenario.detection, trials=args.trials)
    output = _replaced(scenario.output, dir=args.out, format=args.format)
    return _replaced(scenario, seed=args.seed, detection=detection, output=output) or scenario


def _run(args: argparse.Namespace) -> int:
    scenario = _scenario_from_args(args)
    _, runner, summary = _COMMANDS[args.command]
    tables = runner(scenario)
    for path in emit_outputs(tables, scenario, command=args.command).values():
        print(f"wrote {path}")
    print(summary(tables, scenario))
    # the certificate row the file holds decides optimize's exit code
    if args.command == "optimize" and not tables[0].rows[0]["feasible"]:
        return EXIT_INFEASIBLE
    return EXIT_OK


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
    except MemoryError as exc:
        # NumPy names the array it could not allocate; a bare MemoryError is empty
        detail = f": {exc}" if str(exc) else ""
        print(f"error: out of memory{detail}; reduce the scenario's size", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
