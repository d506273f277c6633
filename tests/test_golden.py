"""Golden tables: every command's CSV output on the reduced scenario.

Fresh runs of all five commands are compared with the files under
tests/golden/: first cell by cell, floats at a relative tolerance of 1e-9 (the
9-significant-digit emission), ints, strings and bools exactly, so a
difference names its row and column; then byte for byte, since every rerun
writes the same tables. A change that moves numbers on
purpose regenerates the goldens of the commands it moves (all five when no
command is named) and says why in CHANGES.md:

    PYTHONPATH=src python tests/test_golden.py [COMMAND ...]
"""

import json
import math
import os
import sys

import pytest

from conftest import reduced_scenario
from oracles import parse_table_csv
from jrcsim.cli import main
from jrcsim.experiments import COLUMNS
from jrcsim.scenario import ScenarioConfig

GOLDEN_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")

# command -> emitted tables; every command exits 0 on the reduced scenario
COMMANDS = {
    "scnr-sweep": ("scnr_sweep", "scnr_table"),
    "detection-sweep": ("detection_sweep",),
    "tradeoff": ("tradeoff", "optimum"),
    "optimize": ("optimum",),
    "validate": ("validate",),
}

RTOL = 1.0e-9


def run_command(command: str, out_dir: str) -> int:
    """Run one CLI command on the reduced scenario, writing CSV into out_dir."""
    os.makedirs(out_dir, exist_ok=True)
    config = os.path.join(out_dir, "scenario.json")
    with open(config, "w", encoding="ascii") as fh:
        json.dump(reduced_scenario(ScenarioConfig()).to_dict(), fh)
    return main([command, "--config", config, "--out", out_dir, "--format", "csv"])


def same_value(kind, got, want) -> bool:
    if got is None or want is None or kind is not float:
        return got == want
    return math.isclose(got, want, rel_tol=RTOL, abs_tol=0.0)


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_tables_match_golden(command, tmp_path):
    assert run_command(command, str(tmp_path)) == 0
    for name in COMMANDS[command]:
        golden_path, fresh_path = os.path.join(GOLDEN_DIR, command, f"{name}.csv"), str(tmp_path / f"{name}.csv")
        golden, fresh = parse_table_csv(golden_path, name), parse_table_csv(fresh_path, name)
        assert len(fresh) == len(golden), name
        for i, (got, want) in enumerate(zip(fresh, golden)):
            for col, kind in COLUMNS[name]:
                assert same_value(kind, got[col], want[col]), (
                    f"{name} row {i} column {col}: {got[col]!r} != golden {want[col]!r}"
                )
        with open(fresh_path, "rb") as got, open(golden_path, "rb") as want:
            assert got.read() == want.read(), f"{name}: the bytes differ from the golden file's"


def regenerate(commands) -> None:
    unknown = sorted(set(commands) - set(COMMANDS))
    if unknown:
        raise SystemExit(f"unknown command(s) {unknown}; choose from {sorted(COMMANDS)}")
    for command in commands or COMMANDS:
        tables = COMMANDS[command]
        out_dir = os.path.join(GOLDEN_DIR, command)
        if run_command(command, out_dir) != 0:
            raise SystemExit(f"{command} did not exit 0")
        keep = {f"{name}.csv" for name in tables}
        for entry in os.listdir(out_dir):
            if entry not in keep:
                os.remove(os.path.join(out_dir, entry))


if __name__ == "__main__":
    sys.exit(regenerate(sys.argv[1:]))
