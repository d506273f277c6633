"""Named mutants of the source, each with the tests that must kill it.

Each entry changes one exact text of one file. Run as a script, this module
copies src/, tests/ and pyproject.toml to a temporary directory, applies one
mutant at a time to that copy, and runs the mutant's test node ids there with
pytest in a subprocess. A mutant is killed when those tests fail. The run
exits nonzero when a mutant survives, when its old text does not occur
exactly once in its file (a stale entry), or when pytest cannot run the
tests. The tree itself is never edited.

    python tests/mutants.py            # every mutant
    python tests/mutants.py NAME ...   # the named ones

The file is not named test_*, so the test suite does not collect it, and it
uses the standard library alone.
"""

import os
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
COPIED = ("src", "tests", "pyproject.toml")


@dataclass(frozen=True)
class Mutant:
    name: str
    path: str  # relative to the root of the tree
    old: str
    new: str
    killers: tuple[str, ...]  # pytest node ids, relative to the root


_BISECTION_ORACLE = "tests/test_power_allocation.py::TestBatchedBisection::test_matches_the_sequential_search"

MUTANTS = [
    Mutant(
        name="bisection-tree-wrong-child",
        path="src/jrcsim/power_allocation.py",
        old="hi, j = mids[j], 2 * j + 1",
        new="hi, j = mids[j], 2 * j + 2",
        killers=(_BISECTION_ORACLE,),
    ),
    Mutant(
        name="bisection-counts-speculative-rows",
        path="src/jrcsim/power_allocation.py",
        old="evaluations += verdict.size",
        new="evaluations += verdicts.ok.size",
        killers=(_BISECTION_ORACLE,),
    ),
    Mutant(
        name="verdicts-build-records-off-the-path",
        path="src/jrcsim/power_allocation.py",
        old="            self.pending[rows] = near\n",
        new="            self.pending[rows] = near\n            for m in np.flatnonzero(self.pending):\n                self[m]\n",
        killers=(_BISECTION_ORACLE,),
    ),
]


def _copy_tree(dest: str) -> None:
    ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
    for name in COPIED:
        source = os.path.join(ROOT, name)
        if os.path.isdir(source):
            shutil.copytree(source, os.path.join(dest, name), ignore=ignore)
        else:
            shutil.copy2(source, os.path.join(dest, name))


def run_mutant(mutant: Mutant, tree: str) -> str:
    """'killed', 'survived', 'stale' or 'error' for one mutant, applied to the
    copy at tree and restored afterwards."""
    path = os.path.join(tree, mutant.path)
    with open(path, encoding="utf-8") as fh:
        original = fh.read()
    if original.count(mutant.old) != 1:
        return "stale"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(original.replace(mutant.old, mutant.new))
    try:
        env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1", "PYTHONPATH": os.path.join(tree, "src")}
        argv = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *mutant.killers]
        done = subprocess.run(argv, cwd=tree, env=env, capture_output=True, text=True)
    finally:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(original)
    # pytest exits 1 when tests ran and some failed; any other nonzero code
    # means the tests did not run as named
    return {0: "survived", 1: "killed"}.get(done.returncode, "error")


def main(names: list[str]) -> int:
    unknown = sorted(set(names) - {m.name for m in MUTANTS})
    if unknown:
        print(f"unknown mutants: {', '.join(unknown)}", file=sys.stderr)
        return 2
    chosen = [m for m in MUTANTS if not names or m.name in names]
    with tempfile.TemporaryDirectory(prefix="mutants-") as tree:
        _copy_tree(tree)
        outcomes = {m.name: run_mutant(m, tree) for m in chosen}
    for name, outcome in outcomes.items():
        print(f"{outcome:9} {name}")
    return 0 if all(outcome == "killed" for outcome in outcomes.values()) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
