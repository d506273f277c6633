"""Named mutants of the source, each with the tests that must kill it.

Each entry changes one exact text of one file. Run as a script, this module
copies src/, tests/ and pyproject.toml to a temporary directory, applies one
mutant at a time to that copy, and runs the mutant's test node ids there with
pytest in a subprocess, under conftest's "mutants" Hypothesis profile: any
failing example kills a mutant, so none is shrunk. A mutant is killed when
those tests fail. The run
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


_DENSE_SCAN = "tests/test_power_allocation.py::TestExactSearch::test_p_star_is_the_first_feasible_power_of_a_dense_scan"
_SEARCH = "src/jrcsim/power_allocation.py"
_DRAGON4_ORACLE = "tests/test_stats.py::TestFloatText::test_matches_dragon4_on_every_finite_double"
_PINNED_TEXTS = "tests/test_stats.py::TestFloatText::test_pinned_texts"
_ROUNDED_ONCE = "tests/test_experiments_cli.py::TestTableTypes::test_each_float_is_rounded_once"
_EXPERIMENTS = "src/jrcsim/experiments.py"
_SCENARIO = "src/jrcsim/scenario.py"
_KERNEL = "src/jrcsim/radar_sensing.py"
_DETECTION = "src/jrcsim/detection.py"
_TIES = "tests/test_detection.py::TestBlockedStreaming::test_thresholds_on_and_beside_trial_values_count_as_one_full_draw"
_VALIDATOR_ORACLE = "tests/test_scenario.py::TestValidatorOracle::test_a_corrupted_field_loads_as_the_reference[{}]"

MUTANTS = [
    # the power search: each split's first crossing, exactly, where
    # feasibility is not monotone in power
    Mutant(
        name="search-takes-a-splits-last-crossing",
        path=_SEARCH,
        old="ends[np.arange(rest.size), np.argmax(feasible, axis=-1)]",
        new="ends[np.arange(rest.size), feasible.shape[-1] - 1 - np.argmax(feasible[:, ::-1], axis=-1)]",
        killers=(_DENSE_SCAN,),
    ),
    Mutant(
        name="descartes-gate-trusts-an-unknown-sign",
        path=_SEARCH,
        old="    return ~(unknown | falls).any(axis=-1), (signs > 0.0).any(axis=-1)",
        new="    return ~falls.any(axis=-1), (signs > 0.0).any(axis=-1)",
        killers=("tests/test_power_allocation.py::TestDescartesGate::test_an_unknown_sign_shuts_the_gate",),
    ),
    Mutant(
        name="rate-floor-takes-the-other-root",
        path=_SEARCH,
        old="p = np.where(b > 0.0, -2.0 * c / (b + root), (root - b) / (2.0 * a))",
        new="p = np.where(b > 0.0, -(b + root) / (2.0 * a), 2.0 * c / (root - b))",
        killers=("tests/test_power_allocation.py::TestRateFloor::test_the_rate_test_turns_on_at_the_rate_floor",),
    ),
    # one place decides each (power, split) entry and one place counts it
    Mutant(
        name="sensing-trusts-the-forms-on-a-near-row",
        path=_SEARCH,
        old="    for m in np.flatnonzero(near.any(axis=-1)):\n",
        new="    for m in []:\n",
        killers=("tests/test_power_allocation.py::TestNearTies::test_a_floor_on_the_record_deflection",),
    ),
    Mutant(
        name="entries-count-powers-not-pairs",
        path="src/jrcsim/power_allocation.py",
        old="self.entries += gamma_sd.size",
        new="self.entries += powers.size",
        killers=("tests/test_surface.py::test_the_search_reads_the_split_forms_a_few_times",),
    ),
    Mutant(
        name="nudge-passes-the-ceiling",
        path="src/jrcsim/power_allocation.py",
        old="    hi = min(hi * (1.0 + min(tol / 4.0, 1e-6)), p_max) if hi > p_min else hi",
        new="    hi = hi * (1.0 + min(tol / 4.0, 1e-6)) if hi > p_min else hi",
        killers=(
            "tests/test_power_allocation.py::TestMinimizePower::"
            "test_a_rate_floor_just_under_the_ceiling_certifies_at_the_ceiling",
        ),
    ),
    Mutant(
        name="ceiling-off-the-grid",
        path=_SEARCH,
        old="canonical_floor(dbm_to_watts(scenario.targets.p_max_dbm))",
        new="dbm_to_watts(scenario.targets.p_max_dbm)",
        killers=(
            "tests/test_power_allocation.py::TestMinimizePower::"
            "test_an_off_grid_ceiling_certifies_its_last_printable_power",
        ),
    ),
    # table emission: each float formatted once, a column at a time, and
    # written by a comma join
    Mutant(
        name="column-keeps-negative-zero",
        path=_EXPERIMENTS,
        old='        texts = ["0" if text == "-0" else text for text in texts]\n',
        new="        pass\n",
        killers=(
            _ROUNDED_ONCE,
            "tests/test_experiments_cli.py::TestTradeoffAndOptimize::test_even_odds_cap_emits_no_negative_zero",
        ),
    ),
    Mutant(
        name="writer-formats-floats-again",
        path=_EXPERIMENTS,
        old='*map(",".join, table.texts)]',
        new=(
            '*(",".join(float_text(float(text)) if kind is float and text else text'
            " for (_, kind), text in zip(COLUMNS[table.name], texts)) for texts in table.texts)]"
        ),
        killers=("tests/test_surface.py::test_each_float_is_formatted_once",),
    ),
    Mutant(
        name="repr-texts",
        path=_EXPERIMENTS,
        old="texts = _float_texts(floats)",
        new="texts = list(map(repr, floats))",
        killers=(_ROUNDED_ONCE, "tests/test_golden.py::test_tables_match_golden[detection-sweep]"),
    ),
    Mutant(
        name="python-bool-texts",
        path=_EXPERIMENTS,
        old='return value, "true" if value else "false"',
        new="return value, str(value)",
        killers=(
            "tests/test_experiments_cli.py::TestTableTypes::test_every_value_is_empty_or_its_column_kind",
            "tests/test_golden.py::test_tables_match_golden[tradeoff]",
        ),
    ),
    Mutant(
        name="ten-digit-texts",
        path="src/jrcsim/stats.py",
        old='joined = "%.9g\\n" * len(values)',
        new='joined = "%.10g\\n" * len(values)',
        killers=(_DRAGON4_ORACLE, _PINNED_TEXTS),
    ),
    Mutant(
        name="exponent-texts-kept",
        path="src/jrcsim/stats.py",
        old='    if "e" in joined:\n',
        new="    if False:\n",
        killers=(_DRAGON4_ORACLE, _PINNED_TEXTS),
    ),
    Mutant(
        name="exponent-expansion-one-zero-short",
        path="src/jrcsim/stats.py",
        old='ljust(exp + 1, "0")',
        new='ljust(exp, "0")',
        killers=(_DRAGON4_ORACLE, _PINNED_TEXTS),
    ),
    Mutant(
        name="negative-exponent-one-zero-short",
        path="src/jrcsim/stats.py",
        old='"0" * (-exp - 1)',
        new='"0" * (-exp - 2)',
        killers=(_DRAGON4_ORACLE, _PINNED_TEXTS),
    ),
    Mutant(
        name="table-written-over-in-place",
        path=_EXPERIMENTS,
        old="        os.remove(path)\n",
        new="        pass\n",
        killers=("tests/test_experiments_cli.py::TestCli::test_a_rerun_replaces_every_file",),
    ),
    Mutant(
        name="csv-without-its-last-newline",
        path=_EXPERIMENTS,
        old='fh.write("\\n".join(lines) + "\\n")',
        new='fh.write("\\n".join(lines))',
        killers=("tests/test_experiments_cli.py::TestJoinedCsv::test_every_table_is_csv_writers_bytes",),
    ),
    # the clutter power behind the receive beamformer: the frozen-waveform
    # bound holds only when every scatterer is counted
    Mutant(
        name="projected-power-drops-a-scatterer",
        path=_KERNEL,
        old="return np.sum(self.sigma * self.sigma * per_scatterer, axis=-1)",
        new="return np.sum(self.sigma * self.sigma * per_scatterer[..., 1:], axis=-1)",
        killers=(
            "tests/test_detection.py::TestFrozenWaveformBound::test_the_record_is_bounded_and_the_frozen_match_attains_it",
        ),
    ),
    # scenario validation: each rule the checker's field table restates, against
    # the field-by-field reference
    Mutant(
        name="validation-drops-the-above-rule",
        path=_SCENARIO,
        old="        if above is not None and checked <= getattr(obj, above):\n",
        new="        if False:\n",
        killers=(_VALIDATOR_ORACLE.format("clutter.max_range_m"), _VALIDATOR_ORACLE.format("detection.kappa_max")),
    ),
    Mutant(
        name="validation-accepts-repeated-entries",
        path=_SCENARIO,
        old="            if len(set(checked)) < len(checked):\n",
        new="            if False:\n",
        killers=(_VALIDATOR_ORACLE.format("sweep.antennas"), _VALIDATOR_ORACLE.format("detection.powers_dbm")),
    ),
    Mutant(
        name="validation-takes-a-bool-for-a-number",
        path=_SCENARIO,
        old="    if isinstance(value, bool) or not isinstance(value, (int, float) if kind is float else int):\n",
        new="    if not isinstance(value, (int, float) if kind is float else int):\n",
        killers=(_VALIDATOR_ORACLE.format("config.seed"), _VALIDATOR_ORACLE.format("power.rho")),
    ),
    # Monte Carlo hits: each block counts, for every threshold between its
    # minimum and maximum, the trials at or above it
    Mutant(
        name="hit-count-strictly-above",
        path=_DETECTION,
        old="np.greater_equal(block, kappas[j], out=mask)",
        new="np.greater(block, kappas[j], out=mask)",
        killers=(_TIES,),
    ),
    Mutant(
        name="pruning-drops-the-largest-trial",
        path=_DETECTION,
        old='(block.min(), block.max()), side="right")',
        new='(block.min(), block.max()), side="left")',
        killers=(_TIES,),
    ),
    Mutant(
        name="rate-rows-swapped-in-the-closed-forms",
        path=_DETECTION,
        old="np.stack((kappas, kappas - shift))",
        new="np.stack((kappas - shift, kappas))",
        killers=("tests/test_detection.py::TestSimulatedRates::test_closed_forms_are_the_scalar_closed_forms",),
    ),
    # the stacked sweep scene: every realization's column and terms are its own,
    # and a scale's quadratic adds its basis terms in one order whatever else is stacked
    Mutant(
        name="steering-matrix-drops-the-swap",
        path="src/jrcsim/array_geometry.py",
        old="np.ascontiguousarray(_fresnel_steering(array, n, r, theta).swapaxes(-1, -2))",
        new="np.ascontiguousarray(_fresnel_steering(array, n, r, theta))",
        killers=("tests/test_array_geometry.py::TestSteeringMatrix::test_each_column_is_the_steering_vector_at_its_position",),
    ),
    Mutant(
        name="quadratic-pairs-another-realizations-lam",
        path=_KERNEL,
        old="np.moveaxis(self._lam, -1, 0)[..., None]",
        new="np.moveaxis(np.flip(self._lam, tuple(range(self._lam.ndim - 1))), -1, 0)[..., None]",
        killers=("tests/test_experiments_cli.py::TestStackedLevels::test_matches_the_per_realization_loop",),
    ),
    Mutant(
        name="quadratic-sum-order-follows-the-layout",
        path=_KERNEL,
        old="clutter = sum(terms, np.zeros(terms.shape[1:]))",
        new="clutter = np.sum(terms, axis=0)",
        killers=(
            "tests/test_radar_sensing.py::TestInterferenceKernel::"
            "test_a_stacked_quadratic_is_each_kernel_alone_at_each_scale",
        ),
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
        argv = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", "--hypothesis-profile=mutants", *mutant.killers]
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
