"""The package surface: every function in src/jrcsim runs in some CLI command,
every interference kernel comes from the scene, once per clutter matrix and
split whatever the clutter levels, the power search reads its split forms a
few times from one build, the link SINRs have exactly two readers, each
emitted float is formatted once (a detection command's never by Dragon4),
the package runs on NumPy and the standard library alone, and it re-exports
nothing, so importing a module loads only what that module imports.

All five commands run on the reduced scenario (and optimize in JSON form,
and on scenario B) under sys.setprofile, which records the code object of every Python frame
entered, with its caller's. A module-level function or method that no
command enters is code only tests reach, and belongs in tests/ or nowhere;
the few exceptions are named below with their reason.
"""

import contextlib
import importlib
import inspect
import io
import json
import os
import pkgutil
import subprocess
import sys

import numpy as np
import pytest

import jrcsim
from conftest import SCENARIO_B, reduced_scenario
from jrcsim.cli import main
from jrcsim.comm_link import LinkSinrs
from jrcsim.context import SensingScene, SimulationContext, build_context
from jrcsim.experiments import _cell, _columns
from jrcsim.power_allocation import _SplitForms, minimize_power
from jrcsim.radar_sensing import InterferenceKernel
from jrcsim.scenario import ScenarioConfig
from jrcsim.stats import _float_texts, binomial_ci, canonical_float, float_text

NOT_ON_A_COMMAND_PATH = {
    "jrcsim.cli._Parser.error": "runs only on a usage error",
    "jrcsim.scenario._setting": "runs once at import, when the scenario fields are declared",
}

MODULES = [importlib.import_module(f"jrcsim.{m.name}") for m in pkgutil.iter_modules(jrcsim.__path__)]


def defined_functions(module):
    """(dotted name, function) for each function and method written in the module's file."""
    for value in vars(module).values():
        if getattr(value, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(value):
            yield f"{module.__name__}.{value.__qualname__}", value
        elif inspect.isclass(value):
            for attr in vars(value).values():
                fn = getattr(attr, "fget", None) or getattr(attr, "__func__", None) or attr
                if inspect.isfunction(fn) and fn.__code__.co_filename == module.__file__:
                    yield f"{module.__name__}.{fn.__qualname__}", fn


@pytest.fixture(scope="module")
def calls(tmp_path_factory):
    """(caller, callee) code objects of every Python call made by the commands."""
    tmp_path = tmp_path_factory.mktemp("commands")
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(reduced_scenario(ScenarioConfig()).to_dict()))
    runs = [[c, "--config", str(path)] for c in ("scnr-sweep", "detection-sweep", "tradeoff", "optimize", "validate")]
    runs.append(["optimize", "--format", "json", "--config", str(path)])
    # scenario B, where a split's polynomial has more than one sign change
    scene_b = tmp_path / "scenario_b.json"
    scene_b.write_text(json.dumps(SCENARIO_B.to_dict()))
    runs.append(["optimize", "--config", str(scene_b)])
    pairs = set()

    def record(frame, event, arg):
        if event == "call":
            pairs.add((frame.f_back and frame.f_back.f_code, frame.f_code))

    sys.setprofile(record)
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            codes = [main([*run, "--out", str(tmp_path / str(i))]) for i, run in enumerate(runs)]
    finally:
        sys.setprofile(None)
    assert codes == [0] * len(runs)
    return pairs


def test_every_function_runs_in_some_command(calls):
    entered = {callee for _, callee in calls}
    names = {name: fn for module in MODULES for name, fn in defined_functions(module)}
    assert set(NOT_ON_A_COMMAND_PATH) <= set(names)
    never = sorted(name for name, fn in names.items() if fn.__code__ not in entered)
    assert never == sorted(NOT_ON_A_COMMAND_PATH)


def test_every_kernel_comes_from_the_scene(calls):
    # one place decomposes a scene's interference: a kernel built anywhere
    # else would be a second statement of the physics; code objects, not
    # qualified names, since co_qualname needs Python 3.11
    init = InterferenceKernel.__init__.__code__
    callers = {caller for caller, callee in calls if callee is init}
    assert callers == {SensingScene.unit_kernel.__code__}


def test_one_kernel_per_clutter_matrix_and_split(tmp_path):
    # the kernel is made at unit sigma, so every clutter level reads it at its
    # own scale: a sweep decomposes each (N, carrier) pair once for all its
    # levels, and a detection command its one context's split once for all
    # its cells; optimize and tradeoff decompose the split grid, and the
    # certificate's split, rho = 0.9, is a grid value bit for bit, so its
    # audits read the grid's entry
    sc = reduced_scenario(ScenarioConfig())
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(sc.to_dict()))
    pairs = len(sc.sweep.antennas) * len(sc.sweep.carriers_ghz)
    expected = {"scnr-sweep": pairs, "detection-sweep": 1, "validate": 1, "optimize": 1, "tradeoff": 1}
    init, kernels = InterferenceKernel.__init__.__code__, {}
    for command in expected:
        made = []
        sys.setprofile(lambda frame, event, arg: made.append(1) if event == "call" and frame.f_code is init else None)
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                assert main([command, "--config", str(path), "--out", str(tmp_path / command)]) == 0
        finally:
            sys.setprofile(None)
        kernels[command] = len(made)
    assert pairs == 4 and kernels == expected


def test_the_search_reads_the_split_forms_a_few_times(tmp_path):
    # the search reads each split's crossing off its detection polynomial and
    # calls the split forms once, on the power it settles and the one a
    # tolerance below; a tradeoff's rows and search share one build of them.
    # Its evaluations: every split at the ceiling and at those two powers, and
    # one audit
    sc = ScenarioConfig()
    ctx, path = build_context(sc), tmp_path / "scenario.json"
    path.write_text(json.dumps(sc.to_dict()))
    call, init = _SplitForms.__call__.__code__, _SplitForms.__init__.__code__
    made = []
    sys.setprofile(lambda frame, event, arg: made.append(frame.f_code) if event == "call" else None)
    try:
        result = minimize_power(ctx)
        searched, made[:] = made.count(call), []
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["tradeoff", "--config", str(path), "--out", str(tmp_path / "tradeoff")]) == 0
    finally:
        sys.setprofile(None)
    assert result.evaluations == 3 * sc.optimizer.rho_points + 1 and searched == 1
    assert made.count(init) == 1


def test_the_link_sinrs_are_stated_once(calls):
    # the record and the split search read one closed form of the SINRs, so
    # the optimizer's rate test is the record's bit for bit
    init = LinkSinrs.__init__.__code__
    callers = {caller for caller, callee in calls if callee is init}
    assert callers == {SimulationContext.operating_point.__code__, _SplitForms.__init__.__code__}


def test_each_float_is_formatted_once(calls):
    # the table builder rounds every float of a block, shared or a column, to
    # its texts in one call of the column formatter, and keeps the texts for
    # the CSV, so no writer formats a value a second time; float_text serves
    # the certificate's grid (and _cell, a None among floats, which no command
    # emits)
    column, one = _float_texts.__code__, float_text.__code__
    assert {caller for caller, callee in calls if callee is column} == {_columns.__code__, one}
    assert {caller for caller, callee in calls if callee is one} == {canonical_float.__code__}


def test_a_detection_cell_is_emitted_without_dragon4(tmp_path):
    # at the default scenario, where hundreds of probabilities print below
    # 1e-4, no emitted float takes NumPy's Dragon4, and each Monte Carlo cell
    # makes one interval call for both of its rates
    sc, path = ScenarioConfig(), tmp_path / "scenario.json"
    path.write_text(json.dumps(sc.to_dict()))
    dragon4, interval = np.format_float_positional.__code__, binomial_ci.__code__
    made = []
    sys.setprofile(lambda frame, event, arg: made.append(frame.f_code) if event == "call" else None)
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            for command in ("detection-sweep", "validate"):
                assert main([command, "--config", str(path), "--out", str(tmp_path / command)]) == 0
    finally:
        sys.setprofile(None)
    cells = len(sc.detection.powers_dbm) * len(sc.detection.clutter_levels)
    assert made.count(dragon4) == 0 and made.count(interval) == 2 * cells


def test_every_exported_name_resolves():
    for module in [jrcsim, *MODULES]:
        missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
        assert not missing, (module.__name__, missing)


NO_SCIPY_PROBE = """
import contextlib, io, json, sys
import jrcsim.cli
scipy_modules = lambda: sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
on_import = scipy_modules()
with contextlib.redirect_stdout(io.StringIO()):
    code = jrcsim.cli.main(["optimize", "--config", sys.argv[1], "--out", sys.argv[2]])
print(json.dumps([on_import, code, scipy_modules()]))
"""


IMPORT_PROBE = """
import json, sys
loaded = lambda prefixes: sorted(m for m in sys.modules if m.split(".")[0] in prefixes)
import jrcsim
on_package = loaded(("jrcsim", "numpy"))
import jrcsim.stats
print(json.dumps([on_package, loaded(("jrcsim",))]))
"""


def fresh_probe(probe, *argv):
    """The JSON a probe prints, run in a fresh interpreter on this tree's src/."""
    src = os.path.dirname(os.path.dirname(jrcsim.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run([sys.executable, "-c", probe, *argv], env=env, capture_output=True, text=True, check=True)
    return json.loads(done.stdout)


def test_no_scipy_module_is_loaded(tmp_path):
    # SciPy is a test dependency only: neither the import of the CLI nor a
    # full optimize run may load it, so the probe runs in a fresh interpreter
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(reduced_scenario(ScenarioConfig()).to_dict()))
    assert fresh_probe(NO_SCIPY_PROBE, str(path), str(tmp_path / "out")) == [[], 0, []]


def test_a_module_import_loads_only_what_it_imports():
    # the package re-exports nothing, so importing it loads no submodule and
    # no NumPy, and importing one module loads only that module's own imports
    assert fresh_probe(IMPORT_PROBE) == [["jrcsim"], ["jrcsim", "jrcsim.stats"]]
