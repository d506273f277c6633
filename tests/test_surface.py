"""The package surface: every function in src/jrcsim runs in some CLI command,
every interference kernel comes from the scene, the link SINRs have exactly
two readers, each emitted float is formatted once, and the package runs on
NumPy and the standard library alone.

All five commands run on the reduced scenario (and one of them in JSON form)
under sys.setprofile, which records the code object of every Python frame
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

import pytest

import jrcsim
from conftest import reduced_scenario
from jrcsim.cli import main
from jrcsim.comm_link import LinkSinrs
from jrcsim.context import SensingScene, SimulationContext
from jrcsim.experiments import _cell
from jrcsim.power_allocation import _SplitForms
from jrcsim.radar_sensing import InterferenceKernel
from jrcsim.scenario import ScenarioConfig
from jrcsim.stats import canonical_float, float_text

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
    runs = [[c] for c in ("scnr-sweep", "detection-sweep", "tradeoff", "optimize", "validate")]
    runs.append(["optimize", "--format", "json"])
    pairs = set()

    def record(frame, event, arg):
        if event == "call":
            pairs.add((frame.f_back and frame.f_back.f_code, frame.f_code))

    sys.setprofile(record)
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            codes = [main([*run, "--config", str(path), "--out", str(tmp_path / str(i))]) for i, run in enumerate(runs)]
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


def test_the_link_sinrs_are_stated_once(calls):
    # the record and the split search read one closed form of the SINRs, so
    # the optimizer's rate test is the record's bit for bit
    init = LinkSinrs.__init__.__code__
    callers = {caller for caller, callee in calls if callee is init}
    assert callers == {SimulationContext.operating_point.__code__, _SplitForms.__init__.__code__}


def test_each_float_is_formatted_once(calls):
    # the table builder rounds a float to its text once and keeps that text
    # for the CSV, so no writer formats a value a second time
    code = float_text.__code__
    callers = {caller for caller, callee in calls if callee is code}
    assert callers == {_cell.__code__, canonical_float.__code__}


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


def test_no_scipy_module_is_loaded(tmp_path):
    # SciPy is a test dependency only: neither the import of the CLI nor a
    # full optimize run may load it, so the probe runs in a fresh interpreter
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(reduced_scenario(ScenarioConfig()).to_dict()))
    src = os.path.dirname(os.path.dirname(jrcsim.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    probe = [sys.executable, "-c", NO_SCIPY_PROBE, str(path), str(tmp_path / "out")]
    done = subprocess.run(probe, env=env, capture_output=True, text=True, check=True)
    assert json.loads(done.stdout) == [[], 0, []]
