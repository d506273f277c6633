"""Outside-in tracer: wraps jrcsim's public functions from the benchmark side.

Each traced function is replaced where it is defined and under every name a
jrcsim module bound to it with ``from ... import``, so a call is recorded
whichever module makes it. A span holds its layer, its parent span and its
start and end; a layer's self time is its spans' durations minus the time
their child spans cover; its total time counts each outermost span of the
layer once, children included. Spans stay in memory until the run writes them, and
``uninstall`` puts every original function back.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import sys
import time
from collections import defaultdict

# (layer, module, attribute); an attribute "Class.method" patches the class.
# Several functions may share one layer, whose numbers are then summed.
TARGETS = (
    ("array_geometry.steering_vector", "array_geometry", "steering_vector"),
    ("context.build_context", "context", "build_context"),
    ("context.beams_at", "context", "SimulationContext.beams_at"),
    *(
        ("propagation", "propagation", name)
        for name in (
            "path_loss_db", "amplitude_gain", "separation", "synthesize_comm_channel",
            "synthesize_scalar_channel", "target_reflectivity", "make_clutter_scene",
        )
    ),
    ("radar_sensing.clutter_covariance", "radar_sensing", "clutter_covariance"),
    ("radar_sensing.solve", "radar_sensing", "optimal_receive_beamformer"),
    ("radar_sensing.solve", "radar_sensing", "scnr_at_optimum"),
    ("radar_sensing.average_scnr", "radar_sensing", "average_scnr"),
    *(
        ("comm_link", "comm_link", name)
        for name in ("af_gain", "sinr_direct", "sinr_relayed", "mrc_rate", "rate_threshold")
    ),
    ("detection.statistic_params", "detection", "statistic_params"),
    ("detection.sample_test_statistics", "detection", "sample_test_statistics"),
    ("detection.roc_sweep", "detection", "roc_sweep"),
    ("stats.binomial_ci", "stats", "binomial_ci"),
    ("stats.derive_stream", "stats", "derive_stream"),
    ("power_allocation.minimize_power", "power_allocation", "minimize_power"),
    ("power_allocation.tradeoff_sweep", "power_allocation", "tradeoff_sweep"),
    ("power_allocation.evaluate_point", "power_allocation", "evaluate_point"),
    *(
        (f"experiments.{name}", "experiments", name)
        for name in (
            "run_scnr_sweep", "run_detection_sweep", "run_tradeoff", "run_optimize",
            "run_validation", "emit_outputs",
        )
    ),
    *(
        ("scenario", "scenario", name)
        for name in ("load_scenario", "scenario_from_dict", "config_hash")
    ),
)


def _argument(fn, name: str, position: int, args: tuple, kwargs: dict):
    if name in kwargs:
        return kwargs[name]
    if len(args) > position:
        return args[position]
    return inspect.signature(fn).parameters[name].default


class Tracer:
    """Span recorder for one traced pass; install, run, then uninstall."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, int, float, float]] = []
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.total_s: dict[str, float] = defaultdict(float)
        self.counters: dict[str, float] = defaultdict(float)
        self.steering_keys: set = set()
        self._stack: list[int] = []
        self._child_s: list[float] = []
        self._layer: list[str] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, layer: str, fn, after=None):
        spans, stack, child_s, layers = self.spans, self._stack, self._child_s, self._layer
        calls, self_s, total_s = self.calls, self.self_s, self.total_s

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            child_s.append(0.0)
            layers.append(layer)
            stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index] = (layer, parent, start, end)
                duration = end - start
                if parent >= 0:
                    child_s[parent] += duration
                if parent < 0 or layers[parent] != layer:
                    total_s[layer] += duration
                calls[layer] += 1
                self_s[layer] += duration - child_s[index]
            if after is not None:
                after(fn, args, kwargs, result)
            return result

        return traced

    # counters read from arguments and results, outside the spans

    def _after_steering(self, fn, args, kwargs, result) -> None:
        self.steering_keys.add((
            _argument(fn, "cfg", 0, args, kwargs),
            _argument(fn, "pos", 1, args, kwargs),
        ))

    def _after_sampling(self, fn, args, kwargs, result) -> None:
        # one H0 and one H1 draw per trial
        self.counters["detection.mc_trials"] += 2 * _argument(fn, "trials", 4, args, kwargs)

    def _after_minimize(self, fn, args, kwargs, result) -> None:
        self.counters["power_allocation.evaluations"] += result.evaluations

    def _after_emit(self, fn, args, kwargs, result) -> None:
        self.counters["experiments.bytes_written"] += sum(
            os.path.getsize(path) for path in result.values()
        )

    def install(self) -> None:
        after = {
            "steering_vector": self._after_steering,
            "sample_test_statistics": self._after_sampling,
            "minimize_power": self._after_minimize,
            "emit_outputs": self._after_emit,
        }
        modules = [
            m for name, m in list(sys.modules.items())
            if m is not None and (name == "jrcsim" or name.startswith("jrcsim."))
        ]
        for layer, module_name, attribute in TARGETS:
            owner = importlib.import_module(f"jrcsim.{module_name}")
            *class_path, name = attribute.split(".")
            for part in class_path:
                owner = getattr(owner, part, None)
            original = None if owner is None else owner.__dict__.get(name)
            if original is None:
                continue  # renamed or removed: its layer reads zero
            wrapper = self._wrap(layer, original, after.get(name))
            if class_path:
                self._patch(owner, name, original, wrapper)
                continue
            for module in modules:
                for bound, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, bound, original, wrapper)

    def _patch(self, owner, name: str, original, wrapper) -> None:
        setattr(owner, name, wrapper)
        self._patches.append((owner, name, original))

    def uninstall(self) -> None:
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer calls, self time and counters of this pass, by metric name."""
        out: dict[str, float] = {}
        for layer in dict.fromkeys(layer for layer, _, _ in TARGETS):
            out[f"{layer}.calls"] = self.calls.get(layer, 0)
            out[f"{layer}.self_s"] = self.self_s.get(layer, 0.0)
            out[f"{layer}.total_s"] = self.total_s.get(layer, 0.0)
        out.update(self.counters)
        steering_calls = self.calls.get("array_geometry.steering_vector", 0)
        out["array_geometry.steering_vector.distinct_ratio"] = (
            len(self.steering_keys) / steering_calls if steering_calls else 0.0
        )
        optima = self.calls.get("power_allocation.minimize_power", 0)
        out["power_allocation.evaluations_per_optimum"] = (
            self.counters.get("power_allocation.evaluations", 0) / optima if optima else 0.0
        )
        return out

    def write_spans(self, fh, pass_index: int) -> None:
        for layer, parent, start, end in self.spans:
            fh.write(f"{pass_index},{layer},{parent},{start:.9f},{end:.9f}\n")
