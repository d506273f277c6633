"""Near-field joint radar and communication link simulator.

Models a base station that serves a cooperative relay link while sensing a
near-field target through clutter: exact-wavefront steering, cooperative
relay rates, clutter-aware receive beamforming and SCNR, closed-form and
Monte Carlo detection performance, and transmit power minimization under
rate, false-alarm, and detection constraints.
"""

__version__ = "0.1.0"

from .context import build_context
from .experiments import (
    emit_outputs,
    run_detection_sweep,
    run_optimize,
    run_scnr_sweep,
    run_tradeoff,
    run_validation,
)
from .power_allocation import evaluate_point, minimize_power, tradeoff_sweep
from .scenario import ScenarioConfig, load_scenario

__all__ = [
    "__version__",
    "ScenarioConfig",
    "load_scenario",
    "build_context",
    "evaluate_point",
    "minimize_power",
    "tradeoff_sweep",
    "run_scnr_sweep",
    "run_detection_sweep",
    "run_tradeoff",
    "run_optimize",
    "run_validation",
    "emit_outputs",
]
