"""Near-field joint radar and communication link simulator.

Models a base station that serves a cooperative relay link while sensing a
near-field target through clutter: exact-wavefront steering, cooperative
relay rates, clutter-aware receive beamforming and SCNR, closed-form and
Monte Carlo detection performance, and transmit power minimization under
rate, false-alarm, and detection constraints.
"""

__version__ = "0.1.0"
