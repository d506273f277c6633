"""Deterministic simulation context built from a scenario configuration.

All randomness is keyed off the scenario seed through independent counter-based
streams, so two contexts built from the same configuration are identical and
sweep cells never share or reorder draws. The context freezes one unit-power
symbol vector; beamformers at a given (power, split) reuse it, which keeps the
transmit waveform fixed across Monte Carlo trials and operating points. The
radar scene is the clutter steering matrix B and its amplitude scales sigma_l,
built once per context from the clutter placements; a clutter level is the
same matrix with another scale. SimulationContext.operating_point turns a
(power, split), or a power and a whole split grid, into the one record every
reader takes: beams, waveform, receive beamformer, detector moments and link
SINRs. Beams are one array: row 0 the data beam, row 1 the radar beam.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .array_geometry import ArrayConfig, PolarPosition, steering_matrix, steering_vector
from .comm_link import af_gain, sinr_direct, sinr_relayed
from .propagation import (
    make_clutter_scene,
    synthesize_comm_channel,
    synthesize_scalar_channel,
    separation,
    target_reflectivity,
)
from .detection import statistic_moments
from .radar_sensing import (
    ClutterSteering,
    InterferenceKernel,
    draw_symbols,
    waveform_from_symbols,
)
from .scenario import ScenarioConfig
from .stats import derive_stream

__all__ = ["OperatingPoint", "SimulationContext", "build_context", "stream_id"]

# stream kinds; the index payload distinguishes sweep cells and realizations
KIND_TARGET_PHASE = 1
KIND_SCENE = 2
KIND_CHANNEL = 3
KIND_SYMBOLS = 4
KIND_DETECTION = 5
KIND_VALIDATE = 6

_INDEX_BITS = 48


def stream_id(kind: int, index: int = 0) -> int:
    """Pack a stream kind and an index into one substream identifier."""
    if not 0 <= index < (1 << _INDEX_BITS):
        raise ValueError(f"stream index out of range: {index}")
    return (kind << _INDEX_BITS) | index


@dataclass(frozen=True)
class OperatingPoint:
    """Everything one transmit configuration (power P, split rho) gives: the
    beams, the frozen waveform x, the SCNR-optimal receive beamformer
    w = W^-1 A x, the detector moments mu_1 and sigma^2, and both link SINRs.
    A 1-D array of splits gives every field a leading split axis, each row
    bit for bit the point of that split alone."""

    beams: np.ndarray
    x: np.ndarray
    w: np.ndarray
    mu1: complex | np.ndarray
    sigma2: float | np.ndarray
    gamma_direct: float | np.ndarray
    gamma_relayed: float | np.ndarray

    @property
    def mu1_abs(self):
        return np.hypot(self.mu1.real, self.mu1.imag)

    @property
    def deflection(self):
        """sqrt(2)|mu_1|/sigma; the detector is defined only where |mu_1| > 0."""
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.sqrt(2.0) * self.mu1_abs / np.sqrt(self.sigma2)


@dataclass(frozen=True)
class SimulationContext:
    """Frozen inputs for one operating scene: geometry, channels, waveform."""

    scenario: ScenarioConfig
    array: ArrayConfig
    alpha0: complex
    target_steering: np.ndarray
    clutter: ClutterSteering
    h_sd: np.ndarray
    h_sr: np.ndarray
    h_rd: complex
    comm_direction: np.ndarray
    radar_direction: np.ndarray
    symbols: np.ndarray

    def beams_at(self, power_watts: float, rho) -> np.ndarray:
        """Split a power budget between the matched data and radar directions: rows
        (data beam, radar beam) of a (2, N) array, or (..., 2, N) for an array of splits."""
        if not 0.0 <= power_watts < np.inf:
            raise ValueError(f"power must lie in [0, inf), got {power_watts}")
        if not np.all((0.0 <= rho) & (rho <= 1.0)):
            raise ValueError(f"power split must lie in [0, 1], got {rho}")
        u = np.sqrt((1.0 - rho) * power_watts)[..., None] * self.comm_direction
        v = np.sqrt(rho * power_watts)[..., None] * self.radar_direction
        return np.stack((u, v), axis=-2)

    def operating_point(self, power_watts: float, rho) -> OperatingPoint:
        """The record of power_watts at split rho, a float or a 1-D array of splits."""
        beams = self.beams_at(power_watts, rho)
        x = waveform_from_symbols(beams, self.symbols)
        a = self.target_steering
        kernel = InterferenceKernel(self.clutter, self.clutter.gains(beams))
        w = kernel.solve(a * np.vecdot(a.conj(), x)[..., None])
        mu1, sigma2 = statistic_moments(w, self.alpha0, a, self.clutter, x)
        comm = self.scenario.comm
        gain = af_gain(self.h_sr, beams, comm)
        gamma_relayed = sinr_relayed(self.h_sr, self.h_rd, gain, beams, comm)
        return OperatingPoint(beams, x, w, mu1, sigma2, sinr_direct(self.h_sd, beams, comm), gamma_relayed)


def build_context(
    scenario: ScenarioConfig,
    *,
    n_antennas: int | None = None,
    carrier_ghz: float | None = None,
    scene_key: int = 0,
) -> SimulationContext:
    """Realize one scene; overrides select a sweep cell, scene_key a realization."""
    n = scenario.array.n_antennas if n_antennas is None else n_antennas
    f_ghz = scenario.array.carrier_ghz if carrier_ghz is None else carrier_ghz

    array = ArrayConfig(
        n_antennas=n,
        carrier_freq=f_ghz * 1.0e9,
        spacing=scenario.array.spacing_m,
    )
    target = PolarPosition(scenario.target.range_m, scenario.target.angle_rad)

    alpha0 = target_reflectivity(
        scenario.path_loss,
        array.carrier_freq,
        target.range_m,
        rcs_scale=scenario.target.rcs_scale,
        phase=scenario.target.phase,
        rng=derive_stream(scenario.seed, stream_id(KIND_TARGET_PHASE, scene_key)),
    )
    a_target = steering_vector(array, target)

    placements = ()
    if scenario.clutter.count > 0:
        placements = make_clutter_scene(
            derive_stream(scenario.seed, stream_id(KIND_SCENE, scene_key)),
            count=scenario.clutter.count,
            max_range=scenario.clutter.max_range_m,
            angle_exclusion=scenario.clutter.angle_exclusion_rad,
            target_angle=target.angle_rad,
            min_range=scenario.clutter.min_range_m,
        )
    clutter = ClutterSteering.at_sigma(steering_matrix(array, placements), scenario.clutter.sigma)

    comm = scenario.comm
    channel_rng = derive_stream(scenario.seed, stream_id(KIND_CHANNEL, scene_key))
    destination = PolarPosition(comm.destination_range_m, comm.destination_angle_rad)
    relay = PolarPosition(comm.relay_range_m, comm.relay_angle_rad)
    h_sd = synthesize_comm_channel(array, scenario.path_loss, destination, comm.fading, channel_rng)
    h_sr = synthesize_comm_channel(array, scenario.path_loss, relay, comm.fading, channel_rng)
    h_rd = synthesize_scalar_channel(
        array, scenario.path_loss, separation(relay, destination), comm.fading, channel_rng
    )

    comm_direction = np.conj(h_sd) / np.linalg.norm(h_sd)
    radar_direction = np.conj(a_target) / np.linalg.norm(a_target)
    symbols = draw_symbols(2, derive_stream(scenario.seed, stream_id(KIND_SYMBOLS, scene_key)))

    return SimulationContext(
        scenario=scenario,
        array=array,
        alpha0=alpha0,
        target_steering=a_target,
        clutter=clutter,
        h_sd=h_sd,
        h_sr=h_sr,
        h_rd=h_rd,
        comm_direction=comm_direction,
        radar_direction=radar_direction,
        symbols=symbols,
    )

