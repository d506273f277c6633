"""Deterministic simulation context built from a scenario configuration.

All randomness is keyed off the scenario seed through independent counter-based
streams, so two contexts built from the same configuration are identical and
sweep cells never share or reorder draws. The context freezes one unit-power
symbol vector; beamformers at a given (power, split) reuse it, which keeps the
transmit waveform fixed across Monte Carlo trials and operating points. The
clutter steering matrix is computed once per context; every sensing quantity
at an operating point reads it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .array_geometry import ArrayConfig, PolarPosition, steering_vector
from .comm_link import BeamformerSet
from .propagation import (
    Fading,
    PathLossKind,
    PathLossModel,
    Scene,
    ChannelSet,
    make_clutter_scene,
    synthesize_comm_channel,
    synthesize_scalar_channel,
    separation,
    target_reflectivity,
    TargetPhase,
)
from .detection import DetectionStatisticParams, statistic_params
from .radar_sensing import (
    ClutterSteering,
    InterferenceKernel,
    draw_symbols,
    waveform_from_symbols,
)
from .scenario import CLUTTER_LEVELS, ScenarioConfig
from .stats import derive_stream

__all__ = ["SensingPoint", "SimulationContext", "build_context", "stream_id"]

# stream kinds; the index payload distinguishes sweep cells and realizations
KIND_TARGET_PHASE = 1
KIND_SCENE = 2
KIND_CHANNEL = 3
KIND_SYMBOLS = 4
KIND_DETECTION = 5
KIND_VALIDATE = 6
KIND_SNAPSHOT = 7

_INDEX_BITS = 48

_PATH_LOSS_KINDS = {
    "free_space": PathLossKind.FREE_SPACE,
    "tr38901_umi_los": PathLossKind.TR38901_UMI_LOS,
}
_FADINGS = {"los": Fading.LOS, "rayleigh": Fading.RAYLEIGH}
_PHASES = {"zero": TargetPhase.ZERO, "uniform": TargetPhase.UNIFORM}


def stream_id(kind: int, index: int = 0) -> int:
    """Pack a stream kind and an index into one substream identifier."""
    if not 0 <= index < (1 << _INDEX_BITS):
        raise ValueError(f"stream index out of range: {index}")
    return (kind << _INDEX_BITS) | index


@dataclass(frozen=True)
class SensingPoint:
    """Radar side of one (power, split): beams, frozen waveform x, the
    SCNR-optimal receive beamformer w = W^-1 A x and the detector moments."""

    beams: BeamformerSet
    x: np.ndarray
    w: np.ndarray
    params: DetectionStatisticParams

    @property
    def mu1_abs(self) -> float:
        return abs(self.params.mu1)

    @property
    def sigma2(self) -> float:
        return self.params.sigma2


@dataclass(frozen=True)
class SimulationContext:
    """Frozen inputs for one operating scene: geometry, channels, waveform."""

    scenario: ScenarioConfig
    array: ArrayConfig
    path_loss: PathLossModel
    target: PolarPosition
    alpha0: complex
    target_steering: np.ndarray
    target_response: np.ndarray
    scene: Scene
    clutter: ClutterSteering
    channels: ChannelSet
    comm_direction: np.ndarray
    radar_direction: np.ndarray
    symbols: np.ndarray
    relay_budget: float

    @property
    def n_antennas(self) -> int:
        return self.array.n_antennas

    def beams_at(self, power_watts: float, rho: float) -> BeamformerSet:
        """Split a power budget between the matched data and radar directions."""
        if power_watts < 0.0:
            raise ValueError(f"power must be nonnegative, got {power_watts}")
        if not 0.0 <= rho <= 1.0:
            raise ValueError(f"power split must lie in [0, 1], got {rho}")
        u = np.sqrt((1.0 - rho) * power_watts) * self.comm_direction
        v = np.sqrt(rho * power_watts) * self.radar_direction
        return BeamformerSet(comm_beams=(u,), radar_beam=v)

    def unit_beams(self, rho: float) -> np.ndarray:
        """(2, N) data and radar beams at unit total power; power P scales both by sqrt(P)."""
        if not 0.0 <= rho <= 1.0:
            raise ValueError(f"power split must lie in [0, 1], got {rho}")
        return np.vstack((np.sqrt(1.0 - rho) * self.comm_direction, np.sqrt(rho) * self.radar_direction))

    def waveform_at(self, beams: BeamformerSet) -> np.ndarray:
        return waveform_from_symbols(beams, self.symbols)

    def sensing_at(self, power_watts: float, rho: float) -> SensingPoint:
        """Optimal receive beamformer and detector moments at one operating point."""
        beams = self.beams_at(power_watts, rho)
        x = self.waveform_at(beams)
        a = self.target_steering
        kernel = InterferenceKernel(self.clutter, self.clutter.gains(beams.stacked))
        w = kernel.solve(a * np.dot(a, x))
        params = statistic_params(w, self.alpha0, a, self.clutter, x, eta=1.0)
        return SensingPoint(beams, x, w, params)


def build_context(
    scenario: ScenarioConfig,
    *,
    n_antennas: int | None = None,
    carrier_ghz: float | None = None,
    sigma: float | None = None,
    clutter_count: int | None = None,
    scene_key: int = 0,
) -> SimulationContext:
    """Realize one scene; overrides select a sweep cell, scene_key a realization."""
    n = scenario.array.n_antennas if n_antennas is None else n_antennas
    f_ghz = scenario.array.carrier_ghz if carrier_ghz is None else carrier_ghz
    sigma_c = scenario.clutter.sigma if sigma is None else sigma
    count = scenario.clutter.count if clutter_count is None else clutter_count

    array = ArrayConfig(
        n_antennas=n,
        carrier_freq=f_ghz * 1.0e9,
        spacing=scenario.array.spacing_m,
    )
    path_loss = PathLossModel(
        kind=_PATH_LOSS_KINDS[scenario.path_loss.kind],
        h_bs_m=scenario.path_loss.h_bs_m,
        h_ut_m=scenario.path_loss.h_ut_m,
    )
    target = PolarPosition(scenario.target.range_m, scenario.target.angle_rad)

    alpha0 = target_reflectivity(
        path_loss,
        array.carrier_freq,
        target.range_m,
        rcs_scale=scenario.target.rcs_scale,
        phase=_PHASES[scenario.target.phase],
        rng=derive_stream(scenario.seed, stream_id(KIND_TARGET_PHASE, scene_key)),
    )
    a_target = steering_vector(array, target)

    if count > 0:
        clutter = make_clutter_scene(
            derive_stream(scenario.seed, stream_id(KIND_SCENE, scene_key)),
            count=count,
            max_range=scenario.clutter.max_range_m,
            sigma_c=sigma_c,
            angle_exclusion=scenario.clutter.angle_exclusion_rad,
            target_angle=target.angle_rad,
            min_range=scenario.clutter.min_range_m,
        )
    else:
        clutter = ()
    scene = Scene(target=target, alpha0=alpha0, clutter=clutter)

    fading = _FADINGS[scenario.comm.fading]
    channel_rng = derive_stream(scenario.seed, stream_id(KIND_CHANNEL, scene_key))
    destination = PolarPosition(
        scenario.comm.destination_range_m, scenario.comm.destination_angle_rad
    )
    relay = PolarPosition(scenario.comm.relay_range_m, scenario.comm.relay_angle_rad)
    h_sd = synthesize_comm_channel(array, path_loss, destination, fading=fading, rng=channel_rng)
    h_sr = synthesize_comm_channel(array, path_loss, relay, fading=fading, rng=channel_rng)
    h_rd = synthesize_scalar_channel(
        array, path_loss, separation(relay, destination), fading=fading, rng=channel_rng
    )
    channels = ChannelSet(
        h_sd=h_sd,
        h_sr=h_sr,
        h_rd=h_rd,
        noise_var_dest=scenario.comm.noise_var_dest_w,
        noise_var_relay=scenario.comm.noise_var_relay_w,
    )

    comm_direction = np.conj(h_sd) / np.linalg.norm(h_sd)
    radar_direction = np.conj(a_target) / np.linalg.norm(a_target)
    symbols = draw_symbols(2, derive_stream(scenario.seed, stream_id(KIND_SYMBOLS, scene_key)))

    return SimulationContext(
        scenario=scenario,
        array=array,
        path_loss=path_loss,
        target=target,
        alpha0=alpha0,
        target_steering=a_target,
        target_response=np.outer(a_target, a_target),
        scene=scene,
        clutter=ClutterSteering.of(array, scene),
        channels=channels,
        comm_direction=comm_direction,
        radar_direction=radar_direction,
        symbols=symbols,
        relay_budget=scenario.comm.relay_power_w,
    )


def sigma_for_level(level: str) -> float:
    """Clutter amplitude scale for a named intensity level."""
    try:
        return CLUTTER_LEVELS[level]
    except KeyError:
        raise ValueError(f"unknown clutter level {level!r}") from None
