"""Deterministic scenes and simulation contexts built from a scenario configuration.

All randomness is keyed off the scenario seed through independent counter-based
streams, one per (kind, realization), so a rebuilt scene is identical and sweep
cells never share or reorder draws. The array is the scenario's array section;
a sweep cell is the scenario with another section swapped in by
dataclasses.replace. build_scene draws the radar side of R realizations as
one stacked SensingScene, keying their phase and clutter streams in one pass
per kind on one re-keyed Philox (stats.Streams): reflectivity, the clutter
steering matrix B with its amplitude scale sigma, and the matched data and
radar beam directions. A SimulationContext is one realization of it plus the relay
channels and one frozen unit-power symbol vector, which keeps the transmit
waveform fixed across Monte Carlo trials and operating points.
SimulationContext.operating_point turns a power and a split, or an array of
splits, into the one record every reader takes: beams (row 0 data, row 1 radar),
waveform, receive beamformer, detector moments and link SINRs, the last from
comm_link.LinkSinrs, the closed form in P that the optimizer's split search
reads too. Clutter power and power enter W as one scale, W(s) = I + s M(rho)
with s = sigma^2 P, so a scene decomposes each split, or split grid, once at
unit sigma and power (unit_kernel). That kernel serves every clutter level
and power, the SCNR curves (average_scnr_curve) included; a clutter level is
the scene at another sigma (at_sigma), which shares it.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .array_geometry import separation, steering_matrix, steering_vector
from .comm_link import LinkSinrs
from .propagation import make_clutter_scene, synthesize_comm_channel, synthesize_scalar_channel, target_reflectivity
from .detection import statistic_moments
from .radar_sensing import (
    ClutterSteering,
    InterferenceKernel,
    draw_symbols,
    waveform_from_symbols,
)
from .scenario import ScenarioConfig
from .stats import Streams, derive_stream

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
    w = W^-1 A x, the detector moments mu_1 and sigma^2, and both link SINRs,
    comm_link.LinkSinrs of the split at P; |mu_1| and the deflection
    sqrt(2)|mu_1|/sigma (defined only where |mu_1| > 0) follow from the
    moments, once per record.
    A 1-D array of splits gives every field a leading split axis; each entry
    is bit for bit the point of that split alone."""

    beams: np.ndarray
    x: np.ndarray
    w: np.ndarray
    mu1: complex | np.ndarray
    sigma2: float | np.ndarray
    gamma_direct: float | np.ndarray
    gamma_relayed: float | np.ndarray
    mu1_abs: float | np.ndarray = field(init=False)
    deflection: float | np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "mu1_abs", np.hypot(self.mu1.real, self.mu1.imag))
        with np.errstate(divide="ignore", invalid="ignore"):
            object.__setattr__(self, "deflection", np.sqrt(2.0) * self.mu1_abs / np.sqrt(self.sigma2))


@dataclass(frozen=True)
class SensingScene:
    """The radar side of R realizations of a scene on the scenario's array,
    stacked on a leading axis: reflectivities alpha_0 (R,), clutter steering
    (R, N, L) at the scenario's sigma, direct channels h_sd (R, N) and the
    matched data and radar beam directions (R, N); all share the target
    steering a (N,). A SimulationContext is one realization, without the
    leading axis."""

    alpha0: complex | np.ndarray
    target_steering: np.ndarray
    clutter: ClutterSteering
    h_sd: np.ndarray
    comm_direction: np.ndarray
    radar_direction: np.ndarray
    _kernels: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def beams_at(self, power_watts: float, rho) -> np.ndarray:
        """Split a power budget between the matched data and radar directions: rows
        (data beam, radar beam) of a (2, N) array, or (..., 2, N) for an array of
        splits or for stacked realizations."""
        if not 0.0 <= power_watts < np.inf:
            raise ValueError(f"power must lie in [0, inf), got {power_watts}")
        if not np.all((0.0 <= rho) & (rho <= 1.0)):
            raise ValueError(f"power split must lie in [0, 1], got {rho}")
        u = np.sqrt((1.0 - rho) * power_watts)[..., None] * self.comm_direction
        v = np.sqrt(rho * power_watts)[..., None] * self.radar_direction
        return np.stack((u, v), axis=-2)

    def at_sigma(self, sigma: float):
        """This scene at clutter amplitude scale sigma, sharing its unit-sigma kernels."""
        scene = replace(self, clutter=ClutterSteering(self.clutter.matrix, sigma))
        object.__setattr__(scene, "_kernels", self._kernels)
        return scene

    def unit_kernel(self, rho) -> InterferenceKernel:
        """The interference kernel of split rho (a float or a 1-D array) at unit sigma
        and power: one decomposition that gives W(s) at every scale s = sigma^2 P,
        made on the scene's first call for that split and returned by every later one;
        a split of a grid decomposed before takes the grid's entry, bit for bit its own."""
        key = np.shape(rho), np.asarray(rho, dtype=float).tobytes()
        if key not in self._kernels:
            self._kernels[key] = self._grid_entry(key) or InterferenceKernel(
                self.clutter, self.clutter.gains(self.beams_at(1.0, rho))
            )
        return self._kernels[key]

    def _grid_entry(self, key) -> InterferenceKernel | None:
        """The entry, bit for bit the single split of key, of one realization's
        split grid decomposed before, if there is one."""
        if key[0] == ():
            bits = np.frombuffer(key[1], dtype=np.uint64)
            for (shape, grid), kernel in self._kernels.items():
                hit = np.flatnonzero(np.frombuffer(grid, dtype=np.uint64) == bits)
                if len(shape) == 1 and kernel._lam.ndim == 2 and hit.size:
                    return kernel[hit[0]]
        return None

    def average_scnr_curve(self, rho, powers, sigmas=None) -> np.ndarray:
        """Symbol-averaged optimal SCNR at split rho for each total power P of a
        1-D sequence: |alpha_0|^2 (a^H W(s)^-1 a) P sum_k |a^T b_k|^2 over the
        unit-power beams b_k, at s = sigma^2 P on unit_kernel(rho). A stacked
        scene gives (R, P) curves, each row bit for bit that realization's alone. A
        sequence of sigmas gives (..., len(sigmas), P) in one call, each as at_sigma's."""
        sigma = np.reshape(self.clutter.sigma if sigmas is None else sigmas, (-1, 1))
        powers, a = np.asarray(powers, dtype=float), self.target_steering
        scales = sigma * sigma * powers
        # abs(alpha_0) ** 2 rounded as the scalar is, hypot then pow, for one or a stack
        reflectivity = np.float_power(np.hypot(np.real(self.alpha0), np.imag(self.alpha0)), 2)[..., None, None]
        loading = np.sum(np.abs((self.beams_at(1.0, rho) @ a[:, None])[..., 0]) ** 2, axis=-1)[..., None, None]
        quadratic = self.unit_kernel(rho).quadratic(a, scales.ravel()).reshape(np.shape(self.alpha0) + scales.shape)
        curves = reflectivity * quadratic * powers * loading
        return curves if sigmas is not None else curves[..., 0, :]


@dataclass(frozen=True)
class SimulationContext(SensingScene):
    """Frozen inputs for one operating scene: its sensing scene, the relay
    channels h_sr and h_rd, and the symbols of the frozen waveform."""

    scenario: ScenarioConfig
    h_sr: np.ndarray
    h_rd: complex
    symbols: np.ndarray
    # the optimizer's split forms over the scenario's split grid, made on first use
    _split_forms: object = field(default=None, init=False, repr=False, compare=False)

    def operating_point(self, power_watts: float, rho) -> OperatingPoint:
        """The record of power_watts at split rho, a float or a 1-D array of
        splits; power P reads unit_kernel(rho) at s = sigma^2 P."""
        beams = self.beams_at(power_watts, rho)
        x, a = waveform_from_symbols(beams, self.symbols), self.target_steering
        scale = self.clutter.sigma * self.clutter.sigma * power_watts  # as the split forms form s
        w = self.unit_kernel(rho).solve(a * np.vecdot(a.conj(), x)[..., None], scale)
        mu1, sigma2 = statistic_moments(w, self.alpha0, a, self.clutter, x)
        return OperatingPoint(beams, x, w, mu1, sigma2, *LinkSinrs(self, rho)(power_watts))


def build_scene(scenario: ScenarioConfig, *, scene_keys, streams: Streams | None = None) -> tuple[SensingScene, list]:
    """The sensing scenes of realizations scene_keys, stacked in that order, and
    each one's channel stream, left just past its h_sd draw (None under LoS,
    where every channel is deterministic). The phase and clutter streams are
    read on streams, re-keyed per stream; a caller that reads no stream of its
    own after the scene passes none, and the scene makes its own."""
    streams = Streams() if streams is None else streams
    target, comm, model, array, seed = scenario.target, scenario.comm, scenario.path_loss, scenario.array, scenario.seed
    count, keys = scenario.clutter.count, np.asarray(scene_keys)
    if not 0 <= keys.min() <= keys.max() < 1 << _INDEX_BITS:  # one check for every key, as stream_id checks one
        for key in scene_keys:  # keys of 2^63 or more beside smaller ones make keys float64, so name
            stream_id(KIND_SCENE, key)  # the first key out of range exactly, as stream_id refuses it

    # a realization keys only the streams it draws from, the phase and clutter ones
    # of all realizations in one pass per kind; given no draws the reflectivity has
    # zero phase and a channel is line of sight
    def ids(kind):
        return (kind << _INDEX_BITS) | keys

    phases = streams.first_doubles(seed, ids(KIND_TARGET_PHASE), 1)[:, 0] if target.phase == "uniform" else None
    draws = streams.first_doubles(seed, ids(KIND_SCENE), 2 * count) if count else np.empty((len(keys), 0))
    ranges, angles = make_clutter_scene(scenario, draws, ids(KIND_SCENE))
    rayleigh = comm.fading == "rayleigh"
    channels = [derive_stream(seed, i) for i in ids(KIND_CHANNEL)] if rayleigh else [None] * len(keys)
    # h_sd is a channel stream's first draw; under LoS one deterministic h_sd serves all
    h_sd = np.array([
        synthesize_comm_channel(array, model, comm.destination_range_m, comm.destination_angle_rad, rng)
        for rng in (channels if rayleigh else [None])
    ])
    copies = len(keys) // len(h_sd)
    a = steering_vector(array, target.range_m, target.angle_rad)
    return SensingScene(
        alpha0=np.full(len(keys), target_reflectivity(scenario, phases)), target_steering=a,
        clutter=ClutterSteering(steering_matrix(array, ranges, angles), scenario.clutter.sigma),
        h_sd=np.repeat(h_sd, copies, axis=0),
        comm_direction=np.repeat([np.conj(h) / np.linalg.norm(h) for h in h_sd], copies, axis=0),
        radar_direction=np.repeat([np.conj(a) / np.linalg.norm(a)], len(keys), axis=0),
    ), channels


def build_context(scenario: ScenarioConfig, *, scene_key: int = 0) -> SimulationContext:
    """Realize one scene; scene_key selects a realization.
    Its sensing scene is build_scene's at that key alone; h_sr and h_rd follow
    h_sd on its channel stream, and the symbols have a stream of their own,
    read on the one Philox that read the scene's."""
    streams = Streams()
    scene, (channel,) = build_scene(scenario, scene_keys=(scene_key,), streams=streams)
    comm, array, model = scenario.comm, scenario.array, scenario.path_loss
    link = separation(comm.relay_range_m, comm.relay_angle_rad, comm.destination_range_m, comm.destination_angle_rad)
    h_sr = synthesize_comm_channel(array, model, comm.relay_range_m, comm.relay_angle_rad, channel)
    return SimulationContext(
        alpha0=complex(scene.alpha0[0]), target_steering=scene.target_steering,
        clutter=ClutterSteering(scene.clutter.matrix[0], scene.clutter.sigma),
        h_sd=scene.h_sd[0], comm_direction=scene.comm_direction[0], radar_direction=scene.radar_direction[0],
        scenario=scenario, h_sr=h_sr, h_rd=synthesize_scalar_channel(array, model, link, channel),
        symbols=draw_symbols(2, streams.at(scenario.seed, stream_id(KIND_SYMBOLS, scene_key))),
    )
