"""Path loss, channel synthesis, target reflectivity, and clutter placements.

Conventions: path loss is returned in dB; amplitude gains are 10^(-PL/20).
A channel is drawn when it is handed a random stream (Rayleigh fading), a
reflectivity when handed uniform draws (uniform target phase), and either is
deterministic without (line of sight, zero phase); clutter placements map a
block of uniform draws, one row per realization. The scenario's fading and
phase settings decide, in context.build_scene, which streams exist.
The radar receive noise is unit variance by convention, so absolute levels are
carried entirely by channel gains and the reflectivity scale. A channel is
synthesized on the scenario's array section toward a plain (range, angle)
position, or over a plain link distance. The reflectivity and the clutter
placements read the validated scenario itself, so every rule they rely on
(a known law, a positive scale, a count of at least 0, ordered clutter
ranges, a window that leaves some bearing) is stated once, where the
scenario checks it.
"""

from __future__ import annotations

import numpy as np

from .array_geometry import SPEED_OF_LIGHT, array_constants, steering_vector
from .scenario import ArraySection, PathLossSection, ScenarioConfig
from .stats import derive_stream

__all__ = [
    "synthesize_comm_channel",
    "synthesize_scalar_channel",
    "target_reflectivity",
    "make_clutter_scene",
]


def path_loss_db(model: PathLossSection, carrier_freq: float, distance: float) -> float:
    """One-way path loss in dB at the given carrier frequency (Hz) and distance (m)."""
    if distance <= 0.0:
        raise ValueError(f"distance must be positive, got {distance}")
    if carrier_freq <= 0.0:
        raise ValueError(f"carrier_freq must be positive, got {carrier_freq}")
    if model.kind == "free_space":
        return 20.0 * np.log10(4.0 * np.pi * distance * carrier_freq / SPEED_OF_LIGHT)
    # TR 38.901 Table 7.4.1-1, UMi street canyon LoS: the distance is the ground
    # distance, the antenna-height offset is folded in, and the law is dual slope
    # around the effective breakpoint d_bp = 4 (h_bs - 1)(h_ut - 1) f / c.
    f_ghz = carrier_freq / 1e9
    dh = model.h_bs_m - model.h_ut_m
    d3d = np.hypot(distance, dh)
    d_bp = 4.0 * (model.h_bs_m - 1.0) * (model.h_ut_m - 1.0) * carrier_freq / SPEED_OF_LIGHT
    if distance <= d_bp:
        return 32.4 + 21.0 * np.log10(d3d) + 20.0 * np.log10(f_ghz)
    return (
        32.4
        + 40.0 * np.log10(d3d)
        + 20.0 * np.log10(f_ghz)
        - 9.5 * np.log10(d_bp * d_bp + dh * dh)
    )


def amplitude_gain(model: PathLossSection, carrier_freq: float, distance: float) -> float:
    """One-way amplitude gain 10^(-PL/20)."""
    return 10.0 ** (-path_loss_db(model, carrier_freq, distance) / 20.0)


def synthesize_comm_channel(
    array: ArraySection,
    model: PathLossSection,
    range_m: float,
    angle_rad: float,
    rng: np.random.Generator | None = None,
) -> np.ndarray:
    """Array channel toward a terminal at (range_m, angle_rad).

    Without a stream, LoS: amplitude gain times the near-field steering vector,
    so the squared norm is N g^2 exactly. With one, Rayleigh: i.i.d. entries
    CN(0, g^2) drawn from it, same mean squared norm.
    """
    g = amplitude_gain(model, array_constants(array)[0], range_m)
    if rng is None:
        return g * steering_vector(array, range_m, angle_rad)
    n = array.n_antennas
    return g * (rng.standard_normal(n) + 1j * rng.standard_normal(n)) / np.sqrt(2.0)


def synthesize_scalar_channel(
    array: ArraySection,
    model: PathLossSection,
    distance: float,
    rng: np.random.Generator | None = None,
) -> complex:
    """Single-antenna channel over the given link distance: LoS without a
    stream, Rayleigh drawn from one."""
    carrier_hz, wavelength, _ = array_constants(array)
    g = amplitude_gain(model, carrier_hz, distance)
    if rng is None:
        return complex(g * np.exp(-2j * np.pi * distance / wavelength))
    return complex(g * (rng.standard_normal() + 1j * rng.standard_normal()) / np.sqrt(2.0))


def target_reflectivity(scenario: ScenarioConfig, draws: np.ndarray | None = None) -> complex | np.ndarray:
    """Two-way reflectivity alpha_0 of the scenario's target, on its array's carrier.

    Magnitude is rcs_scale * 10^(-2 PL_oneway / 20), computed once; the phase is
    zero without draws (deterministic sweeps), giving one complex, and 2 pi u for
    each uniform u on [0, 1) of an (R,) array of draws, giving an (R,) array.
    """
    target = scenario.target
    carrier_hz = array_constants(scenario.array)[0]
    mag = target.rcs_scale * 10.0 ** (-2.0 * path_loss_db(scenario.path_loss, carrier_hz, target.range_m) / 20.0)
    if draws is None:
        return complex(mag)
    return mag * np.exp(2j * np.pi * draws)


def make_clutter_scene(scenario: ScenarioConfig, draws: np.ndarray, stream_ids) -> tuple[np.ndarray, np.ndarray]:
    """Ranges and angles (R, L) of R realizations of the scenario's clutter, around (but never on top of) the target bearing.

    Row i maps draws[i], the first 2L uniform draws of stream stream_ids[i] on
    the scenario's seed (stats.Streams.first_doubles), range then angle per element.
    Ranges are uniform on (min_range_m, max_range_m], up to rounding at the
    lower end; angles are uniform on (0, pi) minus the +- angle_exclusion_rad
    window about the target angle. An angle on 0 or pi is drawn again, moving
    every later draw of its row, so such a row is drawn in order from its stream.
    Without clutter the rows are empty.
    """
    clutter, target_angle = scenario.clutter, scenario.target.angle_rad
    lo = max(0.0, target_angle - clutter.angle_exclusion_rad)
    hi = min(np.pi, target_angle + clutter.angle_exclusion_rad)
    mass, span = lo + (np.pi - hi), clutter.max_range_m - clutter.min_range_m
    # map u in [0, 1) to (min, max], the lower end open up to rounding
    ranges = clutter.max_range_m - draws[:, 0::2] * span
    t = draws[:, 1::2] * mass
    angles = np.where(t < lo, t, hi + (t - lo))
    for row in (~((0.0 < angles) & (angles < np.pi)).all(axis=1)).nonzero()[0]:
        rng = derive_stream(scenario.seed, stream_ids[row])
        for i in range(clutter.count):
            ranges[row, i] = clutter.max_range_m - rng.uniform() * span
            while True:
                t = rng.uniform() * mass
                angles[row, i] = t if t < lo else hi + (t - lo)
                if 0.0 < angles[row, i] < np.pi:
                    break
    return ranges, angles
