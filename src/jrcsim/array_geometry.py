"""Near-field geometry for a uniform linear array.

The array lies on the x-axis with its phase centre at the origin; element m of
N sits at x = n_m * d with symmetric index offset n_m = m - (N - 1) / 2 (integer
offsets for odd N, half-integer for even N). A scatterer at polar position
(r, theta) — range from the phase centre, angle measured from the array axis —
is at exact distance

    r_n = sqrt(r^2 + n^2 d^2 - 2 r n d cos(theta))

from element n. Inside the Fresnel region the second-order expansion

    r_n ~= r - n d cos(theta) + n^2 d^2 / (2 r)

keeps the quadratic (range-dependent) phase term that distinguishes near-field
from plane-wave steering.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "ArrayConfig",
    "PolarPosition",
    "element_index_offsets",
    "steering_vector",
    "steering_matrix",
    "separation",
]

SPEED_OF_LIGHT = 299_792_458.0  # m/s, exact by the SI definition of the metre


@dataclass(frozen=True)
class ArrayConfig:
    """Uniform linear array: element count, carrier frequency (Hz), spacing (m).

    Spacing defaults to half the carrier wavelength.
    """

    n_antennas: int
    carrier_freq: float
    spacing: float | None = None

    def __post_init__(self) -> None:
        if self.n_antennas < 1:
            raise ValueError(f"n_antennas must be >= 1, got {self.n_antennas}")
        if self.carrier_freq <= 0.0:
            raise ValueError(f"carrier_freq must be positive, got {self.carrier_freq}")
        if self.spacing is None:
            object.__setattr__(self, "spacing", self.wavelength / 2.0)
        elif self.spacing <= 0.0:
            raise ValueError(f"spacing must be positive, got {self.spacing}")

    @property
    def wavelength(self) -> float:
        return SPEED_OF_LIGHT / self.carrier_freq


@dataclass(frozen=True)
class PolarPosition:
    """Scatterer position: range (m) from the phase centre, angle (rad) off the array axis.

    Endfire geometry (angle 0 or pi) degenerates the lateral terms, so the angle
    must lie strictly inside (0, pi).
    """

    range_m: float
    angle_rad: float

    def __post_init__(self) -> None:
        if self.range_m <= 0.0:
            raise ValueError(f"range must be positive, got {self.range_m}")
        if not 0.0 < self.angle_rad < np.pi:
            raise ValueError(f"angle must lie strictly in (0, pi), got {self.angle_rad}")


def separation(a: PolarPosition, b: PolarPosition) -> float:
    """Straight-line distance between two polar positions sharing the origin;
    0 where rounding leaves the law of cosines below zero."""
    square = a.range_m**2 + b.range_m**2 - 2.0 * a.range_m * b.range_m * np.cos(a.angle_rad - b.angle_rad)
    return float(np.sqrt(max(0.0, square)))


def element_index_offsets(n_antennas: int) -> np.ndarray:
    """Symmetric element offsets n_m = m - (N - 1) / 2 for m = 0..N-1."""
    if n_antennas < 1:
        raise ValueError(f"n_antennas must be >= 1, got {n_antennas}")
    return np.arange(n_antennas, dtype=float) - (n_antennas - 1) / 2.0


def _fresnel_steering(cfg: ArrayConfig, n, r, theta) -> np.ndarray:
    d = cfg.spacing
    # r_n - r formed term by term: subtracting the assembled r_n from r would
    # cancel catastrophically at large range
    delta = -n * d * np.cos(theta) + (n * d) ** 2 / (2.0 * r)
    return np.exp(-2j * np.pi * delta / cfg.wavelength)


def steering_vector(cfg: ArrayConfig, pos: PolarPosition) -> np.ndarray:
    """Near-field steering vector with unit-modulus entries.

    Entry n carries the Fresnel phase relative to the phase centre,
    exp(-j 2 pi (r_n - r) / lambda); at half-wavelength spacing this reduces to
    exp(j pi n (cos(theta) - n lambda / (4 r))).
    """
    n = element_index_offsets(cfg.n_antennas)
    return _fresnel_steering(cfg, n, pos.range_m, pos.angle_rad)


def steering_matrix(cfg: ArrayConfig, ranges, angles) -> np.ndarray:
    """(..., N, L) matrices whose column l is the steering vector at (ranges[..., l], angles[..., l])."""
    n = element_index_offsets(cfg.n_antennas)[:, None]
    r = np.asarray(ranges, dtype=float)[..., None, :]
    theta = np.asarray(angles, dtype=float)[..., None, :]
    return _fresnel_steering(cfg, n, r, theta)

