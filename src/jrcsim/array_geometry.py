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

The array is the scenario's array section itself (element count, carrier in
GHz, optional spacing), and a position is a plain (range, angle) pair, already
checked where the scenario holds it; array_constants derives the carrier in
Hz, the wavelength and the spacing every reader of the section shares.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # the scenario imports separation from here
    from .scenario import ArraySection

__all__ = [
    "steering_vector",
    "steering_matrix",
    "separation",
]

SPEED_OF_LIGHT = 299_792_458.0  # m/s, exact by the SI definition of the metre


def array_constants(array: ArraySection) -> tuple[float, float, float]:
    """Carrier frequency (Hz), wavelength (m) and element spacing (m) of an
    array section; the spacing defaults to half the wavelength."""
    carrier_hz = array.carrier_ghz * 1.0e9
    wavelength = SPEED_OF_LIGHT / carrier_hz
    return carrier_hz, wavelength, wavelength / 2.0 if array.spacing_m is None else array.spacing_m


def separation(r_a: float, theta_a: float, r_b: float, theta_b: float) -> float:
    """Straight-line distance between polar positions (r_a, theta_a) and
    (r_b, theta_b) sharing the origin; 0 where rounding leaves the law of
    cosines below zero."""
    square = r_a**2 + r_b**2 - 2.0 * r_a * r_b * np.cos(theta_a - theta_b)
    return float(np.sqrt(max(0.0, square)))


def element_index_offsets(n_antennas: int) -> np.ndarray:
    """Symmetric element offsets n_m = m - (N - 1) / 2 for m = 0..N-1."""
    if n_antennas < 1:
        raise ValueError(f"n_antennas must be >= 1, got {n_antennas}")
    return np.arange(n_antennas, dtype=float) - (n_antennas - 1) / 2.0


def _fresnel_steering(array: ArraySection, n, r, theta) -> np.ndarray:
    _, wavelength, d = array_constants(array)
    # r_n - r formed term by term: subtracting the assembled r_n from r would
    # cancel catastrophically at large range
    delta = -n * d * np.cos(theta) + (n * d) ** 2 / (2.0 * r)
    return np.exp(-2j * np.pi * delta / wavelength)


def steering_vector(array: ArraySection, range_m: float, angle_rad: float) -> np.ndarray:
    """Near-field steering vector toward (range_m, angle_rad), with unit-modulus entries.

    Entry n carries the Fresnel phase relative to the phase centre,
    exp(-j 2 pi (r_n - r) / lambda); at half-wavelength spacing this reduces to
    exp(j pi n (cos(theta) - n lambda / (4 r))).
    """
    return _fresnel_steering(array, element_index_offsets(array.n_antennas), range_m, angle_rad)


def steering_matrix(array: ArraySection, ranges, angles) -> np.ndarray:
    """(..., N, L) matrices whose column l is the steering vector at (ranges[..., l], angles[..., l]).

    The phases are formed on (..., L, N), element axis last, and come back as one
    contiguous (..., N, L) copy, the layout the clutter products and the SVD read."""
    n = element_index_offsets(array.n_antennas)
    r = np.asarray(ranges, dtype=float)[..., None]
    theta = np.asarray(angles, dtype=float)[..., None]
    return np.ascontiguousarray(_fresnel_steering(array, n, r, theta).swapaxes(-1, -2))
