"""Cooperative amplify-and-forward communication link.

The source transmits x = u s_1 + v s_0 (data beam u, radar beam v,
unit-power symbols). All receive combining uses plain-transpose channel
products h^T u, matching the transmit-side conjugation convention of the
channel synthesis. The destination combines the direct and relayed copies by
maximum ratio, so the SINRs add before the log.

A BeamformerSet may hold stacks of beams (rows, say one per power split); the
gain and SINR formulas then give each row's value, bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .propagation import ChannelSet

__all__ = [
    "BeamformerSet",
    "af_gain",
    "sinr_direct",
    "sinr_relayed",
    "mrc_rate",
    "rate_threshold",
]


@dataclass(frozen=True)
class BeamformerSet:
    """Transmit beamformers: the data beam and the radar beam, each an (N,)
    vector or an (..., N) stack of them."""

    comm_beam: np.ndarray
    radar_beam: np.ndarray

    def __post_init__(self) -> None:
        u, v = self.comm_beam, self.radar_beam
        if np.shape(u) != np.shape(v):
            raise ValueError(f"comm beam shape {np.shape(u)} != radar beam shape {np.shape(v)}")
        if not (np.all(np.isfinite(u)) and np.all(np.isfinite(v))):
            raise ValueError("beamformer entries must be finite")

    @property
    def stacked(self) -> np.ndarray:
        """(..., 2, N) array: the data beam, then the radar beam, as rows."""
        return np.stack((self.comm_beam, self.radar_beam), axis=-2)

    @property
    def total_power(self) -> float:
        u, v = self.comm_beam, self.radar_beam
        return float(np.vdot(u, u).real + np.vdot(v, v).real)


def _beam_gain(h: np.ndarray, beam: np.ndarray):
    """|h^T b|^2 for one beam or each row of a stack, rounded as the scalar
    abs(np.dot(h, b)) ** 2 is: the same BLAS dot, hypot and pow."""
    z = np.vecdot(h.conj(), beam)
    return np.float_power(np.hypot(z.real, z.imag), 2.0)


def af_gain(h_sr: np.ndarray, beams: BeamformerSet, noise_var_relay: float, budget: float):
    """Relay gain f_rd = sqrt(budget / (received signal power + relay noise)).

    The received power is |h_sr^T u|^2 + |h_sr^T v|^2, so |f_rd|^2 times
    (received + noise) meets the budget exactly.
    """
    if budget < 0.0:
        raise ValueError(f"relay power budget must be >= 0, got {budget}")
    if noise_var_relay <= 0.0:
        raise ValueError(f"noise_var_relay must be positive, got {noise_var_relay}")
    received = _beam_gain(h_sr, beams.comm_beam) + _beam_gain(h_sr, beams.radar_beam)
    return np.sqrt(budget / (received + noise_var_relay))


def sinr_direct(h_sd: np.ndarray, beams: BeamformerSet, noise_var_dest: float):
    """Direct-link SINR: the data beam against radar leakage plus noise."""
    if noise_var_dest <= 0.0:
        raise ValueError(f"noise_var_dest must be positive, got {noise_var_dest}")
    signal = _beam_gain(h_sd, beams.comm_beam)
    interference = _beam_gain(h_sd, beams.radar_beam)
    return signal / (interference + noise_var_dest)


def sinr_relayed(channels: ChannelSet, gain, beams: BeamformerSet):
    """Relayed-path SINR at the destination for the data beam u and relay gain f = gain.

    gamma_rd = |h_rd f h_sr^T u|^2 / (|h_rd f|^2 N_r + N_d).
    """
    through = abs(channels.h_rd) ** 2 * gain * gain
    signal = through * _beam_gain(channels.h_sr, beams.comm_beam)
    denom = through * channels.noise_var_relay + channels.noise_var_dest
    return signal / denom


def mrc_rate(gamma_direct: float, gamma_relayed: float) -> float:
    """Spectral efficiency log2(1 + gamma_sd + gamma_rd) after maximum ratio combining."""
    if gamma_direct < 0.0 or gamma_relayed < 0.0:
        raise ValueError("SINRs must be >= 0")
    return float(np.log2(1.0 + gamma_direct + gamma_relayed))


def rate_threshold(rate_target: float) -> float:
    """SINR threshold Gamma = 2^r - 1 equivalent to a rate target r."""
    if rate_target < 0.0:
        raise ValueError(f"rate_target must be >= 0, got {rate_target}")
    return float(2.0**rate_target - 1.0)
