"""Cooperative amplify-and-forward communication link.

The source transmits x = u s_1 + v s_0 (data beam u, radar beam v,
unit-power symbols). All receive combining uses plain-transpose channel
products h^T u, matching the transmit-side conjugation convention of the
channel synthesis. The destination combines the direct and relayed copies by
maximum ratio, so the SINRs add before the log.

The beams are the rows of a (2, N) array, the data beam u then the radar beam
v, or of each entry of a (..., 2, N) stack, whose gain and SINRs are then each
entry's own, bit for bit. Noise and relay budget come from the CommSection.
"""

from __future__ import annotations

import numpy as np

from .scenario import CommSection

__all__ = [
    "af_gain",
    "sinr_direct",
    "sinr_relayed",
    "mrc_rate",
    "rate_threshold",
]


def _beam_gain(h: np.ndarray, beam: np.ndarray):
    """|h^T b|^2 for one beam or each row of a stack, rounded as the scalar
    abs(np.dot(h, b)) ** 2 is: the same BLAS dot, hypot and pow."""
    z = np.vecdot(h.conj(), beam)
    return np.float_power(np.hypot(z.real, z.imag), 2.0)


def af_gain(h_sr: np.ndarray, beams: np.ndarray, comm: CommSection):
    """Relay gain f_rd = sqrt(budget / (received signal power + relay noise)).

    The received power is |h_sr^T u|^2 + |h_sr^T v|^2, so |f_rd|^2 times
    (received + noise) meets the budget exactly.
    """
    received = _beam_gain(h_sr, beams[..., 0, :]) + _beam_gain(h_sr, beams[..., 1, :])
    return np.sqrt(comm.relay_power_w / (received + comm.noise_var_relay_w))


def sinr_direct(h_sd: np.ndarray, beams: np.ndarray, comm: CommSection):
    """Direct-link SINR: the data beam against radar leakage plus noise."""
    signal = _beam_gain(h_sd, beams[..., 0, :])
    interference = _beam_gain(h_sd, beams[..., 1, :])
    return signal / (interference + comm.noise_var_dest_w)


def sinr_relayed(h_sr: np.ndarray, h_rd: complex, gain, beams: np.ndarray, comm: CommSection):
    """Relayed-path SINR at the destination for the data beam u and relay gain f = gain.

    gamma_rd = |h_rd f h_sr^T u|^2 / (|h_rd f|^2 N_r + N_d).
    """
    through = abs(h_rd) ** 2 * gain * gain
    signal = through * _beam_gain(h_sr, beams[..., 0, :])
    denom = through * comm.noise_var_relay_w + comm.noise_var_dest_w
    return signal / denom


def mrc_rate(gamma_direct, gamma_relayed):
    """Spectral efficiency log2(1 + gamma_sd + gamma_rd) after maximum ratio
    combining, at every entry of a pair of SINR arrays; floats give a 0-d result."""
    if np.any(gamma_direct < 0.0) or np.any(gamma_relayed < 0.0):
        raise ValueError("SINRs must be >= 0")
    return np.log2(1.0 + gamma_direct + gamma_relayed)


def rate_threshold(rate_target: float) -> float:
    """SINR threshold Gamma = 2^r - 1 equivalent to a rate target r."""
    if rate_target < 0.0:
        raise ValueError(f"rate_target must be >= 0, got {rate_target}")
    return float(2.0**rate_target - 1.0)
