"""Cooperative amplify-and-forward communication link.

The source transmits x = sum_k u_k s_k + v s_0 (data beams u_k, radar beam v,
unit-power symbols). All receive combining uses plain-transpose channel
products h^T u, matching the transmit-side conjugation convention of the
channel synthesis. The destination combines the direct and relayed copies by
maximum ratio, so the SINRs add before the log.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .propagation import ChannelSet

__all__ = [
    "BeamformerSet",
    "RelayGain",
    "af_gain",
    "sinr_direct",
    "sinr_relayed",
    "mrc_rate",
    "rate_threshold",
    "rate_constraint_satisfied",
]


@dataclass(frozen=True)
class BeamformerSet:
    """Transmit beamformers: one or more data beams plus the radar beam."""

    comm_beams: tuple[np.ndarray, ...]
    radar_beam: np.ndarray

    def __post_init__(self) -> None:
        if len(self.comm_beams) < 1:
            raise ValueError("at least one communication beam is required")
        n = len(self.radar_beam)
        for k, u in enumerate(self.comm_beams):
            if len(u) != n:
                raise ValueError(f"comm beam {k} length {len(u)} != radar beam length {n}")
        vecs = list(self.comm_beams) + [self.radar_beam]
        if not all(np.all(np.isfinite(v.real)) and np.all(np.isfinite(v.imag)) for v in vecs):
            raise ValueError("beamformer entries must be finite")

    @property
    def stacked(self) -> np.ndarray:
        """(K + 1, N) array: the data beams, then the radar beam, as rows."""
        return np.vstack((*self.comm_beams, self.radar_beam))

    @property
    def total_power(self) -> float:
        return float(
            sum(np.vdot(u, u).real for u in self.comm_beams)
            + np.vdot(self.radar_beam, self.radar_beam).real
        )


@dataclass(frozen=True)
class RelayGain:
    """Amplify-and-forward gain, normalized to the relay power budget."""

    gain: float
    budget: float


def af_gain(h_sr: np.ndarray, beams: BeamformerSet, noise_var_relay: float, budget: float) -> RelayGain:
    """Relay gain f_rd = sqrt(budget / (received signal power + relay noise)).

    The received power sums |h_sr^T u_k|^2 over the data beams plus
    |h_sr^T v|^2, so |f_rd|^2 times (received + noise) meets the budget exactly.
    """
    if budget < 0.0:
        raise ValueError(f"relay power budget must be >= 0, got {budget}")
    if noise_var_relay <= 0.0:
        raise ValueError(f"noise_var_relay must be positive, got {noise_var_relay}")
    received = sum(abs(np.dot(h_sr, u)) ** 2 for u in beams.comm_beams)
    received += abs(np.dot(h_sr, beams.radar_beam)) ** 2
    return RelayGain(gain=float(np.sqrt(budget / (received + noise_var_relay))), budget=budget)


def sinr_direct(h_sd: np.ndarray, beams: BeamformerSet, noise_var_dest: float, k: int = 0) -> float:
    """Direct-link SINR: data beam k against radar leakage plus noise."""
    if noise_var_dest <= 0.0:
        raise ValueError(f"noise_var_dest must be positive, got {noise_var_dest}")
    signal = abs(np.dot(h_sd, beams.comm_beams[k])) ** 2
    interference = abs(np.dot(h_sd, beams.radar_beam)) ** 2
    return float(signal / (interference + noise_var_dest))


def sinr_relayed(
    channels: ChannelSet,
    gain: RelayGain,
    beams: BeamformerSet,
    k: int = 0,
    include_radar_leakage: bool = False,
) -> float:
    """Relayed-path SINR at the destination.

    gamma_rd = |h_rd f h_sr^T u_k|^2 / (|h_rd f|^2 N_r + N_d); the amplified
    radar beam also reaches the destination, and ``include_radar_leakage``
    adds that |h_rd f h_sr^T v|^2 term to the denominator.
    """
    f = gain.gain
    through = abs(channels.h_rd) ** 2 * f * f
    signal = through * abs(np.dot(channels.h_sr, beams.comm_beams[k])) ** 2
    denom = through * channels.noise_var_relay + channels.noise_var_dest
    if include_radar_leakage:
        denom += through * abs(np.dot(channels.h_sr, beams.radar_beam)) ** 2
    return float(signal / denom)


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


def rate_constraint_satisfied(gamma_direct: float, gamma_relayed: float, gamma_min: float) -> bool:
    """Whether the combined SINR meets the linear threshold (boundary counts as met)."""
    return gamma_direct + gamma_relayed >= gamma_min
