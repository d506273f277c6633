"""Cooperative amplify-and-forward communication link.

The source transmits x = u s_1 + v s_0 (data beam u, radar beam v,
unit-power symbols). All receive combining uses plain-transpose channel
products h^T u, matching the transmit-side conjugation convention of the
channel synthesis. The destination combines the direct and relayed copies by
maximum ratio, so the SINRs add before the log.

With the beam directions fixed, u = sqrt((1 - rho) P) u_hat and
v = sqrt(rho P) v_hat, so each SINR is a ratio of terms affine in the power
P. LinkSinrs holds those terms of a split, or of an array of splits, and is
the one statement of both SINRs: the operating-point record and the
optimizer's split search both read it. Noise and relay budget come from the
scenario's comm section.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "LinkSinrs",
    "mrc_rate",
    "rate_threshold",
]


class LinkSinrs:
    """gamma_sd and gamma_rd of a context's link at split rho (a float or an
    array) in closed form in P. With g_hb = |h^T b_hat|^2 for h in (h_sd, h_sr)
    and b_hat in (u_hat, v_hat), the direct SINR is P s / (P i + N_d), with
    s = (1 - rho) g_sd,u and i = rho g_sd,v. The relay gain meets its budget
    B exactly, |f|^2 (P (1 - rho) g_sr,u + P rho g_sr,v + N_r) = B, so the
    relayed SINR |h_rd f|^2 P (1 - rho) g_sr,u / (|h_rd f|^2 N_r + N_d) is
    P t / (P j + k), with t = |h_rd|^2 B (1 - rho) g_sr,u,
    j = N_d ((1 - rho) g_sr,u + rho g_sr,v) and k = N_r (|h_rd|^2 B + N_d)."""

    def __init__(self, ctx, rho):
        comm = ctx.scenario.comm
        channels, directions = np.array([ctx.h_sd, ctx.h_sr]), np.array([ctx.comm_direction, ctx.radar_direction])
        (sd_u, sd_v), (sr_u, sr_v) = np.abs(channels @ directions.T) ** 2
        relay, data, noise = abs(ctx.h_rd) ** 2 * comm.relay_power_w, 1.0 - rho, comm.noise_var_dest_w
        self.terms = (data * sd_u, rho * sd_v, noise, relay * data * sr_u, noise * (data * sr_u + rho * sr_v),
                      comm.noise_var_relay_w * (relay + noise))

    def __call__(self, power_watts):
        """(gamma_sd, gamma_rd) at power_watts, a float or an array broadcasting
        against the splits, such as an (M, 1) column against a 1-D array."""
        p, (s, i, noise, t, j, k) = np.asarray(power_watts, dtype=float), self.terms
        return p * s / (p * i + noise), p * t / (p * j + k)


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
