"""Radar response, clutter-plus-noise covariance, and SCNR metrics.

The two-way response of a scatterer at position p is the rank-one matrix
A(p) = a(p) a(p)^T built from the near-field steering vector (plain transpose:
the same aperture phases apply on transmit and receive). A snapshot received
while transmitting x is

    s = alpha_0 A(p_t) x + sum_l alpha_l A(p_l) x + n,      n ~ CN(0, I),

with clutter amplitudes alpha_l drawn CN(0, sigma_l^2). Because A_l x =
a_l (a_l^T x), every clutter term is a product with the steering matrix
B = [a_1 ... a_L], built once per scene (ClutterSteering). Averaging over
symbols and clutter gives the interference-plus-noise covariance

    W = sum_l sigma_l^2 A_l R_x A_l^H + I = I + B diag(g) B^H,
    g_l = sigma_l^2 a_l^T R_x conj(a_l) = sigma_l^2 sum_k |a_l^T b_k|^2

for transmit beams b_k. The gains g are linear in the transmit power: beams
sqrt(P) b_k give g = P g_1, and the SCNR loading term sum_k |a_t^T b_k|^2 scales
by P too. InterferenceKernel decomposes the PSD part M = B diag(g_1) B^H once,
through the SVD of B diag(g_1)^(1/2), so a^H W^-1 a, W^-1 y and y^H W^-1 y
follow for one operating point or for a whole vector of powers without ever
forming or factoring I + P M.

clutter_covariance, optimal_receive_beamformer and scnr_at_optimum form W
densely and solve through its Cholesky factor. They are the reference the
kernel is tested against, not a production path.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .array_geometry import ArrayConfig, PolarPosition, steering_matrix, steering_vector
from .comm_link import BeamformerSet
from .propagation import Scene

__all__ = [
    "ClutterSteering",
    "InterferenceKernel",
    "response_matrix",
    "transmit_covariance",
    "clutter_covariance",
    "scnr",
    "optimal_receive_beamformer",
    "scnr_at_optimum",
    "average_scnr",
    "average_scnr_curve",
    "draw_symbols",
    "waveform_from_symbols",
    "transmit_waveform",
    "radar_snapshot_batch",
]


@dataclass(frozen=True)
class ClutterSteering:
    """A scene's clutter on one array: steering matrix B (N, L) and amplitude scales sigma_l."""

    matrix: np.ndarray
    scale: np.ndarray

    @classmethod
    def of(cls, cfg: ArrayConfig, scene: Scene) -> "ClutterSteering":
        return cls(
            matrix=steering_matrix(cfg, [el.position for el in scene.clutter]),
            scale=np.array([el.amplitude_scale for el in scene.clutter], dtype=float),
        )

    def gains(self, beams: np.ndarray) -> np.ndarray:
        """g_l = sigma_l^2 sum_k |a_l^T b_k|^2 over the transmit beams b_k (rows)."""
        return self.scale**2 * np.sum(np.abs(beams @ self.matrix) ** 2, axis=0)

    def projected_power(self, w: np.ndarray, x: np.ndarray) -> float:
        """sum_l sigma_l^2 |w^H a_l|^2 |a_l^T x|^2: clutter power behind receive beamformer w."""
        per_scatterer = np.abs(w.conj() @ self.matrix) ** 2 * np.abs(x @ self.matrix) ** 2
        return float(np.sum(self.scale**2 * per_scatterer))

    def echoes(self, x: np.ndarray) -> np.ndarray:
        """(L, N) rows sigma_l a_l (a_l^T x): each scatterer's return per unit amplitude."""
        return self.scale[:, None] * self.matrix.T * (x @ self.matrix)[:, None]


class InterferenceKernel:
    """W(s) = I + s B diag(g) B^H for every power scale s >= 0, from one decomposition.

    The clutter part is M = F F^H with F = B diag(sqrt(g)). The SVD F = U S V^H
    gives M = U diag(lam) U^H with lam = S^2 padded by zeros to N, hence
    W(s)^-1 = U diag(1 / (1 + s lam)) U^H. Every lam is nonnegative by
    construction, and the singular values carry an error of eps ||F|| rather
    than the eps ||M|| an eigendecomposition of M would leave on its small
    eigenvalues, so the result stays accurate however ill-conditioned W is.
    Without clutter power W is I exactly.
    """

    def __init__(self, clutter: ClutterSteering, gains: np.ndarray):
        n = clutter.matrix.shape[0]
        self._lam = np.zeros(n)
        if np.any(gains > 0.0):
            self._vecs, s, _ = np.linalg.svd(clutter.matrix * np.sqrt(gains))
            self._lam[: s.size] = s**2
        else:
            self._vecs = np.eye(n)

    def solve(self, y: np.ndarray) -> np.ndarray:
        """W(1)^-1 y."""
        return self._vecs @ ((self._vecs.conj().T @ y) / (1.0 + self._lam))

    def quadratic(self, y: np.ndarray, scales=1.0) -> np.ndarray:
        """y^H W(s)^-1 y for each scale s (a scalar or an array of scales)."""
        z = self._vecs.conj().T @ y
        energy = z.real**2 + z.imag**2
        return np.sum(energy / (1.0 + np.multiply.outer(scales, self._lam)), axis=-1)


def response_matrix(cfg: ArrayConfig, pos: PolarPosition) -> np.ndarray:
    """Two-way array response A = a a^T (symmetric, rank one)."""
    a = steering_vector(cfg, pos)
    return np.outer(a, a)


def transmit_covariance(beams: BeamformerSet) -> np.ndarray:
    """Waveform covariance R_x = sum_k u_k u_k^H + v v^H for unit-power symbols."""
    r = np.outer(beams.radar_beam, beams.radar_beam.conj())
    for u in beams.comm_beams:
        r = r + np.outer(u, u.conj())
    return r


def clutter_covariance(cfg: ArrayConfig, scene: Scene, r_x: np.ndarray) -> np.ndarray:
    """Dense W = sum_l sigma_l^2 A_l R_x A_l^H + I from the full response matrices."""
    n = cfg.n_antennas
    if r_x.shape != (n, n):
        raise ValueError(f"R_x shape {r_x.shape} does not match the {n}-element array")
    clutter = ClutterSteering.of(cfg, scene)
    columns = clutter.matrix.T
    responses = columns[:, :, None] * columns[:, None, :]  # (L, N, N) stack of A_l
    terms = responses @ r_x @ responses.conj().transpose(0, 2, 1)
    w = np.eye(n, dtype=complex) + np.tensordot(clutter.scale**2, terms, axes=1)
    # the sum is Hermitian in exact arithmetic; symmetrize away rounding skew
    return (w + w.conj().T) / 2.0


def scnr(w: np.ndarray, alpha0: complex, a_target: np.ndarray, cov: np.ndarray, x: np.ndarray) -> float:
    """Output SCNR |alpha_0|^2 |w^H A x|^2 / (w^H W w) for a receive beamformer w.

    a_target is the target steering vector; A = a a^T collapses the numerator
    to (w^H a)(a^T x).
    """
    denom = np.vdot(w, cov @ w).real
    if denom <= 0.0:
        raise ValueError("receive beamformer must be nonzero")
    signal = abs(alpha0) ** 2 * abs(np.vdot(w, a_target) * np.dot(a_target, x)) ** 2
    return float(signal / denom)


def optimal_receive_beamformer(a_target: np.ndarray, cov: np.ndarray, x: np.ndarray) -> np.ndarray:
    """SCNR-optimal receive beamformer w* = W^-1 (A x), unnormalized."""
    y = a_target * np.dot(a_target, x)
    cho = scipy.linalg.cho_factor(cov)
    return scipy.linalg.cho_solve(cho, y)


def scnr_at_optimum(alpha0: complex, a_target: np.ndarray, cov: np.ndarray, x: np.ndarray) -> float:
    """SCNR attained by w*: |alpha_0|^2 (A x)^H W^-1 (A x)."""
    y = a_target * np.dot(a_target, x)
    cho = scipy.linalg.cho_factor(cov)
    return float(abs(alpha0) ** 2 * np.vdot(y, scipy.linalg.cho_solve(cho, y)).real)


def average_scnr_curve(
    clutter: ClutterSteering,
    alpha0: complex,
    a_target: np.ndarray,
    beams: np.ndarray,
    powers,
) -> np.ndarray:
    """Symbol-averaged optimal SCNR at each total power P for transmit beams sqrt(P) b_k.

    |alpha_0|^2 (a^H W(P)^-1 a) P sum_k |a^T b_k|^2, with the beams b_k as rows;
    one decomposition serves every power.
    """
    powers = np.asarray(powers, dtype=float)
    kernel = InterferenceKernel(clutter, clutter.gains(beams))
    loading = np.sum(np.abs(beams @ a_target) ** 2)
    return abs(alpha0) ** 2 * kernel.quadratic(a_target, powers) * powers * loading


def average_scnr(
    cfg: ArrayConfig,
    beams: BeamformerSet,
    alpha0: complex,
    a_target: np.ndarray,
    scene: Scene,
) -> float:
    """Symbol-averaged optimal SCNR |alpha_0|^2 tr(A^H W^-1 A R_x).

    With A = a a^T the trace factors into (a^H W^-1 a)(a^T R_x conj(a)).
    """
    clutter = ClutterSteering.of(cfg, scene)
    return float(average_scnr_curve(clutter, alpha0, a_target, beams.stacked, 1.0))


def draw_symbols(n_beams: int, rng: np.random.Generator) -> np.ndarray:
    """Unit-power complex Gaussian symbols, one per beam (data beams then radar)."""
    return (rng.standard_normal(n_beams) + 1j * rng.standard_normal(n_beams)) / np.sqrt(2.0)


def waveform_from_symbols(beams: BeamformerSet, symbols: np.ndarray) -> np.ndarray:
    """Transmit snapshot x = sum_k u_k s_k + v s_0 for the given symbol draw."""
    if len(symbols) != len(beams.comm_beams) + 1:
        raise ValueError("need one symbol per data beam plus one for the radar beam")
    x = symbols[-1] * beams.radar_beam
    for u, s in zip(beams.comm_beams, symbols[:-1]):
        x = x + s * u
    return x


def transmit_waveform(beams: BeamformerSet, rng: np.random.Generator) -> np.ndarray:
    """One random transmit snapshot (fresh symbols)."""
    return waveform_from_symbols(beams, draw_symbols(len(beams.comm_beams) + 1, rng))


def radar_snapshot_batch(
    cfg: ArrayConfig,
    scene: Scene,
    beams: BeamformerSet,
    rng: np.random.Generator,
    count: int,
) -> np.ndarray:
    """(count, N) receive snapshots with fresh symbols, clutter draws, and noise.

    Draw order is fixed — symbols, clutter amplitudes, noise — so a given
    stream yields the same batch on every platform.
    """
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    n = cfg.n_antennas
    n_beams = len(beams.comm_beams) + 1
    symbols = (rng.standard_normal((count, n_beams)) + 1j * rng.standard_normal((count, n_beams))) / np.sqrt(2.0)
    x = symbols @ beams.stacked  # (count, N)
    a_t = steering_vector(cfg, scene.target)
    s = scene.alpha0 * (x @ a_t)[:, None] * a_t[None, :]
    if scene.clutter:
        clutter = ClutterSteering.of(cfg, scene)
        shape = (count, len(clutter.scale))
        amps = clutter.scale * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)
        s = s + (amps * (x @ clutter.matrix)) @ clutter.matrix.T
    noise = (rng.standard_normal((count, n)) + 1j * rng.standard_normal((count, n))) / np.sqrt(2.0)
    return s + noise
