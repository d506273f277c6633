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
forming or factoring I + P M. The tests hold a dense oracle that forms W and
solves through its Cholesky factor; the kernel is checked against it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "ClutterSteering",
    "InterferenceKernel",
    "average_scnr_curve",
    "draw_symbols",
    "waveform_from_symbols",
]


@dataclass(frozen=True)
class ClutterSteering:
    """A scene's clutter on one array: steering matrix B (N, L) and amplitude scales sigma_l."""

    matrix: np.ndarray
    scale: np.ndarray

    @classmethod
    def at_sigma(cls, matrix: np.ndarray, sigma: float) -> "ClutterSteering":
        """Steering matrix (N, L), or a (..., N, L) stack, with every amplitude
        scale sigma: a scene's clutter levels differ only in this scale."""
        return cls(matrix, np.full(matrix.shape[-1], float(sigma)))

    def gains(self, beams: np.ndarray) -> np.ndarray:
        """g_l = sigma_l^2 sum_k |a_l^T b_k|^2 over the transmit beams b_k (rows of
        a (K, N) set, or of each set in a (..., K, N) stack; a (..., N, L) stack of
        steering matrices pairs with it entry by entry)."""
        return self.scale**2 * np.sum(np.abs(beams @ self.matrix) ** 2, axis=-2)

    def projected_power(self, w: np.ndarray, x: np.ndarray):
        """sum_l sigma_l^2 |w^H a_l|^2 |a_l^T x|^2: clutter power behind receive
        beamformer w, for one (w, x) pair or a stack of them (leading axes)."""
        received = np.abs(_rows_times(w.conj(), self.matrix)) ** 2
        per_scatterer = received * np.abs(_rows_times(x, self.matrix)) ** 2
        return np.sum(self.scale**2 * per_scatterer, axis=-1)

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

    Gains (..., L), with one steering matrix (N, L) or a matching (..., N, L)
    stack, give a stack of kernels from one stacked SVD, and solve and quadratic
    take a matching (..., N) stack; each product runs per matrix, so every kernel
    in the stack matches the kernel built from its gains alone, bit for bit. A row
    without clutter power in such a stack is decomposed as a zero matrix, whose
    SVD gives U = I, so its W is I as well.
    """

    def __init__(self, clutter: ClutterSteering, gains: np.ndarray):
        n = clutter.matrix.shape[-2]
        self._lam = np.zeros(gains.shape[:-1] + (n,))
        if np.any(gains > 0.0):
            self._vecs, s, _ = np.linalg.svd(clutter.matrix * np.sqrt(gains[..., None, :]))
            self._lam[..., : s.shape[-1]] = s**2
        else:
            self._vecs = np.eye(n)

    def solve(self, y: np.ndarray, scale=1.0) -> np.ndarray:
        """W(s)^-1 y, with the power scale s a float or an array broadcasting over
        y's leading axes: a (P, 1) column of scales against a (S, N) kernel stack
        gives a (P, S, N) result, each entry bit for bit its own (s, y) pair's."""
        scale = np.asarray(scale)[..., None]
        z = _matvec(self._vecs.conj().swapaxes(-1, -2), y) / (1.0 + scale * self._lam)
        return _matvec(self._vecs, z)

    def quadratic(self, y: np.ndarray, scales=(1.0,)) -> np.ndarray:
        """y^H W(s)^-1 y for each scale s of a 1-D sequence: shape (..., len(scales))."""
        z = _matvec(self._vecs.conj().swapaxes(-1, -2), y)
        energy = (z.real**2 + z.imag**2)[..., None, :]
        return np.sum(energy / (1.0 + np.asarray(scales)[:, None] * self._lam[..., None, :]), axis=-1)


def _rows_times(v: np.ndarray, m: np.ndarray) -> np.ndarray:
    """v @ m for a vector v or each row of a stack: one BLAS vector-matrix product per row."""
    return (v[..., None, :] @ m)[..., 0, :]


def _matvec(m: np.ndarray, v: np.ndarray) -> np.ndarray:
    """m @ v for one matrix and vector or for matching stacks of them, one product per pair."""
    return (m @ v[..., None])[..., 0]


def average_scnr_curve(
    clutter: ClutterSteering,
    alpha0: complex,
    a_target: np.ndarray,
    beams: np.ndarray,
    powers,
    kernel: InterferenceKernel | None = None,
) -> np.ndarray:
    """Symbol-averaged optimal SCNR at each total power P (1-D) for transmit beams sqrt(P) b_k.

    |alpha_0|^2 (a^H W(P)^-1 a) P sum_k |a^T b_k|^2, with the beams b_k as rows;
    one decomposition serves every power. Stacked realizations (clutter matrices
    (R, N, L), alpha_0 (R,), beams (R, K, N), and a (N,) shared or (R, N)) give
    (R, P) curves, each row bit for bit that realization's alone. A caller that already
    holds the kernel of these unit-power beams hands it in instead of a second
    decomposition.
    """
    powers = np.asarray(powers, dtype=float)
    if kernel is None:
        kernel = InterferenceKernel(clutter, clutter.gains(beams))
    # abs(alpha_0) ** 2 rounded as the scalar is, hypot then pow, for one or a stack
    reflectivity = np.float_power(np.hypot(np.real(alpha0), np.imag(alpha0)), 2)[..., None]
    loading = np.sum(np.abs(_matvec(beams, a_target)) ** 2, axis=-1)[..., None]
    return reflectivity * kernel.quadratic(a_target, powers) * powers * loading


def draw_symbols(n_beams: int, rng: np.random.Generator) -> np.ndarray:
    """Unit-power complex Gaussian symbols, one per beam (data beam then radar)."""
    return (rng.standard_normal(n_beams) + 1j * rng.standard_normal(n_beams)) / np.sqrt(2.0)


def waveform_from_symbols(beams: np.ndarray, symbols: np.ndarray) -> np.ndarray:
    """Transmit snapshot x = u s_1 + v s_0 for the symbol draw (s_1, s_0) and beam rows (u, v)."""
    if len(symbols) != 2:
        raise ValueError("need one symbol for the data beam and one for the radar beam")
    return symbols[1] * beams[..., 1, :] + symbols[0] * beams[..., 0, :]
