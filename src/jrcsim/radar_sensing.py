"""Radar response, clutter-plus-noise covariance, and SCNR metrics.

The two-way response of a scatterer at position p is the rank-one matrix
A(p) = a(p) a(p)^T built from the near-field steering vector (plain transpose:
the same aperture phases apply on transmit and receive). A snapshot received
while transmitting x is

    s = alpha_0 A(p_t) x + sum_l alpha_l A(p_l) x + n,      n ~ CN(0, I),

with clutter amplitudes alpha_l drawn CN(0, sigma^2). Because A_l x =
a_l (a_l^T x), every clutter term is a product with the steering matrix
B = [a_1 ... a_L], built once per scene (ClutterSteering). Averaging over
symbols and clutter gives the interference-plus-noise covariance

    W = sum_l sigma^2 A_l R_x A_l^H + I = I + B diag(g) B^H,
    g_l = sigma^2 a_l^T R_x conj(a_l) = sigma^2 sum_k |a_l^T b_k|^2

for transmit beams b_k. Beams sqrt(P) b_k at amplitude scale sigma give
g = s g_1, with the one scale s = sigma^2 P and g_1 the gains of the unit-power
beams at sigma = 1 (ClutterSteering.gains); the SCNR loading term
sum_k |a_t^T b_k|^2 scales by P. InterferenceKernel decomposes M = B diag(g_1) B^H
once, through the thin SVD of B diag(g_1)^(1/2): at most L basis vectors carry the
clutter, W is I on their complement, and L >= N leaves no complement. So
a^H W^-1 a and y^H W^-1 y follow in O(N L) for a whole vector of scales, and
W^-1 y at any one, every clutter level and power alike, never forming I + s M.
The quadratic form adds its k = min(N, L) basis terms in basis order, one order
for every stack and set of scales: NumPy's pairwise last-axis sum for k <= 7,
bit for bit, and a different rounding within the same bound for k >= 8.
A scene keeps one kernel per split (SensingScene.unit_kernel), the only place
one is made, and scores its symbol-averaged SCNR curves on it
(SensingScene.average_scnr_curve).
The tests hold a dense oracle that forms W and solves through its Cholesky factor;
the kernel is checked against it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "ClutterSteering",
    "InterferenceKernel",
    "draw_symbols",
    "waveform_from_symbols",
]


@dataclass(frozen=True)
class ClutterSteering:
    """A scene's clutter on one array: steering matrix B (N, L), or a (..., N, L)
    stack, and the amplitude scale sigma that all its scatterers share."""

    matrix: np.ndarray
    sigma: float

    def gains(self, beams: np.ndarray) -> np.ndarray:
        """g_l = sum_k |a_l^T b_k|^2, the gains at sigma = 1 (sigma^2 joins P in the
        kernel's scale), over the transmit beams b_k: rows of a (K, N) set, or of each
        set in a (..., K, N) stack, which a (..., N, L) stack of matrices pairs with."""
        return np.sum(np.abs(beams @ self.matrix) ** 2, axis=-2)

    def projected_power(self, w: np.ndarray, x: np.ndarray):
        """sum_l sigma^2 |w^H a_l|^2 |a_l^T x|^2: clutter power behind receive
        beamformer w, for one (w, x) pair or a stack of them (leading axes)."""
        received = np.abs(_rows_times(w.conj(), self.matrix)) ** 2
        per_scatterer = received * np.abs(_rows_times(x, self.matrix)) ** 2
        return np.sum(self.sigma * self.sigma * per_scatterer, axis=-1)

    def echoes(self, x: np.ndarray) -> np.ndarray:
        """(L, N) rows sigma a_l (a_l^T x): each scatterer's return per unit amplitude."""
        return self.sigma * self.matrix.T * (x @ self.matrix)[:, None]


class InterferenceKernel:
    """W(s) = I + s B diag(g) B^H for every scale s = sigma^2 P >= 0, from one decomposition.

    The clutter part is M = F F^H with F = B diag(sqrt(g)). The thin SVD F = U S V^H
    gives M = U diag(lam) U^H with lam = S^2 and U (N, min(N, L)): O(N L) numbers,
    never an N x N basis. With z = U^H y, the rest r = y - U z lies where W is I, so
    W(s)^-1 y = r + U (z / (1 + s lam)) and y^H W(s)^-1 y = ||r||^2 + sum |z|^2 / (1 + s lam).
    When L >= N, U is square and r is 0, not a rounding residue that no s would shrink.
    Every lam is nonnegative by construction, and the singular values carry an error of
    eps ||F|| rather than the eps ||M|| an eigendecomposition of M would leave on its
    small eigenvalues, so the result stays accurate however ill-conditioned W is.
    At s = 0, W is I: solve returns y up to rounding, and exactly when L = 0.

    Gains (..., L), with one steering matrix (N, L) or a matching (..., N, L)
    stack, give a stack of kernels from one stacked SVD, and solve and quadratic
    take a matching (..., N) stack; each product runs per matrix, so every kernel
    in the stack matches the kernel built from its gains alone, bit for bit.
    """

    def __init__(self, clutter: ClutterSteering, gains: np.ndarray):
        self._vecs, s, _ = np.linalg.svd(clutter.matrix * np.sqrt(gains[..., None, :]), full_matrices=False)
        self._lam = s**2

    def __getitem__(self, i: int) -> "InterferenceKernel":
        """The kernel of entry i of a stack, sharing its arrays."""
        kernel = object.__new__(InterferenceKernel)
        kernel._vecs, kernel._lam = self._vecs[i], self._lam[i]
        return kernel

    def _split(self, y: np.ndarray):
        """(r, z) with y = r + U z, z = U^H y, and r = 0 when U is square."""
        z = _matvec(self._vecs.conj().swapaxes(-1, -2), y)
        n, k = self._vecs.shape[-2:]
        return (y - _matvec(self._vecs, z) if k < n else np.zeros_like(y)), z

    def solve(self, y: np.ndarray, scale: float = 1.0) -> np.ndarray:
        """W(s)^-1 y at the scale s."""
        r, z = self._split(y)
        return r + _matvec(self._vecs, z / (1.0 + scale * self._lam))

    def quadratic(self, y: np.ndarray, scales=(1.0,)) -> np.ndarray:
        """y^H W(s)^-1 y for each scale s of a 1-D sequence: shape (..., len(scales)).

        The terms |z_j|^2 / (1 + s lam_j) are formed with the basis axis first, so
        their elementwise steps loop over the scales, and are added in basis order:
        one order for every stack, layout and set of scales. For k <= 7 terms that
        is the pairwise order of a last-axis np.sum, bit for bit; for k >= 8 it
        rounds differently, within the same (k - 1) eps relative bound on k
        nonnegative terms."""
        r, z = self._split(y)
        energy = np.moveaxis(z.real**2 + z.imag**2, -1, 0)[..., None]
        terms = energy / (1.0 + np.asarray(scales) * np.moveaxis(self._lam, -1, 0)[..., None])
        # not np.sum(axis=0): it adds pairwise where the basis axis is the fastest, as at one scale
        clutter = sum(terms, np.zeros(terms.shape[1:]))
        return np.sum(r.real**2 + r.imag**2, axis=-1)[..., None] + clutter


def _rows_times(v: np.ndarray, m: np.ndarray) -> np.ndarray:
    """v @ m for a vector v or each row of a stack: one BLAS vector-matrix product per row."""
    return (v[..., None, :] @ m)[..., 0, :]


def _matvec(m: np.ndarray, v: np.ndarray) -> np.ndarray:
    """m @ v for one matrix and vector or for matching stacks of them, one product per pair."""
    return (m @ v[..., None])[..., 0]


def draw_symbols(n_beams: int, rng: np.random.Generator) -> np.ndarray:
    """Unit-power complex Gaussian symbols, one per beam (data beam then radar)."""
    return (rng.standard_normal(n_beams) + 1j * rng.standard_normal(n_beams)) / np.sqrt(2.0)


def waveform_from_symbols(beams: np.ndarray, symbols: np.ndarray) -> np.ndarray:
    """Transmit snapshot x = u s_1 + v s_0 for the symbol draw (s_1, s_0) and beam rows (u, v)."""
    if len(symbols) != 2:
        raise ValueError("need one symbol for the data beam and one for the radar beam")
    return symbols[1] * beams[..., 1, :] + symbols[0] * beams[..., 0, :]
