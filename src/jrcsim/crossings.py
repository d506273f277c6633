"""Each split's first feasible power, from the split forms of power_allocation.

The rate test of a split turns on at the one positive root of a quadratic in
P (_rate_floor). Deflection >= floor changes only at the positive roots of a
polynomial in P (_polynomial), whose signs, where Descartes' rule allows at
most one root, place that root on a log-power grid (_first_powers); the other
splits take their roots from companion eigenvalues (_crossings). _sensing
alone decides entries, from the forms or the record of a row they leave
undecided; _verdicts tests their rate and floor, and _settle confirms the
search's answer with them. _SplitForms.reaches counts every entry read.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from .power_allocation import _SplitForms

# relative band around the deflection floor where the split forms defer to the
# record; they decide alone where _SAFETY times their estimated rounding error
# stays within _BAND / 1000 (their SINR sum is the record's, bit for bit)
_BAND, _SAFETY, _EPS = 1.0e-9, 16.0, float(np.finfo(float).eps)
# the points of each log-power grid that brackets a split's one crossing
_UNIT = np.linspace(0.0, 1.0, 256)
# a polynomial's coefficients less, then plus, a term, the second giving their sizes
_SIGNS = np.array([-1.0, 1.0])[:, None, None, None]


def _rate_floor(forms: _SplitForms) -> np.ndarray:
    """P_rate per split, inf where none: the rate test P s (P j + k) + P t (P i
    + N) >= T (P i + N)(P j + k), its positive denominators cleared, is a
    quadratic whose SINR sum rises in P, so its one positive root is where
    the rate turns on; that root in its form without cancellation."""
    s, i, noise, t, j, k = forms.link.terms
    a, c = s * j + t * i - forms.threshold * i * j, -forms.threshold * noise * k
    b = s * k + t * noise - forms.threshold * (i * k + noise * j)
    root = np.sqrt(np.maximum(b * b - 4.0 * a * c, 0.0))
    with np.errstate(divide="ignore", invalid="ignore"):
        p = np.where(b > 0.0, -2.0 * c / (b + root), (root - b) / (2.0 * a))
    return np.where(c == 0.0, 0.0, np.where((a > 0.0) | ((a == 0.0) & (b > 0.0)), p, np.inf))


def _polynomial(forms: _SplitForms) -> tuple[np.ndarray, np.ndarray, float]:
    """Each split's h(P) prod_j (1 + s lam_j)^2 / floor^2, h = gain P Q_1^2 -
    floor^2 Q_2 of the sign of deflection - floor, as (S, 2k + 2)
    coefficients in x = z P, k = min(N, L), z the largest sigma^2 lam (so
    each nu = sigma^2 lam / z <= 1); their rounding estimates; and z. The
    elementary symmetric recurrence gives D = prod_j (1 + nu_j x) and each D
    without one factor in k steps, and Q_1 D and Q_2 D^2 follow, in O(S L k)
    memory."""
    sigma2, (splits, k) = forms.ctx.clutter.sigma * forms.ctx.clutter.sigma, forms.lam.shape
    nu = sigma2 * forms.lam
    z = float(np.max(nu, initial=0.0)) or 1.0
    rows = np.zeros((splits, k + 1, k + 1))  # row 0: D; row 1 + j: D without factor j
    rows[..., 0] = 1.0
    factors = (nu / z)[:, None, :] * (1.0 - np.eye(k + 1, k, -1))  # factor j left out of row 1 + j
    for i in range(k):
        rows[..., 1:] += rows[..., :-1] * factors[..., i, None]
    # with L >= N the rest r is 0 for every split, and so are ||r||^2 and e
    w = np.concatenate((np.broadcast_to(forms.rr, (splits,))[:, None], forms.qq), axis=-1)
    q1 = (w[:, None, :] @ rows)[:, 0]  # Q_1 D
    # T_l = e_l D + sum_j conj(q_j) G_jl D_-j, the clutter amplitude times D, and its size
    e, q, g = (np.array((m, abs(m))) for m in (np.broadcast_to(forms.e, forms.dd.shape), forms.q, forms.g))
    t = e[..., None] * rows[:, None, 0] + g.swapaxes(-1, -2) @ (q[..., None] * rows[:, 1:])
    # outer products whose antidiagonal sums are the coefficients, of x (gain' Q_1^2 D^2 - sigma^2/z
    # sum_l dd_l |T_l|^2) less ||r||^2 D^2 + sum_j |q_j|^2 D_-j^2, and then their sizes: the first
    # one column right of the second, as x raises the degree, and each row padded with zeros, so
    # that read at a width one less, row m moves m places right and the column sums are the
    # antidiagonal sums
    pairs = np.zeros((2, splits, k + 1, 2 * k + 3))
    scale = forms.gain / z / (forms.floor * forms.floor)
    pairs[..., 1 : k + 2] = scale[:, None, None] * q1[:, :, None] * q1[:, None, :]
    pairs[..., 1 : k + 2] += _SIGNS * (sigma2 / z) * ((t * forms.dd[..., None]).swapaxes(-1, -2) @ t.conj()).real
    pairs[..., : k + 1] += _SIGNS * ((rows * w[..., None]).swapaxes(-1, -2) @ rows)
    flat = pairs.reshape(2, splits, -1)[..., : (k + 1) * (2 * k + 2)]
    poly, mag = flat.reshape(2, splits, k + 1, 2 * k + 2).sum(axis=-2)
    return poly, _SAFETY * (3 * k + forms.dd.shape[-1] + 4) * _EPS * mag, z


def _sensing(forms: _SplitForms, powers: np.ndarray) -> list[np.ndarray]:
    """Over 1-D powers x the forms' splits, the decided (M, S) columns: the
    live flags, the deflections, |mu_1| and sigma^2. The forms give each
    value, except on a row with an entry they leave undecided (within _BAND
    of the floor, or of too large a rounding estimate), which the
    OperatingPoint record of its power gives whole."""
    p = powers[:, None]
    deflection, q1, q2, error = forms(p)
    columns = [np.repeat(forms.live[None], powers.size, axis=0), deflection, forms.mu1_unit * p * q1, forms.cc * p * q2]
    near = ~(_SAFETY * error <= _BAND / 1000.0)
    if math.isfinite(forms.floor):
        near |= abs(deflection - forms.floor) <= _BAND * abs(forms.floor)
    for m in np.flatnonzero(near.any(axis=-1)):
        point = forms.ctx.operating_point(float(powers[m]), forms.rhos)
        for column, value in zip(columns, (point.mu1_abs > 0.0, point.deflection, point.mu1_abs, point.sigma2)):
            column[m] = value
    return columns


def _verdicts(forms: _SplitForms, powers: np.ndarray) -> np.ndarray:
    """The feasible mask over 1-D powers x the forms' splits, (M, S): the SINR
    sum reaches 2^r - 1 and, in _sensing's columns of the rows where some
    split does, mu_1 is live with the deflection at the floor."""
    ok = forms.reaches(powers)
    rows = np.flatnonzero(ok.any(axis=-1))
    if rows.size:
        live, deflection, _, _ = _sensing(forms, powers[rows])
        ok[rows] &= live & (deflection >= forms.floor)
    return ok


def _values(poly: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Polynomials (R, n + 1) at points x > 0 divided by max(x, 1)^n, which
    keeps their signs and every power in range: on one grid (G,), a product
    with its Vandermonde matrix, or on a row of points (R, G) each."""
    y = np.empty(x.shape + poly.shape[-1:])
    y[..., 0], y[..., 1:] = 1.0, np.minimum(x, 1.0 / x)[..., None]
    y = np.multiply.accumulate(y, axis=-1)
    w = np.where((x > 1.0)[..., None], y[..., ::-1], y)
    return poly @ w.T if x.ndim == 1 else (w @ poly[..., :, None])[..., 0]


def _descartes(poly: np.ndarray, error: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per row of coefficients whose lowest nonzero one is negative, whether
    Descartes' rule of signs allows at most one positive root (the signs,
    zeros skipped, rise from - to + at most once) and whether there is one.
    A coefficient has a sign only beyond its rounding estimate; one within
    it, unless exactly 0, shuts the gate."""
    known = np.abs(poly) > error
    signs = np.where(known, np.sign(poly), 0.0)
    unknown = ~known & ((poly != 0.0) | (error != 0.0))
    falls = (np.maximum.accumulate(signs, axis=-1) > 0.0) & (signs < 0.0)
    return ~(unknown | falls).any(axis=-1), (signs > 0.0).any(axis=-1)


def _first_powers(forms: _SplitForms, lo: np.ndarray, p_max: float) -> np.ndarray:
    """Each split's least feasible power in [lo, p_max] where it can be the
    least of them, an upper bound on it elsewhere, inf where it has none. As
    h(0) < 0, a split whose polynomial has at most one positive root rises
    through the floor once or never: one log-power grid, shared by those
    splits, puts each crossing in a cell, and Newton steps in log P refine the
    cells that can hold the least. The other splits go to _crossings."""
    upper = np.where(forms.live, lo, np.inf)
    if not forms.floor > 0.0:  # a live split meets a floor of 0 or below at any power
        return upper if forms.floor < np.inf else np.full(lo.shape, np.inf)
    with np.errstate(all="ignore"):
        poly, error, z = _polynomial(forms)
        gated, rising = _descartes(poly, error)
        # a polynomial out of range leaves its split at lo, for the settling to climb from
        finite = np.isfinite(poly.sum(axis=-1) + error.sum(axis=-1) + upper)
    once, rest = finite & gated & rising, np.flatnonzero(finite & ~gated)
    upper[finite & gated & ~rising] = np.inf
    if once.any():
        grid = np.min(lo[once]) * (p_max / np.min(lo[once])) ** _UNIT
        grid[-1] = p_max
        below = (_values(poly, z * grid) < 0.0).sum(axis=-1)
        cells = np.maximum(lo, np.array((grid[below - 1], np.concatenate((grid, [np.inf]))[below])))
        upper[once] = cells[1, once]
        cell = np.flatnonzero(once & (cells[0] <= upper.min()) & (below > 0) & (below < grid.size))
        (a, b), c = np.log(cells[:, cell]), poly[cell]
        u, pair = 0.5 * (a + b), np.array((c, c * np.arange(c.shape[-1])))
        for _ in range(3):
            value, slope = _values(pair, z * np.exp(u)[:, None])[..., 0]
            u = np.fmin(np.fmax(u - value / slope, a), b)  # a step of nan stays in the cell
        upper[cell] = np.exp(u)
    if rest.size:
        upper[rest] = _crossings(forms, poly, error, z, lo[rest], p_max, rest)
    return upper


def _crossings(forms: _SplitForms, poly, error, z: float, lo: np.ndarray, p_max: float, rest: np.ndarray):
    """The least feasible power in [lo, p_max] (inf where none) of the splits
    rest, whose polynomials may cross the floor more than once. The candidate
    crossings are the positive, nearly real roots: reciprocal eigenvalues of
    the companion matrix of the reversed polynomial, monic by h(0) != 0. The
    polynomial's sign at an interior power decides each interval between
    them, or the verdicts where that sign lies within the evaluation's
    rounding."""
    n = poly.shape[-1] - 1
    companion = np.zeros((rest.size, n, n))
    companion[:, 0], companion[:, 1:, :-1] = -poly[rest, 1:] / poly[rest, :1], np.eye(n - 1)
    with np.errstate(divide="ignore", invalid="ignore"):
        x = 1.0 / np.linalg.eigvals(companion)
        roots = np.where((x.real > 0.0) & (np.abs(x.imag) <= 1e-6 * np.abs(x)), x.real / z, np.nan)
    roots = np.sort(np.where((roots > lo[:, None]) & (roots < p_max), roots, np.nan), axis=-1)
    ends = np.concatenate((lo[:, None], roots, np.full((rest.size, 1), np.nan)), axis=-1)
    ends[np.arange(rest.size), np.sum(np.isfinite(ends), axis=-1)] = p_max
    mids = np.sqrt(ends[:, :-1] * ends[:, 1:])
    where, x = np.isfinite(mids), z * np.where(np.isfinite(mids), mids, 1.0)
    value, bound = _values(poly[rest], x), _values(error[rest] + (n + 1) * _EPS * np.abs(poly[rest]), x)
    feasible, undecided = where & (value >= 0.0), where & ~(np.abs(value) > bound)
    ok = _verdicts(forms, mids[undecided])
    feasible[undecided] = ok[np.arange(ok.shape[0]), np.broadcast_to(rest[:, None], mids.shape)[undecided]]
    return np.where(feasible.any(axis=-1), ends[np.arange(rest.size), np.argmax(feasible, axis=-1)], np.inf)


def _settle(forms: _SplitForms, hi: float, p_min: float, p_max: float, tol: float):
    """A power the verdicts call feasible at some split while they call it
    over (1 + tol), or the float below it, infeasible at every split (or it
    lies below p_min), and its verdicts, each entry counted where
    forms.reaches reads it. One call reads hi and the power below it; where
    they disagree, doubling log steps find a bracket, bisected at its
    geometric midpoint until hi <= lo (1 + tol) or floats cannot split it.
    None for the power when none up to p_max is."""
    lo, step = min(hi / (1.0 + tol), math.nextafter(hi, 0.0)), max(tol, 4.0 * _EPS)
    at_lo, at_hi = _verdicts(forms, np.array([lo, hi]))
    at_lo = at_lo if lo >= p_min else None
    while not at_hi.any() or (at_lo is not None and at_lo.any()):
        if not at_hi.any():  # the crossing lies above hi
            if not hi < p_max:
                return None, at_hi
            lo, at_lo, hi = hi, at_hi, min(hi * (1.0 + step), p_max)
            at_hi = _verdicts(forms, np.array([hi]))[0]
        else:  # it lies below lo
            hi, at_hi, lo = lo, at_lo, max(lo / (1.0 + step), p_min)
            at_lo = _verdicts(forms, np.array([lo]))[0] if lo < hi else None
        step *= 2.0
    while at_lo is not None and hi > lo * (1.0 + tol) and lo < (mid := math.sqrt(lo * hi)) < hi:
        row = _verdicts(forms, np.array([mid]))[0]
        if row.any():
            hi, at_hi = mid, row
        else:
            lo = mid
    return hi, at_hi
