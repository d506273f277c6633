"""Energy-efficient power allocation under rate and detection constraints.

An operating point is a triple (P, rho, kappa): the budget P split between a
data beam, u = sqrt((1 - rho) P) u_hat, and a radar beam, v = sqrt(rho P)
v_hat, and the detector threshold kappa. It is feasible when the rate, the
false-alarm cap, the detection floor and the ceiling of the scenario's
targets section all hold; at a fixed (P, rho) both detector targets hold
exactly when the deflection sqrt(2)|mu_1|/sigma reaches Q^-1(P_FA,max) -
Q^-1(P_D,min), at the false-alarm threshold.

minimize_power finds p*, the least power in [P_min, P_max] (the power grid's
floor and the last 9-significant-digit power at or under the ceiling, so no
power the tables cannot print is searched) at which some split of the
optimizer's grid is feasible, without assuming feasibility is monotone in P;
none where P_max lies below P_min. It settles on hi
with p* <= hi <= p* (1 + tol_factor), feasible at its split, while
hi / (1 + tol_factor) is infeasible at every split; ties go to the smaller
rho. Its certificate is the triple the tables print, power and kappa rounded
up onto the 9-significant-digit grid, that evaluate_point accepts, or None
when no power up to P_max is feasible. tradeoff_sweep gives, at each
power of the scenario's dBm grid, the best rate, the best detection
probability under the false-alarm cap, and whether the targets hold jointly.

The search decides each (power, split) entry in _sensing alone, from the
split forms in P (_SplitForms) or the record of a row they leave undecided;
each split's crossings are roots of a quadratic and of a polynomial in P.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .comm_link import LinkSinrs, mrc_rate, rate_threshold
from .context import SimulationContext, build_context
from .detection import (
    detection_probability,
    false_alarm_probability,
    false_alarm_threshold,
)
from .radar_sensing import waveform_from_symbols
from .scenario import ScenarioConfig, dbm_to_watts, watts_to_dbm
from .stats import canonical_ceil, canonical_float, canonical_floor, digit_unit, inverse_q

__all__ = [
    "EvaluatedPoint",
    "OptimizationResult",
    "evaluate_point",
    "minimize_power",
    "tradeoff_sweep",
]

# slack for the by-construction budget identity ||u||^2 + ||v||^2 = P
_BUDGET_SLACK = 1.0e-9
# relative band around the deflection floor where the split forms defer to the
# record; they decide alone where _SAFETY times their estimated rounding error
# stays within _BAND / 1000 (their SINR sum is the record's, bit for bit)
_BAND, _SAFETY, _EPS = 1.0e-9, 16.0, float(np.finfo(float).eps)
# the points of each log-power grid that brackets a split's one crossing
_UNIT = np.linspace(0.0, 1.0, 256)
# a polynomial's coefficients less, then plus, a term, the second giving their sizes
_SIGNS = np.array([-1.0, 1.0])[:, None, None, None]


@dataclass(frozen=True)
class EvaluatedPoint:
    """Full audit of one (P, rho, kappa) triple against the targets."""

    power_watts: float
    rho: float
    kappa: float
    rate_bps_hz: float
    pfa: float
    pd: float
    scnr_avg: float
    meets_rate: bool
    meets_pfa: bool
    meets_pd: bool
    within_budget: bool

    @property
    def feasible(self) -> bool:
        return self.meets_rate and self.meets_pfa and self.meets_pd and self.within_budget


@dataclass(frozen=True)
class OptimizationResult:
    """The certified point, None when no power up to the ceiling is feasible,
    and the evaluations spent: the (P, rho) entries the search read, each
    counted by _SplitForms.reaches, plus one per certificate audit."""

    point: EvaluatedPoint | None
    evaluations: int

    @property
    def feasible(self) -> bool:
        return self.point is not None


def _rho_grid(opt) -> np.ndarray:
    """Inner split grid; a configured fixed split collapses it to one point.
    Each split i / (n - 1) is correctly rounded (linspace's i * step is not),
    so one that 9 digits write exactly has the bits of its printed text, and
    the certificate's record at that text reads the grid's kernel."""
    if opt.fixed_rho is not None:
        return np.array([float(opt.fixed_rho)])
    return np.arange(opt.rho_points) / (opt.rho_points - 1.0)


class _SplitForms:
    """The live flag, the deflection, Q_1 and Q_2 of every split of rhos in
    closed form in P, from the unit-power waveform x_1 and kernel (U, lam) at
    unit sigma: c = a^T x_1, q = U^H a, r = a - U q, G = U^H B, e = r^H B and
    d = B^T x_1. With s = sigma_c^2 P and f = 1/(1 + s lam), Q_1 = a^H W^-1 a =
    ||r||^2 + sum |q|^2 f, |mu_1| = |alpha_0| P |c|^2 Q_1 and sigma^2 = P |c|^2 Q_2,
    where Q_2 = ||r||^2 + sum |q|^2 f^2 + s sum_l |d_l|^2 |e_l + sum_j conj(q_j) f_j G_jl|^2;
    the SINRs are comm_link.LinkSinrs, the record's own.

    The sensing terms, the grid's kernel among them, are made on first use
    (_sense), so a search where no split reaches the rate decomposes nothing."""

    def __init__(self, ctx: SimulationContext, rhos: np.ndarray):
        self.ctx, self.rhos, targets = ctx, rhos, ctx.scenario.targets
        self.threshold = rate_threshold(targets.rate_bps_hz)
        self.floor = inverse_q(targets.pfa_max) - inverse_q(targets.pd_min)  # -inf at pd_min = 0, +inf at 1
        self.link, self.entries = LinkSinrs(ctx, rhos), 0  # entries: every (power, split) reaches read
        self.lam = None  # made with the other sensing terms by _sense, on the first call

    def _sense(self) -> None:
        """The sensing terms, from the unit-power waveform and the grid's kernel."""
        ctx, rhos = self.ctx, self.rhos
        kernel, a, b = ctx.unit_kernel(rhos), ctx.target_steering, ctx.clutter.matrix
        (r, q), x = kernel._split(a), waveform_from_symbols(ctx.beams_at(1.0, rhos), ctx.symbols)
        self.cc, self.dd, self.lam = np.abs(x @ a) ** 2, np.abs(x @ b) ** 2, kernel._lam
        self.rr, self.qq = np.sum(np.abs(r) ** 2, axis=-1), np.abs(q) ** 2
        self.q, self.e, self.g = q.conj(), r.conj() @ b, kernel._vecs.conj().swapaxes(-1, -2) @ b
        self.gain = 2.0 * abs(ctx.alpha0) ** 2 * self.cc  # deflection^2 = gain P Q_1^2 / Q_2
        self.live = self.gain > 0.0
        self.mu1_unit = abs(ctx.alpha0) * self.cc  # |mu_1| = |alpha_0| |c|^2 P Q_1
        # a dot product with a steering vector rounds by sqrt(N) eps per unit norm of its other factor
        self.n, x_scale = a.size, math.sqrt(a.size) * np.linalg.norm(x, axis=-1)
        with np.errstate(divide="ignore"):  # c = 0 leaves whether mu_1 is live to the record
            self.c_cond = x_scale / np.sqrt(self.cc)
        self.d_mag, self.spread = np.sqrt(self.dd) * x_scale[..., None], math.sqrt(a.size * (q.shape[-1] + 1))

    def reaches(self, powers: np.ndarray) -> np.ndarray:
        """Whether gamma_sd + gamma_rd reaches 2^r - 1, over 1-D powers x
        splits; each entry adds one to entries, the search's one count."""
        gamma_sd, gamma_rd = self.link(powers[:, None])
        self.entries += gamma_sd.size
        return gamma_sd + gamma_rd >= self.threshold

    def __call__(self, power_watts):
        """The deflection, Q_1, Q_2 and an estimate of the deflection's relative
        rounding error at power_watts (a float or an (M, 1) column)."""
        if self.lam is None:
            self._sense()
        p = np.asarray(power_watts, dtype=float)
        scale = self.ctx.clutter.sigma * self.ctx.clutter.sigma * p  # s = sigma^2 P, as the record forms it
        f = 1.0 / (1.0 + scale[..., None] * self.lam)
        q1, w2 = self.rr + np.vecdot(f, self.qq), self.rr + np.vecdot(f * f, self.qq)
        tt = np.abs(self.e + ((self.q * f)[..., None, :] @ self.g)[..., 0, :]) ** 2
        q2 = w2 + scale * np.vecdot(tt, self.dd)
        # first-order rounding of each cancelling sum times the size of its terms (Q_1, Q_2 >= W_2)
        t_mag = self.n * (1.0 + 2.0 * np.sum(f, axis=-1))
        clutter = np.vecdot(tt, self.d_mag) + t_mag * np.vecdot(np.sqrt(tt) + t_mag[..., None] * _EPS / 2, self.dd)
        error = self.c_cond + 3.0 * self.spread / np.sqrt(w2) + scale * clutter / q2
        return np.sqrt(self.gain * p / q2) * q1, q1, q2, _EPS * error


def _split_forms(ctx: SimulationContext) -> _SplitForms:
    """The forms over the scenario's split grid, made on the context's first
    call and returned by every later one, so a command's tradeoff rows and
    power search reduce the grid once."""
    if ctx._split_forms is None:
        object.__setattr__(ctx, "_split_forms", _SplitForms(ctx, _rho_grid(ctx.scenario.optimizer)))
    return ctx._split_forms


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



def evaluate_point(
    scenario: ScenarioConfig | SimulationContext,
    power_watts: float,
    rho: float,
    kappa: float | None,
) -> EvaluatedPoint:
    """Audit one operating triple at a positive power against the scenario's
    targets: build its record, then check every target. A kappa of None takes
    the record's false-alarm threshold rounded up onto the 9-significant-digit
    emission grid, the threshold a certificate prints. The context's one
    unit-power kernel of the split serves both the record and the averaged SCNR."""
    ctx = scenario if isinstance(scenario, SimulationContext) else build_context(scenario)
    targets = ctx.scenario.targets
    if not power_watts > 0.0:
        raise ValueError(f"power must be positive, got {power_watts}")
    point = ctx.operating_point(power_watts, rho)
    moments = point.mu1_abs, point.sigma2
    if kappa is None:
        kappa = canonical_ceil(false_alarm_threshold(*moments, targets.pfa_max))
    pfa, pd = float(false_alarm_probability(*moments, kappa)), float(detection_probability(*moments, kappa))
    spent = float(sum(np.vdot(beam, beam).real for beam in point.beams))
    scnr_avg = ctx.average_scnr_curve(rho, [power_watts])[0]
    return EvaluatedPoint(
        power_watts=power_watts,
        rho=rho,
        kappa=kappa,
        rate_bps_hz=float(mrc_rate(point.gamma_direct, point.gamma_relayed)),
        pfa=pfa,
        pd=pd,
        scnr_avg=float(scnr_avg),
        meets_rate=bool(point.gamma_direct + point.gamma_relayed >= rate_threshold(targets.rate_bps_hz)),
        meets_pfa=pfa <= targets.pfa_max,
        meets_pd=pd >= targets.pd_min,
        within_budget=spent <= power_watts + _BUDGET_SLACK * max(1.0, power_watts),
    )


def _certificate(ctx: SimulationContext, power: float, rho: float, p_max: float) -> tuple[EvaluatedPoint | None, int]:
    """The first triple on the 9-significant-digit emission grid that
    evaluate_point accepts, and the evaluations spent; None past the ceiling
    p_max, a grid value.
    Power rounds up onto the grid, to p_0, and each candidate is one
    evaluate_point whose record gives kappa_fa, rounded up onto the grid too,
    and is audited at it; rounding kappa up can drop P_D below its floor. The
    candidates are p_0, p_0 + u, p_0 + 3u, p_0 + 7u, ..., the step doubling
    from one grid unit u, so grid powers between them (p_0 + 2u, p_0 + 4u, ...)
    are never tried, and the power returned need not be the least accepted."""
    rho = canonical_float(rho)
    p, units, evaluations = canonical_ceil(power), 1, 0
    while p <= p_max:
        point = evaluate_point(ctx, p, rho, None)
        evaluations += 1
        if point.feasible:
            return point, evaluations
        p, units = canonical_ceil(math.nextafter(p + (units - 1) * digit_unit(p), math.inf)), 2 * units
    return None, evaluations


def minimize_power(ctx: SimulationContext) -> OptimizationResult:
    """Smallest power whose best (rho, kappa) satisfies every target of the
    context's scenario."""
    scenario, tol = ctx.scenario, ctx.scenario.optimizer.tol_factor
    p_min, p_max = dbm_to_watts(scenario.power.min_dbm), canonical_floor(dbm_to_watts(scenario.targets.p_max_dbm))
    forms = _split_forms(ctx)  # reduced once; the search and the tradeoff rows read it
    start, hi, point, audits = forms.entries, math.inf, None, 0
    reach = forms.reaches(np.array([p_max]))[0]
    if reach.any() and p_min <= p_max:  # decided before any sensing term is made
        if forms.lam is None:
            forms._sense()
        lo = np.where(reach, np.clip(_rate_floor(forms), p_min, p_max), np.inf)
        hi = float(_first_powers(forms, lo, p_max).min())
    if hi < math.inf:
        # the least crossing, nudged past its rounding unless it is the floor, and not past the ceiling
        hi = min(hi * (1.0 + min(tol / 4.0, 1e-6)), p_max) if hi > p_min else hi
        hi, at_hi = _settle(forms, hi, p_min, p_max, tol)
        if hi is not None:
            point, audits = _certificate(ctx, hi, float(forms.rhos[np.argmax(at_hi)]), p_max)
    return OptimizationResult(point, forms.entries - start + audits)


def _tradeoff_record(forms: _SplitForms, powers: np.ndarray) -> dict:
    """The tradeoff rows of a 1-D array of powers, as arrays keyed by
    tradeoff_sweep's columns, from _sensing's decided columns over powers x
    ascending splits, the ones the search's verdicts read.
    Each row takes the rate of its first split and kappa_fa, P_D and P_FA at
    its live split of largest deflection, in one closed-form call per column;
    a row with no live split reads rho = rhos[0] and kappa = P_D = P_FA = 0."""
    pfa_max, rhos = forms.ctx.scenario.targets.pfa_max, forms.rhos
    live, deflection, mu1_abs, sigma2 = _sensing(forms, powers)
    # P_D at the false-alarm threshold grows with the deflection; argmax takes
    # the first maximum, so ties go to the smallest rho, and a row with no
    # live split to rhos[0]
    sharpest = np.argmax(np.where(live, deflection, -np.inf), axis=-1, keepdims=True)
    on = live.any(axis=-1)
    mu1_abs, sigma2 = (np.take_along_axis(m, sharpest, -1)[on, 0] for m in (mu1_abs, sigma2))
    kappa, pd, pfa = np.zeros((3, powers.size))
    kappa[on] = k = false_alarm_threshold(mu1_abs, sigma2, pfa_max)
    pd[on], pfa[on] = detection_probability(mu1_abs, sigma2, k), false_alarm_probability(mu1_abs, sigma2, k)
    # gamma_sd + gamma_rd falls strictly in rho (so the rate does too), and the
    # grid starts at rho = 0 or is the one fixed split: the fastest is column 0
    gamma_sd, gamma_rd = forms.link(powers[:, None])
    return {
        "power_watts": powers, "rho": rhos[sharpest[:, 0]], "kappa": kappa,
        "rate_bps_hz": mrc_rate(gamma_sd[:, 0], gamma_rd[:, 0]), "pd": pd, "pfa": pfa,
        "feasible": ((gamma_sd + gamma_rd >= forms.threshold) & live & (deflection >= forms.floor)).any(axis=-1),
    }


def tradeoff_sweep(ctx: SimulationContext) -> dict[str, np.ndarray]:
    """Best rate, best guarded detection and joint feasibility at each power of
    the scenario's dBm grid, from its floor to the ceiling, as arrays over
    ascending power keyed power_watts, rho, kappa, rate_bps_hz, pd, pfa and
    feasible."""
    sc = ctx.scenario
    # the grid tops out at the ceiling read back from watts, which can differ
    # from p_max_dbm in the last bit; the tables are built on that grid
    p_max_dbm = watts_to_dbm(dbm_to_watts(sc.targets.p_max_dbm))
    grid_dbm = np.linspace(sc.power.min_dbm, p_max_dbm, sc.power.points)
    powers = np.array([float(dbm_to_watts(p)) for p in grid_dbm])
    return _tradeoff_record(_split_forms(ctx), powers)
