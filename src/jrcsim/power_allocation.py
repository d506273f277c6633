"""Energy-efficient power allocation under rate and detection constraints.

An operating point is a triple (P, rho, kappa): the budget P split between a
data beam, u = sqrt((1 - rho) P) u_hat, and a radar beam, v = sqrt(rho P)
v_hat, and the detector threshold kappa. It is feasible when the rate, the
false-alarm cap, the detection floor and the ceiling of the scenario's
targets section all hold; at a fixed (P, rho) both detector targets hold
exactly when the deflection sqrt(2)|mu_1|/sigma reaches Q^-1(P_FA,max) -
Q^-1(P_D,min), at the false-alarm threshold.

minimize_power finds p*, the least power in [P_min, P_max] (the power grid's
floor and the ceiling) at which some split of the optimizer's grid is
feasible, without assuming feasibility is monotone in P. It settles on hi
with p* <= hi <= p* (1 + tol_factor), feasible at its split, while
hi / (1 + tol_factor) is infeasible at every split; ties go to the smaller
rho. Its certificate is the triple the tables print, power and kappa rounded
up onto the 9-significant-digit grid, that evaluate_point accepts, or None
when no power up to the ceiling is feasible. tradeoff_sweep gives, at each
power of the scenario's dBm grid, the best rate, the best detection
probability under the false-alarm cap, and whether the targets hold jointly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .comm_link import LinkSinrs, mrc_rate, rate_threshold
from .context import SimulationContext, build_context
from .crossings import _EPS, _first_powers, _rate_floor, _sensing, _settle
from .detection import (
    detection_probability,
    false_alarm_probability,
    false_alarm_threshold,
)
from .radar_sensing import waveform_from_symbols
from .scenario import ScenarioConfig, TargetsSection, dbm_to_watts, watts_to_dbm
from .stats import canonical_ceil, canonical_float, digit_unit, inverse_q

__all__ = [
    "EvaluatedPoint",
    "OptimizationResult",
    "evaluate_point",
    "minimize_power",
    "tradeoff_sweep",
]

# slack for the by-construction budget identity ||u||^2 + ||v||^2 = P
_BUDGET_SLACK = 1.0e-9


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


def _deflection_floor(targets: TargetsSection) -> float:
    """Q^-1(pfa_max) - Q^-1(pd_min): -inf when pd_min = 0, +inf when pd_min = 1."""
    return inverse_q(targets.pfa_max) - inverse_q(targets.pd_min)


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
        self.threshold, self.floor = rate_threshold(targets.rate_bps_hz), _deflection_floor(targets)
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


def _certificate(ctx: SimulationContext, power_watts: float, rho: float) -> tuple[EvaluatedPoint | None, int]:
    """The first triple on the 9-significant-digit emission grid that
    evaluate_point accepts, and the evaluations spent; None past the ceiling.
    Power rounds up onto the grid, to p_0, and each candidate is one
    evaluate_point whose record gives kappa_fa, rounded up onto the grid too,
    and is audited at it; rounding kappa up can drop P_D below its floor. The
    candidates are p_0, p_0 + u, p_0 + 3u, p_0 + 7u, ..., the step doubling
    from one grid unit u, so grid powers between them (p_0 + 2u, p_0 + 4u, ...)
    are never tried, and the power returned need not be the least accepted."""
    rho, p_max = canonical_float(rho), dbm_to_watts(ctx.scenario.targets.p_max_dbm)
    p, units, evaluations = canonical_ceil(power_watts), 1, 0
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
    p_min, p_max = dbm_to_watts(scenario.power.min_dbm), dbm_to_watts(scenario.targets.p_max_dbm)
    forms = _split_forms(ctx)  # reduced once; the search and the tradeoff rows read it
    start, hi, point, audits = forms.entries, math.inf, None, 0
    reach = forms.reaches(np.array([p_max]))[0]
    if reach.any():  # decided before any sensing term is made
        if forms.lam is None:
            forms._sense()
        lo = np.where(reach, np.clip(_rate_floor(forms), p_min, p_max), np.inf)
        hi = float(_first_powers(forms, lo, p_max).min())
    if hi < math.inf:
        # the least crossing, nudged past its rounding unless it is the floor, and not past the ceiling
        hi = min(hi * (1.0 + min(tol / 4.0, 1e-6)), p_max) if hi > p_min else hi
        hi, at_hi = _settle(forms, hi, p_min, p_max, tol)
        if hi is not None:
            point, audits = _certificate(ctx, hi, float(forms.rhos[np.argmax(at_hi)]))
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
