"""Energy-efficient power allocation under rate and detection constraints.

The transmitter splits a budget P between a data beam matched to the
destination channel and a radar beam matched to the target steering
direction: u = sqrt((1 - rho) P) u_hat, v = sqrt(rho P) v_hat. With the
directions fixed, an operating point is the triple (P, rho, kappa) where
kappa is the detector threshold. Four constraints, read from the scenario's
targets section, gate feasibility: the relay-combined rate must reach its
target, the false-alarm probability must not exceed its limit, the detection
probability must reach its floor, and the spent power must stay within the
ceiling.

At a fixed (P, rho) both detector targets hold exactly when the deflection
sqrt(2)|mu_1|/sigma reaches Q^-1(P_FA,max) - Q^-1(P_D,min), and then at the
false-alarm threshold kappa_fa, the smallest that meets the cap.

minimize_power finds the first feasible point of an ascending coarse power
grid, then bisects the bracketing interval at its geometric midpoint until
hi <= lo (1 + tol_factor) or it cannot be split further, re-optimizing rho at
every probe. Ties prefer smaller P, then smaller rho, then smaller kappa. The
certificate is the triple the tables print, audited by evaluate_point; the
result is that evaluated point, or None past the ceiling, and the evaluations
spent. tradeoff_sweep returns, as arrays over the grid powers, the best
achievable rate, the best detection probability subject to the false-alarm
limit, and whether the constraint set is jointly satisfiable there. Both take
a context; evaluate_point also builds one from a scenario.

Power and clutter power enter the interference covariance as one scale,
W(s) = I + s M(rho) with s = sigma^2 P, so the context decomposes each split
grid once, at unit sigma and power (SimulationContext.unit_kernel), and every
probe on that grid scales that one kernel. Both commands decide from per-split
closed forms in P (_SplitForms), terms of O(L) and O(L^2) numbers per split
with no beams, waveform or beamformer, and read them through one rule
(_verdicts): the coarse walk, each bisection probe and every tradeoff row.
Their SINR sum is comm_link.LinkSinrs, the record's own, so the rate test is
the record's bit for bit. A power row with an entry within a relative _BAND
of the deflection floor, or whose rounding estimate is too large, takes the
OperatingPoint record of that power over the splits, so every decision is
the record's; the walk counts, and breaks ties, as a power-by-power,
split-by-split scan of the record does. evaluate_point builds its one record.
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
# relative band around the deflection floor where the split forms defer to the
# record; they decide alone where _SAFETY times their estimated rounding error
# stays within _BAND / 1000 (their SINR sum is the record's, bit for bit)
_BAND, _SAFETY, _EPS = 1.0e-9, 16.0, float(np.finfo(float).eps)


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
    and the evaluations spent finding it."""

    point: EvaluatedPoint | None
    evaluations: int

    @property
    def feasible(self) -> bool:
        return self.point is not None


def _rho_grid(opt) -> np.ndarray:
    """Inner split grid; a configured fixed split collapses it to one point."""
    if opt.fixed_rho is not None:
        return np.array([float(opt.fixed_rho)])
    return np.linspace(0.0, 1.0, opt.rho_points)


def _deflection_floor(targets: TargetsSection) -> float:
    """Q^-1(pfa_max) - Q^-1(pd_min): -inf when pd_min = 0, +inf when pd_min = 1."""
    return inverse_q(targets.pfa_max) - inverse_q(targets.pd_min)


class _SplitForms:
    """gamma_sd + gamma_rd, the live flag, the deflection, |mu_1| and sigma^2 of
    every split of rhos in closed form in P, from the unit-power waveform x_1
    and kernel (U, lam) at unit sigma: c = a^T x_1, q = U^H a, r = a - U q, G = U^H B, e = r^H B
    and d = B^T x_1. With s = sigma_c^2 P and f = 1/(1 + s lam), Q_1 = a^H W^-1 a =
    ||r||^2 + sum |q|^2 f, |mu_1| = |alpha_0| P |c|^2 Q_1 and sigma^2 = P |c|^2 Q_2,
    where Q_2 = ||r||^2 + sum |q|^2 f^2 + s sum_l |d_l|^2 |e_l + sum_j conj(q_j) f_j G_jl|^2;
    the SINRs are comm_link.LinkSinrs, the record's own."""

    def __init__(self, ctx: SimulationContext, rhos: np.ndarray):
        self.ctx, self.rhos, kernel = ctx, rhos, ctx.unit_kernel(rhos)
        targets, a, b = ctx.scenario.targets, ctx.target_steering, ctx.clutter.matrix
        self.threshold, self.floor = rate_threshold(targets.rate_bps_hz), _deflection_floor(targets)
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
        self.link = LinkSinrs(ctx, rhos)

    def __call__(self, power_watts):
        """gamma_sd + gamma_rd, the deflection, |mu_1|, sigma^2 and an estimate of
        the deflection's relative rounding error at power_watts (a float or an
        (M, 1) column)."""
        p = np.asarray(power_watts, dtype=float)
        gamma_sd, gamma_rd = self.link(p)
        scale = self.ctx.clutter.sigma * self.ctx.clutter.sigma * p  # s = sigma^2 P, as the record forms it
        f = 1.0 / (1.0 + scale[..., None] * self.lam)
        q1, w2 = self.rr + np.vecdot(f, self.qq), self.rr + np.vecdot(f * f, self.qq)
        tt = np.abs(self.e + ((self.q * f)[..., None, :] @ self.g)[..., 0, :]) ** 2
        q2 = w2 + scale * np.vecdot(tt, self.dd)
        # first-order rounding of each cancelling sum times the size of its terms (Q_1, Q_2 >= W_2)
        t_mag = self.n * (1.0 + 2.0 * np.sum(f, axis=-1))
        clutter = np.vecdot(tt, self.d_mag) + t_mag * np.vecdot(np.sqrt(tt) + t_mag[..., None] * _EPS / 2, self.dd)
        error = self.c_cond + 3.0 * self.spread / np.sqrt(w2) + scale * clutter / q2
        deflection, mu1_abs, sigma2 = np.sqrt(self.gain * p / q2) * q1, self.mu1_unit * p * q1, self.cc * p * q2
        return gamma_sd + gamma_rd, deflection, mu1_abs, sigma2, _EPS * error


def _verdicts(forms: _SplitForms, powers: np.ndarray) -> tuple[np.ndarray, ...]:
    """(feasible, live, deflection, |mu_1|, sigma^2) over 1-D powers x the forms'
    splits, each (M, S). An entry is feasible where the SINR sum reaches
    2^r - 1, mu_1 is live, and the deflection reaches the floor. A power row
    with an entry the forms leave undecided takes all five from the record of
    that power over the splits."""
    gamma, deflection, mu1_abs, sigma2, error = forms(powers[:, None])
    live = np.repeat(forms.live[None], powers.size, axis=0)
    near = ~(_SAFETY * error <= _BAND / 1000.0)
    if math.isfinite(forms.floor):
        near |= abs(deflection - forms.floor) <= _BAND * abs(forms.floor)
    for m in np.flatnonzero(near.any(axis=-1)):
        point = forms.ctx.operating_point(float(powers[m]), forms.rhos)
        live[m], deflection[m] = point.mu1_abs > 0.0, point.deflection
        mu1_abs[m], sigma2[m] = point.mu1_abs, point.sigma2
    return (gamma >= forms.threshold) & live & (deflection >= forms.floor), live, deflection, mu1_abs, sigma2


def _first_feasible(forms: _SplitForms, power_watts) -> tuple[int | None, int]:
    """The flat index of the first feasible entry at power_watts (a float or
    an array of ascending powers) over the forms' splits, if any, and the
    entries scanned up to and including it (all of them when none is). An
    array is scanned power by power, so the index is power-major."""
    ok = _verdicts(forms, np.asarray(power_watts, dtype=float).reshape(-1))[0]
    i = int(np.argmax(ok)) if ok.any() else None
    return (None, ok.size) if i is None else (i, i + 1)


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
    scenario, opt = ctx.scenario, ctx.scenario.optimizer
    powers = np.geomspace(
        dbm_to_watts(scenario.power.min_dbm), dbm_to_watts(scenario.targets.p_max_dbm), opt.power_points
    )
    rhos = _rho_grid(opt)
    forms = _SplitForms(ctx, rhos)  # reduced once; every probe of the search reads it

    first, evaluations = _first_feasible(forms, powers)
    if first is None:
        return OptimizationResult(None, evaluations)
    i, k = divmod(first, len(rhos))
    rho_star, hi = float(rhos[k]), float(powers[i])
    if i > 0:
        # bracket: powers[i - 1] infeasible, hi feasible
        lo = float(powers[i - 1])
        while hi > lo * (1.0 + opt.tol_factor):
            mid = math.sqrt(lo * hi)
            if not lo < mid < hi:
                break  # the bracket is as narrow as floats allow
            k, n = _first_feasible(forms, mid)
            evaluations += n
            if k is not None:
                hi, rho_star = mid, float(rhos[k])
            else:
                lo = mid
    point, n = _certificate(ctx, hi, rho_star)
    return OptimizationResult(point, evaluations + n)


def _tradeoff_record(ctx: SimulationContext, powers: np.ndarray, rhos: np.ndarray) -> dict:
    """The tradeoff rows of a 1-D array of powers, as arrays keyed by
    tradeoff_sweep's columns, from the split forms over powers x ascending
    splits, read as the walk reads them (_verdicts). Each row takes the rate of
    its first split and kappa_fa, P_D and P_FA at its live split of largest
    deflection, in one closed-form call per column; a row with no live split
    reads rho = rhos[0] and kappa = P_D = P_FA = 0."""
    targets, forms = ctx.scenario.targets, _SplitForms(ctx, rhos)
    feasible, live, deflection, mu1_abs, sigma2 = _verdicts(forms, powers)
    # P_D at the false-alarm threshold grows with the deflection; argmax takes
    # the first maximum, so ties go to the smallest rho, and a row with no
    # live split to rhos[0]
    sharpest = np.argmax(np.where(live, deflection, -np.inf), axis=-1, keepdims=True)
    on = live.any(axis=-1)
    mu1_abs, sigma2 = (np.take_along_axis(m, sharpest, -1)[on, 0] for m in (mu1_abs, sigma2))
    kappa, pd, pfa = np.zeros((3, powers.size))
    kappa[on] = k = false_alarm_threshold(mu1_abs, sigma2, targets.pfa_max)
    pd[on], pfa[on] = detection_probability(mu1_abs, sigma2, k), false_alarm_probability(mu1_abs, sigma2, k)
    # gamma_sd + gamma_rd falls strictly in rho (so the rate does too), and the
    # grid starts at rho = 0 or is the one fixed split: the fastest is column 0
    rate = mrc_rate(*(gamma[:, 0] for gamma in forms.link(powers[:, None])))
    return {
        "power_watts": powers, "rho": rhos[sharpest[:, 0]], "kappa": kappa,
        "rate_bps_hz": rate, "pd": pd, "pfa": pfa, "feasible": feasible.any(axis=-1),
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
    return _tradeoff_record(ctx, powers, _rho_grid(sc.optimizer))
