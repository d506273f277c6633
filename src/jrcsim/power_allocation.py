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

Power enters the interference covariance as one scale, W(P) = I + P M(rho),
so each call decomposes its split grid once, at unit power, and every power
it probes scales that one kernel. A probe evaluates the whole split grid at
once: its OperatingPoint carries beams, waveforms, w, mu_1, sigma^2, the
deflection and both SINRs along a leading split axis. The coarse walk stacks
every grid power in one record, as tradeoff_sweep does, and counts the
evaluations a power-by-power walk would spend up to its stop. The first
feasible split and the split of best guarded detection are first-index
argmaxes over those, so the tie-breaks are a power-by-power, split-by-split
scan's, and every entry equals, bit for bit, the record of that power and
split alone. tradeoff_sweep runs the closed forms once on the columns of each
row's chosen splits, and evaluate_point runs them on its one record.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .comm_link import mrc_rate, rate_threshold
from .context import OperatingPoint, SimulationContext, build_context
from .detection import (
    detection_probability,
    false_alarm_probability,
    false_alarm_threshold,
)
from .radar_sensing import InterferenceKernel, average_scnr_curve
from .scenario import ScenarioConfig, TargetsSection, dbm_to_watts, watts_to_dbm
from .stats import canonical_ceil, canonical_float, inverse_q

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


def _feasible(point: OperatingPoint, targets: TargetsSection) -> np.ndarray:
    """Where a record meets the rate target and, at its false-alarm threshold,
    both detector targets: the SINR sum reaches 2^r - 1, mu_1 is live, and the
    deflection reaches Q^-1(pfa_max) - Q^-1(pd_min) (-inf when pd_min = 0,
    +inf when pd_min = 1)."""
    floor = inverse_q(targets.pfa_max) - inverse_q(targets.pd_min)
    meets_rate = point.gamma_direct + point.gamma_relayed >= rate_threshold(targets.rate_bps_hz)
    return meets_rate & (point.mu1_abs > 0.0) & (point.deflection >= floor)


def _first_feasible(
    ctx: SimulationContext,
    power_watts,
    rhos: np.ndarray,
    kernel: InterferenceKernel | None = None,
) -> tuple[int | None, int]:
    """The flat index of the first feasible entry of the record at
    power_watts over rhos, if any, and the entries scanned up to and
    including it (all of them when none is). An (M, 1) column of ascending
    powers is scanned power by power, so the index is power-major. The
    kernel is ctx.unit_kernel(rhos), built here unless handed in."""
    ok = _feasible(ctx.operating_point(power_watts, rhos, kernel), ctx.scenario.targets).ravel()
    if not ok.any():
        return None, ok.size
    i = int(np.argmax(ok))
    return i, i + 1


def evaluate_point(
    scenario: ScenarioConfig | SimulationContext,
    power_watts: float,
    rho: float,
    kappa: float | None,
) -> EvaluatedPoint:
    """Audit one operating triple at a positive power against the scenario's
    targets: build its record, then check every target. A kappa of None takes
    the record's false-alarm threshold rounded up onto the 9-significant-digit
    emission grid, the threshold a certificate prints. One unit-power
    decomposition of the split serves both the record and the averaged SCNR."""
    ctx = scenario if isinstance(scenario, SimulationContext) else build_context(scenario)
    targets = ctx.scenario.targets
    if not power_watts > 0.0:
        raise ValueError(f"power must be positive, got {power_watts}")
    kernel = ctx.unit_kernel(rho)
    point = ctx.operating_point(power_watts, rho, kernel)
    moments = point.mu1_abs, point.sigma2
    if kappa is None:
        kappa = canonical_ceil(false_alarm_threshold(*moments, targets.pfa_max))
    pfa, pd = float(false_alarm_probability(*moments, kappa)), float(detection_probability(*moments, kappa))
    spent = float(sum(np.vdot(beam, beam).real for beam in point.beams))
    a, unit_beams = ctx.target_steering, ctx.beams_at(1.0, rho)
    scnr_avg = average_scnr_curve(ctx.clutter, ctx.alpha0, a, unit_beams, [power_watts], kernel)[0]
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


def _certificate(
    ctx: SimulationContext,
    power_watts: float,
    rho: float,
) -> tuple[EvaluatedPoint | None, int]:
    """The evaluated triple on the 9-significant-digit emission grid that
    evaluate_point accepts at the least power from power_watts up, and the
    evaluations spent; None past the ceiling. Power rounds up onto the grid,
    and each candidate is one evaluate_point whose record gives kappa_fa,
    rounded up onto the grid too, and is audited at it; rounding kappa up can
    drop P_D below its floor, and the power then steps up the grid, the step
    doubling from one unit, until it does not."""
    rho, p_max = canonical_float(rho), dbm_to_watts(ctx.scenario.targets.p_max_dbm)
    p, units, evaluations = canonical_ceil(power_watts), 1, 0
    while p <= p_max:
        point = evaluate_point(ctx, p, rho, None)
        evaluations += 1
        if point.feasible:
            return point, evaluations
        unit = 10.0 ** (math.floor(math.log10(p)) - 8)
        p, units = canonical_ceil(math.nextafter(p + (units - 1) * unit, math.inf)), 2 * units
    return None, evaluations


def minimize_power(ctx: SimulationContext) -> OptimizationResult:
    """Smallest power whose best (rho, kappa) satisfies every target of the
    context's scenario."""
    scenario, opt = ctx.scenario, ctx.scenario.optimizer
    powers = np.geomspace(
        dbm_to_watts(scenario.power.min_dbm), dbm_to_watts(scenario.targets.p_max_dbm), opt.power_points
    )
    rhos = _rho_grid(opt)
    kernel = ctx.unit_kernel(rhos)

    first, evaluations = _first_feasible(ctx, powers[:, None], rhos, kernel)
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
            k, n = _first_feasible(ctx, mid, rhos, kernel)
            evaluations += n
            if k is not None:
                hi, rho_star = mid, float(rhos[k])
            else:
                lo = mid
    point, n = _certificate(ctx, hi, rho_star)
    return OptimizationResult(point, evaluations + n)


def _tradeoff_record(ctx: SimulationContext, powers: np.ndarray, rhos: np.ndarray) -> dict:
    """The tradeoff rows of a 1-D array of powers, as arrays keyed by
    tradeoff_sweep's columns, from one record over powers x splits. Each row
    takes the rate of its fastest split and kappa_fa, P_D and P_FA at its
    live split of largest deflection, in one closed-form call per column; a
    row with no live split reads rho = rhos[0] and kappa = P_D = P_FA = 0."""
    targets = ctx.scenario.targets
    point = ctx.operating_point(powers[:, None], rhos)
    gamma_sum = point.gamma_direct + point.gamma_relayed
    live = point.mu1_abs > 0.0
    # the rate is log2(1 + gamma_sum), so the best rate sits at the largest sum;
    # P_D at the false-alarm threshold grows with the deflection; argmax takes
    # the first maximum, so ties go to the smallest rho, and a row with no
    # live split to rhos[0]
    fastest = np.argmax(1.0 + gamma_sum, axis=-1, keepdims=True)
    sharpest = np.argmax(np.where(live, point.deflection, -np.inf), axis=-1, keepdims=True)
    on = live.any(axis=-1)
    mu1_abs, sigma2 = (np.take_along_axis(m, sharpest, -1)[on, 0] for m in (point.mu1_abs, point.sigma2))
    kappa, pd, pfa = np.zeros((3, powers.size))
    kappa[on] = k = false_alarm_threshold(mu1_abs, sigma2, targets.pfa_max)
    pd[on], pfa[on] = detection_probability(mu1_abs, sigma2, k), false_alarm_probability(mu1_abs, sigma2, k)
    rate = mrc_rate(*(np.take_along_axis(g, fastest, -1)[:, 0] for g in (point.gamma_direct, point.gamma_relayed)))
    return {
        "power_watts": powers, "rho": rhos[sharpest[:, 0]], "kappa": kappa,
        "rate_bps_hz": rate, "pd": pd, "pfa": pfa, "feasible": _feasible(point, targets).any(axis=-1),
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
