"""Energy-efficient power allocation under rate and detection constraints.

The transmitter splits a budget P between a data beam matched to the
destination channel and a radar beam matched to the target steering
direction: u = sqrt((1 - rho) P) u_hat, v = sqrt(rho P) v_hat. With the
directions fixed, an operating point is the triple (P, rho, kappa) where
kappa is the detector threshold. Four constraints gate feasibility: the
relay-combined rate must reach its target, the false-alarm probability must
not exceed its limit, the detection probability must reach its floor, and
the spent power must stay within the ceiling.

minimize_power walks an ascending coarse power grid to the first feasible
point, then bisects the bracketing interval, re-optimizing (rho, kappa) at
every probe. Ties prefer smaller P, then smaller rho, then smaller kappa.
The result carries a certificate point re-evaluated from scratch at the
winning triple. tradeoff_sweep reports, per grid power, the best achievable
rate, the best detection probability subject to the false-alarm limit, and
whether the constraint set is jointly satisfiable there.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .comm_link import (
    af_gain,
    mrc_rate,
    rate_threshold,
    sinr_direct,
    sinr_relayed,
)
from .context import SensingPoint, SimulationContext, build_context
from .detection import (
    detection_probability,
    false_alarm_probability,
    with_threshold,
)
from .radar_sensing import average_scnr_curve
from .scenario import ScenarioConfig, dbm_to_watts, watts_to_dbm
from .stats import q_function

__all__ = [
    "ConstraintTargets",
    "EvaluatedPoint",
    "OptimizationResult",
    "TradeoffRecord",
    "TradeoffResult",
    "evaluate_point",
    "first_feasible_split",
    "minimize_power",
    "threshold_grid",
    "tradeoff_sweep",
]

# threshold grid spans [-span, +span] scaled by (sigma2 + |mu1|^2)
_KAPPA_SPAN = 10.0

# slack for the by-construction budget identity ||u||^2 + ||v||^2 = P
_BUDGET_SLACK = 1.0e-9


@dataclass(frozen=True)
class ConstraintTargets:
    """Feasibility targets: SINR-sum floor, false-alarm cap, detection floor, budget."""

    gamma_min: float
    pfa_max: float
    pd_min: float
    p_max_watts: float

    def __post_init__(self) -> None:
        if self.gamma_min < 0.0:
            raise ValueError(f"SINR threshold must be nonnegative, got {self.gamma_min}")
        if not 0.0 < self.pfa_max <= 1.0:
            raise ValueError(f"false-alarm limit must lie in (0, 1], got {self.pfa_max}")
        if not 0.0 <= self.pd_min <= 1.0:
            raise ValueError(f"detection floor must lie in [0, 1], got {self.pd_min}")
        if self.p_max_watts <= 0.0:
            raise ValueError(f"power ceiling must be positive, got {self.p_max_watts}")

    @classmethod
    def from_scenario(cls, scenario: ScenarioConfig) -> "ConstraintTargets":
        t = scenario.targets
        return cls(
            gamma_min=rate_threshold(t.rate_bps_hz),
            pfa_max=t.pfa_max,
            pd_min=t.pd_min,
            p_max_watts=dbm_to_watts(t.p_max_dbm),
        )


@dataclass(frozen=True)
class EvaluatedPoint:
    """Full audit of one (P, rho, kappa) triple against the targets."""

    power_watts: float
    rho: float
    kappa: float
    rate_bps_hz: float
    gamma_direct: float
    gamma_relayed: float
    pfa: float
    pd: float
    mu1_abs: float
    sigma2: float
    scnr_opt: float
    scnr_avg: float
    meets_rate: bool
    meets_pfa: bool
    meets_pd: bool
    within_budget: bool
    feasible: bool
    degenerate: bool


@dataclass(frozen=True)
class TradeoffRecord:
    """Per-power summary: best rate, best guarded detection, joint feasibility."""

    power_watts: float
    rho: float
    kappa: float
    rate_bps_hz: float
    pd: float
    pfa: float
    feasible: bool


@dataclass(frozen=True)
class TradeoffResult:
    records: tuple[TradeoffRecord, ...]
    marked_index: int | None

    @property
    def marked(self) -> TradeoffRecord | None:
        if self.marked_index is None:
            return None
        return self.records[self.marked_index]


@dataclass(frozen=True)
class OptimizationResult:
    feasible: bool
    p_star_watts: float | None
    rho_star: float | None
    kappa_star: float | None
    point: EvaluatedPoint | None
    p_ceiling_watts: float
    tolerance_watts: float
    evaluations: int


@dataclass(frozen=True)
class _Physics:
    sensing: SensingPoint
    gamma_direct: float
    gamma_relayed: float

    @property
    def mu1_abs(self) -> float:
        return self.sensing.mu1_abs

    @property
    def sigma2(self) -> float:
        return self.sensing.sigma2


def _as_context(obj) -> SimulationContext:
    if isinstance(obj, SimulationContext):
        return obj
    if isinstance(obj, ScenarioConfig):
        return build_context(obj)
    raise TypeError(f"expected ScenarioConfig or SimulationContext, got {type(obj).__name__}")


def _point_physics(ctx: SimulationContext, power_watts: float, rho: float) -> _Physics:
    sensing = ctx.sensing_at(power_watts, rho)
    beams = sensing.beams
    gain = af_gain(ctx.channels.h_sr, beams, ctx.channels.noise_var_relay, ctx.relay_budget)
    gamma_direct = sinr_direct(ctx.channels.h_sd, beams, ctx.channels.noise_var_dest)
    gamma_relayed = sinr_relayed(ctx.channels, gain, beams)
    return _Physics(sensing, gamma_direct, gamma_relayed)


def threshold_grid(mu1_abs: float, sigma2: float, points: int) -> np.ndarray:
    """Detector thresholds spanning sure-alarm to sure-silence for this point."""
    scale = sigma2 + mu1_abs * mu1_abs
    return np.linspace(-_KAPPA_SPAN, _KAPPA_SPAN, points) * scale


def _rho_grid(opt) -> np.ndarray:
    """Inner split grid; a configured fixed split collapses it to one point."""
    if opt.fixed_rho is not None:
        return np.array([float(opt.fixed_rho)])
    return np.linspace(0.0, 1.0, opt.rho_points)


def _detection_curves(mu1_abs: float, sigma2: float, kappas: np.ndarray):
    scale = mu1_abs * np.sqrt(2.0 * sigma2)
    pfa = q_function(kappas / scale)
    pd = q_function((kappas - 2.0 * mu1_abs * mu1_abs) / scale)
    return pfa, pd


def _first_feasible(
    ctx: SimulationContext,
    targets: ConstraintTargets,
    power_watts: float,
    rhos: np.ndarray,
    kappa_points: int,
) -> tuple[tuple[float, float] | None, int]:
    """Smallest (rho, kappa) meeting rate and detection constraints, if any."""
    evals = 0
    for rho in rhos:
        ph = _point_physics(ctx, power_watts, float(rho))
        evals += 1
        if ph.gamma_direct + ph.gamma_relayed < targets.gamma_min:
            continue
        if ph.mu1_abs <= 0.0:
            continue
        kappas = threshold_grid(ph.mu1_abs, ph.sigma2, kappa_points)
        pfa, pd = _detection_curves(ph.mu1_abs, ph.sigma2, kappas)
        ok = (pfa <= targets.pfa_max) & (pd >= targets.pd_min)
        if ok.any():
            return (float(rho), float(kappas[int(np.argmax(ok))])), evals
    return None, evals


def first_feasible_split(
    scenario: ScenarioConfig | SimulationContext,
    power_watts: float,
    targets: ConstraintTargets | None = None,
) -> tuple[float, float] | None:
    """Re-optimize (rho, kappa) at one power; None when no grid point is feasible."""
    ctx = _as_context(scenario)
    if targets is None:
        targets = ConstraintTargets.from_scenario(ctx.scenario)
    opt = ctx.scenario.optimizer
    best, _ = _first_feasible(ctx, targets, power_watts, _rho_grid(opt), opt.kappa_points)
    return best


def evaluate_point(
    scenario: ScenarioConfig | SimulationContext,
    power_watts: float,
    rho: float,
    kappa: float,
    targets: ConstraintTargets | None = None,
) -> EvaluatedPoint:
    """Audit one operating triple; zero power short-circuits to a degenerate point."""
    ctx = _as_context(scenario)
    if targets is None:
        targets = ConstraintTargets.from_scenario(ctx.scenario)
    if power_watts < 0.0:
        raise ValueError(f"power must be nonnegative, got {power_watts}")
    if power_watts == 0.0:
        silent = 1.0 if kappa <= 0.0 else 0.0
        return EvaluatedPoint(
            power_watts=0.0,
            rho=rho,
            kappa=kappa,
            rate_bps_hz=0.0,
            gamma_direct=0.0,
            gamma_relayed=0.0,
            pfa=silent,
            pd=silent,
            mu1_abs=0.0,
            sigma2=0.0,
            scnr_opt=0.0,
            scnr_avg=0.0,
            meets_rate=0.0 >= targets.gamma_min,
            meets_pfa=silent <= targets.pfa_max,
            meets_pd=silent >= targets.pd_min,
            within_budget=True,
            feasible=False,
            degenerate=True,
        )
    ph = _point_physics(ctx, power_watts, rho)
    sensing = ph.sensing
    rate = mrc_rate(ph.gamma_direct, ph.gamma_relayed)
    params = with_threshold(sensing.params, kappa)
    pfa = false_alarm_probability(params)
    pd = detection_probability(params)
    meets_rate = ph.gamma_direct + ph.gamma_relayed >= targets.gamma_min
    meets_pfa = pfa <= targets.pfa_max
    meets_pd = pd >= targets.pd_min
    within_budget = sensing.beams.total_power <= power_watts + _BUDGET_SLACK * max(1.0, power_watts)
    a = ctx.target_steering
    # |alpha_0|^2 y^H W^-1 y with y = A x and w = W^-1 y
    scnr_opt = abs(ctx.alpha0) ** 2 * np.vdot(a * np.dot(a, sensing.x), sensing.w).real
    scnr_avg = average_scnr_curve(ctx.clutter, ctx.alpha0, a, ctx.unit_beams(rho), power_watts)
    return EvaluatedPoint(
        power_watts=power_watts,
        rho=rho,
        kappa=kappa,
        rate_bps_hz=rate,
        gamma_direct=ph.gamma_direct,
        gamma_relayed=ph.gamma_relayed,
        pfa=pfa,
        pd=pd,
        mu1_abs=ph.mu1_abs,
        sigma2=ph.sigma2,
        scnr_opt=float(scnr_opt),
        scnr_avg=float(scnr_avg),
        meets_rate=meets_rate,
        meets_pfa=meets_pfa,
        meets_pd=meets_pd,
        within_budget=within_budget,
        feasible=meets_rate and meets_pfa and meets_pd and within_budget,
        degenerate=False,
    )


def minimize_power(
    scenario: ScenarioConfig | SimulationContext,
    targets: ConstraintTargets | None = None,
) -> OptimizationResult:
    """Smallest power whose best (rho, kappa) satisfies every constraint."""
    ctx = _as_context(scenario)
    if targets is None:
        targets = ConstraintTargets.from_scenario(ctx.scenario)
    opt = ctx.scenario.optimizer
    p_floor = dbm_to_watts(ctx.scenario.power.min_dbm)
    p_max = targets.p_max_watts
    if p_floor >= p_max:
        raise ValueError(
            f"power grid floor {p_floor} W must lie below the budget ceiling {p_max} W"
        )
    powers = np.geomspace(p_floor, p_max, opt.power_points)
    rhos = _rho_grid(opt)
    tol = opt.tol_factor * p_max

    evaluations = 0
    found: tuple[float, float] | None = None
    first_index = -1
    for i, p in enumerate(powers):
        best, n = _first_feasible(ctx, targets, float(p), rhos, opt.kappa_points)
        evaluations += n
        if best is not None:
            found = best
            first_index = i
            break
    if found is None:
        return OptimizationResult(
            feasible=False,
            p_star_watts=None,
            rho_star=None,
            kappa_star=None,
            point=None,
            p_ceiling_watts=p_max,
            tolerance_watts=tol,
            evaluations=evaluations,
        )

    rho_star, kappa_star = found
    p_star = float(powers[first_index])
    if first_index > 0:
        # bracket: powers[first_index - 1] infeasible, p_star feasible
        lo = float(powers[first_index - 1])
        hi = p_star
        while hi - lo > tol:
            mid = 0.5 * (lo + hi)
            best, n = _first_feasible(ctx, targets, mid, rhos, opt.kappa_points)
            evaluations += n
            if best is not None:
                hi = mid
                rho_star, kappa_star = best
            else:
                lo = mid
        p_star = hi

    point = evaluate_point(ctx, p_star, rho_star, kappa_star, targets)
    return OptimizationResult(
        feasible=True,
        p_star_watts=p_star,
        rho_star=rho_star,
        kappa_star=kappa_star,
        point=point,
        p_ceiling_watts=p_max,
        tolerance_watts=tol,
        evaluations=evaluations + 1,
    )


def _tradeoff_record(
    ctx: SimulationContext,
    targets: ConstraintTargets,
    power_watts: float,
    rhos: np.ndarray,
    kappa_points: int,
) -> TradeoffRecord:
    best_rate = 0.0
    best: tuple[float, float, float, float] | None = None  # (pd, rho, kappa, pfa)
    fallback: tuple[float, float, float, float] | None = None
    jointly_feasible = False
    for rho in rhos:
        ph = _point_physics(ctx, power_watts, float(rho))
        rate = mrc_rate(ph.gamma_direct, ph.gamma_relayed)
        if rate > best_rate:
            best_rate = rate
        if ph.mu1_abs <= 0.0:
            continue
        kappas = threshold_grid(ph.mu1_abs, ph.sigma2, kappa_points)
        pfa, pd = _detection_curves(ph.mu1_abs, ph.sigma2, kappas)
        if fallback is None:
            fallback = (float(pd[-1]), float(rho), float(kappas[-1]), float(pfa[-1]))
        allowed = pfa <= targets.pfa_max
        if not allowed.any():
            continue
        j = int(np.argmax(allowed))  # pd is decreasing in kappa, so first allowed is best
        if best is None or pd[j] > best[0]:
            best = (float(pd[j]), float(rho), float(kappas[j]), float(pfa[j]))
        meets_rate = ph.gamma_direct + ph.gamma_relayed >= targets.gamma_min
        if meets_rate and (allowed & (pd >= targets.pd_min)).any():
            jointly_feasible = True
    if best is None:
        best = fallback if fallback is not None else (0.0, float(rhos[0]), 0.0, 0.0)
    pd_best, rho_best, kappa_best, pfa_best = best
    return TradeoffRecord(
        power_watts=power_watts,
        rho=rho_best,
        kappa=kappa_best,
        rate_bps_hz=best_rate,
        pd=pd_best,
        pfa=pfa_best,
        feasible=jointly_feasible,
    )


def tradeoff_sweep(
    scenario: ScenarioConfig | SimulationContext,
    targets: ConstraintTargets | None = None,
    power_grid_watts: np.ndarray | None = None,
) -> TradeoffResult:
    """Rate and guarded detection versus power, with the first feasible power marked."""
    ctx = _as_context(scenario)
    if targets is None:
        targets = ConstraintTargets.from_scenario(ctx.scenario)
    if power_grid_watts is None:
        grid_dbm = np.linspace(
            ctx.scenario.power.min_dbm,
            watts_to_dbm(targets.p_max_watts),
            ctx.scenario.power.points,
        )
        power_grid_watts = np.array([dbm_to_watts(p) for p in grid_dbm])
    grid = np.asarray(power_grid_watts, dtype=float)
    if grid.ndim != 1 or grid.size == 0:
        raise ValueError("power grid must be a non-empty 1-D array")
    if not np.all(grid > 0.0):
        raise ValueError("power grid entries must be positive")
    if not np.all(np.diff(grid) > 0.0):
        raise ValueError("power grid must be strictly increasing")

    opt = ctx.scenario.optimizer
    rhos = _rho_grid(opt)
    records = tuple(
        _tradeoff_record(ctx, targets, float(p), rhos, opt.kappa_points) for p in grid
    )
    marked_index = next((i for i, rec in enumerate(records) if rec.feasible), None)
    return TradeoffResult(records=records, marked_index=marked_index)
