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
every probe. One call of the split forms reads the midpoints of four levels
of the bisection tree at once, every midpoint the next four probes could
take; the search then follows the path one probe at a time follows, so
its result is that of probing midpoint by midpoint. Ties prefer smaller P,
then smaller rho, then smaller kappa. The certificate is the triple the
tables print, audited by evaluate_point; the result is that evaluated point,
or None past the ceiling, and the evaluations spent: the (P, rho) entries a
power-by-power, split-by-split scan reads up to each probe's first feasible
split (all of them at an infeasible one), on the walk and on the bisection's
path, never on a midpoint off it, plus one per audit. tradeoff_sweep
returns, as arrays over the grid powers, the best achievable rate, the best
detection probability subject to the false-alarm limit, and whether the
constraint set is jointly satisfiable there. Both take a context;
evaluate_point also builds one from a scenario.

Power and clutter power enter the interference covariance as one scale,
W(s) = I + s M(rho) with s = sigma^2 P, so the context decomposes each split
grid once, at unit sigma and power (SimulationContext.unit_kernel), and every
probe on that grid scales that one kernel. Both commands decide from per-split
closed forms in P (_SplitForms), terms of O(L) and O(L^2) numbers per split
with no beams, waveform or beamformer, which a context builds once over its
split grid, so tradeoff's rows and search share them as they share the
kernel. Their sensing terms, and the grid's kernel, are made on first use:
by the tradeoff rows, or by the search at the first power where some split
reaches the rate. The coarse walk, each bisection level and every tradeoff
row read them by one rule. Their SINR sum is comm_link.LinkSinrs, the
record's own, so the rate test is the record's bit for bit, and it comes
first: the sensing forms run only on the powers where some split reaches the
rate, since no deflection makes another power feasible. Only tradeoff rows read
|mu_1| and sigma^2, so only they compute them. A power row with an entry
within a relative _BAND of the deflection floor, or whose rounding estimate
is too large, takes the OperatingPoint record of that power over the splits,
so every decision is the record's. The search builds such a record only when
it reads that row: the walk reads rows up to its first feasible one, and a
tree read only the midpoints on the path it takes, so batching the levels
builds no record that probing midpoint by midpoint would not. A tradeoff row
always reads its record. evaluate_point builds its one record.
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
# levels of the bisection tree one call of the split forms reads: 2^4 - 1 = 15 midpoints
_LEVELS = 4


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
    """The live flag, the deflection, Q_1 and Q_2 of every split of rhos in
    closed form in P, from the unit-power waveform x_1 and kernel (U, lam) at
    unit sigma: c = a^T x_1, q = U^H a, r = a - U q, G = U^H B, e = r^H B and
    d = B^T x_1. With s = sigma_c^2 P and f = 1/(1 + s lam), Q_1 = a^H W^-1 a =
    ||r||^2 + sum |q|^2 f, |mu_1| = |alpha_0| P |c|^2 Q_1 and sigma^2 = P |c|^2 Q_2,
    where Q_2 = ||r||^2 + sum |q|^2 f^2 + s sum_l |d_l|^2 |e_l + sum_j conj(q_j) f_j G_jl|^2;
    the SINRs are comm_link.LinkSinrs, the record's own.

    The forms are made with their SINR terms alone, which the rate test
    reads. The sensing terms, and with them the split grid's kernel, are made
    on the first call, and the live flags, |mu_1| per unit power (mu1_unit)
    and |c|^2 (cc) exist from then on; so a search where no row reaches the
    rate never decomposes the grid."""

    def __init__(self, ctx: SimulationContext, rhos: np.ndarray):
        self.ctx, self.rhos, targets = ctx, rhos, ctx.scenario.targets
        self.threshold, self.floor = rate_threshold(targets.rate_bps_hz), _deflection_floor(targets)
        self.link = LinkSinrs(ctx, rhos)
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
        """Whether gamma_sd + gamma_rd reaches 2^r - 1, over 1-D powers x splits."""
        gamma_sd, gamma_rd = self.link(powers[:, None])
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


def _sensing(forms: _SplitForms, powers: np.ndarray, moments: bool = False) -> tuple[list[np.ndarray], np.ndarray]:
    """Over 1-D powers x the forms' splits, each (M, S), as the forms read
    them: the live flags and the deflections, then with moments |mu_1| and
    sigma^2; and the rows (M,) with an entry the forms leave undecided, whose
    columns only the OperatingPoint record of that power decides."""
    p = powers[:, None]
    deflection, q1, q2, error = forms(p)
    columns = [np.repeat(forms.live[None], powers.size, axis=0), deflection]
    if moments:
        columns += [forms.mu1_unit * p * q1, forms.cc * p * q2]
    near = ~(_SAFETY * error <= _BAND / 1000.0)
    if math.isfinite(forms.floor):
        near |= abs(deflection - forms.floor) <= _BAND * abs(forms.floor)
    return columns, near.any(axis=-1)


class _Verdicts:
    """The feasible mask over 1-D powers x the forms' splits, (M, S), read a
    row at a time: the SINR sum reaches 2^r - 1 and mu_1 is live with the
    deflection at the floor. The sensing forms run only on the rows where some
    split reaches the rate, since no deflection makes another row feasible. A
    row the forms leave undecided keeps only its rate verdicts until it is
    read, and then takes its sensing from the record, so a search builds
    records only for the rows it reads."""

    def __init__(self, forms: _SplitForms, powers: np.ndarray):
        self.forms, self.powers = forms, powers
        self.ok, self.pending = forms.reaches(powers), np.zeros(powers.size, dtype=bool)
        rows = np.flatnonzero(self.ok.any(axis=-1))
        if rows.size:
            (live, deflection), near = _sensing(forms, powers[rows])
            self.ok[rows] &= (live & (deflection >= forms.floor)) | near[:, None]
            self.pending[rows] = near

    def __getitem__(self, m: int) -> np.ndarray:
        if self.pending[m]:
            point = self.forms.ctx.operating_point(float(self.powers[m]), self.forms.rhos)
            self.ok[m] &= (point.mu1_abs > 0.0) & (point.deflection >= self.forms.floor)
            self.pending[m] = False
        return self.ok[m]


def _first_feasible(forms: _SplitForms, power_watts) -> tuple[int | None, int]:
    """The flat index of the first feasible entry at power_watts (a float or
    an array of ascending powers) over the forms' splits, if any, and the
    entries scanned up to and including it (all of them when none is). An
    array is scanned power by power, so the index is power-major, and rows
    past the first feasible one are never read."""
    verdicts = _Verdicts(forms, np.asarray(power_watts, dtype=float).reshape(-1))
    # a row no split of which reaches the rate is infeasible without reading it
    for m in np.flatnonzero(verdicts.ok.any(axis=-1)):
        row = verdicts[m]
        if row.any():
            i = int(m) * row.size + int(np.argmax(row))
            return i, i + 1
    return None, verdicts.ok.size


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


def _bisect(forms: _SplitForms, lo: float, hi: float, k: int, tol_factor: float) -> tuple[float, int, int]:
    """Bisect a bracket, lo infeasible and hi feasible first at split index k,
    at its geometric midpoint until hi <= lo (1 + tol_factor) or floats cannot
    split it: the last feasible power, its first feasible split index and the
    entries scanned. Each call of the forms reads the midpoints of the next
    _LEVELS levels of the bisection tree at once, in heap order (node j's
    children are 2j + 1, below a feasible midpoint, and 2j + 2); the search
    then takes the path that probing one midpoint at a time takes, and only
    that path's entries count."""
    evaluations, nodes = 0, 2**_LEVELS - 1
    while True:
        brackets, mids = [(lo, hi)] + [None] * (nodes - 1), [None] * nodes
        for j, bracket in enumerate(brackets):
            if bracket is None or not bracket[1] > bracket[0] * (1.0 + tol_factor):
                continue
            mid = math.sqrt(bracket[0] * bracket[1])
            if bracket[0] < mid < bracket[1]:  # else the bracket is as narrow as floats allow
                mids[j] = mid
                if 2 * j + 2 < nodes:
                    brackets[2 * j + 1], brackets[2 * j + 2] = (bracket[0], mid), (mid, bracket[1])
        if mids[0] is None:  # and so every node below it
            return hi, k, evaluations
        probed = [j for j, mid in enumerate(mids) if mid is not None]
        verdicts, j = _Verdicts(forms, np.array([mids[j] for j in probed])), 0
        row = {node: r for r, node in enumerate(probed)}
        for _ in range(_LEVELS):
            if mids[j] is None:
                return hi, k, evaluations
            verdict = verdicts[row[j]]
            if verdict.any():
                k = int(np.argmax(verdict))
                evaluations += k + 1
                hi, j = mids[j], 2 * j + 1
            else:
                evaluations += verdict.size
                lo, j = mids[j], 2 * j + 2


def minimize_power(ctx: SimulationContext) -> OptimizationResult:
    """Smallest power whose best (rho, kappa) satisfies every target of the
    context's scenario."""
    scenario, opt = ctx.scenario, ctx.scenario.optimizer
    powers = np.geomspace(
        dbm_to_watts(scenario.power.min_dbm), dbm_to_watts(scenario.targets.p_max_dbm), opt.power_points
    )
    forms = _split_forms(ctx)  # reduced once; every probe of the search reads it

    first, evaluations = _first_feasible(forms, powers)
    if first is None:
        return OptimizationResult(None, evaluations)
    i, k = divmod(first, forms.rhos.size)
    hi = float(powers[i])
    if i > 0:  # bracket: powers[i - 1] infeasible, hi feasible
        hi, k, n = _bisect(forms, float(powers[i - 1]), hi, k, opt.tol_factor)
        evaluations += n
    point, n = _certificate(ctx, hi, float(forms.rhos[k]))
    return OptimizationResult(point, evaluations + n)


def _tradeoff_record(forms: _SplitForms, powers: np.ndarray) -> dict:
    """The tradeoff rows of a 1-D array of powers, as arrays keyed by
    tradeoff_sweep's columns, from the forms over powers x ascending splits,
    read as the search reads them (_sensing, and the record on the rows it
    leaves undecided), with |mu_1| and sigma^2, which only these rows read.
    Each row takes the rate of its first split and kappa_fa, P_D and P_FA at
    its live split of largest deflection, in one closed-form call per column;
    a row with no live split reads rho = rhos[0] and kappa = P_D = P_FA = 0."""
    pfa_max, rhos = forms.ctx.scenario.targets.pfa_max, forms.rhos
    columns, near = _sensing(forms, powers, moments=True)
    for m in np.flatnonzero(near):
        point = forms.ctx.operating_point(float(powers[m]), rhos)
        for column, value in zip(columns, (point.mu1_abs > 0.0, point.deflection, point.mu1_abs, point.sigma2)):
            column[m] = value
    live, deflection, mu1_abs, sigma2 = columns
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
    sensed = live & (deflection >= forms.floor)
    return {
        "power_watts": powers, "rho": rhos[sharpest[:, 0]], "kappa": kappa,
        "rate_bps_hz": mrc_rate(gamma_sd[:, 0], gamma_rd[:, 0]), "pd": pd, "pfa": pfa,
        "feasible": ((gamma_sd + gamma_rd >= forms.threshold) & sensed).any(axis=-1),
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
