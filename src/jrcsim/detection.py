"""Target detection: linear test statistic, closed-form rates, Monte Carlo checks.

Conditioned on a known transmit snapshot x and receive beamformer w, the
projected observation y_s = w^H s is complex Gaussian: mean mu_1 = alpha_0
w^H A x under H1 (0 under H0) and variance

    sigma^2 = sum_l sigma_l^2 |w^H A_l x|^2 + ||w||^2,

where the clutter sum is one product with the scene's steering matrix
(ClutterSteering.projected_power). The log likelihood ratio reduces
(affinely) to T = 2 Re(y_s conj(mu_1)) compared against a threshold kappa,
giving

    P_FA = Q( kappa / (|mu_1| sqrt(2 sigma^2)) ),
    P_D  = Q( (kappa - 2 |mu_1|^2) / (|mu_1| sqrt(2 sigma^2)) ),

so the Neyman-Pearson threshold for a cap P_FA,max is
kappa_fa = |mu_1| sqrt(2 sigma^2) Q^-1(P_FA,max) (Kay, Vol. II, ch. 3).

Monte Carlo trials read a context and one of its operating points: the frozen
waveform x (it is known to the receiver), w and the moments all come from the
point. One set of draws per cell serves both hypotheses and every threshold
(common random numbers). Each trial draws one CN(0, 1) amplitude per clutter
scatterer, on its projected echo c_l = w^H (sigma_l a_l a_l^T x), and one for
the noise projected onto w, since w^H n ~ CN(0, ||w||^2): 2(L + 1) normals per
trial. The target echo is deterministic, so T_1 = T_0 + 2 |mu_1|^2 trial by
trial. Each empirical rate is still an exact binomial estimate, and the P_FA
and P_D columns of a cell are correlated, as its thresholds already were.
Trial randomness is forked off the caller's stream in fixed-size blocks, so
counts are reproducible bit-for-bit regardless of execution schedule and
memory stays bounded.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

import numpy as np

from .radar_sensing import ClutterSteering
from .stats import binomial_ci, inverse_q, q_function

if TYPE_CHECKING:
    from .context import OperatingPoint, SimulationContext

__all__ = [
    "statistic_moments",
    "false_alarm_probability",
    "detection_probability",
    "false_alarm_threshold",
    "sample_test_statistics",
    "roc_sweep",
]

_BLOCK = 1 << 14


def statistic_moments(
    w: np.ndarray,
    alpha0: complex,
    a_target: np.ndarray,
    clutter: ClutterSteering,
    x: np.ndarray,
):
    """mu_1 and sigma^2 of y_s = w^H s for one (w, x) pair or a stack of them.

    A stack rounds as one pair does: np.vecdot runs the BLAS dots of np.vdot
    and np.dot, and complex products are in real arithmetic, as scalar ones are.
    """
    # w^H A x with A = a a^T collapses to (w^H a)(a^T x)
    mu1 = _complex_product(_complex_product(alpha0, np.vecdot(w, a_target)), np.vecdot(a_target.conj(), x))
    sigma2 = np.vecdot(w, w).real + clutter.projected_power(w, x)
    return mu1, sigma2


def _complex_product(p, q):
    return (p.real * q.real - p.imag * q.imag) + 1j * (p.real * q.imag + p.imag * q.real)


def _statistic_std(mu1_abs: float, sigma2: float) -> float:
    """|mu_1| sqrt(2 sigma^2): the standard deviation of T, from the moments of y_s."""
    if mu1_abs == 0.0:
        raise ValueError("|mu1| = 0: the statistic is degenerate and the closed forms do not apply")
    if sigma2 <= 0.0:
        raise ValueError(f"sigma2 must be positive, got {sigma2}")
    return float(mu1_abs) * math.sqrt(2.0 * float(sigma2))


def _h1_shift(mu1_abs: float) -> float:
    """2 |mu_1|^2: the mean of T under H1, and T_1 - T_0 on shared draws."""
    return 2.0 * float(mu1_abs) ** 2


def _tail(excess: float | np.ndarray, mu1_abs: float, sigma2: float):
    """Q(excess / (|mu_1| sqrt(2 sigma^2))) for a float or an array of excesses.

    A ratio past the float range is +-inf and reads Q(+-inf) = 0 or 1 without
    an overflow warning: a float divides as a Python float, which overflows
    quietly, and an array under errstate.
    """
    scale = _statistic_std(mu1_abs, sigma2)
    if isinstance(excess, np.ndarray):
        with np.errstate(over="ignore"):
            return q_function(excess / scale)
    return float(q_function(float(excess) / scale))


def false_alarm_probability(mu1_abs: float, sigma2: float, kappa: float | np.ndarray):
    """P(T >= kappa | H0) = Q(kappa / (|mu_1| sqrt(2 sigma^2))), at a float
    threshold or at each of an array of them."""
    return _tail(kappa, mu1_abs, sigma2)


def detection_probability(mu1_abs: float, sigma2: float, kappa: float | np.ndarray):
    """P(T >= kappa | H1) = Q((kappa - 2 |mu_1|^2) / (|mu_1| sqrt(2 sigma^2))),
    at a float threshold or at each of an array of them."""
    return _tail(kappa - _h1_shift(mu1_abs), mu1_abs, sigma2)


def false_alarm_threshold(mu1_abs: float, sigma2: float, pfa_max: float) -> float:
    """The smallest threshold at or above kappa_fa whose computed P_FA is at
    most pfa_max, in (0, 1): kappa_fa itself can miss the cap by rounding, so
    a step doubling from one ulp climbs past it and the last step is bisected."""
    lo = hi = _statistic_std(mu1_abs, sigma2) * inverse_q(pfa_max)
    step = math.ulp(lo)
    while false_alarm_probability(mu1_abs, sigma2, hi) > pfa_max:
        lo, hi, step = hi, hi + step, 2.0 * step
    while lo < (mid := lo + 0.5 * (hi - lo)) < hi:
        lo, hi = (mid, hi) if false_alarm_probability(mu1_abs, sigma2, mid) > pfa_max else (lo, mid)
    return hi


def sample_test_statistics(
    ctx: SimulationContext,
    point: OperatingPoint,
    *,
    trials: int,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """Monte Carlo draws (t_h0, t_h1) of T under H0 and H1 at one operating point.

    The point's frozen waveform x and receive beamformer w hold across all
    trials, and T = 2 Re(y_s conj(mu_1)) uses the point's mu_1. Both
    hypotheses read one set of 2(L + 1) normals per trial (see the module
    docstring), so t_h1 = t_h0 + 2 |mu_1|^2 trial by trial. Each block of
    trials uses a jumped copy of ``rng``'s bit generator, so results depend
    only on the stream state and trial index.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    w = point.w
    coeffs = np.append(ctx.clutter.echoes(point.x) @ w.conj(), np.linalg.norm(w))
    # T = 2 Re(y conj(mu_1)) with y = z . coeffs and z = (u + i v) / sqrt(2)
    # is [u, v] . [Re d, -Im d] for d = sqrt(2) coeffs conj(mu_1)
    d = np.sqrt(2.0) * coeffs * np.conj(point.mu1)
    weights = np.concatenate([d.real, -d.imag])
    base = rng.bit_generator
    t_h0 = np.empty(trials)
    for b, done in enumerate(range(0, trials, _BLOCK)):
        m = min(_BLOCK, trials - done)
        g = np.random.Generator(base.jumped(1 + b))
        t_h0[done : done + m] = g.standard_normal((m, weights.size)) @ weights
    return t_h0, t_h0 + _h1_shift(point.mu1_abs)


def roc_sweep(
    ctx: SimulationContext,
    point: OperatingPoint,
    kappa_grid,
    *,
    trials: int,
    rng: np.random.Generator,
) -> dict[str, np.ndarray]:
    """Closed-form and Monte Carlo rates over a threshold grid, as arrays over
    ascending kappa, keyed by the detection table's columns: kappa,
    pfa_analytic, pd_analytic, pfa_mc, pfa_ci_lo, pfa_ci_hi, pd_mc, pd_ci_lo
    and pd_ci_hi.

    All thresholds and both hypotheses share one set of Monte Carlo draws
    (common random numbers), so a single-point grid gives exactly that
    threshold's entries of any larger grid on the same stream, and the
    empirical curves inherit the analytic monotonicity in kappa. T_0 is sorted
    once; T_1 sorted is that plus 2 |mu_1|^2, and one binary search per rate
    counts the trials at or above every threshold. The closed forms are NaN
    where mu_1 = 0.
    """
    kappas = np.sort(np.asarray(kappa_grid, dtype=float))
    if kappas.size == 0:
        raise ValueError("kappa_grid must be non-empty")
    if not np.all(np.isfinite(kappas)):
        raise ValueError("kappa_grid must be finite")
    t_h0, _ = sample_test_statistics(ctx, point, trials=trials, rng=rng)
    sorted_h0 = np.sort(t_h0)
    mu1_abs, sigma2 = float(point.mu1_abs), float(point.sigma2)
    curve = {"kappa": kappas}
    for rate, closed_form, sorted_t in (
        ("pfa", false_alarm_probability, sorted_h0),
        ("pd", detection_probability, sorted_h0 + _h1_shift(mu1_abs)),
    ):
        curve[f"{rate}_analytic"] = (
            closed_form(mu1_abs, sigma2, kappas) if mu1_abs > 0.0 else np.full(kappas.shape, np.nan)
        )
        hits = trials - np.searchsorted(sorted_t, kappas, side="left")
        curve[f"{rate}_mc"] = hits / trials
        curve[f"{rate}_ci_lo"], curve[f"{rate}_ci_hi"] = binomial_ci(hits, trials)
    return curve
