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
point, and each trial redraws clutter amplitudes and noise; trial randomness
is forked off the caller's stream in fixed-size blocks so counts are
reproducible bit-for-bit regardless of execution schedule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .radar_sensing import ClutterSteering
from .stats import ConfidenceInterval, binomial_ci, inverse_q, q_function

if TYPE_CHECKING:
    from .context import OperatingPoint, SimulationContext

__all__ = [
    "DetectionOperatingPoint",
    "statistic_moments",
    "false_alarm_probability",
    "detection_probability",
    "false_alarm_threshold",
    "sample_test_statistics",
    "roc_sweep",
]

_BLOCK = 1 << 14


@dataclass(frozen=True)
class DetectionOperatingPoint:
    """Closed-form and empirical rates at one threshold."""

    kappa: float
    pfa_analytic: float
    pd_analytic: float
    pfa_mc: float
    pfa_ci: ConfidenceInterval
    pd_mc: float
    pd_ci: ConfidenceInterval
    trials: int


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
    return mu1_abs * np.sqrt(2.0 * sigma2)


def false_alarm_probability(mu1_abs: float, sigma2: float, kappa: float) -> float:
    """P(T >= kappa | H0) = Q(kappa / (|mu_1| sqrt(2 sigma^2)))."""
    return float(q_function(kappa / _statistic_std(mu1_abs, sigma2)))


def detection_probability(mu1_abs: float, sigma2: float, kappa: float) -> float:
    """P(T >= kappa | H1) = Q((kappa - 2 |mu_1|^2) / (|mu_1| sqrt(2 sigma^2)))."""
    scale = _statistic_std(mu1_abs, sigma2)
    return float(q_function((kappa - 2.0 * float(mu1_abs) ** 2) / scale))


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
    trials, and T = 2 Re(y_s conj(mu_1)) uses the point's mu_1. Each block of
    trials uses a jumped copy of ``rng``'s bit generator, so results depend
    only on the stream state and trial index.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    n = ctx.n_antennas
    a_t, x = ctx.target_steering, point.x
    target_vec = ctx.alpha0 * a_t * np.dot(a_t, x)
    clutter_vecs = ctx.clutter.echoes(x)
    n_clutter = len(ctx.clutter.scale)
    w_conj = point.w.conj()
    mu_conj = np.conj(point.mu1)
    base = rng.bit_generator
    t_out = [np.empty(trials), np.empty(trials)]
    n_blocks = (trials + _BLOCK - 1) // _BLOCK
    for hyp in (0, 1):
        done = 0
        for b in range(n_blocks):
            m = min(_BLOCK, trials - done)
            g = np.random.Generator(base.jumped(1 + 2 * b + hyp))
            amps = (g.standard_normal((m, n_clutter)) + 1j * g.standard_normal((m, n_clutter))) / np.sqrt(2.0)
            noise = (g.standard_normal((m, n)) + 1j * g.standard_normal((m, n))) / np.sqrt(2.0)
            s = amps @ clutter_vecs + noise
            if hyp == 1:
                s = s + target_vec[None, :]
            y = s @ w_conj
            t_out[hyp][done : done + m] = 2.0 * (y * mu_conj).real
            done += m
    return t_out[0], t_out[1]


def _operating_point(
    kappa: float,
    t_h0: np.ndarray,
    t_h1: np.ndarray,
    mu1_abs: float,
    sigma2: float,
) -> DetectionOperatingPoint:
    trials = len(t_h0)
    n_fa = int(np.count_nonzero(t_h0 >= kappa))
    n_d = int(np.count_nonzero(t_h1 >= kappa))
    if mu1_abs > 0.0:
        pfa_a = false_alarm_probability(mu1_abs, sigma2, kappa)
        pd_a = detection_probability(mu1_abs, sigma2, kappa)
    else:
        pfa_a = float("nan")
        pd_a = float("nan")
    return DetectionOperatingPoint(
        kappa=float(kappa),
        pfa_analytic=pfa_a,
        pd_analytic=pd_a,
        pfa_mc=n_fa / trials,
        pfa_ci=binomial_ci(n_fa, trials),
        pd_mc=n_d / trials,
        pd_ci=binomial_ci(n_d, trials),
        trials=trials,
    )


def roc_sweep(
    ctx: SimulationContext,
    point: OperatingPoint,
    kappa_grid,
    *,
    trials: int,
    rng: np.random.Generator,
) -> list[DetectionOperatingPoint]:
    """Operating points over a threshold grid, sorted by ascending kappa.

    All thresholds share one set of Monte Carlo draws (common random numbers),
    so a single-point grid gives exactly that threshold's point of any larger
    grid on the same stream, and the empirical curves inherit the analytic
    monotonicity in kappa.
    """
    kappas = np.sort(np.asarray(kappa_grid, dtype=float))
    if kappas.size == 0:
        raise ValueError("kappa_grid must be non-empty")
    if not np.all(np.isfinite(kappas)):
        raise ValueError("kappa_grid must be finite")
    t_h0, t_h1 = sample_test_statistics(ctx, point, trials=trials, rng=rng)
    return [_operating_point(k, t_h0, t_h1, float(point.mu1_abs), float(point.sigma2)) for k in kappas]
