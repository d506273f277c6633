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
(common random numbers). Under H0, y_s is a sum of independent CN(0, 1)
amplitudes on the projected clutter echoes c_l = w^H (sigma_l a_l a_l^T x) and
on the noise projection, w^H n ~ CN(0, ||w||^2). T_0 is a linear functional of
those i.i.d. normals, so it is exactly N(0, 2 |mu_1|^2 (sum_l |c_l|^2 +
||w||^2)), and each trial draws one real normal at that scale. The scale is
summed from the per-scatterer echoes, not read from sigma^2, so the Monte Carlo
still checks the closed-form clutter sum. The target echo is deterministic, so
T_1 = T_0 + 2 |mu_1|^2 trial by trial. Each empirical rate is still an exact
binomial estimate, and the P_FA and P_D columns of a cell are correlated, as
its thresholds already were. The draws come from one jumped copy of the
caller's stream, so the first n trials are the same whatever number follows.
They stream through one reused buffer of at most 2^16 trials per cell:
successive fills of a buffer draw the same sequence as one long draw, and the
hits of every threshold are integers summed over the blocks, so the counts do
not depend on the block size and a cell's memory is O(block), not O(trials).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from .radar_sensing import ClutterSteering
from .stats import binomial_ci, inverse_q, q_function

if TYPE_CHECKING:
    from .context import OperatingPoint, SimulationContext

__all__ = [
    "false_alarm_probability",
    "detection_probability",
    "false_alarm_threshold",
    "roc_sweep",
]


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


def _statistic_std(mu1_abs, sigma2):
    """|mu_1| sqrt(2 sigma^2): the standard deviation of T, from the moments of
    y_s, at every entry of a pair of moment arrays (or floats)."""
    if np.count_nonzero(mu1_abs == 0.0):
        raise ValueError("|mu1| = 0: the statistic is degenerate and the closed forms do not apply")
    if np.count_nonzero(sigma2 <= 0.0):
        raise ValueError(f"sigma2 must be positive, got {sigma2}")
    return mu1_abs * np.sqrt(2.0 * sigma2)


def _h1_shift(mu1_abs):
    """2 |mu_1|^2, squared by pow as a float's ** 2 is: the mean of T under H1."""
    return 2.0 * np.float_power(mu1_abs, 2.0)


def _tail(excess, scale):
    """Q(excess / scale) at every entry; a ratio past the float range is +-inf
    and reads Q(+-inf) = 0 or 1 without an overflow warning."""
    with np.errstate(over="ignore"):
        ratio = excess / scale
    return q_function(ratio)


def false_alarm_probability(mu1_abs, sigma2, kappa):
    """P(T >= kappa | H0) = Q(kappa / (|mu_1| sqrt(2 sigma^2))), broadcast over
    arrays of moments and thresholds; floats give a 0-d result."""
    return _tail(kappa, _statistic_std(mu1_abs, sigma2))


def detection_probability(mu1_abs, sigma2, kappa):
    """P(T >= kappa | H1) = Q((kappa - 2 |mu_1|^2) / (|mu_1| sqrt(2 sigma^2))),
    broadcast over arrays of moments and thresholds; floats give a 0-d result."""
    return _tail(kappa - _h1_shift(mu1_abs), _statistic_std(mu1_abs, sigma2))


def false_alarm_threshold(mu1_abs, sigma2, pfa_max: float):
    """The smallest threshold at or above kappa_fa whose computed P_FA is at
    most pfa_max, in (0, 1), at every entry of a pair of moment arrays; floats
    give a 0-d result. kappa_fa itself can miss the cap by rounding, so a step
    doubling from one ulp climbs past it and the last step is bisected."""
    scale = _statistic_std(mu1_abs, sigma2)
    lo = hi = scale * inverse_q(pfa_max)
    step = np.abs(np.spacing(lo))
    climbing = _tail(hi, scale) > pfa_max
    while np.count_nonzero(climbing):
        lo, hi, step = np.where(climbing, (hi, hi + step, 2.0 * step), (lo, hi, step))
        climbing &= _tail(hi, scale) > pfa_max
    mid = lo + 0.5 * (hi - lo)
    while np.count_nonzero(inside := (lo < mid) & (mid < hi)):
        above = _tail(mid, scale) > pfa_max
        lo, hi = np.where(inside & above, mid, lo), np.where(inside & ~above, mid, hi)
        mid = lo + 0.5 * (hi - lo)
    return hi[()]  # a NumPy float, as the other closed forms give, for float moments


# trials per Monte Carlo block: a cell holds one buffer of this many floats
_BLOCK_TRIALS = 1 << 16


def _null_blocks(ctx: SimulationContext, point: OperatingPoint, trials: int, rng: np.random.Generator):
    """T_0 at one operating point over successive blocks of at most
    _BLOCK_TRIALS trials, each yielded as a view of one buffer that the next
    block overwrites.

    The point's frozen waveform x and receive beamformer w hold across all
    trials. T_0 is exactly Gaussian (see the module docstring), so each trial
    draws one standard normal from a jumped copy of ``rng``'s bit generator and
    scales it by |mu_1| sqrt(2) ||(c_1, ..., c_L, ||w||)||, the standard
    deviation summed from the per-scatterer echoes. The blocks concatenate to
    the one long draw, so a prefix of the trials does not depend on how many
    follow.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    w = point.w
    coeffs = np.append(ctx.clutter.echoes(point.x) @ w.conj(), np.linalg.norm(w))
    scale = np.sqrt(2.0) * point.mu1_abs * np.linalg.norm(coeffs)
    normals = np.random.Generator(rng.bit_generator.jumped(1))
    buffer = np.empty(min(trials, _BLOCK_TRIALS))
    for start in range(0, trials, _BLOCK_TRIALS):
        block = buffer[: min(_BLOCK_TRIALS, trials - start)]
        normals.standard_normal(out=block)
        block *= scale
        yield block


def _count_hits(block, kappas, hits, mask):
    """Add to hits[j] the trials of block at or above kappas[j], over
    ascending kappas. Every trial is at or above the thresholds up to the
    block's minimum and none is above its maximum, so only the thresholds in
    between are counted, each by one comparison into the reused mask."""
    first, last = np.searchsorted(kappas, (block.min(), block.max()), side="right")
    hits[:first] += block.size
    for j in range(first, last):
        hits[j] += np.count_nonzero(np.greater_equal(block, kappas[j], out=mask))


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
    empirical curves inherit the analytic monotonicity in kappa. The trials
    stream through one buffer in blocks of at most 2^16: _count_hits counts
    each block of T_0's trials at or above every threshold for P_FA; the block
    is then shifted in place by 2 |mu_1|^2 (T_1 = T_0 + 2 |mu_1|^2 trial by
    trial, the target echo being deterministic) and counted again for P_D. The
    integer hits summed over the blocks equal those of one sort of all the
    trials. Both closed forms come from one Q call over the stacked (2, K)
    arguments of P_FA and P_D, and both Wilson intervals from one binomial_ci
    call over the stacked hits; each entry is computed as
    false_alarm_probability, detection_probability or a one-rate binomial_ci
    computes it. The closed forms are NaN where mu_1 = 0.
    """
    kappas = np.sort(np.asarray(kappa_grid, dtype=float))
    if kappas.size == 0:
        raise ValueError("kappa_grid must be non-empty")
    if not np.all(np.isfinite(kappas)):
        raise ValueError("kappa_grid must be finite")
    shift = _h1_shift(point.mu1_abs)
    # row 0 holds P_FA and row 1 P_D
    hits = np.zeros((2, kappas.size), dtype=np.intp)
    mask = np.empty(min(trials, _BLOCK_TRIALS), dtype=bool)
    for block in _null_blocks(ctx, point, trials, rng):
        _count_hits(block, kappas, hits[0], mask[: block.size])
        block += shift
        _count_hits(block, kappas, hits[1], mask[: block.size])
    if point.mu1_abs:
        analytic = _tail(np.stack((kappas, kappas - shift)), _statistic_std(point.mu1_abs, point.sigma2))
    else:
        analytic = np.full((2, kappas.size), np.nan)
    lo, hi = binomial_ci(hits, trials)
    curve = {"kappa": kappas}
    for i, rate in enumerate(("pfa", "pd")):
        curve[f"{rate}_analytic"], curve[f"{rate}_mc"] = analytic[i], hits[i] / trials
        curve[f"{rate}_ci_lo"], curve[f"{rate}_ci_hi"] = lo[i], hi[i]
    return curve
