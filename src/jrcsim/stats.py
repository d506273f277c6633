"""Gaussian tail utilities, binomial confidence intervals, seeded stream
derivation, and the 9-significant-digit grid every emitted float sits on."""

from __future__ import annotations

import math
from decimal import ROUND_CEILING, Decimal

import numpy as np
import scipy.special

__all__ = [
    "q_function",
    "inverse_q",
    "binomial_ci",
    "derive_stream",
    "float_text",
    "canonical_float",
    "canonical_ceil",
]

_TWO64 = 1 << 64
_SQRT2 = math.sqrt(2.0)


def q_function(x):
    """Upper tail probability Q(x) of the standard normal distribution.

    Computed as erfc(x / sqrt(2)) / 2, which stays accurate deep into the tail.
    Accepts a float or an array.
    """
    return 0.5 * scipy.special.erfc(x / _SQRT2)


def inverse_q(p: float) -> float:
    """Inverse of ``q_function`` on [0, 1]: returns x with Q(x) = p, and +inf
    at p = 0 and -inf at p = 1, the limits of that inverse."""
    p = float(p)
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"tail probability must lie in [0, 1], got {p}")
    return float(np.sqrt(2.0) * scipy.special.erfcinv(2.0 * p))


# two-sided 95 % normal quantile of every emitted interval
_Z95 = inverse_q((1.0 - 0.95) / 2.0)


def binomial_ci(successes, trials: int) -> tuple[np.ndarray, np.ndarray]:
    """Wilson score interval (lo, hi) at 95 % confidence for binomial
    proportions: one success count or an array of them, out of ``trials``.

    The Wilson interval stays inside [0, 1] and always holds the estimate
    k / n: its low edge is 0 exactly at k = 0 and its high edge 1 exactly at
    k = n, where the formula leaves a rounding residue.
    """
    if trials <= 0:
        raise ValueError(f"trials must be positive, got {trials}")
    successes = np.asarray(successes)
    if not np.all((0 <= successes) & (successes <= trials)):
        raise ValueError(f"successes must lie in [0, {trials}], got {successes}")
    z = _Z95
    n = float(trials)
    phat = successes / n
    denom = 1.0 + z * z / n
    centre = (phat + z * z / (2.0 * n)) / denom
    half = z * np.sqrt(phat * (1.0 - phat) / n + z * z / (4.0 * n * n)) / denom
    lo = np.where(successes == 0, 0.0, np.maximum(0.0, centre - half))
    hi = np.where(successes == trials, 1.0, np.minimum(1.0, centre + half))
    return lo, hi


def derive_stream(master_seed: int, stream_id: int) -> np.random.Generator:
    """Independent random stream derived from (master seed, stream id).

    Uses a counter-based Philox generator keyed directly with the pair, so the
    mapping is platform-stable and collision-resistant: distinct (seed, id)
    pairs give statistically independent sequences, and the same pair always
    reproduces the same sequence regardless of how many other streams exist.
    """
    key = np.array([int(master_seed) % _TWO64, int(stream_id) % _TWO64], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def float_text(x: float) -> str:
    """x at 9 significant digits, the precision every emission carries."""
    return np.format_float_positional(
        float(x), precision=9, unique=False, fractional=False, trim="-"
    )


def canonical_float(x: float) -> float:
    """Round to 9 significant digits, as the emitted text reads."""
    return float(float_text(x))


def canonical_ceil(x: float) -> float:
    """The smallest 9-significant-digit value at or above x; canonical_float
    leaves it as it is (the nearest float to that decimal prints as it)."""
    d = Decimal(x)
    if not d:
        return 0.0
    return float(d.quantize(Decimal(1).scaleb(d.adjusted() - 8), rounding=ROUND_CEILING))
