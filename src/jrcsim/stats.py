"""Gaussian tail utilities, binomial confidence intervals, seeded stream
derivation, and the 9-significant-digit grid every emitted float sits on."""

from __future__ import annotations

import math
from decimal import ROUND_CEILING, Decimal
from statistics import NormalDist

import numpy as np

__all__ = [
    "q_function",
    "inverse_q",
    "binomial_ci",
    "derive_stream",
    "float_text",
    "canonical_float",
    "canonical_ceil",
    "canonical_floor",
]

_SQRT2 = math.sqrt(2.0)
# the smallest t with t * t > ln(DBL_MAX), where Cephes' erfc flushes to 0
_ERFC_FLUSH = 26.64174755704633
_NORMAL = NormalDist()


def q_function(x):
    """Upper tail probability Q(x) of the standard normal distribution.

    Computed as erfc(t) / 2 at t = x / sqrt(2), which stays accurate deep into
    the tail. erfc(t) is exactly 0 from t = _ERFC_FLUSH up, as Cephes gives
    it, not the subnormal of ``math.erfc``: that far below DBL_MIN the tail
    has lost its precision anyway, and the flush keeps an exact 0 in the
    tables there (detection-sweep's ``pd_analytic`` would read 3.06e-322 in
    one golden row). An array gives a float64 array of its shape, a float or
    a 0-d array a NumPy float; NaN gives NaN, and no input raises a
    floating-point warning.
    """
    t = np.asarray(x, dtype=float) / _SQRT2
    erfc = [0.0 if v >= _ERFC_FLUSH else math.erfc(v) for v in t.ravel().tolist()]
    return 0.5 * np.array(erfc, dtype=float).reshape(t.shape)[()]


def inverse_q(p: float) -> float:
    """Inverse of ``q_function`` on [0, 1]: returns x with Q(x) = p, and +inf
    at p = 0 and -inf at p = 1, the limits of that inverse. Computed as
    -Phi^-1(p) by Wichura's AS 241, which keeps full precision in both tails."""
    p = float(p)
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"tail probability must lie in [0, 1], got {p}")
    if p in (0.0, 1.0):
        return math.inf if p == 0.0 else -math.inf
    return -_NORMAL.inv_cdf(p)


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

    Uses a counter-based Philox generator keyed directly with the pair, one
    64-bit key word each (the scenario bounds the seed to one word), so the
    mapping is platform-stable and collision-resistant: distinct (seed, id)
    pairs give statistically independent sequences, and the same pair always
    reproduces the same sequence regardless of how many other streams exist.
    """
    key = np.array([int(master_seed), int(stream_id)], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


class Streams:
    """One Philox generator re-keyed to the start of any stream keyed as
    derive_stream keys it: after at(master_seed, stream_id) its draws are that
    stream's, bit for bit, until it is re-keyed. Re-keying sets the counter
    and the buffer to a fresh stream's, so no stream's draws depend on the
    streams read before it, and it costs a few microseconds where making a
    Philox costs tens. A context's scene and symbols are read on one, and so
    are a sweep pair's scenes."""

    def __init__(self) -> None:
        self._bits = np.random.Philox(0)
        self._generator, self._state = np.random.Generator(self._bits), self._bits.state
        self._state.update(buffer_pos=4, has_uint32=0, uinteger=0)

    def at(self, master_seed: int, stream_id: int) -> np.random.Generator:
        """The generator, re-keyed to the start of stream (master_seed, stream_id).
        It is the one generator every call returns, so it reads this stream
        only until the next at or first_doubles call re-keys it."""
        self._state["state"] = {"counter": (0, 0, 0, 0), "key": (int(master_seed), int(stream_id))}
        self._bits.state = self._state
        return self._generator

    def first_doubles(self, master_seed: int, stream_ids, count: int) -> np.ndarray:
        """The first count doubles of each stream: row i of the
        (len(stream_ids), count) array is
        derive_stream(master_seed, stream_ids[i]).random(count) bit for bit."""
        out = np.empty((len(stream_ids), count))
        for row, stream_id in zip(out, stream_ids):
            self.at(master_seed, stream_id).random(out=row)
        return out


def _float_texts(values) -> list[str]:
    """The text of each float of a sequence at 9 significant digits, the
    precision every emission carries, in positional form: correctly rounded,
    ties to the even digit, as NumPy's Dragon4 gives it.

    One "%.9g" formatting of the whole sequence gives that text for every |x|
    whose rounding lies in [1e-4, 1e9). Outside that range "%.9g" puts an
    exponent on the same 9 rounded digits, and _positional writes them out.
    "%.9g" writes nan, inf and -inf as Dragon4 does."""
    joined = "%.9g\n" * len(values) % tuple(values)
    texts = joined.split("\n")
    texts.pop()
    if "e" in joined:
        for i, text in enumerate(texts):
            if "e" in text:
                texts[i] = _positional(text)
    return texts


def _positional(text: str) -> str:
    """A "%.9g" text with an exponent, written out in positional form from its
    mantissa's digits, which "%.9g" has already rounded and trimmed: at an
    exponent of at most -5 they follow "0." and -exp - 1 zeros; at 9 or more
    they all lie left of the point, padded with zeros."""
    mantissa, exponent = text.split("e")
    exp = int(exponent)
    sign, digits = ("-", mantissa[1:]) if mantissa[0] == "-" else ("", mantissa)
    digits = digits.replace(".", "")
    if exp < 0:
        return sign + "0." + "0" * (-exp - 1) + digits
    return sign + digits.ljust(exp + 1, "0")


def float_text(x: float) -> str:
    """x at 9 significant digits in positional form: _float_texts of the one value."""
    return _float_texts([float(x)])[0]


def canonical_float(x: float) -> float:
    """Round to 9 significant digits, as the emitted text reads; a negative
    zero reads as 0, so no column emits -0."""
    return float(float_text(x)) + 0.0


def digit_unit(x: float) -> float:
    """One unit in the 9th significant digit of a nonzero x as it prints: the
    spacing of the emission grid at canonical_float(x), so 999.99999999, which
    prints as 1000, has the unit of 1000."""
    return 10.0 ** (math.floor(math.log10(abs(canonical_float(x)))) - 8)


def canonical_ceil(x: float) -> float:
    """The smallest 9-significant-digit value at or above x; canonical_float
    leaves it as it is (the nearest float to that decimal prints as it)."""
    d = Decimal(x)
    if not d:
        return 0.0
    return float(d.quantize(Decimal(1).scaleb(d.adjusted() - 8), rounding=ROUND_CEILING))


def canonical_floor(x: float) -> float:
    """The largest 9-significant-digit value at or below x, the mirror of
    canonical_ceil."""
    return 0.0 - canonical_ceil(-x)
