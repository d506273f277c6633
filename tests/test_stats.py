"""Gaussian tail utilities and seeded stream derivation.

The Q function and its inverse are checked against an adaptive quadrature
oracle (numerical integration of the standard normal density), not against
each other alone, and against SciPy's Cephes erfc and erfcinv, which the
package does not import. The 9-digit float text is checked against NumPy's
Dragon4 on every kind of double, one value at a time and a column at a time.
"""

import math
import warnings

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.optimize import brentq
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import erfc, erfcinv

from jrcsim.stats import (
    _float_texts,
    Streams,
    binomial_ci,
    derive_stream,
    float_text,
    inverse_q,
    q_function,
)


def q_oracle(x: float) -> float:
    """Upper-tail Gaussian probability by adaptive quadrature."""
    density = lambda t: np.exp(-0.5 * t * t) / np.sqrt(2.0 * np.pi)
    if x >= 0.0:
        val, _ = quad(density, x, np.inf, epsabs=1e-16, epsrel=1e-13, limit=200)
        return val
    val, _ = quad(density, x, 0.0, epsabs=1e-16, epsrel=1e-13, limit=200)
    return val + 0.5


class TestQFunction:
    def test_matches_quadrature_oracle_on_grid(self):
        for x in np.linspace(-8.0, 8.0, 33):
            assert q_function(x) == pytest.approx(q_oracle(float(x)), rel=1e-9, abs=1e-18)

    def test_reference_point(self):
        # Q(1.2816) is the canonical 10% upper tail
        assert abs(q_function(1.2816) - 0.1000) < 5e-5

    def test_center_and_limits(self):
        assert q_function(0.0) == 0.5
        assert q_function(-40.0) == pytest.approx(1.0, abs=1e-15)
        assert 0.0 < q_function(37.0) < 1e-290
        # erfc flushes to 0 from t = x / sqrt(2) = 26.64174755704633 up, as
        # SciPy's does; the float just below still gives a subnormal
        below, flushed = 26.641747557046326, 26.64174755704633
        assert np.nextafter(below, np.inf) == flushed
        assert all((t * math.sqrt(2.0)) / math.sqrt(2.0) == t for t in (below, flushed))
        assert 0.0 < q_function(below * math.sqrt(2.0)) < 1e-308
        assert q_function(flushed * math.sqrt(2.0)) == 0.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert q_function(np.inf) == 0.0
            assert q_function(-np.inf) == 1.0
            assert np.isnan(q_function(np.nan))
            extremes = q_function(np.array([np.inf, -np.inf, np.nan, 1e308, -1e308]))
        assert extremes[:2].tolist() == [0.0, 1.0] and np.isnan(extremes[2])
        assert extremes[3:].tolist() == [0.0, 1.0]

    def test_matches_scipy_erfc(self):
        x = np.linspace(-15.0, 40.0, 400_001)
        expected = 0.5 * erfc(x / math.sqrt(2.0))
        got = q_function(x)
        # exact zeros where SciPy's erfc flushes, and nowhere else
        assert np.array_equal(got == 0.0, expected == 0.0)
        assert np.count_nonzero(expected == 0.0) > 0
        live = expected != 0.0
        rel = np.abs(got[live] - expected[live]) / expected[live]
        assert rel.max() <= 2e-13

    def test_monotone_decreasing(self):
        # strictly decreasing where both tails are resolvable in double precision
        grid = np.linspace(-8.0, 8.0, 201)
        vals = q_function(grid)
        assert np.all(np.diff(vals) < 0.0)
        wide = q_function(np.linspace(-12.0, 12.0, 97))
        assert np.all(np.diff(wide) <= 0.0)

    def test_vectorized_matches_scalar(self):
        grid = np.array([-2.0, 0.0, 3.5, 38.0, np.inf])
        vals = q_function(grid)
        assert type(vals) is np.ndarray and vals.dtype == np.float64
        for g, v in zip(grid, vals):
            assert v == q_function(float(g))
        # a float or a 0-d array gives a NumPy float, an array its own shape
        for scalar in (1.5, np.float64(1.5), np.array(1.5), 2):
            assert type(q_function(scalar)) is np.float64
        table = q_function(np.arange(6.0).reshape(2, 3))
        assert table.shape == (2, 3) and table.dtype == np.float64
        assert q_function(np.empty((0, 3))).shape == (0, 3)


class TestInverseQ:
    def test_round_trip_log_spaced(self):
        # composition identity over the full desk-testable tail range
        for p in np.geomspace(1e-9, 0.5, 40):
            assert q_function(inverse_q(float(p))) == pytest.approx(float(p), rel=1e-10)
        for p in 1.0 - np.geomspace(1e-9, 0.5, 40):
            assert q_function(inverse_q(float(p))) == pytest.approx(float(p), rel=1e-10)

    def test_forward_round_trip(self):
        for x in np.linspace(-5.0, 5.0, 21):
            assert inverse_q(q_function(float(x))) == pytest.approx(float(x), abs=1e-10)

    def test_target_false_alarm_threshold(self):
        # the 1e-6 tail point, checked against a quadrature-bisection oracle
        root = brentq(lambda x: q_oracle(x) - 1e-6, 4.0, 6.0, xtol=1e-12)
        assert abs(inverse_q(1e-6) - 4.7534) < 1e-3
        assert inverse_q(1e-6) == pytest.approx(root, abs=5e-9)

    def test_median_is_zero(self):
        assert inverse_q(0.5) == pytest.approx(0.0, abs=1e-15)

    def test_matches_scipy_erfcinv(self):
        # the whole open interval, from the smallest subnormal up to 1 - 1e-16
        tails = np.geomspace(5e-324, 0.5, 20_000)
        p = np.concatenate([tails, 1.0 - np.geomspace(1e-16, 0.5, 20_000)])
        expected = math.sqrt(2.0) * erfcinv(2.0 * p)
        got = np.array([inverse_q(v) for v in p])
        live = expected != 0.0
        assert np.all(got[~live] == 0.0)
        rel = np.abs(got[live] - expected[live]) / np.abs(expected[live])
        assert rel.max() <= 2e-15
        assert all(type(inverse_q(v)) is float for v in (1e-300, 0.5, 1.0 - 1e-16))

    def test_rejects_out_of_range(self):
        # the ends of [0, 1] are the limits of the inverse, not errors
        assert inverse_q(0.0) == np.inf
        assert inverse_q(1.0) == -np.inf
        for p in (-0.1, 1.1, -1e-300, 1.0 + 1e-15):
            with pytest.raises(ValueError):
                inverse_q(p)


def wilson_oracle(k: int, n: int, z: float) -> tuple[float, float]:
    phat = k / n
    center = (phat + z * z / (2 * n)) / (1 + z * z / n)
    half = (z / (1 + z * z / n)) * np.sqrt(phat * (1 - phat) / n + z * z / (4 * n * n))
    return center - half, center + half


class TestBinomialCI:
    def test_matches_wilson_formula(self):
        z = 1.959963984540054  # two-sided 95% normal quantile
        for k, n in ((0, 100), (1, 100), (50, 100), (99, 100), (100, 100), (7, 22)):
            ci_lo, ci_hi = binomial_ci(k, n)
            lo, hi = wilson_oracle(k, n, z)
            assert ci_lo == pytest.approx(max(0.0, lo), abs=1e-12)
            assert ci_hi == pytest.approx(min(1.0, hi), abs=1e-12)

    def test_bounds_and_coverage_of_point_estimate(self):
        for k, n in ((0, 10), (3, 10), (10, 10), (500, 1000)):
            lo, hi = binomial_ci(k, n)
            assert 0.0 <= lo <= k / n <= hi <= 1.0

    def test_half_successes_symmetric(self):
        lo, hi = binomial_ci(5000, 10000)
        assert lo + hi == pytest.approx(1.0, abs=1e-12)

    def test_degenerate_edges(self):
        assert binomial_ci(0, 100)[0] == 0.0
        assert binomial_ci(100, 100)[1] == 1.0

    def test_edges_hold_the_estimate_exactly(self):
        # at k = 0 and k = n the formula leaves a rounding residue for about
        # half of all n (lo = 1.1e-19 at 0 of 2,000); the interval still
        # holds the estimate 0 or 1
        for trials in range(1, 3001):
            assert binomial_ci(0, trials)[0] == 0.0
            assert binomial_ci(trials, trials)[1] == 1.0

    def test_interval_type(self):
        # an array of counts gives arrays of bounds, each entry bit for bit
        # the interval of that count alone
        counts = np.array([0, 3, 7, 10])
        lo, hi = binomial_ci(counts, 10)
        assert lo.shape == hi.shape == counts.shape
        for k, k_lo, k_hi in zip(counts, lo, hi):
            assert (k_lo, k_hi) == binomial_ci(int(k), 10)

    def test_rejects_bad_counts(self):
        with pytest.raises(ValueError):
            binomial_ci(-1, 10)
        with pytest.raises(ValueError):
            binomial_ci(11, 10)
        with pytest.raises(ValueError):
            binomial_ci(0, 0)
        with pytest.raises(ValueError):
            binomial_ci(np.array([0, 11]), 10)


class TestDeriveStream:
    def test_same_key_reproduces(self):
        a = derive_stream(20260817, 42).standard_normal(100)
        b = derive_stream(20260817, 42).standard_normal(100)
        assert np.array_equal(a, b)

    def test_distinct_ids_differ(self):
        a = derive_stream(20260817, 1).standard_normal(100)
        b = derive_stream(20260817, 2).standard_normal(100)
        assert not np.array_equal(a, b)

    def test_distinct_seeds_differ(self):
        a = derive_stream(1, 7).standard_normal(100)
        b = derive_stream(2, 7).standard_normal(100)
        assert not np.array_equal(a, b)

    def test_streams_uncorrelated(self):
        n = 100_000
        a = derive_stream(123, 0).standard_normal(n)
        b = derive_stream(123, 1).standard_normal(n)
        rho = np.corrcoef(a, b)[0, 1]
        assert abs(rho) < 0.01

    def test_independent_of_consumption_order(self):
        # deriving stream 2 is unaffected by how much stream 1 was consumed
        s1 = derive_stream(9, 1)
        s1.standard_normal(1000)
        late = derive_stream(9, 2).standard_normal(10)
        fresh = derive_stream(9, 2).standard_normal(10)
        assert np.array_equal(late, fresh)

    def test_large_ids_accepted(self):
        v = derive_stream(20260817, (7 << 48) | 123).standard_normal(4)
        assert np.all(np.isfinite(v))


# an id of every stream kind the context keys, with a 48-bit index
stream_ids = st.builds(lambda kind, index: (kind << 48) | index, st.integers(1, 6), st.integers(0, 2**48 - 1))


class TestFirstDoubles:
    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(seed=st.integers(0, 2**64 - 1), ids=st.lists(stream_ids, max_size=6), count=st.integers(0, 16))
    def test_each_row_is_its_streams_first_doubles(self, seed, ids, count):
        block = Streams().first_doubles(seed, ids, count)
        assert block.shape == (len(ids), count)
        for row, stream in zip(block, ids):
            assert np.array_equal(row, derive_stream(seed, stream).random(count))

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(seed=st.integers(0, 2**64 - 1), ids=st.lists(stream_ids, min_size=1, max_size=4), count=st.integers(1, 16))
    def test_rekeying_leaves_no_state_behind(self, seed, ids, count):
        # a stream keyed after others, even after itself with a part-used
        # Philox buffer, reads as a fresh stream
        block = Streams().first_doubles(seed, [*ids, ids[0]], count)
        assert np.array_equal(block[-1], block[0])
        assert np.array_equal(block[-1], derive_stream(seed, ids[0]).random(count))

    def test_no_streams(self):
        assert Streams().first_doubles(7, [], 5).shape == (0, 5)

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(seed=st.integers(0, 2**64 - 1), ids=st.lists(stream_ids, min_size=1, max_size=4), used=st.integers(0, 7))
    def test_a_rekeyed_stream_draws_as_a_fresh_one(self, seed, ids, used):
        # normals, 32-bit integers and doubles after re-keying a generator left
        # part way through a buffer and a 32-bit half word read as derive_stream's
        streams = Streams()
        for stream in ids:
            left = streams.at(seed, stream)
            left.integers(0, 2**32, size=used, dtype=np.uint32)
            left.standard_normal(used)
            for draw in (lambda g: g.standard_normal(5), lambda g: g.integers(0, 2**32, size=3, dtype=np.uint32), lambda g: g.random(4)):
                assert np.array_equal(draw(streams.at(seed, stream)), draw(derive_stream(seed, stream)))


def dragon4_text(x: float) -> str:
    """x at 9 significant digits in positional form, by NumPy's Dragon4 alone."""
    return np.format_float_positional(x, precision=9, unique=False, fractional=False, trim="-")


class TestFloatText:
    # the column formatter on a drawn column, and float_text on each of its
    # values, against Dragon4 alone
    @settings(max_examples=1000, deadline=None, derandomize=True, database=None)
    @given(
        xs=st.lists(
            st.one_of(
                st.floats(allow_nan=False, allow_infinity=False),
                st.floats(-2.3e-308, 2.3e-308),  # subnormals and both zeros
                # both edges of the range where "%.9g" needs no exponent
                st.floats(9.0e-5, 1.1e-4) | st.floats(9.0e8, 1.1e9) | st.floats(-1.1e9, -9.0e8),
                # values whose 9-digit rounding lands on 1e-4 or 1e9
                st.floats(9.99999999e-5, 1.00000001e-4) | st.floats(999999999.0, 1000000001.0),
                st.floats(1.0e299, 1.0e301) | st.floats(-1.0e-299, -1.0e-301),
                st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan]),
            ),
            min_size=1,
            max_size=24,
        )
    )
    # nan and both infinities in one column with exponent texts, which "%.9g"
    # writes as Dragon4 does
    @example(xs=[math.nan, math.inf, -math.inf, -math.nan, np.float64(math.nan), 1.5e-7, 2.5e12])
    def test_matches_dragon4_on_every_finite_double(self, xs):
        texts = [dragon4_text(x) for x in xs]
        assert _float_texts(xs) == texts
        assert [float_text(x) for x in xs] == texts

    @pytest.mark.parametrize(
        "x, text",
        [
            (999999999.5, "1000000000"),
            (123456789.5, "123456790"),
            (12345678.25, "12345678.2"),  # an exact tie goes to the even digit
            (2.0**-14, "0.0000610351562"),  # 6.103515625e-05, a tie past the exponent edge
            (9.99999999e-05, "0.0000999999999"),
            (9.999999995e-05, "0.0001"),
            (1.0e-4, "0.0001"),
            (-1.5e20, "-150000000000000000000"),
            (1.0e300, "1" + "0" * 300),
            (9.9999999995e-06, "0.00001"),  # the 9-digit rounding carries into the exponent
            (1.0e-05, "0.00001"),
            (-1.23456789e-05, "-0.0000123456789"),
            (2.2250738585072014e-308, "0." + "0" * 307 + "222507386"),  # the smallest normal double
            (5.0e-324, "0." + "0" * 323 + "494065646"),
            (0.0, "0"),
            (-0.0, "-0"),
            (math.inf, "inf"),
            (-math.inf, "-inf"),
            (math.nan, "nan"),
        ],
    )
    def test_pinned_texts(self, x, text):
        assert float_text(x) == text == dragon4_text(x)
