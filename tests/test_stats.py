"""Gaussian tail utilities and seeded stream derivation.

The Q function and its inverse are checked against an adaptive quadrature
oracle (numerical integration of the standard normal density), not against
each other alone.
"""

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.optimize import brentq

from jrcsim.stats import (
    binomial_ci,
    derive_stream,
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

    def test_monotone_decreasing(self):
        # strictly decreasing where both tails are resolvable in double precision
        grid = np.linspace(-8.0, 8.0, 201)
        vals = q_function(grid)
        assert np.all(np.diff(vals) < 0.0)
        wide = q_function(np.linspace(-12.0, 12.0, 97))
        assert np.all(np.diff(wide) <= 0.0)

    def test_vectorized_matches_scalar(self):
        grid = np.array([-2.0, 0.0, 3.5])
        vals = q_function(grid)
        for g, v in zip(grid, vals):
            assert v == q_function(float(g))


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
