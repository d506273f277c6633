"""Amplify-and-forward relay link: gain normalization, SINRs, combined rate."""

import dataclasses

import numpy as np
import pytest

from jrcsim.comm_link import (
    af_gain,
    mrc_rate,
    rate_threshold,
    sinr_direct,
    sinr_relayed,
)
from jrcsim.power_allocation import evaluate_point
from jrcsim.scenario import CommSection

N_R = 4e-13
N_D = 4e-13


def link(budget=0.01, noise_var_dest=N_D):
    """The comm settings the link reads: noise variances and relay budget."""
    return CommSection(noise_var_dest_w=noise_var_dest, noise_var_relay_w=N_R, relay_power_w=budget)


def random_beams(rng, n, scale=1.0):
    """(2, N) beams: the data beam u in row 0, the radar beam v in row 1."""
    u = scale * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
    v = scale * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
    return np.stack((u, v))


def random_channels(rng, n, scale=1e-4):
    """(h_sd, h_sr, h_rd)."""
    h = lambda: scale * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
    return h(), h(), complex(scale * (rng.standard_normal() + 1j * rng.standard_normal()))


class TestAfGain:
    def test_noise_only_normalization(self):
        beams = np.zeros((2, 4), dtype=complex)
        g = af_gain(np.ones(4, complex), beams, link(budget=0.01))
        assert g == pytest.approx(np.sqrt(0.01 / N_R), rel=1e-12)

    def test_budget_scaling(self):
        rng = np.random.default_rng(0)
        h = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        beams = random_beams(rng, 4)
        g1 = af_gain(h, beams, link(budget=0.01))
        g2 = af_gain(h, beams, link(budget=0.02))
        assert g2 == pytest.approx(np.sqrt(2.0) * g1, rel=1e-12)

    def test_power_identity_on_random_draws(self):
        # |f|^2 (|h^T u|^2 + |h^T v|^2 + N_r) recovers the budget exactly
        rng = np.random.default_rng(42)
        for _ in range(1000):
            h = rng.standard_normal(5) + 1j * rng.standard_normal(5)
            beams = random_beams(rng, 5)
            budget = float(rng.uniform(1e-4, 1.0))
            g = af_gain(h, beams, link(budget))
            received = (
                abs(np.dot(h, beams[0])) ** 2
                + abs(np.dot(h, beams[1])) ** 2
                + N_R
            )
            assert g**2 * received == pytest.approx(budget, rel=1e-12)

    def test_gain_is_real_positive(self):
        rng = np.random.default_rng(1)
        g = af_gain(rng.standard_normal(4) + 0j, random_beams(rng, 4), link())
        assert np.isrealobj(g)
        assert g > 0.0


class TestSinrDirect:
    def test_no_radar_interference(self):
        rng = np.random.default_rng(2)
        h = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        u = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        beams = np.stack((u, np.zeros(4, complex)))
        assert sinr_direct(h, beams, link()) == pytest.approx(abs(np.dot(h, u)) ** 2 / N_D, rel=1e-12)

    def test_orthogonal_beam_gives_zero(self):
        h = np.array([1.0, 1.0, 0.0], dtype=complex)
        u = np.array([1.0, -1.0, 0.0], dtype=complex)  # h^T u = 0
        beams = np.stack((u, np.zeros(3, complex)))
        assert sinr_direct(h, beams, link()) == 0.0

    def test_quadratic_in_beam_scale(self):
        rng = np.random.default_rng(3)
        h = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        u = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        v = np.zeros(4, complex)
        base = sinr_direct(h, np.stack((u, v)), link())
        scaled = sinr_direct(h, np.stack((3.0 * u, v)), link())
        assert scaled == pytest.approx(9.0 * base, rel=1e-12)

    def test_radar_row_degrades(self):
        # row 1 is the radar beam: it only leaks into the data link
        rng = np.random.default_rng(4)
        h = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        u = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        quiet = sinr_direct(h, np.stack((u, np.zeros(4, complex))), link())
        loud = sinr_direct(h, np.stack((u, u)), link())
        swapped = sinr_direct(h, np.stack((np.zeros(4, complex), u)), link())
        assert swapped == 0.0 < loud < quiet


class TestSinrRelayed:
    def test_silent_relay(self):
        rng = np.random.default_rng(5)
        _, h_sr, h_rd = random_channels(rng, 4)
        beams = random_beams(rng, 4)
        assert sinr_relayed(h_sr, h_rd, 0.0, beams, link()) == 0.0

    def test_vanishing_destination_noise_limit(self):
        rng = np.random.default_rng(6)
        n = 4
        h_sr = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        beams = random_beams(rng, n)
        comm = link(budget=0.01, noise_var_dest=1e-30)
        gain = af_gain(h_sr, beams, comm)
        limit = abs(np.dot(h_sr, beams[0])) ** 2 / N_R
        assert sinr_relayed(h_sr, 0.3 - 0.2j, gain, beams, comm) == pytest.approx(limit, rel=1e-6)

    def test_matches_signal_chain_oracle(self):
        # independent evaluation of the two-hop power ratio
        rng = np.random.default_rng(7)
        for _ in range(200):
            _, h_sr, h_rd = random_channels(rng, 5)
            beams = random_beams(rng, 5, scale=0.1)
            gain = af_gain(h_sr, beams, link(budget=0.01))
            through = abs(h_rd * gain) ** 2
            expected = (through * abs(np.dot(h_sr, beams[0])) ** 2) / (
                through * N_R + N_D
            )
            assert sinr_relayed(h_sr, h_rd, gain, beams, link()) == pytest.approx(expected, rel=1e-12)


class TestMrcRate:
    def test_anchor_points(self):
        assert mrc_rate(0.0, 0.0) == 0.0
        assert mrc_rate(0.5, 0.5) == pytest.approx(1.0, rel=1e-15)
        assert mrc_rate(3.0, 0.0) == pytest.approx(2.0, rel=1e-15)

    def test_cooperative_gain(self):
        rng = np.random.default_rng(9)
        for _ in range(100):
            gd = float(rng.uniform(0.0, 50.0))
            gr = float(rng.uniform(0.0, 50.0))
            assert mrc_rate(gd, gr) >= mrc_rate(gd, 0.0)

    def test_monotone_in_each_branch(self):
        assert mrc_rate(2.0, 1.0) > mrc_rate(1.5, 1.0)
        assert mrc_rate(2.0, 1.0) > mrc_rate(2.0, 0.5)

    def test_rejects_negative(self):
        # one negative entry among valid SINRs raises too
        for gamma_direct, gamma_relayed in ((-0.1, 0.0), (np.array([1.0, 2.0]), np.array([0.5, -0.1]))):
            with pytest.raises(ValueError):
                mrc_rate(gamma_direct, gamma_relayed)


class TestRateThreshold:
    def test_values(self):
        assert rate_threshold(0.0) == 0.0
        assert rate_threshold(1.0) == 1.0
        assert rate_threshold(5.0) == 31.0

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            rate_threshold(-1.0)


def with_rate_target(ctx, rate_bps_hz: float):
    """The context with its scenario's rate target changed."""
    targets = dataclasses.replace(ctx.scenario.targets, rate_bps_hz=rate_bps_hz)
    return dataclasses.replace(ctx, scenario=dataclasses.replace(ctx.scenario, targets=targets))


class TestRateConstraint:
    # the optimizer's rate test: gamma_direct + gamma_relayed >= 2^r - 1; at
    # rho = 1 the data beam is zero, so the sum is exactly 0
    def test_boundary_inclusive(self, default_context):
        pt = default_context.operating_point(1.0, 1.0)
        assert float(pt.gamma_direct) + float(pt.gamma_relayed) == 0.0
        assert evaluate_point(with_rate_target(default_context, 0.0), 1.0, 1.0, 0.0).meets_rate

    def test_below_threshold(self, default_context):
        # 2^(2e-16) rounds up to 1 + 2^-52, the least threshold above 0
        assert rate_threshold(2e-16) == 2.0**-52
        assert not evaluate_point(with_rate_target(default_context, 2e-16), 1.0, 1.0, 0.0).meets_rate

    def test_consistent_with_rate(self):
        # sum >= rate_threshold(r) exactly when the combined rate meets r
        rng = np.random.default_rng(10)
        for _ in range(500):
            gd = float(rng.uniform(0.0, 40.0))
            gr = float(rng.uniform(0.0, 40.0))
            rate = float(rng.uniform(0.0, 6.5))
            ok = gd + gr >= rate_threshold(rate)
            rate_gap = mrc_rate(gd, gr) - rate
            if abs(rate_gap) > 1e-12:
                assert ok == (rate_gap > 0.0)
