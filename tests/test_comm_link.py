"""Amplify-and-forward relay link: gain normalization, SINRs, combined rate."""

import numpy as np
import pytest

from jrcsim.comm_link import (
    BeamformerSet,
    RelayGain,
    af_gain,
    mrc_rate,
    rate_threshold,
    sinr_direct,
    sinr_relayed,
)
from jrcsim.power_allocation import ConstraintTargets, evaluate_point
from jrcsim.propagation import ChannelSet

N_R = 4e-13
N_D = 4e-13


def random_beams(rng, n, scale=1.0):
    u = scale * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
    v = scale * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
    return BeamformerSet(comm_beams=(u,), radar_beam=v)


def random_channels(rng, n, scale=1e-4):
    h = lambda: scale * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
    return ChannelSet(
        h_sd=h(),
        h_sr=h(),
        h_rd=complex(scale * (rng.standard_normal() + 1j * rng.standard_normal())),
        noise_var_dest=N_D,
        noise_var_relay=N_R,
    )


class TestBeamformerSet:
    def test_total_power(self):
        u = np.array([1.0, 1j, 0.0])
        v = np.array([0.0, 2.0, 0.0])
        beams = BeamformerSet(comm_beams=(u,), radar_beam=v)
        assert beams.total_power == pytest.approx(2.0 + 4.0, rel=1e-15)

    def test_rejects_mismatched_lengths(self):
        with pytest.raises(ValueError):
            BeamformerSet(comm_beams=(np.ones(3, complex),), radar_beam=np.ones(4, complex))

    def test_rejects_empty_comm_beams(self):
        with pytest.raises(ValueError):
            BeamformerSet(comm_beams=(), radar_beam=np.ones(3, complex))

    def test_rejects_nonfinite(self):
        bad = np.array([1.0, np.inf, 0.0], dtype=complex)
        with pytest.raises(ValueError):
            BeamformerSet(comm_beams=(bad,), radar_beam=np.ones(3, complex))

    def test_zero_beams_allowed(self):
        z = np.zeros(3, dtype=complex)
        assert BeamformerSet(comm_beams=(z,), radar_beam=z).total_power == 0.0


class TestAfGain:
    def test_noise_only_normalization(self):
        z = np.zeros(4, dtype=complex)
        beams = BeamformerSet(comm_beams=(z,), radar_beam=z)
        g = af_gain(np.ones(4, complex), beams, N_R, budget=0.01)
        assert g.gain == pytest.approx(np.sqrt(0.01 / N_R), rel=1e-12)

    def test_budget_scaling(self):
        rng = np.random.default_rng(0)
        h = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        beams = random_beams(rng, 4)
        g1 = af_gain(h, beams, N_R, budget=0.01)
        g2 = af_gain(h, beams, N_R, budget=0.02)
        assert g2.gain == pytest.approx(np.sqrt(2.0) * g1.gain, rel=1e-12)

    def test_power_identity_on_random_draws(self):
        # |f|^2 (|h^T u|^2 + |h^T v|^2 + N_r) recovers the budget exactly
        rng = np.random.default_rng(42)
        for _ in range(1000):
            h = rng.standard_normal(5) + 1j * rng.standard_normal(5)
            beams = random_beams(rng, 5)
            budget = float(rng.uniform(1e-4, 1.0))
            g = af_gain(h, beams, N_R, budget)
            received = (
                abs(np.dot(h, beams.comm_beams[0])) ** 2
                + abs(np.dot(h, beams.radar_beam)) ** 2
                + N_R
            )
            assert g.gain**2 * received == pytest.approx(budget, rel=1e-12)

    def test_gain_is_real_positive(self):
        rng = np.random.default_rng(1)
        g = af_gain(rng.standard_normal(4) + 0j, random_beams(rng, 4), N_R, 0.01)
        assert isinstance(g, RelayGain)
        assert g.gain > 0.0


class TestSinrDirect:
    def test_no_radar_interference(self):
        rng = np.random.default_rng(2)
        h = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        u = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        beams = BeamformerSet(comm_beams=(u,), radar_beam=np.zeros(4, complex))
        assert sinr_direct(h, beams, N_D) == pytest.approx(abs(np.dot(h, u)) ** 2 / N_D, rel=1e-12)

    def test_orthogonal_beam_gives_zero(self):
        h = np.array([1.0, 1.0, 0.0], dtype=complex)
        u = np.array([1.0, -1.0, 0.0], dtype=complex)  # h^T u = 0
        beams = BeamformerSet(comm_beams=(u,), radar_beam=np.zeros(3, complex))
        assert sinr_direct(h, beams, N_D) == 0.0

    def test_quadratic_in_beam_scale(self):
        rng = np.random.default_rng(3)
        h = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        u = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        v = np.zeros(4, complex)
        base = sinr_direct(h, BeamformerSet((u,), v), N_D)
        scaled = sinr_direct(h, BeamformerSet((3.0 * u,), v), N_D)
        assert scaled == pytest.approx(9.0 * base, rel=1e-12)

    def test_radar_beam_degrades(self):
        rng = np.random.default_rng(4)
        h = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        u = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        quiet = sinr_direct(h, BeamformerSet((u,), np.zeros(4, complex)), N_D)
        loud = sinr_direct(h, BeamformerSet((u,), u.copy()), N_D)
        assert loud < quiet


class TestSinrRelayed:
    def test_silent_relay(self):
        rng = np.random.default_rng(5)
        ch = random_channels(rng, 4)
        beams = random_beams(rng, 4)
        assert sinr_relayed(ch, RelayGain(gain=0.0, budget=0.0), beams) == 0.0

    def test_vanishing_destination_noise_limit(self):
        rng = np.random.default_rng(6)
        n = 4
        h_sr = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        beams = random_beams(rng, n)
        ch = ChannelSet(
            h_sd=np.ones(n, complex), h_sr=h_sr, h_rd=0.3 - 0.2j,
            noise_var_dest=1e-30, noise_var_relay=N_R,
        )
        gain = af_gain(h_sr, beams, N_R, budget=0.01)
        limit = abs(np.dot(h_sr, beams.comm_beams[0])) ** 2 / N_R
        assert sinr_relayed(ch, gain, beams) == pytest.approx(limit, rel=1e-6)

    def test_matches_signal_chain_oracle(self):
        # independent evaluation of the two-hop power ratio
        rng = np.random.default_rng(7)
        for _ in range(200):
            ch = random_channels(rng, 5)
            beams = random_beams(rng, 5, scale=0.1)
            gain = af_gain(ch.h_sr, beams, N_R, budget=0.01)
            through = abs(ch.h_rd * gain.gain) ** 2
            expected = (through * abs(np.dot(ch.h_sr, beams.comm_beams[0])) ** 2) / (
                through * N_R + N_D
            )
            assert sinr_relayed(ch, gain, beams) == pytest.approx(expected, rel=1e-12)


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
        with pytest.raises(ValueError):
            mrc_rate(-0.1, 0.0)


class TestRateThreshold:
    def test_values(self):
        assert rate_threshold(0.0) == 0.0
        assert rate_threshold(1.0) == 1.0
        assert rate_threshold(5.0) == 31.0

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            rate_threshold(-1.0)


def rate_targets(gamma_min: float) -> ConstraintTargets:
    return ConstraintTargets(gamma_min=gamma_min, pfa_max=1.0, pd_min=0.0, p_max_watts=1.0)


class TestRateConstraint:
    # the optimizer's rate test: gamma_direct + gamma_relayed >= gamma_min
    def test_boundary_inclusive(self, default_context):
        pt = evaluate_point(default_context, 1.0, 0.5, 0.0)
        at_boundary = rate_targets(pt.gamma_direct + pt.gamma_relayed)
        assert evaluate_point(default_context, 1.0, 0.5, 0.0, at_boundary).meets_rate

    def test_below_threshold(self, default_context):
        pt = evaluate_point(default_context, 1.0, 0.5, 0.0)
        just_above = rate_targets(np.nextafter(pt.gamma_direct + pt.gamma_relayed, np.inf))
        assert not evaluate_point(default_context, 1.0, 0.5, 0.0, just_above).meets_rate

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
