"""Amplify-and-forward relay link: the closed-form SINRs, the combined rate
and the rate threshold. LinkSinrs is checked against the beam-level formulas
of tests/oracles.py, which form the beams at each power, the relay gain that
meets its budget, and each SINR from the beams' channel gains."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jrcsim.comm_link import LinkSinrs, mrc_rate, rate_threshold
from jrcsim.context import build_context
from jrcsim.power_allocation import evaluate_point
from jrcsim.scenario import ScenarioConfig
from oracles import af_gain, sinr_direct, sinr_relayed

N_R = 4e-13
N_D = 4e-13


def link_context(ctx, budget=0.01, noise_var_dest=N_D, **fields):
    """ctx with the comm settings the link reads (noise variances and relay
    budget) set, and any channel or beam direction in fields replaced."""
    comm = dataclasses.replace(
        ctx.scenario.comm, noise_var_dest_w=noise_var_dest, noise_var_relay_w=N_R, relay_power_w=budget
    )
    return dataclasses.replace(ctx, scenario=dataclasses.replace(ctx.scenario, comm=comm), **fields)


def random_link(rng, ctx, n=5, budget=0.01, noise_var_dest=N_D, scale=1e-4):
    """ctx with random channels h_sd, h_sr, h_rd and random beam directions on n antennas."""
    v = lambda s: s * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
    return link_context(
        ctx, budget, noise_var_dest, h_sd=v(scale), h_sr=v(scale),
        h_rd=complex(scale * (rng.standard_normal() + 1j * rng.standard_normal())),
        comm_direction=v(1.0), radar_direction=v(1.0),
    )


def oracle_sinrs(ctx, power, rho):
    """(gamma_sd, gamma_rd) from the beams of (power, rho) and the relay gain that meets the budget there."""
    beams, comm = ctx.beams_at(power, rho), ctx.scenario.comm
    gain = af_gain(ctx.h_sr, beams, comm)
    return sinr_direct(ctx.h_sd, beams, comm), sinr_relayed(ctx.h_sr, ctx.h_rd, gain, beams, comm)


def assert_close(got, want, rel=1e-12):
    """got is want to a relative rel, and exactly 0 where want is."""
    assert abs(got - want) <= rel * abs(want), (got, want)


@st.composite
def links(draw):
    """A context of 1 to 16 antennas under either fading, with its own noise
    variances and relay budget (0 included), a split in [0, 1] with both
    ends, and a power from 1e-30 W to 1e27 W."""
    sc = ScenarioConfig()
    noise = st.floats(-16.0, -8.0).map(lambda e: 10.0**e)
    sc = dataclasses.replace(
        sc,
        seed=draw(st.integers(0, 2**32 - 1)),
        array=dataclasses.replace(sc.array, n_antennas=draw(st.integers(1, 16))),
        comm=dataclasses.replace(
            sc.comm,
            fading=draw(st.sampled_from(["los", "rayleigh"])),
            noise_var_dest_w=draw(noise),
            noise_var_relay_w=draw(noise),
            relay_power_w=draw(st.one_of(st.just(0.0), st.floats(-4.0, 3.0).map(lambda e: 10.0**e))),
        ),
    )
    rho = draw(st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)))
    return build_context(sc), rho, 10.0 ** draw(st.floats(-30.0, 27.0))


class TestLinkSinrs:
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(links())
    def test_matches_the_beam_level_formulas(self, link):
        ctx, rho, power = link
        for got, want in zip(LinkSinrs(ctx, rho)(power), oracle_sinrs(ctx, power, rho)):
            assert_close(float(got), float(want))

    def test_all_radar_split_carries_no_data(self, default_context):
        rng = np.random.default_rng(11)
        ctx = random_link(rng, default_context)
        for power in (1e-30, 1.0, 1e27):
            assert LinkSinrs(ctx, 1.0)(power) == (0.0, 0.0)


class TestAfGain:
    # the relay gain is internal to LinkSinrs: each test reads it through the
    # relayed SINR, the two-hop ratio |h_rd f|^2 S / (|h_rd f|^2 N_r + N_d)
    # with S = |h_sr^T u|^2

    def test_noise_only_normalization(self, default_context):
        # at a power the relay hears only its own noise, f = sqrt(budget / N_r)
        rng = np.random.default_rng(0)
        ctx = random_link(rng, default_context)
        power, rho = 1e-30, 0.4
        signal = abs(np.dot(ctx.h_sr, ctx.beams_at(power, rho)[0])) ** 2
        through = abs(ctx.h_rd) ** 2 * 0.01 / N_R
        assert_close(float(LinkSinrs(ctx, rho)(power)[1]), through * signal / (through * N_R + N_D))

    def test_budget_scaling(self, default_context):
        # doubling the budget scales the gain by sqrt(2)
        rng = np.random.default_rng(1)
        for _ in range(100):
            ctx = random_link(rng, default_context, budget=0.01)
            power, rho = float(rng.uniform(0.01, 100.0)), float(rng.uniform(0.0, 1.0))
            beams, comm = ctx.beams_at(power, rho), ctx.scenario.comm
            gain = np.sqrt(2.0) * af_gain(ctx.h_sr, beams, comm)
            doubled = LinkSinrs(link_context(ctx, budget=0.02), rho)(power)[1]
            assert_close(float(doubled), float(sinr_relayed(ctx.h_sr, ctx.h_rd, gain, beams, comm)))

    def test_power_identity_on_random_draws(self, default_context):
        # |f|^2 (|h_sr^T u|^2 + |h_sr^T v|^2 + N_r) recovers the budget exactly,
        # and the relayed SINR is the two-hop ratio through that gain
        rng = np.random.default_rng(42)
        for _ in range(500):
            budget, power, rho = (float(x) for x in rng.uniform((1e-4, 0.01, 0.0), (1.0, 100.0, 1.0)))
            ctx = random_link(rng, default_context, budget=budget)
            u, v = ctx.beams_at(power, rho)
            gain = af_gain(ctx.h_sr, np.stack((u, v)), ctx.scenario.comm)
            received = abs(np.dot(ctx.h_sr, u)) ** 2 + abs(np.dot(ctx.h_sr, v)) ** 2 + N_R
            assert gain**2 * received == pytest.approx(budget, rel=1e-12)
            through = abs(ctx.h_rd * gain) ** 2
            expected = through * abs(np.dot(ctx.h_sr, u)) ** 2 / (through * N_R + N_D)
            assert_close(float(LinkSinrs(ctx, rho)(power)[1]), expected)

    def test_gain_is_real_positive(self, default_context):
        # a positive budget gives a real, positive gain, so both SINRs are real
        # and positive wherever the data beam carries power
        rng = np.random.default_rng(2)
        gamma_sd, gamma_rd = LinkSinrs(random_link(rng, default_context), np.linspace(0.0, 0.9, 4))(2.0)
        assert np.isrealobj(gamma_sd) and np.isrealobj(gamma_rd)
        assert (gamma_sd > 0.0).all() and (gamma_rd > 0.0).all()


class TestSinrDirect:
    def test_no_radar_interference(self, default_context):
        rng = np.random.default_rng(3)
        ctx = random_link(rng, default_context)
        u = ctx.beams_at(2.0, 0.0)[0]
        assert LinkSinrs(ctx, 0.0)(2.0)[0] == pytest.approx(abs(np.dot(ctx.h_sd, u)) ** 2 / N_D, rel=1e-12)

    def test_orthogonal_beam_gives_zero(self, default_context):
        h = np.array([1.0, 1.0, 0.0], dtype=complex)
        u = np.array([1.0, -1.0, 0.0], dtype=complex)  # h^T u = 0
        ctx = link_context(default_context, h_sd=h, h_sr=h, h_rd=0.3 - 0.2j, comm_direction=u, radar_direction=h)
        gamma_sd, gamma_rd = LinkSinrs(ctx, np.array([0.0, 0.5]))(2.0)
        assert gamma_sd.tolist() == gamma_rd.tolist() == [0.0, 0.0]

    def test_quadratic_in_beam_scale(self, default_context):
        # without radar leakage, three times the beam amplitude is nine times the power
        rng = np.random.default_rng(4)
        ctx = random_link(rng, default_context)
        base, scaled = LinkSinrs(ctx, 0.0)(np.array([2.0, 18.0]))[0]
        assert scaled == pytest.approx(9.0 * base, rel=1e-12)

    def test_radar_row_degrades(self, default_context):
        # the radar beam only leaks into the data link: more leakage, lower SINR
        rng = np.random.default_rng(5)
        ctx = random_link(rng, default_context)
        quiet_direction = np.array([ctx.h_sd[1], -ctx.h_sd[0], 0, 0, 0])  # h_sd^T v = 0
        quiet = LinkSinrs(dataclasses.replace(ctx, radar_direction=quiet_direction), 0.5)(1.0)[0]
        loud = LinkSinrs(dataclasses.replace(ctx, radar_direction=ctx.comm_direction), 0.5)(1.0)[0]
        swapped = LinkSinrs(ctx, 1.0)(1.0)[0]
        assert swapped == 0.0 < loud < quiet


class TestSinrRelayed:
    def test_silent_relay(self, default_context):
        rng = np.random.default_rng(6)
        ctx = random_link(rng, default_context, budget=0.0)
        rhos, powers = np.linspace(0.0, 1.0, 5), np.geomspace(1e-30, 1e27, 7)[:, None]
        gamma_sd, gamma_rd = LinkSinrs(ctx, rhos)(powers)
        assert gamma_rd.shape == (7, 5) and not gamma_rd.any()
        assert gamma_sd[:, :-1].all()

    def test_vanishing_destination_noise_limit(self, default_context):
        # with N_d -> 0 the relay's own noise is all that limits the relayed copy
        rng = np.random.default_rng(7)
        ctx = random_link(rng, default_context, noise_var_dest=1e-30, scale=1.0)
        u = ctx.beams_at(1.0, 0.3)[0]
        limit = abs(np.dot(ctx.h_sr, u)) ** 2 / N_R
        assert LinkSinrs(ctx, 0.3)(1.0)[1] == pytest.approx(limit, rel=1e-6)

    def test_matches_signal_chain_oracle(self, default_context):
        # the beam-level formulas on random channels, directions and budgets
        rng = np.random.default_rng(8)
        for _ in range(200):
            ctx = random_link(rng, default_context, budget=float(rng.uniform(1e-4, 1.0)))
            power, rho = float(rng.uniform(0.01, 100.0)), float(rng.uniform(0.0, 1.0))
            for got, want in zip(LinkSinrs(ctx, rho)(power), oracle_sinrs(ctx, power, rho)):
                assert_close(float(got), float(want))


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
