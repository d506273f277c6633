"""Radar response, interference covariance, SCNR optimality, snapshots.

The optimality claims are checked two independent ways: against ten thousand
random unit-norm beamformers, and against a dense generalized-eigenvalue
solver on the (rank-one signal, covariance) pencil.
"""

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st

from jrcsim.array_geometry import steering_matrix, steering_vector
from jrcsim.context import SensingScene
from jrcsim.radar_sensing import ClutterSteering, InterferenceKernel, draw_symbols, waveform_from_symbols
from jrcsim.scenario import ArraySection
from oracles import (
    average_scnr,
    clutter_at,
    clutter_covariance,
    make_beams,
    optimal_receive_beamformer,
    radar_snapshot_batch,
    random_positions,
    response_matrix,
    scnr,
    scnr_at_optimum,
    transmit_covariance,
)

CFG = ArraySection(n_antennas=5, carrier_ghz=28.0)
TARGET = (5.0, np.pi / 3)
A_TARGET = steering_vector(CFG, *TARGET)
ALPHA0 = 0.5 + 0.2j


class TestResponseMatrix:
    def test_rank_one_factorization(self):
        a = steering_vector(CFG, *TARGET)
        mat = response_matrix(CFG, *TARGET)
        assert mat == pytest.approx(np.outer(a, a), rel=1e-14)
        assert np.linalg.matrix_rank(mat, tol=1e-10) == 1

    def test_plain_transpose_symmetric(self):
        mat = response_matrix(CFG, *TARGET)
        assert mat == pytest.approx(mat.T, rel=1e-14)

    def test_matvec_collapses(self):
        # A x = a (a^T x)
        rng = np.random.default_rng(0)
        a = steering_vector(CFG, *TARGET)
        mat = response_matrix(CFG, *TARGET)
        for _ in range(50):
            x = rng.standard_normal(5) + 1j * rng.standard_normal(5)
            assert mat @ x == pytest.approx(a * np.dot(a, x), rel=1e-12)


class TestTransmitCovariance:
    def test_hermitian_psd(self):
        rng = np.random.default_rng(1)
        r = transmit_covariance(make_beams(rng))
        assert r == pytest.approx(r.conj().T, rel=1e-14)
        assert np.all(np.linalg.eigvalsh(r) > -1e-12)

    def test_trace_equals_beam_power(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            power = float(rng.uniform(0.1, 10.0))
            assert np.trace(transmit_covariance(make_beams(rng, power=power))).real == pytest.approx(
                power, rel=1e-12
            )

    def test_rank_bounded_by_beam_count(self):
        rng = np.random.default_rng(3)
        r = transmit_covariance(make_beams(rng))
        assert np.linalg.matrix_rank(r, tol=1e-10) <= 2


class TestClutterCovariance:
    def test_identity_without_clutter(self):
        rng = np.random.default_rng(4)
        w = clutter_covariance(clutter_at(CFG, [], []), transmit_covariance(make_beams(rng)))
        assert w == pytest.approx(np.eye(5), abs=1e-14)

    def test_rank_one_collapse_per_scatterer(self):
        # A_l R_x A_l^H = (a_l^T R_x conj(a_l)) a_l a_l^H, so W has the
        # loaded-identity form I + sum sigma^2 c_l a_l a_l^H
        rng = np.random.default_rng(5)
        ranges, angles = random_positions(rng)
        r_x = transmit_covariance(make_beams(rng))
        clutter = clutter_at(CFG, ranges, angles)
        w = clutter_covariance(clutter, r_x)
        expected = np.eye(5, dtype=complex)
        for r, theta in zip(ranges, angles):
            a_l = steering_vector(CFG, r, theta)
            c_l = np.dot(a_l, r_x @ a_l.conj()).real
            assert c_l >= 0.0
            expected += clutter.sigma**2 * c_l * np.outer(a_l, a_l.conj())
        assert w == pytest.approx(expected, rel=1e-12)

    def test_hermitian_with_unit_floor(self):
        rng = np.random.default_rng(6)
        clutter = clutter_at(CFG, *random_positions(rng))
        w = clutter_covariance(clutter, transmit_covariance(make_beams(rng)))
        assert w == pytest.approx(w.conj().T, rel=1e-14)
        assert np.all(np.linalg.eigvalsh(w) >= 1.0 - 1e-10)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            clutter_covariance(clutter_at(CFG, [], []), np.eye(4, dtype=complex))

    def test_matches_snapshot_sample_covariance(self):
        # Monte Carlo oracle: W is the covariance of clutter-plus-noise
        # snapshots (target silenced), estimated from 1e5 draws
        rng = np.random.default_rng(7)
        clutter = clutter_at(CFG, *random_positions(rng))
        beams = make_beams(rng, power=2.0)
        w = clutter_covariance(clutter, transmit_covariance(beams))
        snaps = radar_snapshot_batch(clutter, 0.0, A_TARGET, beams, np.random.default_rng(99), 100_000)
        # rows are snapshots: E[s s^H] entry (j, k) is mean of s_j conj(s_k)
        sample = snaps.T @ snaps.conj() / snaps.shape[0]
        rel = np.linalg.norm(sample - w) / np.linalg.norm(w)
        assert rel < 0.02


class TestScnrOptimality:
    def setup_method(self):
        rng = np.random.default_rng(8)
        clutter = clutter_at(CFG, *random_positions(rng))
        self.beams = make_beams(rng, power=2.0)
        self.a = A_TARGET
        self.cov = clutter_covariance(clutter, transmit_covariance(self.beams))
        self.x = waveform_from_symbols(self.beams, draw_symbols(2, rng))
        self.alpha0 = ALPHA0

    def test_optimum_beats_random_beamformers(self):
        w_star = optimal_receive_beamformer(self.a, self.cov, self.x)
        best = scnr(w_star, self.alpha0, self.a, self.cov, self.x)
        rng = np.random.default_rng(9)
        for _ in range(10_000):
            w = rng.standard_normal(5) + 1j * rng.standard_normal(5)
            w /= np.linalg.norm(w)
            assert scnr(w, self.alpha0, self.a, self.cov, self.x) <= best * (1.0 + 1e-12)

    def test_matches_generalized_eigenvalue_oracle(self):
        y = self.a * np.dot(self.a, self.x)
        signal = abs(self.alpha0) ** 2 * np.outer(y, y.conj())
        eigvals = scipy.linalg.eigh(signal, self.cov, eigvals_only=True)
        w_star = optimal_receive_beamformer(self.a, self.cov, self.x)
        best = scnr(w_star, self.alpha0, self.a, self.cov, self.x)
        assert best == pytest.approx(float(eigvals[-1]), rel=1e-9)

    def test_scnr_at_optimum_agrees(self):
        rng = np.random.default_rng(10)
        for _ in range(20):
            sigma = float(rng.uniform(0.1, 1.0))
            clutter = clutter_at(CFG, *random_positions(rng), sigma)
            beams = make_beams(rng, power=float(rng.uniform(0.5, 4.0)))
            cov = clutter_covariance(clutter, transmit_covariance(beams))
            x = waveform_from_symbols(beams, draw_symbols(2, rng))
            w_star = optimal_receive_beamformer(self.a, cov, x)
            direct = scnr(w_star, ALPHA0, self.a, cov, x)
            closed = scnr_at_optimum(ALPHA0, self.a, cov, x)
            assert closed == pytest.approx(direct, rel=1e-10)

    def test_scnr_scale_invariant_in_w(self):
        w = np.array([1.0, 2.0j, -0.5, 0.1, 1.0], dtype=complex)
        s1 = scnr(w, self.alpha0, self.a, self.cov, self.x)
        s2 = scnr(5.0j * w, self.alpha0, self.a, self.cov, self.x)
        assert s2 == pytest.approx(s1, rel=1e-12)

    def test_zero_beamformer_rejected(self):
        with pytest.raises(ValueError):
            scnr(np.zeros(5, complex), self.alpha0, self.a, self.cov, self.x)


class TestAverageScnr:
    def test_matches_symbol_average_oracle(self):
        # sample mean of per-draw optimal SCNR over fresh unit-power symbols
        rng = np.random.default_rng(11)
        clutter = clutter_at(CFG, *random_positions(rng))
        beams = make_beams(rng, power=2.0)
        a = A_TARGET
        cov = clutter_covariance(clutter, transmit_covariance(beams))
        avg = average_scnr(clutter, beams, ALPHA0, a)
        draws = 100_000
        # row d holds the real then the imaginary parts of draw d: the stream
        # order of successive draw_symbols(2, rng) calls, so the same symbols
        parts = np.random.default_rng(12).standard_normal((draws, 2, 2))
        symbols = (parts[:, 0] + 1j * parts[:, 1]) / np.sqrt(2.0)
        x = symbols[:, 1:] * beams[1] + symbols[:, :1] * beams[0]
        y = a * (x @ a)[:, None]  # A x per draw, as rows
        # W does not depend on the symbols: one factorization serves every draw
        w = scipy.linalg.cho_solve(scipy.linalg.cho_factor(cov), y.T)
        per_draw = abs(ALPHA0) ** 2 * np.sum(y.T.conj() * w, axis=0).real
        assert abs(per_draw.mean() - avg) / avg < 0.01

    def test_monotone_in_clutter_strength(self):
        rng = np.random.default_rng(13)
        positions = random_positions(rng)
        beams = make_beams(rng, power=2.0)
        vals = []
        for scale in (0.0, 0.2, 0.5, 0.8, 1.5, 3.0):
            vals.append(average_scnr(clutter_at(CFG, *positions, scale), beams, ALPHA0, A_TARGET))
        assert np.all(np.diff(vals) < 0.0)

    def test_quadratic_in_reflectivity(self):
        rng = np.random.default_rng(14)
        clutter = clutter_at(CFG, *random_positions(rng))
        beams = make_beams(rng)
        s1 = average_scnr(clutter, beams, 0.1, A_TARGET)
        s2 = average_scnr(clutter, beams, 0.3, A_TARGET)
        assert s2 == pytest.approx(9.0 * s1, rel=1e-12)


def scene_point(n, n_clutter, sigma, rho, power, seed):
    """A scene of n antennas and n_clutter scatterers at (P, rho), its draws from seed."""
    rng = np.random.default_rng(seed)
    cfg = ArraySection(n_antennas=n, carrier_ghz=float(rng.choice([2.8, 28.0])))
    clutter = clutter_at(cfg, *random_positions(rng, n_clutter), sigma)
    a = steering_vector(cfg, *TARGET)
    comm = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    comm /= np.linalg.norm(comm)
    radar = np.conj(a) / np.linalg.norm(a)
    return cfg, clutter, a, comm, radar, rho, power


@st.composite
def operating_points(draw):
    """Random scene and (P, rho) with beams split as the simulator splits them."""
    n = draw(st.integers(1, 12))
    n_clutter = draw(st.integers(0, 8))
    sigma = draw(st.one_of(st.just(0.0), st.floats(0.0, 1.0)))
    rho = draw(st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)))
    power = 10.0 ** draw(st.floats(-4.0, 4.0))
    return scene_point(n, n_clutter, sigma, rho, power, draw(st.integers(0, 2**32 - 1)))


def split_beams(comm, radar, rho, power):
    return np.stack((np.sqrt((1.0 - rho) * power) * comm, np.sqrt(rho * power) * radar))


class TestInterferenceKernel:
    """The rank-L kernel against the dense Cholesky oracle, and batched against one-point."""

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(operating_points(), st.integers(0, 2**32 - 1))
    # N = L under strong clutter: U is square, where a rounding residue y - U U^H y
    # left in the solve would be scaled by no power and break the backward error
    @example(scene_point(2, 2, 1.0, 0.5, 1e4, 149), 149)
    def test_matches_dense_oracle(self, point, symbol_seed):
        cfg, clutter, a, comm, radar, rho, power = point
        beams = split_beams(comm, radar, rho, power)
        x = waveform_from_symbols(beams, draw_symbols(2, np.random.default_rng(symbol_seed)))
        y = a * np.dot(a, x)
        cov = clutter_covariance(clutter, transmit_covariance(beams))
        # the kernel is made at unit sigma; the clutter power is its scale
        gains, scale = clutter.gains(beams), clutter.sigma**2
        kernel = InterferenceKernel(clutter, gains)
        w = kernel.solve(y, scale)
        # the thin basis: O(N L) numbers, never an N x N matrix
        assert kernel._vecs.shape[-1] == kernel._lam.shape[-1] == min(cfg.n_antennas, clutter.matrix.shape[1])

        # the oracle forms W and factors it in double precision, so it is itself
        # good only to about (N + L) eps cond(W); the kernel never forms W
        eps = np.finfo(float).eps
        rel = 1e-10 + 10 * (cfg.n_antennas + clutter.matrix.shape[1]) * eps * np.linalg.cond(cov)
        whitened = np.vdot(a, scipy.linalg.cho_solve(scipy.linalg.cho_factor(cov), a)).real
        assert kernel.quadratic(a, [scale]) == pytest.approx(whitened, rel=rel)
        w_dense = optimal_receive_beamformer(a, cov, x)
        assert np.linalg.norm(w - w_dense) <= rel * np.linalg.norm(w_dense)
        closed = abs(ALPHA0) ** 2 * np.vdot(y, w).real
        assert closed == pytest.approx(scnr_at_optimum(ALPHA0, a, cov, x), rel=rel)

        # backward error of w, which does not depend on the conditioning of W
        b = clutter.matrix
        residual = w + b @ (scale * gains * (b.conj().T @ w)) - y
        size = np.linalg.norm(y) + cfg.n_antennas * scale * np.sum(gains) * np.linalg.norm(w)
        assert np.linalg.norm(residual) <= 1e-13 * size

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(operating_points(), st.lists(st.floats(-4.0, 4.0), min_size=1, max_size=8))
    def test_batched_powers_match_single_points(self, point, exponents):
        _, clutter, a, comm, radar, rho, _ = point
        powers = 10.0 ** np.array(exponents)
        scene = SensingScene(ALPHA0, a, clutter, h_sd=comm.conj(), comm_direction=comm, radar_direction=radar)
        batched = scene.average_scnr_curve(rho, powers)
        assert batched.shape == powers.shape
        for p, got in zip(powers, batched):
            single = average_scnr(clutter, split_beams(comm, radar, rho, p), ALPHA0, a)
            assert got == pytest.approx(single, rel=1e-12)

    @pytest.mark.parametrize("count", [3, 0])
    @pytest.mark.parametrize("n", [1, 2, 5])
    def test_without_clutter_power_w_is_identity(self, n, count):
        # sigma = 0 makes the scale s = sigma^2 P zero and W(0) = I: W(0)^-1 y is
        # U U^H y = y up to rounding, and y itself at every s when U is empty (L = 0)
        rng = np.random.default_rng(n + 10 * count)
        cfg = ArraySection(n_antennas=n, carrier_ghz=28.0)
        clutter = clutter_at(cfg, *random_positions(rng, count), 0.0)
        kernel = InterferenceKernel(clutter, clutter.gains(make_beams(rng, n)))
        y = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        scale = clutter.sigma**2 * 1e6
        assert np.linalg.norm(kernel.solve(y, scale) - y) <= 1e-15 * np.linalg.norm(y)
        assert kernel.quadratic(y, [scale]) == pytest.approx(np.vdot(y, y).real, rel=1e-15)
        if not count:
            for s in (0.0, 1.0, 1e6):
                assert np.array_equal(kernel.solve(y, s), y)

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(
        st.integers(1, 12),
        st.integers(0, 12),
        st.integers(1, 4),
        st.lists(st.floats(-4.0, 4.0), min_size=1, max_size=4),
        st.integers(0, 2**32 - 1),
    )
    # k = min(N, L) >= 8 terms with L >= N, so no rest masks their sum: np.sum over
    # the basis axis would add them in order beside other scales but pairwise at one
    # scale alone, as the memory layout of its terms differs
    @example(9, 10, 3, [-2.0, 0.0], 7)
    def test_a_stacked_quadratic_is_each_kernel_alone_at_each_scale(self, n, count, stack, exponents, seed):
        rng = np.random.default_rng(seed)
        cfg = ArraySection(n_antennas=n, carrier_ghz=28.0)
        matrix = steering_matrix(cfg, rng.uniform(1.0, 20.0, (stack, count)), rng.uniform(0.1, 3.0, (stack, count)))
        beams = rng.standard_normal((stack, 2, n)) + 1j * rng.standard_normal((stack, 2, n))
        gains = ClutterSteering(matrix, 1.0).gains(beams)
        scales, a = 10.0 ** np.array(exponents), steering_vector(cfg, *TARGET)
        stacked = InterferenceKernel(ClutterSteering(matrix, 1.0), gains).quadratic(a, scales)
        assert stacked.shape == (stack, len(scales))
        for r in range(stack):
            alone = InterferenceKernel(ClutterSteering(matrix[r], 1.0), gains[r])
            assert np.array_equal(stacked[r], alone.quadratic(a, scales))
            for j, scale in enumerate(scales):
                assert np.array_equal(stacked[r, j : j + 1], alone.quadratic(a, [scale]))


class TestWaveform:
    def test_symbols_are_unit_power(self):
        rng = np.random.default_rng(15)
        s = draw_symbols(200_000, rng)
        assert np.mean(np.abs(s) ** 2) == pytest.approx(1.0, abs=0.01)

    def test_waveform_is_linear_combination(self):
        rng = np.random.default_rng(16)
        beams = make_beams(rng)
        s = draw_symbols(2, rng)
        x = waveform_from_symbols(beams, s)
        assert x == pytest.approx(s[0] * beams[0] + s[1] * beams[1], rel=1e-14)

    def test_symbol_count_must_match(self):
        rng = np.random.default_rng(17)
        with pytest.raises(ValueError):
            waveform_from_symbols(make_beams(rng), np.ones(3, complex))


class TestSnapshots:
    def test_pure_noise_covariance(self):
        # alpha0 = 0, no clutter, silent beams: snapshots are CN(0, I)
        beams = np.zeros((2, 5), dtype=complex)
        snaps = radar_snapshot_batch(clutter_at(CFG, [], []), 0.0, A_TARGET, beams, np.random.default_rng(19), 100_000)
        sample = snaps.T @ snaps.conj() / snaps.shape[0]
        assert np.linalg.norm(sample - np.eye(5)) / np.linalg.norm(np.eye(5)) < 0.02

    def test_zero_mean(self):
        rng = np.random.default_rng(20)
        clutter = clutter_at(CFG, *random_positions(rng))
        beams = make_beams(rng)
        trials = 50_000
        snaps = radar_snapshot_batch(clutter, 0.0, A_TARGET, beams, np.random.default_rng(21), trials)
        assert np.linalg.norm(np.mean(snaps, axis=0)) < 3.0 * np.sqrt(5.0 / trials)

    def test_target_term_raises_power_along_steering(self):
        rng = np.random.default_rng(24)
        beams = make_beams(rng, power=50.0)
        a, empty = A_TARGET, clutter_at(CFG, [], [])
        p_loud = np.mean(np.abs(radar_snapshot_batch(empty, 5.0, a, beams, np.random.default_rng(25), 4000) @ a.conj()) ** 2)
        p_quiet = np.mean(np.abs(radar_snapshot_batch(empty, 0.0, a, beams, np.random.default_rng(25), 4000) @ a.conj()) ** 2)
        assert p_loud > 10.0 * p_quiet

    def test_count_validated(self):
        rng = np.random.default_rng(26)
        with pytest.raises(ValueError):
            radar_snapshot_batch(clutter_at(CFG, *random_positions(rng)), ALPHA0, A_TARGET, make_beams(rng), rng, 0)
