"""Radar response, interference covariance, SCNR optimality, snapshots.

The optimality claims are checked two independent ways: against ten thousand
random unit-norm beamformers, and against a dense generalized-eigenvalue
solver on the (rank-one signal, covariance) pencil.
"""

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from jrcsim.array_geometry import ArrayConfig, PolarPosition, steering_vector
from jrcsim.comm_link import BeamformerSet
from jrcsim.propagation import ClutterElement, Scene
from jrcsim.radar_sensing import (
    ClutterSteering,
    InterferenceKernel,
    average_scnr,
    average_scnr_curve,
    clutter_covariance,
    draw_symbols,
    optimal_receive_beamformer,
    radar_snapshot_batch,
    response_matrix,
    scnr,
    scnr_at_optimum,
    transmit_covariance,
    transmit_waveform,
    waveform_from_symbols,
)

CFG = ArrayConfig(n_antennas=5, carrier_freq=28e9)
TARGET = PolarPosition(5.0, np.pi / 3)


def make_scene(rng, n_clutter=3, sigma=0.8, alpha0=0.5 + 0.2j):
    clutter = tuple(
        ClutterElement(
            position=PolarPosition(float(rng.uniform(0.5, 5.0)), float(rng.uniform(0.2, 2.9))),
            amplitude_scale=sigma,
        )
        for _ in range(n_clutter)
    )
    return Scene(target=TARGET, alpha0=alpha0, clutter=clutter)


def make_beams(rng, n=5, power=1.0):
    u = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    u *= np.sqrt(power / 2.0) / np.linalg.norm(u)
    v *= np.sqrt(power / 2.0) / np.linalg.norm(v)
    return BeamformerSet(comm_beams=(u,), radar_beam=v)


class TestResponseMatrix:
    def test_rank_one_factorization(self):
        a = steering_vector(CFG, TARGET)
        mat = response_matrix(CFG, TARGET)
        assert mat == pytest.approx(np.outer(a, a), rel=1e-14)
        assert np.linalg.matrix_rank(mat, tol=1e-10) == 1

    def test_plain_transpose_symmetric(self):
        mat = response_matrix(CFG, TARGET)
        assert mat == pytest.approx(mat.T, rel=1e-14)

    def test_matvec_collapses(self):
        # A x = a (a^T x)
        rng = np.random.default_rng(0)
        a = steering_vector(CFG, TARGET)
        mat = response_matrix(CFG, TARGET)
        for _ in range(50):
            x = rng.standard_normal(5) + 1j * rng.standard_normal(5)
            assert mat @ x == pytest.approx(a * np.dot(a, x), rel=1e-12)


class TestTransmitCovariance:
    def test_hermitian_psd(self):
        rng = np.random.default_rng(1)
        r = transmit_covariance(make_beams(rng))
        assert r == pytest.approx(r.conj().T, rel=1e-14)
        assert np.all(np.linalg.eigvalsh(r) > -1e-12)

    def test_trace_equals_total_power(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            beams = make_beams(rng, power=float(rng.uniform(0.1, 10.0)))
            assert np.trace(transmit_covariance(beams)).real == pytest.approx(
                beams.total_power, rel=1e-12
            )

    def test_rank_bounded_by_beam_count(self):
        rng = np.random.default_rng(3)
        r = transmit_covariance(make_beams(rng))
        assert np.linalg.matrix_rank(r, tol=1e-10) <= 2


class TestClutterCovariance:
    def test_identity_without_clutter(self):
        rng = np.random.default_rng(4)
        scene = Scene(target=TARGET, alpha0=0.1, clutter=())
        w = clutter_covariance(CFG, scene, transmit_covariance(make_beams(rng)))
        assert w == pytest.approx(np.eye(5), abs=1e-14)

    def test_rank_one_collapse_per_scatterer(self):
        # A_l R_x A_l^H = (a_l^T R_x conj(a_l)) a_l a_l^H, so W has the
        # loaded-identity form I + sum sigma^2 c_l a_l a_l^H
        rng = np.random.default_rng(5)
        scene = make_scene(rng)
        r_x = transmit_covariance(make_beams(rng))
        w = clutter_covariance(CFG, scene, r_x)
        expected = np.eye(5, dtype=complex)
        for el in scene.clutter:
            a_l = steering_vector(CFG, el.position)
            c_l = np.dot(a_l, r_x @ a_l.conj()).real
            assert c_l >= 0.0
            expected += el.amplitude_scale**2 * c_l * np.outer(a_l, a_l.conj())
        assert w == pytest.approx(expected, rel=1e-12)

    def test_hermitian_with_unit_floor(self):
        rng = np.random.default_rng(6)
        scene = make_scene(rng)
        w = clutter_covariance(CFG, scene, transmit_covariance(make_beams(rng)))
        assert w == pytest.approx(w.conj().T, rel=1e-14)
        assert np.all(np.linalg.eigvalsh(w) >= 1.0 - 1e-10)

    def test_shape_mismatch_rejected(self):
        scene = Scene(target=TARGET, alpha0=0.1, clutter=())
        with pytest.raises(ValueError):
            clutter_covariance(CFG, scene, np.eye(4, dtype=complex))

    def test_matches_snapshot_sample_covariance(self):
        # Monte Carlo oracle: W is the covariance of clutter-plus-noise
        # snapshots (target silenced), estimated from 1e5 draws
        rng = np.random.default_rng(7)
        scene = make_scene(rng)
        beams = make_beams(rng, power=2.0)
        quiet = Scene(target=scene.target, alpha0=0.0, clutter=scene.clutter)
        w = clutter_covariance(CFG, quiet, transmit_covariance(beams))
        snaps = radar_snapshot_batch(CFG, quiet, beams, np.random.default_rng(99), 100_000)
        # rows are snapshots: E[s s^H] entry (j, k) is mean of s_j conj(s_k)
        sample = snaps.T @ snaps.conj() / snaps.shape[0]
        rel = np.linalg.norm(sample - w) / np.linalg.norm(w)
        assert rel < 0.02


class TestScnrOptimality:
    def setup_method(self):
        rng = np.random.default_rng(8)
        self.scene = make_scene(rng)
        self.beams = make_beams(rng, power=2.0)
        self.a = steering_vector(CFG, TARGET)
        self.r_x = transmit_covariance(self.beams)
        self.cov = clutter_covariance(CFG, self.scene, self.r_x)
        self.x = waveform_from_symbols(self.beams, draw_symbols(2, rng))
        self.alpha0 = self.scene.alpha0

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
            scene = make_scene(rng, sigma=float(rng.uniform(0.1, 1.0)))
            beams = make_beams(rng, power=float(rng.uniform(0.5, 4.0)))
            cov = clutter_covariance(CFG, scene, transmit_covariance(beams))
            x = waveform_from_symbols(beams, draw_symbols(2, rng))
            w_star = optimal_receive_beamformer(self.a, cov, x)
            direct = scnr(w_star, scene.alpha0, self.a, cov, x)
            closed = scnr_at_optimum(scene.alpha0, self.a, cov, x)
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
        scene = make_scene(rng)
        beams = make_beams(rng, power=2.0)
        a = steering_vector(CFG, TARGET)
        cov = clutter_covariance(CFG, scene, transmit_covariance(beams))
        avg = average_scnr(CFG, beams, scene.alpha0, a, scene)
        draws = 100_000
        # row d holds the real then the imaginary parts of draw d: the stream
        # order of successive draw_symbols(2, rng) calls, so the same symbols
        parts = np.random.default_rng(12).standard_normal((draws, 2, 2))
        symbols = (parts[:, 0] + 1j * parts[:, 1]) / np.sqrt(2.0)
        x = symbols[:, 1:] * beams.radar_beam + symbols[:, :1] * beams.comm_beams[0]
        y = a * (x @ a)[:, None]  # A x per draw, as rows
        # W does not depend on the symbols: one factorization serves every draw
        w = scipy.linalg.cho_solve(scipy.linalg.cho_factor(cov), y.T)
        per_draw = abs(scene.alpha0) ** 2 * np.sum(y.T.conj() * w, axis=0).real
        assert abs(per_draw.mean() - avg) / avg < 0.01

    def test_monotone_in_clutter_strength(self):
        rng = np.random.default_rng(13)
        base = make_scene(rng, sigma=1.0)
        beams = make_beams(rng, power=2.0)
        a = steering_vector(CFG, TARGET)
        vals = []
        for scale in (0.0, 0.2, 0.5, 0.8, 1.5, 3.0):
            scene = Scene(
                target=base.target,
                alpha0=base.alpha0,
                clutter=tuple(
                    ClutterElement(el.position, scale) for el in base.clutter
                ),
            )
            vals.append(average_scnr(CFG, beams, scene.alpha0, a, scene))
        assert np.all(np.diff(vals) < 0.0)

    def test_quadratic_in_reflectivity(self):
        rng = np.random.default_rng(14)
        scene = make_scene(rng)
        beams = make_beams(rng)
        a = steering_vector(CFG, TARGET)
        s1 = average_scnr(CFG, beams, 0.1, a, scene)
        s2 = average_scnr(CFG, beams, 0.3, a, scene)
        assert s2 == pytest.approx(9.0 * s1, rel=1e-12)


@st.composite
def operating_points(draw):
    """Random scene and (P, rho) with beams split as the simulator splits them."""
    n = draw(st.integers(1, 12))
    n_clutter = draw(st.integers(0, 8))
    sigma = draw(st.one_of(st.just(0.0), st.floats(0.0, 1.0)))
    rho = draw(st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)))
    power = 10.0 ** draw(st.floats(-4.0, 4.0))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    cfg = ArrayConfig(n_antennas=n, carrier_freq=float(rng.choice([2.8e9, 28e9])))
    scene = make_scene(rng, n_clutter=n_clutter, sigma=sigma)
    a = steering_vector(cfg, scene.target)
    comm = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    comm /= np.linalg.norm(comm)
    radar = np.conj(a) / np.linalg.norm(a)
    return cfg, scene, comm, radar, rho, power


def split_beams(comm, radar, rho, power):
    return BeamformerSet(
        comm_beams=(np.sqrt((1.0 - rho) * power) * comm,), radar_beam=np.sqrt(rho * power) * radar
    )


class TestInterferenceKernel:
    """The rank-one kernel against the dense Cholesky oracle, and batched against one-point."""

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(operating_points(), st.integers(0, 2**32 - 1))
    def test_matches_dense_oracle(self, point, symbol_seed):
        cfg, scene, comm, radar, rho, power = point
        beams = split_beams(comm, radar, rho, power)
        x = waveform_from_symbols(beams, draw_symbols(2, np.random.default_rng(symbol_seed)))
        a = steering_vector(cfg, scene.target)
        y = a * np.dot(a, x)
        cov = clutter_covariance(cfg, scene, transmit_covariance(beams))
        clutter = ClutterSteering.of(cfg, scene)
        gains = clutter.gains(beams.stacked)
        kernel = InterferenceKernel(clutter, gains)
        w = kernel.solve(y)

        # the oracle forms W and factors it in double precision, so it is itself
        # good only to about (N + L) eps cond(W); the kernel never forms W
        eps = np.finfo(float).eps
        rel = 1e-10 + 10 * (cfg.n_antennas + len(scene.clutter)) * eps * np.linalg.cond(cov)
        whitened = np.vdot(a, scipy.linalg.cho_solve(scipy.linalg.cho_factor(cov), a)).real
        assert kernel.quadratic(a) == pytest.approx(whitened, rel=rel)
        w_dense = optimal_receive_beamformer(a, cov, x)
        assert np.linalg.norm(w - w_dense) <= rel * np.linalg.norm(w_dense)
        closed = abs(scene.alpha0) ** 2 * np.vdot(y, w).real
        assert closed == pytest.approx(scnr_at_optimum(scene.alpha0, a, cov, x), rel=rel)

        # backward error of w, which does not depend on the conditioning of W
        b = clutter.matrix
        residual = w + b @ (gains * (b.conj().T @ w)) - y
        scale = np.linalg.norm(y) + cfg.n_antennas * np.sum(gains) * np.linalg.norm(w)
        assert np.linalg.norm(residual) <= 1e-13 * scale

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(operating_points(), st.lists(st.floats(-4.0, 4.0), min_size=1, max_size=8))
    def test_batched_powers_match_single_points(self, point, exponents):
        cfg, scene, comm, radar, rho, _ = point
        a = steering_vector(cfg, scene.target)
        powers = 10.0 ** np.array(exponents)
        unit = np.vstack((np.sqrt(1.0 - rho) * comm, np.sqrt(rho) * radar))
        batched = average_scnr_curve(ClutterSteering.of(cfg, scene), scene.alpha0, a, unit, powers)
        assert batched.shape == powers.shape
        for p, got in zip(powers, batched):
            single = average_scnr(cfg, split_beams(comm, radar, rho, p), scene.alpha0, a, scene)
            assert got == pytest.approx(single, rel=1e-12)


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
        assert x == pytest.approx(s[0] * beams.comm_beams[0] + s[1] * beams.radar_beam, rel=1e-14)

    def test_symbol_count_must_match(self):
        rng = np.random.default_rng(17)
        with pytest.raises(ValueError):
            waveform_from_symbols(make_beams(rng), np.ones(3, complex))

    def test_transmit_waveform_deterministic(self):
        rng = np.random.default_rng(18)
        beams = make_beams(rng)
        a = transmit_waveform(beams, np.random.default_rng(5))
        b = transmit_waveform(beams, np.random.default_rng(5))
        assert np.array_equal(a, b)


class TestSnapshots:
    def test_pure_noise_covariance(self):
        # alpha0 = 0, no clutter, silent beams: snapshots are CN(0, I)
        zeros = np.zeros(5, dtype=complex)
        beams = BeamformerSet(comm_beams=(zeros,), radar_beam=zeros)
        scene = Scene(target=TARGET, alpha0=0.0, clutter=())
        snaps = radar_snapshot_batch(CFG, scene, beams, np.random.default_rng(19), 100_000)
        sample = snaps.T @ snaps.conj() / snaps.shape[0]
        assert np.linalg.norm(sample - np.eye(5)) / np.linalg.norm(np.eye(5)) < 0.02

    def test_zero_mean(self):
        rng = np.random.default_rng(20)
        scene = make_scene(rng)
        quiet = Scene(target=scene.target, alpha0=0.0, clutter=scene.clutter)
        beams = make_beams(rng)
        trials = 50_000
        snaps = radar_snapshot_batch(CFG, quiet, beams, np.random.default_rng(21), trials)
        assert np.linalg.norm(np.mean(snaps, axis=0)) < 3.0 * np.sqrt(5.0 / trials)

    def test_target_term_raises_power_along_steering(self):
        rng = np.random.default_rng(24)
        beams = make_beams(rng, power=50.0)
        a = steering_vector(CFG, TARGET)
        loud = Scene(target=TARGET, alpha0=5.0, clutter=())
        quiet = Scene(target=TARGET, alpha0=0.0, clutter=())
        p_loud = np.mean(
            np.abs(radar_snapshot_batch(CFG, loud, beams, np.random.default_rng(25), 4000) @ a.conj()) ** 2
        )
        p_quiet = np.mean(
            np.abs(radar_snapshot_batch(CFG, quiet, beams, np.random.default_rng(25), 4000) @ a.conj()) ** 2
        )
        assert p_loud > 10.0 * p_quiet

    def test_count_validated(self):
        rng = np.random.default_rng(26)
        with pytest.raises(ValueError):
            radar_snapshot_batch(CFG, make_scene(rng), make_beams(rng), rng, 0)
