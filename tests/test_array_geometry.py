"""Array layout, exact and quadratic-approximate distances, beam steering.

The distance and Fraunhofer helpers are test oracles, read by the near-field
gate. Exact distances are checked against a brute-force Cartesian oracle
(place the elements and the source in the plane, take Euclidean norms) and the
steering phases against the closed half-wavelength form.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jrcsim.array_geometry import array_constants, element_index_offsets, steering_matrix, steering_vector
from jrcsim.scenario import ArraySection
from oracles import aperture, exact_distance, fraunhofer_distance, fresnel_distance

C_LIGHT = 299_792_458.0


def cartesian_distances(array: ArraySection, r: float, theta: float) -> np.ndarray:
    """Oracle: element m at (n_m d, 0), source at (r cos(theta), r sin(theta))."""
    offsets = element_index_offsets(array.n_antennas)
    sx, sy = r * np.cos(theta), r * np.sin(theta)
    return np.hypot(sx - offsets * spacing(array), sy)


def spacing(array: ArraySection) -> float:
    return array_constants(array)[2]


def wavelength(array: ArraySection) -> float:
    return array_constants(array)[1]


class TestArrayConfig:
    """The carrier, wavelength and spacing derived from a scenario's array section;
    the section itself rejects the values they could not be derived from."""

    def test_default_spacing_is_half_wavelength(self):
        carrier_hz, _, d = array_constants(ArraySection(n_antennas=5, carrier_ghz=28.0))
        assert carrier_hz == 28e9
        assert abs(2.0 * d * carrier_hz - C_LIGHT) / C_LIGHT < 1e-12
        assert array_constants(ArraySection(carrier_ghz=28.0, spacing_m=0.05))[2] == 0.05

    def test_aperture_exact(self):
        cfg = ArraySection(n_antennas=10, carrier_ghz=28.0)
        assert aperture(cfg) == (10 - 1) * spacing(cfg)

    def test_wavelength(self):
        cfg = ArraySection(n_antennas=4, carrier_ghz=2.8)
        assert wavelength(cfg) == pytest.approx(C_LIGHT / 2.8e9, rel=1e-15)


class TestElementOffsets:
    def test_odd_count(self):
        assert np.array_equal(element_index_offsets(5), [-2, -1, 0, 1, 2])

    def test_single_element(self):
        assert np.array_equal(element_index_offsets(1), [0.0])

    def test_even_count_half_integers(self):
        offs = element_index_offsets(10)
        assert offs[0] == -4.5 and offs[-1] == 4.5
        assert np.mean(offs) == 0.0
        assert np.all(np.diff(offs) == 1.0)


class TestExactDistance:
    def test_centre_element(self):
        cfg = ArraySection(n_antennas=5, carrier_ghz=28.0)
        assert exact_distance(cfg, 3.7, 1.1)[2] == pytest.approx(3.7, rel=1e-15)

    def test_broadside_pythagoras(self):
        # r=5, offset n=2, spacing 1: hypotenuse sqrt(25 + 4)
        cfg = ArraySection(n_antennas=5, carrier_ghz=28.0, spacing_m=1.0)
        assert exact_distance(cfg, 5.0, np.pi / 2)[4] == pytest.approx(np.sqrt(29.0), rel=1e-14)

    def test_matches_cartesian_oracle(self):
        cfg = ArraySection(n_antennas=5, carrier_ghz=28.0)
        assert exact_distance(cfg, 5.0, np.pi / 4) == pytest.approx(cartesian_distances(cfg, 5.0, np.pi / 4), rel=1e-12)

    def test_oracle_over_grid(self):
        for n in (2, 5, 10):
            cfg = ArraySection(n_antennas=n, carrier_ghz=28.0)
            for r in (0.5, 2.0, 20.0):
                for theta in (0.3, np.pi / 2, 2.7):
                    assert exact_distance(cfg, r, theta) == pytest.approx(
                        cartesian_distances(cfg, r, theta), rel=1e-12
                    )


class TestFresnelDistance:
    def test_centre_element(self):
        cfg = ArraySection(n_antennas=5, carrier_ghz=28.0)
        assert fresnel_distance(cfg, 4.2, 0.9)[2] == pytest.approx(4.2)

    def test_broadside_quadratic_only(self):
        cfg = ArraySection(n_antennas=5, carrier_ghz=28.0)
        r = 3.0
        d = spacing(cfg)
        vals = fresnel_distance(cfg, r, np.pi / 2)
        offs = element_index_offsets(5)
        assert vals == pytest.approx(r + offs**2 * d**2 / (2 * r), rel=1e-14)

    def test_error_bound_far_scenes(self):
        # |fresnel - exact| < d^2 N^2 / r whenever r >= 10 aperture
        for n in (4, 5, 10):
            cfg = ArraySection(n_antennas=n, carrier_ghz=28.0)
            for mult in (10.0, 30.0, 100.0):
                r = mult * max(aperture(cfg), 1e-3)
                for theta in (0.2, 1.0, np.pi / 2, 2.4, np.pi - 0.2):
                    err = np.max(np.abs(fresnel_distance(cfg, r, theta) - exact_distance(cfg, r, theta)))
                    assert err < spacing(cfg)**2 * n**2 / r

    def test_error_shrinks_with_range(self):
        cfg = ArraySection(n_antennas=10, carrier_ghz=28.0)
        errs = []
        for r in (100.0, 30.0, 10.0, 3.0, 1.0):  # descending
            errs.append(np.max(np.abs(fresnel_distance(cfg, r, 1.0) - exact_distance(cfg, r, 1.0))))
        assert np.all(np.diff(errs) >= 0.0)


class TestSteeringVector:
    def test_unit_modulus(self):
        cfg = ArraySection(n_antennas=10, carrier_ghz=28.0)
        a = steering_vector(cfg, 5.0, np.pi / 3)
        assert np.abs(a) == pytest.approx(np.ones(10), abs=1e-12)

    def test_centre_entry_is_one(self):
        cfg = ArraySection(n_antennas=5, carrier_ghz=28.0)
        a = steering_vector(cfg, 2.3, 1.9)
        assert a[2] == pytest.approx(1.0 + 0.0j, abs=1e-14)

    def test_half_wavelength_closed_form(self):
        cfg = ArraySection(n_antennas=7, carrier_ghz=28.0)
        r, theta = 5.0, np.pi / 3
        a = steering_vector(cfg, r, theta)
        n = element_index_offsets(7)
        lam = wavelength(cfg)
        expected = np.exp(1j * np.pi * n * (np.cos(theta) - n * lam / (4.0 * r)))
        assert a == pytest.approx(expected, abs=1e-12)

    def test_broadside_pure_curvature(self):
        cfg = ArraySection(n_antennas=5, carrier_ghz=28.0)
        r = 4.0
        a = steering_vector(cfg, r, np.pi / 2)
        n = element_index_offsets(5)
        assert a == pytest.approx(np.exp(-1j * np.pi * n**2 * wavelength(cfg) / (4.0 * r)), abs=1e-12)

    def test_broadside_symmetric_in_offset_sign(self):
        cfg = ArraySection(n_antennas=9, carrier_ghz=28.0)
        a = steering_vector(cfg, 3.0, np.pi / 2)
        assert a == pytest.approx(a[::-1], abs=1e-14)

    def test_far_field_limit(self):
        cfg = ArraySection(n_antennas=10, carrier_ghz=28.0)
        theta = 1.2
        a = steering_vector(cfg, 1e9, theta)
        plane = np.exp(1j * np.pi * element_index_offsets(10) * np.cos(theta))
        phase_err = np.abs(np.angle(a * np.conj(plane)))
        assert np.max(phase_err) < 1e-6

    def test_far_field_error_decays_like_inverse_range(self):
        cfg = ArraySection(n_antennas=10, carrier_ghz=28.0)
        theta = 1.2
        plane = np.exp(1j * np.pi * element_index_offsets(10) * np.cos(theta))
        errs = []
        for r in (10.0, 20.0, 40.0, 80.0, 160.0):
            a = steering_vector(cfg, r, theta)
            errs.append(np.max(np.abs(np.angle(a * np.conj(plane)))))
        for e_r, e_2r in zip(errs, errs[1:]):
            ratio = e_r / e_2r  # exact 1/r decay would give 2
            assert 2.0 / 1.5 < ratio < 2.0 * 1.5


class TestSteeringMatrix:
    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(st.data())
    def test_each_column_is_the_steering_vector_at_its_position(self, data):
        # square arrays (N = L) come up often: only there would a matrix laid out
        # (..., L, N) still have the shape of a (..., N, L) one
        n = data.draw(st.integers(1, 12), label="n")
        count = data.draw(st.one_of(st.just(n), st.integers(1, 12)), label="count")
        stack = data.draw(st.sampled_from([(), (1,), (3,), (2, 2)]), label="stack")
        array = ArraySection(
            n_antennas=n,
            carrier_ghz=data.draw(st.sampled_from([2.8, 28.0]), label="carrier"),
            spacing_m=data.draw(st.sampled_from([None, 0.004, 0.05]), label="spacing"),
        )
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        ranges = rng.uniform(0.5, 50.0, stack + (count,))
        angles = rng.uniform(0.0, np.pi, stack + (count,))
        matrix = steering_matrix(array, ranges, angles)
        assert matrix.shape == stack + (n, count)
        assert matrix.flags.c_contiguous
        for index in np.ndindex(stack + (count,)):
            column = matrix[index[:-1] + (slice(None), index[-1])]
            assert np.array_equal(column, steering_vector(array, ranges[index], angles[index]))


class TestFraunhoferDistance:
    def test_single_element_is_zero(self):
        assert fraunhofer_distance(ArraySection(n_antennas=1, carrier_ghz=28.0)) == 0.0

    def test_formula(self):
        cfg = ArraySection(n_antennas=10, carrier_ghz=28.0)
        lam = wavelength(cfg)
        d_f = fraunhofer_distance(cfg)
        assert d_f == pytest.approx(2.0 * aperture(cfg)**2 / lam, rel=1e-15)
        assert d_f == pytest.approx(40.5 * lam, rel=1e-12)
        assert d_f == pytest.approx(0.434, abs=2e-3)

    def test_quadruples_when_aperture_doubles(self):
        f10 = fraunhofer_distance(ArraySection(n_antennas=10, carrier_ghz=28.0))
        f19 = fraunhofer_distance(ArraySection(n_antennas=19, carrier_ghz=28.0))
        assert f19 == pytest.approx(4.0 * f10, rel=1e-12)

    def test_operating_range_beyond_fraunhofer_but_curved(self):
        # 5 m is outside the strict Fraunhofer distance, yet the quadratic
        # phase across the aperture still exceeds a milliradian
        cfg = ArraySection(n_antennas=10, carrier_ghz=28.0)
        assert fraunhofer_distance(cfg) < 5.0
        n = element_index_offsets(10)
        curvature = np.pi * n**2 * wavelength(cfg) / (4.0 * 5.0)
        assert np.max(curvature) > 1e-3
