import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tunescope.errors import EmptySetError, NonFiniteError, ZeroVectorError
from tunescope.stimulus import (
    Stimulus,
    StimulusSet,
    angular_distance,
    project_cone_batch,
    project_sphere,
    project_sphere_batch,
    random_orthogonal_unit,
    read_stimulus_csv,
    sample_pink_noise,
    write_stimulus_csv,
    write_stimulus_pgm,
)


def unit_stimulus(values, height, width):
    return project_sphere(np.asarray(values, dtype=float), 1.0, (height, width))


def cone(raw, x_hat, delta):
    """``project_cone_batch`` with a fixed generator for parallel rows."""
    return project_cone_batch(raw, x_hat, delta, np.random.default_rng(0))


class TestProjectSphere:
    def test_three_four_five(self):
        s = project_sphere(np.array([3.0, 4.0]), 1.0, (1, 2))
        np.testing.assert_allclose(s.values, [0.6, 0.8], rtol=0, atol=1e-15)

    def test_unit_input_unchanged(self):
        x = np.array([1.0, 0.0, 0.0, 0.0])
        s = project_sphere(x, 1.0, (2, 2))
        np.testing.assert_allclose(s.values, x, rtol=0, atol=1e-12)

    def test_norm_matches_requested_energy(self):
        rng = np.random.default_rng(7)
        x = rng.standard_normal((5, 5))
        s = project_sphere(x, 2.0, (5, 5))
        assert abs(np.linalg.norm(s.values) - 2.0) <= 1e-9 * 2.0

    def test_zero_vector_rejected(self):
        with pytest.raises(ZeroVectorError):
            project_sphere(np.zeros(4), 1.0, (2, 2))

    def test_non_finite_rejected(self):
        with pytest.raises(NonFiniteError):
            project_sphere(np.array([1.0, np.nan]), 1.0, (1, 2))

    @given(seed=st.integers(0, 2**32 - 1), energy=st.floats(0.1, 10.0))
    def test_idempotent(self, seed, energy):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal(12)
        once = project_sphere(x, energy, (3, 4))
        twice = project_sphere(once.values, energy, (3, 4))
        np.testing.assert_allclose(twice.values, once.values, rtol=0, atol=1e-12 * energy)


class TestProjectSphereBatch:
    @pytest.mark.parametrize("shape", [(1, 441), (18, 121), (22, 441), (200, 441), (1000, 121)])
    def test_rows_match_one_norm_per_row_bitwise(self, shape):
        # task stimuli, seeding noise and orthogonal draws were scaled one
        # row at a time like this, so they keep their bytes
        rows = np.random.default_rng(shape[0]).standard_normal(shape) * 3.0
        expected = np.stack([row * (0.7 / np.linalg.norm(row)) for row in rows])
        np.testing.assert_array_equal(project_sphere_batch(rows, 0.7), expected)

    def test_zero_row_rejected(self):
        rows = np.ones((3, 4))
        rows[1] = 0.0
        with pytest.raises(ZeroVectorError):
            project_sphere_batch(rows, 1.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_row_rejected(self, bad):
        rows = np.ones((3, 4))
        rows[2, 1] = bad
        with pytest.raises(NonFiniteError):
            project_sphere_batch(rows, 1.0)


class TestProjectCone:
    def test_orthogonal_input_at_right_angle_is_identity(self):
        x_hat = unit_stimulus([1, 0, 0, 0], 2, 2)
        x = unit_stimulus([0, 1, 0, 0], 2, 2)
        out = cone(x.values[None, :], x_hat, np.pi / 2)[0]
        np.testing.assert_allclose(out, x.values, rtol=0, atol=1e-12)

    def test_inner_product_pinned_by_construction(self):
        rng = np.random.default_rng(3)
        x_hat = project_sphere(rng.standard_normal(16), 1.0, (4, 4))
        x = project_sphere(x_hat.values + 0.05 * rng.standard_normal(16), 1.0, (4, 4))
        delta = 0.1 * np.pi
        out = cone(x.values[None, :], x_hat, delta)[0]
        assert abs(float(out @ x_hat.values) - math.cos(delta)) <= 1e-9

    def test_angular_distance_recovered(self):
        rng = np.random.default_rng(11)
        x_hat = project_sphere(rng.standard_normal(121), 1.0, (11, 11))
        x = project_sphere(rng.standard_normal(121), 1.0, (11, 11))
        out = Stimulus.from_values(cone(x.values[None, :], x_hat, 0.3 * np.pi)[0], 11, 11)
        assert abs(angular_distance(out, x_hat) - 0.3 * np.pi) <= 1e-9

    def test_parallel_point_degenerate(self):
        # a row parallel to the axis takes a random orthogonal direction
        # from the generator; the other rows do not touch it
        x_hat = unit_stimulus([1, 0, 0, 0], 2, 2)
        raw = np.array([[0.0, 1.0, 0.0, 0.0], [2.0, 0.0, 0.0, 0.0]])
        out = cone(raw, x_hat, 0.2)
        substitute = random_orthogonal_unit(x_hat, np.random.default_rng(0)).values
        expected = np.cos(0.2) * x_hat.values + np.sin(0.2) * np.stack([raw[0], substitute])
        np.testing.assert_allclose(out, expected, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("delta", [0.0, -0.1, 4.0])
    def test_angle_outside_range_rejected(self, delta):
        x_hat = unit_stimulus([1, 0, 0, 0], 2, 2)
        x = unit_stimulus([0, 1, 0, 0], 2, 2)
        with pytest.raises(ValueError):
            cone(x.values[None, :], x_hat, delta)

    @given(
        seed=st.integers(0, 2**32 - 1),
        delta=st.floats(0.01, math.pi - 0.01),
        energy=st.floats(0.5, 3.0),
    )
    @settings(max_examples=60)
    def test_both_constraints_hold(self, seed, delta, energy):
        rng = np.random.default_rng(seed)
        x_hat = project_sphere(rng.standard_normal(24), energy, (4, 6))
        x = project_sphere(rng.standard_normal(24), energy, (4, 6))
        out = cone(x.values[None, :], x_hat, delta)[0]
        assert abs(np.linalg.norm(out) - energy) <= 1e-9 * max(1.0, energy)
        cos_obs = float(out @ x_hat.values) / energy**2
        assert abs(cos_obs - math.cos(delta)) <= 1e-9


class TestPinkNoise:
    def radial_band_power(self, rows, side, f_lo, f_hi):
        """Mean spectral power in a radial band, averaged over ``rows``."""
        freq = np.hypot(np.fft.fftfreq(side)[:, None], np.fft.fftfreq(side)[None, :])
        spectrum = np.abs(np.fft.fft2(rows.reshape(-1, side, side))) ** 2
        band = (freq >= f_lo) & (freq < f_hi)
        return float(spectrum[:, band].mean())

    def test_white_noise_profile_flat(self):
        rows = sample_pink_noise(32, 32, (0.0,), 1.0, np.random.default_rng(0), count=60)
        low = self.radial_band_power(rows, 32, 0.05, 0.15)
        high = self.radial_band_power(rows, 32, 0.3, 0.5)
        assert 0.8 < low / high < 1.25

    def test_energy_exact(self):
        alphas = (-4.0, -3.0, -2.0, -1.0, 0.0)
        rows = sample_pink_noise(16, 16, alphas, 1.0, np.random.default_rng(5), count=5)
        np.testing.assert_allclose(np.linalg.norm(rows, axis=1), 1.0, rtol=0, atol=1e-9)

    def test_negative_alpha_boosts_high_frequencies(self):
        # the radial frequency axis runs to hypot(.5, .5); the band must
        # reach the corners where an f^2 envelope parks its energy
        boosted = sample_pink_noise(32, 32, (-2.0,), 1.0, np.random.default_rng(20), count=50)
        white = sample_pink_noise(32, 32, (0.0,), 1.0, np.random.default_rng(20), count=50)
        assert self.radial_band_power(boosted, 32, 0.4, 1.0) > self.radial_band_power(
            white, 32, 0.4, 1.0
        )

    def test_mean_free(self):
        rows = sample_pink_noise(8, 8, (-1.0,), 1.0, np.random.default_rng(9), count=1)
        assert abs(rows[0].mean()) < 1e-12

    @given(seed=st.integers(0, 2**31), alpha=st.sampled_from([-4.0, -2.0, 0.0]))
    @settings(max_examples=25)
    def test_deterministic_given_seed(self, seed, alpha):
        a = sample_pink_noise(8, 8, (alpha,), 1.0, np.random.default_rng(seed), count=2)
        b = sample_pink_noise(8, 8, (alpha,), 1.0, np.random.default_rng(seed), count=2)
        np.testing.assert_array_equal(a, b)


def reference_pink_noise(height, width, alpha, energy, rng):
    """One stimulus per call: noise, envelope and projection built each time."""
    spectrum = np.fft.fft2(rng.standard_normal((height, width)))
    freq = np.hypot(np.fft.fftfreq(height)[:, None], np.fft.fftfreq(width)[None, :])
    envelope = np.zeros_like(freq)
    nonzero = freq > 0
    envelope[nonzero] = freq[nonzero] ** (-alpha)
    shaped = np.fft.ifft2(spectrum * envelope).real
    return shaped.ravel() * (energy / np.linalg.norm(shaped.ravel()))


class TestPinkNoiseBatch:
    @given(
        seed=st.integers(0, 2**32 - 1),
        shape=st.sampled_from([(2, 2), (3, 5), (1, 7), (8, 8), (11, 11), (21, 21)]),
        alphas=st.sampled_from([(0.0,), (-4.0, -3.0, -2.0, -1.0, 0.0), (-2, 1.5), (-1.0, 0.0, 2.0)]),
        count=st.integers(1, 13),
    )
    @example(seed=3, shape=(8, 8), alphas=(-1.0, 0.0, 2.0), count=7)
    @settings(max_examples=60, deadline=None)
    def test_rows_and_generator_state_match_successive_draws(self, seed, shape, alphas, count):
        batch_rng = np.random.default_rng(seed)
        batch = sample_pink_noise(*shape, alphas, 2.5, batch_rng, count=count)
        single_rng = np.random.default_rng(seed)
        singles = [
            sample_pink_noise(*shape, (alphas[i % len(alphas)],), 2.5, single_rng, count=1)[0]
            for i in range(count)
        ]
        reference_rng = np.random.default_rng(seed)
        reference = [
            reference_pink_noise(*shape, alphas[i % len(alphas)], 2.5, reference_rng)
            for i in range(count)
        ]
        assert batch.shape == (count, shape[0] * shape[1])
        for row, single, expected in zip(batch, singles, reference):
            assert row.tobytes() == single.tobytes() == expected.tobytes()
        assert batch_rng.bit_generator.state == single_rng.bit_generator.state
        assert batch_rng.bit_generator.state == reference_rng.bit_generator.state

    @pytest.mark.parametrize(
        "shape, alpha, error",
        # a 1x1 pattern is its own DC bin; an envelope of 0.5 ** -2000 overflows
        [((1, 1), 0.0, ZeroVectorError), ((4, 4), 2000.0, NonFiniteError)],
    )
    def test_degenerate_draws_raise_typed_errors(self, shape, alpha, error):
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(error):
            sample_pink_noise(*shape, (alpha,), 1.0, np.random.default_rng(0), count=3)

    @pytest.mark.parametrize("count, alphas", [(0, (0.0,)), (3, ())])
    def test_empty_request_rejected(self, count, alphas):
        with pytest.raises(ValueError):
            sample_pink_noise(4, 4, alphas, 1.0, np.random.default_rng(0), count=count)


class TestRandomOrthogonalUnit:
    def test_two_dimensions_forced_direction(self):
        x_hat = unit_stimulus([1, 0], 1, 2)
        out = random_orthogonal_unit(x_hat, np.random.default_rng(1))
        np.testing.assert_allclose(np.abs(out.values), [0.0, 1.0], rtol=0, atol=1e-12)

    def test_different_seeds_differ(self):
        x_hat = unit_stimulus([1, 1, 1, 1], 2, 2)
        a = random_orthogonal_unit(x_hat, np.random.default_rng(1))
        b = random_orthogonal_unit(x_hat, np.random.default_rng(2))
        assert not np.allclose(a.values, b.values)

    def test_orthogonality_residual(self):
        rng = np.random.default_rng(33)
        x_hat = project_sphere(rng.standard_normal(121), 2.0, (11, 11))
        out = random_orthogonal_unit(x_hat, rng)
        assert abs(float(out.values @ x_hat.values)) <= 1e-9 * x_hat.energy**2
        assert abs(np.linalg.norm(out.values) - 2.0) <= 1e-9 * 2.0


class TestAngularDistance:
    def test_coincident(self):
        x = unit_stimulus([1, 2, 3, 4], 2, 2)
        assert angular_distance(x, x) == 0.0

    def test_orthogonal(self):
        x = unit_stimulus([1, 0], 1, 2)
        y = unit_stimulus([0, 1], 1, 2)
        assert abs(angular_distance(x, y) - np.pi / 2) <= 1e-12

    def test_forty_five_degrees(self):
        x = unit_stimulus([1, 0], 1, 2)
        y = unit_stimulus([1, 1], 1, 2)
        assert abs(angular_distance(x, y) - np.pi / 4) <= 1e-12

    def test_antipodal(self):
        x = unit_stimulus([1, 2, 2], 1, 3)
        y = Stimulus.from_values(-x.values, 1, 3)
        assert abs(angular_distance(x, y) - np.pi) <= 1e-12

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=40)
    def test_symmetric(self, seed):
        rng = np.random.default_rng(seed)
        x = project_sphere(rng.standard_normal(6), 1.0, (2, 3))
        y = project_sphere(rng.standard_normal(6), 1.5, (2, 3))
        assert angular_distance(x, y) == pytest.approx(angular_distance(y, x), abs=1e-15)


class TestStimulusSet:
    def test_empty_rejected(self):
        with pytest.raises(EmptySetError):
            StimulusSet(items=())


class TestSerialization:
    def test_csv_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(4)
        s = project_sphere(rng.standard_normal(12), 2.5, (3, 4))
        path = tmp_path / "stim.csv"
        write_stimulus_csv(s, path)
        back = read_stimulus_csv(path)
        assert back.shape == s.shape
        assert back.energy == s.energy
        np.testing.assert_array_equal(back.values, s.values)

    def test_csv_header_layout(self, tmp_path):
        s = unit_stimulus([3, 4], 1, 2)
        path = tmp_path / "stim.csv"
        write_stimulus_csv(s, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "1,2"
        assert float(lines[1]) == 1.0
        assert len(lines) == 2 + s.size

    def test_pgm_bytes(self, tmp_path):
        s = Stimulus.from_values(np.array([0.0, 1.0, 2.0, 3.0]), 2, 2)
        path = tmp_path / "stim.pgm"
        write_stimulus_pgm(s, path)
        data = path.read_bytes()
        assert data == b"P5\n2 2\n255\n" + bytes([0, 85, 170, 255])

    def test_pgm_constant_image(self, tmp_path):
        s = Stimulus(values=np.full(4, 0.5), height=2, width=2, energy=1.0)
        path = tmp_path / "flat.pgm"
        write_stimulus_pgm(s, path)
        assert path.read_bytes().endswith(bytes([0, 0, 0, 0]))
