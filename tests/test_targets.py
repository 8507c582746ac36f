import pickle
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tunescope import targets as targets_module
from tunescope.errors import GeometryError, NonFiniteError
from tunescope.stimulus import Stimulus, project_cone_batch, project_sphere
from tunescope.targets import (
    HyperRanges,
    LevelSpec,
    SthorSpec,
    default_l1_spec,
    default_l2_spec,
    draw_kernels,
    linear_neuron,
    match_fitness,
    quadratic_neuron,
    read_network_weights,
    sample_network_population,
    spec_from_json,
    spec_to_json,
    sthor_network,
    unit_view,
    write_network_weights,
)


def unit_stimulus(values, height, width):
    return project_sphere(np.asarray(values, dtype=float), 1.0, (height, width))


class TestLinearNeuron:
    def test_template_response_is_one(self):
        w = unit_stimulus([1, 2, 3, 4], 2, 2)
        target = linear_neuron(w)
        assert target.evaluate(w)[0] == pytest.approx(1.0, abs=1e-12)

    def test_cone_point_response_is_cosine(self):
        rng = np.random.default_rng(0)
        w = project_sphere(rng.standard_normal(16), 1.0, (4, 4))
        target = linear_neuron(w)
        x = project_sphere(rng.standard_normal(16), 1.0, (4, 4))
        for delta in (0.1 * np.pi, 0.3 * np.pi, 0.5 * np.pi):
            row = project_cone_batch(x.values[None, :], w, delta, np.random.default_rng(0))[0]
            on_cone = Stimulus.from_values(row, 4, 4)
            assert target.evaluate(on_cone)[0] == pytest.approx(np.cos(delta), abs=1e-9)

    def test_antipode_response(self):
        w = unit_stimulus([3, 4], 1, 2)
        target = linear_neuron(w)
        antipode = Stimulus.from_values(-w.values, 1, 2)
        assert target.evaluate(antipode)[0] == pytest.approx(-1.0, abs=1e-12)

    def test_norm_precondition(self):
        bad = Stimulus.from_values(np.array([1.0, 1.0]), 1, 2)
        with pytest.raises(ValueError):
            linear_neuron(bad)

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=30)
    def test_matches_closed_form(self, seed):
        rng = np.random.default_rng(seed)
        w = project_sphere(rng.standard_normal(9), 1.0, (3, 3))
        target = linear_neuron(w)
        x = rng.standard_normal(9)
        got = target.batch(x[None, :])[0, 0]
        assert got == pytest.approx(float(w.values @ x), abs=1e-12)


class TestQuadraticNeuron:
    def test_identity_form_on_unit_stimulus(self):
        n = 4
        target = quadratic_neuron(np.eye(n), np.zeros(n), 0.0, (2, 2))
        x = unit_stimulus([1, 1, 1, 1], 2, 2)
        assert target.evaluate(x)[0] == pytest.approx(0.5, abs=1e-12)

    def test_zero_q_reduces_to_linear(self):
        rng = np.random.default_rng(1)
        w = project_sphere(rng.standard_normal(4), 1.0, (2, 2))
        quad = quadratic_neuron(np.zeros((4, 4)), w.values, 0.0, (2, 2))
        lin = linear_neuron(w)
        x = unit_stimulus(rng.standard_normal(4), 2, 2)
        assert quad.evaluate(x)[0] == pytest.approx(lin.evaluate(x)[0], abs=1e-12)

    def test_sphere_maximum_from_eigendecomposition(self):
        q = np.diag([3.0, 1.0])
        target = quadratic_neuron(q, np.zeros(2), 0.0, (1, 2))
        eigvals, eigvecs = np.linalg.eigh(q)
        top = eigvecs[:, np.argmax(eigvals)]
        at_top = target.batch(top[None, :])[0, 0]
        assert at_top == pytest.approx(eigvals.max() / 2, abs=1e-12)
        angles = np.linspace(0, 2 * np.pi, 10_000, endpoint=False)
        grid = np.stack([np.cos(angles), np.sin(angles)], axis=1)
        assert target.batch(grid).max() <= at_top + 1e-7

    def test_asymmetric_q_rejected(self):
        q = np.array([[1.0, 0.5], [0.0, 1.0]])
        with pytest.raises(ValueError):
            quadratic_neuron(q, np.zeros(2), 0.0, (1, 2))

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=30)
    def test_matches_closed_form(self, seed):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((6, 6))
        q = a + a.T
        l = rng.standard_normal(6)
        c = float(rng.standard_normal())
        target = quadratic_neuron(q, l, c, (2, 3))
        x = rng.standard_normal(6)
        expected = 0.5 * x @ q @ x + l @ x + c
        assert target.batch(x[None, :])[0, 0] == pytest.approx(expected, abs=1e-10)


def naive_forward(spec, kernels, image):
    x = image[None, :, :]
    for level, w in zip(spec.levels, kernels):
        k = level.kernel_size
        hh = x.shape[1] - k + 1
        ww = x.shape[2] - k + 1
        conv = np.zeros((level.n_filters, hh, ww))
        for f in range(level.n_filters):
            for i in range(hh):
                for j in range(ww):
                    conv[f, i, j] = np.sum(w[f] * x[:, i : i + k, j : j + k])
        if level.activation == "halfwave":
            conv = np.maximum(conv, 0.0)
        elif level.activation == "clipped":
            conv = np.clip(conv, *level.clip_bounds)
        p, s, e = level.pool_size, level.pool_stride, level.pool_exponent
        ph = (hh - p) // s + 1
        pw = (ww - p) // s + 1
        pooled = np.zeros((level.n_filters, ph, pw))
        for f in range(level.n_filters):
            for i in range(ph):
                for j in range(pw):
                    window = conv[f, i * s : i * s + p, j * s : j * s + p]
                    m = np.mean(window**e)
                    pooled[f, i, j] = m if e == 1 else max(m, 0.0) ** (1.0 / e)
        if level.norm_enabled:
            r = level.norm_radius
            normed = np.zeros_like(pooled)
            for i in range(ph):
                for j in range(pw):
                    i0, i1 = max(0, i - r), min(ph, i + r + 1)
                    j0, j1 = max(0, j - r), min(pw, j + r + 1)
                    patch = pooled[:, i0:i1, j0:j1]
                    local = np.sqrt(np.mean(patch**2, axis=0).mean())
                    normed[:, i, j] = pooled[:, i, j] / (
                        level.norm_threshold + level.norm_strength * local
                    )
            pooled = normed
        x = pooled
    return x[:, x.shape[1] // 2, x.shape[2] // 2]


class TestSthorNetwork:
    def test_l1_default_geometry(self):
        target = sthor_network(default_l1_spec(weight_seed=1))
        assert target.input_shape == (11, 11)
        assert target.size == 121
        assert target.response_dim == 32

    def test_l2_default_geometry(self):
        target = sthor_network(default_l2_spec(weight_seed=1))
        assert target.input_shape == (21, 21)
        assert target.size == 441
        assert target.response_dim == 32

    def test_transparent_network_returns_center_pixel(self):
        level = LevelSpec(
            kernel_size=3,
            n_filters=1,
            activation="identity",
            pool_size=1,
            pool_stride=1,
            pool_exponent=1.0,
            norm_enabled=False,
        )
        spec = SthorSpec(levels=(level,), weight_seed=0)
        delta = np.zeros((1, 1, 3, 3))
        delta[0, 0, 1, 1] = 1.0
        target = sthor_network(spec, kernels=[delta])
        rng = np.random.default_rng(2)
        stim = project_sphere(rng.standard_normal(9), 1.0, (3, 3))
        assert target.evaluate(stim)[0] == pytest.approx(stim.image[1, 1], abs=1e-12)

    def test_deterministic_across_constructions(self):
        rng = np.random.default_rng(3)
        stimuli = rng.standard_normal((100, 121))
        a = sthor_network(default_l1_spec(weight_seed=9)).batch(stimuli)
        b = sthor_network(default_l1_spec(weight_seed=9)).batch(stimuli)
        np.testing.assert_array_equal(a, b)

    def test_purity_bitwise(self):
        target = sthor_network(default_l2_spec(weight_seed=4))
        stim = project_sphere(np.random.default_rng(5).standard_normal(441), 1.0, (21, 21))
        np.testing.assert_array_equal(target.evaluate(stim), target.evaluate(stim))

    def test_halfwave_cascade_nonnegative_and_finite(self):
        target = sthor_network(default_l1_spec(weight_seed=6))
        rng = np.random.default_rng(7)
        responses = target.batch(rng.standard_normal((50, 121)))
        assert np.all(np.isfinite(responses))
        assert np.all(responses >= 0)

    def test_zero_pool_exponent_rejected(self):
        with pytest.raises(ValueError, match="pool_exponent"):
            LevelSpec(kernel_size=7, n_filters=1, pool_size=5, pool_exponent=0)

    @pytest.mark.parametrize("overrides", [dict(activation="halfwave", pool_exponent=1.5),
                                           dict(activation="clipped", pool_exponent=1.5),
                                           dict(activation="identity", pool_exponent=3.0),
                                           dict(activation="clipped", clip_bounds=(-1.0, 1.0),
                                                pool_exponent=10.0)],
                             ids=["halfwave-1.5", "clipped-1.5", "identity-3", "clipped-signed-10"])
    def test_accepted_pool_exponent_gives_finite_responses(self, overrides):
        spec = SthorSpec(levels=(LevelSpec(kernel_size=3, n_filters=2, **overrides),), weight_seed=2)
        target = sthor_network(spec)
        responses = target.batch(np.random.default_rng(3).standard_normal((20, target.size)))
        assert np.all(np.isfinite(responses))

    def test_even_kernel_size_is_geometry_error(self):
        with pytest.raises(GeometryError, match="kernel size 4 must be odd"):
            LevelSpec(kernel_size=4, n_filters=1)

    @pytest.mark.parametrize("count", [0, 3])
    def test_level_count_outside_one_or_two_is_geometry_error(self, count):
        level = LevelSpec(kernel_size=3, n_filters=1)
        with pytest.raises(GeometryError, match=f"{count} levels unsupported"):
            SthorSpec(levels=(level,) * count)

    def test_wrong_kernel_shape_is_geometry_error(self):
        spec = default_l1_spec(weight_seed=1)
        kernel = draw_kernels(spec)[0]
        with pytest.raises(GeometryError, match="kernel shape"):
            sthor_network(spec, kernels=[kernel[:, :, :-1, :-1]])

    def test_kernel_count_other_than_level_count_is_geometry_error(self):
        spec = default_l2_spec(weight_seed=1)
        kernels = draw_kernels(spec)
        for given in (kernels[:1], kernels + [kernels[1]]):
            with pytest.raises(GeometryError,
                               match=f"kernel count {len(given)} != level count 2"):
                sthor_network(spec, kernels=given)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_kernel_is_refused(self, value):
        spec = default_l2_spec(weight_seed=1)
        kernels = draw_kernels(spec)
        kernels[1][3, 7, 0, 2] = value
        with pytest.raises(NonFiniteError, match="non-finite"):
            sthor_network(spec, kernels=kernels)

    def test_negative_weight_seed_rejected(self):
        level = LevelSpec(kernel_size=7, n_filters=1, pool_size=5, pool_stride=1)
        with pytest.raises(ValueError, match="weight_seed"):
            SthorSpec(levels=(level,), weight_seed=-1)

    def test_kernels_zero_mean_unit_norm(self):
        for w in draw_kernels(default_l2_spec(weight_seed=8)):
            flat = w.reshape(w.shape[0], -1)
            np.testing.assert_allclose(flat.mean(axis=1), 0.0, atol=1e-12)
            np.testing.assert_allclose(np.linalg.norm(flat, axis=1), 1.0, atol=1e-12)

    def test_matches_naive_reference_one_level(self):
        level = LevelSpec(
            kernel_size=3,
            n_filters=4,
            pool_size=2,
            pool_stride=1,
            pool_exponent=2.0,
            norm_enabled=True,
            norm_radius=1,
        )
        spec = SthorSpec(levels=(level,), weight_seed=10)
        target = sthor_network(spec)
        kernels = draw_kernels(spec)
        rng = np.random.default_rng(11)
        for _ in range(3):
            stim = project_sphere(rng.standard_normal(16), 1.0, spec.input_shape)
            expected = naive_forward(spec, kernels, stim.image)
            np.testing.assert_allclose(target.evaluate(stim), expected, atol=1e-10)

    def test_matches_naive_reference_two_level(self):
        spec = SthorSpec(
            levels=(
                LevelSpec(kernel_size=3, n_filters=3, pool_size=2, pool_stride=2,
                          pool_exponent=10.0, norm_radius=1),
                LevelSpec(kernel_size=3, n_filters=2, pool_size=2, pool_stride=1,
                          pool_exponent=1.0, norm_strength=0.5),
            ),
            weight_seed=12,
        )
        target = sthor_network(spec)
        assert target.input_shape == (10, 10)
        kernels = draw_kernels(spec)
        rng = np.random.default_rng(13)
        for _ in range(3):
            stim = project_sphere(rng.standard_normal(100), 1.0, (10, 10))
            expected = naive_forward(spec, kernels, stim.image)
            np.testing.assert_allclose(target.evaluate(stim), expected, atol=1e-10)

    def test_chunked_batch_matches_per_item(self):
        target = sthor_network(default_l1_spec(weight_seed=14))
        rng = np.random.default_rng(15)
        matrix = rng.standard_normal((130, 121))
        batched = target.batch(matrix)
        assert batched.shape == (130, 32)
        for row in (0, 63, 64, 129):
            stim = Stimulus.from_values(matrix[row], 11, 11)
            np.testing.assert_allclose(batched[row], target.evaluate(stim), atol=1e-12)


def reference_box_sum(plane, radius):
    """Border-clipped box sums, with every index built per call."""
    padded = np.cumsum(np.cumsum(plane, axis=-2), axis=-1)
    padded = np.pad(padded, [(0, 0)] * (plane.ndim - 2) + [(1, 0), (1, 0)])
    h, w = plane.shape[-2:]
    rows = np.arange(h)
    cols = np.arange(w)
    top = np.clip(rows - radius, 0, h)
    bottom = np.clip(rows + radius + 1, 0, h)
    left = np.clip(cols - radius, 0, w)
    right = np.clip(cols + radius + 1, 0, w)
    return (
        padded[..., bottom[:, None], right[None, :]]
        - padded[..., top[:, None], right[None, :]]
        - padded[..., bottom[:, None], left[None, :]]
        + padded[..., top[:, None], left[None, :]]
    )


def reference_divisive_normalize(x, radius, strength, threshold):
    h, w = x.shape[2], x.shape[3]
    mean_square = np.mean(x * x, axis=1)
    sums = reference_box_sum(mean_square, radius)
    rows = np.arange(h)
    cols = np.arange(w)
    span_h = np.clip(rows + radius + 1, 0, h) - np.clip(rows - radius, 0, h)
    span_w = np.clip(cols + radius + 1, 0, w) - np.clip(cols - radius, 0, w)
    counts = span_h[:, None] * span_w[None, :]
    local_rms = np.sqrt(sums / counts)
    return x / (threshold + strength * local_rms[:, None, :, :])


def reference_batch(spec, kernels, matrix, chunk):
    """The cascade with normalization geometry derived on every call."""
    side = spec.input_shape[0]
    parts = []
    for start in range(0, matrix.shape[0], chunk):
        x = matrix[start : start + chunk].reshape(-1, 1, side, side)
        for level, w in zip(spec.levels, kernels):
            x = targets_module._conv_valid(x, w.reshape(w.shape[0], -1), level.kernel_size)
            x = targets_module._apply_activation(x, level)
            x = targets_module._pool_power_mean(
                x, level.pool_size, level.pool_stride, level.pool_exponent
            )
            if level.norm_enabled:
                x = reference_divisive_normalize(
                    x, level.norm_radius, level.norm_strength, level.norm_threshold
                )
        parts.append(x[:, :, x.shape[2] // 2, x.shape[3] // 2])
    return np.concatenate(parts, axis=0)


RANGES = HyperRanges()


@st.composite
def cascade_specs(draw):
    base = draw(st.sampled_from([default_l1_spec(), default_l2_spec()]))
    levels = []
    for index, level in enumerate(base.levels):
        is_top = index == len(base.levels) - 1
        levels.append(
            replace(
                level,
                n_filters=level.n_filters if is_top else draw(st.sampled_from(RANGES.n_filters)),
                pool_exponent=draw(st.sampled_from(RANGES.pool_exponent)),
                norm_strength=draw(st.sampled_from(RANGES.norm_strength)),
                norm_radius=draw(st.integers(0, 3)),
                norm_enabled=draw(st.booleans()),
                activation=draw(st.sampled_from(["halfwave", "clipped", "identity"])),
            )
        )
    return replace(base, levels=tuple(levels), weight_seed=draw(st.integers(0, 2**32 - 1)))


class TestForwardOracle:
    @given(
        spec=cascade_specs(),
        rows=st.sampled_from([1, 18, 22, 64, 65, 130]),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_batch_bitwise_equals_per_call_geometry(self, spec, rows, seed):
        target = sthor_network(spec)
        assert target.chunk == {1: 64, 2: 22}[len(spec.levels)]
        matrix = np.random.default_rng(seed).standard_normal((rows, target.size))
        expected = reference_batch(spec, draw_kernels(spec), matrix, target.chunk)
        assert target.batch(matrix).tobytes() == expected.tobytes()


class TestUnitView:
    def test_scalar_target_unchanged(self):
        w = unit_stimulus([1, 0, 0, 0], 2, 2)
        target = linear_neuron(w)
        view = unit_view(target, 0)
        x = unit_stimulus([1, 1, 0, 0], 2, 2)
        assert view.evaluate(x)[0] == target.evaluate(x)[0]

    def test_component_five_of_network(self):
        target = sthor_network(default_l1_spec(weight_seed=16))
        view = unit_view(target, 5)
        rng = np.random.default_rng(17)
        for _ in range(5):
            stim = project_sphere(rng.standard_normal(121), 1.0, (11, 11))
            assert view.evaluate(stim)[0] == target.evaluate(stim)[5]

    def test_out_of_range(self):
        target = sthor_network(default_l1_spec(weight_seed=18))
        with pytest.raises(IndexError):
            unit_view(target, 32)


class TestMatchFitness:
    def test_exact_match_gives_one(self):
        w = unit_stimulus([0, 1], 1, 2)
        target = linear_neuron(w)
        matcher = match_fitness(target, target.evaluate(w))
        assert matcher.evaluate(w)[0] == pytest.approx(1.0, abs=1e-12)

    def test_unit_residual_gives_inverse_e(self):
        w = unit_stimulus([1, 0], 1, 2)
        target = linear_neuron(w)
        x = unit_stimulus([0, 1], 1, 2)  # response 0
        matcher = match_fitness(target, np.array([1.0]))
        assert matcher.evaluate(x)[0] == pytest.approx(np.exp(-1.0), abs=1e-12)

    def test_monotone_in_residual(self):
        w = unit_stimulus([1, 0, 0, 0], 2, 2)
        target = linear_neuron(w)
        matcher = match_fitness(target, np.array([1.0]))
        angles = np.linspace(0, np.pi / 2, 7)
        fits = [
            matcher.batch(np.array([[np.cos(a), np.sin(a), 0.0, 0.0]]))[0, 0] for a in angles
        ]
        assert all(b < a for a, b in zip(fits, fits[1:]))

    def test_dimension_mismatch(self):
        target = sthor_network(default_l1_spec(weight_seed=19))
        with pytest.raises(ValueError):
            match_fitness(target, np.zeros(5))

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=30)
    def test_range_zero_one(self, seed):
        rng = np.random.default_rng(seed)
        w = project_sphere(rng.standard_normal(4), 1.0, (2, 2))
        matcher = match_fitness(linear_neuron(w), rng.standard_normal(1))
        value = matcher.batch(rng.standard_normal((1, 4)))[0, 0]
        assert 0.0 < value <= 1.0


class TestPopulationSampling:
    def test_single_network(self):
        handles, manifest = sample_network_population(
            default_l1_spec(), 1, HyperRanges(), seed=20
        )
        assert len(handles) == 1 and len(manifest) == 1
        assert handles[0].response_dim == 32

    def test_manifest_reproducible(self):
        _, a = sample_network_population(default_l2_spec(), 5, HyperRanges(), seed=21)
        _, b = sample_network_population(default_l2_spec(), 5, HyperRanges(), seed=21)
        assert a == b

    def test_l2_population_shares_input_shape(self):
        handles, _ = sample_network_population(default_l2_spec(), 20, HyperRanges(), seed=22)
        assert all(h.input_shape == (21, 21) for h in handles)

    def test_drawn_values_inside_ranges(self):
        ranges = HyperRanges()
        handles, manifest = sample_network_population(default_l2_spec(), 10, ranges, seed=23)
        for handle, entry in zip(handles, manifest):
            spec = spec_from_json(handle.fingerprint["spec"])
            for level_spec, level_entry in zip(spec.levels, entry["levels"]):
                assert level_spec.pool_exponent in ranges.pool_exponent
                assert level_spec.norm_strength in ranges.norm_strength
                assert level_entry["pool_exponent"] == level_spec.pool_exponent
            assert spec.levels[0].n_filters in ranges.n_filters
            assert spec.levels[-1].n_filters == 32

    def test_empty_range_rejected(self):
        with pytest.raises(ValueError):
            HyperRanges(n_filters=())

    def test_hidden_level_filter_counts_vary(self):
        handles, manifest = sample_network_population(
            default_l2_spec(), 12, HyperRanges(), seed=24
        )
        counts = {m["levels"][0]["n_filters"] for m in manifest}
        assert len(counts) > 1


class TestSerialization:
    def test_spec_json_round_trip(self):
        spec = default_l2_spec(weight_seed=25)
        assert spec_from_json(spec_to_json(spec)) == spec

    def test_spec_json_unknown_key_rejected(self):
        blob = spec_to_json(default_l1_spec())
        blob["levels"][0]["pool_exponnt"] = 2.0
        with pytest.raises(ValueError, match="pool_exponnt"):
            spec_from_json(blob)
        blob = spec_to_json(default_l1_spec())
        blob["weight_sed"] = 1
        with pytest.raises(ValueError, match="weight_sed"):
            spec_from_json(blob)

    def test_spec_json_omitted_keys_take_defaults(self):
        spec = default_l1_spec(weight_seed=4)
        level = spec.levels[0]
        blob = {"levels": [{"kernel_size": level.kernel_size, "n_filters": level.n_filters}],
                "weight_seed": 4}
        rebuilt = spec_from_json(blob)
        assert rebuilt.levels[0] == LevelSpec(level.kernel_size, level.n_filters)
        assert rebuilt.weight_seed == 4

    def test_weights_round_trip(self, tmp_path):
        kernels = draw_kernels(default_l2_spec(weight_seed=26))
        path = tmp_path / "weights.bin"
        write_network_weights(kernels, path)
        back = read_network_weights(path)
        assert len(back) == 2
        for original, loaded in zip(kernels, back):
            np.testing.assert_array_equal(original, loaded)

    def test_weights_header(self, tmp_path):
        path = tmp_path / "weights.bin"
        write_network_weights(draw_kernels(default_l1_spec(weight_seed=27)), path)
        raw = path.read_bytes()
        assert raw[:8] == b"STHORNET"
        with pytest.raises(ValueError):
            bad = tmp_path / "bad.bin"
            bad.write_bytes(b"NOTMAGIC" + raw[8:])
            read_network_weights(bad)

    def test_weights_of_wrong_length_name_the_file(self, tmp_path):
        path = tmp_path / "weights.bin"
        write_network_weights(draw_kernels(default_l2_spec(weight_seed=27)), path)
        raw = path.read_bytes()
        for name, damaged, error in [
            ("short.bin", raw[:-8], "ends 8 bytes short"),
            ("long.bin", raw + bytes(8), "holds bytes after its last level"),
        ]:
            bad = tmp_path / name
            bad.write_bytes(damaged)
            with pytest.raises(ValueError, match=error) as info:
                read_network_weights(bad)
            assert str(bad) in str(info.value)

    def test_rebuilt_network_matches(self, tmp_path):
        spec = default_l1_spec(weight_seed=28)
        target = sthor_network(spec)
        path = tmp_path / "weights.bin"
        write_network_weights(draw_kernels(spec), path)
        rebuilt = sthor_network(spec_from_json(spec_to_json(spec)), kernels=read_network_weights(path))
        rng = np.random.default_rng(29)
        matrix = rng.standard_normal((10, 121))
        np.testing.assert_array_equal(target.batch(matrix), rebuilt.batch(matrix))


def built_in_handles():
    l1 = sthor_network(default_l1_spec(weight_seed=30))
    l2 = sthor_network(default_l2_spec(weight_seed=31))
    template = unit_stimulus(np.arange(1.0, 122.0), 11, 11)
    rng = np.random.default_rng(32)
    a = rng.standard_normal((121, 121))
    return {
        "l1": l1,
        "l2": l2,
        "unit_view": unit_view(l1, 5),
        "match_fitness": match_fitness(l2, l2.batch(rng.standard_normal((1, 441)))[0]),
        "linear": linear_neuron(template),
        "quadratic": quadratic_neuron((a + a.T) / 2, rng.standard_normal(121), 0.5, (11, 11)),
    }


@pytest.mark.parametrize("name", ["l1", "l2", "unit_view", "match_fitness", "linear", "quadratic"])
def test_handle_pickles_with_unchanged_bytes(name):
    handle = built_in_handles()[name]
    copy = pickle.loads(pickle.dumps(handle))
    matrix = np.random.default_rng(33).standard_normal((30, handle.size))
    assert copy.batch(matrix).tobytes() == handle.batch(matrix).tobytes()
    assert copy.input_shape == handle.input_shape and copy.name == handle.name
    if handle.network is not None:
        assert copy.batch.args[0] is copy.network
