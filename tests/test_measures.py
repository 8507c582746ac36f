import json
import math

import numpy as np
import pytest

from tunescope.artifacts import write_json
from tunescope.errors import NonPositiveOptimumError, ZeroVarianceError
from tunescope.measures import (
    MeasureReport,
    build_fd_diagram,
    encoding_specificity,
    explanation_power,
    path_potential_population,
    path_potential_unit,
    report_to_json,
    spectral_complexity,
    ssim,
    subspace_alignment,
    subspace_capacity,
    write_fd_csv,
)
from tunescope.search import PathResult, ReconstructionSet, SubspaceSample
from tunescope.stimulus import Stimulus, StimulusSet

DELTAS = tuple(0.1 * np.pi * k for k in range(1, 6))


def stim(image: np.ndarray) -> Stimulus:
    image = np.asarray(image, dtype=np.float64)
    return Stimulus.from_values(image.ravel(), *image.shape)


def unit_stim(values: np.ndarray, height: int, width: int) -> Stimulus:
    values = np.asarray(values, dtype=np.float64)
    return Stimulus.from_values(values / np.linalg.norm(values), height, width)


def path(fitnesses, kind="invariance") -> PathResult:
    return PathResult(
        kind=kind, deltas=DELTAS, points=(), fitnesses=tuple(fitnesses)
    )


class TestSpectralComplexity:
    def test_constant_image_is_zero(self):
        assert spectral_complexity(stim(np.full((8, 8), 0.5))) == pytest.approx(
            0.0, abs=1e-12
        )

    def test_impulse_image_is_one(self):
        image = np.zeros((8, 8))
        image[3, 5] = 1.0
        assert spectral_complexity(stim(image)) == pytest.approx(1.0, abs=1e-12)

    def test_single_grating_two_bins(self):
        # one cosine frequency occupies exactly a conjugate pair of bins
        h, w = 8, 8
        cols = np.arange(w)
        image = np.tile(np.cos(2 * np.pi * cols / w), (h, 1))
        expected = (np.sqrt(2) - 1) / (np.sqrt(h * w) - 1)
        assert spectral_complexity(stim(image)) == pytest.approx(expected, abs=1e-12)

    def test_scale_invariant(self):
        rng = np.random.default_rng(0)
        image = rng.standard_normal((10, 10))
        assert spectral_complexity(stim(7.0 * image)) == pytest.approx(
            spectral_complexity(stim(image)), abs=1e-12
        )

    def test_shift_invariant(self):
        rng = np.random.default_rng(1)
        image = rng.standard_normal((10, 10))
        rolled = np.roll(image, shift=(3, 4), axis=(0, 1))
        assert spectral_complexity(stim(rolled)) == pytest.approx(
            spectral_complexity(stim(image)), abs=1e-12
        )


class TestExplanationPower:
    def test_antipodal_task_rectifies_to_zero(self):
        rng = np.random.default_rng(3)
        values = rng.standard_normal(16)
        x_hat = unit_stim(values, 4, 4)
        task = StimulusSet(items=(unit_stim(-values, 4, 4),))
        assert explanation_power(x_hat, task) == 0.0

    def test_full_fraction_matches_mean_oracle(self):
        rng = np.random.default_rng(5)
        x_hat = unit_stim(rng.standard_normal(25), 5, 5)
        items = tuple(unit_stim(rng.standard_normal(25), 5, 5) for _ in range(20))
        task = StimulusSet(items=items)
        products = [
            max(0.0, float(np.dot(item.unit(), x_hat.unit()))) for item in items
        ]
        expected = math.fsum(products) / len(products)
        assert explanation_power(x_hat, task) == pytest.approx(expected, abs=1e-12)


def naive_ssim(a, b, size, sigma, k1, k2, value_range):
    """Per-window loop recomputation with explicit arithmetic."""
    offsets = [i - (size - 1) / 2 for i in range(size)]
    win = [
        [math.exp(-(r * r + c * c) / (2 * sigma * sigma)) for c in offsets]
        for r in offsets
    ]
    total = math.fsum(math.fsum(row) for row in win)
    win = [[v / total for v in row] for row in win]
    c1 = (k1 * value_range) ** 2
    c2 = (k2 * value_range) ** 2
    h, w = a.shape
    scores = []
    for top in range(h - size + 1):
        for left in range(w - size + 1):
            mu_a = mu_b = e_aa = e_bb = e_ab = 0.0
            for r in range(size):
                for c in range(size):
                    wgt = win[r][c]
                    va = a[top + r, left + c]
                    vb = b[top + r, left + c]
                    mu_a += wgt * va
                    mu_b += wgt * vb
                    e_aa += wgt * va * va
                    e_bb += wgt * vb * vb
                    e_ab += wgt * va * vb
            var_a = e_aa - mu_a * mu_a
            var_b = e_bb - mu_b * mu_b
            cov = e_ab - mu_a * mu_b
            scores.append(
                ((2 * mu_a * mu_b + c1) * (2 * cov + c2))
                / ((mu_a * mu_a + mu_b * mu_b + c1) * (var_a + var_b + c2))
            )
    return math.fsum(scores) / len(scores)


class TestSsim:
    def test_self_similarity_is_one(self):
        rng = np.random.default_rng(7)
        a = stim(rng.standard_normal((12, 12)))
        assert ssim(a, a) == pytest.approx(1.0, abs=1e-12)

    def test_symmetric_by_default(self):
        rng = np.random.default_rng(8)
        a = stim(rng.standard_normal((12, 12)))
        b = stim(rng.standard_normal((12, 12)))
        assert ssim(a, b) == pytest.approx(ssim(b, a), abs=1e-12)

    def test_matches_windowed_loop_oracle(self):
        rng = np.random.default_rng(9)
        image_a = rng.standard_normal((16, 16))
        image_b = image_a + 0.3 * rng.standard_normal((16, 16))
        lo = min(image_a.min(), image_b.min())
        hi = max(image_a.max(), image_b.max())
        expected = naive_ssim(image_a, image_b, 11, 1.5, 0.01, 0.03, hi - lo)
        assert ssim(stim(image_a), stim(image_b)) == pytest.approx(expected, abs=1e-9)

    def test_pinned_range_matches_oracle(self):
        rng = np.random.default_rng(10)
        image_a = rng.standard_normal((13, 13))
        image_b = rng.standard_normal((13, 13))
        expected = naive_ssim(image_a, image_b, 11, 1.5, 0.01, 0.03, 2.5)
        assert ssim(stim(image_a), stim(image_b), 2.5) == pytest.approx(
            expected, abs=1e-9
        )

    def test_window_larger_than_image_rejected(self):
        rng = np.random.default_rng(11)
        a = stim(rng.standard_normal((8, 8)))
        with pytest.raises(ValueError):
            ssim(a, a)

    def test_equal_constants_score_one(self):
        a = stim(np.full((12, 12), 0.5))
        assert ssim(a, a) == 1.0

    def test_negated_pattern_scores_low(self):
        # alternating-sign grating keeps every local window mean near zero,
        # so negation flips only the structure term
        image = np.tile(np.tile([1.0, -1.0], 8), (16, 1))
        assert ssim(stim(image), stim(-image)) < -0.9


class TestEncodingSpecificity:
    def make_set(self, reference, reconstructions):
        return ReconstructionSet(
            reference=reference,
            reconstructions=tuple(reconstructions),
            fitnesses=tuple(1.0 for _ in reconstructions),
        )

    def test_perfect_reconstructions(self):
        rng = np.random.default_rng(12)
        ref = stim(rng.standard_normal((12, 12)))
        assert encoding_specificity(self.make_set(ref, [ref, ref])) == pytest.approx(
            1.0, abs=1e-12
        )

    def test_is_mean_over_reconstructions(self):
        rng = np.random.default_rng(13)
        ref = stim(rng.standard_normal((12, 12)))
        recs = [stim(rng.standard_normal((12, 12))) for _ in range(3)]
        expected = np.mean([ssim(ref, r, float(np.ptp(ref.values))) for r in recs])
        assert encoding_specificity(self.make_set(ref, recs)) == pytest.approx(
            expected, abs=1e-12
        )

    def test_range_pinned_to_reference(self):
        # with the reference's own range pinned, scaling a reconstruction
        # changes the score; the joint-range default would partly re-normalize
        rng = np.random.default_rng(14)
        ref = stim(rng.standard_normal((12, 12)))
        rec = stim(10.0 * rng.standard_normal((12, 12)))
        pinned = encoding_specificity(self.make_set(ref, [rec]))
        joint = ssim(ref, rec)  # default: the joint range
        assert pinned != pytest.approx(joint, abs=1e-6)


class TestPathPotentialUnit:
    def test_cosine_baseline_scores_zero(self):
        fits = [np.cos(d) for d in DELTAS]
        assert path_potential_unit(path(fits), 1.0) == pytest.approx(0.0, abs=1e-12)

    def test_flat_path_scores_one(self):
        assert path_potential_unit(path([1.0] * 5), 1.0) == pytest.approx(
            1.0, abs=1e-12
        )

    def test_piecewise_fixture_hand_computed(self):
        # normalized responses 1,1,1,0,0 -> angles 0,0,0,pi/2,pi/2
        # gaps .1pi,.2pi,.3pi,.1pi,0 -> anchored trapezoid = 0.07 pi^2
        assert path_potential_unit(
            path([2.0, 2.0, 2.0, 0.0, 0.0]), 2.0
        ) == pytest.approx(0.56, abs=1e-12)

    def test_normalization_by_optimum(self):
        fits = [0.5 * np.cos(d) for d in DELTAS]
        assert path_potential_unit(path(fits), 0.5) == pytest.approx(0.0, abs=1e-12)

    def test_out_of_range_responses_clamped(self):
        # clamped to 1,1,-0.2,0.3,0; the raw area stays below the ceiling
        fitnesses = [5.0, 2.0, -0.2, 0.3, 0.0]
        value = path_potential_unit(path(fitnesses), 1.0)
        gaps = np.abs(np.arccos(np.clip(fitnesses, -1.0, 1.0)) - DELTAS)
        xs = np.concatenate([[0.0], DELTAS])
        ys = np.concatenate([[0.0], gaps])
        expected = np.trapezoid(ys, xs) / (np.pi**2 / 8)
        assert expected < 1.0
        assert value == pytest.approx(expected, abs=1e-12)

    def test_deep_negative_responses_saturate_at_one(self):
        # angles pi,pi,... would integrate past the flat-path ceiling
        fitnesses = [5.0, 2.0, -3.0, -9.0, 0.0]
        gaps = np.abs(np.arccos(np.clip(fitnesses, -1.0, 1.0)) - DELTAS)
        xs = np.concatenate([[0.0], DELTAS])
        ys = np.concatenate([[0.0], gaps])
        assert np.trapezoid(ys, xs) / (np.pi**2 / 8) > 1.0
        assert path_potential_unit(path(fitnesses), 1.0) == 1.0

    def test_zero_optimum_rejected(self):
        with pytest.raises(NonPositiveOptimumError):
            path_potential_unit(path([1.0] * 5), 0.0)


class TestPathPotentialPopulation:
    def test_flat_unity_match(self):
        assert path_potential_population(path([1.0] * 5)) == pytest.approx(
            1.0, abs=1e-12
        )

    def test_exponential_fixture_hand_computed(self):
        # anchored at (0, 1): 0.1pi*((1+e^-1)/2 + 4 e^-1) / (pi/2)
        e1 = math.exp(-1)
        assert path_potential_population(path([e1] * 5)) == pytest.approx(
            0.1 + 0.9 * e1, abs=1e-12
        )

    def test_zero_match_everywhere(self):
        # only the anchored first interval contributes: 0.05pi / (pi/2)
        assert path_potential_population(path([0.0] * 5)) == pytest.approx(
            0.1, abs=1e-12
        )


class TestSubspaceCapacity:
    def sample(self, columns):
        return SubspaceSample(
            kind="invariance",
            delta=0.1 * np.pi,
            columns=tuple(columns),
            fitnesses=tuple(0.0 for _ in columns),
        )

    def test_identical_columns_collapse_to_zero(self):
        rng = np.random.default_rng(15)
        col = unit_stim(rng.standard_normal(16), 4, 4)
        assert subspace_capacity(self.sample([col] * 5)) == pytest.approx(
            0.0, abs=1e-9
        )

    def test_orthonormal_columns_fill_to_one(self):
        columns = [
            unit_stim(np.eye(16)[i], 4, 4) for i in range(5)
        ]
        assert subspace_capacity(self.sample(columns)) == pytest.approx(1.0, abs=1e-9)

    def test_matches_gram_eigenvalue_oracle(self):
        rng = np.random.default_rng(16)
        columns = [unit_stim(rng.standard_normal(121), 11, 11) for _ in range(20)]
        matrix = np.stack([c.unit() for c in columns], axis=1)
        gram = matrix.T @ matrix
        nuclear = np.sqrt(np.clip(np.linalg.eigvalsh(gram), 0.0, None)).sum()
        n = 20
        expected = (nuclear - np.sqrt(n)) / (n - np.sqrt(n))
        assert subspace_capacity(self.sample(columns)) == pytest.approx(
            expected, abs=1e-8
        )

    def test_scale_of_columns_ignored(self):
        rng = np.random.default_rng(17)
        raw = [rng.standard_normal(16) for _ in range(6)]
        plain = [unit_stim(v, 4, 4) for v in raw]
        scaled = [stim((3.0 * v).reshape(4, 4)) for v in raw]
        assert subspace_capacity(self.sample(scaled)) == pytest.approx(
            subspace_capacity(self.sample(plain)), abs=1e-12
        )

    def test_single_column_rejected(self):
        rng = np.random.default_rng(18)
        col = unit_stim(rng.standard_normal(16), 4, 4)
        with pytest.raises(ValueError):
            subspace_capacity(self.sample([col]))


def rank_one_task(direction: np.ndarray, height: int, width: int) -> StimulusSet:
    """Stimuli varying along a single known direction."""
    items = []
    for t in (1.0, 2.0, 3.5):
        values = 0.1 + t * direction  # shared offset drops out after centering
        items.append(stim(values.reshape(height, width)))
    return StimulusSet(items=tuple(items))


class TestSubspaceAlignment:
    def sample(self, columns, anchor=None):
        return SubspaceSample(
            kind="invariance",
            delta=0.1 * np.pi,
            columns=tuple(columns),
            fitnesses=tuple(0.0 for _ in columns),
            anchor=anchor,
        )

    def test_column_on_single_component_scores_one(self):
        rng = np.random.default_rng(19)
        direction = rng.standard_normal(16)
        direction /= np.linalg.norm(direction)
        task = rank_one_task(direction, 4, 4)
        columns = [unit_stim(direction, 4, 4)] * 2
        raw, normalized = subspace_alignment(self.sample(columns), task)
        assert raw == pytest.approx(1.0, abs=1e-9)
        assert normalized is None

    def test_equal_weight_column_scores_sqrt_n(self):
        rng = np.random.default_rng(20)
        task_matrix = rng.standard_normal((10, 16))
        task = StimulusSet(
            items=tuple(stim(row.reshape(4, 4)) for row in task_matrix)
        )
        centered = task_matrix - task_matrix.mean(axis=0)
        _, _, basis = np.linalg.svd(centered, full_matrices=True)
        spread = basis.T @ (np.ones(16) / 4.0)  # equal coefficient magnitude
        columns = [unit_stim(spread, 4, 4)] * 3
        raw, _ = subspace_alignment(self.sample(columns), task)
        assert raw == pytest.approx(4.0, abs=1e-9)

    def test_matches_gram_eigenvector_oracle(self):
        # recompute the principal directions from the feature Gram matrix;
        # columns stay inside the task row space so the arbitrary
        # orthogonal completion contributes nothing
        rng = np.random.default_rng(21)
        task_matrix = rng.standard_normal((6, 16))
        task = StimulusSet(
            items=tuple(stim(row.reshape(4, 4)) for row in task_matrix)
        )
        centered = task_matrix - task_matrix.mean(axis=0)
        mixing = rng.standard_normal((5, 4))
        columns = [
            unit_stim(weights @ centered[:4], 4, 4) for weights in mixing
        ]
        eigenvalues, vectors = np.linalg.eigh(centered.T @ centered)
        expected_scores = []
        for column in columns:
            coeff = vectors.T @ column.unit()
            live = eigenvalues > 1e-9 * eigenvalues.max()
            expected_scores.append(np.abs(coeff[live]).sum())
        expected = np.mean(expected_scores)
        raw, _ = subspace_alignment(self.sample(columns), task)
        assert raw == pytest.approx(expected, abs=1e-9)

    def test_normalized_subtracts_anchor_score(self):
        rng = np.random.default_rng(22)
        task_matrix = rng.standard_normal((8, 16))
        task = StimulusSet(
            items=tuple(stim(row.reshape(4, 4)) for row in task_matrix)
        )
        columns = [unit_stim(rng.standard_normal(16), 4, 4) for _ in range(4)]
        anchor = unit_stim(rng.standard_normal(16), 4, 4)
        raw, normalized = subspace_alignment(self.sample(columns, anchor), task)
        anchor_raw, _ = subspace_alignment(self.sample([anchor] * 2), task)
        assert normalized == pytest.approx(raw - anchor_raw, abs=1e-9)

    def test_degenerate_task_rejected(self):
        rng = np.random.default_rng(23)
        item = stim(rng.standard_normal((4, 4)))
        task = StimulusSet(items=(item, item, item))
        columns = [unit_stim(rng.standard_normal(16), 4, 4)] * 2
        with pytest.raises(ZeroVarianceError):
            subspace_alignment(self.sample(columns), task)


class TestFitnessDistanceDiagram:
    def test_collates_paths_and_walks(self):
        inv = path([0.9, 0.8, 0.7, 0.5, 0.2], kind="invariance")
        sel = path([0.8, 0.5, 0.3, 0.2, 0.1], kind="selectivity")
        walks = [(DELTAS[0], 0.95), (DELTAS[0], 0.85), (DELTAS[1], 0.6)]
        rows = build_fd_diagram([inv, sel], walks)
        assert len(rows) == 13
        assert rows[:5] == tuple((d, f, "invariance") for d, f in zip(DELTAS, inv.fitnesses))
        assert rows[5:10] == tuple((d, f, "selectivity") for d, f in zip(DELTAS, sel.fitnesses))
        assert rows[10:] == tuple((d, f, "random_walk") for d, f in walks)

    def test_repeated_paths_average(self):
        first = path([1.0, 1.0, 1.0, 1.0, 1.0])
        second = path([0.0, 0.0, 0.0, 0.0, 0.0])
        rows = build_fd_diagram([first, second], None)
        for delta in DELTAS:
            at_delta = [f for d, f, series in rows if d == delta and series == "invariance"]
            assert np.mean(at_delta) == pytest.approx(0.5)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            build_fd_diagram([], None)
        with pytest.raises(ValueError):
            build_fd_diagram([], [])

    def test_csv_layout(self, tmp_path):
        rows = build_fd_diagram([path([0.9, 0.8, 0.7, 0.5, 0.2])], None)
        out = tmp_path / "curve.csv"
        write_fd_csv(rows, out)
        lines = out.read_text().splitlines()
        assert lines[0] == "series,delta,fitness"
        assert len(lines) == 6
        series, delta, fitness = lines[1].split(",")
        assert series == "invariance"
        assert float(delta) == pytest.approx(DELTAS[0])
        assert float(fitness) == 0.9


class TestMeasureReport:
    def test_field_roster(self):
        assert MeasureReport.FIELDS == (
            "ossc", "osep", "tses", "inpp", "slpp", "insc", "itsa", "stsa",
        )

    def test_as_dict_covers_all_fields(self):
        report = MeasureReport(ossc=0.5, inpp=0.2)
        blob = report.as_dict()
        assert blob["ossc"] == 0.5
        assert blob["inpp"] == 0.2
        assert blob["osep"] is None
        assert set(blob) == set(MeasureReport.FIELDS)

    def test_json_round_trip(self, tmp_path):
        report = MeasureReport(
            ossc=0.5, osep=0.9, provenance={"seed": 3, "target": "demo"}
        )
        out = tmp_path / "report.json"
        write_json(out, report_to_json(report))
        with open(out) as fh:
            blob = json.load(fh)
        assert blob == report_to_json(report)
        assert blob["provenance"]["seed"] == 3
        assert blob["tses"] is None
