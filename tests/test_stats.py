import math
from itertools import combinations, permutations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tunescope.errors import RankDeficientError, ZeroVarianceError
from tunescope.stats import (
    d_prime,
    multiple_r2,
    pearson,
    permutation_test,
    spearman,
    write_correlation_csv,
)


class TestPearson:
    def test_affine_positive(self):
        x = np.arange(10.0)
        assert pearson(x, 2 * x + 1) == pytest.approx(1.0, abs=1e-12)

    def test_negated(self):
        x = np.arange(10.0)
        assert pearson(x, -x) == pytest.approx(-1.0, abs=1e-12)

    def test_against_summation_oracle(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal(10)
        y = rng.standard_normal(10)
        mx = math.fsum(x) / 10
        my = math.fsum(y) / 10
        num = math.fsum((a - mx) * (b - my) for a, b in zip(x, y))
        den = math.sqrt(
            math.fsum((a - mx) ** 2 for a in x) * math.fsum((b - my) ** 2 for b in y)
        )
        assert pearson(x, y) == pytest.approx(num / den, abs=1e-12)

    def test_constant_series_rejected(self):
        with pytest.raises(ZeroVarianceError):
            pearson([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])


class TestSpearman:
    def test_monotone_transform_gives_one(self):
        x = np.array([0.3, -1.0, 2.0, 0.9, 5.5])
        assert spearman(x, np.exp(x)) == pytest.approx(1.0, abs=1e-12)

    def test_reversed_order(self):
        x = np.arange(8.0)
        assert spearman(x, x[::-1]) == pytest.approx(-1.0, abs=1e-12)

    def test_ties_match_bruteforce_midranks(self):
        x = np.array([1.0, 2.0, 2.0, 3.0, 4.0, 4.0, 4.0])
        y = np.array([5.0, 3.0, 3.0, 1.0, 7.0, 7.0, 2.0])

        def brute_ranks(values):
            ranks = np.empty(len(values))
            for i, v in enumerate(values):
                below = sum(1 for u in values if u < v)
                equal = sum(1 for u in values if u == v)
                ranks[i] = below + (equal + 1) / 2
            return ranks

        expected = pearson(brute_ranks(x), brute_ranks(y))
        assert spearman(x, y) == pytest.approx(expected, abs=1e-12)

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=25)
    def test_invariant_under_monotone_transform(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal(12)
        y = rng.standard_normal(12)
        base = spearman(x, y)
        assert spearman(np.exp(x), y) == pytest.approx(base, abs=1e-12)
        assert spearman(x, 3 * y + 10) == pytest.approx(base, abs=1e-12)


class TestMultipleR2:
    def test_exact_linear_fit(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((30, 4))
        y = x @ np.array([1.0, -2.0, 0.5, 3.0]) + 7.0
        assert multiple_r2(x, y) == pytest.approx(1.0, abs=1e-10)

    def test_independent_noise_near_zero(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((2000, 1))
        y = rng.standard_normal(2000)
        assert multiple_r2(x, y) < 0.05

    def test_against_normal_equation_oracle(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((40, 8))
        y = rng.standard_normal(40)
        design = np.column_stack([np.ones(40), x])
        beta = np.linalg.inv(design.T @ design) @ design.T @ y
        residual = y - design @ beta
        expected = 1 - (residual @ residual) / ((y - y.mean()) @ (y - y.mean()))
        assert multiple_r2(x, y) == pytest.approx(expected, abs=1e-9)

    def test_rank_deficient_rejected(self):
        rng = np.random.default_rng(4)
        col = rng.standard_normal(20)
        x = np.column_stack([col, 2 * col])
        with pytest.raises(RankDeficientError):
            multiple_r2(x, rng.standard_normal(20))

    def test_too_few_rows_rejected(self):
        with pytest.raises(ValueError):
            multiple_r2(np.eye(3), np.arange(3.0))

    def test_invariant_to_feature_rescaling(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((25, 3))
        y = rng.standard_normal(25)
        scaled = x * np.array([10.0, -0.2, 3.0]) + np.array([5.0, 0.0, -1.0])
        assert multiple_r2(scaled, y) == pytest.approx(multiple_r2(x, y), abs=1e-10)


def loop_permutation_p(a, b, statistic, n_perm, seed):
    """Reference p-value, scoring one draw at a time.

    ``mean_diff`` gathers each group in pooled order, like the chunked
    kernel, so the two agree on draws that reproduce the observed split.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if statistic == "mean_diff":
        pooled = np.concatenate([a, b])
        size, n_a = pooled.size, a.size

        def stat(order):
            order = np.asarray(order)
            group_a = pooled[np.sort(order[:n_a])]
            group_b = pooled[np.sort(order[n_a:])]
            return abs(float(group_a.mean() - group_b.mean()))

        total = math.comb(size, n_a)
        enumerated = (
            picked + tuple(i for i in range(size) if i not in picked)
            for picked in combinations(range(size), n_a)
        )
        observed = stat(range(size))
        if total <= n_perm:
            hits = sum(stat(order) >= observed - 1e-15 for order in enumerated)
            return (1 + hits) / (1 + total)
        rng = np.random.default_rng(seed)
        hits = sum(stat(rng.permutation(size)) >= observed - 1e-15 for _ in range(n_perm))
        return (1 + hits) / (1 + n_perm)

    def slope(x, y):
        dx = x - x.mean()
        return float(dx @ (y - y.mean()) / (dx @ dx))

    observed = abs(slope(a, b))
    total = math.factorial(b.size)
    if total <= n_perm:
        hits = sum(
            abs(slope(a, b[list(perm)])) >= observed - 1e-15
            for perm in permutations(range(b.size))
        )
        return (1 + hits) / (1 + total)
    rng = np.random.default_rng(seed)
    hits = sum(abs(slope(a, rng.permutation(b))) >= observed - 1e-15 for _ in range(n_perm))
    return (1 + hits) / (1 + n_perm)


class TestPermutationTest:
    def test_identical_groups_p_near_one(self):
        p = permutation_test([1.0, 2.0, 3.0], [1.0, 2.0, 3.0], n_perm=10_000)
        assert p == 1.0

    def test_complete_separation(self):
        a = np.zeros(20)
        b = np.full(20, 10.0)
        assert permutation_test(a, b, n_perm=10_000, seed=6) <= 0.001

    def test_exhaustive_mean_diff_matches_enumeration(self):
        a = np.array([0.1, 1.2, 2.3])
        b = np.array([0.9, 3.1, 4.0])
        pooled = np.concatenate([a, b])
        observed = abs(a.mean() - b.mean())
        total = 0
        hits = 0
        for picked in combinations(range(6), 3):
            total += 1
            mask = np.zeros(6, dtype=bool)
            mask[list(picked)] = True
            if abs(pooled[mask].mean() - pooled[~mask].mean()) >= observed - 1e-15:
                hits += 1
        assert permutation_test(a, b, n_perm=10_000) == pytest.approx(
            (1 + hits) / (1 + total), abs=1e-15
        )

    def test_exhaustive_slope_matches_enumeration(self):
        x = np.array([0.0, 1.0, 2.0, 3.0, 4.0])
        y = np.array([0.3, 1.1, 1.9, 3.4, 3.8])

        def slope(px, py):
            dx = px - px.mean()
            return float(dx @ (py - py.mean()) / (dx @ dx))

        observed = abs(slope(x, y))
        hits = sum(
            1
            for perm in permutations(range(5))
            if abs(slope(x, y[list(perm)])) >= observed - 1e-15
        )
        expected = (1 + hits) / (1 + math.factorial(5))
        assert permutation_test(x, y, statistic="slope", n_perm=10_000) == pytest.approx(
            expected, abs=1e-15
        )

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(7)
        a = rng.standard_normal(30)
        b = rng.standard_normal(30) + 0.3
        p1 = permutation_test(a, b, n_perm=2000, seed=8)
        p2 = permutation_test(a, b, n_perm=2000, seed=8)
        assert p1 == p2

    @given(seed=st.integers(0, 2**31))
    @settings(max_examples=15, deadline=None)
    def test_p_value_in_unit_interval(self, seed):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal(6)
        b = rng.standard_normal(6)
        p = permutation_test(a, b, n_perm=500, seed=seed)
        assert 0.0 < p <= 1.0

    @given(
        statistic=st.sampled_from(["mean_diff", "slope"]),
        size_a=st.integers(3, 12),
        size_b=st.integers(3, 12),
        scale=st.sampled_from([1e-3, 1e-1, 1.0, 10.0, 1e3]),
        n_perm=st.sampled_from([50, 2500, 10_000]),
        seed=st.integers(0, 2**32 - 1),
    )
    # numpy sums eight or more values pairwise along a contiguous row but
    # in sequence down a column-major chunk, so this case needs row-major
    # draws to agree with the oracle
    @example(statistic="mean_diff", size_a=8, size_b=6, scale=1e3, n_perm=2500,
             seed=678863358)
    @settings(max_examples=40, deadline=None)
    def test_chunked_draws_match_loop_oracle(
        self, statistic, size_a, size_b, scale, n_perm, seed
    ):
        # continuous a at the given scale; b on the 1/200 grid of
        # pair-matching accuracies, so b carries ties
        rng = np.random.default_rng(seed)
        a = rng.standard_normal(size_a) * scale
        size_b = size_a if statistic == "slope" else size_b
        b = rng.integers(0, 201, size_b) / 200
        expected = loop_permutation_p(a, b, statistic, n_perm, seed)
        assert permutation_test(a, b, statistic, n_perm, seed) == expected

    def test_reordered_observed_split_counts_as_hit(self):
        # every mixed split sits far below the observed difference, so the
        # hits are exactly the draws that redraw the observed split (or its
        # mirror) in some order
        a = np.array([1000.1, 1000.7, 999.3, 1000.9])
        b = np.array([0.3, -0.2, 0.1, 0.45])
        pooled = np.concatenate([a, b])
        observed = abs(a.mean() - b.mean())
        n_perm, seed = 60, 13
        rng = np.random.default_rng(seed)
        same_split = 0
        unsorted_misses = 0
        for _ in range(n_perm):
            order = rng.permutation(pooled.size)
            if set(order[:4]) in ({0, 1, 2, 3}, {4, 5, 6, 7}):
                same_split += 1
                shuffled = pooled[order]
                if abs(shuffled[:4].mean() - shuffled[4:].mean()) < observed - 1e-15:
                    unsorted_misses += 1
        # summing in draw order would have dropped some of these hits
        assert unsorted_misses > 0
        p = permutation_test(a, b, n_perm=n_perm, seed=seed)
        assert p == (1 + same_split) / (1 + n_perm)

    def test_unknown_statistic_rejected(self):
        with pytest.raises(ValueError):
            permutation_test([1.0, 2.0], [3.0, 4.0], statistic="median_diff")

    @pytest.mark.parametrize("statistic", ["mean_diff", "slope"])
    @pytest.mark.parametrize("n_perm", [0, -5])
    def test_fewer_than_one_draw_rejected(self, statistic, n_perm):
        with pytest.raises(ValueError, match="n_perm"):
            permutation_test([1.0, 2.0], [3.0, 5.0], statistic=statistic, n_perm=n_perm)


class TestDPrime:
    def test_identical_groups(self):
        assert d_prime([0.0, 1.0, 2.0], [0.0, 1.0, 2.0]) == 0.0

    def test_unit_separation_exact(self):
        a = [-1.0, 0.0, 1.0]  # mean 0, sample variance 1
        b = [0.0, 1.0, 2.0]  # mean 1, sample variance 1
        assert d_prime(a, b) == 1.0

    def test_against_direct_formula(self):
        rng = np.random.default_rng(9)
        a = rng.standard_normal(15)
        b = rng.standard_normal(12) + 0.5
        expected = abs(a.mean() - b.mean()) / math.sqrt(
            (np.var(a, ddof=1) + np.var(b, ddof=1)) / 2
        )
        assert d_prime(a, b) == pytest.approx(expected, abs=1e-12)

    def test_both_constant_rejected(self):
        with pytest.raises(ZeroVarianceError):
            d_prime([1.0, 1.0], [2.0, 2.0])


class TestCorrelationCsv:
    def test_layout(self, tmp_path):
        rows = [
            {"measure": "alpha", "spearman": 0.5, "pearson": 0.25, "p_perm": 0.01},
            {"measure": "beta", "spearman": -0.1, "pearson": 0.0, "p_perm": 0.9},
        ]
        path = tmp_path / "table.csv"
        write_correlation_csv(rows, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "measure,spearman,pearson,p_perm"
        assert lines[1].startswith("alpha,0.5,0.25,")
        assert len(lines) == 3
