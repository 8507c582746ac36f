"""Correlation and group-comparison statistics.

Everything here is a pure function of its array inputs; permutation
shuffles draw from a caller-provided seed.  Tests exercise each formula
against independent summation or exhaustive enumeration oracles.
"""

from __future__ import annotations

from itertools import combinations, islice, permutations
from math import comb, factorial

import numpy as np

from .artifacts import write_csv
from .errors import RankDeficientError, ZeroVarianceError

__all__ = [
    "pearson",
    "spearman",
    "multiple_r2",
    "permutation_test",
    "d_prime",
    "write_correlation_csv",
]


def _as_series(x, name: str) -> np.ndarray:
    arr = np.asarray(x, dtype=np.float64).ravel()
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite values")
    return arr


def pearson(x, y) -> float:
    """Sample Pearson correlation."""
    x = _as_series(x, "x")
    y = _as_series(y, "y")
    if x.size != y.size or x.size < 3:
        raise ValueError("need two equal-length series of at least 3")
    dx = x - x.mean()
    dy = y - y.mean()
    sx = float(dx @ dx)
    sy = float(dy @ dy)
    if sx == 0.0 or sy == 0.0:
        raise ZeroVarianceError("constant series has no correlation")
    return float(dx @ dy / np.sqrt(sx * sy))


def _midranks(values: np.ndarray) -> np.ndarray:
    order = np.argsort(values, kind="stable")
    sorted_values = values[order]
    ranks = np.empty(values.size, dtype=np.float64)
    i = 0
    while i < values.size:
        j = i
        while j + 1 < values.size and sorted_values[j + 1] == sorted_values[i]:
            j += 1
        ranks[order[i : j + 1]] = (i + j) / 2 + 1
        i = j + 1
    return ranks


def spearman(x, y) -> float:
    """Rank correlation with averaged ranks on ties."""
    x = _as_series(x, "x")
    y = _as_series(y, "y")
    if x.size != y.size or x.size < 3:
        raise ValueError("need two equal-length series of at least 3")
    return pearson(_midranks(x), _midranks(y))


def multiple_r2(features, y) -> float:
    """Coefficient of determination of an OLS fit with intercept."""
    x = np.asarray(features, dtype=np.float64)
    if x.ndim == 1:
        x = x[:, None]
    y = _as_series(y, "y")
    n, k = x.shape
    if y.size != n:
        raise ValueError("feature rows and response length disagree")
    if n <= k + 1:
        raise ValueError(f"need more than {k + 1} observations, got {n}")
    design = np.column_stack([np.ones(n), x])
    if np.linalg.matrix_rank(design) < k + 1:
        raise RankDeficientError("design matrix is rank-deficient")
    coeffs, _, _, _ = np.linalg.lstsq(design, y, rcond=None)
    residual = y - design @ coeffs
    total = y - y.mean()
    ss_tot = float(total @ total)
    if ss_tot == 0.0:
        raise ZeroVarianceError("response is constant")
    return float(1.0 - (residual @ residual) / ss_tot)


# Draws are scored this many at a time.  For the study's ten networks a
# chunk of gathered values is 80 KB; the count is fixed so that a draw's
# statistic never depends on how the draws were grouped.
_CHUNK = 1024


def _sampled_rows(size: int, n_draws: int, rng: np.random.Generator):
    """Index rows of ``n_draws`` successive ``rng.permutation(size)`` calls.

    ``permuted`` returns a column-major array; the rows are made
    contiguous so that every row reduces as a 1-D array does.
    """
    identity = np.arange(size)
    for start in range(0, n_draws, _CHUNK):
        rows = min(_CHUNK, n_draws - start)
        yield np.ascontiguousarray(
            rng.permuted(np.broadcast_to(identity, (rows, size)), axis=1)
        )


def _enumerated_rows(draws):
    """Stream an iterator of index tuples as (chunk, size) arrays."""
    while block := list(islice(draws, _CHUNK)):
        yield np.array(block, dtype=np.intp)


def _with_complement(picked: np.ndarray, size: int) -> np.ndarray:
    """Append each row's unpicked indices, ascending, after its picked ones."""
    rows = picked.shape[0]
    rest = np.ones((rows, size), dtype=bool)
    rest[np.arange(rows)[:, None], picked] = False
    return np.hstack([picked, np.nonzero(rest)[1].reshape(rows, -1)])


def _abs_mean_diff(pooled: np.ndarray, rows: np.ndarray, n_a: int) -> np.ndarray:
    """|mean(A) - mean(B)| per row; a row's first ``n_a`` indices are group A.

    Each group is gathered in pooled order, so a draw that reproduces a
    split sums exactly as that split does, whatever order it drew.
    """
    group_a = pooled[np.sort(rows[:, :n_a], axis=1)]
    group_b = pooled[np.sort(rows[:, n_a:], axis=1)]
    return np.abs(group_a.mean(axis=1) - group_b.mean(axis=1))


def _abs_slope(dx: np.ndarray, denom: float, y_rows: np.ndarray) -> np.ndarray:
    """|least-squares slope| of each row of ``y_rows`` on the centred ``dx``.

    An elementwise product summed along the row, not a matrix product,
    so a row's bits do not depend on how many rows share the call.
    """
    centred = y_rows - y_rows.mean(axis=1, keepdims=True)
    return np.abs((dx * centred).sum(axis=1) / denom)


def permutation_test(
    a,
    b,
    statistic: str = "mean_diff",
    n_perm: int = 10_000,
    seed: int = 0,
) -> float:
    """Two-sided permutation p-value, (1 + hits) / (1 + draws).

    ``mean_diff`` shuffles group labels of the pooled values; ``slope``
    treats (a, b) as paired series and shuffles b against a.  ``n_perm``
    is at least 1.  When the exact permutation count fits inside
    ``n_perm`` the enumeration is exhaustive instead of sampled.

    Draw stream: sampled draw i is the i-th ``rng.permutation`` of the
    pooled indices (``mean_diff``) or of b's indices (``slope``) from
    ``np.random.default_rng(seed)``; the first ``len(a)`` pooled indices
    form group A.  Exhaustive draws follow ``itertools.combinations`` and
    ``itertools.permutations`` order.  Draws are scored in chunks, and
    each draw's statistic has the same bits whatever chunk it falls in.

    Tie rule: a draw is a hit when its absolute statistic is at least the
    observed one minus 1e-15.  The observed value is scored by the same
    kernel as the draws, on the identity draw, and ``mean_diff`` sums each
    group in pooled order, so a draw that reproduces the observed split
    (in any order) always counts.
    """
    a = _as_series(a, "a")
    b = _as_series(b, "b")
    if a.size < 2 or b.size < 2:
        raise ValueError("both groups need at least 2 values")
    if n_perm < 1:
        raise ValueError(f"n_perm is {n_perm}; it must be at least 1")

    if statistic == "mean_diff":
        pooled = np.concatenate([a, b])
        size, n_a = pooled.size, a.size

        def score(rows):
            return _abs_mean_diff(pooled, rows, n_a)

        total = comb(size, n_a)
        picks = combinations(range(size), n_a)
        exhaustive = (_with_complement(rows, size) for rows in _enumerated_rows(picks))
    elif statistic == "slope":
        if a.size != b.size:
            raise ValueError("slope statistic needs paired series")
        dx = a - a.mean()
        denom = float(dx @ dx)
        if denom == 0.0:
            raise ZeroVarianceError("slope undefined for constant predictor")
        size = b.size

        def score(rows):
            return _abs_slope(dx, denom, b[rows])

        total = factorial(size)
        exhaustive = _enumerated_rows(permutations(range(size)))
    else:
        raise ValueError(f"unknown statistic {statistic!r}")

    observed = score(np.arange(size)[None, :])[0]
    if total <= n_perm:
        draws, n_draws = exhaustive, total
    else:
        draws, n_draws = _sampled_rows(size, n_perm, np.random.default_rng(seed)), n_perm
    hits = sum(int(np.count_nonzero(score(rows) >= observed - 1e-15)) for rows in draws)
    return (1 + hits) / (1 + n_draws)


def d_prime(a, b) -> float:
    """Sensitivity index between two groups (pooled-variance form)."""
    a = _as_series(a, "a")
    b = _as_series(b, "b")
    if a.size < 2 or b.size < 2:
        raise ValueError("both groups need at least 2 values")
    var_a = float(np.var(a, ddof=1))
    var_b = float(np.var(b, ddof=1))
    spread = np.sqrt((var_a + var_b) / 2)
    if spread == 0.0:
        raise ZeroVarianceError("both groups are constant")
    return float(abs(a.mean() - b.mean()) / spread)


def write_correlation_csv(rows: list[dict], path) -> None:
    """Emit a (measure, spearman, pearson, p_perm) table; the ALL row
    carries only its joint fit, as ``pearson``."""
    columns = ("measure", "spearman", "pearson", "p_perm")
    write_csv(path, [columns, *([row[name] for name in columns] for row in rows)])
