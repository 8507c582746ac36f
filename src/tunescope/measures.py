"""Normalized landscape measures and the fitness-distance diagram.

Eight scalar summary measures of one characterized target: spectral
non-sparsity of the optimal stimulus, its explanation power over a task
set, reconstruction specificity, invariance and selectivity path
potentials, subspace capacity, and raw/normalized task alignment.
Each has pinned bounds; anchor cases (identical columns, orthonormal
columns, cosine-baseline paths) land exactly on the bound.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .artifacts import write_csv
from .errors import NonPositiveOptimumError, ZeroVectorError, ZeroVarianceError
from .search import PathResult, ReconstructionSet, SubspaceSample
from .stimulus import Stimulus, StimulusSet

__all__ = [
    "MeasureReport",
    "spectral_complexity",
    "explanation_power",
    "ssim",
    "check_ssim_side",
    "encoding_specificity",
    "path_potential_unit",
    "path_potential_population",
    "subspace_capacity",
    "subspace_alignment",
    "build_fd_diagram",
    "write_fd_csv",
    "report_to_json",
]


# windowed-similarity constants: Gaussian window side and width, and the
# stabilizers as fractions of the dynamic range
_SSIM_WINDOW = 11
_SSIM_SIGMA = 1.5
_SSIM_K1 = 0.01
_SSIM_K2 = 0.03


@dataclass(frozen=True)
class MeasureReport:
    """The eight measures for one characterized neuron or population.

    Fields are None when the protocol that produces them was not run
    (e.g. no reconstruction references at unit level).
    """

    ossc: float | None = None
    osep: float | None = None
    tses: float | None = None
    inpp: float | None = None
    slpp: float | None = None
    insc: float | None = None
    itsa: float | None = None
    stsa: float | None = None
    provenance: dict = field(default_factory=dict)

    FIELDS = ("ossc", "osep", "tses", "inpp", "slpp", "insc", "itsa", "stsa")

    def as_dict(self) -> dict:
        return {name: getattr(self, name) for name in self.FIELDS}


# ---------------------------------------------------------------------------
# first-order measures


def spectral_complexity(x_hat: Stimulus) -> float:
    """Non-sparsity of the 2-D DFT magnitude spectrum, in [0, 1].

    0 when a single frequency bin carries everything, 1 when all bins
    have equal magnitude; invariant to stimulus scale and to spatial
    shifts (phase-only permutations).
    """
    spectrum = np.abs(np.fft.fft2(x_hat.image)).ravel()
    l2 = float(np.linalg.norm(spectrum))
    if l2 == 0.0:
        raise ZeroVectorError("empty spectrum")
    l1 = float(spectrum.sum())
    m = spectrum.size
    return float((l1 / l2 - 1.0) / (np.sqrt(m) - 1.0))


def explanation_power(x_hat: Stimulus, task: StimulusSet) -> float:
    """Mean rectified inner product against the task stimuli.

    All stimuli are normalized to unit energy first.
    """
    if x_hat.shape != task.shape:
        raise ValueError("optimal stimulus and task shapes differ")
    unit_hat = x_hat.unit()
    matrix = task.matrix()
    units = matrix / np.linalg.norm(matrix, axis=1, keepdims=True)
    rectified = np.maximum(units @ unit_hat, 0.0)
    # summed in sorted order, as the recorded values were; unsorted, OSEP moves in the last bit
    return float(np.sort(rectified).mean())


def _gaussian_window(size: int, sigma: float) -> np.ndarray:
    offsets = np.arange(size) - (size - 1) / 2
    one_d = np.exp(-(offsets**2) / (2 * sigma * sigma))
    window = np.outer(one_d, one_d)
    return window / window.sum()


def check_ssim_side(shape: tuple[int, int]) -> None:
    """Refuse an image shape whose shorter side cannot hold the SSIM window."""
    if _SSIM_WINDOW > min(shape):
        raise ValueError(f"window {_SSIM_WINDOW} exceeds image side {min(shape)}")


def ssim(a: Stimulus, b: Stimulus, dynamic_range: float | None = None) -> float:
    """Mean local structural similarity over valid window positions.

    ``dynamic_range`` of None means the joint value range of the two
    images being compared (which keeps the measure symmetric); pass the
    reference stimulus's own range to pin it.
    """
    if a.shape != b.shape:
        raise ValueError("stimulus shapes differ")
    check_ssim_side(a.shape)
    size = _SSIM_WINDOW
    if dynamic_range is not None:
        value_range = float(dynamic_range)
    else:
        lo = min(float(a.values.min()), float(b.values.min()))
        hi = max(float(a.values.max()), float(b.values.max()))
        value_range = hi - lo
    if value_range == 0.0:
        return 1.0  # both images are the same constant
    c1 = (_SSIM_K1 * value_range) ** 2
    c2 = (_SSIM_K2 * value_range) ** 2

    window = _gaussian_window(size, _SSIM_SIGMA)
    image_a = a.image
    image_b = b.image

    def local_means(image: np.ndarray) -> np.ndarray:
        patches = np.lib.stride_tricks.sliding_window_view(image, (size, size))
        return np.tensordot(patches, window, axes=([2, 3], [0, 1]))

    mu_a = local_means(image_a)
    mu_b = local_means(image_b)
    mu_aa = local_means(image_a * image_a)
    mu_bb = local_means(image_b * image_b)
    mu_ab = local_means(image_a * image_b)
    var_a = mu_aa - mu_a * mu_a
    var_b = mu_bb - mu_b * mu_b
    cov = mu_ab - mu_a * mu_b

    numerator = (2 * mu_a * mu_b + c1) * (2 * cov + c2)
    denominator = (mu_a * mu_a + mu_b * mu_b + c1) * (var_a + var_b + c2)
    return float(np.mean(numerator / denominator))


def encoding_specificity(recons: ReconstructionSet) -> float:
    """Mean similarity between the reference and its reconstructions.

    The similarity's dynamic range is pinned to the reference's own
    value range.
    """
    reference_range = float(np.ptp(recons.reference.values))
    scores = [ssim(recons.reference, item, reference_range) for item in recons.reconstructions]
    return float(np.mean(scores))


# ---------------------------------------------------------------------------
# path potentials


def _trapezoid(xs: np.ndarray, ys: np.ndarray) -> float:
    return float(np.trapezoid(ys, xs))


def path_potential_unit(path: PathResult, f_at_optimum: float) -> float:
    """Area between the response-angle curve and the cosine baseline.

    Responses are normalized by the optimum response, clamped, and
    mapped through arccos; the absolute gap to the diagonal is
    integrated over the angle grid (anchored at zero) and scaled so a
    perfectly flat path scores 1 and the cosine baseline scores 0.
    Signed responses below -f_at_optimum could push the raw area past
    the flat-path ceiling, so the result saturates at 1.
    """
    if f_at_optimum <= 0:
        raise NonPositiveOptimumError(
            f"optimum response {f_at_optimum} is not positive; potential undefined"
        )
    deltas = np.asarray(path.deltas, dtype=np.float64)
    normalized = np.clip(np.asarray(path.fitnesses) / f_at_optimum, -1.0, 1.0)
    theta = np.arccos(normalized)
    gap = np.abs(theta - deltas)
    xs = np.concatenate([[0.0], deltas])
    ys = np.concatenate([[0.0], gap])
    return min(_trapezoid(xs, ys) / (np.pi**2 / 8), 1.0)


def path_potential_population(path: PathResult) -> float:
    """Mean retained match fitness along the path, in [0, 1].

    The recorded fitnesses are already the closeness integrand; the
    curve is anchored at (0, 1) and averaged over the angle span.
    """
    deltas = np.asarray(path.deltas, dtype=np.float64)
    xs = np.concatenate([[0.0], deltas])
    ys = np.concatenate([[1.0], np.asarray(path.fitnesses, dtype=np.float64)])
    return _trapezoid(xs, ys) / (np.pi / 2)


# ---------------------------------------------------------------------------
# subspace measures


def subspace_capacity(sample: SubspaceSample) -> float:
    """Nuclear-norm spread of the solution columns, 0 (collapsed) to 1.

    Columns are unit-normalized; identical columns give the single
    singular value sqrt(n), orthonormal columns give n unit values.
    """
    n = len(sample.columns)
    if n < 2:
        raise ValueError("need at least 2 columns")
    matrix = np.stack([c.unit() for c in sample.columns], axis=1)
    singular = np.linalg.svd(matrix, compute_uv=False)
    nuclear = float(singular.sum())
    root = np.sqrt(n)
    return float((nuclear - root) / (n - root))


def _task_pc_basis(task: StimulusSet) -> np.ndarray:
    matrix = task.matrix()
    centered = matrix - matrix.mean(axis=0, keepdims=True)
    scale = float(np.abs(matrix).max())
    if float(np.abs(centered).max(initial=0.0)) <= 1e-12 * scale:
        raise ZeroVarianceError("task stimuli are identical; no principal directions")
    _, _, basis = np.linalg.svd(centered, full_matrices=True)
    return basis


def subspace_alignment(
    sample: SubspaceSample, task: StimulusSet
) -> tuple[float, float | None]:
    """Mean L1 of solution coefficients in the task's principal basis.

    Lower raw values mean the solutions concentrate on few task
    directions.  When the sample records its anchor stimulus, the
    anchor's own score is subtracted to give the normalized variant.
    """
    if len(task) < 2:
        raise ValueError("need at least 2 task stimuli")
    basis = _task_pc_basis(task)
    columns = np.stack([c.unit() for c in sample.columns], axis=1)
    raw = float(np.mean(np.abs(basis @ columns).sum(axis=0)))
    normalized = None
    if sample.anchor is not None:
        anchor_score = float(np.abs(basis @ sample.anchor.unit()).sum())
        normalized = raw - anchor_score
    return raw, normalized


# ---------------------------------------------------------------------------
# fitness-distance diagram


def build_fd_diagram(
    paths: list[PathResult], walks: list[tuple[float, float]] | None
) -> tuple[tuple[float, float, str], ...]:
    """Collate path and walk samples into (delta, fitness, series) rows;
    the walks' series is ``random_walk``."""
    samples: list[tuple[float, float, str]] = []
    for path in paths:
        for delta, fitness in zip(path.deltas, path.fitnesses):
            samples.append((float(delta), float(fitness), path.kind))
    for delta, fitness in walks or ():
        samples.append((float(delta), float(fitness), "random_walk"))
    if not samples:
        raise ValueError("diagram needs at least one series")
    return tuple(samples)


def write_fd_csv(samples: tuple[tuple[float, float, str], ...], path) -> None:
    rows = [(series, delta, fitness) for delta, fitness, series in samples]
    write_csv(path, [("series", "delta", "fitness"), *rows])


def report_to_json(report: MeasureReport) -> dict:
    blob = report.as_dict()
    blob["provenance"] = report.provenance
    return blob
