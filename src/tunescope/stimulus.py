"""Stimuli on the constant-energy sphere.

A stimulus is a flat real pattern with a 2-D shape and a fixed Euclidean
norm (its energy).  The search layer never manipulates pixel arrays
directly; everything goes through the projections defined here so that
the constraint always holds exactly at the point of evaluation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .artifacts import write_artifact, write_csv
from .errors import EmptySetError, ImprobableFailureError, NonFiniteError, ZeroVectorError

__all__ = [
    "Stimulus",
    "StimulusSet",
    "project_sphere",
    "project_sphere_batch",
    "project_cone_batch",
    "sample_pink_noise",
    "random_orthogonal_unit",
    "angular_distance",
    "write_stimulus_csv",
    "read_stimulus_csv",
    "write_stimulus_pgm",
]

_DEGENERATE_TOL = 1e-12
_MAX_RETRIES = 100


@dataclass(frozen=True, eq=False)
class Stimulus:
    """A flat pattern of ``height * width`` reals with fixed energy.

    ``energy`` always equals the Euclidean norm of ``values``; the
    constructor checks consistency, the projection operations guarantee
    it by construction.
    """

    values: np.ndarray
    height: int
    width: int
    energy: float

    def __post_init__(self) -> None:
        values = np.ascontiguousarray(self.values, dtype=np.float64).ravel()
        if not np.all(np.isfinite(values)):
            raise NonFiniteError("stimulus contains non-finite values")
        n = self.height * self.width
        if self.height < 1 or self.width < 1 or values.size != n:
            raise ValueError(
                f"shape ({self.height}, {self.width}) does not match {values.size} values"
            )
        if not (self.energy > 0):
            raise ZeroVectorError("stimulus energy must be positive")
        norm = float(np.linalg.norm(values))
        if abs(norm - self.energy) > 1e-6 * self.energy:
            raise ValueError(f"energy {self.energy} inconsistent with norm {norm}")
        values.setflags(write=False)
        object.__setattr__(self, "values", values)

    @classmethod
    def from_values(cls, values: np.ndarray, height: int, width: int) -> "Stimulus":
        """Wrap an arbitrary finite array, taking its own norm as energy."""
        flat = np.asarray(values, dtype=np.float64).ravel()
        norm = float(np.linalg.norm(flat))
        if norm == 0.0:
            raise ZeroVectorError("cannot wrap an all-zero pattern")
        return cls(values=flat, height=height, width=width, energy=norm)

    @property
    def size(self) -> int:
        return self.height * self.width

    @property
    def shape(self) -> tuple[int, int]:
        return (self.height, self.width)

    @property
    def image(self) -> np.ndarray:
        """The pattern as a read-only (height, width) array."""
        return self.values.reshape(self.height, self.width)

    def unit(self) -> np.ndarray:
        """Direction of the stimulus: values scaled to unit norm."""
        return self.values / np.linalg.norm(self.values)


@dataclass(frozen=True)
class StimulusSet:
    """An ordered collection of same-shape stimuli, optionally labelled."""

    items: tuple[Stimulus, ...]
    labels: tuple[object, ...] | None = field(default=None)

    def __post_init__(self) -> None:
        items = tuple(self.items)
        if not items:
            raise EmptySetError("stimulus set is empty")
        shape = items[0].shape
        for item in items:
            if item.shape != shape:
                raise ValueError(f"mixed shapes in set: {item.shape} vs {shape}")
        if self.labels is not None and len(self.labels) != len(items):
            raise ValueError("labels length does not match items")
        object.__setattr__(self, "items", items)
        if self.labels is not None:
            object.__setattr__(self, "labels", tuple(self.labels))

    def __len__(self) -> int:
        return len(self.items)

    def __iter__(self):
        return iter(self.items)

    def __getitem__(self, index: int) -> Stimulus:
        return self.items[index]

    @property
    def shape(self) -> tuple[int, int]:
        return self.items[0].shape

    def matrix(self) -> np.ndarray:
        """Stack all patterns into an (n_items, N) array."""
        return np.stack([s.values for s in self.items])


def project_sphere_batch(rows: np.ndarray, energy: float) -> np.ndarray:
    """Each row of a 2-D array radially projected to norm ``energy``,
    bit for bit as ``row * (energy / np.linalg.norm(row))``.

    A row whose norm is NaN or infinite raises ``NonFiniteError``, a
    zero row ``ZeroVectorError``.
    """
    rows = np.asarray(rows, dtype=np.float64)
    norms = np.sqrt(np.vecdot(rows, rows))
    # checked as a list: at a generation's few rows, numpy reductions
    # would cost more than the projection itself
    listed = norms.tolist()
    if not math.isfinite(sum(listed)):
        raise NonFiniteError("cannot project non-finite values")
    if 0.0 in listed:
        raise ZeroVectorError("cannot project the zero vector onto the sphere")
    return rows * (energy / norms)[:, None]


def project_sphere(values: np.ndarray, energy: float, shape: tuple[int, int]) -> Stimulus:
    """Radially project a raw array onto the sphere of the given energy."""
    flat = np.asarray(values, dtype=np.float64).ravel()
    scaled = project_sphere_batch(flat[None, :], energy)[0]
    return Stimulus(values=scaled, height=int(shape[0]), width=int(shape[1]), energy=energy)


def project_cone_batch(
    raw: np.ndarray,
    x_hat: Stimulus,
    delta: float,
    fallback_rng: np.random.Generator,
) -> np.ndarray:
    """Project each row of ``raw`` onto the cone at ``delta`` around ``x_hat``.

    Every output row keeps the energy of ``x_hat`` and sits at exactly
    ``delta`` radians from it.  A row's component along the axis is
    discarded; only its orthogonal direction survives.  A row parallel
    to the axis has no such direction: it gets a random orthogonal one
    drawn from ``fallback_rng``.
    """
    if not (0 < delta <= np.pi):
        raise ValueError(f"delta {delta} outside (0, pi]")
    axis = x_hat.values
    energy = x_hat.energy
    coeff = (raw @ axis) / (energy * energy)
    residual = raw - coeff[:, None] * axis
    for row in np.flatnonzero(np.vecdot(residual, residual) < _DEGENERATE_TOL**2):
        residual[row] = random_orthogonal_unit(x_hat, fallback_rng).values
    return np.cos(delta) * axis + project_sphere_batch(residual, energy * np.sin(delta))


def _radial_frequency(height: int, width: int) -> np.ndarray:
    fy = np.fft.fftfreq(height)[:, None]
    fx = np.fft.fftfreq(width)[None, :]
    return np.hypot(fy, fx)


def sample_pink_noise(
    height: int,
    width: int,
    alphas: Sequence[float],
    energy: float,
    rng: np.random.Generator,
    *,
    count: int,
) -> np.ndarray:
    """``count`` random stimuli as the rows of a (count, height * width) array.

    Row ``i`` has Fourier amplitude envelope ``f ** (-alpha)`` with
    ``alpha = alphas[i % len(alphas)]``; ``alpha = 0`` gives white noise.
    The DC bin is always zeroed so each pattern is mean-free, then each
    row is projected to ``energy``.  The rows, and the state ``rng`` is
    left in, are those of ``count`` successive calls at ``count=1``.
    """
    alphas = tuple(alphas)
    if count < 1 or not alphas:
        raise ValueError("need at least one stimulus and one exponent")
    spectrum = np.fft.fft2(rng.standard_normal((count, height, width)))
    freq = _radial_frequency(height, width)
    nonzero = freq > 0
    for k, a in enumerate(alphas):
        envelope = np.zeros_like(freq)
        envelope[nonzero] = freq[nonzero] ** (-a)
        spectrum[k :: len(alphas)] *= envelope
    shaped = np.ascontiguousarray(np.fft.ifft2(spectrum).real).reshape(count, height * width)
    return project_sphere_batch(shaped, energy)


def random_orthogonal_unit(x_hat: Stimulus, rng: np.random.Generator) -> Stimulus:
    """A random direction orthogonal to ``x_hat``, scaled to its energy."""
    if x_hat.size < 2:
        raise ValueError("need at least two dimensions for an orthogonal direction")
    axis = x_hat.unit()
    for _ in range(_MAX_RETRIES):
        draw = rng.standard_normal(x_hat.size)
        residual = draw - (axis @ draw) * axis
        if np.linalg.norm(residual) > _DEGENERATE_TOL:
            return project_sphere(residual, x_hat.energy, x_hat.shape)
    raise ImprobableFailureError("100 consecutive degenerate orthogonal draws")


def angular_distance(x: Stimulus, y: Stimulus) -> float:
    """Angle between two stimuli in radians, in [0, pi]."""
    if x.shape != y.shape:
        raise ValueError("stimulus shapes differ")
    nx = float(np.linalg.norm(x.values))
    ny = float(np.linalg.norm(y.values))
    if nx == 0.0 or ny == 0.0:
        raise ZeroVectorError("angular distance undefined for zero vectors")
    cosine = float(x.values @ y.values) / (nx * ny)
    return float(np.arccos(np.clip(cosine, -1.0, 1.0)))


# ---------------------------------------------------------------------------
# serialization


def write_stimulus_csv(stimulus: Stimulus, path) -> None:
    """Flat CSV: first line ``height,width``, second line energy, then values."""
    rows = [(stimulus.height, stimulus.width), (stimulus.energy,)]
    write_csv(path, rows + [(v,) for v in stimulus.values])


def read_stimulus_csv(path) -> Stimulus:
    with open(path, "r", encoding="ascii") as fh:
        height, width = (int(tok) for tok in fh.readline().strip().split(","))
        energy = float(fh.readline().strip())
        values = np.array([float(line) for line in fh if line.strip()])
    return Stimulus(values=values, height=height, width=width, energy=energy)


def write_stimulus_pgm(stimulus: Stimulus, path) -> None:
    """8-bit binary PGM with linear min -> 0, max -> 255 mapping."""
    image = stimulus.image
    lo = float(image.min())
    hi = float(image.max())
    if hi > lo:
        scaled = np.round((image - lo) * (255.0 / (hi - lo)))
    else:
        scaled = np.zeros_like(image)
    data = scaled.astype(np.uint8)
    header = f"P5\n{stimulus.width} {stimulus.height}\n255\n".encode("ascii")
    write_artifact(path, header + data.tobytes())
