"""Black-box response functions.

Three families: analytic oracle neurons (linear, quadratic) used to
validate the search machinery against closed-form optima, randomly
weighted convolutional cascades (convolution, nonlinear activation,
power-mean pooling, divisive normalization), and wrappers that turn any
multi-unit target into a scalar landscape (single-unit view, response
matching).

Handles are immutable after construction: ``batch`` is a pure function
of its input, so repeated evaluation is bitwise identical.  Every
built-in handle is plain data: its ``batch`` and ``readout`` are
module-level functions bound with ``functools.partial``, so a handle
pickles, and a worker process that unpickles one evaluates the very
same function.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import asdict, dataclass, replace
from functools import partial
from typing import Callable

import numpy as np

from .artifacts import write_artifact
from .errors import GeometryError, check_fields, from_mapping, is_finite_real
from .seeds import derive_int, derive_rng
from .stimulus import Stimulus

__all__ = [
    "TargetHandle",
    "LevelSpec",
    "SthorSpec",
    "HyperRanges",
    "linear_neuron",
    "quadratic_neuron",
    "sthor_network",
    "draw_kernels",
    "float64_sha256",
    "unit_view",
    "match_fitness",
    "sample_network_population",
    "default_l1_spec",
    "default_l2_spec",
    "spec_to_json",
    "spec_from_json",
    "write_network_weights",
    "read_network_weights",
]

# Rows per forward call, by cascade depth.  Per-row cost of one call on
# a 2-vCPU Xeon host with one BLAS thread, median of five probe runs: at
# one level 10.3 us at 18 rows and 5.8 us at 64; at two levels 59.6 us at
# 22 rows and 56.3 us at 64, a gap inside the runs' spread.
_FORWARD_CHUNK = {1: 64, 2: 22}
_WEIGHTS_MAGIC = b"STHORNET"
_WEIGHTS_VERSION = 1


@dataclass(frozen=True)
class TargetHandle:
    """An opaque stimulus -> response function.

    ``batch`` maps an (m, N) matrix of flattened stimuli to an (m, R)
    response matrix.  ``fingerprint`` is JSON data, built from the data
    ``batch`` binds, that tells apart any two handles whose responses
    differ; a store records it.  A handle that leaves it None is
    fingerprinted by its ``name``.  ``chunk``, when stated, is the
    number of rows ``batch`` forwards per call.

    A wrapper of another handle records it as ``network``, and maps
    that handle's responses to its own with ``readout``; its ``batch``
    is ``readout(network.batch(matrix))``, so wrappers of one network
    can share a forward call.
    """

    height: int
    width: int
    response_dim: int
    batch: Callable[[np.ndarray], np.ndarray]
    name: str = "target"
    fingerprint: dict | None = None
    chunk: int | None = None
    network: TargetHandle | None = None
    readout: Callable[[np.ndarray], np.ndarray] | None = None

    @property
    def input_shape(self) -> tuple[int, int]:
        return (self.height, self.width)

    @property
    def size(self) -> int:
        return self.height * self.width

    def evaluate(self, stimulus: Stimulus) -> np.ndarray:
        if stimulus.shape != self.input_shape:
            raise ValueError(f"stimulus shape {stimulus.shape} != target {self.input_shape}")
        return self.batch(stimulus.values[None, :])[0]

    def scalar_batch(self, matrix: np.ndarray) -> np.ndarray:
        if self.response_dim != 1:
            raise ValueError("scalar view requires a single-unit target")
        return self.batch(matrix)[:, 0]


def float64_sha256(*arrays) -> str:
    """Digest of the arrays' float64 bytes, in order."""
    digest = hashlib.sha256()
    for array in arrays:
        digest.update(np.ascontiguousarray(array, dtype=np.float64).tobytes())
    return digest.hexdigest()


# ---------------------------------------------------------------------------
# oracle neurons


def _linear_batch(weights: np.ndarray, matrix: np.ndarray) -> np.ndarray:
    return (matrix @ weights)[:, None]


def linear_neuron(w: Stimulus) -> TargetHandle:
    """Inner-product neuron; ``w`` must be unit-norm."""
    if abs(w.energy - 1.0) > 1e-9:
        raise ValueError(f"template norm {w.energy} != 1")
    return TargetHandle(
        w.height, w.width, 1, partial(_linear_batch, w.values), name="linear",
        fingerprint={"name": "linear", "batch_sha256": float64_sha256(w.values)},
    )


def _quadratic_batch(q: np.ndarray, l: np.ndarray, c: float, matrix: np.ndarray) -> np.ndarray:
    quad = 0.5 * np.einsum("ij,jk,ik->i", matrix, q, matrix)
    return (quad + matrix @ l + c)[:, None]


def quadratic_neuron(
    q: np.ndarray, l: np.ndarray, c: float, shape: tuple[int, int]
) -> TargetHandle:
    """Quadratic-form neuron 0.5 x'Qx + L'x + c."""
    q = np.asarray(q, dtype=np.float64)
    l = np.asarray(l, dtype=np.float64).ravel()
    if q.shape != (l.size, l.size):
        raise ValueError("Q and L dimensions disagree")
    if float(np.max(np.abs(q - q.T))) > 1e-9:
        raise ValueError("Q asymmetric beyond tolerance")
    if shape[0] * shape[1] != l.size:
        raise ValueError("shape does not match dimension")
    q = (q + q.T) / 2
    return TargetHandle(
        shape[0], shape[1], 1, partial(_quadratic_batch, q, l, c), name="quadratic",
        fingerprint={"name": "quadratic", "batch_sha256": float64_sha256(q, l, c)},
    )


# ---------------------------------------------------------------------------
# random convolutional cascade


@dataclass(frozen=True)
class LevelSpec:
    """One convolution / activation / pooling / normalization stage."""

    kernel_size: int
    n_filters: int
    activation: str = "halfwave"  # halfwave | clipped | identity
    clip_bounds: tuple[float, float] = (0.0, 1.0)
    pool_size: int = 3
    pool_stride: int = 1
    pool_exponent: float = 2.0
    norm_enabled: bool = True
    norm_radius: int = 1
    norm_strength: float = 1.0
    norm_threshold: float = 1e-3

    def __post_init__(self) -> None:
        check_fields(
            self, dict(kernel_size=1, n_filters=1, pool_size=1, pool_stride=1, norm_radius=0),
            positive=("pool_exponent", "norm_threshold"), nonnegative=("norm_strength",),
            lists=("clip_bounds",),
        )
        if self.kernel_size % 2 == 0:
            raise GeometryError(f"kernel size {self.kernel_size} must be odd")
        if self.activation not in ("halfwave", "clipped", "identity"):
            raise ValueError(f"unknown activation {self.activation!r}")
        bounds = tuple(self.clip_bounds)
        if len(bounds) != 2 or not all(map(is_finite_real, bounds)) or bounds[0] >= bounds[1]:
            raise ValueError(f"clip_bounds is {bounds!r}; it must be two finite reals, low < high")
        # a fractional power of a negative activation is NaN
        signed = self.activation == "identity" or (self.activation == "clipped" and bounds[0] < 0)
        if signed and not float(self.pool_exponent).is_integer():
            raise ValueError(
                f"pool_exponent {self.pool_exponent!r} is not an integer, so activation "
                f"{self.activation!r} must not go below 0: use halfwave, or clipped with a "
                f"low clip bound >= 0 (clip_bounds is {bounds!r})"
            )


@dataclass(frozen=True)
class SthorSpec:
    """Full cascade specification.

    The network input shape is the composed receptive field of the
    cascade, so the final feature map is exactly one unit per channel
    and the readout is the top level's filters.
    """

    levels: tuple[LevelSpec, ...]
    weight_seed: int = 0

    def __post_init__(self) -> None:
        check_fields(self, dict(weight_seed=0))
        if not 1 <= len(self.levels) <= 2:
            raise GeometryError(f"{len(self.levels)} levels unsupported (want 1 or 2)")

    @property
    def input_shape(self) -> tuple[int, int]:
        side, jump = 1, 1
        for level in self.levels:
            side += (level.kernel_size - 1 + level.pool_size - 1) * jump
            jump *= level.pool_stride
        return (side, side)


def _level_sides(spec: SthorSpec) -> list[int]:
    """Each level's output side.  The input is the composed receptive
    field, so every pool tiles its map and the last side is 1."""
    size = spec.input_shape[0]
    level_sides = []
    for level in spec.levels:
        size = (size - level.kernel_size + 1 - level.pool_size) // level.pool_stride + 1
        level_sides.append(size)
    return level_sides


def draw_kernels(spec: SthorSpec) -> list[np.ndarray]:
    """The cascade's random kernels, drawn from ``spec.weight_seed``."""
    rng = np.random.default_rng(spec.weight_seed)
    kernels = []
    n_in = 1
    for level in spec.levels:
        k = level.kernel_size
        w = rng.standard_normal((level.n_filters, n_in, k, k))
        w -= w.mean(axis=(1, 2, 3), keepdims=True)
        w /= np.linalg.norm(w.reshape(level.n_filters, -1), axis=1)[:, None, None, None]
        kernels.append(w)
        n_in = level.n_filters
    return kernels


def _conv_valid(x: np.ndarray, w_mat: np.ndarray, k: int) -> np.ndarray:
    """Valid-mode correlation via an im2col matmul; x is (B, C, H, W)."""
    windows = np.lib.stride_tricks.sliding_window_view(x, (k, k), axis=(2, 3))
    b, c, hh, ww = windows.shape[:4]
    cols = windows.transpose(0, 2, 3, 1, 4, 5).reshape(b * hh * ww, c * k * k)
    out = cols @ w_mat.T
    return out.reshape(b, hh, ww, w_mat.shape[0]).transpose(0, 3, 1, 2)


def _int_power(x: np.ndarray, p: float) -> np.ndarray:
    if p == 1:
        return x
    if p == 2:
        return x * x
    if p == 10:
        x2 = x * x
        x4 = x2 * x2
        return x4 * x4 * x2
    return np.power(x, p)


def _pool_power_mean(x: np.ndarray, size: int, stride: int, p: float) -> np.ndarray:
    if size == 1 and stride == 1:
        return x
    h_out = (x.shape[2] - size) // stride + 1
    w_out = (x.shape[3] - size) // stride + 1
    xp = _int_power(x, p)
    acc = np.zeros((x.shape[0], x.shape[1], h_out, w_out))
    for i in range(size):
        for j in range(size):
            acc += xp[:, :, i : i + stride * h_out : stride, j : j + stride * w_out : stride]
    mean = acc / (size * size)
    if p == 1:
        return mean
    return np.maximum(mean, 0.0) ** (1.0 / p)


def _norm_geometry(side: int, radius: int) -> tuple[np.ndarray, np.ndarray]:
    """Box-window corners and sizes for normalizing a ``side``-wide map.

    Windows reach ``radius`` cells each way, clipped at the border.
    Returns a (4, side * side) array of flat indices into the map's
    zero-bordered 2-D cumulative sum, one row per window corner in the
    order (bottom, right), (top, right), (bottom, left), (top, left),
    and the window cell counts, flattened the same way.
    """
    cells = np.arange(side)
    low = np.clip(cells - radius, 0, side)
    high = np.clip(cells + radius + 1, 0, side)
    row_stride = side + 1
    corners = np.stack(
        [
            high[:, None] * row_stride + high[None, :],
            low[:, None] * row_stride + high[None, :],
            high[:, None] * row_stride + low[None, :],
            low[:, None] * row_stride + low[None, :],
        ]
    ).reshape(4, -1)
    span = high - low
    counts = (span[:, None] * span[None, :]).ravel()
    corners.setflags(write=False)
    counts.setflags(write=False)
    return corners, counts


def _divisive_normalize(
    x: np.ndarray, geometry: tuple[np.ndarray, np.ndarray], strength: float, threshold: float
) -> np.ndarray:
    """Divide by local RMS activity pooled across channels and a spatial box.

    ``geometry`` is ``_norm_geometry`` of the map side and radius.
    """
    corners, counts = geometry
    b, _, h, w = x.shape
    mean_square = np.mean(x * x, axis=1)
    padded = np.zeros((b, h + 1, w + 1))
    inner = padded[:, 1:, 1:]
    np.cumsum(mean_square, axis=1, out=inner)
    np.cumsum(inner, axis=2, out=inner)
    flat = padded.reshape(b, -1)
    sums = flat[:, corners[0]] - flat[:, corners[1]] - flat[:, corners[2]] + flat[:, corners[3]]
    local_rms = np.sqrt(sums / counts).reshape(b, 1, h, w)
    return x / (threshold + strength * local_rms)


def _apply_activation(x: np.ndarray, level: LevelSpec) -> np.ndarray:
    if level.activation == "halfwave":
        return np.maximum(x, 0.0)
    if level.activation == "clipped":
        lo, hi = level.clip_bounds
        return np.clip(x, lo, hi)
    return x


def _forward_chunk(stages: tuple, side: int, matrix: np.ndarray) -> np.ndarray:
    """One pass through the cascade; ``stages`` holds each level's spec,
    filter matrix and normalization geometry (None when disabled)."""
    x = matrix.reshape(-1, 1, side, side)
    for level, w_mat, geometry in stages:
        x = _conv_valid(x, w_mat, level.kernel_size)
        x = _apply_activation(x, level)
        x = _pool_power_mean(x, level.pool_size, level.pool_stride, level.pool_exponent)
        if geometry is not None:
            x = _divisive_normalize(x, geometry, level.norm_strength, level.norm_threshold)
    center_h = x.shape[2] // 2
    center_w = x.shape[3] // 2
    return x[:, :, center_h, center_w]


def _cascade_batch(stages: tuple, side: int, chunk: int, matrix: np.ndarray) -> np.ndarray:
    """The cascade's forward pass over ``matrix``, ``chunk`` rows per pass."""
    matrix = np.asarray(matrix, dtype=np.float64)
    if matrix.shape[0] <= chunk:
        return _forward_chunk(stages, side, matrix)
    parts = [
        _forward_chunk(stages, side, matrix[start : start + chunk])
        for start in range(0, matrix.shape[0], chunk)
    ]
    return np.concatenate(parts, axis=0)


def sthor_network(spec: SthorSpec, kernels: list[np.ndarray] | None = None) -> TargetHandle:
    """Build the cascade; ``kernels`` overrides the random draw verbatim.

    Random kernels are zero-mean and unit-norm per filter; explicit
    kernels are used as given (tests rely on delta kernels).
    """
    side = spec.input_shape[0]
    level_sides = _level_sides(spec)
    if kernels is None:
        kernels = draw_kernels(spec)
    else:
        kernels = [np.asarray(k, dtype=np.float64) for k in kernels]
        n_in = 1
        for level, w in zip(spec.levels, kernels):
            expected = (level.n_filters, n_in, level.kernel_size, level.kernel_size)
            if w.shape != expected:
                raise GeometryError(f"kernel shape {w.shape} != {expected}")
            n_in = level.n_filters
    w_mats = [w.reshape(w.shape[0], -1).copy() for w in kernels]
    norm_geometries = [
        _norm_geometry(level_side, level.norm_radius) if level.norm_enabled else None
        for level, level_side in zip(spec.levels, level_sides)
    ]
    for w in w_mats:
        w.setflags(write=False)
    chunk = _FORWARD_CHUNK[len(spec.levels)]
    stages = tuple(zip(spec.levels, w_mats, norm_geometries))
    return TargetHandle(
        side,
        side,
        spec.levels[-1].n_filters,
        partial(_cascade_batch, stages, side, chunk),
        name=f"sthor-l{len(spec.levels)}",
        fingerprint={"spec": spec_to_json(spec), "kernels_sha256": float64_sha256(*kernels)},
        chunk=chunk,
    )


# ---------------------------------------------------------------------------
# wrappers


def _read_through(
    network: TargetHandle, readout: Callable[[np.ndarray], np.ndarray], matrix: np.ndarray
) -> np.ndarray:
    return readout(network.batch(matrix))


def _readout_view(
    target: TargetHandle, readout: Callable[[np.ndarray], np.ndarray], name: str, **digest
) -> TargetHandle:
    """A scalar handle that reads ``target`` through ``readout``; ``digest``
    names the data ``readout`` binds, for the fingerprint."""
    return TargetHandle(
        target.height,
        target.width,
        1,
        partial(_read_through, target, readout),
        name=name,
        fingerprint={"view": name, "network": target.fingerprint or target.name, **digest},
        network=target,
        readout=readout,
    )


def _unit_column(index: int, responses: np.ndarray) -> np.ndarray:
    return responses[:, index : index + 1]


def unit_view(target: TargetHandle, index: int) -> TargetHandle:
    """Scalar view of one output unit."""
    if not 0 <= index < target.response_dim:
        raise IndexError(f"unit {index} out of range 0..{target.response_dim - 1}")
    return _readout_view(target, partial(_unit_column, index), f"{target.name}[{index}]")


def _match_closeness(reference: np.ndarray, responses: np.ndarray) -> np.ndarray:
    return np.exp(-np.linalg.norm(responses - reference, axis=1))[:, None]


def match_fitness(target: TargetHandle, reference_response: np.ndarray) -> TargetHandle:
    """Scalar closeness exp(-||f(x) - r||) to a reference response."""
    reference = np.asarray(reference_response, dtype=np.float64).ravel()
    if reference.size != target.response_dim:
        raise ValueError(
            f"reference length {reference.size} != response dim {target.response_dim}"
        )
    return _readout_view(
        target, partial(_match_closeness, reference), f"match({target.name})",
        readout_sha256=float64_sha256(reference),
    )


# ---------------------------------------------------------------------------
# default cascades and population sampling


def default_l1_spec(weight_seed: int = 0) -> SthorSpec:
    """Single-level cascade on an 11x11 field (N=121)."""
    level = LevelSpec(kernel_size=7, n_filters=32, pool_size=5, pool_stride=1)
    return SthorSpec(levels=(level,), weight_seed=weight_seed)


def default_l2_spec(weight_seed: int = 0) -> SthorSpec:
    """Two-level cascade on a 21x21 field (N=441)."""
    first = LevelSpec(kernel_size=7, n_filters=16, pool_size=3, pool_stride=2)
    second = LevelSpec(kernel_size=5, n_filters=32, pool_size=3, pool_stride=1)
    return SthorSpec(levels=(first, second), weight_seed=weight_seed)


@dataclass(frozen=True)
class HyperRanges:
    """Hyperparameter choices drawn per sampled network.

    Geometry (kernel and pool sizes, strides) stays fixed so every
    network in a population shares one input shape; only landscape-
    shaping hyperparameters vary.  Every value must meet the
    ``LevelSpec`` rule for its field, whether or not a network draws it.
    """

    n_filters: tuple[int, ...] = (8, 16, 32)
    pool_exponent: tuple[float, ...] = (1.0, 2.0, 10.0)
    norm_strength: tuple[float, ...] = (0.1, 1.0, 10.0)

    def __post_init__(self) -> None:
        names = ("n_filters", "pool_exponent", "norm_strength")
        check_fields(self, {}, lists=names)
        if not (self.n_filters and self.pool_exponent and self.norm_strength):
            raise ValueError("empty hyperparameter range")
        for name in names:
            for value in getattr(self, name):
                LevelSpec(**{"kernel_size": 1, "n_filters": 1, name: value})


def sample_network_population(
    base_spec: SthorSpec,
    n_networks: int,
    ranges: HyperRanges,
    seed: int,
) -> tuple[list[TargetHandle], list[dict]]:
    """Draw ``n_networks`` variants of ``base_spec`` with fresh weights.

    Hidden-level filter counts, every level's pool exponent and
    normalization strength are drawn uniformly from ``ranges``; the top
    level keeps ``base_spec``'s filter count, the readout width.  Returns
    the handles and a JSON-ready manifest of everything that was drawn.
    """
    if n_networks < 1:
        raise ValueError("need at least one network")
    handles = []
    manifest = []
    for i in range(n_networks):
        rng = derive_rng(seed, "population", i, "hypers")
        weight_seed = derive_int(seed, "population", i, "weights")
        levels = []
        for level_index, level in enumerate(base_spec.levels):
            if level_index < len(base_spec.levels) - 1:  # the top keeps the readout width
                level = replace(level, n_filters=rng.choice(np.asarray(ranges.n_filters)).item())
            levels.append(
                replace(
                    level,
                    pool_exponent=float(rng.choice(np.asarray(ranges.pool_exponent))),
                    norm_strength=float(rng.choice(np.asarray(ranges.norm_strength))),
                )
            )
        spec = replace(base_spec, levels=tuple(levels), weight_seed=weight_seed)
        handles.append(sthor_network(spec))
        manifest.append(
            {
                "index": i,
                "seed_path": ["population", i],
                "levels": [
                    {
                        "n_filters": lv.n_filters,
                        "pool_exponent": lv.pool_exponent,
                        "norm_strength": lv.norm_strength,
                    }
                    for lv in levels
                ],
            }
        )
    return handles, manifest


# ---------------------------------------------------------------------------
# serialization


def spec_to_json(spec: SthorSpec) -> dict:
    return asdict(spec)


def spec_from_json(blob: dict) -> SthorSpec:
    """Inverse of ``spec_to_json``.

    Omitted keys take the dataclass defaults; an unknown key raises
    ``ValueError``, as in every other config file.
    """
    if not isinstance(blob, dict) or not isinstance(blob.get("levels"), (list, tuple)):
        raise ValueError('a network spec needs a "levels" list')
    levels = tuple(from_mapping(LevelSpec, level, "network level") for level in blob["levels"])
    return from_mapping(SthorSpec, {**blob, "levels": levels}, "network spec")


def write_network_weights(kernels: list[np.ndarray], path) -> None:
    """Binary kernel dump: 16-byte header, then per-level shape + data."""
    chunks = [_WEIGHTS_MAGIC, struct.pack("<II", _WEIGHTS_VERSION, len(kernels))]
    for w in kernels:
        chunks.append(struct.pack("<IIII", *w.shape))
        chunks.append(np.ascontiguousarray(w, dtype="<f8").tobytes())
    write_artifact(path, b"".join(chunks))


def read_network_weights(path) -> list[np.ndarray]:
    with open(path, "rb") as fh:
        magic = fh.read(8)
        if magic != _WEIGHTS_MAGIC:
            raise ValueError(f"bad magic {magic!r}")
        version, n_levels = struct.unpack("<II", fh.read(8))
        if version != _WEIGHTS_VERSION:
            raise ValueError(f"unsupported version {version}")
        kernels = []
        for _ in range(n_levels):
            shape = struct.unpack("<IIII", fh.read(16))
            count = int(np.prod(shape))
            data = np.frombuffer(fh.read(count * 8), dtype="<f8").reshape(shape)
            kernels.append(data.astype(np.float64))
    return kernels
