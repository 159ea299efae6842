"""Deterministic synthetic videos with analytic actionness and ground truth.

Instances are placed without overlap, rendered as one of three analytic
profiles in their class column, and the background column is the complement
of the strongest class response. All randomness flows through an explicit
numpy Generator so repeated runs are bit-identical.
"""

from __future__ import annotations

import sys
from dataclasses import asdict, dataclass, field
from typing import Iterator

import numpy as np

from .errors import InvalidInputError, PackingError, require_finite
from .records import GroundTruthInstance, PointAnnotation
from .signal import ProbabilitySignal

SHAPE_NAMES = ("plateau", "gaussian", "plateau_with_gaussian_shoulders")

# Peak heights stay above 0.5 so a mid-range threshold always recovers
# noiseless plateau instances exactly.
PEAK_RANGE = (0.7, 0.95)
MIN_GAP = 3  # background snippets kept between neighbouring instances
_PLACEMENT_ATTEMPTS_PER_INSTANCE = 200
# numpy draws below an int64 high end and counts an array's bytes in an intp, no wider than int64
_NUMPY_MAX = int(np.iinfo(np.intp).max)
# the most items a CPython list holds: one pointer each, their bytes counted in a Py_ssize_t
_LIST_MAX = sys.maxsize // 8


def _default_shape_mix() -> dict[str, float]:
    return {name: 1.0 for name in SHAPE_NAMES}


@dataclass
class SyntheticConfig:
    length: int = 512
    num_classes: int = 5
    instances_per_video: tuple[int, int] = (1, 4)
    duration_range: tuple[int, int] = (8, 64)
    shape_mix: dict[str, float] = field(default_factory=_default_shape_mix)
    noise_std: float = 0.0
    background_level: float = 0.05
    seed: int = 0

    def __post_init__(self):
        if self.length < 8:
            raise InvalidInputError(f"length must be >= 8, got {self.length}")
        if self.num_classes < 1:
            raise InvalidInputError(f"num_classes must be >= 1, got {self.num_classes}")
        if 8 * self.length * (self.num_classes + 1) > _NUMPY_MAX:
            raise InvalidInputError(
                f"a signal of {self.length} snippets and {self.num_classes} classes is too large for numpy to hold"
            )
        lo, hi = self.instances_per_video
        if not 1 <= lo <= hi:
            raise InvalidInputError(f"bad instances_per_video range ({lo}, {hi})")
        if hi >= _NUMPY_MAX:
            raise InvalidInputError(f"instances_per_video must stay below {_NUMPY_MAX}, got ({lo}, {hi})")
        d_lo, d_hi = self.duration_range
        if not 3 <= d_lo <= d_hi:
            raise InvalidInputError(f"durations must be >= 3 snippets, got ({d_lo}, {d_hi})")
        if d_hi > self.length:
            raise InvalidInputError("maximum duration exceeds video length")
        unknown = set(self.shape_mix) - set(SHAPE_NAMES)
        if unknown:
            raise InvalidInputError(f"unknown shapes {sorted(unknown)}")
        # the range check below rejects NaN and inf in background_level
        weights = {f"shape_mix[{name!r}]": weight for name, weight in self.shape_mix.items()}
        require_finite(noise_std=self.noise_std, **weights)
        if not self.shape_mix or any(w < 0 for w in self.shape_mix.values()):
            raise InvalidInputError("shape_mix weights must be nonnegative and nonempty")
        if sum(self.shape_mix.values()) <= 0:
            raise InvalidInputError("shape_mix weights must sum to > 0")
        if self.noise_std < 0:
            raise InvalidInputError(f"noise_std must be >= 0, got {self.noise_std}")
        if not 0.0 <= self.background_level < 0.5:
            raise InvalidInputError(
                f"background_level must be in [0, 0.5), got {self.background_level}"
            )


@dataclass
class SyntheticVideo:
    """Oracle probability signal plus the ground truth that produced it."""

    signal: ProbabilitySignal
    gt: list[GroundTruthInstance]


def _place_instances(config: SyntheticConfig, rng: np.random.Generator, count: int):
    d_lo, d_hi = config.duration_range
    placed: list[tuple[int, int]] = []
    attempts = 0
    budget = _PLACEMENT_ATTEMPTS_PER_INSTANCE * count
    if count * d_lo + (count - 1) * MIN_GAP > config.length:
        budget = 0  # the shortest instances and gaps alone overrun the video: fail before any draw
    while len(placed) < count:
        attempts += 1
        if attempts > budget:
            raise PackingError(
                f"could not place {count} instances of {d_lo}-{d_hi} snippets "
                f"in a video of length {config.length}"
            )
        duration = int(rng.integers(d_lo, d_hi + 1))
        start = int(rng.integers(0, config.length - duration + 1))
        end = start + duration - 1
        if all(end < s - MIN_GAP or start > e + MIN_GAP for s, e in placed):
            placed.append((start, end))
    return sorted(placed)


def _shape_profile(shape: str, length: int, height: float, floor: float) -> np.ndarray:
    positions = np.arange(length, dtype=np.float64)
    centre = 0.5 * (length - 1)
    if shape == "plateau":
        return np.full(length, height)
    if shape == "gaussian":
        sigma = length / 6.0
        return floor + (height - floor) * np.exp(-0.5 * ((positions - centre) / sigma) ** 2)
    if shape == "plateau_with_gaussian_shoulders":
        core_half = length / 4.0
        sigma = max(length / 8.0, 1.0)
        excess = np.maximum(np.abs(positions - centre) - core_half, 0.0)
        return floor + (height - floor) * np.exp(-0.5 * (excess / sigma) ** 2)
    raise InvalidInputError(f"unknown shape {shape!r}")


def generate_video(
    config: SyntheticConfig, rng: np.random.Generator, video_id: str = "video-0000"
) -> SyntheticVideo:
    """Sample disjoint instances and render their oracle probability signal."""
    lo, hi = config.instances_per_video
    count = int(rng.integers(lo, hi + 1))
    placements = _place_instances(config, rng, count)

    shapes = sorted(config.shape_mix)
    weights = np.array([config.shape_mix[name] for name in shapes], dtype=np.float64)
    weights /= weights.sum()

    values = np.full((config.length, config.num_classes + 1), config.background_level)
    gt = []
    for start, end in placements:
        class_id = int(rng.integers(1, config.num_classes + 1))
        shape = str(rng.choice(shapes, p=weights))
        height = float(rng.uniform(*PEAK_RANGE))
        profile = _shape_profile(shape, end - start + 1, height, config.background_level)
        column = values[start : end + 1, class_id - 1]
        np.maximum(column, profile, out=column)
        gt.append(GroundTruthInstance(video_id, start, end, class_id))

    if config.noise_std > 0:
        noise = rng.normal(0.0, config.noise_std, size=(config.length, config.num_classes))
        values[:, :-1] = np.clip(values[:, :-1] + noise, 0.0, 1.0)
    values[:, -1] = 1.0 - values[:, :-1].max(axis=1)
    return SyntheticVideo(signal=ProbabilitySignal(video_id, 1, values), gt=gt)


def sample_point(
    instance: GroundTruthInstance, mode: str, rng: np.random.Generator
) -> PointAnnotation:
    """Draw one annotated snippet inside the instance.

    ``uniform`` picks any snippet with equal probability; ``gaussian`` samples
    around the instance centre with std duration/6, rounded and clipped.
    """
    if mode == "uniform":
        t = int(rng.integers(instance.start, instance.end + 1))
    elif mode == "gaussian":
        duration = instance.end - instance.start + 1
        centre = 0.5 * (instance.start + instance.end)
        t = int(round(float(rng.normal(centre, duration / 6.0))))
        t = max(instance.start, min(instance.end, t))
    else:
        raise InvalidInputError(f"unknown sampling mode {mode!r}")
    return PointAnnotation(instance.video_id, t, instance.class_id)


def generate_dataset(
    config: SyntheticConfig, videos: int, point_mode: str
) -> tuple[dict, Iterator[tuple[SyntheticVideo, list[PointAnnotation]]]]:
    """The dataset's manifest, and a stream of its videos, each with one sampled point per instance.

    Video ``index`` is ``video-<index:04d>``; ``default_rng([config.seed, index])``
    draws it, then its points. A count whose manifest lists no CPython list
    can hold is refused before anything is built.
    """
    if videos < 1:
        raise InvalidInputError(f"videos must be >= 1, got {videos}")
    if videos > _LIST_MAX:
        raise InvalidInputError(f"videos must be at most {_LIST_MAX}, got {videos}")
    if config.seed < 0:
        raise InvalidInputError(f"seed must be >= 0, got {config.seed}")
    manifest = {
        "videos": [f"video-{index:04d}" for index in range(videos)],
        "video_seeds": [[config.seed, index] for index in range(videos)],
        "point_mode": point_mode,
        "config": asdict(config),
    }

    def stream():
        for index, video_id in enumerate(manifest["videos"]):
            rng = np.random.default_rng([config.seed, index])
            video = generate_video(config, rng, video_id)
            yield video, [sample_point(instance, point_mode, rng) for instance in video.gt]

    return manifest, stream()
