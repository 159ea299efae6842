"""Probability-signal containers and signal-conditioning operations.

A probability signal is a (T, C+1) grid of per-snippet probabilities at one
pyramid level: C class columns followed by one background column. Class ids
are 1-based throughout, so class ``c`` lives in column ``c - 1``.
``pyramid_scales`` reads each coarser level's ratio to level 1 from the lengths,
as the product of integer pooling steps from level to level.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import InvalidInputError


@dataclass
class ProbabilitySignal:
    """Per-snippet class and background probabilities at one pyramid level."""

    video_id: str
    level: int
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.level < 1:
            raise InvalidInputError(f"level must be >= 1, got {self.level}")
        if self.values.ndim != 2 or self.values.shape[0] < 1 or self.values.shape[1] < 2:
            raise InvalidInputError(
                f"values must have shape (length, num_classes + 1), got {self.values.shape}"
            )
        if not np.all(np.isfinite(self.values)):
            raise InvalidInputError("probabilities must be finite")
        if self.values.min() < 0.0 or self.values.max() > 1.0:
            raise InvalidInputError("probabilities must lie in [0, 1]")

    @property
    def length(self) -> int:
        return self.values.shape[0]

    @property
    def num_classes(self) -> int:
        return self.values.shape[1] - 1

    @property
    def background(self) -> np.ndarray:
        """The background-probability column."""
        return self.values[:, -1]

    def class_column(self, class_id: int) -> np.ndarray:
        if not 1 <= class_id <= self.num_classes:
            raise InvalidInputError(
                f"class_id {class_id} outside [1, {self.num_classes}] for video {self.video_id!r}"
            )
        return self.values[:, class_id - 1]


@dataclass(frozen=True)
class PointAnnotation:
    """One annotated snippet (level-1 resolution) with its 1-based class id."""

    video_id: str
    t: int
    class_id: int

    def __post_init__(self):
        if self.t < 0:
            raise InvalidInputError(f"annotated snippet index must be >= 0, got {self.t}")
        if self.class_id < 1:
            raise InvalidInputError(f"class_id must be >= 1, got {self.class_id}")


@dataclass
class BackgroundPoints:
    """Strictly increasing snippet indices predicted as background."""

    indices: np.ndarray

    def __post_init__(self):
        self.indices = np.asarray(self.indices, dtype=np.int64)
        if self.indices.ndim != 1:
            raise InvalidInputError("background indices must be one-dimensional")
        if self.indices.size:
            if self.indices[0] < 0:
                raise InvalidInputError("background indices must be nonnegative")
            if np.any(np.diff(self.indices) <= 0):
                raise InvalidInputError("background indices must be sorted and unique")


def fuse_probabilities(raw: ProbabilitySignal) -> ProbabilitySignal:
    """Scale each class probability by the class-agnostic score ``1 - p_bg``.

    The background column is copied unchanged.
    """
    fused = raw.values.copy()
    fused[:, :-1] *= 1.0 - fused[:, -1:]
    return ProbabilitySignal(raw.video_id, raw.level, fused)


def _smoothing_kernel(sigma: float) -> np.ndarray:
    # Truncate at +-4 sigma; a sub-snippet sigma degenerates to the identity.
    radius = int(4.0 * sigma + 0.5)
    offsets = np.arange(-radius, radius + 1, dtype=np.float64)
    kernel = np.exp(-0.5 * (offsets / sigma) ** 2)
    return kernel / kernel.sum()


def smooth_signal(signal: ProbabilitySignal, kernel_sigma: float) -> ProbabilitySignal:
    """Convolve each class column with a normalized truncated Gaussian.

    Edges use reflection padding, so constant columns pass through unchanged.
    The background column is not smoothed.
    """
    if kernel_sigma <= 0:
        raise InvalidInputError(f"kernel_sigma must be > 0, got {kernel_sigma}")
    kernel = _smoothing_kernel(kernel_sigma)
    radius = kernel.size // 2
    out = signal.values.copy()
    if radius > 0:
        padded = np.pad(signal.values[:, :-1], ((radius, radius), (0, 0)), mode="reflect")
        for c in range(signal.num_classes):
            out[:, c] = np.convolve(padded[:, c], kernel, mode="valid")
        np.clip(out, 0.0, 1.0, out=out)
    return ProbabilitySignal(signal.video_id, signal.level, out)


def upsample_signal(signal: ProbabilitySignal, target_length: int) -> ProbabilitySignal:
    """Linearly interpolate every column onto ``target_length`` uniform positions."""
    if signal.length < 2:
        raise InvalidInputError("upsampling requires at least two snippets")
    if target_length < signal.length:
        raise InvalidInputError(
            f"target_length {target_length} smaller than signal length {signal.length}"
        )
    if target_length == signal.length:
        return ProbabilitySignal(signal.video_id, signal.level, signal.values.copy())
    src = np.arange(signal.length, dtype=np.float64)
    dst = np.linspace(0.0, signal.length - 1.0, target_length)
    out = np.empty((target_length, signal.values.shape[1]))
    for col in range(signal.values.shape[1]):
        out[:, col] = np.interp(dst, src, signal.values[:, col])
    return ProbabilitySignal(signal.video_id, signal.level, out)


def pyramid_scales(levels: Sequence[ProbabilitySignal]) -> list[int]:
    """Each level's snippet ratio to level 1, read from one video's level lengths.

    ``levels`` is the video's pyramid, finest first, starting at level 1. Each
    level pools the level below it, of ``m`` snippets, by an integer step
    ``r >= 2`` into ``m // r`` or ``ceil(m / r)`` snippets, so its ratio to
    level 1 is the product of the steps up to it. Where more than one step fits
    a length, which takes a level shorter than twice its step (4 snippets pool
    into 2 by 2 or by 3), the smallest is read, so a pyramid that halves is
    always read exactly. Anything else raises ``InvalidInputError`` naming
    the video.
    """
    video_id = levels[0].video_id
    numbers = [signal.level for signal in levels]
    if 1 not in numbers:
        raise InvalidInputError(
            f"video {video_id!r} has no level 1 (its levels are {numbers}); "
            "annotations, ground truth and proposals index level-1 snippets"
        )
    if numbers != sorted(set(numbers)):
        raise InvalidInputError(f"video {video_id!r}: levels {numbers} must be given finest first, each once")
    scales = [1]
    for below, signal in zip(levels, levels[1:]):
        # the smallest step that pools ``below`` into at most ``signal.length`` snippets
        step = max(2, below.length // (signal.length + 1) + 1)
        if signal.length > -(-below.length // step):
            raise InvalidInputError(
                f"video {video_id!r}: level {signal.level} has {signal.length} snippets, which no "
                f"integer step of 2 or more pools level {below.level}'s {below.length} snippets into"
            )
        scales.append(scales[-1] * step)
    return scales


def augment_points(
    points: Sequence[PointAnnotation],
    r_a: int,
    length: int,
) -> list[tuple[int, int]]:
    """Widen each annotated point into an inclusive ``(lo, hi)`` level-1 interval.

    Each point is expanded by ``r_a`` on both sides, clipped to ``[0, length - 1]``.
    """
    if r_a < 0:
        raise InvalidInputError(f"r_a must be >= 0, got {r_a}")
    intervals = []
    for point in points:
        if point.t >= length:
            raise InvalidInputError(f"annotation t={point.t} beyond level-1 length {length}")
        intervals.append((max(0, point.t - r_a), min(length - 1, point.t + r_a)))
    return intervals


def select_background_points(
    signal: ProbabilitySignal,
    intervals: Sequence[tuple[int, int]],
    threshold: float,
) -> BackgroundPoints:
    """Snippets whose background probability clears ``threshold``, excluding
    every inclusive ``(lo, hi)`` interval."""
    mask = signal.background > threshold
    for lo, hi in intervals:
        mask[lo : hi + 1] = False
    return BackgroundPoints(np.flatnonzero(mask))
