"""Probability-signal containers and signal-conditioning operations.

A probability signal is a (T, C+1) grid of per-snippet probabilities at one
pyramid level: C class columns followed by one background column. Class ids
are 1-based throughout, so class ``c`` lives in column ``c - 1``.
``video_pyramids`` groups the levels of each video into one checked pyramid and
reads each coarser level's ratio to level 1 from the lengths, as the product of
integer pooling steps from level to level. ``SCRATCH_ELEMENTS`` bounds the
temporaries of every batched pass of ``adm`` and ``decoder``, and
``size_blocks`` plans their blocks.
"""

from __future__ import annotations

import bisect
import itertools
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import InvalidInputError
from .records import PointAnnotation


# most float64 elements (512 KiB) one block of a batched pass holds: a block of NMS pairs or of gathered
# OIC slices, or the live arrays of a block of ADM fit work, each of at most ``SCRATCH_ELEMENTS // 8``.
# Every pass reads it when it is called.
SCRATCH_ELEMENTS = 1 << 16
# Fixed hyperparameters of ``adm``'s pseudo-labels, read when each function runs: the std,
# in snippets, of the Gaussian ``smooth_column`` convolves with, and the snippets on each
# side of an annotated point that ``select_background_points`` keeps out.
SMOOTHING_SIGMA = 2.0
AUGMENT_RADIUS = 2


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


def smooth_column(column: np.ndarray) -> np.ndarray:
    """Convolve one class column with a normalized Gaussian of std ``SMOOTHING_SIGMA``,
    truncated at 4 stds, clipped to [0, 1].

    Edges use reflection padding, so constant columns pass through unchanged.
    """
    radius = int(4.0 * SMOOTHING_SIGMA + 0.5)
    kernel = np.exp(-0.5 * (np.arange(-radius, radius + 1, dtype=np.float64) / SMOOTHING_SIGMA) ** 2)
    padded = np.pad(column, radius, mode="reflect")
    return np.clip(np.convolve(padded, kernel / kernel.sum(), mode="valid"), 0.0, 1.0)


def size_blocks(sizes, budget: int) -> list[np.ndarray]:
    """The positions of ``sizes`` in stable size order, cut into consecutive blocks
    whose count times largest size is at most ``budget``; a block of one position may exceed it."""
    order = np.argsort(sizes, kind="stable")
    ordered = np.asarray(sizes)[order].tolist()
    blocks, first = [], 0
    while first < len(ordered):
        # k positions from ``first`` pad to k * ordered[first + k - 1], which grows with k
        count = max(1, bisect.bisect_right(
            range(1, len(ordered) - first + 1), budget, key=lambda k: k * ordered[first + k - 1]
        ))
        blocks.append(order[first : first + count])
        first += count
    return blocks


def slice_sums(buffer: np.ndarray, lows: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """``np.add.reduce(buffer[low : low + size])`` for every ``(low, size)``, bit for bit.

    The slices go in ``size_blocks`` of ``SCRATCH_ELEMENTS``. Each run of one
    size in a block is gathered as rows of a strided view of ``buffer`` and
    summed by one row reduction, which rounds as the 1-D reduction of each row
    does; prefix sums and ``np.add.reduceat`` round differently. An empty
    slice sums to 0 and is never gathered.
    """
    sums = np.zeros(lows.size)
    for block in size_blocks(sizes, SCRATCH_ELEMENTS):
        block_sizes = sizes[block]
        firsts = np.flatnonzero(np.diff(block_sizes, prepend=-1))  # each run of one size starts at one
        bounds = [*firsts.tolist(), block.size]
        for size, low, high in zip(block_sizes[firsts].tolist(), bounds, bounds[1:]):
            if size:
                run = block[low:high]
                sums[run] = np.add.reduce(sliding_window_view(buffer, size)[lows[run]], axis=1)
    return sums


def upsample_column(column: np.ndarray, target_length: int) -> np.ndarray:
    """Linearly interpolate ``column`` onto ``target_length`` uniform positions spanning it.

    A one-snippet column becomes a constant column, and a column already
    ``target_length`` long is returned as it is.
    """
    length = len(column)
    if target_length < length:
        raise InvalidInputError(f"target_length {target_length} smaller than column length {length}")
    if target_length == length:
        return column
    return np.interp(np.linspace(0.0, length - 1.0, target_length), np.arange(length, dtype=np.float64), column)


class Pyramid(NamedTuple):
    """One video's levels, finest first from level 1, with each level's snippet ratio
    to level 1 and the level-1 snippets it covers."""

    levels: list[ProbabilitySignal]
    scales: list[int]
    extents: list[int]


def video_pyramids(signals: Iterable[ProbabilitySignal]) -> dict[str, Pyramid]:
    """Each video's pyramid, read from its levels given in any order, videos in sorted id order.

    Every level must hold the classes of level 1, and level 1 is required, as
    annotations, ground truth and proposals index its snippets. Each level
    pools the level below it, of ``m`` snippets, by an integer step ``r >= 2``
    into ``m // r`` or ``ceil(m / r)`` snippets, so its ratio to level 1 is the
    product of the steps up to it. Where more than one step fits a length,
    which takes a level shorter than twice its step (4 snippets pool into 2 by
    2 or by 3), the smallest is read, so a pyramid that halves is always read
    exactly. A level's extent, the level-1 snippets it covers, is the least
    ``n * s`` over it and the levels below it, ``n`` each one's length and
    ``s`` its ratio. A level given twice, or any other break of these rules,
    raises ``InvalidInputError`` naming the video.
    """
    grouped: dict[str, list[ProbabilitySignal]] = {}
    for signal in sorted(signals, key=lambda s: (s.video_id, s.level)):
        grouped.setdefault(signal.video_id, []).append(signal)
    return {video_id: _pyramid(video_id, levels) for video_id, levels in grouped.items()}


def _pyramid(video_id: str, levels: list[ProbabilitySignal]) -> Pyramid:
    """One video's checked pyramid, from its levels finest first."""
    numbers = [signal.level for signal in levels]
    for lower, upper in zip(numbers, numbers[1:]):
        if lower == upper:
            raise InvalidInputError(f"video {video_id!r} has level {lower} more than once")
    if numbers[0] != 1:
        raise InvalidInputError(
            f"video {video_id!r} has no level 1 (its levels are {numbers}); "
            "annotations, ground truth and proposals index level-1 snippets"
        )
    scales = [1]
    for below, signal in zip(levels, levels[1:]):
        if signal.num_classes != levels[0].num_classes:
            raise InvalidInputError(
                f"video {video_id!r}: level {signal.level} holds {signal.num_classes} classes where level 1 "
                f"holds {levels[0].num_classes}; every level must hold the same classes"
            )
        # the smallest step that pools ``below`` into at most ``signal.length`` snippets
        step = max(2, below.length // (signal.length + 1) + 1)
        if signal.length > -(-below.length // step):
            raise InvalidInputError(
                f"video {video_id!r}: level {signal.level} has {signal.length} snippets, which no "
                f"integer step of 2 or more pools level {below.level}'s {below.length} snippets into"
            )
        scales.append(scales[-1] * step)
    # level 1's snippets, less any that a floor-pooled level at or below it dropped from the end
    extents = list(itertools.accumulate((signal.length * scale for signal, scale in zip(levels, scales)), min))
    return Pyramid(levels, scales, extents)


def select_background_points(
    signal: ProbabilitySignal,
    points: Sequence[PointAnnotation],
    threshold: float,
) -> BackgroundPoints:
    """Snippets whose background probability clears ``threshold``, keeping out
    each level-1 point's window of ``AUGMENT_RADIUS`` snippets on both sides."""
    mask = signal.background > threshold
    for point in points:
        if point.t >= signal.length:
            raise InvalidInputError(f"annotation t={point.t} beyond level-1 length {signal.length}")
        mask[max(0, point.t - AUGMENT_RADIUS) : point.t + AUGMENT_RADIUS + 1] = False
    return BackgroundPoints(np.flatnonzero(mask))
