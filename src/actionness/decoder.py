"""Inference-time proposal decoding: thresholding, contrast scoring, NMS."""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .errors import InvalidInputError
from .losses import video_level_scores
from .signal import ProbabilitySignal, pyramid_scales

DEFAULT_THRESHOLDS = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)


@dataclass
class Proposal:
    """A scored candidate interval (inclusive endpoints)."""

    video_id: str
    start: int
    end: int
    class_id: int
    score: float

    def __post_init__(self):
        if self.start < 0 or self.start > self.end:
            raise InvalidInputError(
                f"proposal must satisfy 0 <= start <= end, got [{self.start}, {self.end}]"
            )
        if not math.isfinite(self.score):
            raise InvalidInputError(f"proposal score must be finite, got {self.score}")

    @property
    def interval(self) -> tuple[int, int]:
        return self.start, self.end


@dataclass
class DecoderConfig:
    thresholds: tuple[float, ...] = DEFAULT_THRESHOLDS
    oic_inflation: float = 0.25
    nms_tiou: float = 0.45
    class_score_threshold: float = 0.5
    top_k_fraction: float = 0.125

    def __post_init__(self):
        self.thresholds = tuple(float(t) for t in self.thresholds)
        if not self.thresholds:
            raise InvalidInputError("thresholds must be nonempty")
        if any(not 0.0 < t < 1.0 for t in self.thresholds):
            raise InvalidInputError(f"thresholds must lie in (0, 1), got {self.thresholds}")
        if any(b <= a for a, b in zip(self.thresholds, self.thresholds[1:])):
            raise InvalidInputError("thresholds must be strictly ascending")
        if self.oic_inflation <= 0:
            raise InvalidInputError(f"oic_inflation must be > 0, got {self.oic_inflation}")
        if not 0.0 < self.nms_tiou < 1.0:
            raise InvalidInputError(f"nms_tiou must be in (0, 1), got {self.nms_tiou}")
        if not 0.0 < self.top_k_fraction <= 1.0:
            raise InvalidInputError(f"top_k_fraction must be in (0, 1], got {self.top_k_fraction}")


def select_classes(video_scores, threshold: float) -> list[int]:
    """1-based class ids whose video score clears the threshold.

    Falls back to the single argmax class when nothing clears it.
    """
    scores = np.asarray(video_scores, dtype=np.float64)
    selected = np.flatnonzero(scores > threshold)
    if selected.size == 0:
        selected = np.array([int(np.argmax(scores))])
    return [int(c) + 1 for c in selected]


def threshold_merge(column, threshold: float) -> list[tuple[int, int]]:
    """Maximal runs of consecutive snippets strictly above the threshold."""
    mask = np.asarray(column, dtype=np.float64) > threshold
    if not mask.any():
        return []
    padded = np.concatenate(([False], mask, [False]))
    changes = np.flatnonzero(padded[1:] != padded[:-1])
    starts = changes[::2]
    ends = changes[1::2] - 1
    return list(zip(starts.tolist(), ends.tolist()))


def oic_score(column, segment: tuple[int, int], inflation: float) -> float:
    """Outer-inner contrast: inner mean minus the mean over flanking windows.

    Each flank is ``round(inflation * segment_length)`` snippets wide, clipped
    to the video; an empty outer region contributes 0.
    """
    column = np.asarray(column, dtype=np.float64)
    start, end = segment
    if not 0 <= start <= end < column.size:
        raise InvalidInputError(f"segment [{start}, {end}] outside video of length {column.size}")
    if inflation <= 0:
        raise InvalidInputError(f"inflation must be > 0, got {inflation}")
    inner = column[start : end + 1]
    width = int(round(inflation * (end - start + 1)))
    left = column[max(0, start - width) : start]
    right = column[end + 1 : min(column.size, end + 1 + width)]
    outer_size = left.size + right.size
    outer_mean = (left.sum() + right.sum()) / outer_size if outer_size else 0.0
    return float(inner.mean() - outer_mean)


def _nms_order(proposal: Proposal) -> tuple:
    return (-proposal.score, proposal.start, proposal.end, proposal.class_id)


def nms(proposals: Sequence[Proposal], tiou_threshold: float) -> list[Proposal]:
    """Greedy same-class suppression by descending score, vectorized per class.

    Proposals are sorted once on (score desc, start asc, end asc, class asc).
    Within each class, every survivor suppresses all later members whose tIoU
    with it exceeds the threshold; the tIoU of a survivor against the rest of
    its class is one numpy expression using the same integer counts and float
    division as ``evaluation.tiou``. Survivors come back in the sorted order,
    so results and tie order equal the one-at-a-time greedy pass
    (``oracles.nms_direct``).
    """
    ordered = sorted(proposals, key=_nms_order)
    if not ordered:
        return []
    starts = np.array([p.start for p in ordered], dtype=np.int64)
    ends = np.array([p.end for p in ordered], dtype=np.int64)
    class_ids = np.array([p.class_id for p in ordered], dtype=np.int64)
    keep = np.ones(len(ordered), dtype=bool)
    for class_id in np.unique(class_ids):
        members = np.flatnonzero(class_ids == class_id)
        member_starts = starts[members]
        member_ends = ends[members]
        lengths = member_ends - member_starts + 1
        suppressed = np.zeros(members.size, dtype=bool)
        for i in range(members.size - 1):
            if suppressed[i]:
                continue
            later = slice(i + 1, None)
            inter = (
                np.minimum(member_ends[i], member_ends[later])
                - np.maximum(member_starts[i], member_starts[later])
                + 1
            )
            np.maximum(inter, 0, out=inter)  # disjoint pairs have tIoU 0, as in evaluation.tiou
            overlap = inter / (lengths[i] + lengths[later] - inter)
            suppressed[later] |= overlap > tiou_threshold
        keep[members[suppressed]] = False
    return [p for p, kept in zip(ordered, keep.tolist()) if kept]


def decode(signals: Sequence[ProbabilitySignal], config: DecoderConfig) -> list[Proposal]:
    """Decode one video's pyramid of fused signals, in any level order, into scored proposals.

    For every selected class, level and threshold, runs above the threshold
    become segments, segments map onto the level-1 snippets pooled into them
    (a run ``[a, b]`` at the ratio ``s`` that ``pyramid_scales`` reads from the
    lengths covers ``[a*s, min((b+1)*s, E) - 1]``, where ``E``, the level-1
    snippets the level covers, is the least ``n*s`` over it and the levels
    below it, ``n`` each one's length), get scored by outer-inner
    contrast there (once per distinct segment), and the pool, repeats
    included, is reduced with NMS.
    """
    if not signals:
        raise InvalidInputError("decode requires at least one signal")
    video_id = signals[0].video_id
    if any(s.video_id != video_id for s in signals):
        raise InvalidInputError("all signals must belong to the same video")
    signals = sorted(signals, key=lambda s: s.level)
    scales = pyramid_scales(signals)
    # the level-1 snippets each level covers: level 1's, less any that a
    # floor-pooled level at or below it dropped from the end
    extents = list(itertools.accumulate((sig.length * scale for sig, scale in zip(signals, scales)), min))

    per_level = []
    for sig in signals:
        k = max(1, min(sig.length, int(round(config.top_k_fraction * sig.length))))
        per_level.append(video_level_scores(sig, k))
    video_scores = np.mean(per_level, axis=0)
    classes = select_classes(video_scores, config.class_score_threshold)

    pool: list[Proposal] = []
    for class_id in classes:
        reference_column = signals[0].class_column(class_id)
        # the same segment recurs across thresholds and levels: score it once
        scores: dict[tuple[int, int], float] = {}
        for sig, scale, extent in zip(signals, scales, extents):
            column = sig.class_column(class_id)
            for threshold in config.thresholds:
                for seg_start, seg_end in threshold_merge(column, threshold):
                    # coarse snippet j pools level-1 snippets j*scale .. (j+1)*scale - 1
                    start = seg_start * scale
                    end = min((seg_end + 1) * scale, extent) - 1
                    if (start, end) not in scores:
                        scores[start, end] = oic_score(reference_column, (start, end), config.oic_inflation)
                    pool.append(Proposal(video_id, start, end, class_id, scores[start, end]))
    return nms(pool, config.nms_tiou)


def decode_videos(grouped_levels: Mapping[str, Sequence[ProbabilitySignal]], config: DecoderConfig) -> list[Proposal]:
    """Decode each video's levels in sorted video id order."""
    proposals: list[Proposal] = []
    for video_id in sorted(grouped_levels):
        proposals.extend(decode(grouped_levels[video_id], config))
    return proposals
