"""Inference-time proposal decoding: thresholding, contrast scoring, NMS."""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .errors import InvalidInputError, require_finite
from .losses import video_level_scores
from .records import Proposal
from .signal import ProbabilitySignal, pyramid_scales

DEFAULT_THRESHOLDS = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)
NMS_PAIR_CHUNK = 1 << 16  # most candidate pairs one NMS step expands at once


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
        # the range checks reject NaN and inf in the other fields
        require_finite(oic_inflation=self.oic_inflation, class_score_threshold=self.class_score_threshold)
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
    to the video; an empty outer region contributes 0. The sums are
    ``np.add.reduce``, which ``ndarray.sum`` and ``ndarray.mean`` call, so the
    score equals ``inner.mean() - (left.sum() + right.sum()) / outer_size``
    bit for bit.
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
    outer_mean = (np.add.reduce(left) + np.add.reduce(right)) / outer_size if outer_size else 0.0
    return float(np.add.reduce(inner) / inner.size - outer_mean)


def nms(proposals: Sequence[Proposal], tiou_threshold: float) -> list[Proposal]:
    """Greedy same-class suppression by descending score, over the overlapping pairs only.

    Proposals are sorted once on (score desc, start asc, end asc, class asc)
    by one ``np.lexsort`` over their fields, which is stable, so equal keys
    keep their order in ``proposals``; a proposal's rank is its position in
    that order. Only same-class proposals that share a snippet can have a
    tIoU above a threshold >= 0: each class's members are ordered by start,
    and ``searchsorted`` on each member's end finds the later-starting
    members that start at or before it. Those pairs, expanded at most
    ``NMS_PAIR_CHUNK`` at a time, get their tIoU from the same integer
    counts and float division as ``evaluation.tiou``, and each pair above
    the threshold becomes an edge from its lower to its higher rank. Then
    the greedy pass: a source that no edge reaches is kept, so its targets
    go at once, and the remaining sources are visited by rank, each
    suppressing its targets if it is still kept. The work follows the
    overlapping pairs, not the squared pool size. Survivors come back in the
    sorted order, so results and tie order equal the one-at-a-time greedy
    pass (``oracles.nms_direct``).
    """
    if tiou_threshold < 0:
        raise InvalidInputError(f"tiou_threshold must be >= 0, got {tiou_threshold}")
    if not proposals:
        return []
    starts = np.array([p.start for p in proposals], dtype=np.int64)
    ends = np.array([p.end for p in proposals], dtype=np.int64)
    class_ids = np.array([p.class_id for p in proposals], dtype=np.int64)
    scores = np.array([p.score for p in proposals], dtype=np.float64)
    # stable, like sorted() on the same keys: equal keys keep the pool's order
    order = np.lexsort((class_ids, ends, starts, -scores))
    ordered = [proposals[i] for i in order.tolist()]
    starts, ends, class_ids = starts[order], ends[order], class_ids[order]
    # members of each class by start, one class after another; offsetting each
    # class's coordinates past the last end lets one searchsorted serve them all
    by_start = np.lexsort((starts, class_ids))
    offsets = np.unique(class_ids, return_inverse=True)[1] * (ends.max() + 1)
    member_starts, member_ends = starts[by_start], ends[by_start]
    lengths = member_ends - member_starts + 1
    # member i overlaps members i + 1 .. last[i] - 1, which start at or before its end
    last = np.searchsorted((offsets + starts)[by_start], (offsets + ends)[by_start], side="right")
    counts = last - np.arange(1, len(ordered) + 1)
    pair_ends = np.cumsum(counts)
    pair_starts = pair_ends - counts
    sources, targets = [], []
    for low in range(0, int(pair_ends[-1]), NMS_PAIR_CHUNK):
        high = low + NMS_PAIR_CHUNK
        in_chunk = np.maximum(np.minimum(pair_ends, high) - np.maximum(pair_starts, low), 0)
        a = np.repeat(np.arange(len(ordered)), in_chunk)
        b = a + 1 + np.arange(low, low + a.size) - pair_starts[a]
        # b starts no earlier than a and no later than a's end, so they share a snippet
        inter = np.minimum(member_ends[a], member_ends[b]) - member_starts[b] + 1
        above = inter / (lengths[a] + lengths[b] - inter) > tiou_threshold
        rank_a, rank_b = by_start[a[above]], by_start[b[above]]
        sources.append(np.minimum(rank_a, rank_b))
        targets.append(np.maximum(rank_a, rank_b))
    keep = np.ones(len(ordered), dtype=bool)
    if sources:
        sources, targets = np.concatenate(sources), np.concatenate(targets)
        # a source that no edge reaches is kept, so its targets go at once
        reached = np.zeros(len(ordered), dtype=bool)
        reached[targets] = True
        keep[targets[~reached[sources]]] = False
        undecided = reached[sources] & keep[sources]
        sources, targets = sources[undecided], targets[undecided]
        by_source = np.argsort(sources)
        sources, targets = sources[by_source], targets[by_source]
        # each source's edges form one run; every edge into it comes from a lower rank, visited before it
        firsts = np.flatnonzero(np.diff(sources, prepend=-1))
        bounds = [*firsts.tolist(), sources.size]
        for source, low, high in zip(sources[firsts].tolist(), bounds, bounds[1:]):
            if keep[source]:
                keep[targets[low:high]] = False
    return [p for p, kept in zip(ordered, keep.tolist()) if kept]


def decode(signals: Sequence[ProbabilitySignal], config: DecoderConfig) -> list[Proposal]:
    """Decode one video's pyramid of fused signals, in any level order, into scored proposals.

    For every selected class, level and threshold, runs above the threshold
    become segments, segments map onto the level-1 snippets pooled into them
    (a run ``[a, b]`` at the ratio ``s`` that ``pyramid_scales`` reads from the
    lengths covers ``[a*s, min((b+1)*s, E) - 1]``, where ``E``, the level-1
    snippets the level covers, is the least ``n*s`` over it and the levels
    below it, ``n`` each one's length), get scored by outer-inner
    contrast there (with ``oic_score``), and the pool is reduced with the
    module's ``nms``, whose work follows the pool's overlapping same-class
    pairs.

    Each distinct segment of a class is scored and enters the pool once, in
    the order it is first found. A repeat would carry the same interval,
    class and score as its twin, and the stable sort would rank it right
    after the twin. Their tIoU of 1 is above any ``nms_tiou`` the config
    allows, so the repeat would be suppressed by the twin if the twin were
    kept, and by what suppressed the twin otherwise: the survivors and their
    order are those of the pool with its repeats.
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
        # the same segment recurs across thresholds and levels: score and pool it once
        seen: set[tuple[int, int]] = set()
        for sig, scale, extent in zip(signals, scales, extents):
            column = sig.class_column(class_id)
            for threshold in config.thresholds:
                for seg_start, seg_end in threshold_merge(column, threshold):
                    # coarse snippet j pools level-1 snippets j*scale .. (j+1)*scale - 1
                    start = seg_start * scale
                    end = min((seg_end + 1) * scale, extent) - 1
                    if (start, end) not in seen:
                        seen.add((start, end))
                        score = oic_score(reference_column, (start, end), config.oic_inflation)
                        pool.append(Proposal(video_id, start, end, class_id, score))
    return nms(pool, config.nms_tiou)


def decode_videos(grouped_levels: Mapping[str, Sequence[ProbabilitySignal]], config: DecoderConfig) -> list[Proposal]:
    """Decode each video's levels in sorted video id order."""
    proposals: list[Proposal] = []
    for video_id in sorted(grouped_levels):
        proposals.extend(decode(grouped_levels[video_id], config))
    return proposals
