"""Inference-time proposal decoding: thresholding, contrast scoring, NMS."""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import InvalidInputError, require_finite
from .losses import video_level_scores
from .records import Proposal
from .signal import ProbabilitySignal, pyramid_scales

DEFAULT_THRESHOLDS = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)
NMS_PAIR_CHUNK = 1 << 16  # most candidate pairs one NMS step expands at once
OIC_GATHER_BUDGET = 1 << 16  # most snippets one grouped OIC sum gathers at once


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


def threshold_runs(column, thresholds) -> tuple[np.ndarray, np.ndarray]:
    """Starts and ends of the maximal runs of consecutive snippets strictly above
    each threshold: threshold by threshold in the given order, each one's runs by start.

    One ``(thresholds, length + 2)`` mask holds every comparison, each row
    padded by a False at both ends, so no run joins the next row's and every
    run has one rise and one fall in the mask's flat ``diff``.
    """
    column = np.asarray(column, dtype=np.float64)
    thresholds = np.asarray(thresholds, dtype=np.float64)
    width = column.size + 2
    mask = np.zeros((thresholds.size, width), dtype=bool)
    np.greater(column, thresholds[:, None], out=mask[:, 1:-1])
    flat = mask.ravel()
    # a change between flat[i] and flat[i + 1]: a rise before a run's first snippet, a fall at its last
    changes = np.flatnonzero(flat[1:] != flat[:-1]) % width
    return changes[0::2], changes[1::2] - 1


def _grouped_sums(buffer: np.ndarray, lows: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """``np.add.reduce(buffer[low : low + size])`` for every ``(low, size)``, bit for bit.

    Slices of one size are gathered as rows of a strided view of ``buffer``, at
    most ``OIC_GATHER_BUDGET`` elements at a time, and summed by one row
    reduction, which rounds as the 1-D reduction of each row does. Prefix sums
    and ``np.add.reduceat`` round differently.
    """
    sums = np.zeros(lows.size)
    order = np.argsort(sizes)
    sizes = sizes[order]
    # each size's slices form one run of ``order``; empty slices sum to 0 and form none
    firsts = np.flatnonzero(sizes != np.concatenate(([0], sizes[:-1])))
    bounds = [*firsts.tolist(), sizes.size]
    for size, first, last in zip(sizes[firsts].tolist(), bounds, bounds[1:]):
        rows = sliding_window_view(buffer, size)
        step = max(1, OIC_GATHER_BUDGET // size)
        for low in range(first, last, step):
            block = order[low : min(low + step, last)]
            sums[block] = np.add.reduce(rows[lows[block]], axis=1)
    return sums


def oic_scores(columns: Sequence, column_ids, starts, ends, inflation: float) -> np.ndarray:
    """Outer-inner contrast of many segments: segment ``i`` is ``[starts[i], ends[i]]`` of ``columns[column_ids[i]]``.

    A score is the inner mean minus the mean over the flanking windows. Each
    flank is ``round(inflation * segment_length)`` snippets wide, clipped to
    the segment's own column; an empty outer region contributes 0. The columns
    are copied into one buffer, and the inner, left and right sums of every
    segment are summed together, grouped by slice size (``_grouped_sums``), so
    each score equals ``inner.mean() - (left.sum() + right.sum()) / outer_size``
    bit for bit.
    """
    columns = [np.asarray(column, dtype=np.float64) for column in columns]
    column_ids = np.asarray(column_ids, dtype=np.int64)
    starts = np.asarray(starts, dtype=np.int64)
    ends = np.asarray(ends, dtype=np.int64)
    if not inflation > 0:  # NaN fails this too
        raise InvalidInputError(f"inflation must be > 0, got {inflation}")
    if np.any((column_ids < 0) | (column_ids >= len(columns))):
        raise InvalidInputError(f"column ids must lie in [0, {len(columns)}), got {column_ids.min()}..{column_ids.max()}")
    column_lengths = np.array([column.size for column in columns], dtype=np.int64)
    lengths = column_lengths[column_ids]
    outside = np.flatnonzero((starts < 0) | (starts > ends) | (ends >= lengths))
    if outside.size:
        i = outside[0]
        raise InvalidInputError(f"segment [{starts[i]}, {ends[i]}] outside video of length {lengths[i]}")
    inner = ends - starts + 1
    # half to even, as round(); a flank wider than the column is clipped to it below anyway,
    # so the column length caps the width before it becomes an int
    width = np.rint(np.minimum(inflation * inner, lengths)).astype(np.int64)
    left = np.minimum(width, starts)  # the flanks, clipped to the segment's column
    right = np.minimum(width, lengths - 1 - ends)
    # the columns one after another, and where each segment starts among them
    buffer = np.concatenate([np.zeros(0), *columns])
    starts = starts + (np.cumsum(column_lengths) - column_lengths)[column_ids]
    sums = _grouped_sums(
        buffer, np.concatenate([starts, starts - left, starts + inner]), np.concatenate([inner, left, right])
    )
    inner_sums, left_sums, right_sums = np.split(sums, 3)
    outer = left + right
    outer_means = np.divide(left_sums + right_sums, outer, out=np.zeros(outer.size), where=outer > 0)
    return inner_sums / inner - outer_means


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
    if not tiou_threshold >= 0:  # NaN fails this too
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


def decode_videos(grouped_levels: Mapping[str, Sequence[ProbabilitySignal]], config: DecoderConfig) -> list[Proposal]:
    """Decode each video's pyramid of fused signals, levels in any order, into scored
    proposals, video after video in sorted video id order.

    For every selected class of a video, ``threshold_runs`` finds each level's
    runs above every threshold at once. Runs map onto the level-1 snippets
    pooled into them (a run ``[a, b]`` at the ratio ``s`` that
    ``pyramid_scales`` reads from the lengths covers
    ``[a*s, min((b+1)*s, E) - 1]``, where ``E``, the level-1 snippets the level
    covers, is the least ``n*s`` over it and the levels below it, ``n`` each
    one's length). Then ``oic_scores`` scores every segment of every video by
    outer-inner contrast on its level-1 column, in one pass, and each video's
    pool is reduced with the module's ``nms``, whose work follows the pool's
    overlapping same-class pairs.

    Each distinct segment of a class is scored and enters the pool once, in
    the order it is first found, level by level from the finest and
    threshold by threshold. A repeat would carry the same interval, class and
    score as its twin, and the stable sort would rank it right after the twin.
    Their tIoU of 1 is above any ``nms_tiou`` the config allows, so the repeat
    would be suppressed by the twin if the twin were kept, and by what
    suppressed the twin otherwise: the survivors and their order are those of
    the pool with its repeats.
    """
    videos = [_distinct_segments(grouped_levels[video_id], config) for video_id in sorted(grouped_levels)]
    classes = [segments for _, per_class in videos for segments in per_class]
    if not classes:
        return []
    _, columns, starts, ends = zip(*classes)
    column_ids = np.repeat(np.arange(len(columns)), [segments.size for segments in starts])
    scores = oic_scores(columns, column_ids, np.concatenate(starts), np.concatenate(ends), config.oic_inflation)
    proposals: list[Proposal] = []
    low = 0
    for video_id, per_class in videos:
        pool = []
        for class_id, _, class_starts, class_ends in per_class:
            high = low + class_starts.size
            pool += [
                Proposal(video_id, start, end, class_id, score)
                for start, end, score in zip(class_starts.tolist(), class_ends.tolist(), scores[low:high].tolist())
            ]
            low = high
        proposals.extend(nms(pool, config.nms_tiou))
    return proposals


def _distinct_segments(signals: Sequence[ProbabilitySignal], config: DecoderConfig):
    """One video's id and, for each class it selects, ``(class id, level-1 column, starts, ends)``
    of the class's distinct level-1 segments, in the order they are first found."""
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
    per_class = []
    for class_id in select_classes(np.mean(per_level, axis=0), config.class_score_threshold):
        starts, ends = [], []
        for sig, scale, extent in zip(signals, scales, extents):
            run_starts, run_ends = threshold_runs(sig.class_column(class_id), config.thresholds)
            # coarse snippet j pools level-1 snippets j*scale .. (j+1)*scale - 1
            starts.append(run_starts * scale)
            ends.append(np.minimum((run_ends + 1) * scale, extent) - 1)
        starts, ends = np.concatenate(starts), np.concatenate(ends)
        # the same segment recurs across thresholds and levels: keep it where it is first found
        first = np.sort(np.unique(starts * signals[0].length + ends, return_index=True)[1])
        per_class.append((class_id, signals[0].class_column(class_id), starts[first], ends[first]))
    return video_id, per_class
