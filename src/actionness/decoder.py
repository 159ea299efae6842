"""Inference-time proposal decoding: thresholding, contrast scoring, NMS."""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from . import signal
from .errors import InvalidInputError, require_finite
from .records import Proposal
from .signal import ProbabilitySignal, Pyramid, video_pyramids

# Fixed hyperparameters: the thresholds whose runs become segments, strictly ascending
# in (0, 1), which ``threshold_runs`` reads when it runs; the OIC flank width as a
# fraction of a segment's length, which ``oic_scores`` reads when it runs; and the
# tIoU above which NMS suppresses a proposal, which ``decode_videos`` reads when it runs.
THRESHOLDS = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)
OIC_INFLATION = 0.25
NMS_TIOU = 0.45


def video_level_scores(sig: ProbabilitySignal, k: int) -> np.ndarray:
    """Mean of the k largest per-class probabilities (top-k pooling)."""
    if not 1 <= k <= sig.length:
        raise InvalidInputError(f"k must be in [1, {sig.length}], got {k}")
    classes = sig.values[:, :-1]
    top = np.partition(classes, sig.length - k, axis=0)[sig.length - k :, :]
    return top.mean(axis=0)


def select_classes(video_scores, threshold: float) -> list[int]:
    """1-based class ids whose video score clears the threshold.

    Falls back to the single argmax class when nothing clears it.
    """
    scores = np.asarray(video_scores, dtype=np.float64)
    selected = np.flatnonzero(scores > threshold)
    if selected.size == 0:
        selected = np.array([int(np.argmax(scores))])
    return [int(c) + 1 for c in selected]


def threshold_runs(column) -> tuple[np.ndarray, np.ndarray]:
    """Starts and ends of the maximal runs of consecutive snippets strictly above
    each of ``THRESHOLDS``: threshold by threshold in their order, each one's runs by start.

    One ``(thresholds, length + 2)`` mask holds every comparison, each row
    padded by a False at both ends, so no run joins the next row's and every
    run has one rise and one fall in the mask's flat ``diff``.
    """
    column = np.asarray(column, dtype=np.float64)
    thresholds = np.asarray(THRESHOLDS, dtype=np.float64)
    width = column.size + 2
    mask = np.zeros((thresholds.size, width), dtype=bool)
    np.greater(column, thresholds[:, None], out=mask[:, 1:-1])
    flat = mask.ravel()
    # a change between flat[i] and flat[i + 1]: a rise before a run's first snippet, a fall at its last
    changes = np.flatnonzero(flat[1:] != flat[:-1]) % width
    return changes[0::2], changes[1::2] - 1


def oic_scores(columns: Sequence, column_ids, starts, ends) -> np.ndarray:
    """Outer-inner contrast of many segments: segment ``i`` is ``[starts[i], ends[i]]`` of ``columns[column_ids[i]]``.

    A score is the inner mean minus the mean over the flanking windows. Each
    flank is ``max(1, round(OIC_INFLATION * segment_length))`` snippets wide,
    clipped to the segment's own column, so the outer region is empty only
    when the segment spans its whole column, and then contributes 0. The columns
    are copied into one buffer, and the inner, left and right sums of every
    segment are taken together by ``signal.slice_sums``, so each score equals
    ``inner.mean() - (left.sum() + right.sum()) / outer_size`` bit for bit.
    """
    columns = [np.asarray(column, dtype=np.float64) for column in columns]
    column_ids = np.asarray(column_ids, dtype=np.int64)
    starts = np.asarray(starts, dtype=np.int64)
    ends = np.asarray(ends, dtype=np.int64)
    if np.any((column_ids < 0) | (column_ids >= len(columns))):
        raise InvalidInputError(f"column ids must lie in [0, {len(columns)}), got {column_ids.min()}..{column_ids.max()}")
    column_lengths = np.array([column.size for column in columns], dtype=np.int64)
    lengths = column_lengths[column_ids]
    outside = np.flatnonzero((starts < 0) | (starts > ends) | (ends >= lengths))
    if outside.size:
        i = outside[0]
        raise InvalidInputError(f"segment [{starts[i]}, {ends[i]}] outside video of length {lengths[i]}")
    inner = ends - starts + 1
    # half to even, as round(); at least one snippet, so a short run is contrasted
    # with its neighbours rather than scored by its inner mean
    width = np.maximum(1, np.rint(OIC_INFLATION * inner).astype(np.int64))
    left = np.minimum(width, starts)  # the flanks, clipped to the segment's column
    right = np.minimum(width, lengths - 1 - ends)
    # the columns one after another, and where each segment starts among them
    buffer = np.concatenate([np.zeros(0), *columns])
    starts = starts + (np.cumsum(column_lengths) - column_lengths)[column_ids]
    sums = signal.slice_sums(
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
    members that start at or before it. Those pairs, expanded member by
    member in ``signal.size_blocks`` of ``signal.SCRATCH_ELEMENTS`` pairs, get
    their tIoU from the same integer counts and float division as
    ``evaluation.tiou``, and each pair above the threshold becomes an edge
    from its lower to its higher rank. Then the greedy pass: a source that
    no edge reaches is kept, so its targets go at once, and the remaining
    sources are visited by rank, each suppressing its targets if it is still
    kept. The work follows the overlapping pairs, not the squared pool size.
    Survivors come back in the sorted order, so results and tie order equal
    the one-at-a-time greedy pass (``oracles.nms_direct``).
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
    overlapping = np.flatnonzero(counts)
    sources, targets = [], []
    for block in signal.size_blocks(counts[overlapping], signal.SCRATCH_ELEMENTS):
        members = overlapping[block]
        member_counts = counts[members]
        firsts = np.cumsum(member_counts) - member_counts  # where each member's pairs start in the block
        a = np.repeat(members, member_counts)
        b = np.arange(a.size) + np.repeat(members + 1 - firsts, member_counts)
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


def decode_videos(
    signals: Iterable[ProbabilitySignal], class_score_threshold: float = 0.5, top_k_fraction: float = 0.125
) -> list[Proposal]:
    """Decode every video's pyramid levels, given in any order as ``storage.load_signals``
    returns them, into scored proposals, video after video in sorted video id order.

    ``class_score_threshold`` must be finite and ``top_k_fraction`` in
    ``(0, 1]``; both are checked before any other work. ``select_classes``
    keeps the classes whose video score, each level's mean of its top
    ``top_k_fraction`` of snippets averaged over the levels, exceeds
    ``class_score_threshold``. ``video_pyramids`` reads and checks each
    video's pyramid. For every selected class of a video, ``threshold_runs``
    finds each level's runs above every one of ``THRESHOLDS`` at once. Runs
    map onto the level-1 snippets pooled into them: a run ``[a, b]`` of a
    level of ratio ``s`` and extent ``E`` covers ``[a*s, min((b+1)*s, E) - 1]``.
    Then ``oic_scores`` scores every segment of every video by outer-inner
    contrast on its level-1 column at ``OIC_INFLATION``, in one pass, and each
    video's pool is reduced with the module's ``nms`` at ``NMS_TIOU``, whose
    work follows the pool's overlapping same-class pairs.

    Each distinct segment of a class is scored and enters the pool once, in
    the order it is first found, level by level from the finest and
    threshold by threshold. A repeat would carry the same interval, class and
    score as its twin, and the stable sort would rank it right after the twin.
    Their tIoU of 1 is above ``NMS_TIOU``, which is below 1, so the repeat
    would be suppressed by the twin if the twin were kept, and by what
    suppressed the twin otherwise: the survivors and their order are those of
    the pool with its repeats.
    """
    require_finite(class_score_threshold=class_score_threshold)
    if not 0.0 < top_k_fraction <= 1.0:  # NaN and inf fail this too
        raise InvalidInputError(f"top_k_fraction must be in (0, 1], got {top_k_fraction}")
    videos = [
        (video_id, _distinct_segments(pyramid, class_score_threshold, top_k_fraction))
        for video_id, pyramid in video_pyramids(signals).items()
    ]
    classes = [segments for _, per_class in videos for segments in per_class]
    if not classes:
        return []
    _, columns, starts, ends = zip(*classes)
    column_ids = np.repeat(np.arange(len(columns)), [segments.size for segments in starts])
    scores = oic_scores(columns, column_ids, np.concatenate(starts), np.concatenate(ends))
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
        proposals.extend(nms(pool, NMS_TIOU))
    return proposals


def _distinct_segments(pyramid: Pyramid, class_score_threshold: float, top_k_fraction: float):
    """For each class one video's pyramid selects, ``(class id, level-1 column, starts, ends)``
    of the class's distinct level-1 segments, in the order they are first found."""
    finest = pyramid.levels[0]
    per_level = []
    for sig in pyramid.levels:
        k = max(1, min(sig.length, int(round(top_k_fraction * sig.length))))
        per_level.append(video_level_scores(sig, k))
    per_class = []
    for class_id in select_classes(np.mean(per_level, axis=0), class_score_threshold):
        starts, ends = [], []
        for sig, scale, extent in zip(pyramid.levels, pyramid.scales, pyramid.extents):
            run_starts, run_ends = threshold_runs(sig.class_column(class_id))
            # coarse snippet j pools level-1 snippets j*scale .. (j+1)*scale - 1
            starts.append(run_starts * scale)
            ends.append(np.minimum((run_ends + 1) * scale, extent) - 1)
        starts, ends = np.concatenate(starts), np.concatenate(ends)
        # the same segment recurs across thresholds and levels: keep it where it is first found
        first = np.sort(np.unique(starts * finest.length + ends, return_index=True)[1])
        per_class.append((class_id, finest.class_column(class_id), starts[first], ends[first]))
    return per_class
