"""Interval overlap, average precision, mAP reports, and pseudo-label quality.

Pure Python, so ``actionness eval`` loads no numpy. Every sum is the
``math.fsum`` of its terms: exactly rounded, whatever their order.
"""

from __future__ import annotations

import bisect
import itertools
import math
from dataclasses import dataclass, replace
from typing import Sequence

from .errors import InvalidInputError
from .records import GroundTruthInstance, Proposal, PseudoLabel


@dataclass
class EvalReport:
    """AP per (class, threshold), mAP per threshold, and the range average; a report
    on pseudo-labels also holds their count ratio and mean best-match tIoU."""

    thresholds: list[float]
    ap: dict[tuple[int, float], float]
    map_at: dict[float, float]
    average_map: float
    alpha: float | None = None
    mean_tiou: float | None = None


def tiou(a: tuple[int, int], b: tuple[int, int]) -> float:
    """Temporal IoU of two inclusive intervals, counted in snippets."""
    inter = min(a[1], b[1]) - max(a[0], b[0]) + 1
    if inter <= 0:
        return 0.0
    union = (a[1] - a[0] + 1) + (b[1] - b[0] + 1) - inter
    return inter / union


def _envelope_ap(hit_ranks: Sequence[int], total: int) -> float:
    """All-point AP of one ranking from its true positives' 0-based ranks, ascending.

    The precision envelope at a hit is the largest ``hits / rank`` (1-based) of
    that hit and every later hit; each hit adds its recall step times that
    envelope. A recall that ends below 1 adds nothing more: its last step has
    precision 0.
    """
    envelopes = [hits / (rank + 1) for hits, rank in enumerate(hit_ranks, 1)]
    best = 0.0
    for i in range(len(envelopes) - 1, -1, -1):
        best = envelopes[i] = max(best, envelopes[i])
    return math.fsum((hits / total - (hits - 1) / total) * envelope for hits, envelope in enumerate(envelopes, 1))


def _by_start(intervals: Sequence[tuple[int, int]]) -> tuple[list[int], list[int], list[int]]:
    """The intervals' indices in start order, their starts, and the running max of their ends.

    The intervals that share a snippet with ``(start, end)`` all lie in
    ``order[bisect_left(reach, start):bisect_right(starts, end)]``: those
    before it end before ``start``, and those after it begin after ``end``.
    """
    order = sorted(range(len(intervals)), key=lambda i: intervals[i][0])
    starts = [intervals[i][0] for i in order]
    reach = list(itertools.accumulate((intervals[i][1] for i in order), max))
    return order, starts, reach


def _score_order(proposal) -> tuple:
    return (-proposal.score, proposal.video_id, proposal.start, proposal.end)


def _class_average_precisions(
    proposals: Sequence[Proposal],
    gt: Sequence[GroundTruthInstance],
    thresholds: Sequence[float],
) -> list[float]:
    """All-point AP of one class at each threshold, from each proposal's tIoUs with its video's GT.

    Proposals are sorted once by descending score. Each proposal's tIoUs with
    the GT of its video that it may overlap (found by bisection on their
    starts and running max end) are computed once, with ``tiou``, and those GT
    ordered from best to worst (the first on ties). At every threshold the greedy
    matching walks the proposals in score order, and each takes the
    still-unmatched GT with the largest tIoU (> 0). It is a true positive when
    that tIoU reaches the threshold; it never falls back to the next-best GT.
    The AP comes from the true positives' ranks alone.
    """
    if not gt:
        raise InvalidInputError("average_precision requires at least one ground-truth instance")
    for threshold in thresholds:
        if not 0.0 < threshold <= 1.0:
            raise InvalidInputError(f"tiou_threshold must be in (0, 1], got {threshold}")
    if not proposals:
        return [0.0] * len(thresholds)

    gt_by_video: dict[str, list[tuple[int, int]]] = {}
    for instance in gt:
        gt_by_video.setdefault(instance.video_id, []).append((instance.start, instance.end))
    ordered = sorted(proposals, key=_score_order)
    ranks_by_video: dict[str, list[int]] = {}
    for rank, proposal in enumerate(ordered):
        if proposal.video_id in gt_by_video:
            ranks_by_video.setdefault(proposal.video_id, []).append(rank)

    hit_ranks: list[list[int]] = [[] for _ in thresholds]
    for video_id, ranks in ranks_by_video.items():
        intervals = gt_by_video[video_id]
        order, starts, reach = _by_start(intervals)
        # (rank, (tIoU, GT index) from best to worst, the first index first on ties) of each
        # proposal that overlaps some GT; the GT it does not overlap can match it at no threshold
        rows = []
        for rank in ranks:
            start, end = ordered[rank].start, ordered[rank].end
            lo, hi = bisect.bisect_left(reach, start), bisect.bisect_right(starts, end)
            if lo < hi:
                overlap = [(tiou((start, end), intervals[i]), i) for i in order[lo:hi]]
                overlap.sort(key=lambda pair: (-pair[0], pair[1]))
                if overlap[0][0] > 0:
                    rows.append((rank, overlap))
        for hits, threshold in zip(hit_ranks, thresholds):
            unmatched = [True] * len(intervals)
            left = len(intervals)
            for rank, overlap in rows:
                if overlap[0][0] < threshold:
                    continue
                for value, column in overlap:
                    if unmatched[column]:
                        if value >= threshold:
                            unmatched[column] = False
                            left -= 1
                            hits.append(rank)
                        break
                if not left:
                    break
    return [_envelope_ap(sorted(hits), len(gt)) for hits in hit_ranks]


def average_precision(
    proposals: Sequence[Proposal],
    gt: Sequence[GroundTruthInstance],
    tiou_threshold: float,
) -> float:
    """All-point (precision-envelope) AP for a single class.

    Proposals are visited in descending score order; each matches at most one
    still-unmatched ground-truth instance of the same video, chosen by largest
    tIoU, and counts as a true positive when that tIoU reaches the threshold.
    This is ``map_report``'s per-class computation at one threshold;
    ``oracles.average_precision_direct`` is its reference.
    """
    return _class_average_precisions(proposals, gt, [tiou_threshold])[0]


def map_report(
    proposals: Sequence[Proposal],
    gt: Sequence[GroundTruthInstance],
    thresholds: Sequence[float],
) -> EvalReport:
    """AP per class and threshold; mAP averages only classes that have GT.

    Proposals and GT are grouped by class in one pass, and each class's APs
    at every threshold come from one call that computes each proposal's tIoUs
    once; each AP equals ``average_precision`` on that class alone. Each mAP
    is the exactly rounded sum of its APs over their count.
    A repeated threshold raises InvalidInputError: ``map_at`` keeps one entry
    per distinct threshold, so the report would disagree with itself.
    """
    if not gt:
        raise InvalidInputError("map_report requires ground truth")
    if not thresholds:
        raise InvalidInputError("map_report requires at least one tIoU threshold")
    thresholds = [float(t) for t in thresholds]
    if len(set(thresholds)) != len(thresholds):
        raise InvalidInputError(f"tIoU thresholds must not repeat, got {thresholds}")
    by_class_gt: dict[int, list[GroundTruthInstance]] = {}
    for instance in gt:
        by_class_gt.setdefault(instance.class_id, []).append(instance)
    classes = sorted(by_class_gt)
    by_class_proposals: dict[int, list[Proposal]] = {c: [] for c in classes}
    for proposal in proposals:
        if proposal.class_id in by_class_proposals:
            by_class_proposals[proposal.class_id].append(proposal)
    per_class = {
        c: _class_average_precisions(by_class_proposals[c], by_class_gt[c], thresholds)
        for c in classes
    }

    ap: dict[tuple[int, float], float] = {}
    map_at: dict[float, float] = {}
    for k, threshold in enumerate(thresholds):
        for class_id in classes:
            ap[(class_id, threshold)] = per_class[class_id][k]
        map_at[threshold] = math.fsum(per_class[c][k] for c in classes) / len(classes)
    average_map = math.fsum(map_at.values()) / len(map_at)
    return EvalReport(thresholds, ap, map_at, average_map)


def pseudo_label_quality(
    pseudo_labels: Sequence[PseudoLabel],
    gt: Sequence[GroundTruthInstance],
    thresholds: Sequence[float],
) -> EvalReport:
    """Unit-score detection quality, with the count ratio and mean best-match tIoU.

    A GT instance's best match is the largest tIoU of any label of its video
    and class (0 when there is none); only the labels that ``_by_start`` finds
    may overlap it are scored. Detection quality is ``map_report`` with every
    label scored 1.
    """
    if not gt:
        raise InvalidInputError("pseudo_label_quality requires ground truth")
    alpha = len(pseudo_labels) / len(gt)
    columns: dict[tuple[str, int], list[int]] = {}
    for index, instance in enumerate(gt):
        columns.setdefault((instance.video_id, instance.class_id), []).append(index)
    rows: dict[tuple[str, int], list[PseudoLabel]] = {}
    for label in pseudo_labels:
        key = (label.video_id, label.class_id)
        if key in columns:
            rows.setdefault(key, []).append(label)
    best_matches = [0.0] * len(gt)
    for key, labels in rows.items():
        intervals = [(label.start, label.end) for label in labels]
        order, starts, reach = _by_start(intervals)
        for index in columns[key]:
            instance = gt[index]
            near = order[bisect.bisect_left(reach, instance.start):bisect.bisect_right(starts, instance.end)]
            best_matches[index] = max((tiou(intervals[i], instance.interval) for i in near), default=0.0)
    as_proposals = [
        Proposal(label.video_id, label.start, label.end, label.class_id, 1.0)
        for label in pseudo_labels
    ]
    report = map_report(as_proposals, gt, thresholds)
    return replace(report, alpha=alpha, mean_tiou=math.fsum(best_matches) / len(gt))


def evaluate(
    record_type: type,
    records: Sequence[PseudoLabel] | Sequence[Proposal],
    gt: Sequence[GroundTruthInstance],
    thresholds: Sequence[float],
) -> EvalReport:
    """Score what ``storage.load_eval_input`` returns: ``PseudoLabel`` records with
    ``pseudo_label_quality``, ``Proposal`` records with ``map_report``."""
    score = {PseudoLabel: pseudo_label_quality, Proposal: map_report}.get(record_type)
    if score is None:
        raise InvalidInputError(f"unknown eval input type {record_type!r}")
    return score(records, gt, thresholds)
