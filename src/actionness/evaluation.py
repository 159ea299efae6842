"""Interval overlap, average precision, mAP reports, and pseudo-label quality."""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .errors import InvalidInputError

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from .adm import PseudoLabel
    from .decoder import Proposal


@dataclass(frozen=True)
class GroundTruthInstance:
    """One annotated action interval (inclusive endpoints)."""

    video_id: str
    start: int
    end: int
    class_id: int

    def __post_init__(self):
        if self.start > self.end:
            raise InvalidInputError(
                f"instance must satisfy start <= end, got [{self.start}, {self.end}]"
            )

    @property
    def interval(self) -> tuple[int, int]:
        return self.start, self.end


@dataclass
class EvalReport:
    """AP per (class, threshold), mAP per threshold, and the range average."""

    thresholds: list[float]
    ap: dict[tuple[int, float], float]
    map_at: dict[float, float]
    average_map: float


@dataclass
class PseudoLabelQuality:
    """Pseudo-label statistics: count ratio, best-match tIoU, detection quality."""

    alpha: float
    mean_tiou: float
    eval: EvalReport


def tiou(a: tuple[int, int], b: tuple[int, int]) -> float:
    """Temporal IoU of two inclusive intervals, counted in snippets."""
    inter = min(a[1], b[1]) - max(a[0], b[0]) + 1
    if inter <= 0:
        return 0.0
    union = (a[1] - a[0] + 1) + (b[1] - b[0] + 1) - inter
    return inter / union


def _tiou_matrix(rows: Sequence, columns: Sequence) -> np.ndarray:
    """tIoU of every row interval against every column interval.

    Counts are int64 snippet counts and each pair takes one float division,
    as in ``tiou``, so every entry equals ``tiou`` of that pair.
    """
    starts = np.array([r.start for r in rows], dtype=np.int64)[:, None]
    ends = np.array([r.end for r in rows], dtype=np.int64)[:, None]
    column_starts = np.array([c.start for c in columns], dtype=np.int64)
    column_ends = np.array([c.end for c in columns], dtype=np.int64)
    inter = np.minimum(ends, column_ends) - np.maximum(starts, column_starts) + 1
    np.maximum(inter, 0, out=inter)  # disjoint pairs have tIoU 0
    return inter / ((ends - starts + 1) + (column_ends - column_starts + 1) - inter)


def _score_order(proposal) -> tuple:
    return (-proposal.score, proposal.video_id, proposal.start, proposal.end)


def _class_average_precisions(
    proposals: Sequence["Proposal"],
    gt: Sequence[GroundTruthInstance],
    thresholds: Sequence[float],
) -> list[float]:
    """All-point AP of one class at each threshold, from one tIoU matrix per video.

    Proposals are sorted once by descending score. Each video's proposal x GT
    tIoU matrix is built once; at every threshold the greedy matching walks its
    rows in score order, and every row takes the still-unmatched GT with the
    largest tIoU (> 0, the first on ties). The row is a true positive when that
    tIoU reaches the threshold; it never falls back to the next-best GT.
    """
    if not gt:
        raise InvalidInputError("average_precision requires at least one ground-truth instance")
    for threshold in thresholds:
        if not 0.0 < threshold <= 1.0:
            raise InvalidInputError(f"tiou_threshold must be in (0, 1], got {threshold}")
    if not proposals:
        return [0.0] * len(thresholds)

    gt_by_video: dict[str, list[GroundTruthInstance]] = {}
    for instance in gt:
        gt_by_video.setdefault(instance.video_id, []).append(instance)
    ordered = sorted(proposals, key=_score_order)
    ranks_by_video: dict[str, list[int]] = {}
    for rank, proposal in enumerate(ordered):
        if proposal.video_id in gt_by_video:
            ranks_by_video.setdefault(proposal.video_id, []).append(rank)

    tp = np.zeros((len(thresholds), len(ordered)))
    for video_id, ranks in ranks_by_video.items():
        overlap = _tiou_matrix([ordered[rank] for rank in ranks], gt_by_video[video_id])
        # each row's GT columns from best to worst; the stable sort puts the first index first on ties
        preference = np.argsort(-overlap, axis=1, kind="stable")
        ranked = np.take_along_axis(overlap, preference, axis=1)
        columns, values = preference.tolist(), ranked.tolist()
        # rows that overlap no GT match nothing at any threshold
        rows = np.flatnonzero(ranked[:, 0] > 0).tolist()
        for k, threshold in enumerate(thresholds):
            unmatched = [True] * overlap.shape[1]
            left = overlap.shape[1]
            for row in rows:
                if values[row][0] < threshold:
                    continue
                for column, value in zip(columns[row], values[row]):
                    if unmatched[column]:
                        if value >= threshold:
                            unmatched[column] = False
                            left -= 1
                            tp[k, ranks[row]] = 1.0
                        break
                if not left:
                    break

    cum_tp = np.cumsum(tp, axis=1)
    size = (len(thresholds), len(ordered) + 2)
    mrec = np.zeros(size)
    mrec[:, 1:-1] = cum_tp / len(gt)
    mrec[:, -1] = 1.0
    mpre = np.zeros(size)
    mpre[:, 1:-1] = cum_tp / np.arange(1, len(ordered) + 1)
    # the precision envelope: at each rank, the max precision at that and every later rank
    mpre = np.maximum.accumulate(mpre[:, ::-1], axis=1)[:, ::-1]
    steps = mrec[:, 1:] != mrec[:, :-1]
    areas = (mrec[:, 1:] - mrec[:, :-1]) * mpre[:, 1:]
    # summed row by row over the recall steps only, so each sum adds the same terms in the same order
    return [float(np.sum(area[step])) for area, step in zip(areas, steps)]


def average_precision(
    proposals: Sequence["Proposal"],
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
    proposals: Sequence["Proposal"],
    gt: Sequence[GroundTruthInstance],
    thresholds: Sequence[float],
) -> EvalReport:
    """AP per class and threshold; mAP averages only classes that have GT.

    Proposals and GT are grouped by class in one pass, and each class's APs
    at every threshold come from one call that builds each video's tIoU
    matrix once; each AP equals ``average_precision`` on that class alone.
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
    by_class_proposals: dict[int, list["Proposal"]] = {c: [] for c in classes}
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
        map_at[threshold] = float(np.mean([per_class[c][k] for c in classes]))
    average_map = float(np.mean(list(map_at.values())))
    return EvalReport(thresholds, ap, map_at, average_map)


def pseudo_label_quality(
    pseudo_labels: Sequence["PseudoLabel"],
    gt: Sequence[GroundTruthInstance],
    thresholds: Sequence[float],
) -> PseudoLabelQuality:
    """Count ratio, mean best-match tIoU, and unit-score detection quality.

    A GT instance's best match is the largest tIoU of any label of its video
    and class (0 when there is none): the column max of that (video, class)
    label x GT tIoU matrix. Detection quality is ``map_report`` with every
    label scored 1.
    """
    from .decoder import Proposal

    if not gt:
        raise InvalidInputError("pseudo_label_quality requires ground truth")
    alpha = len(pseudo_labels) / len(gt)
    columns: dict[tuple[str, int], list[int]] = {}
    for index, instance in enumerate(gt):
        columns.setdefault((instance.video_id, instance.class_id), []).append(index)
    rows: dict[tuple[str, int], list["PseudoLabel"]] = {}
    for label in pseudo_labels:
        key = (label.video_id, label.class_id)
        if key in columns:
            rows.setdefault(key, []).append(label)
    best_matches = np.zeros(len(gt))
    for key, labels in rows.items():
        indices = columns[key]
        best_matches[indices] = _tiou_matrix(labels, [gt[i] for i in indices]).max(axis=0)
    as_proposals = [
        Proposal(label.video_id, label.start, label.end, label.class_id, 1.0)
        for label in pseudo_labels
    ]
    report = map_report(as_proposals, gt, thresholds)
    return PseudoLabelQuality(alpha, float(np.mean(best_matches)), report)
