import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from actionness.adm import PseudoLabel
from actionness.decoder import Proposal
from actionness.errors import InvalidInputError
from actionness.evaluation import (
    EvalReport,
    GroundTruthInstance,
    average_precision,
    evaluate,
    map_report,
    pseudo_label_quality,
    tiou,
)
from actionness.oracles import average_precision_direct

THUMOS_RANGE = [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7]


class TestTiou:
    def test_identical(self):
        assert tiou((3, 9), (3, 9)) == 1.0

    def test_disjoint(self):
        assert tiou((0, 4), (10, 12)) == 0.0

    def test_partial_overlap_inclusive_lengths(self):
        assert tiou((0, 9), (5, 14)) == pytest.approx(5 / 15)

    def test_symmetry(self):
        rng = np.random.default_rng(51)
        for _ in range(30):
            a = tuple(sorted(rng.integers(0, 50, 2)))
            b = tuple(sorted(rng.integers(0, 50, 2)))
            assert tiou(a, b) == tiou(b, a)
            assert 0.0 <= tiou(a, b) <= 1.0


def gt(video_id, start, end, class_id=1):
    return GroundTruthInstance(video_id, start, end, class_id)


def prop(video_id, start, end, score, class_id=1):
    return Proposal(video_id, start, end, class_id, score)


class TestAveragePrecision:
    def test_perfect_single_match(self):
        assert average_precision([prop("v", 5, 10, 0.9)], [gt("v", 5, 10)], 0.5) == 1.0

    def test_false_positive_then_true_positive(self):
        proposals = [prop("v", 40, 45, 0.9), prop("v", 5, 10, 0.8)]
        assert average_precision(proposals, [gt("v", 5, 10)], 0.5) == pytest.approx(0.5)

    def test_each_gt_matched_once(self):
        proposals = [prop("v", 5, 10, 0.9), prop("v", 5, 10, 0.8)]
        ap = average_precision(proposals, [gt("v", 5, 10)], 0.5)
        assert ap == 1.0  # duplicate is a FP but comes after the match

    def test_matches_direct_oracle_on_random_cases(self):
        rng = np.random.default_rng(52)
        for _ in range(100):
            instances = []
            for _ in range(int(rng.integers(1, 6))):
                start = int(rng.integers(0, 60))
                instances.append(gt(f"v{rng.integers(0, 2)}", start, start + int(rng.integers(0, 15))))
            proposals = []
            for _ in range(int(rng.integers(0, 11))):
                start = int(rng.integers(0, 60))
                proposals.append(
                    prop(
                        f"v{rng.integers(0, 2)}",
                        start,
                        start + int(rng.integers(0, 15)),
                        float(np.round(rng.uniform(0, 1), 6)),
                    )
                )
            threshold = float(rng.choice(THUMOS_RANGE))
            fast = average_precision(proposals, instances, threshold)
            assert abs(fast - average_precision_direct(proposals, instances, threshold)) <= 1e-12

    def test_invariant_under_monotone_score_transform(self):
        rng = np.random.default_rng(53)
        instances = [gt("v", 10, 20), gt("v", 40, 60)]
        proposals = [
            prop("v", int(s), int(s) + 10, float(np.round(c, 6)))
            for s, c in zip(rng.integers(0, 60, 8), rng.uniform(0.1, 0.9, 8))
        ]
        base = average_precision(proposals, instances, 0.3)
        transformed = [
            Proposal(p.video_id, p.start, p.end, p.class_id, 2.0 * p.score**3 + 1.0)
            for p in proposals
        ]
        assert average_precision(transformed, instances, 0.3) == pytest.approx(base)

    def test_empty_gt_rejected(self):
        with pytest.raises(InvalidInputError):
            average_precision([prop("v", 0, 5, 0.5)], [], 0.5)


class TestMapReport:
    def test_perfect_proposals_full_marks(self):
        instances = [gt("v0", 5, 20, 1), gt("v0", 40, 60, 2), gt("v1", 10, 30, 1)]
        proposals = [prop(g.video_id, g.start, g.end, 0.9, g.class_id) for g in instances]
        report = map_report(proposals, instances, THUMOS_RANGE)
        assert len(report.thresholds) == 7
        assert all(value == 1.0 for value in report.map_at.values())
        assert report.average_map == 1.0

    def test_empty_proposals_zero(self):
        report = map_report([], [gt("v0", 5, 20)], THUMOS_RANGE)
        assert all(value == 0.0 for value in report.map_at.values())
        assert report.average_map == 0.0

    def test_average_is_mean_of_thresholds(self):
        instances = [gt("v0", 0, 10, 1), gt("v0", 30, 50, 1)]
        proposals = [prop("v0", 0, 10, 0.9), prop("v0", 28, 44, 0.8)]
        report = map_report(proposals, instances, [0.3, 0.5, 0.7])
        assert report.average_map == pytest.approx(np.mean(list(report.map_at.values())))

    def test_single_class_single_threshold_reduces_to_ap(self):
        instances = [gt("v0", 0, 10), gt("v0", 30, 50)]
        proposals = [prop("v0", 2, 12, 0.7), prop("v0", 25, 60, 0.6)]
        report = map_report(proposals, instances, [0.4])
        assert report.map_at[0.4] == average_precision(proposals, instances, 0.4)

    def test_class_without_gt_excluded(self):
        instances = [gt("v0", 0, 10, 1)]
        proposals = [prop("v0", 0, 10, 0.9, 1), prop("v0", 20, 30, 0.8, 2)]
        report = map_report(proposals, instances, [0.5])
        assert set(class_id for class_id, _ in report.ap) == {1}
        assert report.map_at[0.5] == 1.0

    def test_requires_gt_and_thresholds(self):
        with pytest.raises(InvalidInputError):
            map_report([], [], [0.5])
        with pytest.raises(InvalidInputError):
            map_report([], [gt("v0", 0, 1)], [])

    def test_repeated_threshold_rejected(self):
        instances = [gt("v0", 0, 10)]
        proposals = [prop("v0", 0, 10, 0.9)]
        with pytest.raises(InvalidInputError, match="must not repeat"):
            map_report(proposals, instances, [0.5, 0.5, 0.7])
        with pytest.raises(InvalidInputError, match="must not repeat"):
            pseudo_label_quality([label("v0", 0, 10)], instances, [0.5, 0.7, 0.5])


def label(video_id, start, end, class_id=1, t=None):
    if t is None:
        t = (start + end) // 2
    return PseudoLabel(video_id, t, t, 1.0, 1.0, 2.0, start, end, class_id)


class TestPseudoLabelQuality:
    def test_identical_labels_are_perfect(self):
        instances = [gt("v0", 5, 20, 1), gt("v1", 10, 40, 2)]
        labels = [label(g.video_id, g.start, g.end, g.class_id) for g in instances]
        quality = pseudo_label_quality(labels, instances, THUMOS_RANGE)
        assert quality.alpha == 1.0
        assert quality.mean_tiou == 1.0
        assert quality.average_map == 1.0

    def test_alpha_counts_ratio(self):
        instances = [gt("v0", 5, 20)]
        labels = [label("v0", 5, 20), label("v0", 6, 21), label("v0", 7, 22)]
        quality = pseudo_label_quality(labels, instances, [0.5])
        assert quality.alpha == 3.0

    def test_wrong_class_scores_zero(self):
        instances = [gt("v0", 5, 20, 1)]
        labels = [label("v0", 5, 20, class_id=2)]
        quality = pseudo_label_quality(labels, instances, [0.5])
        assert quality.mean_tiou == 0.0

    def test_mean_tiou_is_the_exactly_rounded_mean(self):
        # best matches 0.1, 0.2 and 0.3, which added left to right give 0.6000000000000001
        instances = [gt("v0", 0, 9), gt("v0", 20, 29), gt("v0", 40, 49)]
        labels = [label("v0", 9, 9), label("v0", 28, 29), label("v0", 47, 49)]
        quality = pseudo_label_quality(labels, instances, [0.5])
        assert quality.mean_tiou == math.fsum([0.1, 0.2, 0.3]) / 3 == 0.19999999999999998

    def test_empty_gt_rejected(self):
        with pytest.raises(InvalidInputError):
            pseudo_label_quality([], [], [0.5])


class TestEvaluate:
    def test_labels_carry_their_quality(self):
        instances = [gt("v0", 5, 20, 1), gt("v1", 10, 40, 2)]
        labels = [label("v0", 5, 20, 1), label("v1", 12, 40, 2)]
        report = evaluate(PseudoLabel, labels, instances, THUMOS_RANGE)
        assert report == pseudo_label_quality(labels, instances, THUMOS_RANGE)
        assert report.alpha == 1.0 and report.mean_tiou == pytest.approx((1.0 + 29 / 31) / 2)

    def test_proposals_carry_no_label_quality(self):
        instances = [gt("v0", 5, 20, 1)]
        proposals = [prop("v0", 5, 20, 0.9)]
        report = evaluate(Proposal, proposals, instances, THUMOS_RANGE)
        assert report == map_report(proposals, instances, THUMOS_RANGE)
        assert report.alpha is None and report.mean_tiou is None

    @pytest.mark.parametrize("record_type", [PseudoLabel, Proposal], ids=["pseudo-label", "proposal"])
    def test_empty_gt_rejected(self, record_type):
        with pytest.raises(InvalidInputError, match="requires ground truth"):
            evaluate(record_type, [], [], [0.5])

    def test_unknown_kind_rejected(self):
        # neither a record class nor a kind string names what evaluate scores
        for record_type in (dict, "pseudo-label"):
            with pytest.raises(InvalidInputError, match="unknown eval input type"):
                evaluate(record_type, [], [gt("v0", 5, 20)], [0.5])


# --- properties over random multi-video, multi-class pools -----------------

VIDEOS = ("v0", "v1")
CLASSES = (1, 2)


@st.composite
def intervals(draw):
    start = draw(st.integers(0, 24))
    return start, start + draw(st.integers(0, 10))


@st.composite
def ground_truth(draw):
    """GT on a short timeline, so instances overlap, tie in tIoU against a proposal, or repeat."""
    return [
        GroundTruthInstance(draw(st.sampled_from(VIDEOS)), *draw(intervals()), draw(st.sampled_from(CLASSES)))
        for _ in range(draw(st.integers(1, 10)))
    ]


@st.composite
def pool(draw, instances):
    """Proposals with tied scores, some copying a GT interval, others anywhere (often overlapping nothing)."""
    proposals = []
    for _ in range(draw(st.integers(0, 30))):
        if draw(st.booleans()):
            start, end = draw(intervals())
            video_id, class_id = draw(st.sampled_from(VIDEOS)), draw(st.sampled_from(CLASSES))
        else:
            instance = draw(st.sampled_from(instances))
            start, end = instance.start + draw(st.integers(-3, 3)), instance.end + draw(st.integers(-3, 3))
            start, end = max(0, min(start, end)), max(0, start, end)
            video_id, class_id = instance.video_id, instance.class_id
        score = draw(st.sampled_from([0.25, 0.5, 1.0]) | st.floats(0.0, 1.0))
        proposals.append(Proposal(video_id, start, end, class_id, score))
    return proposals


# exact tIoU values such as 1/2, 1/3 and 1 test the >= comparison at equality; a
# report takes each threshold once
thresholds = st.lists(
    st.sampled_from([0.1, 1 / 3, 0.5, 0.7, 1.0]) | st.floats(0.0, 1.0, exclude_min=True),
    min_size=1,
    max_size=8,
    unique=True,
)


@st.composite
def cases(draw):
    instances = draw(ground_truth())
    return instances, draw(pool(instances)), draw(thresholds)


def by_class(items, class_id):
    return [item for item in items if item.class_id == class_id]


@settings(max_examples=100, deadline=None)
@given(cases())
def test_average_precision_matches_direct_oracle(case):
    instances, proposals, threshold_list = case
    for class_id in sorted({g.class_id for g in instances}):
        for threshold in threshold_list:
            fast = average_precision(by_class(proposals, class_id), by_class(instances, class_id), threshold)
            direct = average_precision_direct(
                by_class(proposals, class_id), by_class(instances, class_id), threshold
            )
            assert abs(fast - direct) <= 1e-12


@settings(max_examples=100, deadline=None)
@given(cases())
def test_map_report_equals_per_class_average_precision(case):
    instances, proposals, threshold_list = case
    report = map_report(proposals, instances, threshold_list)
    classes = sorted({g.class_id for g in instances})
    assert set(report.ap) == {(c, t) for c in classes for t in threshold_list}
    for class_id in classes:
        for threshold in threshold_list:
            expected = average_precision(by_class(proposals, class_id), by_class(instances, class_id), threshold)
            assert report.ap[(class_id, threshold)] == expected


@settings(max_examples=200, deadline=None)
@given(intervals(), intervals())
def test_tiou_bounded_and_symmetric(a, b):
    assert 0.0 <= tiou(a, b) <= 1.0
    assert tiou(a, b) == tiou(b, a)
    assert tiou(a, a) == 1.0


@settings(max_examples=100, deadline=None)
@given(cases())
def test_pseudo_label_best_match_equals_brute_force_scan(case):
    instances, proposals, threshold_list = case
    labels = [label(p.video_id, p.start, p.end, p.class_id) for p in proposals]
    best_matches = [
        max(
            (
                tiou((item.start, item.end), (instance.start, instance.end))
                for item in labels
                if (item.video_id, item.class_id) == (instance.video_id, instance.class_id)
            ),
            default=0.0,
        )
        for instance in instances
    ]
    quality = pseudo_label_quality(labels, instances, threshold_list)
    assert quality.mean_tiou == math.fsum(best_matches) / len(best_matches)


# --- pure-Python scores against the array formulation ------------------------
# The reference below is the array formulation this module had: one tIoU matrix
# per video, and the AP summed over the padded recall and envelope arrays.


def _reference_tiou_matrix(rows, columns):
    starts = np.array([r.start for r in rows], dtype=np.int64)[:, None]
    ends = np.array([r.end for r in rows], dtype=np.int64)[:, None]
    column_starts = np.array([c.start for c in columns], dtype=np.int64)
    column_ends = np.array([c.end for c in columns], dtype=np.int64)
    inter = np.minimum(ends, column_ends) - np.maximum(starts, column_starts) + 1
    np.maximum(inter, 0, out=inter)
    return inter / ((ends - starts + 1) + (column_ends - column_starts + 1) - inter)


def reference_class_average_precisions(proposals, gt, thresholds):
    if not proposals:
        return [0.0] * len(thresholds)
    gt_by_video = {}
    for instance in gt:
        gt_by_video.setdefault(instance.video_id, []).append(instance)
    ordered = sorted(proposals, key=lambda p: (-p.score, p.video_id, p.start, p.end))
    ranks_by_video = {}
    for rank, proposal in enumerate(ordered):
        if proposal.video_id in gt_by_video:
            ranks_by_video.setdefault(proposal.video_id, []).append(rank)
    tp = np.zeros((len(thresholds), len(ordered)))
    for video_id, ranks in ranks_by_video.items():
        overlap = _reference_tiou_matrix([ordered[rank] for rank in ranks], gt_by_video[video_id])
        preference = np.argsort(-overlap, axis=1, kind="stable")
        ranked = np.take_along_axis(overlap, preference, axis=1)
        columns, values = preference.tolist(), ranked.tolist()
        rows = np.flatnonzero(ranked[:, 0] > 0).tolist()
        for k, threshold in enumerate(thresholds):
            unmatched = [True] * overlap.shape[1]
            for row in rows:
                for column, value in zip(columns[row], values[row]):
                    if unmatched[column]:
                        if value >= threshold:
                            unmatched[column] = False
                            tp[k, ranks[row]] = 1.0
                        break
    cum_tp = np.cumsum(tp, axis=1)
    size = (len(thresholds), len(ordered) + 2)
    mrec = np.zeros(size)
    mrec[:, 1:-1] = cum_tp / len(gt)
    mrec[:, -1] = 1.0
    mpre = np.zeros(size)
    mpre[:, 1:-1] = cum_tp / np.arange(1, len(ordered) + 1)
    mpre = np.maximum.accumulate(mpre[:, ::-1], axis=1)[:, ::-1]
    steps = mrec[:, 1:] != mrec[:, :-1]
    areas = (mrec[:, 1:] - mrec[:, :-1]) * mpre[:, 1:]
    return [math.fsum(area[step].tolist()) for area, step in zip(areas, steps)]


def reference_map_report(proposals, instances, threshold_list):
    classes = sorted({g.class_id for g in instances})
    per_class = {
        c: reference_class_average_precisions(by_class(proposals, c), by_class(instances, c), threshold_list)
        for c in classes
    }
    ap = {(c, t): per_class[c][k] for c in classes for k, t in enumerate(threshold_list)}
    map_at = {t: math.fsum(per_class[c][k] for c in classes) / len(classes) for k, t in enumerate(threshold_list)}
    return EvalReport(list(threshold_list), ap, map_at, math.fsum(map_at.values()) / len(map_at))


def reference_mean_tiou(labels, instances):
    best_matches = np.zeros(len(instances))
    for index, instance in enumerate(instances):
        same = [item for item in labels if (item.video_id, item.class_id) == (instance.video_id, instance.class_id)]
        if same:
            best_matches[index] = _reference_tiou_matrix(same, [instance]).max()
    return math.fsum(best_matches.tolist()) / len(instances)


@settings(max_examples=200, deadline=None)
@given(cases())
def test_reports_equal_the_numpy_reference(case):
    instances, proposals, threshold_list = case
    assert map_report(proposals, instances, threshold_list) == reference_map_report(proposals, instances, threshold_list)
    labels = [label(p.video_id, p.start, p.end, p.class_id) for p in proposals]
    quality = pseudo_label_quality(labels, instances, threshold_list)
    unit_scored = [Proposal(item.video_id, item.start, item.end, item.class_id, 1.0) for item in labels]
    assert quality == replace(
        reference_map_report(unit_scored, instances, threshold_list),
        alpha=len(labels) / len(instances),
        mean_tiou=reference_mean_tiou(labels, instances),
    )


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_reports_equal_the_numpy_reference_past_128_hits(seed):
    # hundreds of true positives per class, so each AP sums hundreds of terms in a large report
    rng = np.random.default_rng(seed)
    instances = []
    for index in range(400):
        start = int(rng.integers(0, 2000))
        instances.append(gt(f"v{index % 5}", start, start + int(rng.integers(0, 40)), int(rng.integers(1, 3))))
    proposals = []
    for instance in instances * 2:
        shift = rng.integers(-4, 5, 2)
        start = max(0, instance.start + int(shift[0]))
        end = max(start, instance.end + int(shift[1]))
        score = float(rng.choice([0.25, 0.5, rng.uniform()]))
        proposals.append(prop(instance.video_id, start, end, score, instance.class_id))
    report = map_report(proposals, instances, THUMOS_RANGE)
    assert report == reference_map_report(proposals, instances, THUMOS_RANGE)
    assert min(report.ap.values()) > 0.2
    labels = [label(p.video_id, p.start, p.end, p.class_id) for p in proposals]
    assert pseudo_label_quality(labels, instances, THUMOS_RANGE).mean_tiou == reference_mean_tiou(labels, instances)


def test_threshold_decoding_overproduces_versus_adm():
    # Raw threshold decoding yields many proposals per instance, while the
    # distribution-fitting path emits exactly one per annotation.
    from actionness.decoder import decode_videos
    from actionness.synth import SyntheticConfig, generate_video

    config = SyntheticConfig(
        length=512,
        num_classes=5,
        instances_per_video=(1, 4),
        duration_range=(16, 64),
        shape_mix={"gaussian": 1.0},
        noise_std=0.1,
        seed=3,
    )
    videos = [generate_video(config, np.random.default_rng([3, index]), f"v{index}") for index in range(15)]
    proposals = decode_videos([video.signal for video in videos], class_score_threshold=0.3, top_k_fraction=1 / 16)
    alpha = len(proposals) / sum(len(video.gt) for video in videos)
    assert alpha > 3.0  # directional: far more proposals than instances
