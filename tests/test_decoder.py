import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from actionness import decoder
from actionness.decoder import (
    DecoderConfig,
    Proposal,
    decode_videos,
    nms,
    oic_scores,
    select_classes,
    threshold_runs,
)
from actionness.errors import InvalidInputError
from actionness.evaluation import tiou
from actionness.losses import video_level_scores
from actionness.oracles import nms_direct, oic_direct
from actionness.signal import ProbabilitySignal, pyramid_scales
from actionness.synth import SyntheticConfig, generate_video


def make_signal(columns, video_id="v0", level=1):
    columns = np.asarray(columns, dtype=np.float64)
    bg = 1.0 - columns.max(axis=1, keepdims=True)
    return ProbabilitySignal(video_id, level, np.hstack([columns, bg]))


def runs_above(column, threshold):
    """``threshold_runs`` of one threshold, as ``(start, end)`` pairs."""
    return list(zip(*(bounds.tolist() for bounds in threshold_runs(column, [threshold]))))


def oic_of(column, segment, inflation):
    """``oic_scores`` of one column and one segment."""
    return float(oic_scores([column], [0], [segment[0]], [segment[1]], inflation)[0])


def decode_pyramid(levels, config):
    """``decode_videos`` of one video's levels."""
    return decode_videos({levels[0].video_id: levels}, config)


def scalar_runs(column, threshold):
    """Maximal runs strictly above the threshold, walked snippet by snippet."""
    runs, start = [], None
    for t, value in enumerate(list(column) + [-np.inf]):
        if value > threshold and start is None:
            start = t
        elif not value > threshold and start is not None:
            runs.append((start, t - 1))
            start = None
    return runs


def scalar_oic(column, start, end, inflation):
    """One segment's outer-inner contrast from ``ndarray.mean`` and ``ndarray.sum`` of its slices."""
    inner = column[start : end + 1]
    width = int(round(inflation * (end - start + 1)))
    left = column[max(0, start - width) : start]
    right = column[end + 1 : min(column.size, end + 1 + width)]
    outer_size = left.size + right.size
    return float(inner.mean() - ((left.sum() + right.sum()) / outer_size if outer_size else 0.0))


class TestSelectClasses:
    def test_above_threshold(self):
        assert select_classes([0.9, 0.1], 0.5) == [1]

    def test_argmax_fallback(self):
        assert select_classes([0.2, 0.4, 0.1], 0.5) == [2]

    def test_zero_threshold_selects_all(self):
        assert select_classes([0.3, 0.6], 0.0) == [1, 2]


class TestThresholdMerge:
    def test_single_run(self):
        assert runs_above([0.1, 0.6, 0.7, 0.2], 0.5) == [(1, 2)]

    def test_all_below(self):
        assert runs_above([0.1, 0.2], 0.5) == []

    def test_all_above(self):
        assert runs_above([0.6, 0.7, 0.8], 0.5) == [(0, 2)]

    def test_multiple_runs(self):
        column = [0.9, 0.1, 0.8, 0.8, 0.0, 0.7]
        assert runs_above(column, 0.5) == [(0, 0), (2, 3), (5, 5)]


class TestOicScore:
    def test_definition(self):
        column = np.concatenate([np.full(4, 0.2), np.full(8, 0.8), np.full(4, 0.2)])
        score = oic_of(column, (4, 11), 0.5)
        assert score == pytest.approx(0.8 - 0.2)

    def test_whole_video_segment(self):
        column = np.full(10, 0.7)
        assert oic_of(column, (0, 9), 0.25) == pytest.approx(0.7)

    def test_matches_direct_oracle(self):
        rng = np.random.default_rng(41)
        for _ in range(50):
            column = rng.uniform(0, 1, 60)
            start = int(rng.integers(0, 50))
            end = start + int(rng.integers(0, 10))
            inflation = float(rng.uniform(0.1, 1.0))
            assert oic_of(column, (start, end), inflation) == pytest.approx(
                oic_direct(column.tolist(), start, end, inflation)
            )

    def test_invalid_segment_rejected(self):
        with pytest.raises(InvalidInputError):
            oic_of(np.zeros(5), (3, 7), 0.25)

    @pytest.mark.parametrize("inflation", [1e17, 1e300])
    def test_flanks_wider_than_int64_equal_the_direct_oracle(self, inflation):
        # inflation * length passes int64's range, where a width would wrap to a negative number
        rng = np.random.default_rng(43)
        columns = [rng.uniform(0, 1, length) for length in (1, 60, 400)]
        column_ids, starts, ends = [], [], []
        for column_id, column in enumerate(columns):
            for _ in range(20):
                start = int(rng.integers(0, column.size))
                column_ids.append(column_id)
                starts.append(start)
                ends.append(int(rng.integers(start, column.size)))
        scores = oic_scores(columns, column_ids, starts, ends, inflation).tolist()
        segments = list(zip(column_ids, starts, ends))
        assert scores == [scalar_oic(columns[c], a, b, inflation) for c, a, b in segments]
        expected = [oic_direct(columns[c].tolist(), a, b, inflation) for c, a, b in segments]
        assert scores == pytest.approx(expected, rel=1e-12, abs=1e-12)


@st.composite
def oic_cases(draw):
    """A column, a segment in it and an inflation; segments often sit at a video end or span 1-2 snippets."""
    length = draw(st.integers(1, 400))
    column = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).uniform(0, 1, length)
    size = min(draw(st.one_of(st.integers(1, 2), st.integers(1, length))), length)
    start = draw(st.one_of(st.just(0), st.just(length - size), st.integers(0, length - size)))
    inflation = draw(st.one_of(st.sampled_from([0.25, 0.5, 1.0, 2.5]), st.floats(0.01, 4.0)))
    return column, (start, start + size - 1), inflation


@settings(max_examples=300, deadline=None)
@given(case=oic_cases())
def test_oic_score_bit_equal_to_mean_and_sum_property(case):
    column, (start, end), inflation = case
    assert oic_of(column, (start, end), inflation) == scalar_oic(column, start, end, inflation)


@st.composite
def oic_batches(draw):
    """Class columns of several videos of different lengths, each a strided column of its
    video's grid as ``class_column`` gives it, and segments in them: 1-7, 8-128 and over 128
    snippets long (numpy's summation regimes) or of the lengths 2, 6 and 10, whose flanks at
    inflation 0.25 round half to even. Segments often touch a video end, so their flanks are clipped.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    lengths = draw(st.lists(st.integers(1, 700), min_size=2, max_size=5))
    columns = [rng.uniform(0, 1, (length, 3))[:, 1] for length in lengths]
    sizes = st.one_of(st.integers(1, 7), st.integers(8, 128), st.integers(129, 700), st.sampled_from([2, 6, 10]))
    segments = []
    for _ in range(draw(st.integers(1, 30))):
        column_id = draw(st.integers(0, len(columns) - 1))
        length = lengths[column_id]
        size = min(draw(sizes), length)
        start = draw(st.one_of(st.just(0), st.just(length - size), st.integers(0, length - size)))
        segments.append((column_id, start, start + size - 1))
    inflation = draw(st.one_of(st.sampled_from([0.25, 0.5, 1.0, 2.5]), st.floats(0.01, 4.0)))
    return columns, segments, inflation


@settings(max_examples=200, deadline=None)
@given(batch=oic_batches())
def test_oic_scores_bit_equal_to_mean_and_sum_property(batch):
    columns, segments, inflation = batch
    column_ids, starts, ends = zip(*segments)
    scores = oic_scores(columns, column_ids, starts, ends, inflation)
    assert scores.tolist() == [scalar_oic(columns[c], start, end, inflation) for c, start, end in segments]


@pytest.mark.parametrize("size, width", [(2, 0), (6, 2), (10, 2)])
def test_flank_widths_round_half_to_even(size, width):
    # at inflation 0.25 these lengths give flanks of 0.5, 1.5 and 2.5 snippets
    column = np.random.default_rng(size).uniform(0, 1, 40)
    start, end = 15, 15 + size - 1
    outer = np.concatenate([column[start - width : start], column[end + 1 : end + 1 + width]])
    expected = column[start : end + 1].mean() - (outer.sum() / outer.size if outer.size else 0.0)
    assert oic_scores([column], [0], [start], [end], 0.25).tolist() == [expected]


@pytest.mark.parametrize("budget", [1, 5, 64])
def test_tiny_gather_budgets_split_each_size_into_several_blocks(monkeypatch, budget):
    rng = np.random.default_rng(47)
    columns = [rng.uniform(0, 1, (length, 2))[:, 0] for length in (300, 77, 512)]
    segments = []
    for size in (1, 3, 20, 60):
        for c, column in enumerate(columns):
            segments += [(c, start, start + size - 1) for start in rng.integers(0, column.size - size + 1, 30).tolist()]
    column_ids, starts, ends = zip(*segments)
    expected = [scalar_oic(columns[c], start, end, 0.5) for c, start, end in segments]
    assert 3 * 30 > budget  # each size's 90 inner slices take more than one block
    monkeypatch.setattr(decoder, "OIC_GATHER_BUDGET", budget)
    assert oic_scores(columns, column_ids, starts, ends, 0.5).tolist() == expected


def test_oic_scores_reject_segments_outside_their_column_and_unknown_columns():
    columns = [np.zeros(5), np.zeros(9)]
    with pytest.raises(InvalidInputError, match=r"segment \[3, 7\] outside video of length 5"):
        oic_scores(columns, [1, 0], [3, 3], [7, 7], 0.25)
    for inflation in (0.0, float("nan")):
        with pytest.raises(InvalidInputError, match="inflation"):
            oic_scores(columns, [0], [0], [1], inflation)
    for column_id in (-1, 2):
        with pytest.raises(InvalidInputError, match="column ids"):
            oic_scores(columns, [column_id], [0], [1], 0.25)


@settings(max_examples=200, deadline=None)
@given(
    values=st.lists(st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0]), max_size=60),
    thresholds=st.lists(st.sampled_from([0.1, 0.25, 0.5, 0.6, 0.75, 0.9, 0.99]), max_size=5),
)
def test_threshold_runs_equal_the_runs_of_each_threshold_property(values, thresholds):
    starts, ends = threshold_runs(values, thresholds)
    assert list(zip(starts.tolist(), ends.tolist())) == [
        run for threshold in thresholds for run in scalar_runs(values, threshold)
    ]


class TestNms:
    def test_duplicate_keeps_higher_score(self):
        a = Proposal("v0", 0, 10, 1, 0.9)
        b = Proposal("v0", 0, 10, 1, 0.8)
        assert nms([b, a], 0.5) == [a]

    def test_disjoint_all_kept(self):
        proposals = [Proposal("v0", 0, 5, 1, 0.9), Proposal("v0", 20, 25, 1, 0.8)]
        assert nms(proposals, 0.5) == proposals

    def test_different_classes_not_suppressed(self):
        a = Proposal("v0", 0, 10, 1, 0.9)
        b = Proposal("v0", 0, 10, 2, 0.8)
        assert nms([a, b], 0.5) == [a, b]

    def random_proposals(self, rng, count):
        out = []
        for _ in range(count):
            start = int(rng.integers(0, 80))
            out.append(
                Proposal(
                    "v0",
                    start,
                    start + int(rng.integers(0, 20)),
                    int(rng.integers(1, 4)),
                    float(np.round(rng.uniform(0, 1), 6)),
                )
            )
        return out

    def test_matches_quadratic_oracle(self):
        rng = np.random.default_rng(42)
        for _ in range(30):
            proposals = self.random_proposals(rng, 50)
            threshold = float(rng.uniform(0.2, 0.7))
            assert nms(proposals, threshold) == nms_direct(proposals, threshold)

    @pytest.mark.parametrize("chunk", [1, 7, 64])
    def test_chunk_boundaries_lose_no_pair(self, monkeypatch, chunk):
        monkeypatch.setattr(decoder, "NMS_PAIR_CHUNK", chunk)
        rng = np.random.default_rng(46)
        for _ in range(20):
            proposals = self.random_proposals(rng, 60)
            assert nms(proposals, 0.3) == nms_direct(proposals, 0.3)

    def test_idempotent(self):
        rng = np.random.default_rng(43)
        for _ in range(50):
            proposals = self.random_proposals(rng, 30)
            survivors = nms(proposals, 0.45)
            assert nms(survivors, 0.45) == survivors

    def test_survivors_pairwise_below_threshold(self):
        rng = np.random.default_rng(44)
        survivors = nms(self.random_proposals(rng, 40), 0.45)
        for i, a in enumerate(survivors):
            for b in survivors[i + 1 :]:
                if a.class_id == b.class_id:
                    assert tiou(a.interval, b.interval) <= 0.45


proposal_strategy = st.builds(
    lambda start, length, class_id, score: Proposal("v0", start, start + length, class_id, score),
    start=st.integers(0, 40),
    length=st.integers(0, 15),
    class_id=st.integers(1, 3),
    # a few coarse scores make ties common; the floats cover the rest
    score=st.one_of(st.sampled_from([0.0, 0.25, 0.5, 1.0]), st.floats(-1.0, 1.0)),
)


@settings(max_examples=300, deadline=None)
@given(
    base=st.lists(proposal_strategy, max_size=40),
    repeats=st.integers(0, 10),
    threshold=st.one_of(
        st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
        st.sampled_from([0.25, 1 / 3, 0.5, 2 / 3, 0.75]),
    ),
)
def test_nms_equals_direct_oracle_property(base, repeats, threshold):
    pool = base + base[:repeats]  # exact duplicates, including score
    assert nms(pool, threshold) == nms_direct(pool, threshold)


@st.composite
def overlapping_pools(draw):
    """Up to 300 proposals of one or two classes, each placed relative to one of a few anchors:
    identical to it, nested in it, sharing only its last snippet, just after it, or shifted.

    Hypothesis draws the anchors, the size and a seed; the seed's generator
    places the proposals, which keeps hundreds of them cheap to draw.
    """
    anchors = draw(st.lists(st.tuples(st.integers(0, 300), st.integers(0, 40)), min_size=1, max_size=12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pool = []
    for _ in range(draw(st.integers(1, 300))):
        start, size = anchors[rng.integers(len(anchors))]
        end = start + size
        placement = rng.choice(["identical", "nested", "touching", "adjacent", "shifted"])
        if placement == "nested":
            start += int(rng.integers(0, size + 1))
            end -= int(rng.integers(0, end - start + 1))
        elif placement == "touching":
            start, end = end, end + int(rng.integers(0, 21))
        elif placement == "adjacent":
            start, end = end + 1, end + 1 + int(rng.integers(0, 21))
        elif placement == "shifted":
            shift = int(rng.integers(0, 21))
            start, end = start + shift, end + shift
        # tied scores are common, so the sort's tie-breaks decide suppression too
        score = float(rng.choice([0.0, 0.5, 1.0])) if rng.uniform() < 0.5 else float(rng.uniform(-1, 1))
        pool.append(Proposal("v0", start, end, int(rng.integers(1, 3)), score))
    return pool


@settings(max_examples=100, deadline=None)
@given(
    pool=overlapping_pools(),
    # 1/3, 1/2 and 2/3 are exact tIoUs of small pairs; suppression needs a strictly larger one
    threshold=st.one_of(st.sampled_from([1 / 3, 0.5, 2 / 3]), st.floats(0.0, 1.0, exclude_max=True)),
)
def test_nms_equals_direct_oracle_on_overlapping_pools_property(pool, threshold):
    assert nms(pool, threshold) == nms_direct(pool, threshold)


def test_nms_expands_nested_pairs_in_several_chunks():
    rng = np.random.default_rng(45)
    count = 600
    # every interval contains every shorter one, so every pair of them is a candidate
    pool = [Proposal("v0", count - r, count + r, 1, float(rng.uniform())) for r in range(count)]
    assert count * (count - 1) // 2 > 2 * decoder.NMS_PAIR_CHUNK
    assert nms(pool, 0.45) == nms_direct(pool, 0.45)


def test_nms_rejects_a_negative_threshold():
    for threshold in (-0.1, float("nan")):
        with pytest.raises(InvalidInputError, match="tiou_threshold"):
            nms([Proposal("v0", 0, 1, 1, 0.5)], threshold)


def pool_with_repeats(levels, config):
    """Every (class, level, threshold) run of a pyramid, finest level first, found and scored
    one by one with the scalar helpers: repeats included."""
    scales = pyramid_scales(levels)
    video_scores = np.mean(
        [video_level_scores(sig, max(1, min(sig.length, round(config.top_k_fraction * sig.length)))) for sig in levels],
        axis=0,
    )
    pool = []
    for class_id in select_classes(video_scores, config.class_score_threshold):
        for index, (sig, scale) in enumerate(zip(levels, scales)):
            # the level-1 snippets this level and every finer one cover
            extent = min(below.length * below_scale for below, below_scale in zip(levels[: index + 1], scales))
            for threshold in config.thresholds:
                for seg_start, seg_end in scalar_runs(sig.class_column(class_id), threshold):
                    start = seg_start * scale
                    end = min((seg_end + 1) * scale, extent) - 1
                    score = scalar_oic(levels[0].class_column(class_id), start, end, config.oic_inflation)
                    pool.append(Proposal(sig.video_id, start, end, class_id, score))
    return pool


class TestDecode:
    def plateau_signal(self, spans, length=256, classes=3, video_id="v0"):
        columns = np.full((length, classes), 0.05)
        for start, end, class_id, height in spans:
            columns[start : end + 1, class_id - 1] = height
        return make_signal(columns, video_id)

    def config(self):
        return DecoderConfig(top_k_fraction=1 / 16, class_score_threshold=0.3)

    def test_single_rectangle_single_survivor(self):
        signal = self.plateau_signal([(50, 110, 1, 0.85)])
        proposals = decode_pyramid([signal], self.config())
        assert len(proposals) == 1
        assert proposals[0].class_id == 1
        assert tiou(proposals[0].interval, (50, 110)) >= 0.9

    def test_two_rectangles_two_survivors(self):
        signal = self.plateau_signal([(30, 70, 1, 0.85), (150, 210, 2, 0.9)])
        proposals = decode_pyramid([signal], self.config())
        assert len(proposals) == 2
        by_class = {p.class_id: p for p in proposals}
        assert tiou(by_class[1].interval, (30, 70)) >= 0.9
        assert tiou(by_class[2].interval, (150, 210)) >= 0.9

    def test_output_within_video_and_finite(self):
        rng = np.random.default_rng(45)
        columns = rng.uniform(0, 1, (64, 2))
        signal = make_signal(columns)
        for proposal in decode_pyramid([signal], DecoderConfig()):
            assert 0 <= proposal.start <= proposal.end <= 63
            assert np.isfinite(proposal.score)

    def test_multi_level_mapping(self):
        fine = self.plateau_signal([(40, 79, 1, 0.8)], length=128, classes=1)
        coarse_columns = np.full((64, 1), 0.05)
        coarse_columns[20:40, 0] = 0.8
        coarse = make_signal(coarse_columns, level=2)
        proposals = decode_pyramid([fine, coarse], self.config())
        assert proposals, "expected at least one proposal"
        best = max(proposals, key=lambda p: p.score)
        assert tiou(best.interval, (40, 79)) >= 0.9

    def test_matches_uncached_reference(self):
        config = SyntheticConfig(length=512, num_classes=4, instances_per_video=(3, 6), noise_std=0.05, seed=5)
        fine = generate_video(config, np.random.default_rng(5), "v0").signal
        coarse = ProbabilitySignal("v0", 2, fine.values.reshape(-1, 2, fine.values.shape[1]).mean(axis=1))
        levels = [fine, coarse]
        decoder_config = self.config()
        pool = pool_with_repeats(levels, decoder_config)
        assert len({(p.start, p.end, p.class_id) for p in pool}) < len(pool), "no repeated segment to reuse"
        assert decode_pyramid(levels, decoder_config) == nms_direct(pool, decoder_config.nms_tiou)

    @pytest.mark.parametrize(
        "fine_length, coarse_length, run, expected",
        [(128, 64, (20, 39), (40, 79)), (127, 64, (60, 63), (120, 126)), (9, 4, (3, 3), (6, 7))],
        ids=["even", "ceil-pooled-last-run", "floor-pooled-last-run"],
    )
    def test_level_two_run_ends_at_its_last_pooled_snippet(self, fine_length, coarse_length, run, expected):
        fine = make_signal(np.full((fine_length, 1), 0.05))  # below every threshold: no level-1 run
        coarse_columns = np.full((coarse_length, 1), 0.05)
        coarse_columns[run[0] : run[1] + 1, 0] = 0.8
        coarse = make_signal(coarse_columns, level=2)
        assert [p.interval for p in decode_pyramid([fine, coarse], self.config())] == [expected]

    @pytest.mark.parametrize(
        "lengths, run, expected",
        [
            ((111, 55, 27, 13), (12, 12), (96, 103)),
            ((97, 49, 25, 13), (12, 12), (96, 96)),
            ((111, 55, 28), (27, 27), (108, 109)),
            ((5, 3, 2), (1, 1), (4, 4)),
        ],
        ids=["floor-pooled", "ceil-pooled", "ceil-pooled-over-floor-pooled", "short-ceil-pooled"],
    )
    def test_coarsest_run_ends_at_its_last_pooled_snippet(self, lengths, run, expected):
        levels = [make_signal(np.full((length, 1), 0.05), level=level) for level, length in enumerate(lengths, 1)]
        coarsest = levels[-1].values.copy()
        coarsest[run[0] : run[1] + 1, 0] = 0.8
        levels[-1] = ProbabilitySignal("v0", len(lengths), coarsest)
        assert [p.interval for p in decode_pyramid(levels, self.config())] == [expected]

    def test_levels_in_any_order(self):
        video = generate_video(SyntheticConfig(length=256, num_classes=2), np.random.default_rng(4), "v0")
        values = video.signal.values
        levels = [video.signal, ProbabilitySignal("v0", 2, 0.5 * (values[0::2] + values[1::2]))]
        assert decode_pyramid(levels[::-1], self.config()) == decode_pyramid(levels, self.config())

    def test_requires_signals(self):
        with pytest.raises(InvalidInputError, match="at least one signal"):
            decode_videos({"v0": []}, DecoderConfig())


@settings(max_examples=60, deadline=None)
@given(
    steps=st.lists(st.integers(2, 5), min_size=1, max_size=3),
    ceil_pooled=st.lists(st.booleans(), min_size=3, max_size=3),
    length=st.integers(1, 300),
    seed=st.integers(0, 2**32 - 1),
)
def test_coarse_runs_cover_the_snippets_pooled_into_them(steps, ceil_pooled, length, seed):
    fine = np.random.default_rng(seed).uniform(0.0, 1.0, (length, 2))
    levels = [ProbabilitySignal("v0", 1, fine)]
    groups = [[[t] for t in range(length)]]  # each level's snippets, as the level-1 snippets pooled into them
    for level, (step, ceil) in enumerate(zip(steps, ceil_pooled), start=2):
        below = groups[-1]
        count = -(-len(below) // step) if ceil else len(below) // step
        assume(count >= 1)
        # a length fits several steps only on a short level; the smallest is read
        fitting = [r for r in range(2, len(below) + 2) if count in (len(below) // r, -(-len(below) // r))]
        assume(fitting[0] == step)
        pooled = [sum(below[j * step : (j + 1) * step], []) for j in range(count)]
        levels.append(ProbabilitySignal("v0", level, np.array([fine[snippets].mean(axis=0) for snippets in pooled])))
        groups.append(pooled)
    assert pyramid_scales(levels) == list(np.cumprod([1, *steps]))

    config = DecoderConfig()
    pools = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(decoder, "nms", lambda pool, threshold: pools.append(pool) or pool)
        decode_pyramid(levels, config)
    expected = [
        (pooled[start][0], pooled[end][-1])
        for signal, pooled in zip(levels, groups)
        for threshold in config.thresholds
        for start, end in runs_above(signal.class_column(1), threshold)
    ]
    # each distinct segment enters the pool once, where it is first found
    assert [p.interval for p in pools[0]] == list(dict.fromkeys(expected))


@settings(max_examples=150, deadline=None)
@given(
    length=st.integers(1, 120),
    classes=st.integers(1, 3),
    ceil_pooled=st.lists(st.booleans(), max_size=2),
    seed=st.integers(0, 2**32 - 1),
    thresholds=st.lists(st.floats(0.01, 0.99), min_size=1, max_size=9, unique=True).map(sorted),
    inflation=st.floats(0.05, 2.0),
    nms_tiou=st.one_of(st.sampled_from([1 / 3, 0.5, 2 / 3]), st.floats(0.01, 0.99)),
    class_score_threshold=st.sampled_from([0.0, 0.5]),
)
def test_decode_equals_the_oracle_over_the_pool_with_repeats_property(
    length, classes, ceil_pooled, seed, thresholds, inflation, nms_tiou, class_score_threshold
):
    # quarter-step probabilities, pooled by 2: plateaus make one run recur across
    # thresholds and levels, and many distinct segments tie in score
    rng = np.random.default_rng(seed)
    levels = [ProbabilitySignal("v0", 1, rng.integers(0, 5, (length, classes + 1)) / 4)]
    for level, ceil in enumerate(ceil_pooled, start=2):
        below = levels[-1].values
        count = -(-len(below) // 2) if ceil else len(below) // 2
        assume(count >= 1)
        pooled = [below[2 * j : 2 * j + 2].mean(axis=0) for j in range(count)]
        levels.append(ProbabilitySignal("v0", level, np.array(pooled)))
    config = DecoderConfig(
        thresholds=thresholds, oic_inflation=inflation, nms_tiou=nms_tiou, class_score_threshold=class_score_threshold
    )
    assert decode_pyramid(levels, config) == nms_direct(pool_with_repeats(levels, config), nms_tiou)


class TestDecoderConfig:
    def test_threshold_validation(self):
        with pytest.raises(InvalidInputError):
            DecoderConfig(thresholds=())
        with pytest.raises(InvalidInputError):
            DecoderConfig(thresholds=(0.5, 0.4))
        with pytest.raises(InvalidInputError):
            DecoderConfig(thresholds=(0.0, 0.5))


def quarter_step_pyramid(video_id, length, classes, ceil_pooled, rng):
    """Quarter-step probabilities pooled by 2: plateaus make one run recur across thresholds
    and levels, and many distinct segments tie in score."""
    levels = [ProbabilitySignal(video_id, 1, rng.integers(0, 5, (length, classes + 1)) / 4)]
    for level, ceil in enumerate(ceil_pooled, start=2):
        below = levels[-1].values
        count = -(-len(below) // 2) if ceil else len(below) // 2
        if count < 1:
            break
        pooled = [below[2 * j : 2 * j + 2].mean(axis=0) for j in range(count)]
        levels.append(ProbabilitySignal(video_id, level, np.array(pooled)))
    return levels


@settings(max_examples=100, deadline=None)
@given(
    lengths=st.lists(st.integers(1, 150), min_size=1, max_size=4),
    classes=st.integers(1, 3),
    ceil_pooled=st.lists(st.booleans(), max_size=2),
    seed=st.integers(0, 2**32 - 1),
    inflation=st.floats(0.05, 2.0),
    class_score_threshold=st.sampled_from([0.0, 0.5]),
)
def test_decode_videos_equals_the_oracle_video_by_video_property(
    lengths, classes, ceil_pooled, seed, inflation, class_score_threshold
):
    # every video is scored in one pass, so a flank or a run that crossed into the next video's column would show
    rng = np.random.default_rng(seed)
    grouped = {
        f"v{index}": quarter_step_pyramid(f"v{index}", length, classes, ceil_pooled, rng)
        for index, length in enumerate(lengths)
    }
    config = DecoderConfig(oic_inflation=inflation, class_score_threshold=class_score_threshold)
    expected = [
        proposal
        for video_id in sorted(grouped)
        for proposal in nms_direct(pool_with_repeats(grouped[video_id], config), config.nms_tiou)
    ]
    assert decode_videos(grouped, config) == expected


def test_decode_videos_hands_each_video_pool_to_the_module_nms(monkeypatch):
    # the benchmark's tracer wraps decoder.nms and reads each call's (pool, threshold) arguments
    calls = []

    def recording_nms(*args, **kwargs):
        calls.append((args, kwargs))
        return nms(*args, **kwargs)

    monkeypatch.setattr(decoder, "nms", recording_nms)
    rng = np.random.default_rng(48)
    grouped = {video_id: quarter_step_pyramid(video_id, 64, 2, [True], rng) for video_id in ("b", "a", "c")}
    config = DecoderConfig()
    proposals = decode_videos(grouped, config)
    assert [kwargs for _, kwargs in calls] == [{}, {}, {}]
    assert [threshold for (_, threshold), _ in calls] == [config.nms_tiou] * 3
    pools = [pool for (pool, _), _ in calls]
    assert [{p.video_id for p in pool} for pool in pools] == [{"a"}, {"b"}, {"c"}]
    assert all(type(p) is Proposal for pool in pools for p in pool)
    assert proposals == [p for pool in pools for p in nms(pool, config.nms_tiou)]


def test_decode_videos_rejects_an_empty_or_mixed_video():
    signal = make_signal(np.full((8, 1), 0.8))
    with pytest.raises(InvalidInputError, match="at least one signal"):
        decode_videos({"v0": [signal], "v1": []}, DecoderConfig())
    other = make_signal(np.full((4, 1), 0.8), video_id="v1", level=2)
    with pytest.raises(InvalidInputError, match="same video"):
        decode_videos({"v0": [signal, other]}, DecoderConfig())

