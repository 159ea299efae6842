import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from actionness import decoder
from actionness.decoder import (
    DecoderConfig,
    Proposal,
    decode,
    nms,
    oic_score,
    select_classes,
    threshold_merge,
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


class TestSelectClasses:
    def test_above_threshold(self):
        assert select_classes([0.9, 0.1], 0.5) == [1]

    def test_argmax_fallback(self):
        assert select_classes([0.2, 0.4, 0.1], 0.5) == [2]

    def test_zero_threshold_selects_all(self):
        assert select_classes([0.3, 0.6], 0.0) == [1, 2]


class TestThresholdMerge:
    def test_single_run(self):
        assert threshold_merge([0.1, 0.6, 0.7, 0.2], 0.5) == [(1, 2)]

    def test_all_below(self):
        assert threshold_merge([0.1, 0.2], 0.5) == []

    def test_all_above(self):
        assert threshold_merge([0.6, 0.7, 0.8], 0.5) == [(0, 2)]

    def test_multiple_runs(self):
        column = [0.9, 0.1, 0.8, 0.8, 0.0, 0.7]
        assert threshold_merge(column, 0.5) == [(0, 0), (2, 3), (5, 5)]


class TestOicScore:
    def test_definition(self):
        column = np.concatenate([np.full(4, 0.2), np.full(8, 0.8), np.full(4, 0.2)])
        score = oic_score(column, (4, 11), 0.5)
        assert score == pytest.approx(0.8 - 0.2)

    def test_whole_video_segment(self):
        column = np.full(10, 0.7)
        assert oic_score(column, (0, 9), 0.25) == pytest.approx(0.7)

    def test_matches_direct_oracle(self):
        rng = np.random.default_rng(41)
        for _ in range(50):
            column = rng.uniform(0, 1, 60)
            start = int(rng.integers(0, 50))
            end = start + int(rng.integers(0, 10))
            inflation = float(rng.uniform(0.1, 1.0))
            assert oic_score(column, (start, end), inflation) == pytest.approx(
                oic_direct(column.tolist(), start, end, inflation)
            )

    def test_invalid_segment_rejected(self):
        with pytest.raises(InvalidInputError):
            oic_score(np.zeros(5), (3, 7), 0.25)


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
        proposals = decode([signal], self.config())
        assert len(proposals) == 1
        assert proposals[0].class_id == 1
        assert tiou(proposals[0].interval, (50, 110)) >= 0.9

    def test_two_rectangles_two_survivors(self):
        signal = self.plateau_signal([(30, 70, 1, 0.85), (150, 210, 2, 0.9)])
        proposals = decode([signal], self.config())
        assert len(proposals) == 2
        by_class = {p.class_id: p for p in proposals}
        assert tiou(by_class[1].interval, (30, 70)) >= 0.9
        assert tiou(by_class[2].interval, (150, 210)) >= 0.9

    def test_output_within_video_and_finite(self):
        rng = np.random.default_rng(45)
        columns = rng.uniform(0, 1, (64, 2))
        signal = make_signal(columns)
        for proposal in decode([signal], DecoderConfig()):
            assert 0 <= proposal.start <= proposal.end <= 63
            assert np.isfinite(proposal.score)

    def test_multi_level_mapping(self):
        fine = self.plateau_signal([(40, 79, 1, 0.8)], length=128, classes=1)
        coarse_columns = np.full((64, 1), 0.05)
        coarse_columns[20:40, 0] = 0.8
        coarse = make_signal(coarse_columns, level=2)
        proposals = decode([fine, coarse], self.config())
        assert proposals, "expected at least one proposal"
        best = max(proposals, key=lambda p: p.score)
        assert tiou(best.interval, (40, 79)) >= 0.9

    def test_matches_uncached_reference(self):
        config = SyntheticConfig(length=512, num_classes=4, instances_per_video=(3, 6), noise_std=0.05, seed=5)
        fine = generate_video(config, np.random.default_rng(5), "v0").signal
        coarse = ProbabilitySignal("v0", 2, fine.values.reshape(-1, 2, fine.values.shape[1]).mean(axis=1))
        levels = [fine, coarse]
        decoder_config = self.config()

        video_scores = np.mean(
            [video_level_scores(sig, max(1, round(decoder_config.top_k_fraction * sig.length))) for sig in levels],
            axis=0,
        )
        pool = []
        for class_id in select_classes(video_scores, decoder_config.class_score_threshold):
            for sig in levels:
                scale = 2 ** (sig.level - 1)
                for threshold in decoder_config.thresholds:
                    for seg_start, seg_end in threshold_merge(sig.class_column(class_id), threshold):
                        start = seg_start * scale
                        end = min((seg_end + 1) * scale, fine.length) - 1
                        score = oic_score(fine.class_column(class_id), (start, end), decoder_config.oic_inflation)
                        pool.append(Proposal("v0", start, end, class_id, score))
        assert len({(p.start, p.end, p.class_id) for p in pool}) < len(pool), "no repeated segment to reuse"
        assert decode(levels, decoder_config) == nms_direct(pool, decoder_config.nms_tiou)

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
        assert [p.interval for p in decode([fine, coarse], self.config())] == [expected]

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
        assert [p.interval for p in decode(levels, self.config())] == [expected]

    def test_levels_in_any_order(self):
        video = generate_video(SyntheticConfig(length=256, num_classes=2), np.random.default_rng(4), "v0")
        values = video.signal.values
        levels = [video.signal, ProbabilitySignal("v0", 2, 0.5 * (values[0::2] + values[1::2]))]
        assert decode(levels[::-1], self.config()) == decode(levels, self.config())

    def test_requires_signals(self):
        with pytest.raises(InvalidInputError):
            decode([], DecoderConfig())


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
        decode(levels, config)
    expected = [
        (pooled[start][0], pooled[end][-1])
        for signal, pooled in zip(levels, groups)
        for threshold in config.thresholds
        for start, end in threshold_merge(signal.class_column(1), threshold)
    ]
    assert [p.interval for p in pools[0]] == expected


class TestDecoderConfig:
    def test_threshold_validation(self):
        with pytest.raises(InvalidInputError):
            DecoderConfig(thresholds=())
        with pytest.raises(InvalidInputError):
            DecoderConfig(thresholds=(0.5, 0.4))
        with pytest.raises(InvalidInputError):
            DecoderConfig(thresholds=(0.0, 0.5))
