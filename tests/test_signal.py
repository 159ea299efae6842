import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import actionness.signal as signal_module
from actionness.errors import InvalidInputError
from actionness.oracles import interpolate_column_direct, smooth_column_direct
from actionness.signal import (
    BackgroundPoints,
    PointAnnotation,
    ProbabilitySignal,
    select_background_points,
    size_blocks,
    slice_sums,
    smooth_column,
    upsample_column,
    video_pyramids,
)
from actionness.synth import SyntheticConfig, generate_video


def make_signal(values, video_id="v0", level=1):
    return ProbabilitySignal(video_id, level, np.asarray(values, dtype=np.float64))


def smooth_at(column, sigma):
    """``smooth_column`` with ``SMOOTHING_SIGMA`` patched to ``sigma``."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(signal_module, "SMOOTHING_SIGMA", sigma)
        return smooth_column(column)


class TestProbabilitySignal:
    def test_dimensions_and_accessors(self):
        sig = make_signal([[0.1, 0.2, 0.3], [0.4, 0.5, 0.6]])
        assert sig.length == 2
        assert sig.num_classes == 2
        assert np.allclose(sig.background, [0.3, 0.6])
        assert np.allclose(sig.class_column(1), [0.1, 0.4])

    def test_rejects_out_of_range_values(self):
        with pytest.raises(InvalidInputError):
            make_signal([[0.1, 1.2]])
        with pytest.raises(InvalidInputError):
            make_signal([[0.1, -0.01]])

    def test_rejects_bad_shape(self):
        with pytest.raises(InvalidInputError):
            make_signal([0.1, 0.2])
        with pytest.raises(InvalidInputError):
            ProbabilitySignal("v0", 0, np.zeros((4, 3)))

    def test_class_column_bounds(self):
        sig = make_signal([[0.1, 0.2, 0.3]])
        with pytest.raises(InvalidInputError):
            sig.class_column(3)


class TestSmoothSignal:
    def test_constant_column_unchanged(self):
        out = smooth_column(np.full(50, 0.4))
        assert np.allclose(out, 0.4)

    def test_impulse_matches_direct_convolution(self):
        rng = np.random.default_rng(1)
        for sigma in (0.8, 1.5, 3.0):
            column = np.zeros(64)
            column[rng.integers(0, 64)] = 1.0
            out = smooth_at(column, sigma)
            assert np.allclose(out, smooth_column_direct(column, sigma), atol=1e-12)

    def test_random_matches_direct_convolution(self):
        rng = np.random.default_rng(2)
        column = rng.uniform(0, 1, 40)
        out = smooth_at(column, 2.5)
        assert np.allclose(out, smooth_column_direct(column, 2.5), atol=1e-12)

    def test_tiny_sigma_is_identity(self):
        rng = np.random.default_rng(3)
        column = rng.uniform(0, 1, 30)
        out = smooth_at(column, 0.05)
        assert np.allclose(out, column, atol=1e-9)

    def test_stays_in_unit_interval(self):
        rng = np.random.default_rng(4)
        out = smooth_at(rng.uniform(0, 1, 100), 4.0)
        assert out.min() >= 0.0 and out.max() <= 1.0
        # a column of ones sums to 1.0000000000000002 at this sigma before the clip
        assert smooth_at(np.ones(40), 1.0).max() == 1.0

    def test_background_column_untouched(self):
        # smoothing a class column of a signal writes into no column of it, the background's included
        rng = np.random.default_rng(5)
        values = rng.uniform(0, 1, (30, 3))
        sig = make_signal(values.copy())
        smooth_column(sig.class_column(1))
        assert np.array_equal(sig.values, values)

    @pytest.mark.parametrize("length, sigma", [(10, 2.375), (8, 2.0), (2, 2.0), (1, 2.0)])
    def test_kernel_wider_than_the_signal_reflects(self, length, sigma):
        rng = np.random.default_rng(7)
        column = rng.uniform(0, 1, length)
        assert np.allclose(smooth_at(column, sigma), smooth_column_direct(column, sigma), atol=1e-12)

    def test_one_snippet_signal_smooths_to_its_value(self):
        assert np.allclose(smooth_column(np.array([0.7])), [0.7], atol=1e-15)


class TestUpsampleSignal:
    def test_identity_when_lengths_match(self):
        column = np.random.default_rng(6).uniform(0, 1, 10)
        assert upsample_column(column, 10) is column
        # interpolating at the column's own positions would give its values too
        assert np.array_equal(np.interp(np.linspace(0.0, 9.0, 10), np.arange(10.0), column), column)

    def test_linear_midpoint(self):
        assert np.allclose(upsample_column(np.array([0.0, 1.0]), 3), [0.0, 0.5, 1.0])

    def test_matches_direct_interpolation(self):
        rng = np.random.default_rng(7)
        column = rng.uniform(0, 1, 17)
        out = upsample_column(column, 50)
        assert np.allclose(out, interpolate_column_direct(column, 50), atol=1e-12)
        assert out[0] == column[0]
        assert out[-1] == column[-1]
        assert out.min() >= column.min() - 1e-15
        assert out.max() <= column.max() + 1e-15

    def test_rejects_downsampling(self):
        with pytest.raises(InvalidInputError, match="target_length 2 smaller than column length 3"):
            upsample_column(np.array([0.0, 1.0, 0.5]), 2)

    @pytest.mark.parametrize("target_length", [1, 2, 7])
    def test_one_snippet_upsamples_to_a_constant_column(self, target_length):
        out = upsample_column(np.array([0.3]), target_length)
        assert np.array_equal(out, np.full(target_length, 0.3))
        assert np.array_equal(interpolate_column_direct([0.3], target_length), out)


@st.composite
def columns_and_sigmas(draw):
    """A column of 1-40 snippets and a kernel sigma whose radius may pass the column's length."""
    length = draw(st.integers(1, 40))
    column = draw(hnp.arrays(np.float64, length, elements=st.floats(0.0, 1.0)))
    return column, draw(st.floats(0.05, 15.0))


@given(columns_and_sigmas())
@example((np.array([0.2, 0.9, 0.4]), 10.0))  # a radius of 40 on 3 snippets
def test_smooth_column_equals_the_direct_oracle_property(case):
    column, sigma = case
    assert np.allclose(smooth_at(column, sigma), smooth_column_direct(column, sigma), atol=1e-12)


@given(columns_and_sigmas().map(lambda case: case[0]))
def test_smooth_column_at_the_fixed_sigma_equals_the_direct_oracle_property(column):
    # the 17-tap kernel of sigma 2 is often wider than the column, so the reflections repeat
    expected = smooth_column_direct(column, signal_module.SMOOTHING_SIGMA)
    assert np.allclose(smooth_column(column), expected, atol=1e-12)


@given(columns_and_sigmas().map(lambda case: case[0]), st.integers(0, 100))
@example(np.array([0.6]), 0)  # one snippet onto itself
@example(np.array([0.1, 0.8, 0.3]), 0)  # a target equal to the length
def test_upsample_column_equals_the_direct_oracle_property(column, extra):
    target_length = column.size + extra
    out = upsample_column(column, target_length)
    assert out.shape == (target_length,)
    assert np.allclose(out, interpolate_column_direct(column, target_length), atol=1e-12)


def pyramid(*lengths, first_level=1):
    return [make_signal(np.full((length, 2), 0.5), level=level) for level, length in enumerate(lengths, first_level)]


def scales_of(levels):
    """``video_pyramids`` of one video's levels: their ratios to level 1."""
    (read,) = video_pyramids(levels).values()
    return read.scales


@st.composite
def slice_batches(draw):
    """A buffer and slices of it of 0, 1-7, 8-128 and over 128 snippets (numpy's summation regimes),
    some overlapping, some repeated, some ending at the buffer's end."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    buffer = rng.uniform(-1.0, 1.0, draw(st.integers(0, 600)))
    lows, sizes = [], []
    for _ in range(draw(st.integers(0, 40))):
        size = min(buffer.size, draw(st.just(0) | st.integers(1, 7) | st.integers(8, 128) | st.integers(129, 600)))
        low = draw(st.integers(0, buffer.size - size) | st.just(buffer.size - size))
        repeats = draw(st.integers(1, 3))
        lows += [low] * repeats
        sizes += [size] * repeats
    return buffer, np.array(lows, dtype=np.int64), np.array(sizes, dtype=np.int64)


@settings(max_examples=200, deadline=None)
@given(slice_batches(), st.sampled_from([1, 7, signal_module.SCRATCH_ELEMENTS]))
def test_slice_sums_equal_one_reduction_per_slice_property(batch, budget):
    buffer, lows, sizes = batch
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(signal_module, "SCRATCH_ELEMENTS", budget)
        sums = slice_sums(buffer, lows, sizes)
    expected = [np.add.reduce(buffer[low : low + size]) for low, size in zip(lows.tolist(), sizes.tolist())]
    assert sums.tobytes() == np.array(expected, dtype=np.float64).tobytes()


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.integers(0, 3) | st.integers(0, 300), max_size=60),
    st.sampled_from([0, 1, 7, 64, 300, 2000]) | st.integers(0, 5000),
)
def test_size_blocks_cut_the_stable_size_order_into_full_blocks_property(sizes, budget):
    blocks = [block.tolist() for block in size_blocks(np.array(sizes, dtype=np.int64), budget)]
    # every position once, in stable size order
    assert [i for block in blocks for i in block] == sorted(range(len(sizes)), key=sizes.__getitem__)
    padded = [len(block) * max(sizes[i] for i in block) for block in blocks]
    assert all(len(block) == 1 or size <= budget for block, size in zip(blocks, padded))
    # a block ends where the next position would overrun the budget
    for block, after in zip(blocks, blocks[1:]):
        assert (len(block) + 1) * sizes[after[0]] > budget


class TestPyramidScales:
    @pytest.mark.parametrize(
        "lengths, scales",
        [
            ((64,), [1]),
            ((64, 32, 16), [1, 2, 4]),
            ((111, 55, 27, 13), [1, 2, 4, 8]),  # floor-pooled by 2; 13 is also ceil(111 / 9)
            ((97, 49, 25, 13), [1, 2, 4, 8]),  # ceil-pooled by 2; 13 is also 97 // 7
            ((5, 3, 2), [1, 2, 4]),
            ((65, 32, 10), [1, 2, 6]),
            ((66, 22, 11), [1, 3, 6]),
            ((4, 2), [1, 2]),  # steps 2 and 3 both fit: the smaller is read
            ((1, 1), [1, 2]),
        ],
    )
    def test_ratios_read_from_lengths(self, lengths, scales):
        assert scales_of(pyramid(*lengths)) == scales

    @pytest.mark.parametrize(
        "lengths, first_level",
        [((64, 128), 1), ((64, 40), 1), ((64, 32, 30), 1), ((64, 32, 64), 1), ((65, 33, 13), 1), ((32, 16), 2)],
        ids=["longer", "off-ratio", "ratio-repeated", "ratio-falls", "not-pooled-from-the-level-below", "no-level-1"],
    )
    def test_inconsistent_pyramid_names_the_video(self, lengths, first_level):
        with pytest.raises(InvalidInputError, match="video 'v0'"):
            video_pyramids(pyramid(*lengths, first_level=first_level))

    @pytest.mark.parametrize("numbers", [(1, 1)], ids=["level-repeated"])
    def test_levels_out_of_order_name_the_video(self, numbers):
        levels = [make_signal(np.full((8 // number, 2), 0.5), level=number) for number in numbers]
        with pytest.raises(InvalidInputError, match="video 'v0' has level 1 more than once"):
            video_pyramids(levels)

    def test_levels_with_different_class_counts_name_the_video(self):
        levels = [make_signal(np.full((16, 3), 0.5)), make_signal(np.full((8, 4), 0.5), level=2)]
        with pytest.raises(InvalidInputError, match="video 'v0': level 2 holds 3 classes where level 1 holds 2"):
            video_pyramids(levels)

    def test_groups_and_orders_interleaved_levels(self):
        signals = [
            make_signal(np.full((length, 2), 0.5), video_id=video_id, level=level)
            for video_id, level, length in [("b", 3, 16), ("a", 2, 32), ("b", 1, 64), ("a", 1, 64), ("b", 2, 32)]
        ]
        pyramids = video_pyramids(signals)
        assert list(pyramids) == ["a", "b"]
        assert [[s.level for s in levels] for levels, _, _ in pyramids.values()] == [[1, 2], [1, 2, 3]]
        assert pyramids["b"].scales == [1, 2, 4]

    @pytest.mark.parametrize(
        "lengths, extents",
        [((64, 32, 16), [64, 64, 64]), ((111, 55, 27, 13), [111, 110, 108, 104]), ((97, 49, 25, 13), [97, 97, 97, 97]),
         ((65, 32, 10), [65, 64, 60])],
    )
    def test_extents_are_the_level_1_snippets_each_level_covers(self, lengths, extents):
        (read,) = video_pyramids(pyramid(*lengths)).values()
        assert read.extents == extents


def outside_every_window(signal, points, threshold, radius):
    """The snippets above ``threshold`` farther than ``radius`` from every point, scanned one by one."""
    return [
        t for t in range(signal.length)
        if signal.background[t] > threshold and all(abs(t - point.t) > radius for point in points)
    ]


class TestSelectBackgroundPoints:
    def test_all_background_no_annotations(self):
        sig = make_signal(np.column_stack([np.zeros(5), np.ones(5)]))
        out = select_background_points(sig, [], 0.5)
        assert out.indices.tolist() == [0, 1, 2, 3, 4]

    def test_augmented_interval_excluded(self):
        sig = make_signal(np.column_stack([np.zeros(8), np.full(8, 0.99)]))
        out = select_background_points(sig, [PointAnnotation("v0", 3, 1)], 0.5)
        assert out.indices.tolist() == [0, 6, 7]

    def test_threshold_is_strict(self):
        sig = make_signal(np.array([[0.0, 0.6], [0.0, 0.8]]))
        out = select_background_points(sig, [], 0.7)
        assert out.indices.tolist() == [1]

    def test_zero_radius_keeps_out_only_the_point(self, monkeypatch):
        monkeypatch.setattr(signal_module, "AUGMENT_RADIUS", 0)
        sig = make_signal(np.column_stack([np.zeros(10), np.ones(10)]))
        out = select_background_points(sig, [PointAnnotation("v0", 5, 1)], 0.5)
        assert out.indices.tolist() == [0, 1, 2, 3, 4, 6, 7, 8, 9]

    def test_each_point_keeps_out_its_radius_window(self):
        assert signal_module.AUGMENT_RADIUS == 2
        sig = make_signal(np.column_stack([np.zeros(100), np.ones(100)]))
        out = select_background_points(sig, [PointAnnotation("v0", 10, 2)], 0.5)
        assert out.indices.tolist() == [*range(8), *range(13, 100)]

    def test_windows_clip_to_the_video(self, monkeypatch):
        monkeypatch.setattr(signal_module, "AUGMENT_RADIUS", 4)
        sig = make_signal(np.column_stack([np.zeros(100), np.ones(100)]))
        points = [PointAnnotation("v0", t, 1) for t in (0, 3, 99)]
        out = select_background_points(sig, points, 0.5)
        assert out.indices.tolist() == list(range(8, 95))

    def test_rejects_point_beyond_level(self):
        sig = make_signal(np.column_stack([np.zeros(100), np.ones(100)]))
        with pytest.raises(InvalidInputError, match="annotation t=120 beyond level-1 length 100"):
            select_background_points(sig, [PointAnnotation("v0", 120, 1)], 0.5)

    def test_disjoint_from_every_interval(self, monkeypatch):
        monkeypatch.setattr(signal_module, "AUGMENT_RADIUS", 3)
        rng = np.random.default_rng(8)
        for _ in range(25):
            values = np.column_stack([rng.uniform(0, 1, 60), rng.uniform(0, 1, 60)])
            sig = make_signal(values)
            points = [PointAnnotation("v0", int(t), 1) for t in rng.integers(0, 60, 4)]
            covered = set()
            for point in points:
                covered.update(range(point.t - 3, point.t + 4))
            selected = select_background_points(sig, points, 0.5)
            assert covered.isdisjoint(selected.indices.tolist())

    def test_matches_brute_force_scan(self):
        config = SyntheticConfig(length=256, num_classes=4, instances_per_video=(1, 3), duration_range=(10, 40),
                                 noise_std=0.1, seed=7)
        video = generate_video(config, np.random.default_rng(17), "v0")
        threshold = 0.6
        points = [PointAnnotation("v0", (g.start + g.end) // 2, g.class_id) for g in video.gt]
        expected = outside_every_window(video.signal, points, threshold, signal_module.AUGMENT_RADIUS)
        assert select_background_points(video.signal, points, threshold).indices.tolist() == expected


@given(
    columns_and_sigmas().map(lambda case: case[0]),
    st.lists(st.integers(0, 39), max_size=5),
    st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
)
@example(np.array([0.9, 0.9, 0.9, 0.9, 0.9, 0.9]), [0, 5], 0.5)  # windows clipped at both ends
def test_select_background_points_equals_a_brute_force_scan_property(background, ts, threshold):
    sig = make_signal(np.column_stack([np.zeros(background.size), background]))
    points = [PointAnnotation("v0", t % background.size, 1) for t in ts]
    expected = outside_every_window(sig, points, threshold, signal_module.AUGMENT_RADIUS)
    assert select_background_points(sig, points, threshold).indices.tolist() == expected


class TestBackgroundPoints:
    def test_requires_sorted_unique(self):
        with pytest.raises(InvalidInputError):
            BackgroundPoints(np.array([3, 3, 5]))
        with pytest.raises(InvalidInputError):
            BackgroundPoints(np.array([5, 3]))
