import numpy as np
import pytest

import actionness.signal as signal_module
from actionness.errors import InvalidInputError
from actionness.oracles import interpolate_column_direct, smooth_column_direct
from actionness.signal import (
    BackgroundPoints,
    PointAnnotation,
    ProbabilitySignal,
    augment_points,
    fuse_probabilities,
    pyramid_scales,
    select_background_points,
    smooth_signal,
    upsample_signal,
)
from actionness.synth import SyntheticConfig, generate_video


def make_signal(values, video_id="v0", level=1):
    return ProbabilitySignal(video_id, level, np.asarray(values, dtype=np.float64))


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


class TestFuseProbabilities:
    def test_direct_substitution(self):
        sig = make_signal([[0.8, 0.25]])
        assert fuse_probabilities(sig).values[0, 0] == pytest.approx(0.6)

    def test_background_one_annihilates(self):
        sig = make_signal([[0.8, 0.3, 1.0]])
        fused = fuse_probabilities(sig)
        assert np.allclose(fused.values[0, :2], 0.0)
        assert fused.values[0, 2] == 1.0

    def test_background_zero_is_identity(self):
        sig = make_signal([[0.8, 0.3, 0.0]])
        assert np.allclose(fuse_probabilities(sig).values, sig.values)

    def test_monotone_in_background(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            classes = rng.uniform(0, 1, 4)
            bg_low, bg_high = sorted(rng.uniform(0, 1, 2))
            low = fuse_probabilities(make_signal([np.append(classes, bg_low)]))
            high = fuse_probabilities(make_signal([np.append(classes, bg_high)]))
            assert np.all(high.values[0, :-1] <= low.values[0, :-1] + 1e-15)


class TestSmoothSignal:
    def test_constant_column_unchanged(self):
        sig = make_signal(np.column_stack([np.full(50, 0.4), np.full(50, 0.2)]))
        out = smooth_signal(sig, 2.0)
        assert np.allclose(out.values[:, 0], 0.4)

    def test_impulse_matches_direct_convolution(self):
        rng = np.random.default_rng(1)
        for sigma in (0.8, 1.5, 3.0):
            column = np.zeros(64)
            column[rng.integers(0, 64)] = 1.0
            sig = make_signal(np.column_stack([column, 1.0 - column]))
            out = smooth_signal(sig, sigma)
            assert np.allclose(out.values[:, 0], smooth_column_direct(column, sigma), atol=1e-12)

    def test_random_matches_direct_convolution(self):
        rng = np.random.default_rng(2)
        column = rng.uniform(0, 1, 40)
        sig = make_signal(np.column_stack([column, np.zeros(40)]))
        out = smooth_signal(sig, 2.5)
        assert np.allclose(out.values[:, 0], smooth_column_direct(column, 2.5), atol=1e-12)

    def test_tiny_sigma_is_identity(self):
        rng = np.random.default_rng(3)
        column = rng.uniform(0, 1, 30)
        sig = make_signal(np.column_stack([column, np.zeros(30)]))
        out = smooth_signal(sig, 0.05)
        assert np.allclose(out.values[:, 0], column, atol=1e-9)

    def test_stays_in_unit_interval(self):
        rng = np.random.default_rng(4)
        column = rng.uniform(0, 1, 100)
        out = smooth_signal(make_signal(np.column_stack([column, np.zeros(100)])), 4.0)
        assert out.values.min() >= 0.0 and out.values.max() <= 1.0

    def test_background_column_untouched(self):
        rng = np.random.default_rng(5)
        values = rng.uniform(0, 1, (30, 3))
        out = smooth_signal(make_signal(values), 2.0)
        assert np.array_equal(out.values[:, -1], values[:, -1])

    def test_rejects_nonpositive_sigma(self):
        with pytest.raises(InvalidInputError):
            smooth_signal(make_signal([[0.5, 0.5]]), 0.0)

    @pytest.mark.parametrize("sigma", [1e9, 1e308])
    def test_rejects_a_kernel_past_the_tap_budget(self, sigma):
        # 2 * int(4 * 1e9 + 0.5) + 1 taps would take 60 GiB, and 4 * 1e308 is inf
        with pytest.raises(InvalidInputError, match="is too wide: its kernel would have more than 16777216 taps"):
            smooth_signal(make_signal(np.full((10, 2), 0.5)), sigma)

    def test_tap_budget_is_exact(self, monkeypatch):
        monkeypatch.setattr(signal_module, "MAX_KERNEL_TAPS", 33)
        column = np.random.default_rng(6).uniform(0, 1, 10)
        sig = make_signal(np.column_stack([column, np.zeros(10)]))
        # 4 * 4.1 + 0.5 = 16.9: a radius of 16, 33 taps, reflected past both ends more than once
        assert np.allclose(smooth_signal(sig, 4.1).values[:, 0], smooth_column_direct(column, 4.1), atol=1e-12)
        with pytest.raises(InvalidInputError, match="more than 33 taps"):
            smooth_signal(sig, 4.125)  # 4 * 4.125 + 0.5 = 17: 35 taps

    @pytest.mark.parametrize("length, sigma", [(10, 2.375), (8, 2.0), (2, 2.0)])
    def test_kernel_wider_than_the_signal_reflects(self, length, sigma):
        rng = np.random.default_rng(7)
        column = rng.uniform(0, 1, length)
        out = smooth_signal(make_signal(np.column_stack([column, np.zeros(length)])), sigma)
        assert np.allclose(out.values[:, 0], smooth_column_direct(column, sigma), atol=1e-12)

    def test_one_snippet_signal_smooths_to_its_value(self):
        values = np.array([[0.7, 0.1, 0.3]])
        assert np.allclose(smooth_signal(make_signal(values), 2.0).values, values, atol=1e-15)


class TestUpsampleSignal:
    def test_identity_when_lengths_match(self):
        rng = np.random.default_rng(6)
        sig = make_signal(rng.uniform(0, 1, (10, 3)))
        assert np.array_equal(upsample_signal(sig, 10).values, sig.values)

    def test_linear_midpoint(self):
        sig = make_signal([[0.0, 1.0], [1.0, 0.0]])
        out = upsample_signal(sig, 3)
        assert np.allclose(out.values[:, 0], [0.0, 0.5, 1.0])

    def test_matches_direct_interpolation(self):
        rng = np.random.default_rng(7)
        column = rng.uniform(0, 1, 17)
        sig = make_signal(np.column_stack([column, np.zeros(17)]))
        out = upsample_signal(sig, 50)
        assert np.allclose(out.values[:, 0], interpolate_column_direct(column, 50), atol=1e-12)
        assert out.values[0, 0] == column[0]
        assert out.values[-1, 0] == column[-1]
        assert out.values[:, 0].min() >= column.min() - 1e-15
        assert out.values[:, 0].max() <= column.max() + 1e-15

    def test_rejects_downsampling(self):
        sig = make_signal([[0.0, 1.0], [1.0, 0.0], [0.5, 0.5]])
        with pytest.raises(InvalidInputError):
            upsample_signal(sig, 2)


def pyramid(*lengths, first_level=1):
    return [make_signal(np.full((length, 2), 0.5), level=level) for level, length in enumerate(lengths, first_level)]


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
        assert pyramid_scales(pyramid(*lengths)) == scales

    @pytest.mark.parametrize(
        "lengths, first_level",
        [((64, 128), 1), ((64, 40), 1), ((64, 32, 30), 1), ((64, 32, 64), 1), ((65, 33, 13), 1), ((32, 16), 2)],
        ids=["longer", "off-ratio", "ratio-repeated", "ratio-falls", "not-pooled-from-the-level-below", "no-level-1"],
    )
    def test_inconsistent_pyramid_names_the_video(self, lengths, first_level):
        with pytest.raises(InvalidInputError, match="video 'v0'"):
            pyramid_scales(pyramid(*lengths, first_level=first_level))

    @pytest.mark.parametrize("numbers", [(2, 1), (1, 1)], ids=["coarsest-first", "level-repeated"])
    def test_levels_out_of_order_name_the_video(self, numbers):
        levels = [make_signal(np.full((8 // number, 2), 0.5), level=number) for number in numbers]
        with pytest.raises(InvalidInputError, match="video 'v0': levels .* must be given finest first, each once"):
            pyramid_scales(levels)


class TestAugmentPoints:
    def test_zero_radius_degenerate_interval(self):
        assert augment_points([PointAnnotation("v0", 5, 1)], 0, 100) == [(5, 5)]

    def test_level_one_radius_two(self):
        assert augment_points([PointAnnotation("v0", 10, 2)], 2, 100) == [(8, 12)]

    def test_one_interval_per_point_with_clipping(self):
        points = [PointAnnotation("v0", t, 1) for t in (0, 3, 99)]
        out = augment_points(points, 4, 100)
        assert len(out) == len(points)
        assert out[0] == (0, 4)
        assert out[2] == (95, 99)

    def test_rejects_point_beyond_level(self):
        with pytest.raises(InvalidInputError):
            augment_points([PointAnnotation("v0", 120, 1)], 2, 100)


class TestSelectBackgroundPoints:
    def test_all_background_no_annotations(self):
        sig = make_signal(np.column_stack([np.zeros(5), np.ones(5)]))
        out = select_background_points(sig, [], 0.5)
        assert out.indices.tolist() == [0, 1, 2, 3, 4]

    def test_augmented_interval_excluded(self):
        sig = make_signal(np.column_stack([np.zeros(6), np.full(6, 0.99)]))
        out = select_background_points(sig, [(2, 3)], 0.5)
        assert out.indices.tolist() == [0, 1, 4, 5]

    def test_threshold_is_strict(self):
        sig = make_signal(np.array([[0.0, 0.6], [0.0, 0.8]]))
        out = select_background_points(sig, [], 0.7)
        assert out.indices.tolist() == [1]

    def test_disjoint_from_every_interval(self):
        rng = np.random.default_rng(8)
        for _ in range(25):
            values = np.column_stack([rng.uniform(0, 1, 60), rng.uniform(0, 1, 60)])
            sig = make_signal(values)
            points = [PointAnnotation("v0", int(t), 1) for t in rng.integers(0, 60, 4)]
            intervals = augment_points(points, 3, 60)
            covered = set()
            for lo, hi in intervals:
                covered.update(range(lo, hi + 1))
            selected = select_background_points(sig, intervals, 0.5)
            assert covered.isdisjoint(selected.indices.tolist())

    def test_matches_brute_force_scan(self):
        config = SyntheticConfig(length=256, num_classes=4, instances_per_video=(1, 3), duration_range=(10, 40),
                                 noise_std=0.1, seed=7)
        video = generate_video(config, np.random.default_rng(17), "v0")
        threshold = 0.6
        inside = set()
        for g in video.gt:
            inside.update(range(g.start, g.end + 1))
        expected = [t for t in range(config.length) if video.signal.values[t, -1] > threshold and t not in inside]
        intervals = [(g.start, g.end) for g in video.gt]
        assert select_background_points(video.signal, intervals, threshold).indices.tolist() == expected


class TestBackgroundPoints:
    def test_requires_sorted_unique(self):
        with pytest.raises(InvalidInputError):
            BackgroundPoints(np.array([3, 3, 5]))
        with pytest.raises(InvalidInputError):
            BackgroundPoints(np.array([5, 3]))
