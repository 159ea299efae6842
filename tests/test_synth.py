import dataclasses
import time

import numpy as np
import pytest

from actionness import decoder, synth
from actionness.decoder import threshold_runs
from actionness.errors import InvalidInputError, PackingError
from actionness.evaluation import GroundTruthInstance
from actionness.synth import (
    SyntheticConfig,
    generate_dataset,
    generate_video,
    sample_point,
)


def make_config(**overrides):
    base = dict(
        length=256,
        num_classes=4,
        instances_per_video=(1, 3),
        duration_range=(10, 40),
        noise_std=0.0,
        seed=7,
    )
    base.update(overrides)
    return SyntheticConfig(**base)


class TestGenerateVideo:
    def test_same_seed_bit_identical(self):
        config = make_config(noise_std=0.05)
        first = generate_video(config, np.random.default_rng(123), "v0")
        second = generate_video(config, np.random.default_rng(123), "v0")
        assert np.array_equal(first.signal.values, second.signal.values)
        assert first.gt == second.gt

    def test_instances_pairwise_disjoint_with_gap(self):
        config = make_config(instances_per_video=(3, 5), duration_range=(10, 30), length=512)
        for seed in range(10):
            video = generate_video(config, np.random.default_rng(seed), "v0")
            ordered = sorted(video.gt, key=lambda g: g.start)
            for a, b in zip(ordered, ordered[1:]):
                assert a.end < b.start

    def test_noiseless_plateau_is_exact(self):
        config = make_config(shape_mix={"plateau": 1.0})
        video = generate_video(config, np.random.default_rng(5), "v0")
        for instance in video.gt:
            column = video.signal.values[instance.start : instance.end + 1, instance.class_id - 1]
            assert np.all(column == column[0])
            assert column[0] >= 0.5
        # outside instances the class columns sit exactly at the floor
        outside = np.ones(config.length, dtype=bool)
        for instance in video.gt:
            outside[instance.start : instance.end + 1] = False
        assert np.all(video.signal.values[outside, :-1] == config.background_level)
        assert np.allclose(
            video.signal.background, 1.0 - video.signal.values[:, :-1].max(axis=1)
        )

    def test_noiseless_gaussian_peak_and_floor(self):
        config = make_config(shape_mix={"gaussian": 1.0}, duration_range=(21, 21))
        video = generate_video(config, np.random.default_rng(9), "v0")
        instance = video.gt[0]
        column = video.signal.values[instance.start : instance.end + 1, instance.class_id - 1]
        centre = (instance.end - instance.start) // 2
        assert column[centre] == column.max()
        assert np.all(column >= config.background_level - 1e-12)
        assert np.allclose(column, column[::-1])  # symmetric profile

    def test_threshold_merge_recovers_plateau_gt(self, monkeypatch):
        monkeypatch.setattr(decoder, "THRESHOLDS", (0.5,))
        config = make_config(shape_mix={"plateau": 1.0}, instances_per_video=(2, 3), length=512)
        for seed in range(5):
            video = generate_video(config, np.random.default_rng(seed), "v0")
            segments = []
            for class_id in range(1, config.num_classes + 1):
                starts, ends = threshold_runs(video.signal.class_column(class_id))
                segments += [(start, end, class_id) for start, end in zip(starts.tolist(), ends.tolist())]
            expected = sorted((g.start, g.end, g.class_id) for g in video.gt)
            assert sorted(segments) == expected

    def test_within_instance_probability_clears_floor(self):
        config = make_config()
        video = generate_video(config, np.random.default_rng(11), "v0")
        for instance in video.gt:
            column = video.signal.values[instance.start : instance.end + 1, instance.class_id - 1]
            assert column.min() >= config.background_level - 1e-12

    def test_infeasible_packing_raises(self):
        config = make_config(length=64, duration_range=(30, 40), instances_per_video=(5, 5))
        with pytest.raises(PackingError):
            generate_video(config, np.random.default_rng(0), "v0")

    def test_a_packing_that_cannot_fit_fails_at_once(self):
        # 100000 instances of 3 snippets and their gaps need 599997 snippets; the search would
        # spend 200 attempts per instance, each scanning every placed instance
        config = make_config(length=4096, duration_range=(3, 3), instances_per_video=(100000, 100000))
        start = time.perf_counter()
        with pytest.raises(PackingError, match="could not place 100000 instances of 3-3 snippets"):
            generate_video(config, np.random.default_rng(0), "v0")
        assert time.perf_counter() - start < 1.0
        # an instance as long as the video fits exactly
        video = generate_video(make_config(length=64, duration_range=(64, 64), instances_per_video=(1, 1)),
                               np.random.default_rng(0), "v0")
        assert [(gt.start, gt.end) for gt in video.gt] == [(0, 63)]

    @pytest.mark.parametrize(
        "overrides, message",
        [
            (dict(length=10**20), "a signal of 100000000000000000000 snippets and 4 classes is too large"),
            (dict(num_classes=10**20), "a signal of 256 snippets and 100000000000000000000 classes is too large"),
            (dict(instances_per_video=(1, 10**20)), "instances_per_video must stay below"),
        ],
        ids=["length", "classes", "instances"],
    )
    def test_sizes_numpy_cannot_hold_rejected(self, overrides, message):
        with pytest.raises(InvalidInputError, match=message):
            make_config(**overrides)

    def test_config_validation(self):
        with pytest.raises(InvalidInputError):
            make_config(duration_range=(2, 10))
        with pytest.raises(InvalidInputError):
            make_config(background_level=0.6)
        with pytest.raises(InvalidInputError):
            make_config(shape_mix={"triangle": 1.0})


class TestSamplePoint:
    def test_one_snippet_instance(self):
        instance = GroundTruthInstance("v0", 17, 17, 1)
        rng = np.random.default_rng(0)
        assert sample_point(instance, "uniform", rng).t == 17
        assert sample_point(instance, "gaussian", rng).t == 17

    def test_uniform_always_inside(self):
        instance = GroundTruthInstance("v0", 30, 70, 2)
        rng = np.random.default_rng(1)
        for _ in range(200):
            point = sample_point(instance, "uniform", rng)
            assert 30 <= point.t <= 70
            assert point.class_id == 2

    def test_gaussian_always_inside(self):
        instance = GroundTruthInstance("v0", 30, 70, 1)
        rng = np.random.default_rng(2)
        for _ in range(200):
            assert 30 <= sample_point(instance, "gaussian", rng).t <= 70

    def test_gaussian_mean_near_centre(self):
        instance = GroundTruthInstance("v0", 100, 159, 1)
        rng = np.random.default_rng(3)
        draws = [sample_point(instance, "gaussian", rng).t for _ in range(10000)]
        centre = 0.5 * (100 + 159)
        assert abs(np.mean(draws) - centre) / centre < 0.05

    def test_unknown_mode_rejected(self):
        with pytest.raises(InvalidInputError):
            sample_point(GroundTruthInstance("v0", 0, 5, 1), "triangular", np.random.default_rng(0))


class TestGenerateDataset:
    def test_each_video_from_its_own_seeded_generator(self):
        config = make_config(noise_std=0.05)
        manifest, dataset = generate_dataset(config, 3, "uniform")
        for index, (video, points) in enumerate(dataset):
            rng = np.random.default_rng([config.seed, index])
            expected = generate_video(config, rng, f"video-{index:04d}")
            assert np.array_equal(video.signal.values, expected.signal.values)
            assert video.gt == expected.gt
            assert points == [sample_point(instance, "uniform", rng) for instance in expected.gt]
        assert index == 2
        assert manifest["videos"] == ["video-0000", "video-0001", "video-0002"]
        assert manifest["video_seeds"] == [[7, 0], [7, 1], [7, 2]]

    def test_manifest_records_the_whole_config(self):
        config = make_config()
        manifest, _ = generate_dataset(config, 2, "gaussian")
        assert manifest["point_mode"] == "gaussian"
        assert manifest["config"] == dataclasses.asdict(config)

    def test_videos_stream_one_at_a_time(self, monkeypatch):
        made = []
        monkeypatch.setattr(synth, "generate_video", lambda *args: made.append(args[2]) or generate_video(*args))
        _, dataset = generate_dataset(make_config(), 1000, "gaussian")
        assert made == []
        next(dataset)
        assert made == ["video-0000"]

