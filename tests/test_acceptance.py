"""Acceptance criteria, one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; the whole module targets well under a minute.
"""

import random
import time
from collections import Counter

import numpy as np
import pytest
from click.testing import CliRunner

from actionness.cli import main
from actionness.decoder import Proposal, decode_videos, nms
from actionness.evaluation import GroundTruthInstance, average_precision, map_report, tiou
from actionness.optim import X_TOLERANCE, minimize_lanes
from actionness.oracles import average_precision_direct
from actionness.records import PointAnnotation, PseudoLabel
from actionness.storage import load_records
from actionness.synth import SyntheticConfig, generate_video
from actionness.verify import _random_unimodal, run_fitting_suite, run_gradient_suite

THUMOS_RANGE = [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7]
FIXED_RADIUS = 16
# avg mAP@0.1:0.7 that default decoding must reach on the noisy dataset: it scores 57.00 % with OIC
# flanks of at least one snippet, 47.90 % with CoLA-style truncated flanks and 8.81 % with zero-width ones
PROPOSAL_MAP_FLOOR = 0.55


def report(criterion, detail):
    print(f"[criterion {criterion}] PASS - {detail}")


@pytest.fixture(scope="module")
def runner():
    return CliRunner()


@pytest.fixture(scope="module")
def noisy_dataset(runner, tmp_path_factory):
    """200 noisy videos of T=512 written by cmd_synth, shared by criteria 1, 3 and 9."""
    out = tmp_path_factory.mktemp("acceptance") / "noisy"
    result = runner.invoke(
        main,
        [
            "synth",
            "--out", str(out),
            "--videos", "200",
            "--length", "512",
            "--classes", "5",
            "--instances", "1", "4",
            "--durations", "8", "64",
            "--noise-std", "0.05",
            "--point-mode", "gaussian",
            "--seed", "2026",
        ],
        catch_exceptions=False,
    )
    assert result.exit_code == 0
    return out


@pytest.fixture(scope="module")
def adm_run(runner, noisy_dataset, tmp_path_factory):
    """cmd_adm on the noisy dataset, with its wall-clock time."""
    out_file = tmp_path_factory.mktemp("acceptance-adm") / "labels.json"
    started = time.perf_counter()
    result = runner.invoke(
        main,
        [
            "adm",
            "--signals", str(noisy_dataset / "signals"),
            "--annotations", str(noisy_dataset / "annotations.json"),
            "--out", str(out_file),
        ],
        catch_exceptions=False,
    )
    elapsed = time.perf_counter() - started
    assert result.exit_code == 0
    return out_file, elapsed, result.output


def test_criterion_1_alpha_ratio_and_runtime(noisy_dataset, adm_run):
    out_file, elapsed, output = adm_run
    labels = load_records(out_file, PseudoLabel)
    annotations = load_records(noisy_dataset / "annotations.json", PointAnnotation)
    assert len(labels) == len(annotations)  # alpha == 1, exact
    assert "alpha: 1.000000" in output
    assert elapsed < 5.0, f"cmd_adm took {elapsed:.2f}s on 200 videos of T=512"
    report(1, f"alpha=1 for {len(labels)} annotations, cmd_adm {elapsed:.2f}s < 5s")


def test_criterion_2_fit_recovery():
    started = time.perf_counter()
    suite = run_fitting_suite(samples=1000)
    elapsed = time.perf_counter() - started
    by_name = {check["name"]: check for check in suite["checks"]}
    assert by_name["gaussian_recovery"]["max_rel_err"] <= 0.02
    assert by_name["uniform_recovery"]["max_abs_err"] <= 1.0
    assert suite["pass"]
    assert elapsed < 10.0, f"fitting suite took {elapsed:.2f}s"
    report(
        2,
        f"1000 gaussian fits max rel err {by_name['gaussian_recovery']['max_rel_err']:.2e}, "
        f"1000 rectangle fits max err {by_name['uniform_recovery']['max_abs_err']:.2f} snippets, "
        f"{elapsed:.2f}s < 10s",
    )


def test_criterion_3_pseudo_labels_beat_fixed_intervals(noisy_dataset, adm_run):
    labels = load_records(adm_run[0], PseudoLabel)
    gt = load_records(noisy_dataset / "gt.json", GroundTruthInstance)
    annotations = load_records(noisy_dataset / "annotations.json", PointAnnotation)
    length = 512

    by_key = {}
    for label in labels:
        by_key.setdefault((label.video_id, label.t, label.class_id), label)

    adm_values, fixed_values = [], []
    for instance, point in zip(gt, annotations):
        assert instance.video_id == point.video_id
        label = by_key[(point.video_id, point.t, point.class_id)]
        adm_values.append(tiou((label.start, label.end), instance.interval))
        window = (max(0, point.t - FIXED_RADIUS), min(length - 1, point.t + FIXED_RADIUS))
        fixed_values.append(tiou(window, instance.interval))

    adm_mean = float(np.mean(adm_values))
    fixed_mean = float(np.mean(fixed_values))
    assert adm_mean > fixed_mean  # strict inequality, no margin
    report(3, f"mean tIoU ADM {adm_mean:.4f} > fixed +-16 {fixed_mean:.4f} on {len(gt)} instances")


def test_criterion_4_gradient_suite():
    started = time.perf_counter()
    suite = run_gradient_suite(instances=100)
    elapsed = time.perf_counter() - started
    assert suite["pass"]
    worst = max(check["max_rel_err"] for check in suite["checks"])
    assert worst < 1e-4
    assert elapsed < 5.0, f"gradient suite took {elapsed:.2f}s"
    report(4, f"5 losses x 100 instances, worst rel err {worst:.2e} < 1e-4, {elapsed:.2f}s < 5s")


def test_criterion_5_optimizer_versus_dense_grid():
    rng = random.Random(5150)
    grid_points = 100000
    objectives, lows, highs, _ = zip(*(_random_unimodal(rng) for _ in range(100)))
    result = minimize_lanes(
        lambda points, lanes: np.array([float(objectives[lane](point)) for point, lane in zip(points.tolist(), lanes)]),
        np.array(lows),
        np.array(highs),
    )
    for objective, lo, hi, x in zip(objectives, lows, highs, result.x):
        xs = np.linspace(lo, hi, grid_points)
        reference = float(xs[int(np.argmin(objective(xs)))])
        step = (hi - lo) / (grid_points - 1)
        assert abs(x - reference) <= X_TOLERANCE + step
    report(5, "100 random unimodal objectives, one lockstep batch, within X_TOLERANCE + grid step of 1e5-point scan")


def test_criterion_6_average_precision_oracle():
    rng = np.random.default_rng(616)
    for _ in range(500):
        gt = []
        for _ in range(int(rng.integers(1, 6))):
            start = int(rng.integers(0, 80))
            gt.append(
                GroundTruthInstance(f"v{rng.integers(0, 2)}", start, start + int(rng.integers(0, 20)), 1)
            )
        proposals = []
        for _ in range(int(rng.integers(0, 11))):
            start = int(rng.integers(0, 80))
            proposals.append(
                Proposal(
                    f"v{rng.integers(0, 2)}",
                    start,
                    start + int(rng.integers(0, 20)),
                    1,
                    float(np.round(rng.uniform(0, 1), 6)),
                )
            )
        threshold = float(rng.choice(THUMOS_RANGE))
        fast = average_precision(proposals, gt, threshold)
        direct = average_precision_direct(proposals, gt, threshold)
        assert abs(fast - direct) <= 1e-12

    instances = [
        GroundTruthInstance("v0", 5, 20, 1),
        GroundTruthInstance("v0", 50, 90, 2),
        GroundTruthInstance("v1", 10, 40, 1),
    ]
    perfect = [Proposal(g.video_id, g.start, g.end, g.class_id, 0.9) for g in instances]
    perfect_report = map_report(perfect, instances, THUMOS_RANGE)
    assert all(value == 1.0 for value in perfect_report.map_at.values())
    assert perfect_report.average_map == 1.0
    report(6, "500 AP cases exact to 1e-12 vs direct oracle; perfect proposals mAP 1.0 at 0.1:0.7")


def test_criterion_7_decoder_round_trip_and_nms_idempotence():
    config = SyntheticConfig(
        length=256,
        num_classes=4,
        instances_per_video=(1, 3),
        duration_range=(24, 64),
        shape_mix={"plateau": 1.0},
        noise_std=0.0,
        seed=7,
    )
    videos = [generate_video(config, np.random.default_rng([7, index]), f"v{index:03d}") for index in range(40)]
    proposals = decode_videos([video.signal for video in videos], class_score_threshold=0.3, top_k_fraction=1 / 16)
    instances = [instance for video in videos for instance in video.gt]
    # one proposal per instance, video by video
    assert Counter(p.video_id for p in proposals) == Counter(g.video_id for g in instances)
    by_class = {}
    for proposal in proposals:
        by_class.setdefault((proposal.video_id, proposal.class_id), []).append(proposal)
    for instance in instances:
        candidates = by_class.get((instance.video_id, instance.class_id), [])
        best = max(tiou(p.interval, instance.interval) for p in candidates)
        assert best >= 0.9
    total_instances = len(instances)

    rng = np.random.default_rng(77)
    for _ in range(1000):
        proposals = []
        for _ in range(int(rng.integers(0, 31))):
            start = int(rng.integers(0, 80))
            proposals.append(
                Proposal(
                    "v0",
                    start,
                    start + int(rng.integers(0, 20)),
                    int(rng.integers(1, 4)),
                    float(np.round(rng.uniform(0, 1), 6)),
                )
            )
        threshold = float(rng.uniform(0.2, 0.7))
        survivors = nms(proposals, threshold)
        assert nms(survivors, threshold) == survivors
    report(7, f"one proposal per GT (tIoU >= 0.9) on {total_instances} plateau instances; NMS idempotent on 1000 sets")


def test_criterion_8_cli_determinism(runner, tmp_path):
    def synth_into(directory):
        result = runner.invoke(
            main,
            [
                "synth",
                "--out", str(directory),
                "--videos", "20",
                "--length", "256",
                "--classes", "3",
                "--instances", "1", "3",
                "--durations", "12", "48",
                "--noise-std", "0.05",
                "--seed", "99",
            ],
            catch_exceptions=False,
        )
        assert result.exit_code == 0

    def tree(directory):
        return {
            str(path.relative_to(directory)): path.read_bytes()
            for path in sorted(directory.rglob("*"))
            if path.is_file()
        }

    first, second = tmp_path / "run1", tmp_path / "run2"
    synth_into(first)
    synth_into(second)
    assert tree(first) == tree(second)

    for index, directory in enumerate((first, second)):
        result = runner.invoke(
            main,
            [
                "adm",
                "--signals", str(directory / "signals"),
                "--annotations", str(directory / "annotations.json"),
                "--out", str(tmp_path / f"labels{index}.json"),
            ],
            catch_exceptions=False,
        )
        assert result.exit_code == 0
        result = runner.invoke(
            main,
            ["decode", "--signals", str(directory / "signals"), "--out", str(tmp_path / f"props{index}.json")],
            catch_exceptions=False,
        )
        assert result.exit_code == 0

    assert (tmp_path / "labels0.json").read_bytes() == (tmp_path / "labels1.json").read_bytes()
    assert (tmp_path / "props0.json").read_bytes() == (tmp_path / "props1.json").read_bytes()
    report(8, "cmd_synth, cmd_adm, cmd_decode byte-identical across two seeded runs")


def test_criterion_9_proposal_quality_gate(runner, noisy_dataset, tmp_path):
    out_file = tmp_path / "proposals.json"
    result = runner.invoke(
        main,
        ["decode", "--signals", str(noisy_dataset / "signals"), "--out", str(out_file)],
        catch_exceptions=False,
    )
    assert result.exit_code == 0
    proposals = load_records(out_file, Proposal)
    average = map_report(proposals, load_records(noisy_dataset / "gt.json", GroundTruthInstance), THUMOS_RANGE).average_map
    assert average >= PROPOSAL_MAP_FLOOR, f"default decode avg mAP {average:.4f} below {PROPOSAL_MAP_FLOOR}"
    report(9, f"default decode avg mAP@0.1:0.7 {average * 100:.2f}% >= {PROPOSAL_MAP_FLOOR * 100:.0f}% "
              f"with {len(proposals)} proposals")
