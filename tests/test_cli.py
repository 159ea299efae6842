import ast
import gc
import hashlib
import importlib
import io
import json
import os
import re
import shlex
import stat
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

import actionness
from actionness import files, storage, synth
from actionness.adm import PseudoLabel, label_videos
from actionness.cli import main
from actionness.decoder import Proposal
from actionness.errors import InvalidInputError, PackingError
from actionness.signal import PointAnnotation, ProbabilitySignal
from actionness.records import GroundTruthInstance
from actionness.storage import load_json, load_records, load_signals, save_records, save_signals


@pytest.fixture
def runner():
    return CliRunner()


def invoke(runner, args):
    return runner.invoke(main, args, catch_exceptions=False)


def synth_args(out_dir, videos=6, noise="0.0", seed="42", extra=()):
    return [
        "synth",
        "--out",
        str(out_dir),
        "--videos",
        str(videos),
        "--length",
        "256",
        "--classes",
        "3",
        "--instances",
        "1",
        "3",
        "--durations",
        "16",
        "48",
        "--noise-std",
        noise,
        "--seed",
        seed,
        *extra,
    ]


def read_tree(root: Path) -> dict:
    return {
        str(path.relative_to(root)): path.read_bytes()
        for path in sorted(root.rglob("*"))
        if path.is_file()
    }


class TestSynthCommand:
    def test_writes_dataset_and_manifest(self, runner, tmp_path):
        out = tmp_path / "data"
        result = invoke(runner, synth_args(out))
        assert result.exit_code == 0
        manifest = load_json(out / "manifest.json")
        assert len(manifest["videos"]) == 6
        assert (out / "gt.json").exists()
        assert (out / "annotations.json").exists()
        assert len(list((out / "signals").glob("*.npz"))) == 6

    def test_same_seed_byte_identical(self, runner, tmp_path):
        first, second = tmp_path / "a", tmp_path / "b"
        assert invoke(runner, synth_args(first, noise="0.05")).exit_code == 0
        assert invoke(runner, synth_args(second, noise="0.05")).exit_code == 0
        assert read_tree(first) == read_tree(second)

    def test_unwritable_output_fails(self, runner, tmp_path):
        blocker = tmp_path / "not-a-dir"
        blocker.write_text("occupied")
        result = runner.invoke(main, synth_args(blocker / "data"))
        assert result.exit_code == 1
        assert "error" in result.output

    def test_signals_left_by_an_earlier_run_rejected(self, runner, tmp_path):
        out = tmp_path / "data"
        assert invoke(runner, synth_args(out, videos=4)).exit_code == 0
        before = read_tree(out)
        result = runner.invoke(main, synth_args(out, videos=2))
        fails_cleanly(result, "already holds signal files")
        assert read_tree(out) == before

    def test_failure_part_way_removes_written_signals(self, runner, tmp_path, monkeypatch):
        made = []

        def generate_video(*args):
            made.append(args[2])
            if len(made) == 3:
                raise PackingError("cannot place instances")
            return real_generate_video(*args)

        real_generate_video = synth.generate_video
        monkeypatch.setattr(synth, "generate_video", generate_video)
        out = tmp_path / "data"
        fails_cleanly(runner.invoke(main, synth_args(out, videos=4)), "cannot place instances")
        assert made == ["video-0000", "video-0001", "video-0002"]
        assert read_tree(out) == {}

    @pytest.mark.parametrize(
        "flags, fragment",
        [
            (["--length", str(10**20)], "too large for numpy to hold"),
            (["--classes", str(10**20)], "too large for numpy to hold"),
            (["--instances", "1", str(10**20)], "instances_per_video must stay below"),
        ],
        ids=["length", "classes", "instances"],
    )
    def test_sizes_numpy_cannot_hold_end_in_an_error_line(self, runner, tmp_path, flags, fragment):
        # each fails before numpy draws or allocates anything
        result = runner.invoke(main, ["synth", "--out", str(tmp_path / "data"), *flags])
        fails_cleanly(result, fragment)
        assert "Traceback" not in result.output

    @pytest.mark.parametrize("error", [MemoryError("Unable to allocate 4.26 PiB for an array"), MemoryError()])
    def test_running_out_of_memory_ends_in_an_error_line(self, runner, tmp_path, monkeypatch, error):
        # a size that passes every check can still outgrow memory; no test asks numpy for such an array
        def generate_video(*args):
            raise error

        monkeypatch.setattr(synth, "generate_video", generate_video)
        result = runner.invoke(main, synth_args(tmp_path / "data"))
        fails_cleanly(result, str(error) or "MemoryError")
        assert "Traceback" not in result.output

    @pytest.mark.parametrize("existing", [False, True], ids=["fresh-out", "existing-empty-out"])
    def test_a_failed_synth_removes_the_directories_it_made(self, runner, tmp_path, monkeypatch, existing):
        def generate_video(*args):
            raise MemoryError("Unable to allocate 4.26 PiB for an array")

        monkeypatch.setattr(synth, "generate_video", generate_video)
        out = tmp_path / "data"
        if existing:
            out.mkdir()
        fails_cleanly(runner.invoke(main, synth_args(out)), "Unable to allocate")
        assert out.is_dir() == existing
        assert not (out / "signals").exists()


class TestAdmCommand:
    def make_dataset(self, runner, tmp_path, **kwargs):
        out = tmp_path / "data"
        assert invoke(runner, synth_args(out, **kwargs)).exit_code == 0
        return out

    def test_one_label_per_annotation(self, runner, tmp_path):
        data = self.make_dataset(runner, tmp_path, noise="0.05")
        out_file = tmp_path / "labels.json"
        result = invoke(
            runner,
            [
                "adm",
                "--signals",
                str(data / "signals"),
                "--annotations",
                str(data / "annotations.json"),
                "--out",
                str(out_file),
            ],
        )
        assert result.exit_code == 0
        assert "alpha: 1.000000" in result.output
        labels = load_records(out_file, PseudoLabel)
        annotations = load_json(data / "annotations.json")
        assert len(labels) == len(annotations)

    def test_empty_annotations_ok(self, runner, tmp_path):
        data = self.make_dataset(runner, tmp_path)
        (data / "annotations.json").write_text("[]")
        out_file = tmp_path / "labels.json"
        result = invoke(
            runner,
            [
                "adm",
                "--signals",
                str(data / "signals"),
                "--annotations",
                str(data / "annotations.json"),
                "--out",
                str(out_file),
            ],
        )
        assert result.exit_code == 0
        assert load_json(out_file) == []

    def test_empty_annotations_on_an_empty_signal_dir_fail(self, runner, tmp_path):
        empty = tmp_path / "signals"
        empty.mkdir()
        annotations = tmp_path / "annotations.json"
        annotations.write_text("[]")
        out_file = tmp_path / "labels.json"
        result = invoke(
            runner,
            ["adm", "--signals", str(empty), "--annotations", str(annotations), "--out", str(out_file)],
        )
        fails_cleanly(result, f"error: {empty}: the directory holds no .json or .npz signal file")
        assert not out_file.exists()

    def test_malformed_json_fails(self, runner, tmp_path):
        data = self.make_dataset(runner, tmp_path)
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        result = runner.invoke(
            main,
            ["adm", "--signals", str(data / "signals"), "--annotations", str(bad), "--out", str(tmp_path / "o.json")],
        )
        assert result.exit_code == 1
        assert "malformed" in result.output

    def test_missing_video_named(self, runner, tmp_path):
        data = self.make_dataset(runner, tmp_path)
        ghost = tmp_path / "ghost.json"
        ghost.write_text(json.dumps([{"video_id": "ghost-video", "t": 3, "class_id": 1}]))
        result = runner.invoke(
            main,
            ["adm", "--signals", str(data / "signals"), "--annotations", str(ghost), "--out", str(tmp_path / "o.json")],
        )
        assert result.exit_code == 1
        assert "ghost-video" in result.output

    def test_stdout_pinned(self, runner, tmp_path):
        data = self.make_dataset(runner, tmp_path, noise="0.05")
        result = invoke(
            runner,
            ["adm", "--signals", str(data / "signals"), "--annotations", str(data / "annotations.json"),
             "--out", str(tmp_path / "labels.json")],
        )
        assert result.exit_code == 0
        # per-label sums of squared error, averaged over labels
        assert result.output == (
            "alpha: 1.000000\n"
            "mean_gaussian_fit_mse: 0.231226\n"
            "mean_uniform_fit_mse: 0.547598\n"
        )

    @pytest.mark.parametrize("levels", [(2,), (2, 3)], ids=["level-2-only", "levels-2-and-3"])
    def test_finest_level_other_than_one_rejected(self, runner, tmp_path, levels):
        save_signals(tmp_path / "v0.json", [small_signal(level=level) for level in levels])
        save_records(tmp_path / "ann.json", PointAnnotation, [PointAnnotation("v0", 3, 1)])
        out_file = tmp_path / "labels.json"
        result = runner.invoke(
            main,
            ["adm", "--signals", str(tmp_path / "v0.json"), "--annotations", str(tmp_path / "ann.json"),
             "--out", str(out_file)],
        )
        fails_cleanly(result, "video 'v0' has no level 1")
        assert not out_file.exists()

    def test_sigma_lower_is_not_an_option(self, runner, tmp_path):
        out = self.make_dataset(runner, tmp_path)
        result = runner.invoke(main, ["adm", "--signals", str(out / "signals"), "--annotations",
                                      str(out / "annotations.json"), "--out", str(tmp_path / "labels.json"),
                                      "--sigma-lower", "1e9"])
        assert result.exit_code == 2
        assert "No such option" in result.output and "--sigma-lower" in result.output
        assert not (tmp_path / "labels.json").exists()

    def test_deterministic_output(self, runner, tmp_path):
        data = self.make_dataset(runner, tmp_path, noise="0.05")
        outputs = []
        for name in ("l1.json", "l2.json"):
            out_file = tmp_path / name
            assert (
                invoke(
                    runner,
                    [
                        "adm",
                        "--signals",
                        str(data / "signals"),
                        "--annotations",
                        str(data / "annotations.json"),
                        "--out",
                        str(out_file),
                    ],
                ).exit_code
                == 0
            )
            outputs.append(out_file.read_bytes())
        assert outputs[0] == outputs[1]


class TestDecodeCommand:
    def test_plateau_dataset_one_proposal_per_instance(self, runner, tmp_path):
        data = tmp_path / "data"
        args = synth_args(data, videos=4, extra=["--shape-weights", "1", "0", "0", "--durations", "24", "64"])
        assert invoke(runner, args).exit_code == 0
        out_file = tmp_path / "proposals.json"
        result = invoke(
            runner,
            [
                "decode",
                "--signals",
                str(data / "signals"),
                "--out",
                str(out_file),
                "--top-k-fraction",
                "0.0625",
                "--class-threshold",
                "0.3",
            ],
        )
        assert result.exit_code == 0
        proposals = load_records(out_file, Proposal)
        gt = load_records(data / "gt.json", GroundTruthInstance)
        assert len(proposals) == len(gt)

    def test_empty_signal_dir_fails(self, runner, tmp_path):
        # a mistyped or unfilled directory is not a dataset without proposals
        empty = tmp_path / "signals"
        empty.mkdir()
        out_file = tmp_path / "proposals.json"
        result = invoke(runner, ["decode", "--signals", str(empty), "--out", str(out_file)])
        fails_cleanly(result, f"error: {empty}: the directory holds no .json or .npz signal file")
        assert not out_file.exists()

    def test_a_subdirectory_named_as_a_signal_file_is_refused(self, runner, tmp_path):
        # a signals directory holds one file per video: a nested directory's files are not read as this dataset's
        signals = tmp_path / "signals"
        (signals / "old.json").mkdir(parents=True)
        save_signals(signals / "v0.npz", [small_signal("v0")])
        save_signals(signals / "old.json" / "v1.npz", [small_signal("v1")])
        out_file = tmp_path / "proposals.json"
        result = invoke(runner, ["decode", "--signals", str(signals), "--out", str(out_file)])
        fails_cleanly(result, f"error: {signals / 'old.json'}: a signals directory holds one signal file per video")
        assert not out_file.exists()

    def test_bad_flag_is_usage_error(self, runner, tmp_path):
        result = runner.invoke(main, ["decode", "--signals", "x", "--out", "y", "--bogus"])
        assert result.exit_code == 2

    def test_deterministic(self, runner, tmp_path):
        data = tmp_path / "data"
        assert invoke(runner, synth_args(data, noise="0.05")).exit_code == 0
        blobs = []
        for name in ("p1.json", "p2.json"):
            out_file = tmp_path / name
            assert invoke(runner, ["decode", "--signals", str(data / "signals"), "--out", str(out_file)]).exit_code == 0
            blobs.append(out_file.read_bytes())
        assert blobs[0] == blobs[1]


class TestEvalCommand:
    def make_perfect(self, tmp_path):
        gt_path = tmp_path / "gt.json"
        gt_path.write_text(
            json.dumps(
                [
                    {"video_id": "v0", "start": 5, "end": 20, "class_id": 1},
                    {"video_id": "v0", "start": 40, "end": 70, "class_id": 2},
                ]
            )
        )
        proposals = [Proposal("v0", 5, 20, 1, 0.9), Proposal("v0", 40, 70, 2, 0.8)]
        proposals_path = tmp_path / "proposals.json"
        save_records(proposals_path, Proposal, proposals)
        return gt_path, proposals_path

    def test_perfect_proposals_score_full(self, runner, tmp_path):
        gt_path, proposals_path = self.make_perfect(tmp_path)
        out_json = tmp_path / "report.json"
        out_csv = tmp_path / "report.csv"
        result = invoke(
            runner,
            ["eval", str(proposals_path), "--gt", str(gt_path), "--out-json", str(out_json), "--out-csv", str(out_csv)],
        )
        assert result.exit_code == 0
        report = load_json(out_json)
        assert report["average_map"] == 1.0
        assert all(v == 1.0 for v in report["map_at"].values())
        assert "100.00%" in result.output

    def test_csv_has_seven_threshold_rows(self, runner, tmp_path):
        gt_path, proposals_path = self.make_perfect(tmp_path)
        out_csv = tmp_path / "report.csv"
        result = invoke(
            runner,
            [
                "eval",
                str(proposals_path),
                "--gt",
                str(gt_path),
                "--thresholds",
                "0.1:0.7",
                "--out-json",
                str(tmp_path / "r.json"),
                "--out-csv",
                str(out_csv),
            ],
        )
        assert result.exit_code == 0
        lines = out_csv.read_text().strip().splitlines()
        assert len(lines) == 8  # header + 7 thresholds
        assert lines[0].startswith("tiou,")

    @pytest.mark.parametrize(
        "thresholds, expected",
        [
            ("0.1:0.7:0.35", [0.1, 0.45]),
            ("0.1:1.0:0.35", [0.1, 0.45, 0.8]),
            ("0.1:1.0:0.3", [0.1, 0.4, 0.7, 1.0]),
            ("0.1:0.9:0.5", [0.1, 0.6]),  # a rounded count would add 1.1
        ],
    )
    def test_threshold_range_stops_at_stop(self, runner, tmp_path, thresholds, expected):
        gt_path, proposals_path = self.make_perfect(tmp_path)
        result = invoke(
            runner,
            ["eval", str(proposals_path), "--gt", str(gt_path), "--thresholds", thresholds,
             "--out-json", str(tmp_path / "r.json"), "--out-csv", str(tmp_path / "r.csv")],
        )
        assert result.exit_code == 0, result.output
        assert load_json(tmp_path / "r.json")["thresholds"] == expected

    def test_swapped_classes_score_zero(self, runner, tmp_path):
        gt_path, _ = self.make_perfect(tmp_path)
        swapped = [Proposal("v0", 5, 20, 2, 0.9), Proposal("v0", 40, 70, 1, 0.8)]
        proposals_path = tmp_path / "swapped.json"
        save_records(proposals_path, Proposal, swapped)
        out_json = tmp_path / "report.json"
        result = invoke(
            runner,
            ["eval", str(proposals_path), "--gt", str(gt_path), "--out-json", str(out_json), "--out-csv", str(tmp_path / "r.csv")],
        )
        assert result.exit_code == 0
        assert load_json(out_json)["average_map"] == 0.0

    def test_pseudo_labels_input_reports_alpha(self, runner, tmp_path):
        gt_path, _ = self.make_perfect(tmp_path)
        labels_path = tmp_path / "labels.json"
        labels_path.write_text(
            json.dumps(
                [
                    {
                        "video_id": "v0",
                        "labels": [
                            {"t": 10, "t_star": 10, "sigma": 3.0, "omega": 5.0, "delta": 8.0,
                             "start": 5, "end": 20, "class_id": 1, "degenerate": False},
                            {"t": 50, "t_star": 55, "sigma": 6.0, "omega": 9.0, "delta": 15.0,
                             "start": 40, "end": 70, "class_id": 2, "degenerate": False},
                        ],
                    }
                ]
            )
        )
        out_json = tmp_path / "report.json"
        result = invoke(
            runner,
            ["eval", str(labels_path), "--gt", str(gt_path), "--out-json", str(out_json), "--out-csv", str(tmp_path / "r.csv")],
        )
        assert result.exit_code == 0
        assert "alpha: 1.000000" in result.output
        assert "mean_tiou: 1.000000" in result.output
        assert load_json(out_json)["pseudo_label_quality"]["alpha"] == 1.0

    def test_labels_file_without_labels_still_reads_as_labels(self, runner, tmp_path):
        gt_path, _ = self.make_perfect(tmp_path)
        labels_path = tmp_path / "labels.json"
        labels_path.write_text(json.dumps([{"video_id": "v0", "labels": []}]))
        out_json = tmp_path / "report.json"
        result = invoke(
            runner,
            ["eval", str(labels_path), "--gt", str(gt_path), "--out-json", str(out_json), "--out-csv", str(tmp_path / "r.csv")],
        )
        assert result.exit_code == 0
        assert "alpha: 0.000000" in result.output
        assert load_json(out_json)["pseudo_label_quality"] == {"alpha": 0.0, "mean_tiou": 0.0}

    @pytest.mark.parametrize("input_name", ["proposals.json", "labels.json"])
    def test_input_parsed_once(self, runner, tmp_path, monkeypatch, input_name):
        gt_path, _ = self.make_perfect(tmp_path)
        save_records(tmp_path / "proposals.json", Proposal, [Proposal("v0", 5, 20, 1, 0.9)])
        save_records(tmp_path / "labels.json", PseudoLabel, [PseudoLabel("v0", 10, 10, 3.0, 5.0, 8.0, 5, 20, 1)])
        names = {path.read_text(): path.name for path in tmp_path.glob("*.json")}
        parsed = []
        parse = json.loads

        def counting_parse(text, **kwargs):
            parsed.append(names[text])
            return parse(text, **kwargs)

        monkeypatch.setattr(json, "loads", counting_parse)
        result = invoke(
            runner,
            ["eval", str(tmp_path / input_name), "--gt", str(gt_path),
             "--out-json", str(tmp_path / "r.json"), "--out-csv", str(tmp_path / "r.csv")],
        )
        assert result.exit_code == 0
        assert sorted(parsed) == sorted(["gt.json", input_name])

    def test_outputs_follow_the_umask(self, runner, tmp_path):
        data = tmp_path / "data"
        previous = os.umask(0o022)
        try:
            assert invoke(runner, synth_args(data, videos=2)).exit_code == 0
            labels = tmp_path / "labels.json"
            result = invoke(
                runner,
                ["adm", "--signals", str(data / "signals"), "--annotations", str(data / "annotations.json"),
                 "--out", str(labels)],
            )
            assert result.exit_code == 0
            result = invoke(
                runner,
                ["eval", str(labels), "--gt", str(data / "gt.json"),
                 "--out-json", str(tmp_path / "r.json"), "--out-csv", str(tmp_path / "r.csv")],
            )
            assert result.exit_code == 0
        finally:
            os.umask(previous)
        outputs = [p for p in tmp_path.rglob("*") if p.is_file()]
        assert {path.suffix for path in outputs} == {".json", ".csv", ".npz"}
        assert {path.name: stat.S_IMODE(path.stat().st_mode) for path in outputs} == {
            path.name: 0o644 for path in outputs
        }

    @pytest.mark.parametrize("thresholds", ["0.1:0.7:0", "abc", "0.5,0.5,0.7", "0.1:0.7:1e-12"])
    def test_bad_thresholds_fail_cleanly(self, runner, tmp_path, thresholds):
        gt_path, proposals_path = self.make_perfect(tmp_path)
        result = runner.invoke(
            main,
            ["eval", str(proposals_path), "--gt", str(gt_path), "--thresholds", thresholds,
             "--out-json", str(tmp_path / "r.json"), "--out-csv", str(tmp_path / "r.csv")],
        )
        assert result.exit_code == 1
        assert "error: " in result.output
        assert isinstance(result.exception, SystemExit)  # not a traceback
        assert not (tmp_path / "r.json").exists()

    def test_empty_gt_fails(self, runner, tmp_path):
        _, proposals_path = self.make_perfect(tmp_path)
        gt_path = tmp_path / "empty_gt.json"
        gt_path.write_text("[]")
        result = runner.invoke(
            main,
            ["eval", str(proposals_path), "--gt", str(gt_path), "--out-json", str(tmp_path / "r.json"), "--out-csv", str(tmp_path / "r.csv")],
        )
        assert result.exit_code == 1


class TestVerifyCommand:
    @pytest.mark.parametrize("suite", ["gradients", "fitting", "oracles"])
    def test_suites_pass_small(self, runner, tmp_path, suite):
        out_file = tmp_path / "report.json"
        result = invoke(runner, ["verify", suite, "--samples", "20", "--out", str(out_file)])
        assert result.exit_code == 0
        report = load_json(out_file)
        assert report["pass"] is True
        assert report["suite"] == suite

    def test_gradient_report_schema(self, runner, tmp_path):
        out_file = tmp_path / "report.json"
        result = invoke(runner, ["verify", "gradients", "--samples", "5", "--out", str(out_file)])
        assert result.exit_code == 0
        report = load_json(out_file)
        for check in report["checks"]:
            assert {"loss_name", "max_rel_err", "pass"} <= set(check)

    def test_unknown_suite_is_usage_error(self, runner):
        result = runner.invoke(main, ["verify", "nonsense"])
        assert result.exit_code == 2

    @pytest.mark.parametrize("samples", ["0", "-5"])
    @pytest.mark.parametrize("suite", ["gradients", "fitting", "oracles"])
    def test_samples_below_one_fail_cleanly(self, runner, tmp_path, suite, samples):
        out_file = tmp_path / "report.json"
        result = runner.invoke(main, ["verify", suite, "--samples", samples, "--out", str(out_file)])
        fails_cleanly(result, f"must be >= 1, got {samples}")
        assert not out_file.exists()


class TestAdmMultiLevel:
    def test_coarse_level_upsampled_to_reference_grid(self, runner, tmp_path):
        sigdir = tmp_path / "signals"
        sigdir.mkdir()
        fine = np.full((128, 3), 0.05)
        fine[40:80, 0] = 0.85
        fine[:, 2] = 1.0 - fine[:, :2].max(axis=1)
        coarse = np.full((64, 3), 0.05)
        coarse[20:40, 0] = 0.85
        coarse[:, 2] = 1.0 - coarse[:, :2].max(axis=1)
        save_signals(
            sigdir / "v0.json",
            [ProbabilitySignal("v0", 1, fine), ProbabilitySignal("v0", 2, coarse)],
        )
        save_records(tmp_path / "ann.json", PointAnnotation, [PointAnnotation("v0", 60, 1)])

        out_file = tmp_path / "labels.json"
        result = invoke(
            runner,
            [
                "adm",
                "--signals",
                str(sigdir),
                "--annotations",
                str(tmp_path / "ann.json"),
                "--out",
                str(out_file),
            ],
        )
        assert result.exit_code == 0
        labels = load_records(out_file, PseudoLabel)
        assert len(labels) == 1
        label = labels[0]
        # label lives on the level-1 grid and overlaps the true extent
        assert 0 <= label.start <= label.t_star <= label.end <= 127
        assert label.start < 80 and label.end > 40


def fails_cleanly(result, fragment):
    assert result.exit_code == 1
    assert "error: " in result.output and fragment in result.output
    assert isinstance(result.exception, SystemExit)  # not a traceback


def small_signal(video_id="v0", level=1, length=8, classes=2):
    values = np.full((length, classes + 1), 0.1)
    values[2:5, 0] = 0.9
    return ProbabilitySignal(video_id, level, values)


# malformed pyramids of one video, each as {level: (length, classes)}, with a fragment of the error it ends in
_MALFORMED_PYRAMIDS = {
    "longer-level": ({1: (64, 2), 2: (128, 2)}, "level 2 has 128 snippets"),
    "length-off-ratio": ({1: (64, 2), 2: (40, 2)}, "level 2 has 40 snippets"),
    "no-level-1": ({2: (32, 2), 3: (16, 2)}, "has no level 1"),
    "class-counts-differ": ({1: (16, 2), 2: (8, 3)}, "level 2 holds 3 classes where level 1 holds 2"),
}


class TestInconsistentPyramid:
    @pytest.mark.parametrize("case", _MALFORMED_PYRAMIDS)
    @pytest.mark.parametrize("command", ["adm", "adm-unannotated", "decode"])
    def test_rejected(self, runner, tmp_path, command, case):
        levels, fragment = _MALFORMED_PYRAMIDS[case]
        sigdir = tmp_path / "signals"
        sigdir.mkdir()
        # a well-formed video a0 comes first; v0 holds the malformed pyramid
        save_signals(sigdir / "a0.json", [small_signal("a0")])
        save_signals(sigdir / "v0.json", [small_signal(level=level, length=length, classes=classes)
                                          for level, (length, classes) in levels.items()])
        out_file = tmp_path / "out.json"
        args = [command.split("-")[0], "--signals", str(sigdir), "--out", str(out_file)]
        if command != "decode":
            annotated = "a0" if command == "adm-unannotated" else "v0"
            save_records(tmp_path / "ann.json", PointAnnotation, [PointAnnotation(annotated, 3, 1)])
            args += ["--annotations", str(tmp_path / "ann.json")]
        result = runner.invoke(main, args)
        fails_cleanly(result, fragment)
        assert "video 'v0'" in result.output
        assert not out_file.exists()


class TestLevelGivenTwice:
    @pytest.mark.parametrize("layout", ["one-json-file", "json-and-npz-files"])
    @pytest.mark.parametrize("command", ["adm", "decode"])
    def test_rejected(self, runner, tmp_path, layout, command):
        sigdir = tmp_path / "signals"
        sigdir.mkdir()
        if layout == "one-json-file":
            save_signals(sigdir / "v0.json", [small_signal(), small_signal(level=2), small_signal()])
        else:
            save_signals(sigdir / "v0.json", [small_signal()])
            save_signals(sigdir / "v0.npz", [small_signal()])
        out_file = tmp_path / "out.json"
        args = [command, "--signals", str(sigdir), "--out", str(out_file)]
        if command == "adm":
            save_records(tmp_path / "ann.json", PointAnnotation, [PointAnnotation("v0", 3, 1)])
            args += ["--annotations", str(tmp_path / "ann.json")]
        fails_cleanly(runner.invoke(main, args), "level 1 more than once")
        assert not out_file.exists()


def _npz_bytes(**arrays) -> bytes:
    buffer = io.BytesIO()
    np.savez(buffer, **arrays)
    return buffer.getvalue()


def _npy_bytes(array) -> bytes:
    buffer = io.BytesIO()
    np.save(buffer, array)
    return buffer.getvalue()


_LEVEL = np.full((4, 2), 0.5)
_VIDEO = np.array("v0")
_SIGNAL_RECORD = {"video_id": "v0", "level": 1, "length": 4, "num_classes": 1, "values": _LEVEL.tolist()}


class TestMalformedInput:
    """Wrong-typed or broken input files end in ``error: …`` with exit 1."""

    @pytest.mark.parametrize(
        "name, content, fragment",
        [
            ("v0.json", b"[3]", "malformed signal record: a record must be a JSON object, got 3"),
            ("v0.json", b"[[1, 2]]", "malformed signal record: a record must be a JSON object, got [1, 2]"),
            ("v0.json", b"null", "malformed signal record: a record must be a JSON object, got None"),
            ("v0.json", json.dumps([{**_SIGNAL_RECORD, "level": "one"}]).encode(), "malformed signal record"),
            ("v0.json", json.dumps([{**_SIGNAL_RECORD, "values": [[0.5, 0.5], [0.5]]}]).encode(),
             "malformed signal record: values must be rows of JSON numbers, all of one length"),
            ("v0.json", json.dumps([{**_SIGNAL_RECORD, "values": [[0.5, [0.5]], [0.5, 0.5]]}]).encode(),
             "malformed signal record: values must be rows of JSON numbers, all of one length"),
            ("v0.json", b"\x93NUMPY\xff binary", "malformed JSON"),
            ("v0.npz", b"", "malformed signal archive"),
            ("v0.npz", b"PK\x03\x04 truncated", "malformed signal archive"),
            ("v0.npz", b"plain text", "malformed signal archive"),
            ("v0.npz", _npy_bytes(_LEVEL), "not an .npz archive"),
            ("v0.npz", _npz_bytes(level_1=_LEVEL), "no video_id member"),
            ("v0.npz", _npz_bytes(video_id=_VIDEO), "no level_<k> member"),
            ("v0.npz", _npz_bytes(video_id=np.array(["v0"]), level_1=_LEVEL), "0-d string array"),
            ("v0.npz", _npz_bytes(video_id=_VIDEO, level_one=_LEVEL), "malformed signal archive"),
            ("v0.npz", _npz_bytes(video_id=_VIDEO, level_1=np.full(4, 0.5)), "values must have shape"),
            ("v0.npz", _npz_bytes(video_id=_VIDEO, level_1=_LEVEL.astype(str)), "not numbers"),
            ("v0.npz", _npz_bytes(video_id=_VIDEO, level_1=_LEVEL.astype(object)), "malformed signal archive"),
        ],
        ids=[
            "json-not-a-record", "json-array-record", "json-null", "json-level-not-int", "json-ragged-values",
            "json-nested-value", "json-binary",
            "npz-empty", "npz-bad-zip", "npz-not-a-zip", "npz-bare-npy", "npz-no-video-id", "npz-no-level",
            "npz-video-id-not-0d", "npz-level-name-not-int", "npz-level-1d", "npz-level-strings",
            "npz-level-objects",
        ],
    )
    def test_bad_signal_file(self, runner, tmp_path, name, content, fragment):
        path = tmp_path / name
        path.write_bytes(content)
        result = runner.invoke(main, ["decode", "--signals", str(path), "--out", str(tmp_path / "p.json")])
        fails_cleanly(result, fragment)
        assert not (tmp_path / "p.json").exists()

    @pytest.mark.parametrize("layout", ["file", "in-a-directory"])
    @pytest.mark.parametrize("command", ["adm", "decode"])
    def test_json_signal_file_without_a_record(self, runner, tmp_path, command, layout):
        # not a dataset of no videos, nor a file to skip beside the others
        signals = tmp_path / "signals"
        signals.mkdir()
        empty = signals / "e.json"
        empty.write_text("[]")
        if layout == "in-a-directory":
            save_signals(signals / "v0.npz", [small_signal()])
        out_file = tmp_path / "out.json"
        args = [command, "--signals", str(empty if layout == "file" else signals), "--out", str(out_file)]
        if command == "adm":
            (tmp_path / "ann.json").write_text("[]")
            args += ["--annotations", str(tmp_path / "ann.json")]
        fails_cleanly(runner.invoke(main, args), f"error: {empty}: a JSON signal file holds at least one signal record")
        assert not out_file.exists()

    @pytest.mark.parametrize(
        "records, fragment",
        [
            ([{"video_id": "v0", "t": "x", "class_id": 1}], "t must be a JSON integer, got 'x'"),
            ([{"video_id": "v0", "t": 1e999, "class_id": 1}], "t must be a JSON integer, got inf"),
            ([3], "a record must be a JSON object, got 3"),
            ([[1, 2]], "a record must be a JSON object, got [1, 2]"),
        ],
        ids=["t-not-a-number", "t-infinite", "record-not-an-object", "record-an-array"],
    )
    def test_bad_annotations(self, runner, tmp_path, records, fragment):
        save_signals(tmp_path / "v0.npz", [small_signal()])
        annotations = tmp_path / "ann.json"
        annotations.write_text(json.dumps(records))
        result = runner.invoke(
            main,
            ["adm", "--signals", str(tmp_path / "v0.npz"), "--annotations", str(annotations),
             "--out", str(tmp_path / "labels.json")],
        )
        fails_cleanly(result, f"malformed annotation record in {annotations}: {fragment}")

    _GT = [{"video_id": "v0", "start": 1, "end": 4, "class_id": 1}]

    @pytest.mark.parametrize("command", ["adm", "eval"])
    def test_deeply_nested_json(self, runner, tmp_path, command):
        # deeper than the parser can recurse
        nested = tmp_path / "nested.json"
        nested.write_bytes(b"[" * 200_000 + b"]" * 200_000)
        if command == "adm":
            save_records(tmp_path / "ann.json", PointAnnotation, [PointAnnotation("v0", 3, 1)])
            args = ["adm", "--signals", str(nested), "--annotations", str(tmp_path / "ann.json"),
                    "--out", str(tmp_path / "labels.json")]
        else:
            (tmp_path / "gt.json").write_text(json.dumps(self._GT))
            args = ["eval", str(nested), "--gt", str(tmp_path / "gt.json"),
                    "--out-json", str(tmp_path / "r.json"), "--out-csv", str(tmp_path / "r.csv")]
        fails_cleanly(runner.invoke(main, args), f"malformed JSON in {nested}: nested too deeply to parse")

    _LABEL = {"t": 2, "t_star": 2, "sigma": 1.0, "omega": 1.0, "delta": 1.0,
              "start": 1, "end": 3, "class_id": 1, "degenerate": False}

    @pytest.mark.parametrize(
        "gt, predictions, fragment",
        [
            ([{**_GT[0], "start": "a"}], [], "malformed ground-truth record"),
            (_GT, [{"video_id": "v0", "proposals": 5}], "proposals of video 'v0' must be a JSON array, got 5"),
            (_GT, [{"video_id": "v0", "proposals": "abc"}], "proposals of video 'v0' must be a JSON array, got 'abc'"),
            (_GT, [{"video_id": "v0", "proposals": {"a": 1}}],
             "proposals of video 'v0' must be a JSON array, got {'a': 1}"),
            (_GT, [{"video_id": "v0", "proposals": [3]}], "a record must be a JSON object, got 3"),
            (_GT, [{"video_id": "v0", "labels": [None]}], "a record must be a JSON object, got None"),
            (_GT, [[1, 2]], "a record must be a JSON object, got [1, 2]"),
            ([[1, 2]], [], "a record must be a JSON object, got [1, 2]"),
            ([3], [], "a record must be a JSON object, got 3"),
            (_GT, [{"video_id": "v0", "proposals": [{"start": 1, "end": 3, "class_id": 1, "score": [1]}]}],
             "malformed proposal record"),
            (_GT, [{"video_id": "v0", "proposals": [{"start": 1, "end": 3, "class_id": 1, "score": "x"}]}],
             "malformed proposal record"),
            (_GT, [{"video_id": "v0", "proposals": [{"start": 1, "end": 3, "class_id": 1, "score": float("nan")}]}],
             "score must be finite"),
            (_GT, [{"video_id": "v0", "proposals": [{"start": 1, "end": 3, "class_id": 1, "score": float("inf")}]}],
             "score must be finite"),
            (_GT, [{"video_id": "v0", "labels": [{**_LABEL, "sigma": "x"}]}], "malformed pseudo-label record"),
            (_GT, {"video_id": "v0"}, "must hold a JSON array"),
            # the file formats number classes from 1 and hold intervals with 0 <= start <= end
            ([{**_GT[0], "start": -4, "end": 9}], [], "instance must satisfy 0 <= start <= end, got [-4, 9]"),
            ([{**_GT[0], "class_id": 0}], [], "instance class_id must be >= 1, got 0"),
            (_GT, [{"video_id": "v0", "proposals": [{"start": 1, "end": 3, "class_id": -2, "score": 0.5}]}],
             "proposal class_id must be >= 1, got -2"),
            (_GT, [{"video_id": "v0", "labels": [{**_LABEL, "start": 7, "end": 3}]}],
             "pseudo-label must satisfy 0 <= start <= end, got [7, 3]"),
            (_GT, [{"video_id": "v0", "labels": [{**_LABEL, "class_id": 0}]}], "pseudo-label class_id must be >= 1, got 0"),
        ],
        ids=["gt-start-not-int", "proposals-not-a-list", "proposals-a-string", "proposals-an-object",
             "proposal-not-an-object", "label-not-an-object", "video-entry-an-array", "gt-record-an-array",
             "gt-record-a-number", "score-not-a-number", "score-string", "score-nan",
             "score-inf", "label-sigma-not-a-number", "input-not-an-array", "gt-start-negative", "gt-class-0",
             "proposal-class-negative", "label-start-after-end", "label-class-0"],
    )
    def test_bad_eval_input(self, runner, tmp_path, gt, predictions, fragment):
        gt_path, predictions_path = tmp_path / "gt.json", tmp_path / "predictions.json"
        gt_path.write_text(json.dumps(gt))
        predictions_path.write_text(json.dumps(predictions))
        result = runner.invoke(
            main,
            ["eval", str(predictions_path), "--gt", str(gt_path),
             "--out-json", str(tmp_path / "r.json"), "--out-csv", str(tmp_path / "r.csv")],
        )
        fails_cleanly(result, fragment)
        assert not (tmp_path / "r.json").exists()


# SHA-256 of every JSON/CSV output and of each command's stdout of a tiny
# synth → adm → eval → decode → eval run. ``.npz`` bytes are left out: their
# array headers come from numpy's writer.
PINNED_DIGESTS = {
    "data/annotations.json": "98dc409b717702569913fab92354292278c3a1f510223f75682fec15a54d5b9b",
    "data/gt.json": "04e1b233c59c3886b1d53b991465e5f150679a99fd201b1f4a9bb1121650fabc",
    "data/manifest.json": "88b7c58dfbdb4bc37952c52ef5c1f901fa160529fe818bb9c1924b38ebec53d1",
    "labels.json": "c14832f5a840f59f30417595c3bc3ef759571e391bfded6a25fb408f756afe20",
    "labels_eval.csv": "01c7bc2dce139fd00a9f2c4f2328d1860c18ec8c845502486cb01c139b025150",
    "labels_eval.json": "71c36723edd5cde471622f627ecef65b5e2faaf3620db5edd967f24fbf5247ae",
    "proposals.json": "eb3291025839cc3380ddaa252e79952e73e50cc6ea186acab9fdc87f81fe1e66",
    "proposals_eval.csv": "40edbbb4b94c1ad6b9b6f6ad581ac61c68dd86222517a9dbf0c826ef0d289414",
    "proposals_eval.json": "d6fb86057ae19de36f0a8f64f483a5cb70ecc88a26f80359786cdfac86607617",
    "stdout:adm": "3b4681d96c62a1904f3808c4fdeeeaacad3927472807056575b5f0b4c4214b6c",
    "stdout:decode": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "stdout:eval-labels": "8fbc90c7b980f0d2bd1dde928024587e85f4e8b65172bf94aad43adbdcb33059",
    "stdout:eval-proposals": "58ccf9e028182affa3e4bb3a29b73410e8374f3806540c7f0b8125d70e68793e",
    "stdout:synth": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
}


def test_pipeline_outputs_byte_pinned(runner, tmp_path):
    data = tmp_path / "data"
    commands = {
        "synth": synth_args(data, videos=4, noise="0.05"),
        "adm": ["adm", "--signals", str(data / "signals"), "--annotations", str(data / "annotations.json"),
                "--out", str(tmp_path / "labels.json")],
        "eval-labels": ["eval", str(tmp_path / "labels.json"), "--gt", str(data / "gt.json"),
                        "--out-json", str(tmp_path / "labels_eval.json"), "--out-csv", str(tmp_path / "labels_eval.csv")],
        "decode": ["decode", "--signals", str(data / "signals"), "--out", str(tmp_path / "proposals.json"),
                   "--top-k-fraction", "0.0625", "--class-threshold", "0.3"],
        "eval-proposals": ["eval", str(tmp_path / "proposals.json"), "--gt", str(data / "gt.json"),
                           "--out-json", str(tmp_path / "proposals_eval.json"),
                           "--out-csv", str(tmp_path / "proposals_eval.csv")],
    }
    digests = {}
    for name, args in commands.items():
        result = invoke(runner, args)
        assert result.exit_code == 0, result.output
        digests[f"stdout:{name}"] = hashlib.sha256(result.stdout.encode()).hexdigest()
    for path in sorted(tmp_path.rglob("*")):
        if path.suffix in (".json", ".csv"):
            digests[str(path.relative_to(tmp_path))] = hashlib.sha256(path.read_bytes()).hexdigest()
    assert digests == PINNED_DIGESTS


# SHA-256 of the ``--out`` report of each ``verify`` suite, keyed by suite and
# ``--samples``. At 5 samples a suite's search batch holds one lane; at 80 the
# fitting suite's grid check fits 2 columns and the oracle suite runs 8 minimizer lanes.
# The suites draw their cases from ``random.Random``; the oracle reports hold
# only counts and an AP gap of 0, so their digests match those of numpy's draws.
PINNED_VERIFY_DIGESTS = {
    ("fitting", 5): "5a85ee97395a3a2e2806d21527831e4b165e7cf7466dc63bcf2d8a0b308810c6",
    ("gradients", 5): "5514148e0ab2558142870eed48f63bd03f869aa396ecddf585bcf62a6f34ccbb",
    ("oracles", 5): "51771c0bba0bd86a8f5d599c93f74ae2115d1cfa5c2dab52f7d926d5e12a3ea6",
    ("fitting", 80): "4a2dff85bcad7ad3d4f08d1f2251103637677eb90a58824d747b3fc29de0c5cd",
    ("gradients", 80): "c24c64bf342e648c2e4af1c787872c3ecb31c4a5d79e0f857ea5595a2d392aab",
    ("oracles", 80): "626f77f83c9e9f38c7652362c272b869010022aeccc7e680e844bc1c3a77e748",
}


def test_verify_reports_byte_pinned(runner, tmp_path):
    digests = {}
    for suite, samples in PINNED_VERIFY_DIGESTS:
        out_file = tmp_path / f"{suite}-{samples}.json"
        result = invoke(runner, ["verify", suite, "--samples", str(samples), "--out", str(out_file)])
        assert result.exit_code == 0, result.output
        digests[suite, samples] = hashlib.sha256(out_file.read_bytes()).hexdigest()
    assert digests == PINNED_VERIFY_DIGESTS


def _pyramid_dataset(runner, tmp_path):
    """Synth data for 3 videos, plus a 3-level pyramid of their signals: level 2
    mean-pools pairs of level 1 (256 → 128 snippets), level 3 triples of level 2
    (128 → 42, so it covers 252 level-1 snippets)."""
    data, pyramid = tmp_path / "data", tmp_path / "pyramid"
    assert invoke(runner, synth_args(data, videos=3, noise="0.05")).exit_code == 0
    pyramid.mkdir()
    for signal in load_signals(data / "signals"):
        levels = [signal]
        for level, step in ((2, 2), (3, 3)):
            values = levels[-1].values
            pooled = values[: values.shape[0] // step * step].reshape(-1, step, values.shape[1]).mean(axis=1)
            levels.append(ProbabilitySignal(signal.video_id, level, pooled))
        save_signals(pyramid / f"{signal.video_id}.npz", levels)
    return data, pyramid


# SHA-256 of ``decode``'s output and stdout on the 3-level pyramid of
# ``_pyramid_dataset``, where the class threshold selects several classes per video.
PINNED_PYRAMID_DECODE_DIGESTS = {
    "proposals.json": "7578537c047de6d18d860f673eff9d16f68757b4ed6ad7b0a234ec1835da6e13",
    "stdout": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
}


def test_pyramid_decode_byte_pinned(runner, tmp_path):
    _, pyramid = _pyramid_dataset(runner, tmp_path)
    out_file = tmp_path / "proposals.json"
    result = invoke(runner, ["decode", "--signals", str(pyramid), "--out", str(out_file), "--class-threshold", "0.1"])
    assert result.exit_code == 0, result.output
    assert len({(p.video_id, p.class_id) for p in load_records(out_file, Proposal)}) > 3
    digests = {
        "proposals.json": hashlib.sha256(out_file.read_bytes()).hexdigest(),
        "stdout": hashlib.sha256(result.stdout.encode()).hexdigest(),
    }
    assert digests == PINNED_PYRAMID_DECODE_DIGESTS


# SHA-256 of ``adm``'s labels and stdout on the 3-level pyramid of
# ``_pyramid_dataset``: the fits run on level 3, smoothed and upsampled to 256 snippets.
PINNED_PYRAMID_ADM_DIGESTS = {
    "labels.json": "4ab3fcafc1aab3de368c049ed6be669cd2b85e86697ef62837d295464fd588cf",
    "stdout": "e237adc7fa6d047d4fd715a7300e830e7d581f1e2d433fa28dd9b75ff3864f89",
}


def test_pyramid_adm_byte_pinned(runner, tmp_path):
    data, pyramid = _pyramid_dataset(runner, tmp_path)
    out_file = tmp_path / "labels.json"
    result = invoke(
        runner, ["adm", "--signals", str(pyramid), "--annotations", str(data / "annotations.json"), "--out", str(out_file)]
    )
    assert result.exit_code == 0, result.output
    assert len(load_records(out_file, PseudoLabel)) > 3
    digests = {
        "labels.json": hashlib.sha256(out_file.read_bytes()).hexdigest(),
        "stdout": hashlib.sha256(result.stdout.encode()).hexdigest(),
    }
    assert digests == PINNED_PYRAMID_ADM_DIGESTS


def _command_args(tmp_path, command):
    """Valid arguments for ``command`` on a one-video input, so only the flag under test is wrong."""
    save_signals(tmp_path / "v0.npz", [small_signal(length=32)])
    save_records(tmp_path / "ann.json", PointAnnotation, [PointAnnotation("v0", 3, 1)])
    if command == "adm":
        return ["adm", "--signals", str(tmp_path / "v0.npz"), "--annotations", str(tmp_path / "ann.json"),
                "--out", str(tmp_path / "out.json")]
    if command == "decode":
        return ["decode", "--signals", str(tmp_path / "v0.npz"), "--out", str(tmp_path / "out.json")]
    return synth_args(tmp_path / "out", videos=2)


@pytest.mark.parametrize(
    "command, flag, value",
    [
        ("decode", "--class-threshold", "nan"),
        ("synth", "--shape-weights", "nan"),
        ("synth", "--noise-std", "nan"),
    ],
)
def test_non_finite_config_values_fail_cleanly(runner, tmp_path, command, flag, value):
    extra = [flag, value, "1", "1"] if flag == "--shape-weights" else [flag, value]
    result = runner.invoke(main, _command_args(tmp_path, command) + extra)
    fails_cleanly(result, f"must be finite, got {value}")
    assert not (tmp_path / "out.json").exists() and not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "command, flag, value, message",
    [
        ("adm", "--background-threshold", "nan", "background_threshold must be in (0, 1), got nan"),
        ("adm", "--background-threshold", "1.0", "background_threshold must be in (0, 1), got 1.0"),
        ("decode", "--top-k-fraction", "0", "top_k_fraction must be in (0, 1], got 0.0"),
        ("decode", "--top-k-fraction", "nan", "top_k_fraction must be in (0, 1], got nan"),
    ],
)
def test_threshold_values_outside_their_range_fail_cleanly(runner, tmp_path, command, flag, value, message):
    # label_videos and decode_videos check these, so the commands pass them on unchecked
    result = runner.invoke(main, _command_args(tmp_path, command) + [flag, value])
    fails_cleanly(result, message)
    assert not (tmp_path / "out.json").exists()


@pytest.mark.parametrize(
    "command, flag",
    [
        ("adm", "--fuse"),
        ("adm", "--clip-to-boundary"),
        ("decode", "--fuse"),
        ("adm", "--delta 0.25"),
        ("adm", "--gamma1 0.5"),
        ("adm", "--gamma2 0.5"),
        ("adm", "--smoothing-sigma 2.0"),
        ("adm", "--r-a 2"),
        ("decode", "--thresholds 0.1,0.5"),
        ("decode", "--oic-inflation 0.25"),
        ("decode", "--nms-tiou 0.45"),
    ],
)
def test_removed_flags_are_usage_errors(runner, tmp_path, command, flag):
    # no default used class-agnostic fusion or boundary clipping, and on synth both only lowered mAP;
    # no caller set the others away from their defaults, which are now module constants of adm and decoder
    result = runner.invoke(main, _command_args(tmp_path, command) + flag.split())
    assert result.exit_code == 2
    assert "No such option" in result.output and flag.split()[0] in result.output
    assert not (tmp_path / "out.json").exists()


def _readme_commands():
    """Each ``actionness <command> …`` line of the README's fenced blocks, continuations joined, as tokens."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    commands = []
    for block in re.findall(r"^```[^\n]*\n(.*?)^```", text, flags=re.M | re.S):
        for line in block.replace("\\\n", " ").splitlines():
            tokens = shlex.split(line, comments=True)
            if tokens[:1] == ["actionness"]:
                commands.append(tokens[1:])
    return commands


def test_readme_commands_use_only_real_flags():
    commands = _readme_commands()
    assert {tokens[0] for tokens in commands} == set(main.commands)
    for name, *args in commands:
        options = {opt for param in main.commands[name].params for opt in param.opts + param.secondary_opts}
        flags = {arg.split("=")[0] for arg in args if arg.startswith("--")}
        assert flags <= options, f"README runs {name} with {sorted(flags - options)}, which it does not take"


def test_readme_constants_are_defined_once_with_their_stated_values():
    # "`NAME` = <number>", or a chain "`A` = `B` = <number>" that states it of both; value lists
    # ("`THRESHOLDS` = 0.1, 0.2, …") and budgets written as powers ("= 2^16") are not read
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    number = r"-?\d+(?:\.\d+)?(?:[eE][+-]?\d+)?"
    stated: dict[str, set[str]] = {}
    for chain, value in re.findall(rf"((?:`[A-Z][A-Z0-9_]*` = )+)({number})(?![\d^]|\.\d|, ?\d)", text):
        for name in re.findall(r"`(\w+)`", chain):
            stated.setdefault(name, set()).add(value)
    assert set(stated) >= {
        "PEAK_WINDOW", "GAUSSIAN_WEIGHT", "UNIFORM_WEIGHT", "SMOOTHING_SIGMA", "AUGMENT_RADIUS", "OIC_INFLATION",
        "NMS_TIOU", "X_TOLERANCE", "MAX_ITERATIONS",
    }
    # every name each library module assigns at its top level
    owners: dict[str, list[str]] = {}
    for path in sorted(Path(actionness.__file__).parent.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
            for target in targets:
                if isinstance(target, ast.Name):
                    owners.setdefault(target.id, []).append(path.stem)
    for name, values in sorted(stated.items()):
        assert len(values) == 1, f"README states {name} as {sorted(values)}"
        (value,) = values
        assert len(owners.get(name, [])) == 1, f"README states {name}, which {owners.get(name, [])} define"
        actual = getattr(importlib.import_module(f"actionness.{owners[name][0]}"), name)
        assert actual == float(value), f"README states {name} = {value}, the library holds {actual}"


def _flat_adm_args(tmp_path):
    """``adm`` on one 64-snippet video whose class 1 is 0.9 throughout, with no background point: the
    peak of the point at 30 stays at 30, as every snippet of its window ties, and both fits reach its u_b
    of 33 snippets."""
    values = np.zeros((64, 3))
    values[:, 0] = 0.9
    save_signals(tmp_path / "v0.npz", [ProbabilitySignal("v0", 1, values)])
    save_records(tmp_path / "ann.json", PointAnnotation, [PointAnnotation("v0", 30, 1)])
    return ["adm", "--signals", str(tmp_path / "v0.npz"), "--annotations", str(tmp_path / "ann.json"),
            "--out", str(tmp_path / "out.json")]


def test_a_huge_finite_half_extent_clips_to_the_video(runner, tmp_path):
    # t* - 33 lies before the first snippet, and t* + 33 is the last
    result = invoke(runner, _flat_adm_args(tmp_path))
    assert result.exit_code == 0, result.output
    [label] = load_records(tmp_path / "out.json", PseudoLabel)
    assert (label.t_star, label.sigma, label.omega, label.delta) == (30, 33.0, 33.0, 33.0)
    assert (label.start, label.end) == (0, 63)


def test_adm_names_an_annotated_class_the_signal_lacks(runner, tmp_path):
    args = _command_args(tmp_path, "adm")
    save_records(tmp_path / "ann.json", PointAnnotation, [PointAnnotation("v0", 3, 1), PointAnnotation("v0", 9, 3)])
    result = runner.invoke(main, args)
    assert result.output == "error: class_id 3 outside [1, 2] for video 'v0'\n"
    fails_cleanly(result, "class_id 3 outside [1, 2] for video 'v0'")
    assert not (tmp_path / "out.json").exists()


def test_shortest_synth_video_labels_at_default_smoothing(runner, tmp_path):
    # 8 snippets, fewer than the default kernel's radius of 8 plus one: the reflections repeat
    # the later --length, --instances and --durations win
    assert invoke(runner, synth_args(tmp_path / "data", videos=2, extra=("--length", "8", "--instances", "1", "1", "--durations", "3", "4"))).exit_code == 0
    data = tmp_path / "data"
    result = invoke(runner, ["adm", "--signals", str(data / "signals"), "--annotations", str(data / "annotations.json"),
                             "--out", str(tmp_path / "labels.json")])
    assert result.exit_code == 0, result.output
    assert load_records(tmp_path / "labels.json", PseudoLabel)


def test_adm_labels_a_pyramid_whose_coarsest_level_has_one_snippet(runner, tmp_path):
    # levels of 8, 4, 2 and 1 snippets, each mean-pooling pairs of the one below: the fits read each
    # annotated class's one coarsest value, upsampled to a constant column of 8
    data, pyramid = tmp_path / "data", tmp_path / "pyramid"
    extra = ("--length", "8", "--classes", "2", "--instances", "1", "1", "--durations", "3", "4")
    assert invoke(runner, synth_args(data, videos=2, seed="1", extra=extra)).exit_code == 0
    pyramid.mkdir()
    signals = []
    for signal in load_signals(data / "signals"):
        levels = [signal]
        while levels[-1].length > 1:
            values = levels[-1].values
            levels.append(ProbabilitySignal(signal.video_id, len(levels) + 1, 0.5 * (values[0::2] + values[1::2])))
        save_signals(pyramid / f"{signal.video_id}.json", levels)
        signals += levels
    assert [signal.length for signal in levels] == [8, 4, 2, 1]
    annotations = load_records(data / "annotations.json", PointAnnotation)
    save_records(tmp_path / "expected.json", PseudoLabel, label_videos(signals, annotations))
    out = tmp_path / "labels.json"
    result = invoke(runner, ["adm", "--signals", str(pyramid), "--annotations", str(data / "annotations.json"),
                             "--out", str(out)])
    assert result.exit_code == 0, result.output
    assert out.read_bytes() == (tmp_path / "expected.json").read_bytes()
    assert len(load_records(out, PseudoLabel)) == len(annotations)
    result = invoke(runner, ["decode", "--signals", str(pyramid), "--out", str(tmp_path / "proposals.json")])
    assert result.exit_code == 0, result.output


@pytest.mark.parametrize("command, thresholds", [("eval", "0.7:0.1"), ("eval", "0.9:0.1"), ("eval", "0.5:0.2:0.1")])
def test_reversed_threshold_range_is_named(runner, tmp_path, command, thresholds):
    args = _library_args(runner, tmp_path, command)
    result = runner.invoke(main, [*args, "--thresholds", thresholds])
    fails_cleanly(result, f"threshold range {thresholds!r} runs backwards: its stop is below its start")
    assert not (tmp_path / "eval.json").exists() and not (tmp_path / "proposals.json").exists()


@pytest.mark.parametrize(
    "args, fragment",
    [
        (["synth", "--seed", "-1"], "seed must be >= 0, got -1"),
        (["synth", "--videos", "-3"], "videos must be >= 1, got -3"),
        (["synth", "--videos", "0"], "videos must be >= 1, got 0"),
        (["verify", "gradients", "--seed", "-1"], "gradients suite: seed must be >= 0, got -1"),
        (["verify", "fitting", "--seed", "-1"], "fitting suite: seed must be >= 0, got -1"),
        (["verify", "oracles", "--seed", "-2"], "oracles suite: seed must be >= 0, got -2"),
    ],
)
def test_negative_seeds_and_video_counts_fail_cleanly(runner, tmp_path, args, fragment):
    out = tmp_path / "out"
    if args[0] == "synth":
        args = synth_args(out) + args[1:]
    else:
        args = args + ["--samples", "2", "--out", str(out)]
    fails_cleanly(runner.invoke(main, args), fragment)
    assert not out.exists()


def test_a_video_count_no_list_can_hold_fails_at_once(tmp_path):
    # the manifest lists every video, so such a count is refused before any list is built; the child
    # runs with 2 GiB of address space and a time limit, so building the lists would fail this test
    # rather than fill the machine's memory
    out = tmp_path / "out"
    videos = 10**20
    limit = "import resource; resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30)); "
    child = subprocess.run(
        [sys.executable, "-c", limit + "import runpy; runpy.run_module('actionness.cli', run_name='__main__')",
         *synth_args(out, videos=videos)],
        env={**_child_env(), "OPENBLAS_NUM_THREADS": "1"}, capture_output=True, text=True, timeout=60,
    )
    assert child.returncode == 1
    assert child.stderr + child.stdout == f"error: videos must be at most {sys.maxsize // 8}, got {videos}\n"
    assert not out.exists()


def _child_env() -> dict:
    """The environment for a fresh interpreter that imports this checkout's ``actionness``."""
    source = str(Path(actionness.__file__).resolve().parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [source, os.environ.get("PYTHONPATH")]))}


# Runs ``python -m actionness.cli`` with the given arguments, then writes the size
# of the frozen heap and the names of every module the interpreter loaded as the
# last two lines of stderr. ``atexit`` runs the last-registered hook first, so
# this one runs after any the CLI registers.
_REPORT_MODULES = (
    "import atexit, gc, runpy, sys\n"
    "atexit.register(lambda: sys.stderr.write(\n"
    "    f'\\nfrozen: {gc.get_freeze_count()}\\nmodules: ' + ' '.join(sorted(sys.modules))))\n"
    "runpy.run_module('actionness.cli', run_name='__main__', alter_sys=True)\n"
)


def _exit_report(args) -> tuple[int, set[str]]:
    """How many objects a fresh ``python -m actionness.cli *args`` holds frozen at exit, and the modules it loads."""
    child = subprocess.run(
        [sys.executable, "-c", _REPORT_MODULES, *args], env=_child_env(), capture_output=True, text=True, check=True
    )
    frozen, modules = child.stderr.rsplit("\nfrozen: ", 1)[1].split("\nmodules: ")
    return int(frozen), set(modules.split())


def _loaded_modules(args) -> set[str]:
    """The modules a fresh ``python -m actionness.cli *args`` loads."""
    return _exit_report(args)[1]


def _library_args(runner, tmp_path, command) -> list[str]:
    """Arguments of one ``command`` run on a small synthetic dataset written under ``tmp_path``."""
    if command == "verify":
        return ["verify", "fitting", "--samples", "2", "--out", str(tmp_path / "fitting.json")]
    if command == "synth":
        return synth_args(tmp_path / "synth", videos=2)
    data = tmp_path / "data"
    assert invoke(runner, synth_args(data, videos=2)).exit_code == 0
    adm_args = ["adm", "--signals", str(data / "signals"), "--annotations", str(data / "annotations.json"),
                "--out", str(tmp_path / "labels.json")]
    if command == "adm":
        return adm_args
    if command == "decode":
        return ["decode", "--signals", str(data / "signals"), "--out", str(tmp_path / "proposals.json")]
    assert command == "eval", f"no arguments for {command}"
    assert invoke(runner, adm_args).exit_code == 0
    return ["eval", str(tmp_path / "labels.json"), "--gt", str(data / "gt.json"),
            "--out-json", str(tmp_path / "eval.json"), "--out-csv", str(tmp_path / "eval.csv")]


@pytest.mark.parametrize("command", ["--help", "adm", "eval"])
def test_heap_is_frozen_at_exit(runner, tmp_path, command):
    args = ["--help"] if command == "--help" else _library_args(runner, tmp_path, command)
    frozen, _ = _exit_report(args)
    assert frozen > 0


def test_json_is_read_as_utf8_whatever_the_locale(tmp_path):
    # UTF-8 files with a non-ASCII video id, read by a child whose locale encoding is ASCII
    gt = [{"video_id": "vidéo", "start": 1, "end": 4, "class_id": 1}]
    proposals = [{"video_id": "vidéo", "proposals": [{"start": 1, "end": 4, "class_id": 1, "score": 0.9}]}]
    for name, payload in (("gt.json", gt), ("proposals.json", proposals)):
        (tmp_path / name).write_bytes(json.dumps(payload, ensure_ascii=False).encode("utf-8"))
    env = {**_child_env(), "LC_ALL": "C", "PYTHONCOERCECLOCALE": "0", "PYTHONUTF8": "0"}
    child = subprocess.run(
        [sys.executable, "-m", "actionness.cli", "eval", str(tmp_path / "proposals.json"),
         "--gt", str(tmp_path / "gt.json"), "--thresholds", "0.5",
         "--out-json", str(tmp_path / "r.json"), "--out-csv", str(tmp_path / "r.csv")],
        env=env, capture_output=True, text=True,
    )
    assert child.returncode == 0, child.stderr
    assert child.stdout.splitlines()[-1] == "average 100.00%"


@pytest.mark.parametrize("command", ["adm", "verify"])
def test_fitting_leaves_numpy_ma_unimported(runner, tmp_path, command):
    assert "numpy.ma" not in _loaded_modules(_library_args(runner, tmp_path, command))


def test_help_loads_neither_numpy_nor_the_library():
    loaded = _loaded_modules(["--help"])
    assert "click" in loaded and not loaded & {"numpy", "json"}
    assert {name for name in loaded if name.startswith("actionness")} <= {
        "actionness", "actionness.cli", "actionness.errors"
    }


@pytest.mark.parametrize("command", ["--help", *sorted(main.commands)])
def test_no_command_loads_logging(runner, tmp_path, command):
    # INFO lines go through click; no command configures the process's loggers
    args = ["--help"] if command == "--help" else _library_args(runner, tmp_path, command)
    assert "logging" not in _loaded_modules(args)


@pytest.mark.parametrize("command", ["adm", "decode", "eval"])
def test_pipeline_commands_leave_verify_oracles_and_synth_unimported(runner, tmp_path, command):
    loaded = _loaded_modules(_library_args(runner, tmp_path, command))
    assert "actionness.storage" in loaded
    assert not loaded & {"actionness.verify", "actionness.oracles", "actionness.synth", "actionness.losses"}


@pytest.mark.parametrize("command", ["adm", "decode", "synth"])
def test_commands_that_score_nothing_leave_evaluation_unimported(runner, tmp_path, command):
    loaded = _loaded_modules(_library_args(runner, tmp_path, command))
    assert "actionness.records" in loaded and "actionness.evaluation" not in loaded


def test_decode_leaves_adm_and_optim_unimported(runner, tmp_path):
    loaded = _loaded_modules(_library_args(runner, tmp_path, "decode"))
    assert "actionness.decoder" in loaded and not loaded & {"actionness.adm", "actionness.optim"}


# per verify suite: modules it must load, and modules it must leave unimported
_VERIFY_MODULES = {
    "gradients": (
        {"files", "losses", "oracles"}, {"adm", "optim", "decoder", "evaluation", "records", "signal", "storage"}
    ),
    "fitting": ({"adm", "files", "optim", "oracles"}, {"decoder", "losses", "evaluation", "storage"}),
    "oracles": ({"decoder", "evaluation", "files", "optim", "oracles"}, {"adm", "losses", "storage"}),
}


@pytest.mark.parametrize("suite", sorted(_VERIFY_MODULES))
def test_each_verify_suite_loads_only_the_modules_it_checks(tmp_path, suite):
    loaded = _loaded_modules(["verify", suite, "--samples", "2", "--out", str(tmp_path / "report.json")])
    needed, unneeded = _VERIFY_MODULES[suite]
    assert {f"actionness.{name}" for name in needed} <= loaded
    assert not loaded & {f"actionness.{name}" for name in unneeded}


@pytest.mark.parametrize("command", ["synth", "adm", "decode", "eval", *(f"verify-{suite}" for suite in sorted(_VERIFY_MODULES))])
def test_only_synth_loads_numpy_random(runner, tmp_path, command):
    # synth draws its data from numpy's generator; the verify suites draw their cases from random.Random
    if command.startswith("verify-"):
        args = ["verify", command.removeprefix("verify-"), "--samples", "2", "--out", str(tmp_path / "report.json")]
    else:
        args = _library_args(runner, tmp_path, command)
    assert ("numpy.random" in _loaded_modules(args)) == (command == "synth")


def test_oracles_leave_adm_and_optim_unimported():
    # the reference implementations share no code with the fits they check
    script = "import sys, actionness.oracles; print(' '.join(sys.modules))"
    child = subprocess.run([sys.executable, "-c", script], env=_child_env(), capture_output=True, text=True, check=True)
    loaded = set(child.stdout.split())
    assert "actionness.oracles" in loaded and not loaded & {"actionness.adm", "actionness.optim"}


@pytest.mark.parametrize("command", sorted(main.commands))
def test_failures_end_in_an_error_line_and_restore_the_collector(runner, tmp_path, monkeypatch, command, collector):
    # every command writes JSON, so a failing write reaches each one's error path
    args = _library_args(runner, tmp_path, command)
    collects = []

    def failing_write(path, payload):
        collects.append(gc.isenabled())
        raise InvalidInputError(f"cannot write {Path(path).name}")

    # verify writes its report through files, every other command through storage
    monkeypatch.setattr(files if command == "verify" else storage, "write_json_atomic", failing_write)
    result = runner.invoke(main, args)
    assert gc.isenabled() is collector
    assert result.exit_code == 1 and isinstance(result.exception, SystemExit)
    assert result.stderr.startswith("error: cannot write ") and result.stderr.count("\n") == 1
    assert "Traceback" not in result.output
    assert collects == [False]


def test_closed_stdout_ends_quietly():
    # the report's reader is gone before verify writes it: click's main ends such a
    # command with exit 1 and no error line
    child = subprocess.Popen([sys.executable, "-m", "actionness.cli", "verify", "gradients", "--samples", "2"],
                             env=_child_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    child.stdout.close()
    assert child.wait() == 1
    assert child.stderr.read() == b""
    child.stderr.close()


def test_collector_is_paused_while_json_is_built_and_parsed(runner, tmp_path, monkeypatch):
    save_signals(tmp_path / "v0.json", [small_signal(length=32)])
    (tmp_path / "gt.json").write_text(json.dumps([{"video_id": "v0", "start": 2, "end": 4, "class_id": 1}]))
    states: dict[str, list[bool]] = {}

    def recording(name, func):
        def wrapper(*args, **kwargs):
            states.setdefault(name, []).append(gc.isenabled())
            return func(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(json, "loads", recording("loads", json.loads))
    monkeypatch.setattr(json, "dumps", recording("dumps", json.dumps))
    for args in (
        ["decode", "--signals", str(tmp_path / "v0.json"), "--out", str(tmp_path / "p.json")],
        ["eval", str(tmp_path / "p.json"), "--gt", str(tmp_path / "gt.json"),
         "--out-json", str(tmp_path / "r.json"), "--out-csv", str(tmp_path / "r.csv")],
    ):
        assert invoke(runner, args).exit_code == 0
        assert gc.isenabled()
    # decode parses its signals and writes proposals; eval parses the GT and the proposals and writes a report
    assert states == {"loads": [False, False, False], "dumps": [False, False]}


def _decode_args(tmp_path) -> list[str]:
    """Arguments of one ``decode`` of a one-video signal file written under ``tmp_path``."""
    save_signals(tmp_path / "v0.json", [small_signal()])
    return ["decode", "--signals", str(tmp_path / "v0.json"), "--out", str(tmp_path / "p.json")]


def test_log_level_is_read_by_each_command(runner, tmp_path, monkeypatch):
    # one process runs every command, as the tests and an in-process benchmark do:
    # an earlier command's level must not decide a later one's INFO line
    args = _decode_args(tmp_path)
    written = []
    for level in ("WARNING", "INFO", "DEBUG"):
        monkeypatch.setenv("ADM_LOG_LEVEL", level)
        written.append(invoke(runner, args).stderr)
    line = f"INFO actionness: decoded {len(load_records(tmp_path / 'p.json', Proposal))} proposals\n"
    assert written == ["", line, line]


@pytest.mark.parametrize("command", ["synth", "decode"])
def test_info_lines_of_a_child_command(tmp_path, command):
    # the bytes the standard logging format gave: "<level> <logger name>: <message>"
    runs = {}
    for level in ("INFO", None):
        env = {key: value for key, value in _child_env().items() if key != "ADM_LOG_LEVEL"}
        if level is not None:
            env["ADM_LOG_LEVEL"] = level.lower()
        args = synth_args(tmp_path / f"synth-{level}", videos=2) if command == "synth" else _decode_args(tmp_path)
        child = subprocess.run([sys.executable, "-m", "actionness.cli", *args], env=env, capture_output=True)
        assert child.returncode == 0, child.stderr
        runs[level] = child.stderr
    if command == "synth":
        line = f"INFO actionness: wrote 2 videos to {tmp_path / 'synth-INFO'}\n"
    else:
        line = f"INFO actionness: decoded {len(load_records(tmp_path / 'p.json', Proposal))} proposals\n"
    assert runs == {"INFO": line.encode(), None: b""}


def test_symlinked_output_keeps_its_link(runner, tmp_path):
    args = _decode_args(tmp_path)
    assert invoke(runner, args).exit_code == 0
    expected = (tmp_path / "p.json").read_bytes()
    target, link = tmp_path / "target.json", tmp_path / "link.json"
    target.write_bytes(b"old\n")
    link.symlink_to(target)
    assert invoke(runner, [*args[:-1], str(link)]).exit_code == 0
    assert link.is_symlink() and os.readlink(link) == str(target)
    assert target.read_bytes() == expected
    assert sorted(path.name for path in tmp_path.iterdir()) == ["link.json", "p.json", "target.json", "v0.json"]


def test_fifo_output_stays_a_fifo_and_its_reader_gets_the_bytes(runner, tmp_path):
    args = _decode_args(tmp_path)
    assert invoke(runner, args).exit_code == 0
    expected = (tmp_path / "p.json").read_bytes()
    fifo = tmp_path / "out.fifo"
    os.mkfifo(fifo)
    # the read end opens first, without waiting for a writer, so neither end blocks;
    # the bytes fit in the pipe's buffer
    reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
    try:
        assert invoke(runner, [*args[:-1], str(fifo)]).exit_code == 0
        received = os.read(reader, len(expected) + 1)
    finally:
        os.close(reader)
    assert received == expected
    assert stat.S_ISFIFO(fifo.stat().st_mode)
    assert sorted(path.name for path in tmp_path.iterdir()) == ["out.fifo", "p.json", "v0.json"]


def test_directory_output_ends_in_an_error_line(runner, tmp_path):
    args = _decode_args(tmp_path)
    out = tmp_path / "out"
    out.mkdir()
    fails_cleanly(runner.invoke(main, [*args[:-1], str(out)]), "Is a directory")
    assert sorted(path.name for path in tmp_path.iterdir()) == ["out", "v0.json"]
    assert list(out.iterdir()) == []


def _eval_args(runner, tmp_path, records) -> list[str]:
    """Arguments of one ``eval`` of the labels or the proposals of a small synthetic dataset."""
    args = _library_args(runner, tmp_path, "eval")
    if records == "proposals":
        data = tmp_path / "data"
        decode_args = ["decode", "--signals", str(data / "signals"), "--out", str(tmp_path / "proposals.json")]
        assert invoke(runner, decode_args).exit_code == 0
        args[1] = str(tmp_path / "proposals.json")
    return args


@pytest.mark.parametrize("records", ["labels", "proposals"])
def test_eval_loads_no_numpy(runner, tmp_path, records):
    loaded = _loaded_modules(_eval_args(runner, tmp_path, records))
    assert {"actionness.evaluation", "actionness.records", "actionness.storage"} <= loaded
    assert "numpy" not in loaded


def test_verify_suite_choices_are_the_suites():
    from actionness import cli, verify

    assert cli._VERIFY_SUITES == tuple(sorted(verify.SUITES))


# A child's ru_maxrss starts from its parent's RSS high-water mark (Linux carries
# it over fork and exec), so both children run from one small launcher process,
# not from this test process, whose peak is far higher. The bare start imports
# what ``verify`` imports (numpy and the library), which ``--help`` does not.
_MAXRSS_LAUNCHER = """
import os, subprocess, sys
for args in (["-c", "import actionness.verify"], ["-m", "actionness.cli", *sys.argv[1:]]):
    child = subprocess.Popen([sys.executable, *args], stdout=subprocess.DEVNULL)
    _, status, usage = os.wait4(child.pid, 0)
    if os.waitstatus_to_exitcode(status) != 0:
        sys.exit(f"{args} failed")
    print(usage.ru_maxrss)
"""


@pytest.mark.skipif(sys.platform != "linux", reason="reads ru_maxrss in KiB, as Linux reports it")
def test_verify_fitting_peak_memory_stays_near_a_bare_start(tmp_path):
    # the fitting suite's dense grids go in blocks of oracles.SCRATCH_ELEMENTS float64
    # elements, which keeps them to a few MiB whatever the grid and segment sizes
    launcher = subprocess.run(
        [sys.executable, "-c", _MAXRSS_LAUNCHER, "verify", "fitting", "--samples", "10",
         "--out", str(tmp_path / "fitting.json")],
        env=_child_env(), capture_output=True, text=True, check=True,
    )
    bare, fitting = (int(line) for line in launcher.stdout.split())
    assert fitting - bare <= 16 * 1024


@pytest.mark.skipif(sys.platform != "linux", reason="reads ru_maxrss in KiB, as Linux reports it")
def test_eval_peak_memory_stays_near_help(runner, tmp_path):
    # eval loads neither numpy nor the numeric modules, so it peaks near a start that loads click alone
    peaks = []
    for args in (["--help"], _eval_args(runner, tmp_path, "proposals")):
        launcher = subprocess.run(
            [sys.executable, "-c", _MAXRSS_LAUNCHER, *args], env=_child_env(), capture_output=True, text=True, check=True
        )
        peaks.append(int(launcher.stdout.split()[1]))
    help_peak, eval_peak = peaks
    assert eval_peak - help_peak <= 4 * 1024
