import hashlib
import io
import json
import os
import stat
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

import actionness
from actionness import synth
from actionness.adm import PseudoLabel
from actionness.cli import main
from actionness.decoder import Proposal
from actionness.errors import PackingError
from actionness.signal import PointAnnotation, ProbabilitySignal
from actionness.storage import (
    load_ground_truth,
    load_json,
    load_proposals,
    load_pseudo_labels,
    load_signals,
    save_annotations,
    save_proposals,
    save_pseudo_labels,
    save_signals,
)


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
        labels = load_pseudo_labels(out_file)
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
        save_annotations(tmp_path / "ann.json", [PointAnnotation("v0", 3, 1)])
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
        proposals = load_proposals(out_file)
        gt = load_ground_truth(data / "gt.json")
        assert len(proposals) == len(gt)

    def test_empty_signal_dir_gives_empty_proposals(self, runner, tmp_path):
        empty = tmp_path / "signals"
        empty.mkdir()
        out_file = tmp_path / "proposals.json"
        result = invoke(runner, ["decode", "--signals", str(empty), "--out", str(out_file)])
        assert result.exit_code == 0
        assert load_json(out_file) == []

    def test_bad_flag_is_usage_error(self, runner, tmp_path):
        result = runner.invoke(main, ["decode", "--signals", "x", "--out", "y", "--bogus"])
        assert result.exit_code == 2

    @pytest.mark.parametrize("thresholds", ["0.1:0.7:0", "abc", "0.1:0.7:1e-12"])
    def test_bad_thresholds_fail_cleanly(self, runner, tmp_path, thresholds):
        result = runner.invoke(
            main, ["decode", "--signals", str(tmp_path), "--out", str(tmp_path / "p.json"), "--thresholds", thresholds]
        )
        assert result.exit_code == 1
        assert "error: " in result.output
        assert isinstance(result.exception, SystemExit)  # not a traceback

    def test_threshold_range_stops_at_stop(self, runner, tmp_path):
        # 0.1:0.9:0.5 is 0.1 and 0.6; a rounded count would add 1.1, which decode rejects
        empty = tmp_path / "signals"
        empty.mkdir()
        result = invoke(runner, ["decode", "--signals", str(empty), "--out", str(tmp_path / "p.json"),
                                 "--thresholds", "0.1:0.9:0.5"])
        assert result.exit_code == 0, result.output

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
        save_proposals(proposals_path, proposals)
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
        save_proposals(proposals_path, swapped)
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
        save_proposals(tmp_path / "proposals.json", [Proposal("v0", 5, 20, 1, 0.9)])
        save_pseudo_labels(tmp_path / "labels.json", [PseudoLabel("v0", 10, 10, 3.0, 5.0, 8.0, 5, 20, 1)])
        parsed = []
        parse = json.load

        def counting_parse(handle, **kwargs):
            parsed.append(Path(handle.name).name)
            return parse(handle, **kwargs)

        monkeypatch.setattr(json, "load", counting_parse)
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
        save_annotations(tmp_path / "ann.json", [PointAnnotation("v0", 60, 1)])

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
        labels = load_pseudo_labels(out_file)
        assert len(labels) == 1
        label = labels[0]
        # label lives on the level-1 grid and overlaps the true extent
        assert 0 <= label.start <= label.t_star <= label.end <= 127
        assert label.start < 80 and label.end > 40


def fails_cleanly(result, fragment):
    assert result.exit_code == 1
    assert "error: " in result.output and fragment in result.output
    assert isinstance(result.exception, SystemExit)  # not a traceback


def small_signal(video_id="v0", level=1, length=8):
    values = np.full((length, 3), 0.1)
    values[2:5, 0] = 0.9
    return ProbabilitySignal(video_id, level, values)


class TestInconsistentPyramid:
    @pytest.mark.parametrize(
        "command, lengths, fragment",
        [
            ("adm", {1: 64, 2: 128}, "level 2 has 128 snippets"),
            ("adm", {1: 64, 2: 40}, "level 2 has 40 snippets"),
            ("decode", {1: 64, 2: 128}, "level 2 has 128 snippets"),
            ("decode", {1: 64, 2: 40}, "level 2 has 40 snippets"),
            ("decode", {2: 32, 3: 16}, "has no level 1"),
        ],
        ids=["adm-longer-level", "adm-length-off-ratio", "decode-longer-level", "decode-length-off-ratio",
             "decode-no-level-1"],
    )
    def test_rejected(self, runner, tmp_path, command, lengths, fragment):
        save_signals(tmp_path / "v0.json", [small_signal(level=level, length=length) for level, length in lengths.items()])
        out_file = tmp_path / "out.json"
        args = [command, "--signals", str(tmp_path / "v0.json"), "--out", str(out_file)]
        if command == "adm":
            save_annotations(tmp_path / "ann.json", [PointAnnotation("v0", 3, 1)])
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
            save_annotations(tmp_path / "ann.json", [PointAnnotation("v0", 3, 1)])
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
            ("v0.json", b"[3]", "malformed signal record"),
            ("v0.json", json.dumps([{**_SIGNAL_RECORD, "level": "one"}]).encode(), "malformed signal record"),
            ("v0.json", json.dumps([{**_SIGNAL_RECORD, "values": [[0.5, 0.5], [0.5]]}]).encode(),
             "malformed signal record"),
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
            "json-not-a-record", "json-level-not-int", "json-ragged-values", "json-binary",
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

    @pytest.mark.parametrize(
        "records",
        [[{"video_id": "v0", "t": "x", "class_id": 1}], [{"video_id": "v0", "t": 1e999, "class_id": 1}], [3]],
        ids=["t-not-a-number", "t-infinite", "record-not-an-object"],
    )
    def test_bad_annotations(self, runner, tmp_path, records):
        save_signals(tmp_path / "v0.npz", [small_signal()])
        annotations = tmp_path / "ann.json"
        annotations.write_text(json.dumps(records))
        result = runner.invoke(
            main,
            ["adm", "--signals", str(tmp_path / "v0.npz"), "--annotations", str(annotations),
             "--out", str(tmp_path / "labels.json")],
        )
        fails_cleanly(result, "malformed annotation record")

    @pytest.mark.parametrize(
        "records", [[], [{"video_id": "v0", "t": 3, "class_id": 1}]], ids=["no-annotations", "one-annotation"]
    )
    def test_negative_r_a(self, runner, tmp_path, records):
        # rejected with the other settings, before any annotation is read
        save_signals(tmp_path / "v0.npz", [small_signal()])
        annotations = tmp_path / "ann.json"
        annotations.write_text(json.dumps(records))
        out_file = tmp_path / "labels.json"
        result = runner.invoke(
            main,
            ["adm", "--signals", str(tmp_path / "v0.npz"), "--annotations", str(annotations),
             "--out", str(out_file), "--r-a", "-1"],
        )
        fails_cleanly(result, "r_a must be >= 0, got -1")
        assert not out_file.exists()

    _GT = [{"video_id": "v0", "start": 1, "end": 4, "class_id": 1}]
    _LABEL = {"t": 2, "t_star": 2, "sigma": 1.0, "omega": 1.0, "delta": 1.0,
              "start": 1, "end": 3, "class_id": 1, "degenerate": False}

    @pytest.mark.parametrize(
        "gt, predictions, fragment",
        [
            ([{**_GT[0], "start": "a"}], [], "malformed ground-truth record"),
            (_GT, [{"video_id": "v0", "proposals": 5}], "malformed proposal record"),
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
        ],
        ids=["gt-start-not-int", "proposals-not-a-list", "score-not-a-number", "score-string", "score-nan",
             "score-inf", "label-sigma-not-a-number", "input-not-an-array"],
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
    "labels_eval.json": "906298b4fdbd1f05c276cfb64f13794ec233297b740f138b925dbccb4c887741",
    "proposals.json": "a5fc8b72a6048fcb3aaafd4511f052cfa5c668a14529e9d9f5e3c019ef9cda8c",
    "proposals_eval.csv": "b6792bdb9477d2b2f79f0af2bdd9259099b224c47f79f735fd6548d5bf0584a8",
    "proposals_eval.json": "4d8f146c0a519c1becddb45897d2142dd880a1e600f44b38a7106afb2598396c",
    "stdout:adm": "3b4681d96c62a1904f3808c4fdeeeaacad3927472807056575b5f0b4c4214b6c",
    "stdout:decode": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "stdout:eval-labels": "8fbc90c7b980f0d2bd1dde928024587e85f4e8b65172bf94aad43adbdcb33059",
    "stdout:eval-proposals": "dc8b11e0887db0b4041f0fdc88a2909da5bc38a3235d9c97cb556f677109f104",
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
PINNED_VERIFY_DIGESTS = {
    ("fitting", 5): "bef37705176d36691343fc5e30afde988bf5b0d6a7b34fae44132fe6e72b0158",
    ("gradients", 5): "eff8835d360a97bf66db2f42e8937047086824914d6a7e454611b6a3b06c704f",
    ("oracles", 5): "51771c0bba0bd86a8f5d599c93f74ae2115d1cfa5c2dab52f7d926d5e12a3ea6",
    ("fitting", 80): "42511533ed3066c1c1ad2181ea5f42b636a9ef703cc7513c3be35706b52f6263",
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
    "proposals.json": "6e91c889426c5839870dd1dc2ef60e626fa9119a792e12d35e238df0f4dcafad",
    "stdout": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
}


def test_pyramid_decode_byte_pinned(runner, tmp_path):
    _, pyramid = _pyramid_dataset(runner, tmp_path)
    out_file = tmp_path / "proposals.json"
    result = invoke(runner, ["decode", "--signals", str(pyramid), "--out", str(out_file), "--class-threshold", "0.1"])
    assert result.exit_code == 0, result.output
    assert len({(p.video_id, p.class_id) for p in load_proposals(out_file)}) > 3
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
    assert len(load_pseudo_labels(out_file)) > 3
    digests = {
        "labels.json": hashlib.sha256(out_file.read_bytes()).hexdigest(),
        "stdout": hashlib.sha256(result.stdout.encode()).hexdigest(),
    }
    assert digests == PINNED_PYRAMID_ADM_DIGESTS


def _command_args(tmp_path, command):
    """Valid arguments for ``command`` on a one-video input, so only the flag under test is wrong."""
    save_signals(tmp_path / "v0.npz", [small_signal(length=32)])
    save_annotations(tmp_path / "ann.json", [PointAnnotation("v0", 3, 1)])
    if command == "adm":
        return ["adm", "--signals", str(tmp_path / "v0.npz"), "--annotations", str(tmp_path / "ann.json"),
                "--out", str(tmp_path / "out.json")]
    if command == "decode":
        return ["decode", "--signals", str(tmp_path / "v0.npz"), "--out", str(tmp_path / "out.json")]
    return synth_args(tmp_path / "out", videos=2)


@pytest.mark.parametrize(
    "command, flag, value",
    [
        ("adm", "--gamma1", "nan"),
        ("adm", "--gamma2", "inf"),
        ("adm", "--smoothing-sigma", "nan"),
        ("adm", "--smoothing-sigma", "inf"),
        ("decode", "--oic-inflation", "nan"),
        ("decode", "--oic-inflation", "inf"),
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


def _child_env() -> dict:
    """The environment for a fresh interpreter that imports this checkout's ``actionness``."""
    source = str(Path(actionness.__file__).resolve().parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [source, os.environ.get("PYTHONPATH")]))}


# Runs one command in this interpreter, then says whether numpy's lazily imported ``numpy.ma`` got loaded.
_REPORT_NUMPY_MA = (
    "import sys\n"
    "from actionness.cli import main\n"
    "main(sys.argv[1:], standalone_mode=False)\n"
    "sys.stderr.write('numpy.ma: ' + str('numpy.ma' in sys.modules))\n"
)


@pytest.mark.parametrize("command", ["adm", "verify"])
def test_fitting_leaves_numpy_ma_unimported(runner, tmp_path, command):
    if command == "adm":
        data = tmp_path / "data"
        assert invoke(runner, synth_args(data, videos=2)).exit_code == 0
        args = ["adm", "--signals", str(data / "signals"), "--annotations", str(data / "annotations.json"),
                "--out", str(tmp_path / "labels.json")]
    else:
        args = ["verify", "fitting", "--samples", "2", "--out", str(tmp_path / "fitting.json")]
    child = subprocess.run(
        [sys.executable, "-c", _REPORT_NUMPY_MA, *args], env=_child_env(), capture_output=True, text=True, check=True
    )
    assert child.stderr.endswith("numpy.ma: False")


# A child's ru_maxrss starts from its parent's RSS high-water mark (Linux carries
# it over fork and exec), so both commands run from one small launcher process,
# not from this test process, whose peak is far higher.
_MAXRSS_LAUNCHER = """
import os, subprocess, sys
for argv in (["--help"], sys.argv[1:]):
    child = subprocess.Popen([sys.executable, "-m", "actionness.cli", *argv], stdout=subprocess.DEVNULL)
    _, status, usage = os.wait4(child.pid, 0)
    if os.waitstatus_to_exitcode(status) != 0:
        sys.exit(f"{argv} failed")
    print(usage.ru_maxrss)
"""


@pytest.mark.skipif(sys.platform != "linux", reason="reads ru_maxrss in KiB, as Linux reports it")
def test_verify_fitting_peak_memory_stays_near_a_bare_start(tmp_path):
    # the fitting suite's dense grids go in blocks of adm.SCRATCH_ELEMENTS float64
    # elements, which keeps them to a few MiB whatever the grid and segment sizes
    launcher = subprocess.run(
        [sys.executable, "-c", _MAXRSS_LAUNCHER, "verify", "fitting", "--samples", "10",
         "--out", str(tmp_path / "fitting.json")],
        env=_child_env(), capture_output=True, text=True, check=True,
    )
    bare, fitting = (int(line) for line in launcher.stdout.split())
    assert fitting - bare <= 16 * 1024
