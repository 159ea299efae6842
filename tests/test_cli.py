import json
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from actionness.cli import main
from actionness.decoder import Proposal
from actionness.storage import (
    load_ground_truth,
    load_json,
    load_proposals,
    load_pseudo_labels,
    save_proposals,
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
        assert len(list((out / "signals").glob("*.json"))) == 6

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

    @pytest.mark.parametrize("thresholds", ["0.1:0.7:0", "abc"])
    def test_bad_thresholds_fail_cleanly(self, runner, tmp_path, thresholds):
        result = runner.invoke(
            main, ["decode", "--signals", str(tmp_path), "--out", str(tmp_path / "p.json"), "--thresholds", thresholds]
        )
        assert result.exit_code == 1
        assert "error: " in result.output
        assert isinstance(result.exception, SystemExit)  # not a traceback

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

    @pytest.mark.parametrize("thresholds", ["0.1:0.7:0", "abc"])
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


class TestAdmMultiLevel:
    def test_coarse_level_upsampled_to_reference_grid(self, runner, tmp_path):
        from actionness.signal import PointAnnotation, ProbabilitySignal
        from actionness.storage import save_annotations, save_signals

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
