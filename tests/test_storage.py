import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from actionness.adm import PseudoLabel
from actionness.decoder import Proposal
from actionness.errors import InvalidInputError
from actionness.evaluation import EvalReport, GroundTruthInstance
from actionness.signal import PointAnnotation, ProbabilitySignal
from actionness.storage import (
    load_annotations,
    load_eval_input,
    load_ground_truth,
    load_proposals,
    load_pseudo_labels,
    load_signals,
    save_annotations,
    save_ground_truth,
    save_proposals,
    save_pseudo_labels,
    save_report_csv,
    save_report_json,
    save_signals,
    signal_from_dict,
    signal_to_dict,
    write_json_atomic,
)


def test_signal_round_trip(tmp_path):
    rng = np.random.default_rng(61)
    signal = ProbabilitySignal("v0", 2, rng.uniform(0, 1, (12, 4)))
    path = tmp_path / "signal.json"
    save_signals(path, [signal])
    loaded = load_signals(path)
    assert len(loaded) == 1
    assert loaded[0].video_id == "v0"
    assert loaded[0].level == 2
    assert np.array_equal(loaded[0].values, signal.values)


def test_signal_directory_loading(tmp_path):
    rng = np.random.default_rng(62)
    for name, suffix in (("c", ".json"), ("b", ".npz"), ("a", ".json")):
        save_signals(tmp_path / f"{name}{suffix}", [ProbabilitySignal(name, 1, rng.uniform(0, 1, (4, 3)))])
    (tmp_path / "notes.txt").write_text("not a signal")
    loaded = load_signals(tmp_path)
    assert [s.video_id for s in loaded] == ["a", "b", "c"]  # sorted by filename, both formats


# No trailing NUL: numpy's fixed-width strings drop it, so .npz refuses such ids (tested below).
video_ids = st.text(st.characters(blacklist_categories=("Cs",)), max_size=12).filter(
    lambda text: not text.endswith("\x00")
)
level_values = st.tuples(st.integers(1, 20), st.integers(2, 5)).flatmap(
    lambda shape: hnp.arrays(np.float64, shape, elements=st.floats(0.0, 1.0))
)


@settings(max_examples=60, deadline=None)
@given(
    video_id=video_ids,
    levels=st.lists(st.tuples(st.integers(1, 6), level_values), min_size=1, max_size=4, unique_by=lambda lv: lv[0]),
)
def test_signals_round_trip_bit_equal_in_both_formats(video_id, levels):
    signals = [ProbabilitySignal(video_id, level, values) for level, values in levels]
    expected = sorted(signals, key=lambda s: s.level)
    with tempfile.TemporaryDirectory() as tmp:
        for suffix in (".json", ".npz"):
            path = Path(tmp) / f"v{suffix}"
            save_signals(path, signals)
            loaded = sorted(load_signals(path), key=lambda s: s.level)
            assert [(s.video_id, s.level) for s in loaded] == [(s.video_id, s.level) for s in expected]
            for got, want in zip(loaded, expected):
                assert got.values.dtype == np.float64
                assert got.values.shape == want.values.shape
                assert got.values.tobytes() == want.values.tobytes()
        first = (Path(tmp) / "v.npz").read_bytes()
        save_signals(Path(tmp) / "again.npz", list(reversed(signals)))
        assert (Path(tmp) / "again.npz").read_bytes() == first


def test_npz_layout(tmp_path):
    values = np.random.default_rng(63).uniform(0, 1, (6, 3))
    path = tmp_path / "v0.npz"
    save_signals(path, [ProbabilitySignal("v0", 2, values[::2]), ProbabilitySignal("v0", 1, values)])
    with np.load(path, allow_pickle=False) as archive:
        assert archive.files == ["video_id", "level_1", "level_2"]
        assert archive["video_id"].shape == () and str(archive["video_id"]) == "v0"
        assert np.array_equal(archive["level_1"], values)
        assert np.array_equal(archive["level_2"], values[::2])


@pytest.mark.parametrize(
    "signals",
    [
        [],
        [ProbabilitySignal("a", 1, np.zeros((2, 2))), ProbabilitySignal("b", 1, np.zeros((2, 2)))],
        [ProbabilitySignal("a", 1, np.zeros((2, 2))), ProbabilitySignal("a", 1, np.zeros((2, 2)))],
    ],
    ids=["no-video", "two-videos", "level-twice"],
)
def test_npz_holds_one_video_with_distinct_levels(tmp_path, signals):
    with pytest.raises(InvalidInputError):
        save_signals(tmp_path / "v.npz", signals)
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("video_id", ["v\x00", "\x00", "v\x00\x00"])
def test_npz_rejects_video_id_with_trailing_nul(tmp_path, video_id):
    signal = ProbabilitySignal(video_id, 1, np.zeros((2, 2)))
    with pytest.raises(InvalidInputError, match="cannot be stored in an .npz file"):
        save_signals(tmp_path / "v.npz", [signal])
    assert list(tmp_path.iterdir()) == []
    save_signals(tmp_path / "v.json", [signal])  # JSON keeps the id
    assert load_signals(tmp_path / "v.json")[0].video_id == video_id


def test_json_is_compact_sorted_and_newline_terminated(tmp_path):
    path = tmp_path / "out.json"
    payload = {"b": [1, 2.5], "a": {"y": None, "x": "s"}}
    write_json_atomic(path, payload)
    assert path.read_text() == '{"a": {"x": "s", "y": null}, "b": [1, 2.5]}\n'


def test_signal_declared_dimensions_checked():
    payload = signal_to_dict(ProbabilitySignal("v0", 1, np.zeros((4, 3))))
    payload["length"] = 99
    with pytest.raises(InvalidInputError):
        signal_from_dict(payload)


def test_malformed_json_raises(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{broken")
    with pytest.raises(InvalidInputError):
        load_signals(path)


def test_annotation_round_trip(tmp_path):
    points = [PointAnnotation("v0", 3, 1), PointAnnotation("v1", 7, 2)]
    path = tmp_path / "annotations.json"
    save_annotations(path, points)
    assert load_annotations(path) == points


def test_ground_truth_round_trip(tmp_path):
    instances = [GroundTruthInstance("v0", 1, 9, 2)]
    path = tmp_path / "gt.json"
    save_ground_truth(path, instances)
    assert load_ground_truth(path) == instances


def test_pseudo_label_round_trip_and_schema(tmp_path):
    labels = [
        PseudoLabel("v1", 10, 12, 3.5, 4.0, 7.5, 5, 20, 2, False),
        PseudoLabel("v0", 4, 4, 1e-6, 0.0, 5e-7, 4, 4, 1, True),
    ]
    path = tmp_path / "labels.json"
    save_pseudo_labels(path, labels)
    payload = json.loads(path.read_text())
    assert [record["video_id"] for record in payload] == ["v0", "v1"]
    assert set(payload[0]["labels"][0]) == {
        "t", "t_star", "sigma", "omega", "delta", "start", "end", "class_id", "degenerate",
    }
    reloaded = load_pseudo_labels(path)
    assert sorted(reloaded, key=lambda l: l.video_id) == sorted(labels, key=lambda l: l.video_id)


def test_proposal_round_trip_and_schema(tmp_path):
    proposals = [Proposal("v0", 3, 9, 1, 0.75), Proposal("v0", 12, 20, 2, 0.5)]
    path = tmp_path / "proposals.json"
    save_proposals(path, proposals)
    payload = json.loads(path.read_text())
    assert payload[0]["video_id"] == "v0"
    assert set(payload[0]["proposals"][0]) == {"start", "end", "class_id", "score"}
    assert load_proposals(path) == proposals


finite = st.floats(allow_nan=False, allow_infinity=False)
# a few shared ids, so videos hold several records, plus arbitrary text
ids = st.sampled_from(["v0", "v1", "v2"]) | st.text(st.characters(blacklist_categories=("Cs",)), max_size=6)
indices = st.integers(0, 10**6)
class_ids = st.integers(1, 100)


@st.composite
def spans(draw):
    start = draw(indices)
    return start, start + draw(st.integers(0, 1000))


annotations = st.builds(PointAnnotation, ids, indices, class_ids)
instances = spans().flatmap(lambda span: st.builds(GroundTruthInstance, ids, st.just(span[0]), st.just(span[1]), class_ids))
pseudo_labels = st.builds(
    PseudoLabel, ids, indices, indices, finite, finite, finite, indices, indices, class_ids, st.booleans(),
    gaussian_error=finite, uniform_error=finite,
)
proposals = spans().flatmap(lambda span: st.builds(Proposal, ids, st.just(span[0]), st.just(span[1]), class_ids, finite))
CODECS = {
    "annotations": (save_annotations, load_annotations, annotations, False),
    "ground-truth": (save_ground_truth, load_ground_truth, instances, False),
    "pseudo-labels": (save_pseudo_labels, load_pseudo_labels, pseudo_labels, True),
    "proposals": (save_proposals, load_proposals, proposals, True),
}


@pytest.mark.parametrize("kind", sorted(CODECS))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_records_round_trip_and_rewrite_to_identical_bytes(kind, data):
    save, load, records, grouped = CODECS[kind]
    items = data.draw(st.lists(records, max_size=8))
    # grouped layouts list videos in sorted id order, each video's records in their given order
    expected = sorted(items, key=lambda item: item.video_id) if grouped else items
    with tempfile.TemporaryDirectory() as tmp:
        first, second = Path(tmp) / "first.json", Path(tmp) / "second.json"
        save(first, items)
        loaded = load(first)
        assert loaded == expected
        save(second, loaded)
        assert second.read_bytes() == first.read_bytes()


def test_eval_input_kind_comes_from_the_file(tmp_path):
    label = PseudoLabel("v0", 10, 10, 3.0, 5.0, 8.0, 5, 20, 1)
    proposal = Proposal("v0", 5, 20, 1, 0.5)
    save_pseudo_labels(tmp_path / "labels.json", [label])
    save_proposals(tmp_path / "proposals.json", [proposal])
    write_json_atomic(tmp_path / "no_labels.json", [{"video_id": "v0", "labels": []}])
    write_json_atomic(tmp_path / "empty.json", [])
    assert load_eval_input(tmp_path / "labels.json") == ("pseudo-label", [label])
    assert load_eval_input(tmp_path / "proposals.json") == ("proposal", [proposal])
    assert load_eval_input(tmp_path / "no_labels.json") == ("pseudo-label", [])
    assert load_eval_input(tmp_path / "empty.json") == ("proposal", [])


def test_report_json_and_csv(tmp_path):
    report = EvalReport(
        thresholds=[0.1, 0.2],
        ap={(1, 0.1): 1.0, (1, 0.2): 0.5, (2, 0.1): 0.25, (2, 0.2): 0.0},
        map_at={0.1: 0.625, 0.2: 0.25},
        average_map=0.4375,
    )
    json_path = tmp_path / "report.json"
    csv_path = tmp_path / "report.csv"
    save_report_json(json_path, report)
    save_report_csv(csv_path, report)
    payload = json.loads(json_path.read_text())
    assert payload["average_map"] == 0.4375
    assert payload["ap"]["1"]["0.1"] == 1.0
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "tiou,class_1,class_2,mAP"
    assert len(lines) == 3


def test_writes_are_atomic_no_temp_left(tmp_path):
    path = tmp_path / "out.json"
    save_annotations(path, [PointAnnotation("v0", 1, 1)])
    save_signals(tmp_path / "v0.npz", [ProbabilitySignal("v0", 1, np.zeros((2, 2)))])
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out.json", "v0.npz"]
