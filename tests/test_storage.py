import gc
import json
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from actionness import files
from actionness.adm import PseudoLabel
from actionness.decoder import Proposal
from actionness.errors import InvalidInputError
from actionness.evaluation import EvalReport, GroundTruthInstance
from actionness.signal import PointAnnotation, ProbabilitySignal
from actionness.storage import (
    load_eval_input,
    load_json,
    load_records,
    load_signals,
    save_records,
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


def test_signal_directory_without_signal_files_rejected(tmp_path):
    (tmp_path / "notes.txt").write_text("not a signal")
    with pytest.raises(InvalidInputError, match=re.escape(f"{tmp_path}: the directory holds no .json or .npz")):
        load_signals(tmp_path)


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


def test_json_signal_file_holds_a_record(tmp_path):
    with pytest.raises(InvalidInputError, match="a JSON signal file holds at least one signal record"):
        save_signals(tmp_path / "v.json", [])
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


def test_json_reads_and_writes_leave_the_collector_as_found(tmp_path, collector):
    signal = ProbabilitySignal("v0", 1, np.zeros((2, 2)))
    steps = [
        lambda: save_signals(tmp_path / "v0.json", [signal]),
        lambda: load_signals(tmp_path / "v0.json"),
        lambda: save_records(tmp_path / "p.json", Proposal, [Proposal("v0", 1, 2, 1, 0.5)]),
        lambda: load_eval_input(tmp_path / "p.json"),
        lambda: write_json_atomic(tmp_path / "r.json", {"a": [1]}),
        lambda: load_json(tmp_path / "r.json"),
    ]
    for step in steps:
        step()
        assert gc.isenabled() is collector


@pytest.mark.parametrize(
    "content, fragment",
    [(b"{broken", "Expecting property name"), (b"\xff\xfe\x00", "can't decode byte 0xff"),
     (b"[" * 200_000 + b"]" * 200_000, "nested too deeply to parse")],
    ids=["broken", "not-utf8", "nested-too-deeply"],
)
def test_malformed_json_leaves_the_collector_as_found(tmp_path, collector, content, fragment):
    path = tmp_path / "bad.json"
    path.write_bytes(content)
    for load in (load_json, load_signals, load_eval_input):
        with pytest.raises(InvalidInputError, match=f"malformed JSON in .*: .*{fragment}"):
            load(path)
        assert gc.isenabled() is collector


@pytest.mark.parametrize("records", [[{"video_id": "v0", "proposals": 5}], [{"video_id": "v0"}]],
                         ids=["malformed", "missing-field"])
def test_malformed_records_leave_the_collector_as_found(tmp_path, collector, records):
    path = tmp_path / "p.json"
    path.write_text(json.dumps(records))
    with pytest.raises(InvalidInputError):
        load_eval_input(path)
    assert gc.isenabled() is collector


def test_failed_json_write_leaves_the_collector_as_found(tmp_path, collector):
    with pytest.raises(TypeError):
        write_json_atomic(tmp_path / "r.json", {"a": object()})
    assert gc.isenabled() is collector
    assert list(tmp_path.iterdir()) == []


# Each record kind's fields, one value of a wrong JSON type at a time: int() and
# float() would have truncated, parsed or counted each of these.
_ANNOTATION = {"video_id": "v0", "t": 3, "class_id": 1}
_GROUND_TRUTH = {"video_id": "v0", "start": 2, "end": 20, "class_id": 1}
_LABEL = {"t": 5, "t_star": 5, "sigma": 1.5, "omega": 2.0, "delta": 1.0,
          "start": 2, "end": 20, "class_id": 1, "degenerate": False}
_PROPOSAL = {"start": 2, "end": 20, "class_id": 1, "score": 0.5}


def _grouped(group, record, field, value):
    """One video's entry holding ``record``, with ``field`` set to ``value`` where the file keeps it."""
    if field == "video_id":
        return [{"video_id": value, group: [record]}]
    return [{"video_id": "v0", group: [{**record, field: value}]}]


def _rejects(record_type, path, payload, field, kind):
    path.write_text(json.dumps(payload))
    with pytest.raises(InvalidInputError, match=f"malformed {kind} record in .*: {field} must be a JSON"):
        load_records(path, record_type)


@pytest.mark.parametrize(
    "field, value",
    [("t", 3.0), ("t", "3"), ("t", True), ("class_id", 1.5), ("class_id", False),
     ("video_id", 5), ("video_id", [1]), ("video_id", None)],
)
def test_annotation_fields_keep_their_json_types(tmp_path, field, value):
    _rejects(PointAnnotation, tmp_path / "a.json", [{**_ANNOTATION, field: value}], field, "annotation")


@pytest.mark.parametrize(
    "field, value",
    [("start", "2"), ("end", 20.7), ("class_id", True), ("end", None),
     ("video_id", 5), ("video_id", [1]), ("video_id", None)],
)
def test_ground_truth_fields_keep_their_json_types(tmp_path, field, value):
    _rejects(GroundTruthInstance, tmp_path / "gt.json", [{**_GROUND_TRUTH, field: value}], field, "ground-truth")


@pytest.mark.parametrize(
    "field, value",
    [("t_star", 5.9), ("end", 20.7), ("start", "2"), ("class_id", True), ("degenerate", "false"),
     ("degenerate", 0), ("sigma", "1.5"), ("omega", True), ("delta", None),
     ("video_id", 5), ("video_id", [1]), ("video_id", None)],
)
def test_pseudo_label_fields_keep_their_json_types(tmp_path, field, value):
    payload = _grouped("labels", _LABEL, field, value)
    _rejects(PseudoLabel, tmp_path / "labels.json", payload, field, "pseudo-label")


@pytest.mark.parametrize(
    "field, value",
    [("start", 2.0), ("end", "20"), ("class_id", False), ("score", "0.5"), ("score", True),
     ("video_id", 5), ("video_id", [1]), ("video_id", None)],
)
def test_proposal_fields_keep_their_json_types(tmp_path, field, value):
    payload = _grouped("proposals", _PROPOSAL, field, value)
    _rejects(Proposal, tmp_path / "p.json", payload, field, "proposal")


@pytest.mark.parametrize(
    "field, value",
    [("level", 1.7), ("level", True), ("length", 4.2), ("num_classes", "1"), ("num_classes", 1.0),
     ("video_id", 5), ("video_id", [1]), ("video_id", None)],
)
def test_signal_fields_keep_their_json_types(field, value):
    payload = {**signal_to_dict(ProbabilitySignal("v0", 1, np.zeros((4, 2)))), field: value}
    kind = "string" if field == "video_id" else "integer"
    with pytest.raises(InvalidInputError, match=f"malformed signal record: {field} must be a JSON {kind}"):
        signal_from_dict(payload)


@pytest.mark.parametrize(
    "values",
    [[[True, False], [False, True]], [[0.5, True], [0.5, 0.5]], [[0.5, 0.5], [0.5, False]], [True, 0.5]],
    ids=["boolean-rows", "true-among-numbers", "false-among-numbers", "one-dimensional"],
)
def test_signal_values_keep_their_json_types(tmp_path, values):
    # the file-level cases hold an r or an f only in their booleans
    payload = {"video_id": "v0", "level": 1, "length": 2, "num_classes": 1, "values": values}
    path = tmp_path / "v0.json"
    path.write_text(json.dumps([payload]))
    for load in (lambda: load_signals(path), lambda: signal_from_dict(payload)):
        with pytest.raises(InvalidInputError, match="malformed signal record: values must be JSON numbers"):
            load()


@pytest.mark.parametrize(
    "values, kind",
    [
        ([["0.5", "0.5"], [" 0.25 ", "0.75"]], "strings"),
        ([[0.5, 0.5], [0.5, "1"]], "strings"),
        ([[0.5, None], [0.5, 0.5]], "null"),
        ([[0.5, {}], [0.5, 0.5]], "objects"),
        ([[0, 2**64], [1, 0]], "integers beyond int64"),
        ([[2**63, 2**63], [2**63, 2**63]], "integers beyond int64"),
        ([[True, False], [False, True]], "true or false"),
    ],
    ids=["strings", "string-among-numbers", "null", "object", "beyond-uint64", "unsigned", "boolean-rows"],
)
def test_signal_values_that_are_no_json_numbers_are_rejected(tmp_path, values, kind):
    payload = {"video_id": "v0", "level": 1, "length": 2, "num_classes": 1, "values": values}
    path = tmp_path / "v0.json"
    path.write_text(json.dumps([payload]))
    for load in (lambda: load_signals(path), lambda: signal_from_dict(payload)):
        with pytest.raises(InvalidInputError, match=f"malformed signal record: values must be JSON numbers, not .*{kind}"):
            load()


@pytest.mark.parametrize("hidden", [True, False], ids=["true", "false"])
def test_a_boolean_among_exact_numbers_in_a_file_with_r_in_its_id_is_rejected(tmp_path, hidden):
    # the exact 0.0 and 1.0 around it are the values the check looks at; the id makes the file hold an r
    values = [[1.0, 0.0], [0, 1], [0.5, 0.25], [0.0, 1.0]]
    values[2][1] = hidden
    path = tmp_path / "v0.json"
    path.write_text(json.dumps([{"video_id": "run-7", "level": 1, "length": 4, "num_classes": 1, "values": values}]))
    with pytest.raises(InvalidInputError, match="malformed signal record: values must be JSON numbers, not true or false"):
        load_signals(path)


def test_signal_files_with_r_or_f_but_no_boolean_load(tmp_path):
    # an id holding the letters, and JSON integers among the values, are no booleans
    path = tmp_path / "v0.json"
    path.write_text(json.dumps([{"video_id": "frame-run", "level": 1, "length": 2, "num_classes": 1,
                                 "values": [[1, 0.0], [0, 1.0]]}]))
    (signal,) = load_signals(path)
    assert signal.video_id == "frame-run" and signal.values.tolist() == [[1.0, 0.0], [0.0, 1.0]]


@pytest.mark.parametrize(
    "record_type, name",
    [(PointAnnotation, "annotation"), (GroundTruthInstance, "ground-truth"), (PseudoLabel, "pseudo-label"),
     (Proposal, "proposal")],
    ids=["annotation", "ground-truth", "pseudo-label", "proposal"],
)
def test_each_record_type_names_its_layout_in_errors(tmp_path, record_type, name):
    path = tmp_path / "records.json"
    path.write_text("{}")
    with pytest.raises(InvalidInputError, match=re.escape(f"{name} file {path} must hold a JSON array")):
        load_records(path, record_type)
    path.write_text('[{"video_id": "v0"}]')
    with pytest.raises(InvalidInputError, match=f"{name} record missing field"):
        load_records(path, record_type)


def test_number_fields_read_json_integers_as_floats(tmp_path):
    path = tmp_path / "labels.json"
    path.write_text(json.dumps([{"video_id": "v0", "labels": [{**_LABEL, "sigma": 2, "omega": 3, "delta": 1}]}]))
    (label,) = load_records(path, PseudoLabel)
    assert (label.sigma, label.omega, label.delta) == (2.0, 3.0, 1.0)
    assert all(type(value) is float for value in (label.sigma, label.omega, label.delta))
    path.write_text(json.dumps([{"video_id": "v0", "proposals": [{**_PROPOSAL, "score": 1}]}]))
    assert type(load_records(path, Proposal)[0].score) is float


def test_annotation_round_trip(tmp_path):
    points = [PointAnnotation("v0", 3, 1), PointAnnotation("v1", 7, 2)]
    path = tmp_path / "annotations.json"
    save_records(path, PointAnnotation, points)
    assert load_records(path, PointAnnotation) == points


def test_ground_truth_round_trip(tmp_path):
    instances = [GroundTruthInstance("v0", 1, 9, 2)]
    path = tmp_path / "gt.json"
    save_records(path, GroundTruthInstance, instances)
    assert load_records(path, GroundTruthInstance) == instances


def test_pseudo_label_round_trip_and_schema(tmp_path):
    labels = [
        PseudoLabel("v1", 10, 12, 3.5, 4.0, 7.5, 5, 20, 2, False),
        PseudoLabel("v0", 4, 4, 1e-6, 0.0, 5e-7, 4, 4, 1, True),
    ]
    path = tmp_path / "labels.json"
    save_records(path, PseudoLabel, labels)
    payload = json.loads(path.read_text())
    assert [record["video_id"] for record in payload] == ["v0", "v1"]
    assert set(payload[0]["labels"][0]) == {
        "t", "t_star", "sigma", "omega", "delta", "start", "end", "class_id", "degenerate",
    }
    reloaded = load_records(path, PseudoLabel)
    assert sorted(reloaded, key=lambda l: l.video_id) == sorted(labels, key=lambda l: l.video_id)


def test_proposal_round_trip_and_schema(tmp_path):
    proposals = [Proposal("v0", 3, 9, 1, 0.75), Proposal("v0", 12, 20, 2, 0.5)]
    path = tmp_path / "proposals.json"
    save_records(path, Proposal, proposals)
    payload = json.loads(path.read_text())
    assert payload[0]["video_id"] == "v0"
    assert set(payload[0]["proposals"][0]) == {"start", "end", "class_id", "score"}
    assert load_records(path, Proposal) == proposals


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
pseudo_labels = spans().flatmap(lambda span: st.builds(
    PseudoLabel, ids, indices, indices, finite, finite, finite, st.just(span[0]), st.just(span[1]), class_ids,
    st.booleans(), gaussian_error=finite, uniform_error=finite,
))
proposals = spans().flatmap(lambda span: st.builds(Proposal, ids, st.just(span[0]), st.just(span[1]), class_ids, finite))
CODECS = {
    "annotations": (PointAnnotation, annotations, False),
    "ground-truth": (GroundTruthInstance, instances, False),
    "pseudo-labels": (PseudoLabel, pseudo_labels, True),
    "proposals": (Proposal, proposals, True),
}


@pytest.mark.parametrize("kind", sorted(CODECS))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_records_round_trip_and_rewrite_to_identical_bytes(kind, data):
    record_type, records, grouped = CODECS[kind]
    items = data.draw(st.lists(records, max_size=8))
    # grouped layouts list videos in sorted id order, each video's records in their given order
    expected = sorted(items, key=lambda item: item.video_id) if grouped else items
    with tempfile.TemporaryDirectory() as tmp:
        first, second = Path(tmp) / "first.json", Path(tmp) / "second.json"
        save_records(first, record_type, items)
        loaded = load_records(first, record_type)
        assert loaded == expected
        save_records(second, record_type, loaded)
        assert second.read_bytes() == first.read_bytes()


def test_eval_input_kind_comes_from_the_file(tmp_path):
    label = PseudoLabel("v0", 10, 10, 3.0, 5.0, 8.0, 5, 20, 1)
    proposal = Proposal("v0", 5, 20, 1, 0.5)
    save_records(tmp_path / "labels.json", PseudoLabel, [label])
    save_records(tmp_path / "proposals.json", Proposal, [proposal])
    write_json_atomic(tmp_path / "no_labels.json", [{"video_id": "v0", "labels": []}])
    write_json_atomic(tmp_path / "empty.json", [])
    assert load_eval_input(tmp_path / "labels.json") == (PseudoLabel, [label])
    assert load_eval_input(tmp_path / "proposals.json") == (Proposal, [proposal])
    assert load_eval_input(tmp_path / "no_labels.json") == (PseudoLabel, [])
    assert load_eval_input(tmp_path / "empty.json") == (Proposal, [])


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
    assert "pseudo_label_quality" not in payload


def test_report_json_of_labels_holds_their_quality(tmp_path):
    report = EvalReport([0.5], {(1, 0.5): 1.0}, {0.5: 1.0}, 1.0, alpha=1.5, mean_tiou=0.75)
    save_report_json(tmp_path / "report.json", report)
    payload = json.loads((tmp_path / "report.json").read_text())
    assert payload["pseudo_label_quality"] == {"alpha": 1.5, "mean_tiou": 0.75}


def test_writes_are_atomic_no_temp_left(tmp_path):
    path = tmp_path / "out.json"
    save_records(path, PointAnnotation, [PointAnnotation("v0", 1, 1)])
    save_signals(tmp_path / "v0.npz", [ProbabilitySignal("v0", 1, np.zeros((2, 2)))])
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out.json", "v0.npz"]


def test_failed_write_keeps_the_old_target_and_leaves_no_temp(tmp_path):
    path = tmp_path / "out.json"
    path.write_bytes(b"old\n")
    with pytest.raises(RuntimeError, match="mid-write"):
        with files._atomic_file(path) as handle:
            handle.write(b"new")
            temps = [p.name for p in tmp_path.iterdir() if p != path]
            assert len(temps) == 1 and re.fullmatch(r"\.out\.json\.[0-9a-f]{16}\.tmp", temps[0])
            raise RuntimeError("mid-write")
    assert path.read_bytes() == b"old\n"
    assert list(tmp_path.iterdir()) == [path]
