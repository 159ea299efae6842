"""Serialization for signals, annotations, labels, and reports.

Probability signals are stored per video, in one of two formats picked by the
file suffix: ``.npz`` (binary, what ``synth`` writes) or ``.json`` (the
interchange format). Everything else is JSON, plus a CSV eval report;
annotations, ground truth, pseudo-labels and proposals share one record codec
driven by the ``_LAYOUTS`` table. All writers serialize deterministically
(sorted keys, fixed layout, fixed archive timestamps) and replace the target
file atomically, so identical inputs yield byte-identical outputs. Every
loader turns malformed input into ``InvalidInputError``.
"""

from __future__ import annotations

import csv
import io
import json
import os
import tempfile
import zipfile
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Iterable, Sequence

import numpy as np

from .adm import PseudoLabel
from .decoder import Proposal
from .errors import InvalidInputError
from .evaluation import EvalReport, GroundTruthInstance
from .signal import PointAnnotation, ProbabilitySignal

# Errors that wrong-typed or wrong-shaped input raises while records are built.
_MALFORMED = (TypeError, ValueError, OverflowError)


def _umask() -> int:
    # reading the umask means setting it; it is put back at once
    mask = os.umask(0o077)
    os.umask(mask)
    return mask


@contextmanager
def _atomic_file(path: Path | str):
    """Yield a binary handle on a temp file that replaces ``path`` once the block succeeds.

    ``mkstemp`` creates the file as 0600; it gets the mode a plain ``open``
    would give it, ``0o666`` less the umask, before it moves into place.
    """
    path = Path(path)
    fd, tmp_name = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as handle:
            yield handle
        os.chmod(tmp_name, 0o666 & ~_umask())
        os.replace(tmp_name, path)
    except BaseException:
        if os.path.exists(tmp_name):
            os.unlink(tmp_name)
        raise


def write_json_atomic(path: Path | str, payload) -> None:
    """Serialize deterministically, then move the finished file into place.

    No ``indent``, so the C encoder runs; keys are sorted and the file ends
    in a newline.
    """
    text = json.dumps(payload, sort_keys=True)
    with _atomic_file(path) as handle:
        handle.write(text.encode())
        handle.write(b"\n")


def load_json(path: Path | str):
    path = Path(path)
    try:
        with path.open() as handle:
            return json.load(handle)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise InvalidInputError(f"malformed JSON in {path}: {exc}") from exc


# --- probability signals -------------------------------------------------

_ZIP_DATE = (1980, 1, 1, 0, 0, 0)  # the earliest zip timestamp; fixed so writes are byte-identical
_LEVEL_PREFIX = "level_"


def signal_to_dict(signal: ProbabilitySignal) -> dict:
    return {
        "video_id": signal.video_id,
        "level": signal.level,
        "length": signal.length,
        "num_classes": signal.num_classes,
        "values": signal.values.tolist(),
    }


def signal_from_dict(payload: dict) -> ProbabilitySignal:
    try:
        video_id = str(payload["video_id"])
        level = int(payload["level"])
        values = np.asarray(payload["values"], dtype=np.float64)
        declared = (int(payload["length"]), int(payload["num_classes"]))
    except KeyError as exc:
        raise InvalidInputError(f"signal record missing field {exc}") from exc
    except _MALFORMED as exc:
        raise InvalidInputError(f"malformed signal record: {exc}") from exc
    signal = ProbabilitySignal(video_id, level, values)
    if (signal.length, signal.num_classes) != declared:
        raise InvalidInputError(
            f"declared dimensions {declared} do not match values shape "
            f"{(signal.length, signal.num_classes)} for video {signal.video_id!r}"
        )
    return signal


def _save_npz(path: Path | str, signals: Sequence[ProbabilitySignal]) -> None:
    """One video's levels as ``video_id.npy`` then ``level_<k>.npy`` by level, uncompressed."""
    video_ids = sorted({s.video_id for s in signals})
    if len(video_ids) != 1:
        raise InvalidInputError(f"an .npz signal file holds exactly one video, got {video_ids}")
    ordered = sorted(signals, key=lambda s: s.level)
    levels = [s.level for s in ordered]
    if len(set(levels)) != len(levels):
        raise InvalidInputError(f"video {video_ids[0]!r} repeats a level: {levels}")
    video_id = np.array(video_ids[0])
    if str(video_id) != video_ids[0]:  # fixed-width numpy strings drop trailing NULs
        raise InvalidInputError(f"video id {video_ids[0]!r} cannot be stored in an .npz file")
    members = [("video_id", video_id)]
    members += [(f"{_LEVEL_PREFIX}{s.level}", s.values) for s in ordered]
    with _atomic_file(path) as handle, zipfile.ZipFile(handle, "w", zipfile.ZIP_STORED) as archive:
        for name, array in members:
            info = zipfile.ZipInfo(f"{name}.npy", date_time=_ZIP_DATE)
            # zip64 as in np.savez: a member's size is unknown until it is written
            with archive.open(info, "w", force_zip64=True) as member:
                np.lib.format.write_array(member, array, allow_pickle=False)


def _load_npz(path: Path) -> list[ProbabilitySignal]:
    try:
        # the handle is ours, so it closes even when numpy fails to open the archive on it
        with path.open("rb") as handle:
            archive = np.load(handle, allow_pickle=False)
            if not isinstance(archive, np.lib.npyio.NpzFile):  # a bare .npy array
                raise InvalidInputError(f"{path} is not an .npz archive")
            with archive:
                if "video_id" not in archive.files:
                    raise InvalidInputError(f"signal archive {path} has no video_id member")
                video_id = archive["video_id"]
                levels = [
                    (int(name[len(_LEVEL_PREFIX):]), archive[name])
                    for name in archive.files
                    if name.startswith(_LEVEL_PREFIX)
                ]
    except InvalidInputError:
        raise
    except (zipfile.BadZipFile, EOFError, *_MALFORMED) as exc:
        raise InvalidInputError(f"malformed signal archive {path}: {exc}") from exc
    if video_id.shape != () or video_id.dtype.kind != "U":
        raise InvalidInputError(f"video_id in {path} must be a 0-d string array")
    if not levels:
        raise InvalidInputError(f"signal archive {path} has no {_LEVEL_PREFIX}<k> member")
    levels.sort(key=lambda item: item[0])
    for level, values in levels:
        if values.dtype.kind not in "iuf":
            raise InvalidInputError(f"level {level} in {path} holds {values.dtype} values, not numbers")
    return [ProbabilitySignal(str(video_id), level, values) for level, values in levels]


def save_signals(path: Path | str, signals: Sequence[ProbabilitySignal]) -> None:
    """Write ``.npz`` when ``path`` ends in ``.npz`` (one video), JSON otherwise."""
    if Path(path).suffix == ".npz":
        _save_npz(path, signals)
    else:
        write_json_atomic(path, [signal_to_dict(s) for s in signals])


def load_signals(path: Path | str) -> list[ProbabilitySignal]:
    """Load signals from one ``.npz``/JSON file, or every such file of a directory in sorted order."""
    path = Path(path)
    if path.is_dir():
        signals: list[ProbabilitySignal] = []
        for file in sorted([*path.glob("*.json"), *path.glob("*.npz")]):
            signals.extend(load_signals(file))
        return signals
    if path.suffix == ".npz":
        return _load_npz(path)
    payload = load_json(path)
    records = payload if isinstance(payload, list) else [payload]
    return [signal_from_dict(record) for record in records]


def group_signals_by_video(
    signals: Iterable[ProbabilitySignal],
) -> dict[str, list[ProbabilitySignal]]:
    """Each video's levels, finest first; a level given twice raises InvalidInputError."""
    grouped: dict[str, list[ProbabilitySignal]] = {}
    for signal in signals:
        grouped.setdefault(signal.video_id, []).append(signal)
    for video_id, levels in grouped.items():
        levels.sort(key=lambda s: s.level)
        for lower, upper in zip(levels, levels[1:]):
            if lower.level == upper.level:
                raise InvalidInputError(f"video {video_id!r} has level {lower.level} more than once")
    return grouped


# --- records: annotations, ground truth, pseudo-labels, proposals ----------

# kind -> (record type, per-video list key, {stored field: converter that reads it}).
# Every field is named as the record's attribute and ``video_id`` is implied. A
# kind without a list key is a flat array; the others list each video's records,
# videos in sorted id order.
_LAYOUTS: dict[str, tuple[Callable, str | None, dict[str, Callable]]] = {
    "annotation": (PointAnnotation, None, {"t": int, "class_id": int}),
    "ground-truth": (GroundTruthInstance, None, {"start": int, "end": int, "class_id": int}),
    "pseudo-label": (PseudoLabel, "labels", {
        "t": int, "t_star": int, "sigma": float, "omega": float, "delta": float,
        "start": int, "end": int, "class_id": int, "degenerate": bool,
    }),
    "proposal": (Proposal, "proposals", {"start": int, "end": int, "class_id": int, "score": float}),
}


def _to_payload(kind: str, records: Sequence) -> list[dict]:
    _, group, fields = _LAYOUTS[kind]
    rows = [(r.video_id, {name: getattr(r, name) for name in fields}) for r in records]
    if group is None:
        return [{"video_id": video_id, **row} for video_id, row in rows]
    by_video: dict[str, list[dict]] = {}
    for video_id, row in rows:
        by_video.setdefault(video_id, []).append(row)
    return [{"video_id": video_id, group: by_video[video_id]} for video_id in sorted(by_video)]


def _build_records(payload, path: Path | str, kind: str) -> list:
    """Build records from a parsed JSON array; malformed records raise InvalidInputError."""
    if not isinstance(payload, list):
        raise InvalidInputError(f"{kind} file {path} must hold a JSON array")
    make, group, fields = _LAYOUTS[kind]

    def build(video_id, item):
        return make(video_id=str(video_id), **{name: read(item[name]) for name, read in fields.items()})

    try:
        if group is None:
            return [build(item["video_id"], item) for item in payload]
        records = []
        for entry in payload:
            video_id = entry["video_id"]
            records.extend(build(video_id, item) for item in entry[group])
        return records
    except KeyError as exc:
        raise InvalidInputError(f"{kind} record missing field {exc}") from exc
    except InvalidInputError:
        raise
    except _MALFORMED as exc:
        raise InvalidInputError(f"malformed {kind} record in {path}: {exc}") from exc


def _load_records(path: Path | str, kind: str) -> list:
    return _build_records(load_json(path), path, kind)


def save_annotations(path: Path | str, points: Sequence[PointAnnotation]) -> None:
    write_json_atomic(path, _to_payload("annotation", points))


def load_annotations(path: Path | str) -> list[PointAnnotation]:
    return _load_records(path, "annotation")


def save_ground_truth(path: Path | str, instances: Sequence[GroundTruthInstance]) -> None:
    write_json_atomic(path, _to_payload("ground-truth", instances))


def load_ground_truth(path: Path | str) -> list[GroundTruthInstance]:
    return _load_records(path, "ground-truth")


def save_pseudo_labels(path: Path | str, labels: Sequence[PseudoLabel]) -> None:
    """Labels grouped per video; the fit errors are not stored."""
    write_json_atomic(path, _to_payload("pseudo-label", labels))


def load_pseudo_labels(path: Path | str) -> list[PseudoLabel]:
    return _load_records(path, "pseudo-label")


def save_proposals(path: Path | str, proposals: Sequence[Proposal]) -> None:
    write_json_atomic(path, _to_payload("proposal", proposals))


def load_proposals(path: Path | str) -> list[Proposal]:
    return _load_records(path, "proposal")


def load_eval_input(path: Path | str) -> tuple[str, list[PseudoLabel] | list[Proposal]]:
    """``("pseudo-label", labels)`` if the first record holds ``labels``, else ``("proposal", proposals)``.

    The file is parsed once. The kind comes from the file, not from the
    records, so a labels file with no labels still reads as pseudo-labels;
    an empty array reads as no proposals.
    """
    payload = load_json(path)
    if payload and isinstance(payload, list) and isinstance(payload[0], dict) and "labels" in payload[0]:
        kind = "pseudo-label"
    else:
        kind = "proposal"
    return kind, _build_records(payload, path, kind)


# --- evaluation reports ----------------------------------------------------

def _threshold_key(threshold: float) -> str:
    return f"{threshold:g}"


def report_to_dict(report: EvalReport) -> dict:
    classes = sorted({class_id for class_id, _ in report.ap})
    return {
        "thresholds": report.thresholds,
        "ap": {
            str(class_id): {
                _threshold_key(t): report.ap[(class_id, t)] for t in report.thresholds
            }
            for class_id in classes
        },
        "map_at": {_threshold_key(t): report.map_at[t] for t in report.thresholds},
        "average_map": report.average_map,
    }


def save_report_json(path: Path | str, report: EvalReport, extra: dict | None = None) -> None:
    payload = report_to_dict(report)
    if extra:
        payload.update(extra)
    write_json_atomic(path, payload)


def save_report_csv(path: Path | str, report: EvalReport) -> None:
    """One row per tIoU threshold; columns are per-class AP and the mAP."""
    classes = sorted({class_id for class_id, _ in report.ap})
    text = io.StringIO()
    writer = csv.writer(text)
    writer.writerow(["tiou"] + [f"class_{c}" for c in classes] + ["mAP"])
    for threshold in report.thresholds:
        row = [f"{threshold:g}"]
        row += [f"{report.ap[(c, threshold)]:.6f}" for c in classes]
        row.append(f"{report.map_at[threshold]:.6f}")
        writer.writerow(row)
    with _atomic_file(path) as handle:
        handle.write(text.getvalue().encode())
