"""Serialization for signals, annotations, labels, and reports.

Probability signals are stored per video, in one of two formats picked by the
file suffix: ``.npz`` (binary, what ``synth`` writes) or ``.json`` (the
interchange format). Everything else is JSON, plus a CSV eval report.
Annotations, ground truth, pseudo-labels and proposals share one record codec,
``save_records(path, record_type, records)`` and ``load_records(path,
record_type)``, driven by the ``_LAYOUTS`` table, which is keyed by record
class. All writers serialize deterministically (sorted keys, fixed layout,
fixed archive timestamps) and replace the target file atomically through
``files``, so identical inputs yield byte-identical outputs. Every loader
turns malformed input into ``InvalidInputError``. JSON files are read as UTF-8
whatever the locale. numpy, and the ``signal`` module that holds
``ProbabilitySignal``, load only when a signal codec runs (``signal_from_dict``,
``_save_npz``, ``_load_npz``), so reading records and reports needs neither;
``evaluation`` is imported for type annotations only.
"""

from __future__ import annotations

import csv
import io
import json
import reprlib
import zipfile
from operator import getitem
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Sequence

from .errors import InvalidInputError
from .files import _atomic_file, write_json_atomic
from .records import GroundTruthInstance, PointAnnotation, Proposal, PseudoLabel

if TYPE_CHECKING:
    from .evaluation import EvalReport
    from .signal import ProbabilitySignal

# Errors that wrong-typed or wrong-shaped input raises while records are built.
_MALFORMED = (TypeError, ValueError, OverflowError)


def load_json(path: Path | str, *, keep_text: bool = False):
    """Parse a UTF-8 JSON file, whatever the locale, into ``payload``, or ``(payload, text)``
    with ``keep_text``; nesting too deep to parse is malformed input."""
    path = Path(path)
    try:
        with path.open(encoding="utf-8") as handle:
            text = handle.read()
        payload = json.loads(text)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise InvalidInputError(f"malformed JSON in {path}: {exc}") from exc
    except RecursionError as exc:
        raise InvalidInputError(f"malformed JSON in {path}: nested too deeply to parse") from exc
    return (payload, text) if keep_text else payload


# --- JSON field readers ------------------------------------------------------
# One type check per field: int() and float() would truncate 5.9 to 5, parse
# "2" and read true as 1, so each reader takes one JSON type and names the field.

def _integer(name: str, value) -> int:
    if type(value) is not int:  # bool subclasses int, yet true is no JSON integer
        raise TypeError(f"{name} must be a JSON integer, got {value!r}")
    return value


def _number(name: str, value) -> float:
    if type(value) not in (int, float):
        raise TypeError(f"{name} must be a JSON number, got {value!r}")
    return float(value)


def _boolean(name: str, value) -> bool:
    if type(value) is not bool:
        raise TypeError(f"{name} must be a JSON boolean, got {value!r}")
    return value


def _string(name: str, value) -> str:
    if type(value) is not str:
        raise TypeError(f"{name} must be a JSON string, got {value!r}")
    return value


def _record(value) -> dict:
    if type(value) is not dict:
        raise TypeError(f"a record must be a JSON object, got {reprlib.repr(value)}")
    return value


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


# What the array kinds numpy infers for signal values other than integers and floats hold.
_NOT_NUMBERS = {
    "b": "true or false",
    "U": "strings",
    "O": "null, objects or integers beyond int64",
    "u": "integers beyond int64",
}


def _booleans_among(nested, values) -> bool:
    """Whether a JSON true or false sits among the numbers of ``nested``, which ``values``
    holds as floats: true and false convert to exactly 1.0 and 0.0, so only those are looked up."""
    import numpy as np

    index = np.argwhere((values == 0.0) | (values == 1.0))
    items = [nested] * len(index)
    for axis in index.T.tolist():
        items = map(getitem, items, axis)
    return bool in set(map(type, items))


def signal_from_dict(payload: dict, check_booleans: bool = True) -> ProbabilitySignal:
    """A signal from its JSON record; ``check_booleans=False`` skips the check that tells
    true and false from the 1.0 and 0.0 that numpy makes of them among numbers."""
    import numpy as np

    from .signal import ProbabilitySignal

    try:
        video_id = _string("video_id", _record(payload)["video_id"])
        level = _integer("level", payload["level"])
        # asked for floats, numpy would parse strings: it infers the type, and only integers and floats pass
        try:
            values = np.asarray(payload["values"])
        except ValueError:  # numpy's words for rows of unequal length
            raise TypeError("values must be rows of JSON numbers, all of one length") from None
        if values.dtype.kind not in "if":
            raise TypeError(f"values must be JSON numbers, not {_NOT_NUMBERS.get(values.dtype.kind, values.dtype)}")
        values = values.astype(np.float64, copy=False)
        if check_booleans and _booleans_among(payload["values"], values):
            raise TypeError("values must be JSON numbers, not true or false")
        declared = (_integer("length", payload["length"]), _integer("num_classes", payload["num_classes"]))
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
    import numpy as np

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
    import numpy as np

    from .signal import ProbabilitySignal

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
    for level, values in levels:
        if values.dtype.kind not in "iuf":
            raise InvalidInputError(f"level {level} in {path} holds {values.dtype} values, not numbers")
    return [ProbabilitySignal(str(video_id), level, values) for level, values in levels]


def save_signals(path: Path | str, signals: Sequence[ProbabilitySignal]) -> None:
    """Write ``.npz`` when ``path`` ends in ``.npz`` (one video), JSON otherwise (at least one signal)."""
    if Path(path).suffix == ".npz":
        _save_npz(path, signals)
    elif not signals:
        raise InvalidInputError(f"{path}: a JSON signal file holds at least one signal record")
    else:
        write_json_atomic(path, [signal_to_dict(s) for s in signals])


def load_signals(path: Path | str) -> list[ProbabilitySignal]:
    """Load signals from one ``.npz``/JSON file, or every such file of a directory in sorted order;
    a directory without one is malformed input, not a dataset of no videos, and so are a JSON file
    without a record and an entry named as a signal file that is not a file, such as a subdirectory
    ``old.json/``."""
    path = Path(path)
    if path.is_dir():
        files = sorted([*path.glob("*.json"), *path.glob("*.npz")])
        if not files:
            raise InvalidInputError(f"{path}: the directory holds no .json or .npz signal file")
        signals: list[ProbabilitySignal] = []
        for file in files:
            if not file.is_file():
                raise InvalidInputError(f"{file}: a signals directory holds one signal file per video, and this is not a file")
            signals.extend(load_signals(file))
        return signals
    if path.suffix == ".npz":
        return _load_npz(path)
    payload, text = load_json(path, keep_text=True)
    records = payload if isinstance(payload, list) else [payload]
    if not records:
        raise InvalidInputError(f"{path}: a JSON signal file holds at least one signal record")
    # no key of a signal record and no JSON number holds an r or an f; true and false do
    check_booleans = "r" in text or "f" in text
    return [signal_from_dict(record, check_booleans) for record in records]


# --- records: annotations, ground truth, pseudo-labels, proposals ----------

# record type -> (name in messages, per-video list key, {stored field: reader of its
# JSON value}). Every field is named as the record's attribute and ``video_id`` is
# implied. A layout without a list key is a flat array; the others list each
# video's records, videos in sorted id order.
_LAYOUTS: dict[type, tuple[str, str | None, dict[str, Callable]]] = {
    PointAnnotation: ("annotation", None, {"t": _integer, "class_id": _integer}),
    GroundTruthInstance: ("ground-truth", None, {"start": _integer, "end": _integer, "class_id": _integer}),
    PseudoLabel: ("pseudo-label", "labels", {
        "t": _integer, "t_star": _integer, "sigma": _number, "omega": _number, "delta": _number,
        "start": _integer, "end": _integer, "class_id": _integer, "degenerate": _boolean,
    }),
    Proposal: ("proposal", "proposals", {"start": _integer, "end": _integer, "class_id": _integer, "score": _number}),
}


def save_records(path: Path | str, record_type: type, records: Sequence) -> None:
    """Write records of one ``_LAYOUTS`` type; a pseudo-label's fit errors are not stored."""
    _, group, fields = _LAYOUTS[record_type]
    rows = [(r.video_id, {name: getattr(r, name) for name in fields}) for r in records]
    if group is None:
        payload = [{"video_id": video_id, **row} for video_id, row in rows]
    else:
        by_video: dict[str, list[dict]] = {}
        for video_id, row in rows:
            by_video.setdefault(video_id, []).append(row)
        payload = [{"video_id": video_id, group: by_video[video_id]} for video_id in sorted(by_video)]
    write_json_atomic(path, payload)


def load_records(path: Path | str, record_type: type) -> list:
    """Read records of one ``_LAYOUTS`` type; malformed records raise InvalidInputError."""
    return _build_records(load_json(path), path, record_type)


def _build_records(payload, path: Path | str, record_type: type) -> list:
    """Build records from a parsed JSON array; malformed records raise InvalidInputError."""
    name, group, fields = _LAYOUTS[record_type]
    if not isinstance(payload, list):
        raise InvalidInputError(f"{name} file {path} must hold a JSON array")

    def build(video_id, item):
        return record_type(video_id=video_id, **{field: read(field, item[field]) for field, read in fields.items()})

    try:
        if group is None:
            return [build(_string("video_id", item["video_id"]), item) for item in map(_record, payload)]
        records = []
        for entry in map(_record, payload):
            video_id = _string("video_id", entry["video_id"])
            items = entry[group]
            if type(items) is not list:
                raise TypeError(f"{group} of video {video_id!r} must be a JSON array, got {reprlib.repr(items)}")
            records.extend(build(video_id, item) for item in map(_record, items))
        return records
    except KeyError as exc:
        raise InvalidInputError(f"{name} record missing field {exc}") from exc
    except InvalidInputError:
        raise
    except _MALFORMED as exc:
        raise InvalidInputError(f"malformed {name} record in {path}: {exc}") from exc


def load_eval_input(path: Path | str) -> tuple[type, list[PseudoLabel] | list[Proposal]]:
    """``(PseudoLabel, labels)`` if the first record holds ``labels``, else ``(Proposal, proposals)``.

    The file is parsed once. The type comes from the file, not from the
    records, so a labels file with no labels still reads as pseudo-labels;
    an empty array reads as no proposals.
    """
    payload = load_json(path)
    if payload and isinstance(payload, list) and isinstance(payload[0], dict) and "labels" in payload[0]:
        record_type = PseudoLabel
    else:
        record_type = Proposal
    return record_type, _build_records(payload, path, record_type)


# --- evaluation reports ----------------------------------------------------

def _threshold_key(threshold: float) -> str:
    return f"{threshold:g}"


def report_to_dict(report: EvalReport) -> dict:
    classes = sorted({class_id for class_id, _ in report.ap})
    payload = {
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
    if report.alpha is not None:
        payload["pseudo_label_quality"] = {"alpha": report.alpha, "mean_tiou": report.mean_tiou}
    return payload


def save_report_json(path: Path | str, report: EvalReport) -> None:
    write_json_atomic(path, report_to_dict(report))


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
