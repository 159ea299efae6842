"""Serialization for signals, annotations, labels, and reports.

Probability signals are stored per video, in one of two formats picked by the
file suffix: ``.npz`` (binary, what ``synth`` writes) or ``.json`` (the
interchange format). Everything else is JSON, plus a CSV eval report. All
writers serialize deterministically (sorted keys, fixed layout, fixed archive
timestamps) and replace the target file atomically, so identical inputs yield
byte-identical outputs. Every loader turns malformed input into
``InvalidInputError``.
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
from typing import Iterable, Sequence

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


def _load_records(path: Path | str, kind: str, build) -> list:
    """Parse a JSON array and build records from it; malformed records raise InvalidInputError."""
    return _build_records(load_json(path), path, kind, build)


def _build_records(payload, path: Path | str, kind: str, build) -> list:
    """Build records from a parsed JSON array; malformed records raise InvalidInputError."""
    if not isinstance(payload, list):
        raise InvalidInputError(f"{kind} file {path} must hold a JSON array")
    try:
        return build(payload)
    except KeyError as exc:
        raise InvalidInputError(f"{kind} record missing field {exc}") from exc
    except InvalidInputError:
        raise
    except _MALFORMED as exc:
        raise InvalidInputError(f"malformed {kind} record in {path}: {exc}") from exc


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


# --- annotations and ground truth ----------------------------------------

def save_annotations(path: Path | str, points: Sequence[PointAnnotation]) -> None:
    write_json_atomic(
        path,
        [{"video_id": p.video_id, "t": p.t, "class_id": p.class_id} for p in points],
    )


def load_annotations(path: Path | str) -> list[PointAnnotation]:
    return _load_records(
        path,
        "annotation",
        lambda payload: [
            PointAnnotation(str(r["video_id"]), int(r["t"]), int(r["class_id"])) for r in payload
        ],
    )


def save_ground_truth(path: Path | str, instances: Sequence[GroundTruthInstance]) -> None:
    write_json_atomic(
        path,
        [
            {"video_id": g.video_id, "start": g.start, "end": g.end, "class_id": g.class_id}
            for g in instances
        ],
    )


def load_ground_truth(path: Path | str) -> list[GroundTruthInstance]:
    return _load_records(
        path,
        "ground-truth",
        lambda payload: [
            GroundTruthInstance(
                str(r["video_id"]), int(r["start"]), int(r["end"]), int(r["class_id"])
            )
            for r in payload
        ],
    )


# --- pseudo-labels --------------------------------------------------------

def pseudo_labels_to_records(labels: Sequence[PseudoLabel]) -> list[dict]:
    """Group labels per video in the on-disk layout."""
    by_video: dict[str, list[PseudoLabel]] = {}
    for label in labels:
        by_video.setdefault(label.video_id, []).append(label)
    records = []
    for video_id in sorted(by_video):
        records.append(
            {
                "video_id": video_id,
                "labels": [
                    {
                        "t": label.t,
                        "t_star": label.t_star,
                        "sigma": label.sigma,
                        "omega": label.omega,
                        "delta": label.delta,
                        "start": label.start,
                        "end": label.end,
                        "class_id": label.class_id,
                        "degenerate": label.degenerate,
                    }
                    for label in by_video[video_id]
                ],
            }
        )
    return records


def save_pseudo_labels(path: Path | str, labels: Sequence[PseudoLabel]) -> None:
    write_json_atomic(path, pseudo_labels_to_records(labels))


def _pseudo_labels_from_records(payload: list) -> list[PseudoLabel]:
    labels = []
    for record in payload:
        video_id = str(record["video_id"])
        labels.extend(
            PseudoLabel(
                video_id=video_id,
                t=int(item["t"]),
                t_star=int(item["t_star"]),
                sigma=float(item["sigma"]),
                omega=float(item["omega"]),
                delta=float(item["delta"]),
                start=int(item["start"]),
                end=int(item["end"]),
                class_id=int(item["class_id"]),
                degenerate=bool(item["degenerate"]),
            )
            for item in record["labels"]
        )
    return labels


def load_pseudo_labels(path: Path | str) -> list[PseudoLabel]:
    return _load_records(path, "pseudo-label", _pseudo_labels_from_records)


# --- proposals ------------------------------------------------------------

def proposals_to_records(proposals: Sequence[Proposal]) -> list[dict]:
    by_video: dict[str, list[Proposal]] = {}
    for proposal in proposals:
        by_video.setdefault(proposal.video_id, []).append(proposal)
    return [
        {
            "video_id": video_id,
            "proposals": [
                {
                    "start": p.start,
                    "end": p.end,
                    "class_id": p.class_id,
                    "score": p.score,
                }
                for p in by_video[video_id]
            ],
        }
        for video_id in sorted(by_video)
    ]


def save_proposals(path: Path | str, proposals: Sequence[Proposal]) -> None:
    write_json_atomic(path, proposals_to_records(proposals))


def _proposals_from_records(payload: list) -> list[Proposal]:
    proposals = []
    for record in payload:
        video_id = str(record["video_id"])
        proposals.extend(
            Proposal(
                video_id,
                int(item["start"]),
                int(item["end"]),
                int(item["class_id"]),
                float(item["score"]),
            )
            for item in record["proposals"]
        )
    return proposals


def load_proposals(path: Path | str) -> list[Proposal]:
    return _load_records(path, "proposal", _proposals_from_records)


# --- eval input -----------------------------------------------------------

def load_eval_input(path: Path | str) -> tuple[str, list[PseudoLabel] | list[Proposal]]:
    """``("pseudo-label", labels)`` if the first record holds ``labels``, else ``("proposal", proposals)``.

    The file is parsed once. The kind comes from the file, not from the
    records, so a labels file with no labels still reads as pseudo-labels;
    an empty array reads as no proposals.
    """
    payload = load_json(path)
    if payload and isinstance(payload, list) and isinstance(payload[0], dict) and "labels" in payload[0]:
        kind, build = "pseudo-label", _pseudo_labels_from_records
    else:
        kind, build = "proposal", _proposals_from_records
    return kind, _build_records(payload, path, kind, build)


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
