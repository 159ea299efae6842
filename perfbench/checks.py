"""Output checks and digests, computed from the files a run wrote.

Files are read with plain ``json`` so the checks do not lean on the loaders
they help to test. Each check is ``(name, passed, detail)``; a failed check
counts in the run's ``failed`` total.
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path
from types import SimpleNamespace

from workloads import SUITES, Paths

AP_TOLERANCE = 1e-12  # the library's own AP-vs-oracle tolerance


def _load(path: Path):
    with path.open() as handle:
        return json.load(handle)


def tree_digests(root: Path) -> dict[str, str]:
    """SHA-256 of every file under ``root``, keyed by its relative path."""
    return {
        str(path.relative_to(root)): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(root.rglob("*"))
        if path.is_file()
    }


def combined_digest(digests: dict[str, str]) -> str:
    return hashlib.sha256(json.dumps(digests, sort_keys=True).encode()).hexdigest()


def input_digest(paths: Paths) -> str:
    """One SHA-256 over the generated inputs: synth's data and any pyramid."""
    digests = {f"data/{k}": v for k, v in tree_digests(paths.data).items()}
    if paths.levels > 1:
        digests.update({f"pyramid/{k}": v for k, v in tree_digests(paths.signals).items()})
    return combined_digest(digests)


def _intervals(records, key, score=None):
    return [
        SimpleNamespace(
            video_id=record["video_id"],
            start=item["start"],
            end=item["end"],
            class_id=item["class_id"],
            score=item["score"] if score is None else score,
        )
        for record in records
        for item in record[key]
    ]


def _inside(intervals, length: int) -> bool:
    return all(0 <= i.start <= i.end < length for i in intervals)


def _ap_check(name, report, intervals, gt, class_id, threshold):
    from actionness.oracles import average_precision_direct

    reported = report["ap"][str(class_id)][f"{threshold:g}"]
    direct = average_precision_direct(
        [i for i in intervals if i.class_id == class_id],
        [g for g in gt if g.class_id == class_id],
        threshold,
    )
    detail = f"class {class_id} tIoU {threshold:g}: report {reported!r}, oracle {direct!r}"
    return name, abs(reported - direct) <= AP_TOLERANCE, detail


def check_outputs(paths: Paths, seed: int) -> list[tuple[str, bool, str]]:
    data, out = paths.data, paths.out
    length = _load(data / "manifest.json")["config"]["length"]
    annotations = _load(data / "annotations.json")
    gt = [SimpleNamespace(**g) for g in _load(data / "gt.json")]
    labels = _intervals(_load(out("labels.json")), "labels", score=1.0)
    proposals = _intervals(_load(out("proposals.json")), "proposals")
    labels_report = _load(out("labels_eval.json"))
    proposals_report = _load(out("proposals_eval.json"))

    alpha = labels_report["pseudo_label_quality"]["alpha"]
    checks = [
        ("labels_alpha_is_1", alpha == 1.0 and len(labels) == len(annotations),
         f"alpha {alpha!r}, {len(labels)} labels for {len(annotations)} points"),
        ("labels_inside_video", _inside(labels, length), f"video length {length}"),
        ("proposals_inside_video", _inside(proposals, length), f"video length {length}"),
    ]

    rng = random.Random(seed)
    class_id = rng.choice(sorted({g.class_id for g in gt}))
    threshold = rng.choice(labels_report["thresholds"])
    checks.append(_ap_check("labels_ap_equals_oracle", labels_report, labels, gt, class_id, threshold))
    checks.append(
        _ap_check("proposals_ap_equals_oracle", proposals_report, proposals, gt, class_id, threshold)
    )
    for suite in SUITES:
        passed = _load(out(f"verify_{suite}.json"))["pass"] is True
        checks.append((f"verify_{suite}_pass", passed, ""))
    return checks


def quality(paths: Paths) -> dict[str, float]:
    """The deterministic quality numbers of the labels and the proposals."""
    labels_report = _load(paths.out("labels_eval.json"))
    proposals_report = _load(paths.out("proposals_eval.json"))
    gt = _load(paths.data / "gt.json")
    proposals = sum(len(r["proposals"]) for r in _load(paths.out("proposals.json")))
    return {
        "labels_mean_tiou": labels_report["pseudo_label_quality"]["mean_tiou"],
        "labels_avg_map": labels_report["average_map"],
        "proposals_avg_map": proposals_report["average_map"],
        "proposals_per_gt": proposals / len(gt),
    }
