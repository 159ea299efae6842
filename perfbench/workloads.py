"""The benchmark's workloads and the CLI commands one pass of each runs.

Every workload runs the same stage sequence, so every end-to-end metric exists
on every workload: ``synth``, then ``adm``, ``eval`` of the labels, ``decode``,
``eval`` of the proposals, and the three ``verify`` suites. The ``synth``
flags give one pass's inputs; a run repeats passes on fresh seeds. The workloads
differ in input sizes, which shifts where the time goes; ``README.md`` in this
directory gives each workload's reason and the metric-to-workload map.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path


@dataclass(frozen=True)
class Workload:
    name: str
    synth: tuple[str, ...]  # synth flags except --out and --seed
    levels: int  # pyramid levels fed to adm/decode; levels above 1 are mean-pooled
    decode: tuple[str, ...]
    tiny_synth: tuple[str, ...]  # synth flags of the smoke-test size


def _flags(text: str) -> tuple[str, ...]:
    return tuple(text.split())


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="dense-decode",
            synth=_flags(
                "--videos 8 --length 2048 --classes 20 --instances 5 5 --durations 8 128 --noise-std 0.05"
            ),
            levels=1,
            decode=_flags("--top-k-fraction 0.0625 --class-threshold 0.3"),
            tiny_synth=_flags(
                "--videos 3 --length 256 --classes 4 --instances 1 3 --durations 8 32 --noise-std 0.05"
            ),
        ),
        Workload(
            name="fit-pyramid",
            synth=_flags(
                "--videos 16 --length 8192 --classes 2 --instances 30 60 --durations 16 128 --noise-std 0.0"
            ),
            levels=3,
            decode=_flags("--class-threshold 0.3"),
            tiny_synth=_flags(
                "--videos 2 --length 512 --classes 2 --instances 3 6 --durations 16 32 --noise-std 0.0"
            ),
        ),
    )
}

SUITES = ("gradients", "fitting", "oracles")
VERIFY_SAMPLES = 10  # per check, far below the suites' defaults, so verify stays a small part of a pass


@dataclass(frozen=True)
class Paths:
    """Where one run keeps its inputs and outputs."""

    root: Path
    levels: int

    @property
    def data(self) -> Path:
        return self.root / "data"

    @property
    def signals(self) -> Path:
        """The signals adm/decode read: synth's own, or the built pyramid."""
        return self.data / "signals" if self.levels == 1 else self.root / "pyramid"

    def out(self, name: str) -> Path:
        return self.root / "out" / name


def synth_command(workload: Workload, paths: Paths, seed: int, tiny: bool) -> list[str]:
    flags = workload.tiny_synth if tiny else workload.synth
    return ["synth", "--out", str(paths.data), *flags, "--seed", str(seed)]


def stage_commands(workload: Workload, paths: Paths, tiny: bool) -> list[tuple[str, list[str]]]:
    """(stage, CLI arguments) of every command after synth, in order.

    The verify suites run at their built-in seeds. With other seeds
    ``verify oracles`` fails on some of them (seed 101 is one): for a
    Gaussian-bump objective whose bump sits near an interval end,
    ``minimize_bounded`` returns the bound. That is a library defect to fix,
    and a benchmark run must not fail on it.
    """
    signals, out = str(paths.signals), paths.out
    gt = str(paths.data / "gt.json")
    commands = [
        ("adm", ["adm", "--signals", signals, "--annotations", str(paths.data / "annotations.json"),
                 "--out", str(out("labels.json"))]),
        ("eval", ["eval", str(out("labels.json")), "--gt", gt,
                  "--out-json", str(out("labels_eval.json")), "--out-csv", str(out("labels_eval.csv"))]),
        ("decode", ["decode", "--signals", signals, "--out", str(out("proposals.json")), *workload.decode]),
        ("eval", ["eval", str(out("proposals.json")), "--gt", gt,
                  "--out-json", str(out("proposals_eval.json")), "--out-csv", str(out("proposals_eval.csv"))]),
    ]
    samples = str(2 if tiny else VERIFY_SAMPLES)
    for suite in SUITES:
        commands.append(("verify", ["verify", suite, "--out", str(out(f"verify_{suite}.json")), "--samples", samples]))
    return commands


def build_pyramid(paths: Paths) -> None:
    """Write the signals adm/decode read: synth's level 1 plus mean-pooled levels.

    Level ``k + 1`` averages adjacent snippet pairs of level ``k`` (theta = 2).
    Reads synth's output through the public ``load_signals`` and writes the
    documented JSON signal format, one file per video holding every level.
    """
    from actionness.storage import load_signals

    paths.signals.mkdir(parents=True, exist_ok=True)
    for signal in load_signals(paths.data / "signals"):
        values = signal.values
        records = []
        for level in range(1, paths.levels + 1):
            if level > 1:
                values = 0.5 * (values[0::2] + values[1::2])
            records.append(
                {
                    "video_id": signal.video_id,
                    "level": level,
                    "length": values.shape[0],
                    "num_classes": values.shape[1] - 1,
                    "values": values.tolist(),
                }
            )
        path = paths.signals / f"{signal.video_id}.json"
        path.write_text(json.dumps(records, sort_keys=True))
