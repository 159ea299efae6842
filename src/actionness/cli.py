"""Command-line front end: synthesize data, fit pseudo-labels, decode, evaluate, verify.

All commands are deterministic given identical inputs and seeds. Data goes to
files or stdout; diagnostics go to stderr. ``ADM_LOG_LEVEL=INFO`` (or
``DEBUG``), read at each command, adds ``INFO actionness: …`` lines there.
Each command imports the library modules it runs in its own body, so
``--help`` and every command start without the modules of the others.
``main`` runs every command with the cyclic garbage collector disabled, and
turns each library failure into ``error: <message>`` on stderr and exit 1.
"""

from __future__ import annotations

import atexit
import contextlib
import gc
import math
import os
import time
from pathlib import Path

import click

from .errors import InvalidInputError, NumericError, PackingError

# The interpreter's final collections would walk every object that numpy, click
# and the library made, to free memory the ending process returns anyway; a heap
# frozen at exit is skipped. ``main`` enables the collector again as a command ends.
atexit.register(gc.freeze)

_FAILURES = (InvalidInputError, NumericError, PackingError, OSError, MemoryError)
_MAX_THRESHOLDS = 1000
_RANGE_TOLERANCE = 1e-9  # in steps
# the names of verify.SUITES, kept here so that --help need not import the suites
_VERIFY_SUITES = ("fitting", "gradients", "oracles")


def _info(message: str) -> None:
    """Write ``INFO actionness: <message>`` to stderr if ``ADM_LOG_LEVEL`` is INFO or DEBUG now."""
    if os.environ.get("ADM_LOG_LEVEL", "").upper() in ("INFO", "DEBUG"):
        click.echo(f"INFO actionness: {message}", err=True)


def _parse_thresholds(text: str) -> list[float]:
    """Accept ``a,b,c`` lists or ``start:stop[:step]`` ranges (inclusive)."""
    text = text.strip()
    is_range = ":" in text
    pieces = text.split(":") if is_range else [p for p in text.split(",") if p.strip()]
    try:
        parts = [float(p) for p in pieces]
    except ValueError:
        raise InvalidInputError(f"thresholds must be numbers, got {text!r}") from None
    if not is_range:
        return parts
    if len(parts) == 2:
        start, stop, step = parts[0], parts[1], 0.1
    elif len(parts) == 3:
        start, stop, step = parts
    else:
        raise InvalidInputError(f"bad threshold range {text!r}")
    if not all(map(math.isfinite, (start, stop, step))) or step <= 0:
        raise InvalidInputError(f"threshold range needs finite bounds and a step > 0, got {text!r}")
    if stop < start:
        raise InvalidInputError(f"threshold range {text!r} runs backwards: its stop is below its start")
    # count before building: a tiny step would otherwise allocate without bound. The
    # floor keeps the last threshold at or below stop; the tolerance keeps stop itself
    # when the step divides the span but the division rounds just below a whole number.
    count = math.floor(min((stop - start) / step, _MAX_THRESHOLDS) + _RANGE_TOLERANCE) + 1
    if count > _MAX_THRESHOLDS:
        raise InvalidInputError(f"threshold range {text!r} holds more than {_MAX_THRESHOLDS} thresholds")
    return [round(start + i * step, 10) for i in range(count)]


class _Main(click.Group):
    """Runs each command with the cyclic collector disabled, as its records and JSON trees
    hold no reference cycles for a collection to free, then restores the state it found;
    ``_FAILURES`` end in ``error: <message>`` and exit 1."""

    def invoke(self, ctx):
        enabled = gc.isenabled()
        gc.disable()
        try:
            return super().invoke(ctx)
        except BrokenPipeError:
            raise  # stdout's reader has gone: click's main ends the process quietly
        except _FAILURES as exc:
            click.echo(f"error: {str(exc) or type(exc).__name__}", err=True)
            raise SystemExit(1) from None
        finally:
            if enabled:
                gc.enable()


@click.group(cls=_Main)
def main():
    """Actionness-distribution toolkit for point-supervised localization."""


@main.command()
@click.option("--out", "out_dir", type=click.Path(path_type=Path), required=True)
@click.option("--videos", default=20, show_default=True, help="Number of videos to generate.")
@click.option("--length", default=512, show_default=True)
@click.option("--classes", "num_classes", default=5, show_default=True)
@click.option("--instances", nargs=2, type=int, default=(1, 4), show_default=True)
@click.option("--durations", nargs=2, type=int, default=(8, 64), show_default=True)
@click.option(
    "--shape-weights",
    nargs=3,
    type=float,
    default=(1.0, 1.0, 1.0),
    show_default=True,
    help="Weights for plateau, gaussian, plateau-with-shoulders profiles.",
)
@click.option("--noise-std", default=0.0, show_default=True)
@click.option("--background-level", default=0.05, show_default=True)
@click.option(
    "--point-mode",
    type=click.Choice(["gaussian", "uniform"]),
    default="gaussian",
    show_default=True,
    help="Distribution used to sample one annotated point per instance.",
)
@click.option("--seed", default=42, show_default=True)
def synth(out_dir, videos, length, num_classes, instances, durations, shape_weights, noise_std, background_level, point_mode, seed):
    """Write a synthetic dataset: signals/<video_id>.npz, gt.json, annotations.json, manifest.json.

    Refuses an ``--out`` whose signals directory already holds signal files, and
    removes the signal files it wrote, and ``--out`` and ``signals/`` where it
    made them, when it fails part-way.
    """
    from .records import GroundTruthInstance, PointAnnotation
    from .storage import save_records, save_signals, write_json_atomic
    from .synth import SyntheticConfig, generate_dataset

    written: list[Path] = []
    made: list[Path] = []
    try:
        config = SyntheticConfig(
            length=length,
            num_classes=num_classes,
            instances_per_video=tuple(instances),
            duration_range=tuple(durations),
            shape_mix={
                "plateau": shape_weights[0],
                "gaussian": shape_weights[1],
                "plateau_with_gaussian_shoulders": shape_weights[2],
            },
            noise_std=noise_std,
            background_level=background_level,
            seed=seed,
        )
        manifest, dataset = generate_dataset(config, videos, point_mode)
        signals_dir = out_dir / "signals"
        # decode and adm read every signal file of the directory, so old ones would join this dataset
        stale = sorted(signals_dir.glob("*.npz")) + sorted(signals_dir.glob("*.json"))
        if stale:
            raise InvalidInputError(f"{signals_dir} already holds signal files such as {stale[0].name}; use an empty --out")
        made = [directory for directory in (out_dir, signals_dir) if not directory.is_dir()]
        signals_dir.mkdir(parents=True, exist_ok=True)
        ground_truth, annotations = [], []
        for video, points in dataset:
            written.append(signals_dir / f"{video.signal.video_id}.npz")
            save_signals(written[-1], [video.signal])
            ground_truth.extend(video.gt)
            annotations.extend(points)
        save_records(out_dir / "gt.json", GroundTruthInstance, ground_truth)
        save_records(out_dir / "annotations.json", PointAnnotation, annotations)
        write_json_atomic(out_dir / "manifest.json", manifest)
    except _FAILURES:
        for path in written:
            path.unlink(missing_ok=True)
        for directory in reversed(made):
            with contextlib.suppress(OSError):  # one that holds other files by now stays
                directory.rmdir()
        raise
    _info(f"wrote {videos} videos to {out_dir}")


@main.command()
@click.option("--signals", "signals_path", type=click.Path(path_type=Path), required=True)
@click.option("--annotations", "annotations_path", type=click.Path(path_type=Path), required=True)
@click.option("--out", "out_path", type=click.Path(path_type=Path), required=True)
@click.option("--background-threshold", default=0.5, show_default=True)
def adm(signals_path, annotations_path, out_path, background_threshold):
    """Fit one pseudo-label per annotated point and report fit quality."""
    import numpy as np

    from .adm import label_videos
    from .records import PointAnnotation, PseudoLabel
    from .storage import load_records, load_signals, save_records

    signals = load_signals(signals_path)
    points = load_records(annotations_path, PointAnnotation)
    labels = label_videos(signals, points, background_threshold)
    save_records(out_path, PseudoLabel, labels)

    if points:
        alpha = len(labels) / len(points)
        gaussian_residual = float(np.mean([label.gaussian_error for label in labels]))
        uniform_residual = float(np.mean([label.uniform_error for label in labels]))
        click.echo(f"alpha: {alpha:.6f}")
        click.echo(f"mean_gaussian_fit_mse: {gaussian_residual:.6f}")
        click.echo(f"mean_uniform_fit_mse: {uniform_residual:.6f}")
    else:
        click.echo("alpha: n/a (no annotations)")


@main.command(name="decode")
@click.option("--signals", "signals_path", type=click.Path(path_type=Path), required=True)
@click.option("--out", "out_path", type=click.Path(path_type=Path), required=True)
@click.option("--class-threshold", default=0.5, show_default=True)
@click.option("--top-k-fraction", default=0.125, show_default=True)
def decode_cmd(signals_path, out_path, class_threshold, top_k_fraction):
    """Decode probability signals into scored, NMS-filtered proposals."""
    from .decoder import decode_videos
    from .records import Proposal
    from .storage import load_signals, save_records

    proposals = decode_videos(load_signals(signals_path), class_threshold, top_k_fraction)
    save_records(out_path, Proposal, proposals)
    _info(f"decoded {len(proposals)} proposals")


@main.command(name="eval")
@click.argument("input_path", type=click.Path(path_type=Path))
@click.option("--gt", "gt_path", type=click.Path(path_type=Path), required=True)
@click.option("--thresholds", default="0.1:0.7", show_default=True)
@click.option("--out-json", type=click.Path(path_type=Path), default=Path("eval_report.json"), show_default=True)
@click.option("--out-csv", type=click.Path(path_type=Path), default=Path("eval_report.csv"), show_default=True)
def eval_cmd(input_path, gt_path, thresholds, out_json, out_csv):
    """Evaluate proposals or pseudo-labels (auto-detected) against ground truth."""
    from .evaluation import evaluate
    from .records import GroundTruthInstance
    from .storage import load_eval_input, load_records, save_report_csv, save_report_json

    threshold_list = _parse_thresholds(thresholds)
    gt = load_records(gt_path, GroundTruthInstance)
    record_type, records = load_eval_input(input_path)
    report = evaluate(record_type, records, gt, threshold_list)
    save_report_json(out_json, report)
    save_report_csv(out_csv, report)

    if report.alpha is not None:
        click.echo(f"alpha: {report.alpha:.6f}")
        click.echo(f"mean_tiou: {report.mean_tiou:.6f}")
    click.echo("tIoU    mAP")
    for threshold in report.thresholds:
        click.echo(f"{threshold:<7g} {report.map_at[threshold] * 100.0:6.2f}%")
    click.echo(f"average {report.average_map * 100.0:6.2f}%")


@main.command(name="verify")
@click.argument("suite", type=click.Choice(_VERIFY_SUITES))
@click.option("--out", "out_path", type=click.Path(path_type=Path), default=None)
@click.option("--samples", default=None, type=int, help="Override the per-check sample count (at least 1).")
@click.option("--seed", default=None, type=int)
def verify_cmd(suite, out_path, samples, seed):
    """Run a verification suite; exit 0 only if every check passes."""
    import json

    from .files import write_json_atomic
    from .verify import run_suite

    started = time.perf_counter()
    report = run_suite(suite, samples, seed)
    elapsed = time.perf_counter() - started
    if out_path is not None:
        # timing stays off the report file so identical runs stay byte-identical
        write_json_atomic(out_path, report)
    click.echo(json.dumps(report, indent=2, sort_keys=True))
    click.echo(f"elapsed: {elapsed:.3f}s", err=True)
    if not report["pass"]:
        raise SystemExit(1)


if __name__ == "__main__":
    main()
