"""Command-line front end: synthesize data, fit pseudo-labels, decode, evaluate, verify.

All commands are deterministic given identical inputs and seeds. Data goes to
files or stdout; diagnostics go to stderr. Set ``ADM_LOG_LEVEL`` to control
log verbosity.
"""

from __future__ import annotations

import json
import logging
import os
import sys
import time
from pathlib import Path

import click
import numpy as np

from .adm import ADMConfig, label_videos
from .decoder import DecoderConfig, decode_videos
from .errors import InvalidInputError, NumericError, PackingError
from .evaluation import map_report, pseudo_label_quality
from .signal import ProbabilitySignal, fuse_probabilities
from .storage import (
    group_signals_by_video,
    load_annotations,
    load_eval_input,
    load_ground_truth,
    load_signals,
    save_annotations,
    save_ground_truth,
    save_proposals,
    save_pseudo_labels,
    save_report_csv,
    save_report_json,
    save_signals,
    write_json_atomic,
)
from .synth import SyntheticConfig, generate_video, sample_point
from .verify import SUITES, run_suite

log = logging.getLogger("actionness")

_FAILURES = (InvalidInputError, NumericError, PackingError, OSError)
_MAX_THRESHOLDS = 1000


def _fail(message: str) -> None:
    click.echo(f"error: {message}", err=True)
    raise SystemExit(1)


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
    if not np.isfinite([start, stop, step]).all() or step <= 0:
        raise InvalidInputError(f"threshold range needs finite bounds and a step > 0, got {text!r}")
    # count before building: a tiny step would otherwise allocate without bound
    count = int(round(min((stop - start) / step, _MAX_THRESHOLDS))) + 1
    if count > _MAX_THRESHOLDS:
        raise InvalidInputError(f"threshold range {text!r} holds more than {_MAX_THRESHOLDS} thresholds")
    return [round(start + i * step, 10) for i in range(count)]


def _load_videos(signals_path: Path, fuse: bool) -> dict[str, list[ProbabilitySignal]]:
    """Each video's levels, finest first; with ``fuse`` every level is fused class-agnostically."""
    grouped = group_signals_by_video(load_signals(signals_path))
    if fuse:
        grouped = {video_id: [fuse_probabilities(s) for s in levels] for video_id, levels in grouped.items()}
    return grouped


@click.group()
def main():
    """Actionness-distribution toolkit for point-supervised localization."""
    level = os.environ.get("ADM_LOG_LEVEL", "WARNING").upper()
    logging.basicConfig(
        level=level if level in ("DEBUG", "INFO", "WARNING", "ERROR", "CRITICAL") else "WARNING",
        stream=sys.stderr,
        format="%(levelname)s %(name)s: %(message)s",
    )


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
    """Write a synthetic dataset: signals/<video_id>.npz, gt.json, annotations.json, manifest.json."""
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
        signals_dir = out_dir / "signals"
        signals_dir.mkdir(parents=True, exist_ok=True)

        ground_truth = []
        annotations = []
        video_ids = []
        for index in range(videos):
            video_id = f"video-{index:04d}"
            rng = np.random.default_rng([seed, index])
            video = generate_video(config, rng, video_id)
            save_signals(signals_dir / f"{video_id}.npz", [video.signal])
            ground_truth.extend(video.gt)
            annotations.extend(sample_point(instance, point_mode, rng) for instance in video.gt)
            video_ids.append(video_id)
        save_ground_truth(out_dir / "gt.json", ground_truth)
        save_annotations(out_dir / "annotations.json", annotations)
        write_json_atomic(
            out_dir / "manifest.json",
            {
                "videos": video_ids,
                "video_seeds": [[seed, index] for index in range(videos)],
                "point_mode": point_mode,
                "config": {
                    "length": config.length,
                    "num_classes": config.num_classes,
                    "instances_per_video": list(config.instances_per_video),
                    "duration_range": list(config.duration_range),
                    "shape_mix": config.shape_mix,
                    "noise_std": config.noise_std,
                    "background_level": config.background_level,
                    "seed": config.seed,
                },
            },
        )
    except _FAILURES as exc:
        _fail(str(exc))
    log.info("wrote %d videos to %s", videos, out_dir)


@main.command()
@click.option("--signals", "signals_path", type=click.Path(path_type=Path), required=True)
@click.option("--annotations", "annotations_path", type=click.Path(path_type=Path), required=True)
@click.option("--out", "out_path", type=click.Path(path_type=Path), required=True)
@click.option("--delta", default=0.25, show_default=True)
@click.option("--gamma1", default=0.5, show_default=True)
@click.option("--gamma2", default=0.5, show_default=True)
@click.option("--sigma-lower", default=1e-6, show_default=True)
@click.option("--smoothing-sigma", default=2.0, show_default=True)
@click.option("--background-threshold", default=0.5, show_default=True)
@click.option("--r-a", default=2, show_default=True, help="Annotation augmentation radius.")
@click.option("--fuse/--no-fuse", default=False, show_default=True, help="Apply class-agnostic fusion first.")
@click.option("--clip-to-boundary", is_flag=True, help="Clip intervals to the preliminary boundary.")
def adm(signals_path, annotations_path, out_path, delta, gamma1, gamma2, sigma_lower, smoothing_sigma, background_threshold, r_a, fuse, clip_to_boundary):
    """Fit one pseudo-label per annotated point and report fit quality."""
    try:
        config = ADMConfig(
            delta=delta,
            gamma1=gamma1,
            gamma2=gamma2,
            sigma_lower=sigma_lower,
            smoothing_sigma=smoothing_sigma,
            background_threshold=background_threshold,
            clip_to_boundary=clip_to_boundary,
            r_a=r_a,
        )
        grouped = _load_videos(signals_path, fuse)
        points = load_annotations(annotations_path)
        labels = label_videos(grouped, points, config)
        save_pseudo_labels(out_path, labels)
    except _FAILURES as exc:
        _fail(str(exc))

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
@click.option("--thresholds", default="0.1,0.2,0.3,0.4,0.5,0.6,0.7,0.8,0.9", show_default=True)
@click.option("--oic-inflation", default=0.25, show_default=True)
@click.option("--nms-tiou", default=0.45, show_default=True)
@click.option("--class-threshold", default=0.5, show_default=True)
@click.option("--top-k-fraction", default=0.125, show_default=True)
@click.option("--fuse/--no-fuse", default=False, show_default=True)
def decode_cmd(signals_path, out_path, thresholds, oic_inflation, nms_tiou, class_threshold, top_k_fraction, fuse):
    """Decode probability signals into scored, NMS-filtered proposals."""
    try:
        config = DecoderConfig(
            thresholds=tuple(_parse_thresholds(thresholds)),
            oic_inflation=oic_inflation,
            nms_tiou=nms_tiou,
            class_score_threshold=class_threshold,
            top_k_fraction=top_k_fraction,
        )
        proposals = decode_videos(_load_videos(signals_path, fuse), config)
        save_proposals(out_path, proposals)
    except _FAILURES as exc:
        _fail(str(exc))
    log.info("decoded %d proposals", len(proposals))


@main.command(name="eval")
@click.argument("input_path", type=click.Path(path_type=Path))
@click.option("--gt", "gt_path", type=click.Path(path_type=Path), required=True)
@click.option("--thresholds", default="0.1:0.7", show_default=True)
@click.option("--out-json", type=click.Path(path_type=Path), default=Path("eval_report.json"), show_default=True)
@click.option("--out-csv", type=click.Path(path_type=Path), default=Path("eval_report.csv"), show_default=True)
def eval_cmd(input_path, gt_path, thresholds, out_json, out_csv):
    """Evaluate proposals or pseudo-labels (auto-detected) against ground truth."""
    try:
        threshold_list = _parse_thresholds(thresholds)
        gt = load_ground_truth(gt_path)
        if not gt:
            raise InvalidInputError(f"ground-truth file {gt_path} is empty")

        kind, records = load_eval_input(input_path)
        extra = None
        if kind == "pseudo-label":
            quality = pseudo_label_quality(records, gt, threshold_list)
            report = quality.eval
            extra = {
                "pseudo_label_quality": {
                    "alpha": quality.alpha,
                    "mean_tiou": quality.mean_tiou,
                }
            }
            click.echo(f"alpha: {quality.alpha:.6f}")
            click.echo(f"mean_tiou: {quality.mean_tiou:.6f}")
        else:
            report = map_report(records, gt, threshold_list)

        save_report_json(out_json, report, extra)
        save_report_csv(out_csv, report)
    except _FAILURES as exc:
        _fail(str(exc))

    click.echo("tIoU    mAP")
    for threshold in report.thresholds:
        click.echo(f"{threshold:<7g} {report.map_at[threshold] * 100.0:6.2f}%")
    click.echo(f"average {report.average_map * 100.0:6.2f}%")


@main.command(name="verify")
@click.argument("suite", type=click.Choice(sorted(SUITES)))
@click.option("--out", "out_path", type=click.Path(path_type=Path), default=None)
@click.option("--samples", default=None, type=int, help="Override the per-check sample count (at least 1).")
@click.option("--seed", default=None, type=int)
def verify_cmd(suite, out_path, samples, seed):
    """Run a verification suite; exit 0 only if every check passes."""
    try:
        started = time.perf_counter()
        report = run_suite(suite, samples, seed)
        elapsed = time.perf_counter() - started
        if out_path is not None:
            # timing stays off the report file so identical runs stay byte-identical
            write_json_atomic(out_path, report)
    except _FAILURES as exc:
        _fail(str(exc))
    click.echo(json.dumps(report, indent=2, sort_keys=True))
    click.echo(f"elapsed: {elapsed:.3f}s", err=True)
    if not report["pass"]:
        raise SystemExit(1)


if __name__ == "__main__":
    main()
