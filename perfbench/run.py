"""Seeded benchmark of the actionness CLI pipeline.

    python3 perfbench/run.py --workload dense-decode --seed 1 --seconds 56 --trace 0

Run from the repository root (or any checkout of it). A run repeats *passes*
of the workload's pipeline for ``--seconds``; every pass synthesizes inputs of
its own from the seed, and every number is a median or mean over passes, so
no one draw of inputs decides it. With ``--trace 0`` every stage runs as its
own ``python -m actionness.cli`` child process and the end-to-end metrics are
printed; with ``--trace 1`` the same commands run
in-process, alternating an untraced pass with a pass in which every public
library function is wrapped by ``tracer.Tracer``, and the per-layer metrics
are printed. Either way the outputs are checked, a report with the
environment, the input/output SHA-256 digests and all samples is written to
``perfbench/.work/reports/``, and the last stdout line is one JSON object:
``{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}``.
``--tiny`` shrinks every input for a quick smoke run.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import logging
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import traceback
from collections import defaultdict
from pathlib import Path
from time import perf_counter

from checks import check_outputs, combined_digest, input_digest, quality, tree_digests
from tracer import Tracer
from workloads import WORKLOADS, Paths, build_pyramid, stage_commands, synth_command

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = Path(__file__).resolve().parent / ".work"
STAGES = ("synth", "adm", "eval", "decode", "verify")
SETUP_REPEATS = 5  # no-op starts before the first pass; one more follows every pass
MAX_PASSES = 1000  # also the gap between the first synth seeds of --seed n and n + 1

# Spans reported as <span>.self_s; the cli.* ones are left out of span coverage.
SELF_SPANS = (
    "decoder.nms", "decoder.oic_score", "decoder.threshold_merge", "decoder.decode",
    "losses.video_level_scores",
    "evaluation.average_precision", "evaluation.map_report", "evaluation.pseudo_label_quality",
    "storage.load_json", "storage.signal_from_dict", "storage.write_json_atomic",
    "adm.generate_pseudo_labels", "adm.fit_gaussian", "adm.fit_uniform",
    "optim.minimize_bounded",
    "signal.smooth_signal", "signal.select_background_points",
    "synth.generate_video",
    "cli.synth", "cli.adm", "cli.decode", "cli.eval", "cli.verify",
    "verify.run_gradient_suite", "verify.run_fitting_suite", "verify.run_oracle_suite",
    "losses.mil_loss", "losses.action_focal_loss", "losses.background_loss",
    "losses.gaussian_alignment_loss", "losses.sigma_loss",
    "oracles.nms_direct", "oracles.average_precision_direct", "oracles.finite_difference_gradient",
)
CALL_SPANS = (
    "decoder.oic_score", "evaluation.average_precision", "adm.preliminary_boundaries",
    "optim.minimize_bounded", "signal.upsample_signal",
)
# Quality numbers: the labels' are steady across seeds and gate end to end; the
# proposals' vary too much from seed to seed for a bound and are decoder metrics.
E2E_QUALITY = ("labels_mean_tiou", "labels_avg_map")
PROPOSAL_QUALITY = ("proposals_avg_map", "proposals_per_gt")
COUNTS = (
    "decoder.nms.in", "decoder.nms.out", "adm.labels", "adm.degenerate_labels",
    "optim.iterations", "optim.objective_evals", "optim.unconverged",
)


class Tally:
    """Attempted/failed operations, failure details and peak child RSS."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []
        self.peak_rss_kib = 0

    def record(self, name: str, ok: bool, detail: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(f"{name} {detail}".strip())


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env.pop("ADM_LOG_LEVEL", None)
    return env


def run_child(argv: list[str], log: Path, tally: Tally) -> float:
    """Run one CLI command as a child process; return its wall time."""
    with log.open("ab") as out:
        start = perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-m", "actionness.cli", *argv],
            stdout=out, stderr=subprocess.STDOUT, env=child_env(), cwd=ROOT,
        )
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        elapsed = perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    if argv[0] != "--help":
        tally.peak_rss_kib = max(tally.peak_rss_kib, usage.ru_maxrss)
    tally.record(" ".join(argv[:2]), proc.returncode == 0, f"exit {proc.returncode}, see {log}")
    return elapsed


def run_in_process(argv: list[str], log: Path, tally: Tally) -> float:
    """Run one CLI command through ``cli.main.main`` in this process."""
    from actionness import cli

    ok = True
    with log.open("a") as out, contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        start = perf_counter()
        try:
            cli.main.main(argv, standalone_mode=False)
        except SystemExit as exc:
            ok = exc.code in (0, None)
        except Exception:  # a failing command counts as failed; the run goes on
            traceback.print_exc(file=out)
            ok = False
        elapsed = perf_counter() - start
    tally.record(" ".join(argv[:2]), ok, f"see {log}")
    return elapsed


def pass_seed(seed: int, index: int) -> int:
    """The ``synth --seed`` of a run's pass ``index``: every pass gets its own inputs."""
    return seed * MAX_PASSES + index


def run_pass(invoke, workload, paths, seed, tiny, tally) -> dict[str, float]:
    """Fresh inputs, then synth (+ pyramid), adm, eval, decode, eval, verify: seconds per stage."""
    for stale in (paths.data, paths.signals, paths.out("")):
        shutil.rmtree(stale, ignore_errors=True)
    paths.out("").mkdir(parents=True)
    log = paths.root / "cli.log"
    times = defaultdict(float)
    times["synth"] = invoke(synth_command(workload, paths, seed, tiny), log, tally)
    if paths.levels > 1:
        build_pyramid(paths)  # untimed input preparation
    for stage, argv in stage_commands(workload, paths, tiny):
        times[stage] += invoke(argv, log, tally)
    return times


def check_pass(paths, seed, tally, record) -> None:
    """Untimed: check one pass's outputs and keep its quality numbers and digests."""
    for name, passed, detail in check_outputs(paths, seed):
        tally.record(name, passed, f"(pass seed {seed}) {detail}")
    for name, value in quality(paths).items():
        record[name].append(value)
    record["input_sha256"].append(input_digest(paths))
    record["output_sha256"].append(combined_digest(tree_digests(paths.out(""))))


def passes(seconds: float):
    """Pass indices: 0, then more while the next pass, as long as the last, ends in time."""
    start = perf_counter()
    for index in range(MAX_PASSES):
        pass_start = perf_counter()
        yield index
        now = perf_counter()
        if now - start + (now - pass_start) > seconds:
            return


def summarize(samples: list[float]) -> str:
    """Median plus the highest percentile with at least ten samples beyond it."""
    ordered = sorted(samples)
    text = f"median of n={len(ordered)}"
    rank = len(ordered) - 10
    if rank >= 1:
        text += f", p{100 * rank / len(ordered):.0f}={ordered[rank - 1]:.4f}"
    return text


def untraced_run(workload, paths, args, tally):
    log = paths.root / "cli.log"
    run_child(["--help"], log, Tally())  # warm-up: byte-compile once, uncounted
    samples = defaultdict(list)
    samples["setup_s"] = [run_child(["--help"], log, tally) for _ in range(1 if args.tiny else SETUP_REPEATS)]

    for index in passes(args.seconds):
        seed = pass_seed(args.seed, index)
        tally.peak_rss_kib = 0
        times = run_pass(run_child, workload, paths, seed, args.tiny, tally)
        samples["setup_s"].append(run_child(["--help"], log, tally))
        for stage in STAGES:
            samples[f"{stage}_s"].append(times[stage])
        samples["pipeline_s"].append(sum(times.values()))
        samples["videos_per_s"].append(
            len(_manifest(paths)["videos"]) / sum(times[s] for s in STAGES if s != "verify")
        )
        samples["peak_rss_mb"].append(tally.peak_rss_kib / 1024.0)
        check_pass(paths, seed, tally, samples)

    units = {"videos_per_s": "videos/s", "peak_rss_mb": "MB", **dict.fromkeys(E2E_QUALITY, "ratio")}
    metrics = {}
    for name in ("setup_s", *(f"{stage}_s" for stage in STAGES), "pipeline_s", *units):
        metrics[name] = (statistics.median(samples[name]), units.get(name, "s"), summarize(samples[name]))
    return metrics, dict(samples), None


def traced_run(workload, paths, args, tally):
    # Configure logging before the CLI does, so its handler keeps the real stderr.
    logging.basicConfig(level="WARNING", stream=sys.stderr)
    tracer = Tracer()
    untraced, traced = defaultdict(float), defaultdict(float)
    record = defaultdict(list)
    rounds = 0
    for index in passes(args.seconds):
        seed = pass_seed(args.seed, index)
        for stage, seconds in run_pass(run_in_process, workload, paths, seed, args.tiny, tally).items():
            untraced[stage] += seconds
        baseline = tree_digests(paths.out(""))
        if tracer.sample_video is None:
            videos = _manifest(paths)["videos"]
            tracer.sample_video = random.Random(args.seed).choice(videos)
        tracer.install()
        try:
            times = run_pass(run_in_process, workload, paths, seed, args.tiny, tally)
        finally:
            tracer.uninstall()
        for stage, seconds in times.items():
            traced[stage] += seconds
        tally.record("traced_outputs_identical", tree_digests(paths.out("")) == baseline,
                     f"pass seed {seed}")
        check_pass(paths, seed, tally, record)
        rounds += 1

    from actionness.oracles import nms_direct

    if tracer.nms_sample is None:
        tally.record("nms_equals_oracle", False, f"no NMS pool seen for {tracer.sample_video}")
    else:
        pool, threshold, kept = tracer.nms_sample
        tally.record("nms_equals_oracle", nms_direct(pool, threshold) == kept,
                     f"{tracer.sample_video}: {len(pool)} candidates")

    per_pass = 1.0 / rounds
    metrics = {}
    for name in SELF_SPANS:
        metrics[f"{name}.self_s"] = (tracer.span(name)[2] * per_pass, "s")
    for name in CALL_SPANS:
        metrics[f"{name}.calls"] = (tracer.span(name)[0] * per_pass, "count")
    for name in COUNTS:
        metrics[name] = (tracer.counts[name] * per_pass, "count")
    counts = tracer.counts
    metrics["decoder.nms.keep_ratio"] = (counts["decoder.nms.out"] / max(1, counts["decoder.nms.in"]), "ratio")
    metrics["decoder.pool_distinct_ratio"] = (
        counts["decoder.pool_distinct"] / max(1, counts["decoder.nms.in"]), "ratio")
    for name in PROPOSAL_QUALITY:
        metrics[name] = (statistics.median(record[name]), "ratio")
    metrics["storage.signal_bytes"] = (_bytes(paths.signals), "bytes")
    metrics["storage.output_bytes"] = (_bytes(paths.out("")), "bytes")
    library_spans = [name for name in SELF_SPANS if not name.startswith("cli.")]
    for stage in STAGES:
        metrics[f"trace_overhead.{stage}"] = (traced[stage] / untraced[stage], "ratio")
        covered = sum(tracer.span(name, command=stage)[2] for name in library_spans)
        metrics[f"span_coverage.{stage}"] = (covered / traced[stage], "ratio")
    note = f"per traced pass, {rounds} pass(es)"
    metrics = {name: (value, unit, note) for name, (value, unit) in metrics.items()}
    samples = dict(record, untraced_s=untraced, traced_s=traced, passes=rounds)
    return metrics, samples, tracer.table()


def _manifest(paths: Paths) -> dict:
    return json.loads((paths.data / "manifest.json").read_text())


def _bytes(root: Path) -> int:
    return sum(path.stat().st_size for path in root.rglob("*") if path.is_file())


def environment() -> dict:
    import numpy

    cpu = "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        with contextlib.suppress(OSError, subprocess.CalledProcessError):
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True
            ).stdout.strip()
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "commit": commit,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="smoke-test input sizes")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    if not (SRC / "actionness" / "cli.py").is_file():
        print(f"error: the actionness sources are missing under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    workload = WORKLOADS[args.workload]
    key = f"{workload.name}{'-tiny' if args.tiny else ''}-trace{args.trace}"
    paths = Paths(WORK / key, workload.levels)
    shutil.rmtree(paths.root, ignore_errors=True)
    paths.out("").mkdir(parents=True)
    tally = Tally()
    try:
        measure = traced_run if args.trace else untraced_run
        metrics, samples, spans = measure(workload, paths, args, tally)
    finally:
        shutil.rmtree(paths.root, ignore_errors=True)
    inputs, outputs = samples.pop("input_sha256"), samples.pop("output_sha256")
    if args.trace:
        metrics["failed_ratio"] = (
            len(tally.failures) / tally.attempted, "ratio", f"of {tally.attempted} operations and checks"
        )

    env = environment()
    report = {
        "workload": workload.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "tiny": args.tiny, "environment": env,
        "input_sha256_per_pass": inputs, "output_sha256_per_pass": outputs,
        "input_sha256": combined_digest(inputs), "output_sha256": combined_digest(outputs),
        "attempted": tally.attempted, "failures": tally.failures,
        "metrics": {name: {"value": v, "unit": u, "summary": note} for name, (v, u, note) in metrics.items()},
        "samples": samples, "spans": spans,
    }
    reports = WORK / "reports"
    reports.mkdir(parents=True, exist_ok=True)
    report_path = reports / f"{key}-seed{args.seed}.json"
    report_path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")

    print(f"workload {workload.name}, seed {args.seed}, trace {args.trace}")
    print("environment " + ", ".join(f"{k}={v}" for k, v in env.items()))
    print(f"input sha256 {report['input_sha256']} ({len(inputs)} pass(es))")
    print(f"output sha256 {report['output_sha256']} (information, not a gate)")
    for failure in tally.failures:
        print(f"FAILED {failure}")
    for name, (value, unit, note) in metrics.items():
        print(f"{name} = {value:.6g} {unit} ({note})")
    print(f"report {report_path.relative_to(ROOT)}")
    result = {
        "correct": not tally.failures,
        "attempted": tally.attempted,
        "failed": len(tally.failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit, _) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
