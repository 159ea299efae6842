"""Straight-line reference implementations used to cross-check the fast paths.

Everything here favours obviousness over speed: explicit loops, full sorts,
and direct transcriptions of definitions. The verification suites and the
test suite compare the production code against these. The two that score
intervals import ``evaluation.tiou`` when they run, so that loading this module
loads no module of the library.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np

# signal.SCRATCH_ELEMENTS, the fits' budget, restated: the reference imports none of what it checks,
# and ``verify gradients``, which loads this module, must not load ``signal``
SCRATCH_ELEMENTS = 1 << 16


def smooth_column_direct(column: Sequence[float], sigma: float) -> np.ndarray:
    """Naive truncated-Gaussian smoothing with reflected edge indices."""
    radius = int(4.0 * sigma + 0.5)
    weights = [math.exp(-0.5 * (i / sigma) ** 2) for i in range(-radius, radius + 1)]
    norm = sum(weights)
    n = len(column)
    out = []
    for t in range(n):
        acc = 0.0
        for offset in range(-radius, radius + 1):
            k = t + offset
            while not 0 <= k < n:
                # one snippet reflects onto itself, as np.pad's "reflect" mode pads it
                k = 0 if n == 1 else -k if k < 0 else 2 * n - 2 - k
            acc += column[k] * weights[offset + radius]
        out.append(acc / norm)
    return np.array(out)


def interpolate_column_direct(column: Sequence[float], target_length: int) -> np.ndarray:
    """Piecewise-linear resampling computed point by point."""
    n = len(column)
    out = []
    for i in range(target_length):
        position = i * (n - 1) / max(target_length - 1, 1)  # one position is the first snippet
        low = int(math.floor(position))
        high = min(low + 1, n - 1)
        fraction = position - low
        out.append(column[low] * (1.0 - fraction) + column[high] * fraction)
    return np.array(out)


def top_k_mean_direct(column: Sequence[float], k: int) -> float:
    ordered = sorted(column, reverse=True)
    return float(sum(ordered[:k]) / k)


def _profile_errors(column, boundary, t_star: int, params, model) -> np.ndarray:
    """Sum of squared errors over the snippets of ``boundary`` (inclusive) of the
    profile ``model`` draws at every value ``p`` of ``params``.

    ``model(height, offsets, p, out)`` writes the profile of each value of a
    column ``p`` into the rows of ``out``; ``offsets`` are the snippet positions
    minus ``t_star`` and ``height`` is ``column[t_star]``. ``params`` go in
    blocks of ``SCRATCH_ELEMENTS // n`` values for an ``n``-snippet segment (at
    least one), and every block is evaluated in place in one scratch array
    allocated per call, which holds at most ``SCRATCH_ELEMENTS`` (2**16) float64
    elements unless the segment alone is longer. Each value is the sum of its
    own row, so the block size never changes a value.
    """
    column = np.asarray(column, dtype=np.float64)
    segment = column[boundary.b_start : boundary.b_end + 1]
    offsets = np.arange(boundary.b_start, boundary.b_end + 1, dtype=np.float64) - t_star
    height = column[t_star]
    params = np.asarray(params, dtype=np.float64)
    values = np.empty(params.size)
    rows = max(1, SCRATCH_ELEMENTS // segment.size)
    scratch = np.empty((min(rows, params.size), segment.size))
    for i in range(0, params.size, rows):
        block = params[i : i + rows, None]
        out = scratch[: block.shape[0]]
        model(height, offsets, block, out)
        np.subtract(out, segment, out=out)
        np.square(out, out=out)
        out.sum(axis=1, out=values[i : i + rows])
    return values


def _gaussian_profile(height, x, sigma, out) -> None:
    """``height * exp(-0.5 * (x / sigma) ** 2)``, written into ``out`` in that order."""
    np.divide(x, sigma, out=out)
    np.square(out, out=out)
    np.multiply(-0.5, out, out=out)
    np.exp(out, out=out)
    np.multiply(height, out, out=out)


def _rectangle_profile(height, x, omega, out) -> None:
    """``where(|x| <= omega, height, 0)`` for a finite ``height``, written into ``out``.

    Outside the rectangle it writes ``height * 0.0``, which may be ``-0.0``; its
    squared error against any snippet equals that of ``0.0``.
    """
    np.less_equal(np.abs(x), omega, out=out)
    np.multiply(height, out, out=out)


def gaussian_objective_grid(column, boundary, t_star: int, sigmas) -> np.ndarray:
    """Squared error of ``column[t_star] * exp(-x**2 / (2 sigma**2))`` at every sigma.

    Derived apart from ``adm``'s objectives, which tests compare against it.
    """
    return _profile_errors(column, boundary, t_star, sigmas, _gaussian_profile)


def uniform_objective_grid(column, boundary, t_star: int, omegas) -> np.ndarray:
    """Squared error of a rectangle of height ``column[t_star]`` over ``|x| <= omega`` at every omega."""
    return _profile_errors(column, boundary, t_star, omegas, _rectangle_profile)


def nearest_background_scan(t: int, indices: Sequence[int], length: int) -> tuple[int, int]:
    """Linear scan for the nearest background index on each side of ``t``."""
    before = 0
    found_before = False
    for index in indices:
        if index <= t:
            before = index
            found_before = True
    after = length - 1
    for index in reversed(list(indices)):
        if index >= t:
            after = index
    if not found_before:
        before = 0
    return before, after


def oic_direct(column: Sequence[float], start: int, end: int, inflation: float) -> float:
    """Outer-inner contrast computed with explicit index lists; each flank at least one snippet wide."""
    inner = [column[t] for t in range(start, end + 1)]
    width = max(1, int(round(inflation * (end - start + 1))))
    outer = []
    # the flanks' snippets inside the column; a width may exceed any column
    for t in range(max(0, start - width), start):
        outer.append(column[t])
    for t in range(end + 1, min(len(column), end + 1 + width)):
        outer.append(column[t])
    inner_mean = sum(inner) / len(inner)
    outer_mean = sum(outer) / len(outer) if outer else 0.0
    return inner_mean - outer_mean


def nms_direct(proposals, tiou_threshold: float):
    """Greedy NMS by repeated argmax over the remaining pool."""
    from .evaluation import tiou

    remaining = sorted(
        proposals, key=lambda p: (-p.score, p.start, p.end, p.class_id)
    )
    kept = []
    while remaining:
        best = remaining.pop(0)
        kept.append(best)
        remaining = [
            p
            for p in remaining
            if p.class_id != best.class_id
            or tiou((p.start, p.end), (best.start, best.end)) <= tiou_threshold
        ]
    return kept


def average_precision_direct(proposals, gt, tiou_threshold: float) -> float:
    """Definition-first AP: explicit matching, then rectangles under the
    precision envelope, recomputing the envelope from scratch at every step,
    summed exactly."""
    from .evaluation import tiou

    ordered = sorted(proposals, key=lambda p: (-p.score, p.video_id, p.start, p.end))
    remaining = [(g.video_id, g.start, g.end) for g in gt]
    hits = []
    for proposal in ordered:
        best_index = None
        best_value = 0.0
        for index, (video_id, start, end) in enumerate(remaining):
            if video_id != proposal.video_id:
                continue
            value = tiou((proposal.start, proposal.end), (start, end))
            if value > best_value:
                best_index, best_value = index, value
        if best_index is not None and best_value >= tiou_threshold:
            remaining.pop(best_index)
            hits.append(True)
        else:
            hits.append(False)
    terms = []
    previous_recall = 0.0
    true_positives = 0
    for hit in hits:
        if not hit:
            continue
        true_positives += 1
        recall = true_positives / len(gt)
        envelope = 0.0
        running = 0
        for rank, later_hit in enumerate(hits, start=1):
            if later_hit:
                running += 1
            if running >= true_positives:
                envelope = max(envelope, running / rank)
        terms.append((recall - previous_recall) * envelope)
        previous_recall = recall
    return math.fsum(terms)


def finite_difference_gradient(
    loss_fn: Callable[[], float], values: np.ndarray, step: float = 1e-5
) -> np.ndarray:
    """Central finite differences of ``loss_fn`` w.r.t. every entry of ``values``.

    ``loss_fn`` must read ``values`` afresh on each call; entries are perturbed
    in place and restored.
    """
    gradient = np.zeros_like(values, dtype=np.float64)
    flat_values = values.reshape(-1)
    flat_gradient = gradient.reshape(-1)
    for i in range(flat_values.size):
        original = flat_values[i]
        flat_values[i] = original + step
        upper = loss_fn()
        flat_values[i] = original - step
        lower = loss_fn()
        flat_values[i] = original
        flat_gradient[i] = (upper - lower) / (2.0 * step)
    return gradient


def max_relative_error(analytic, numeric, floor: float = 1e-6) -> float:
    """Largest entrywise |a - b| / max(|a|, |b|, floor)."""
    a = np.asarray(analytic, dtype=np.float64).ravel()
    b = np.asarray(numeric, dtype=np.float64).ravel()
    scale = np.maximum(np.maximum(np.abs(a), np.abs(b)), floor)
    return float(np.max(np.abs(a - b) / scale)) if a.size else 0.0
