"""Pseudo-label generation by fitting Gaussian and uniform profiles to actionness.

For each annotated point the pipeline finds preliminary boundaries from the
predicted background points, locates the class-probability peak near the
annotation, fits a peak-height-matched Gaussian and a centred rectangle to the
class column inside the boundaries, and combines the two fitted half-extents
into one labelled interval. ``label_videos`` runs the whole pipeline over a
dataset, from each video's pyramid levels to its labels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from . import signal
from .errors import InvalidInputError
from .optim import minimize_lanes
from .records import PointAnnotation, PseudoLabel
from .signal import (
    BackgroundPoints,
    ProbabilitySignal,
    select_background_points,
    smooth_column,
    upsample_column,
    video_pyramids,
)

SIGMA_LOWER_BOUND = 1e-6
# Fixed hyperparameters, read when the function that uses each runs. ``PEAK_WINDOW``
# bounds ``find_peak``'s search around a point as a fraction of its boundary's
# duration. A label's half-extent in ``label_videos`` is
# ``GAUSSIAN_WEIGHT * sigma + UNIFORM_WEIGHT * omega``: an equal blend, as summing
# the two (1.0/1.0) measurably over-extends intervals on flat-profile actions. The
# smoothing std and the point radius live in ``signal``, whose functions read them.
PEAK_WINDOW = 0.25
GAUSSIAN_WEIGHT = 0.5
UNIFORM_WEIGHT = 0.5


@dataclass
class PreliminaryBoundary:
    """Span between the nearest predicted background snippets around a point."""

    b_start: int
    b_end: int

    def __post_init__(self):
        if self.b_start < 0 or self.b_start > self.b_end:
            raise InvalidInputError(
                f"boundary must satisfy 0 <= b_start <= b_end, got [{self.b_start}, {self.b_end}]"
            )

    @property
    def duration(self) -> int:
        return self.b_end - self.b_start


class Fit(NamedTuple):
    """A fitted half-extent and its squared error."""

    value: float
    error: float


def video_boundaries(
    points: Sequence[PointAnnotation], background: BackgroundPoints, length: int
) -> list[PreliminaryBoundary]:
    """Nearest background snippets on both sides of each of one video's annotated points.

    Falls back to the video edges when no background point exists on a side.
    Two ``np.searchsorted`` calls on the sorted background indices find every
    point's last index at or before it and first index at or after it.
    """
    ts = np.array([point.t for point in points], dtype=np.int64)
    outside = np.flatnonzero((ts < 0) | (ts >= length))
    if outside.size:
        raise InvalidInputError(f"annotation t={points[outside[0]].t} outside [0, {length})")
    # the background indices between the two edge fallbacks: position i + 1 holds index i
    padded = np.concatenate(([0], background.indices, [length - 1]))
    b_starts = padded[np.searchsorted(background.indices, ts, "right")]
    b_ends = padded[np.searchsorted(background.indices, ts, "left") + 1]
    return [PreliminaryBoundary(*bounds) for bounds in zip(b_starts.tolist(), b_ends.tolist())]


def find_peak(column: np.ndarray, boundary: PreliminaryBoundary, t: int) -> int:
    """Argmax of the class column inside the boundary and within ``PEAK_WINDOW``
    of the boundary's duration around ``t``.

    ``t`` must lie inside the boundary, as every point does in its
    ``video_boundaries`` boundary, so the window holds ``t`` itself and is
    never empty. Among equal maxima the one nearest ``t`` wins, and of two at
    the same distance the left one, so a flat column keeps the peak at the point.
    """
    if not boundary.b_start <= t <= boundary.b_end:
        raise InvalidInputError(f"t={t} outside the boundary [{boundary.b_start}, {boundary.b_end}]")
    column = np.asarray(column, dtype=np.float64)
    radius = PEAK_WINDOW * boundary.duration
    lo = max(boundary.b_start, math.ceil(t - radius))
    hi = min(boundary.b_end, math.floor(t + radius))
    # the first maximum outward from t on each side, t itself on both
    left = int(np.argmax(column[lo : t + 1][::-1]))
    right = int(np.argmax(column[t : hi + 1]))
    # the higher side wins; at equal height the nearer, and the left at equal distance
    if (column[t - left], -left) >= (column[t + right], -right):
        return t - left
    return t + right


class _Segments(NamedTuple):
    """Every fit's boundary segment, one after another, and what the fits need of each."""

    values: np.ndarray  # the segments' snippets
    starts: np.ndarray  # where each fit's segment starts in ``values``
    sizes: np.ndarray  # each segment's snippet count
    heights: np.ndarray  # each fit's ``column[t_star]``
    lefts: np.ndarray  # each fit's ``t_star - b_start``

    @classmethod
    def of(cls, fits: Sequence[tuple[np.ndarray, PreliminaryBoundary, int]]) -> "_Segments":
        """The segments of ``(column, boundary, t_star)`` fits, each with ``b_start <= t_star <= b_end < len(column)``."""
        segments, heights, lefts = [], [], []
        for column, boundary, t_star in fits:
            column = np.asarray(column, dtype=np.float64)
            if not boundary.b_start <= t_star <= boundary.b_end:
                raise InvalidInputError(f"t_star={t_star} outside the boundary [{boundary.b_start}, {boundary.b_end}]")
            if boundary.b_end >= column.size:
                raise InvalidInputError(
                    f"boundary [{boundary.b_start}, {boundary.b_end}] past the end of a {column.size}-snippet column"
                )
            segments.append(column[boundary.b_start : boundary.b_end + 1])
            heights.append(column[t_star])
            lefts.append(t_star - boundary.b_start)
        sizes = np.array([segment.size for segment in segments], dtype=np.int64)
        values = np.concatenate(segments) if segments else np.empty(0)
        starts = np.cumsum(sizes) - sizes
        return cls(values, starts, sizes, np.array(heights, dtype=np.float64), np.array(lefts, dtype=np.int64))

    @property
    def uppers(self) -> np.ndarray:
        """Each fit's ``u_b``, as ``sigma_upper_bound`` states it."""
        return _upper_bounds(self.lefts, self.sizes - 1)


def _gaussian_profile(x: np.ndarray, sigmas: np.ndarray, heights: np.ndarray) -> np.ndarray:
    """``heights * exp(-0.5 * (x / sigmas) ** 2)``, written into ``x``."""
    x /= sigmas
    np.square(x, out=x)
    x *= -0.5
    np.exp(x, out=x)
    x *= heights
    return x


def _rectangle_profile(x: np.ndarray, omegas: np.ndarray, heights: np.ndarray) -> np.ndarray:
    """``where(|x| <= omegas, heights, 0.0)``."""
    return np.where(np.abs(x) <= omegas, heights, 0.0)


def _profile_errors(segments: _Segments, profile):
    """``errors(params, lanes)[k]``: the squared error of fit ``lanes[k]``'s
    ``profile`` at ``params[k]``, summed over its segment.

    The lanes go in ``signal.size_blocks`` of ``signal.SCRATCH_ELEMENTS // 8``
    padded snippets, so lanes of one size lie side by side, and the
    elementwise model runs over one block at a time, which holds at most six
    arrays of its snippets at once. Each run of equal sizes in a block is one
    ``(k, n)`` view of the block's squares, summed by one row reduction, which
    rounds as ``np.add.reduce`` of each row alone does, so neither the order
    nor the block size changes a value.
    """

    def errors(params: np.ndarray, lanes: np.ndarray) -> np.ndarray:
        sums = np.empty(lanes.size)
        for block in signal.size_blocks(segments.sizes[lanes], signal.SCRATCH_ELEMENTS // 8):
            block_lanes = lanes[block]
            lengths = segments.sizes[block_lanes]
            ends = np.cumsum(lengths)
            starts = ends - lengths  # where each lane's snippets start in the block
            index = np.arange(ends[-1]) + np.repeat(segments.starts[block_lanes] - starts, lengths)
            x = np.arange(ends[-1], dtype=np.float64)
            # each snippet's offset from its t_star, exact below 2**53
            x -= np.repeat(starts + segments.lefts[block_lanes], lengths)
            x = profile(x, np.repeat(params[block], lengths), np.repeat(segments.heights[block_lanes], lengths))
            x -= segments.values[index]
            np.square(x, out=x)
            firsts = np.flatnonzero(np.diff(lengths, prepend=0)).tolist()  # each run of one size starts at one
            for low, high in zip(firsts, [*firsts[1:], block.size]):
                rows = x[starts[low] : ends[high - 1]].reshape(high - low, -1)
                sums[block[low:high]] = np.add.reduce(rows, axis=1)
        return sums

    return errors


def _upper_bounds(lefts, durations):
    """``max(t_star - b_start, b_end - t_star)`` of fits with ``lefts = t_star - b_start``
    and ``durations = b_end - b_start``, elementwise."""
    return np.maximum(lefts, durations - lefts)


def sigma_upper_bound(boundary: PreliminaryBoundary, t_star: int) -> float:
    """Largest distance from the peak to either boundary end."""
    return float(_upper_bounds(t_star - boundary.b_start, boundary.duration))


def fit_gaussians(fits: Sequence[tuple[np.ndarray, PreliminaryBoundary, int]]) -> list[Fit]:
    """Least-squares std of a peak-height-matched Gaussian for every
    ``(column, boundary, t_star)`` fit, each on ``[SIGMA_LOWER_BOUND, u_b]``,
    in one lockstep ``minimize_lanes`` search.

    The scale factor that matches the Gaussian's peak to ``column[t_star]``
    cancels the usual 1/(sigma*sqrt(2*pi)) normalization, leaving a bump of
    that height over the boundary's segment. ``_profile_errors`` evaluates
    the squared errors of every lane still searching at once, so its
    temporaries do not grow with the number or length of the fits, and each
    fit's error equals ``np.sum`` over that fit alone, bit for bit.

    Returns one ``Fit(sigma, error)`` per fit, the error being the minimizer's
    objective value at sigma; a one-snippet boundary, too tight to search,
    pins sigma to the lower bound. Each fit equals a search of its objective
    alone.
    """
    segments = _Segments.of(fits)
    errors = _profile_errors(segments, _gaussian_profile)
    uppers = segments.uppers.astype(np.float64)
    # a one-snippet boundary's u_b is 0, and minimize_lanes needs lo < hi: its sigma is pinned
    tight = uppers <= SIGMA_LOWER_BOUND
    searched = np.flatnonzero(~tight)
    result = minimize_lanes(
        lambda sigmas, lanes: errors(sigmas, searched[lanes]),
        np.full(searched.size, SIGMA_LOWER_BOUND),
        uppers[searched],
    )
    sigmas, fit_errors = np.full(uppers.size, SIGMA_LOWER_BOUND), np.empty(uppers.size)
    sigmas[searched], fit_errors[searched] = result.x, result.f
    pinned = np.flatnonzero(tight)
    fit_errors[pinned] = errors(sigmas[pinned], pinned)
    return [Fit(*fit) for fit in zip(sigmas.tolist(), fit_errors.tolist())]


def fit_uniforms(fits: Sequence[tuple[np.ndarray, PreliminaryBoundary, int]]) -> list[Fit]:
    """Least-squares rectangle half-width of every ``(column, boundary, t_star)``
    fit, each on ``[0, u_b]``, in one batched scan.

    The objective is piecewise constant in omega (it only changes when the
    rectangle grows past another snippet), so the exact argmin is found by
    scoring each integer distance breakpoint; ties resolve to the smallest
    half-width. Covering a snippet changes the squared error by
    ``height**2 - 2*height*column[t]``. Each fit's increments, in order of
    distance from ``t_star`` (the earlier snippet first on a tie), form one
    row, padded to the longest row of its block, and ``np.cumsum`` along the
    rows gives every fit's running totals at once: a row's cumsum runs in
    order like a 1-D one, so the padding, after the row's own increments,
    does not touch their totals. A row ``argmin`` keeps the first minimum,
    and widths past a fit's own ``u_b`` repeat its width-0 total, so it never
    picks them. The fits go in ``signal.size_blocks`` of
    ``signal.SCRATCH_ELEMENTS // 8`` padded snippets.

    Returns one ``Fit(omega, error)`` per fit, the error evaluated directly at
    omega (the running totals round differently) by ``_profile_errors``, as
    ``fit_gaussians`` evaluates its objective.
    """
    segments = _Segments.of(fits)
    lefts, sizes, uppers = segments.lefts, segments.sizes, segments.uppers
    both = np.minimum(lefts, sizes - 1 - lefts)
    sides = np.where(lefts > both, -1, 1)  # the longer side, whose rest follows once both sides are covered
    peaks = segments.starts + lefts  # where each t_star lies in ``segments.values``
    squared, doubled = segments.heights * segments.heights, 2.0 * segments.heights
    omegas = np.empty(sizes.size)
    for block in signal.size_blocks(sizes, signal.SCRATCH_ELEMENTS // 8):
        # the j-th snippet by distance lies at t_star + 0, -1, +1, ..., -both, +both, then on the
        # longer side; the padding past a row's own snippets reads its t_star
        j = np.arange(int(sizes[block[-1]]))
        near = (j + 1) // 2 * np.where(j % 2, -1, 1)
        block_both = both[block, None]
        steps = np.where(j <= 2 * block_both, near, (j - block_both) * sides[block, None])
        steps[j >= sizes[block, None]] = 0
        increments = segments.values[peaks[block, None] + steps]
        increments *= doubled[block, None]
        np.subtract(squared[block, None], increments, out=increments)
        totals = np.cumsum(increments, axis=1)
        # the last snippet a rectangle of half-width d covers, for d = 0 .. u_b
        widths = np.arange(int(uppers[block].max()) + 1)
        last = widths + np.minimum(widths, block_both)
        # a width past the fit's own u_b reads the total of width 0, which comes first, so argmin never picks it
        last[widths > uppers[block, None]] = 0
        omegas[block] = np.argmin(np.take_along_axis(totals, last, axis=1), axis=1)
    errors = _profile_errors(segments, _rectangle_profile)(omegas, np.arange(sizes.size))
    return [Fit(*fit) for fit in zip(omegas.tolist(), errors.tolist())]


def label_videos(
    signals: Iterable[ProbabilitySignal],
    points: Sequence[PointAnnotation],
    background_threshold: float = 0.5,
) -> list[PseudoLabel]:
    """Fit one pseudo-label per annotated point, never dropping any, video by
    video in sorted id order and in each video in the order of its points.

    ``signals`` holds every video's pyramid levels, in any order, as
    ``storage.load_signals`` returns them; ``video_pyramids`` reads and checks
    every video's pyramid, annotated or not. Background points come from level
    1 by ``select_background_points``: the snippets whose background
    probability exceeds ``background_threshold``, which must lie in ``(0, 1)``
    and is checked before any other work, outside each point's window of
    ``signal.AUGMENT_RADIUS``. Each video's preliminary boundaries come from
    one ``video_boundaries`` search, and each point's peak from ``find_peak``
    within ``PEAK_WINDOW``. The fits run on the coarsest level's columns of
    the points' classes, each smoothed by ``smooth_column`` at
    ``signal.SMOOTHING_SIGMA`` and then upsampled to the level-1 length: the
    Gaussian fits of all points in one lockstep search (``fit_gaussians``)
    and their rectangle fits in one batched scan (``fit_uniforms``), each
    over one concatenation of the points' segments. Each label's half-extent is
    ``GAUSSIAN_WEIGHT * sigma + UNIFORM_WEIGHT * omega``, finite as sigma and
    omega are each at most the boundary's ``u_b``, and its interval is rounded
    then clipped to the video. A label is degenerate when its boundary is one
    snippet, which only a one-snippet level 1 gives, as a point's own snippet
    is never background. Each label carries its two fit errors.

    The upsampling is end-aligned on purpose: ``upsample_column`` places
    coarse snippet ``j`` of ``n`` at level-1 position ``j*(L-1)/(n-1)``, so
    the first and last coarse snippets land on the first and last level-1
    snippets, not at the centre of the level-1 snippets pooled into them, as
    ``decoder.decode_videos`` maps a coarse run. Centring the positions was
    measured to lower label mAP by 0.06 points at 2 levels and 0.23 points at
    3 levels on the baseline synth data, and left proposals unchanged.
    """
    if not 0.0 < background_threshold < 1.0:  # NaN and inf fail this too
        raise InvalidInputError(f"background_threshold must be in (0, 1), got {background_threshold}")
    pyramids = video_pyramids(signals)
    by_video: dict[str, list[PointAnnotation]] = {}
    for point in points:
        by_video.setdefault(point.video_id, []).append(point)
    missing = sorted(set(by_video) - set(pyramids))
    if missing:
        raise InvalidInputError(f"annotations reference videos without signals: {missing}")

    peaks, fits = [], []
    for video_id in sorted(by_video):
        levels = pyramids[video_id].levels
        finest, coarsest = levels[0], levels[-1]
        video_points = by_video[video_id]
        background = select_background_points(finest, video_points, background_threshold)
        # only the classes the video's points name, in the order the points first name them
        columns = {
            class_id: upsample_column(smooth_column(coarsest.class_column(class_id)), finest.length)
            for class_id in dict.fromkeys(point.class_id for point in video_points)
        }
        for point, boundary in zip(video_points, video_boundaries(video_points, background, finest.length)):
            column = columns[point.class_id]
            t_star = find_peak(column, boundary, point.t)
            peaks.append((point, finest.length, boundary, t_star))
            fits.append((column, boundary, t_star))
    gaussians = fit_gaussians(fits)
    uniforms = fit_uniforms(fits)

    labels = []
    for (point, length, boundary, t_star), gaussian, uniform in zip(peaks, gaussians, uniforms):
        half_extent = GAUSSIAN_WEIGHT * gaussian.value + UNIFORM_WEIGHT * uniform.value
        start = int(round(t_star - half_extent))
        end = int(round(t_star + half_extent))
        start = max(0, min(start, length - 1))
        end = max(0, min(end, length - 1))
        labels.append(
            PseudoLabel(
                video_id=point.video_id,
                t=point.t,
                t_star=t_star,
                sigma=gaussian.value,
                omega=uniform.value,
                delta=half_extent,
                start=start,
                end=end,
                class_id=point.class_id,
                degenerate=boundary.duration == 0,
                gaussian_error=gaussian.error,
                uniform_error=uniform.error,
            )
        )
    return labels
