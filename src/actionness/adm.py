"""Pseudo-label generation by fitting Gaussian and uniform profiles to actionness.

For each annotated point the pipeline finds preliminary boundaries from the
predicted background points, locates the class-probability peak near the
annotation, fits a peak-height-matched Gaussian and a centred rectangle to the
class column inside the boundaries, and combines the two fitted half-extents
into one labelled interval. ``label_videos`` runs the whole pipeline over a
dataset, from each video's pyramid levels to its labels.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from .errors import InvalidInputError, require_finite
from .optim import minimize_lanes
from .records import PointAnnotation, PseudoLabel
from .signal import (
    BackgroundPoints,
    ProbabilitySignal,
    augment_points,
    pyramid_scales,
    select_background_points,
    smooth_signal,
    upsample_signal,
)

SIGMA_LOWER_BOUND = 1e-6
# most float64 elements (512 KiB) the temporaries of one block of fit work hold: the live arrays of a
# block of ``_profile_errors`` or ``fit_uniforms``, and the scratch array of ``oracles._profile_errors``
SCRATCH_ELEMENTS = 1 << 16


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


@dataclass
class ADMConfig:
    """Knobs for distribution fitting and interval construction.

    ``delta`` bounds the peak search window as a fraction of the boundary
    duration; ``gamma1``/``gamma2`` weight the fitted Gaussian std and uniform
    half-width in the final interval half-extent. The defaults blend the two
    fitted half-extents equally; summing them (1.0/1.0) measurably over-extends
    intervals on flat-profile actions. ``smoothing_sigma`` is the std of the
    Gaussian smoothing applied before the fits; ``background_threshold`` is the
    background probability a snippet must exceed to count as background;
    ``clip_to_boundary`` clips each interval to its preliminary boundary.
    ``r_a`` widens each annotated point before background points are picked.
    The Gaussian std is searched from the fixed ``SIGMA_LOWER_BOUND`` up.
    """

    delta: float = 0.25
    gamma1: float = 0.5
    gamma2: float = 0.5
    smoothing_sigma: float = 2.0
    background_threshold: float = 0.5
    clip_to_boundary: bool = False
    r_a: int = 2

    def __post_init__(self):
        # the range checks below reject NaN and inf in the other fields
        require_finite(gamma1=self.gamma1, gamma2=self.gamma2, smoothing_sigma=self.smoothing_sigma)
        if not 0.0 < self.delta <= 0.5:
            raise InvalidInputError(f"delta must be in (0, 0.5], got {self.delta}")
        if self.gamma1 < 0 or self.gamma2 < 0:
            raise InvalidInputError("gamma1 and gamma2 must be >= 0")
        if self.gamma1 + self.gamma2 <= 0:
            raise InvalidInputError("gamma1 + gamma2 must be > 0")
        if self.smoothing_sigma <= 0:
            raise InvalidInputError(f"smoothing_sigma must be > 0, got {self.smoothing_sigma}")
        if not 0.0 < self.background_threshold < 1.0:
            raise InvalidInputError(
                f"background_threshold must be in (0, 1), got {self.background_threshold}"
            )
        if self.r_a < 0:
            raise InvalidInputError(f"r_a must be >= 0, got {self.r_a}")


class Fit(NamedTuple):
    """A fitted half-extent, whether the boundary was too tight to search, and its squared error."""

    value: float
    degenerate: bool
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


def find_peak(
    column: np.ndarray, boundary: PreliminaryBoundary, t: int, delta: float
) -> tuple[int, bool]:
    """Argmax of the class column inside the boundary and the delta-window.

    Returns ``(t_star, found)``. Ties resolve to the smallest index; an empty
    search window falls back to the annotated point itself with found=False.
    """
    column = np.asarray(column, dtype=np.float64)
    radius = delta * boundary.duration
    lo = max(boundary.b_start, math.ceil(t - radius))
    hi = min(boundary.b_end, math.floor(t + radius))
    if lo > hi:
        return t, False
    window = column[lo : hi + 1]
    return lo + int(np.argmax(window)), True


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

    The lanes go in order of segment size (a stable sort), so lanes of one
    size lie side by side. The elementwise model runs over one block of whole
    lanes at a time, of at most ``SCRATCH_ELEMENTS // 8`` snippets unless a
    single segment is longer; a block holds at most six arrays of its length
    at once. Each run of equal sizes in a block is one ``(k, n)`` view of the
    block's squares, summed by one row reduction, which rounds as
    ``np.add.reduce`` of each row alone does, so neither the order nor the
    block size changes a value.
    """

    def errors(params: np.ndarray, lanes: np.ndarray) -> np.ndarray:
        order = np.argsort(segments.sizes[lanes], kind="stable")
        lanes, params = lanes[order], params[order]
        lengths = segments.sizes[lanes]
        ends = np.cumsum(lengths)
        # each lane's t_star among the sorted lanes' snippets, and the shift from there to ``segments``
        centres = ends - lengths + segments.lefts[lanes]
        shifts = segments.starts[lanes] - (ends - lengths)
        bounds = [0, *ends.tolist()]  # lane i's snippets are bounds[i] .. bounds[i + 1] - 1
        runs = np.flatnonzero(np.diff(lengths, prepend=0)).tolist()  # lanes that start a run of one size
        sums = np.empty(lanes.size)
        first = 0
        while first < lanes.size:
            # whole lanes up to the block budget, at least one lane
            last = max(first + 1, bisect.bisect_right(bounds, bounds[first] + SCRATCH_ELEMENTS // 8) - 1)
            block = slice(first, last)
            counts = lengths[block]
            index = np.arange(bounds[first], bounds[last]) + np.repeat(shifts[block], counts)
            x = np.arange(bounds[first], bounds[last], dtype=np.float64)
            x -= np.repeat(centres[block], counts)  # each snippet's offset from its t_star, exact below 2**53
            x = profile(x, np.repeat(params[block], counts), np.repeat(segments.heights[lanes[block]], counts))
            x -= segments.values[index]
            np.square(x, out=x)
            cuts = [first, *runs[bisect.bisect_right(runs, first) : bisect.bisect_left(runs, last)], last]
            for low, high in zip(cuts, cuts[1:]):
                rows = x[bounds[low] - bounds[first] : bounds[high] - bounds[first]].reshape(high - low, -1)
                np.add.reduce(rows, axis=1, out=sums[low:high])
            first = last
        values = np.empty(lanes.size)
        values[order] = sums
        return values

    return errors


def gaussian_fit_errors(fits: Sequence[tuple[np.ndarray, PreliminaryBoundary, int]]):
    """Squared-error objectives in sigma of a peak-height-matched Gaussian for
    many ``(column, boundary, t_star)`` fits, evaluated together:
    ``errors(sigmas, lanes)[k]`` is fit ``lanes[k]``'s error at ``sigmas[k]``.

    The scale factor that matches the Gaussian's peak to the signal value at
    ``t_star`` cancels the usual 1/(sigma*sqrt(2*pi)) normalization, leaving a
    bump of height ``column[t_star]`` over the boundary's segment.

    Every fit's segment is held in one concatenated array. An evaluation
    orders its lanes by segment size, builds the squares block by block and
    sums each run of equal sizes by one row reduction (``_profile_errors``),
    so its temporaries do not grow with the number or length of the fits, and
    each fit's error equals ``np.sum`` over that fit alone, bit for bit.
    """
    return _profile_errors(_Segments.of(fits), _gaussian_profile)


def uniform_fit_errors(fits: Sequence[tuple[np.ndarray, PreliminaryBoundary, int]]):
    """Sum-of-squared-errors objectives in omega of a peak-height-matched centred
    rectangle, for many fits evaluated together as in ``gaussian_fit_errors``."""
    return _profile_errors(_Segments.of(fits), _rectangle_profile)


def _upper_bounds(lefts, durations):
    """``max(t_star - b_start, b_end - t_star)`` of fits with ``lefts = t_star - b_start``
    and ``durations = b_end - b_start``, elementwise."""
    return np.maximum(lefts, durations - lefts)


def sigma_upper_bound(boundary: PreliminaryBoundary, t_star: int) -> float:
    """Largest distance from the peak to either boundary end."""
    return float(_upper_bounds(t_star - boundary.b_start, boundary.duration))


def fit_gaussians(fits: Sequence[tuple[np.ndarray, PreliminaryBoundary, int]]) -> list[Fit]:
    """Least-squares Gaussian std of every ``(column, boundary, t_star)`` fit,
    each on ``[SIGMA_LOWER_BOUND, u_b]``, in one lockstep ``minimize_lanes`` search.

    Returns one ``Fit(sigma, degenerate, error)`` per fit, the error being the
    minimizer's objective value at sigma; a boundary too tight to search pins
    sigma to the lower bound and sets the flag. Each fit equals a search of its
    objective alone.
    """
    return _fit_gaussians(_Segments.of(fits))


def _fit_gaussians(segments: _Segments) -> list[Fit]:
    """``fit_gaussians`` of the fits whose segments ``segments`` holds."""
    errors = _profile_errors(segments, _gaussian_profile)
    uppers = segments.uppers.astype(np.float64)
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
    return [Fit(*fit) for fit in zip(sigmas.tolist(), tight.tolist(), fit_errors.tolist())]


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
    picks them. The fits go in blocks of similar sizes (a stable sort by
    segment size) of at most ``SCRATCH_ELEMENTS // 8`` padded snippets,
    unless one segment is longer.

    Returns one ``Fit(omega, degenerate, error)`` per fit, the error evaluated
    directly at omega (the running totals round differently) by the same
    size-grouped row reduction as ``gaussian_fit_errors``; a one-snippet
    boundary sets the flag.
    """
    return _fit_uniforms(_Segments.of(fits))


def _fit_uniforms(segments: _Segments) -> list[Fit]:
    """``fit_uniforms`` of the fits whose segments ``segments`` holds, each peak inside its boundary."""
    lefts, sizes, uppers = segments.lefts, segments.sizes, segments.uppers
    both = np.minimum(lefts, sizes - 1 - lefts)
    sides = np.where(lefts > both, -1, 1)  # the longer side, whose rest follows once both sides are covered
    peaks = segments.starts + lefts  # where each t_star lies in ``segments.values``
    squared, doubled = segments.heights * segments.heights, 2.0 * segments.heights
    omegas = np.empty(sizes.size)
    order = np.argsort(sizes, kind="stable")
    ordered = sizes[order].tolist()
    first = 0
    while first < order.size:
        # fits up to the block budget of padded snippets, at least one fit: k fits from ``first`` pad
        # to k * ordered[first + k - 1] snippets, which grows with k
        fitting = bisect.bisect_right(
            range(1, order.size - first + 1), SCRATCH_ELEMENTS // 8, key=lambda k: k * ordered[first + k - 1]
        )
        block = order[first : first + max(1, fitting)]
        first += block.size
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
    return [Fit(*fit) for fit in zip(omegas.tolist(), (uppers == 0).tolist(), errors.tolist())]


def generate_pseudo_labels(
    videos: Sequence[tuple[ProbabilitySignal, Sequence[PointAnnotation], BackgroundPoints]],
    config: ADMConfig,
) -> list[PseudoLabel]:
    """One pseudo-label per annotated point, never dropping any.

    ``videos`` holds each video's ``(signal, points, background)``; ``signal``
    is expected to be the smoothed, full-resolution probability signal. Each
    video's preliminary boundaries come from one ``video_boundaries`` search;
    the Gaussian fits of all points run in one lockstep search
    (``fit_gaussians``) and their rectangle fits in one batched scan
    (``fit_uniforms``), both over one concatenation of the points' segments.
    Each label's half-extent is ``gamma1*sigma + gamma2*omega`` and its
    interval is rounded then clipped to the video (optionally also to the
    preliminary boundary). Labels come in the order of ``videos`` and their
    points.
    """
    peaks, fits = [], []
    for signal, points, background in videos:
        for point in points:
            if point.video_id != signal.video_id:
                raise InvalidInputError(
                    f"annotation for video {point.video_id!r} applied to signal {signal.video_id!r}"
                )
        for point, boundary in zip(points, video_boundaries(points, background, signal.length)):
            column = signal.class_column(point.class_id)
            t_star, found = find_peak(column, boundary, point.t, config.delta)
            peaks.append((point, signal.length, boundary, t_star, found))
            fits.append((column, boundary, t_star))
    segments = _Segments.of(fits)
    gaussians = _fit_gaussians(segments)
    uniforms = _fit_uniforms(segments)

    labels = []
    for (point, length, boundary, t_star, found), gaussian, uniform in zip(peaks, gaussians, uniforms):
        half_extent = config.gamma1 * gaussian.value + config.gamma2 * uniform.value
        start = int(round(t_star - half_extent))
        end = int(round(t_star + half_extent))
        if config.clip_to_boundary:
            start = max(start, boundary.b_start)
            end = min(end, boundary.b_end)
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
                degenerate=gaussian.degenerate or uniform.degenerate or not found,
                gaussian_error=gaussian.error,
                uniform_error=uniform.error,
            )
        )
    return labels


def label_videos(
    grouped_levels: Mapping[str, Sequence[ProbabilitySignal]],
    points: Sequence[PointAnnotation],
    config: ADMConfig,
) -> list[PseudoLabel]:
    """Fit one pseudo-label per annotated point, video by video in sorted id order.

    ``grouped_levels`` maps each video id to its pyramid levels, in any order,
    each annotated video's checked by ``pyramid_scales``. Background points
    come from level 1 once every point is widened by ``config.r_a``; the fits
    run on the coarsest level, smoothed and then upsampled to the level-1
    length, all videos' in one ``generate_pseudo_labels`` call. Each label
    carries its two fit errors.
    """
    by_video: dict[str, list[PointAnnotation]] = {}
    for point in points:
        by_video.setdefault(point.video_id, []).append(point)
    missing = sorted(set(by_video) - set(grouped_levels))
    if missing:
        raise InvalidInputError(f"annotations reference videos without signals: {missing}")

    videos = []
    for video_id in sorted(by_video):
        levels = sorted(grouped_levels[video_id], key=lambda s: s.level)
        pyramid_scales(levels)
        finest, coarsest = levels[0], levels[-1]
        video_points = by_video[video_id]
        intervals = augment_points(video_points, config.r_a, finest.length)
        background = select_background_points(finest, intervals, config.background_threshold)
        smoothed = smooth_signal(coarsest, config.smoothing_sigma)
        if smoothed.length < finest.length:
            smoothed = upsample_signal(smoothed, finest.length)
        videos.append((smoothed, video_points, background))
    return generate_pseudo_labels(videos, config)
