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
# most float64 elements (512 KiB) a temporary of a fit objective holds, here and in ``oracles._profile_errors``
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


def preliminary_boundaries(
    point: PointAnnotation, background: BackgroundPoints, length: int
) -> PreliminaryBoundary:
    """Nearest background snippets on both sides of the annotated point.

    Falls back to the video edges when no background point exists on a side.
    """
    if not 0 <= point.t < length:
        raise InvalidInputError(f"annotation t={point.t} outside [0, {length})")
    idx = background.indices
    before = idx[idx <= point.t]
    after = idx[idx >= point.t]
    b_start = int(before[-1]) if before.size else 0
    b_end = int(after[0]) if after.size else length - 1
    return PreliminaryBoundary(b_start, b_end)


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


def gaussian_fit_errors(fits: Sequence[tuple[np.ndarray, PreliminaryBoundary, int]]):
    """Squared-error objectives in sigma of a peak-height-matched Gaussian for
    many ``(column, boundary, t_star)`` fits, evaluated together:
    ``errors(sigmas, lanes)[k]`` is fit ``lanes[k]``'s error at ``sigmas[k]``.

    The scale factor that matches the Gaussian's peak to the signal value at
    ``t_star`` cancels the usual 1/(sigma*sqrt(2*pi)) normalization, leaving a
    bump of height ``column[t_star]`` over the boundary's segment.

    Every fit's segment and offsets are held in one concatenated array. The
    elementwise model runs over one block of whole fits at a time, of at most
    ``SCRATCH_ELEMENTS`` (2**16) snippets unless a single fit is longer, so an
    evaluation's temporaries no longer grow with the number or length of the
    fits: 2**16 float64 elements each, or one fit's segment where that is
    longer. Each fit's sum is ``np.add.reduce`` over its own slice, which
    rounds exactly as ``np.sum`` over that fit alone, so the block size never
    changes a value.
    """
    segments, heights, shifts = [], [], []
    for column, boundary, t_star in fits:
        column = np.asarray(column, dtype=np.float64)
        segments.append(column[boundary.b_start : boundary.b_end + 1])
        heights.append(column[t_star])
        shifts.append(boundary.b_start - t_star)
    sizes = np.array([segment.size for segment in segments], dtype=np.int64)
    starts = np.cumsum(sizes) - sizes
    segment = np.concatenate(segments) if segments else np.empty(0)
    peak_heights = np.array(heights, dtype=np.float64)
    # each snippet's position minus its fit's t_star
    offsets = (np.arange(segment.size) - np.repeat(starts - np.array(shifts, dtype=np.int64), sizes)).astype(np.float64)

    def errors(sigmas: np.ndarray, lanes: np.ndarray) -> np.ndarray:
        values = np.empty(lanes.size)
        lengths = sizes[lanes]
        ends = np.cumsum(lengths)
        first = 0
        while first < lanes.size:
            # whole lanes up to SCRATCH_ELEMENTS snippets, at least one lane
            last = max(first + 1, int(np.searchsorted(ends, ends[first] - lengths[first] + SCRATCH_ELEMENTS, "right")))
            chunk, chunk_lanes, chunk_lengths = slice(first, last), lanes[first:last], lengths[first:last]
            chunk_ends = np.cumsum(chunk_lengths)
            chunk_starts = chunk_ends - chunk_lengths
            index = np.arange(int(chunk_ends[-1])) + np.repeat(starts[chunk_lanes] - chunk_starts, chunk_lengths)
            model = np.repeat(peak_heights[chunk_lanes], chunk_lengths) * np.exp(
                -0.5 * (offsets[index] / np.repeat(sigmas[chunk], chunk_lengths)) ** 2
            )
            squares = (model - segment[index]) ** 2
            values[chunk] = [
                np.add.reduce(squares[start:end]) for start, end in zip(chunk_starts.tolist(), chunk_ends.tolist())
            ]
            first = last
        return values

    return errors


def uniform_fit_error(column: np.ndarray, boundary: PreliminaryBoundary, t_star: int):
    """Sum-of-squared-errors objective in omega for a peak-height-matched centred rectangle."""
    return _uniform_error(*_uniform_profile(column, boundary, t_star))


def _uniform_profile(column, boundary: PreliminaryBoundary, t_star: int):
    """The boundary's segment of ``column``, each snippet's distance from ``t_star``, and the peak height."""
    column = np.asarray(column, dtype=np.float64)
    segment = column[boundary.b_start : boundary.b_end + 1]
    distances = np.abs(np.arange(boundary.b_start, boundary.b_end + 1) - t_star)
    return segment, distances, column[t_star]


def _uniform_error(segment: np.ndarray, distances: np.ndarray, height: float):
    def error(omega: float) -> float:
        model = np.where(distances <= omega, height, 0.0)
        return float(np.sum((model - segment) ** 2))

    return error


def sigma_upper_bound(boundary: PreliminaryBoundary, t_star: int) -> float:
    """Largest distance from the peak to either boundary end."""
    return float(max(t_star - boundary.b_start, boundary.b_end - t_star))


def fit_gaussians(fits: Sequence[tuple[np.ndarray, PreliminaryBoundary, int]]) -> list[Fit]:
    """Least-squares Gaussian std of every ``(column, boundary, t_star)`` fit,
    each on ``[SIGMA_LOWER_BOUND, u_b]``, in one lockstep ``minimize_lanes`` search.

    Returns one ``Fit(sigma, degenerate, error)`` per fit, the error being the
    minimizer's objective value at sigma; a boundary too tight to search pins
    sigma to the lower bound and sets the flag. Each fit equals a search of its
    objective alone.
    """
    errors = gaussian_fit_errors(fits)
    uppers = np.array([sigma_upper_bound(boundary, t_star) for _, boundary, t_star in fits], dtype=np.float64)
    tight = uppers <= SIGMA_LOWER_BOUND
    searched = np.flatnonzero(~tight)
    result = minimize_lanes(
        lambda sigmas, lanes: errors(sigmas, searched[lanes]),
        np.full(searched.size, SIGMA_LOWER_BOUND),
        uppers[searched],
    )
    sigmas, fit_errors = np.full(len(fits), SIGMA_LOWER_BOUND), np.empty(len(fits))
    sigmas[searched], fit_errors[searched] = result.x, result.f
    pinned = np.flatnonzero(tight)
    fit_errors[pinned] = errors(sigmas[pinned], pinned)
    return [Fit(*fit) for fit in zip(sigmas.tolist(), tight.tolist(), fit_errors.tolist())]


def fit_uniform(column: np.ndarray, boundary: PreliminaryBoundary, t_star: int) -> Fit:
    """Least-squares rectangle half-width on ``[0, u_b]``.

    The objective is piecewise constant in omega (it only changes when the
    rectangle grows past another snippet), so the exact argmin is found by
    scoring each integer distance breakpoint; ties resolve to the smallest
    half-width. Returns ``Fit(omega, degenerate, error)``, the error evaluated
    directly at omega (the running totals round differently). ``t_star`` must
    lie inside the boundary.
    """
    if not boundary.b_start <= t_star <= boundary.b_end:
        raise InvalidInputError(f"t_star={t_star} outside the boundary [{boundary.b_start}, {boundary.b_end}]")
    upper = sigma_upper_bound(boundary, t_star)
    segment, distances, height = _uniform_profile(column, boundary, t_star)
    error = _uniform_error(segment, distances, height)
    if upper <= 0.0:
        return Fit(0.0, True, error(0.0))

    # Covering a snippet at distance d changes the squared error by
    # height^2 - 2*height*column[t]; accumulate in order of distance, the
    # earlier snippet first on a tie: t_star, then t_star - d and t_star + d
    # while both sides last, then the rest of the longer side.
    left, right = t_star - boundary.b_start, boundary.b_end - t_star
    both, longest = min(left, right), max(left, right)
    near = np.arange(1, both + 1)
    far = np.arange(both + 1, longest + 1)
    offsets = np.concatenate(([0], np.stack((-near, near), axis=1).ravel(), -far if left > right else far))
    cumulative = np.cumsum(height * height - 2.0 * height * segment[left + offsets])
    # the last snippet a rectangle of half-width d covers, for d = 0 .. upper
    widths = np.arange(longest + 1)
    omega = float(np.argmin(cumulative[widths + np.minimum(widths, both)]))
    return Fit(omega, False, error(omega))


def generate_pseudo_labels(
    videos: Sequence[tuple[ProbabilitySignal, Sequence[PointAnnotation], BackgroundPoints]],
    config: ADMConfig,
) -> list[PseudoLabel]:
    """One pseudo-label per annotated point, never dropping any.

    ``videos`` holds each video's ``(signal, points, background)``; ``signal``
    is expected to be the smoothed, full-resolution probability signal. The
    Gaussian fits of all points run in one ``fit_gaussians`` call. Each label's
    half-extent is ``gamma1*sigma + gamma2*omega`` and its interval is rounded
    then clipped to the video (optionally also to the preliminary boundary).
    Labels come in the order of ``videos`` and their points.
    """
    peaks = []
    for signal, points, background in videos:
        for point in points:
            if point.video_id != signal.video_id:
                raise InvalidInputError(
                    f"annotation for video {point.video_id!r} applied to signal {signal.video_id!r}"
                )
            boundary = preliminary_boundaries(point, background, signal.length)
            column = signal.class_column(point.class_id)
            t_star, found = find_peak(column, boundary, point.t, config.delta)
            uniform = fit_uniform(column, boundary, t_star)
            peaks.append((point, signal.length, column, boundary, t_star, found, uniform))
    gaussians = fit_gaussians([(column, boundary, t_star) for _, _, column, boundary, t_star, _, _ in peaks])

    labels = []
    for (point, length, _, boundary, t_star, found, uniform), gaussian in zip(peaks, gaussians):
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
