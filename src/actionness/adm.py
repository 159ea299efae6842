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
from dataclasses import dataclass, field
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from .errors import InvalidInputError, require_finite
from .optim import Bounds1D, minimize_bounded
from .signal import (
    BackgroundPoints,
    PointAnnotation,
    ProbabilitySignal,
    augment_points,
    pyramid_scales,
    select_background_points,
    smooth_signal,
    upsample_signal,
)

SIGMA_LOWER_BOUND = 1e-6


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


@dataclass
class PseudoLabel:
    """A fitted action interval for one annotated point.

    ``gaussian_error`` and ``uniform_error`` are the sums of squared error of
    the two fits. Only labels fitted in this process know them; files do not
    store them, so a loaded label holds NaN, and equality ignores them.
    """

    video_id: str
    t: int
    t_star: int
    sigma: float
    omega: float
    delta: float
    start: int
    end: int
    class_id: int
    degenerate: bool = False
    gaussian_error: float = field(default=math.nan, compare=False, repr=False)
    uniform_error: float = field(default=math.nan, compare=False, repr=False)


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


def gaussian_fit_error(column: np.ndarray, boundary: PreliminaryBoundary, t_star: int):
    """MSE objective in sigma for a peak-height-matched Gaussian profile.

    The scale factor that matches the Gaussian's peak to the signal value at
    ``t_star`` cancels the usual 1/(sigma*sqrt(2*pi)) normalization, leaving a
    bump of height ``column[t_star]``.
    """
    column = np.asarray(column, dtype=np.float64)
    segment = column[boundary.b_start : boundary.b_end + 1]
    offsets = np.arange(boundary.b_start, boundary.b_end + 1, dtype=np.float64) - t_star
    height = column[t_star]

    def error(sigma: float) -> float:
        model = height * np.exp(-0.5 * (offsets / sigma) ** 2)
        return float(np.sum((model - segment) ** 2))

    return error


def uniform_fit_error(column: np.ndarray, boundary: PreliminaryBoundary, t_star: int):
    """MSE objective in omega for a peak-height-matched centred rectangle."""
    column = np.asarray(column, dtype=np.float64)
    segment = column[boundary.b_start : boundary.b_end + 1]
    distances = np.abs(np.arange(boundary.b_start, boundary.b_end + 1) - t_star)
    height = column[t_star]

    def error(omega: float) -> float:
        model = np.where(distances <= omega, height, 0.0)
        return float(np.sum((model - segment) ** 2))

    return error


def sigma_upper_bound(boundary: PreliminaryBoundary, t_star: int) -> float:
    """Largest distance from the peak to either boundary end."""
    return float(max(t_star - boundary.b_start, boundary.b_end - t_star))


def fit_gaussian(column: np.ndarray, boundary: PreliminaryBoundary, t_star: int) -> Fit:
    """Least-squares Gaussian std on ``[SIGMA_LOWER_BOUND, u_b]``.

    Returns ``Fit(sigma, degenerate, error)``, the error being the minimizer's
    objective value at sigma; a boundary too tight to search pins sigma to the
    lower bound and sets the flag.
    """
    upper = sigma_upper_bound(boundary, t_star)
    error = gaussian_fit_error(column, boundary, t_star)
    if upper <= SIGMA_LOWER_BOUND:
        return Fit(SIGMA_LOWER_BOUND, True, error(SIGMA_LOWER_BOUND))
    result = minimize_bounded(error, Bounds1D(SIGMA_LOWER_BOUND, upper))
    return Fit(result.x, False, result.f)


def fit_uniform(column: np.ndarray, boundary: PreliminaryBoundary, t_star: int) -> Fit:
    """Least-squares rectangle half-width on ``[0, u_b]``.

    The objective is piecewise constant in omega (it only changes when the
    rectangle grows past another snippet), so the exact argmin is found by
    scoring each integer distance breakpoint; ties resolve to the smallest
    half-width. Returns ``Fit(omega, degenerate, error)``, the error evaluated
    directly at omega (the running totals round differently).
    """
    upper = sigma_upper_bound(boundary, t_star)
    error = uniform_fit_error(column, boundary, t_star)
    if upper <= 0.0:
        return Fit(0.0, True, error(0.0))
    column = np.asarray(column, dtype=np.float64)
    segment = column[boundary.b_start : boundary.b_end + 1]
    distances = np.abs(np.arange(boundary.b_start, boundary.b_end + 1) - t_star)
    height = column[t_star]

    # Covering a snippet at distance d changes the squared error by
    # height^2 - 2*height*column[t]; rank snippets by distance and accumulate.
    order = np.argsort(distances, kind="stable")
    sorted_distances = distances[order]
    gains = height * height - 2.0 * height * segment[order]
    breakpoints = np.unique(sorted_distances)
    cumulative = np.cumsum(gains)
    last_covered = np.searchsorted(sorted_distances, breakpoints, side="right") - 1
    totals = cumulative[last_covered]
    omega = min(float(breakpoints[int(np.argmin(totals))]), upper)
    return Fit(omega, False, error(omega))


def generate_pseudo_labels(
    signal: ProbabilitySignal,
    points: Sequence[PointAnnotation],
    background: BackgroundPoints,
    config: ADMConfig,
) -> list[PseudoLabel]:
    """One pseudo-label per annotated point, never dropping any.

    ``signal`` is expected to be the smoothed, full-resolution probability
    signal. Each label's half-extent is ``gamma1*sigma + gamma2*omega`` and its
    interval is rounded then clipped to the video (optionally also to the
    preliminary boundary).
    """
    labels = []
    length = signal.length
    for point in points:
        if point.video_id != signal.video_id:
            raise InvalidInputError(
                f"annotation for video {point.video_id!r} applied to signal {signal.video_id!r}"
            )
        boundary = preliminary_boundaries(point, background, length)
        column = signal.class_column(point.class_id)
        t_star, found = find_peak(column, boundary, point.t, config.delta)
        gaussian = fit_gaussian(column, boundary, t_star)
        uniform = fit_uniform(column, boundary, t_star)
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
    length. Each label carries its two fit errors.
    """
    by_video: dict[str, list[PointAnnotation]] = {}
    for point in points:
        by_video.setdefault(point.video_id, []).append(point)
    missing = sorted(set(by_video) - set(grouped_levels))
    if missing:
        raise InvalidInputError(f"annotations reference videos without signals: {missing}")

    labels: list[PseudoLabel] = []
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
        labels.extend(generate_pseudo_labels(smoothed, video_points, background, config))
    return labels
