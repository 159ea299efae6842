import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from actionness import adm, optim, oracles, signal
from actionness.adm import (
    PreliminaryBoundary,
    SIGMA_LOWER_BOUND,
    find_peak,
    fit_gaussians,
    fit_uniforms,
    label_videos,
    video_boundaries,
)
from actionness.errors import InvalidInputError
from actionness.oracles import gaussian_objective_grid, nearest_background_scan, uniform_objective_grid
from actionness.records import PseudoLabel
from actionness.signal import (
    BackgroundPoints,
    PointAnnotation,
    ProbabilitySignal,
    select_background_points,
    smooth_column,
    upsample_column,
)
from actionness.synth import SyntheticConfig, generate_dataset
from actionness.verify import run_fitting_suite


def background(*indices):
    return BackgroundPoints(np.array(indices, dtype=np.int64))


def gaussian_column(length, t_star, sigma, height=0.9):
    ts = np.arange(length, dtype=np.float64)
    return height * np.exp(-0.5 * ((ts - t_star) / sigma) ** 2)


def boundary_of(point, background, length):
    """``video_boundaries`` of one point."""
    return video_boundaries([point], background, length)[0]


def uniform_fit(column, boundary, t_star):
    """``fit_uniforms`` of one fit."""
    return fit_uniforms([(column, boundary, t_star)])[0]


def gaussian_error_at(column, boundary, t_star, sigma):
    """One fit's squared error at ``sigma``, read from the objective ``fit_gaussians`` minimizes."""
    errors = adm._profile_errors(adm._Segments.of([(column, boundary, t_star)]), adm._gaussian_profile)
    return errors(np.array([sigma]), np.zeros(1, dtype=np.int64))[0]


def uniform_error_at(column, boundary, t_star, omega):
    """One fit's squared error at ``omega``, read from the objective ``fit_uniforms`` minimizes."""
    errors = adm._profile_errors(adm._Segments.of([(column, boundary, t_star)]), adm._rectangle_profile)
    return errors(np.array([omega]), np.zeros(1, dtype=np.int64))[0]


class TestPreliminaryBoundaries:
    def test_nearest_on_both_sides(self):
        point = PointAnnotation("v0", 10, 1)
        boundary = boundary_of(point, background(2, 20), 50)
        assert (boundary.b_start, boundary.b_end) == (2, 20)
        assert boundary.duration == 18

    def test_missing_side_falls_back_to_edges(self):
        point = PointAnnotation("v0", 10, 1)
        assert boundary_of(point, background(20), 50).b_start == 0
        assert boundary_of(point, background(2), 50).b_end == 49
        no_bg = boundary_of(point, background(), 50)
        assert (no_bg.b_start, no_bg.b_end) == (0, 49)

    def test_matches_linear_scan(self):
        rng = np.random.default_rng(21)
        for _ in range(50):
            length = 80
            indices = np.flatnonzero(rng.uniform(0, 1, length) < 0.2)
            t = int(rng.integers(0, length))
            boundary = boundary_of(
                PointAnnotation("v0", t, 1), BackgroundPoints(indices), length
            )
            assert (boundary.b_start, boundary.b_end) == nearest_background_scan(
                t, indices.tolist(), length
            )

    def test_point_outside_length_rejected(self):
        with pytest.raises(InvalidInputError):
            boundary_of(PointAnnotation("v0", 50, 1), background(), 50)


@st.composite
def video_point_cases(draw):
    """One video's background snippets, sometimes none, and points, often at a video end or on a background snippet."""
    length = draw(st.integers(1, 120))
    indices = np.flatnonzero(draw(hnp.arrays(np.bool_, length))) if draw(st.booleans()) else np.zeros(0, np.int64)
    ts = st.integers(0, length - 1) | st.sampled_from([0, length - 1])
    if indices.size:
        ts = ts | st.sampled_from(indices.tolist())
    return [PointAnnotation("v0", t, 1) for t in draw(st.lists(ts, max_size=30))], indices, length


@settings(max_examples=300, deadline=None)
@given(video_point_cases())
@example(([PointAnnotation("v0", t, 1) for t in (0, 5, 9)], np.zeros(0, np.int64), 10))  # no background
@example(([PointAnnotation("v0", t, 1) for t in (0, 4, 9, 4)], np.array([0, 4, 9]), 10))  # each point on background
def test_video_boundaries_equal_the_linear_scan(case):
    points, indices, length = case
    boundaries = video_boundaries(points, BackgroundPoints(indices), length)
    scans = [nearest_background_scan(p.t, indices.tolist(), length) for p in points]
    assert [(b.b_start, b.b_end) for b in boundaries] == scans
    assert [boundary_of(point, BackgroundPoints(indices), length) for point in points] == boundaries


def test_video_boundaries_name_the_first_point_outside_the_video():
    points = [PointAnnotation("v0", t, 1) for t in (3, 50, 70)]
    with pytest.raises(InvalidInputError, match=re.escape("annotation t=50 outside [0, 50)")):
        video_boundaries(points, background(10), 50)


def peak_at(window, column, boundary, t):
    """``find_peak`` with ``PEAK_WINDOW`` patched to ``window``."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(adm, "PEAK_WINDOW", window)
        return find_peak(column, boundary, t)


class TestFindPeak:
    def test_unimodal_bump(self):
        column = gaussian_column(100, 40, 5.0)
        boundary = PreliminaryBoundary(10, 90)
        assert peak_at(0.5, column, boundary, 35) == 40

    def test_window_constrains_argmax(self):
        rng = np.random.default_rng(22)
        for _ in range(30):
            column = rng.uniform(0, 1, 120)
            boundary = PreliminaryBoundary(5, 115)
            t = int(rng.integers(20, 100))
            delta = float(rng.uniform(0.05, 0.4))
            t_star = peak_at(delta, column, boundary, t)
            radius = delta * boundary.duration
            lo = max(boundary.b_start, int(np.ceil(t - radius)))
            hi = min(boundary.b_end, int(np.floor(t + radius)))
            window = list(range(lo, hi + 1))
            expected = min(window, key=lambda i: (-column[i], abs(i - t), i))
            assert t_star == expected

    @settings(max_examples=300, deadline=None)
    @given(
        data=st.data(),
        # three levels, so most windows hold tied maxima on both sides of the point
        column=st.lists(st.sampled_from([0.25, 0.5, 0.75]), min_size=1, max_size=40),
        delta=st.floats(0.01, 0.5),
    )
    @example(data=None, column=[0.5] * 40, delta=0.25)
    def test_ties_resolve_to_the_maximum_nearest_the_point(self, data, column, delta):
        if data is None:  # the flat column: the point keeps its own snippet
            b_start, b_end, t = 5, 35, 20
        else:
            b_start = data.draw(st.integers(0, len(column) - 1))
            b_end = data.draw(st.integers(b_start, len(column) - 1))
            t = data.draw(st.integers(b_start, b_end))
        boundary = PreliminaryBoundary(b_start, b_end)
        radius = delta * boundary.duration
        window = range(max(b_start, int(np.ceil(t - radius))), min(b_end, int(np.floor(t + radius))) + 1)
        # a scan of the window: the largest value, then the nearest to t, then the leftmost
        expected = min(window, key=lambda i: (-column[i], abs(i - t), i))
        assert peak_at(delta, np.array(column), boundary, t) == expected

    @pytest.mark.parametrize("t", [5, 29, 41])
    def test_point_outside_the_boundary_is_rejected(self, t):
        # the peak window holds t only when the boundary does
        with pytest.raises(InvalidInputError, match=re.escape(f"t={t} outside the boundary [30, 40]")):
            find_peak(np.zeros(50), PreliminaryBoundary(30, 40), t)


class TestFitGaussian:
    def test_recovers_constructed_sigma(self):
        for sigma_true in (5.0, 12.5, 24.0):
            column = gaussian_column(512, 250, sigma_true)
            sigma, _ = fit_gaussians([(column, PreliminaryBoundary(10, 500), 250)])[0]
            assert abs(sigma - sigma_true) / sigma_true < 0.01

    def test_single_spike_driven_to_lower_bound(self):
        column = np.zeros(256)
        column[100] = 0.8
        sigma, _ = fit_gaussians([(column, PreliminaryBoundary(5, 250), 100)])[0]
        assert sigma == SIGMA_LOWER_BOUND

    def test_plateau_matches_grid_argmin(self):
        column = np.zeros(200)
        column[40:161] = 0.85
        boundary = PreliminaryBoundary(10, 190)
        t_star = 100
        sigma, _ = fit_gaussians([(column, boundary, t_star)])[0]
        upper = float(max(t_star - boundary.b_start, boundary.b_end - t_star))
        grid = np.linspace(SIGMA_LOWER_BOUND, upper, 20001)
        reference = grid[np.argmin(gaussian_objective_grid(column, boundary, t_star, grid))]
        step = upper / 20000
        assert abs(sigma - reference) <= optim.X_TOLERANCE + step

    def test_one_snippet_boundary_pins_the_lower_bound(self):
        column = np.zeros(50)
        sigma, _ = fit_gaussians([(column, PreliminaryBoundary(10, 10), 10)])[0]
        assert sigma == SIGMA_LOWER_BOUND

    def test_scale_invariance(self):
        rng = np.random.default_rng(23)
        column = np.clip(gaussian_column(300, 150, 18.0) + rng.normal(0, 0.03, 300), 0, 1)
        boundary = PreliminaryBoundary(20, 280)
        sigma_full, _ = fit_gaussians([(column, boundary, 150)])[0]
        sigma_scaled, _ = fit_gaussians([(0.5 * column, boundary, 150)])[0]
        assert sigma_scaled == pytest.approx(sigma_full, abs=1e-4)


class TestFitUniform:
    def test_recovers_rectangle_half_width(self):
        ts = np.arange(400)
        column = np.where(np.abs(ts - 200) <= 8, 0.9, 0.0)
        omega, _ = uniform_fit(column, PreliminaryBoundary(5, 395), 200)
        assert abs(omega - 8) <= 1.0

    def test_single_spike_goes_to_zero(self):
        column = np.zeros(256)
        column[100] = 0.8
        omega, _ = uniform_fit(column, PreliminaryBoundary(5, 250), 100)
        assert omega == 0.0

    def test_gaussian_column_matches_grid(self):
        column = gaussian_column(300, 150, 12.0)
        boundary = PreliminaryBoundary(20, 280)
        omega, _ = uniform_fit(column, boundary, 150)
        upper = float(max(150 - boundary.b_start, boundary.b_end - 150))
        grid = np.linspace(1e-9, upper, 20001)
        fitted = uniform_objective_grid(column, boundary, 150, [omega])[0]
        assert 0.0 <= omega <= upper
        assert fitted <= uniform_objective_grid(column, boundary, 150, grid).min() + 1e-12

    def test_scale_invariance(self):
        column = gaussian_column(300, 150, 12.0)
        boundary = PreliminaryBoundary(20, 280)
        omega_full, _ = uniform_fit(column, boundary, 150)
        omega_scaled, _ = uniform_fit(0.3 * column, boundary, 150)
        assert omega_scaled == omega_full

    def test_one_snippet_boundary_gives_zero_width(self):
        omega, _ = uniform_fit(np.zeros(50), PreliminaryBoundary(10, 10), 10)
        assert omega == 0.0

    @pytest.mark.parametrize("t_star", [4, 21])
    def test_peak_outside_the_boundary_is_rejected(self, t_star):
        with pytest.raises(InvalidInputError, match="outside the boundary"):
            uniform_fit(np.zeros(50), PreliminaryBoundary(5, 20), t_star)


@st.composite
def uniform_fit_cases(draw):
    """A random column with a boundary inside it and a peak inside the boundary."""
    column = draw(hnp.arrays(np.float64, st.integers(1, 60), elements=st.floats(0.0, 1.0)))
    b_start = draw(st.integers(0, column.size - 1))
    b_end = draw(st.integers(b_start, column.size - 1))
    return column, PreliminaryBoundary(b_start, b_end), draw(st.integers(b_start, b_end))


@settings(max_examples=200, deadline=None)
@given(uniform_fit_cases())
def test_fit_uniform_matches_grid_oracle(case):
    column, boundary, t_star = case
    omega, error = uniform_fit(column, boundary, t_star)
    upper = max(t_star - boundary.b_start, boundary.b_end - t_star)
    assert omega == int(omega) and 0 <= omega <= upper
    # the objective only changes at integer half-widths, so an integer grid holds its minimum
    grid = uniform_objective_grid(column, boundary, t_star, np.arange(upper + 1))
    fitted = uniform_objective_grid(column, boundary, t_star, [omega])[0]
    assert fitted <= grid.min() + 1e-9 * (1.0 + grid.min())
    assert error == uniform_error_at(column, boundary, t_star, omega)
    assert error == pytest.approx(fitted, rel=1e-12, abs=1e-12)


def fit_uniform_by_sorting(column, boundary, t_star):
    """One rectangle fit with a stable argsort of the distances, ``np.unique``
    breakpoints and ``searchsorted`` covered counts: the reference for the
    sort-free scan of ``fit_uniforms``."""
    upper = float(max(t_star - boundary.b_start, boundary.b_end - t_star))
    column = np.asarray(column, dtype=np.float64)
    segment = column[boundary.b_start : boundary.b_end + 1]
    distances = np.abs(np.arange(boundary.b_start, boundary.b_end + 1) - t_star)
    height = column[t_star]

    def error(omega):
        return float(np.sum((np.where(distances <= omega, height, 0.0) - segment) ** 2))

    if upper <= 0.0:
        return 0.0, error(0.0)
    order = np.argsort(distances, kind="stable")
    sorted_distances = distances[order]
    gains = height * height - 2.0 * height * segment[order]
    breakpoints = np.unique(sorted_distances)
    cumulative = np.cumsum(gains)
    last_covered = np.searchsorted(sorted_distances, breakpoints, side="right") - 1
    totals = cumulative[last_covered]
    omega = min(float(breakpoints[int(np.argmin(totals))]), upper)
    return omega, error(omega)


@st.composite
def uniform_reference_cases(draw):
    """Like ``uniform_fit_cases``, with the peak often at a boundary end (a
    one-sided segment) and values often drawn from a few levels, so that
    snippets at equal distances and running totals tie."""
    values = st.sampled_from([0.0, 0.25, 0.5, 1.0]) if draw(st.booleans()) else st.floats(0.0, 1.0)
    column = draw(hnp.arrays(np.float64, st.integers(1, 60), elements=values))
    b_start = draw(st.integers(0, column.size - 1))
    b_end = draw(st.integers(b_start, column.size - 1))
    t_star = draw(st.sampled_from([b_start, b_end]) | st.integers(b_start, b_end))
    return column, PreliminaryBoundary(b_start, b_end), t_star


@settings(max_examples=300, deadline=None)
@given(uniform_reference_cases())
@example((np.array([0.2, 0.7, 0.4]), PreliminaryBoundary(1, 1), 1))  # one snippet
@example((np.array([0.9, 0.9, 0.1, 0.9]), PreliminaryBoundary(0, 3), 0))  # peak at the start
@example((np.array([0.9, 0.1, 0.9, 0.9]), PreliminaryBoundary(0, 3), 3))  # peak at the end
@example((np.array([0.5, 0.5, 0.5, 0.5, 0.5]), PreliminaryBoundary(0, 4), 2))  # every distance tied on both sides
def test_fit_uniform_equals_the_sorting_reference(case):
    column, boundary, t_star = case
    assert tuple(uniform_fit(column, boundary, t_star)) == fit_uniform_by_sorting(column, boundary, t_star)


@st.composite
def uniform_fit_batches(draw):
    """1-40 rectangle fits on columns of 1-7, 8-128 or over 128 snippets, with the peak at either
    boundary end, in the middle or anywhere (so either side may be longer, or neither),
    one-snippet boundaries, and values often from a few levels or of one decimal, so that
    running totals tie or round apart when summed in another order."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    fits = []
    for _ in range(draw(st.integers(1, 40))):
        length = draw(st.integers(1, 7) | st.integers(8, 128) | st.integers(129, 300))
        column = rng.uniform(0.0, 1.0, length)
        values = draw(st.sampled_from(["uniform", "levels", "one decimal"]))
        if values == "levels":
            column = rng.choice([0.0, 0.25, 0.5, 1.0], length)
        elif values == "one decimal":
            column = column.round(1)
        b_start = draw(st.integers(0, length - 1))
        b_end = draw(st.just(b_start) | st.integers(b_start, length - 1))
        t_star = draw(st.sampled_from([b_start, b_end, (b_start + b_end) // 2]) | st.integers(b_start, b_end))
        fits.append((column, PreliminaryBoundary(b_start, b_end), t_star))
    return fits


def one_block_holds(sizes, budget):
    """Whether ``signal.size_blocks`` must keep ``sizes`` in one block under ``budget``."""
    return len(sizes) == 1 or len(sizes) * max(sizes) <= budget


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(uniform_fit_batches(), st.sampled_from([signal.SCRATCH_ELEMENTS, 1, 200, 2000]))
# each fit's half-width changes if the snippet right of t_star is covered before the one left of it
@example([(np.array([0.1, 0.4, 0.6, 0.7, 0.3, 0.3]), PreliminaryBoundary(0, 5), 3)], signal.SCRATCH_ELEMENTS)
@example([(np.array([0.8, 0.7, 0.9, 0.7, 0.1]), PreliminaryBoundary(0, 4), 2)], 1)
def test_batched_uniform_fits_equal_the_sorting_reference(planned_blocks, fits, budget):
    # the small budgets make blocks of one fit or a few; the scan and the error evaluation each plan all fits
    planned_blocks.clear()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(signal, "SCRATCH_ELEMENTS", budget)
        batch = fit_uniforms(fits)
    assert [tuple(fit) for fit in batch] == [fit_uniform_by_sorting(*fit) for fit in fits]
    sizes = [boundary.b_end - boundary.b_start + 1 for _, boundary, _ in fits]
    several = not one_block_holds(sizes, budget // 8)
    assert [(planned, count > 1) for planned, count in planned_blocks] == [(budget // 8, several)] * 2


def test_batched_uniform_fits_name_the_first_peak_outside_its_boundary():
    fits = [(np.zeros(50), PreliminaryBoundary(5, 20), t_star) for t_star in (7, 21, 4)]
    with pytest.raises(InvalidInputError, match=re.escape("t_star=21 outside the boundary [5, 20]")):
        fit_uniforms(fits)


@pytest.mark.parametrize("fit", [fit_gaussians, fit_uniforms])
@pytest.mark.parametrize(
    "b_end, t_star, message",
    [
        (8, 1, "t_star=1 outside the boundary [2, 8]"),
        (8, 9, "t_star=9 outside the boundary [2, 8]"),
        (8, -1, "t_star=-1 outside the boundary [2, 8]"),
        (10, 5, "boundary [2, 10] past the end of a 10-snippet column"),
    ],
    ids=["before-the-boundary", "after-the-boundary", "negative", "boundary-past-the-column"],
)
def test_fits_reject_a_peak_outside_its_boundary_or_a_boundary_past_its_column(fit, b_end, t_star, message):
    # a negative t_star would read the column from its end, a boundary past it would fit a truncated segment
    with pytest.raises(InvalidInputError, match=re.escape(message)):
        fit([(np.zeros(10), PreliminaryBoundary(2, b_end), t_star)])


def gaussian_errors_lane_by_lane(fits, sigmas, lanes):
    """Each lane's squares from its own fit, summed by one ``np.add.reduce``: the reference for the size-grouped sums."""
    values = []
    for sigma, lane in zip(sigmas.tolist(), lanes.tolist()):
        column, boundary, t_star = fits[lane]
        segment = column[boundary.b_start : boundary.b_end + 1]
        offsets = np.arange(boundary.b_start, boundary.b_end + 1, dtype=np.float64) - t_star
        values.append(np.add.reduce((column[t_star] * np.exp(-0.5 * (offsets / sigma) ** 2) - segment) ** 2))
    return np.array(values)


@st.composite
def gaussian_lane_batches(draw):
    """Fits whose segments are 1-7, 8-128 or over 128 snippets long (numpy's summation regimes),
    several often of one size, and lanes that visit them shuffled and repeated, each at its own sigma."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    fits = []
    for _ in range(draw(st.integers(1, 12))):
        size = draw(st.integers(1, 7) | st.integers(8, 128) | st.integers(129, 600) | st.sampled_from([3, 8, 129]))
        pad = int(rng.integers(0, 10))
        column = rng.uniform(0.0, 1.0, size + 2 * pad)
        fits.append((column, PreliminaryBoundary(pad, pad + size - 1), int(rng.integers(pad, pad + size))))
    lanes = np.array(draw(st.lists(st.integers(0, len(fits) - 1), min_size=1, max_size=40)))
    return fits, rng.uniform(SIGMA_LOWER_BOUND, 300.0, lanes.size), lanes


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(gaussian_lane_batches(), st.sampled_from([signal.SCRATCH_ELEMENTS, 1, 300]))
def test_size_grouped_gaussian_errors_equal_lane_by_lane_sums(planned_blocks, batch, budget):
    # the small budgets cut runs of one size across blocks
    fits, sigmas, lanes = batch
    planned_blocks.clear()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(signal, "SCRATCH_ELEMENTS", budget)
        values = adm._profile_errors(adm._Segments.of(fits), adm._gaussian_profile)(sigmas, lanes)
    assert values.tobytes() == gaussian_errors_lane_by_lane(fits, sigmas, lanes).tobytes()
    sizes = [fits[lane][1].b_end - fits[lane][1].b_start + 1 for lane in lanes.tolist()]
    assert [(planned, count > 1) for planned, count in planned_blocks] == [
        (budget // 8, not one_block_holds(sizes, budget // 8))
    ]


@st.composite
def gaussian_fit_batches(draw):
    """Fits on random columns, some of them on a boundary too tight to search."""
    fits = []
    for _ in range(draw(st.integers(1, 8))):
        column = draw(hnp.arrays(np.float64, st.integers(1, 60), elements=st.floats(0.0, 1.0)))
        if draw(st.booleans()):
            t_star = draw(st.integers(0, column.size - 1))
            fits.append((column, PreliminaryBoundary(t_star, t_star), t_star))
        else:
            fits.append(draw(uniform_fit_cases()))
    return fits


@settings(max_examples=100, deadline=None)
@given(gaussian_fit_batches())
def test_batched_gaussian_fits_equal_one_label_fits(fits):
    batch = fit_gaussians(fits)
    assert batch == [fit_gaussians([fit])[0] for fit in fits]
    for (column, boundary, t_star), fit in zip(fits, batch):
        assert boundary.b_start < boundary.b_end or fit.value == SIGMA_LOWER_BOUND
        assert fit.error == gaussian_error_at(column, boundary, t_star, fit.value)


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=0))
def test_fitting_suite_passes_at_any_seed(seed):
    assert run_fitting_suite(samples=3, grid_checks=1, seed=seed)["pass"]


def test_gaussian_objective_chunks_lose_no_snippet(monkeypatch, planned_blocks):
    # a budget of 7 elements leaves blocks of 0 snippets: every block holds one fit, some longer than a block
    rng = np.random.default_rng(5)
    fits = []
    for length in (3, 12, 1, 40, 7, 25):
        column = rng.uniform(0.0, 1.0, length)
        fits.append((column, PreliminaryBoundary(0, length - 1), int(rng.integers(0, length))))
    whole = fit_gaussians(fits)
    planned_blocks.clear()
    monkeypatch.setattr(signal, "SCRATCH_ELEMENTS", 7)
    assert fit_gaussians(fits) == whole
    assert {planned for planned, _ in planned_blocks} == {0}
    assert max(count for _, count in planned_blocks) > 1


def test_objective_grids_do_not_depend_on_the_budget(monkeypatch):
    # a 451-snippet segment: budgets of one row, part of a row, exactly one row, the default and the whole grid
    rng = np.random.default_rng(17)
    column = rng.uniform(0.0, 1.0, 512)
    boundary = PreliminaryBoundary(30, 480)
    sigmas = np.linspace(SIGMA_LOWER_BOUND, 250.0, 1001)
    omegas = np.linspace(0.0, 250.0, 1001)
    grids = []
    for budget in (1, 7, 451, oracles.SCRATCH_ELEMENTS, 1001 * 451):
        monkeypatch.setattr(oracles, "SCRATCH_ELEMENTS", budget)
        grids.append(
            (
                gaussian_objective_grid(column, boundary, 250, sigmas).tobytes(),
                uniform_objective_grid(column, boundary, 250, omegas).tobytes(),
            )
        )
    assert all(grid == grids[0] for grid in grids)


def broadcast_errors(column, boundary, t_star, params, model):
    """The objective grid as one broadcast expression over the whole grid."""
    segment = column[boundary.b_start : boundary.b_end + 1]
    x = np.arange(boundary.b_start, boundary.b_end + 1, dtype=np.float64)[None, :] - t_star
    p = np.asarray(params, dtype=np.float64)[:, None]
    return ((model(column[t_star], x, p) - segment[None, :]) ** 2).sum(axis=1)


def gaussian_model(height, x, sigma):
    return height * np.exp(-0.5 * (x / sigma) ** 2)


def rectangle_model(height, x, omega):
    return np.where(np.abs(x) <= omega, height, 0.0)


def grid_cases():
    rng = np.random.default_rng(29)
    for _ in range(40):
        length = int(rng.integers(1, 600))
        start, end = sorted(int(i) for i in rng.integers(0, length, 2))
        # columns dip below zero, so a rectangle's outside is sometimes height * 0.0 = -0.0
        column = rng.uniform(-0.3, 1.0, length)
        count = int(rng.choice([1, 3, 200, 1500]))
        omegas = rng.uniform(-1.0, float(length), count)
        omegas[: count // 2] = np.floor(omegas[: count // 2])  # half on the integer breakpoints
        yield column, PreliminaryBoundary(start, end), int(rng.integers(start, end + 1)), omegas
    # a one-value grid, and a segment longer than the budget, one row per block
    column = rng.uniform(0.0, 1.0, oracles.SCRATCH_ELEMENTS + 901)
    yield column, PreliminaryBoundary(0, column.size - 1), 40_000, np.array([30_000.0])
    yield column, PreliminaryBoundary(5, column.size - 3), 33_000, np.array([0.0, 2.5, 4096.0, 40_000.0])


def test_objective_grids_equal_the_broadcast_expression():
    for column, boundary, t_star, omegas in grid_cases():
        sigmas = np.abs(omegas) + SIGMA_LOWER_BOUND
        assert (
            gaussian_objective_grid(column, boundary, t_star, sigmas).tobytes()
            == broadcast_errors(column, boundary, t_star, sigmas, gaussian_model).tobytes()
        )
        assert (
            uniform_objective_grid(column, boundary, t_star, omegas).tobytes()
            == broadcast_errors(column, boundary, t_star, omegas, rectangle_model).tobytes()
        )


def traced_peak(call) -> int:
    """Bytes that ``call()`` holds at its peak, as ``tracemalloc`` sees numpy's allocations."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        call()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


BUDGET_BYTES = 8 * signal.SCRATCH_ELEMENTS


def test_objective_grid_scratch_is_bounded_by_the_budget():
    rng = np.random.default_rng(19)
    column = rng.uniform(0.0, 1.0, 512)
    boundary = PreliminaryBoundary(30, 480)
    sigmas = np.linspace(SIGMA_LOWER_BOUND, 250.0, 10001)
    assert traced_peak(lambda: gaussian_objective_grid(column, boundary, 250, sigmas)) <= 4 * 8 * oracles.SCRATCH_ELEMENTS


def test_batched_fit_scratch_is_bounded_by_the_budget():
    # ~280k snippets, four times the budget: beyond the segments and offsets the
    # batch holds for its search, each objective evaluation goes block by block
    rng = np.random.default_rng(23)
    fits = []
    for _ in range(600):
        boundary = PreliminaryBoundary(int(rng.integers(0, 40)), int(rng.integers(472, 512)))
        fits.append((rng.uniform(0.0, 1.0, 512), boundary, int(rng.integers(200, 313))))
    snippets = sum(boundary.b_end - boundary.b_start + 1 for _, boundary, _ in fits)
    assert traced_peak(lambda: fit_gaussians(fits)) <= 2 * 8 * snippets + 8 * BUDGET_BYTES


def test_batched_uniform_fit_scratch_is_bounded_by_the_budget():
    # the same ~280k snippets: beyond the one concatenation of their segments, each block of
    # the scan and of the error evaluation holds a few arrays of SCRATCH_ELEMENTS // 8 elements
    rng = np.random.default_rng(23)
    fits = []
    for _ in range(600):
        boundary = PreliminaryBoundary(int(rng.integers(0, 40)), int(rng.integers(472, 512)))
        fits.append((rng.uniform(0.0, 1.0, 512), boundary, int(rng.integers(200, 313))))
    snippets = sum(boundary.b_end - boundary.b_start + 1 for _, boundary, _ in fits)
    assert traced_peak(lambda: fit_uniforms(fits)) <= 8 * snippets + 2 * BUDGET_BYTES


def test_batched_uniform_fit_blocks_pad_to_their_longest_fit():
    # 3- and 500-snippet segments: a block that reaches the long ones pads every fit in it to 500 snippets
    column = np.random.default_rng(24).uniform(0.0, 1.0, 512)
    fits = [(column, PreliminaryBoundary(10, 12 + 497 * (i % 2)), 11) for i in range(600)]
    snippets = sum(boundary.b_end - boundary.b_start + 1 for _, boundary, _ in fits)
    assert traced_peak(lambda: fit_uniforms(fits)) <= 8 * snippets + 2 * BUDGET_BYTES


def one_level_signal(column, background_at=()):
    """Video v0's level 1: one class column, and a background column of 1 at ``background_at`` and 0 elsewhere."""
    values = np.zeros((len(column), 2))
    values[:, 0] = column
    values[list(background_at), 1] = 1.0
    return ProbabilitySignal("v0", 1, values)


@pytest.fixture
def sharp(monkeypatch):
    """A smoothing kernel of one tap, so the fits read the class column unchanged."""
    monkeypatch.setattr(signal, "SMOOTHING_SIGMA", 0.1)


def weigh(patch, gaussian_weight, uniform_weight):
    patch.setattr(adm, "GAUSSIAN_WEIGHT", gaussian_weight)
    patch.setattr(adm, "UNIFORM_WEIGHT", uniform_weight)


@pytest.mark.usefixtures("sharp")
class TestLabelAssembly:
    def setup_method(self):
        self.column = gaussian_column(300, 150, 10.0, height=0.9)
        self.signal = one_level_signal(self.column, (60, 240))
        self.points = [PointAnnotation("v0", 148, 1)]

    def test_one_label_per_point(self):
        points = [PointAnnotation("v0", t, 1) for t in (100, 148, 200)]
        labels = label_videos([self.signal], points)
        assert len(labels) == len(points)

    def test_gamma_edge_cases(self, monkeypatch):
        weigh(monkeypatch, 1.0, 0.0)
        only_sigma = label_videos([self.signal], self.points)[0]
        assert only_sigma.delta == pytest.approx(only_sigma.sigma)
        weigh(monkeypatch, 0.0, 1.0)
        only_omega = label_videos([self.signal], self.points)[0]
        assert only_omega.delta == pytest.approx(only_omega.omega)

    def test_delta_is_exact_combination(self, monkeypatch):
        weigh(monkeypatch, 0.7, 0.3)
        label = label_videos([self.signal], self.points)[0]
        assert label.delta == pytest.approx(0.7 * label.sigma + 0.3 * label.omega)

    def test_fits_read_the_column_within_the_background_points(self):
        label = label_videos([self.signal], self.points)[0]
        boundary = PreliminaryBoundary(60, 240)
        assert label.t_star == 150
        assert (label.sigma, label.gaussian_error) == fit_gaussians([(self.column, boundary, 150)])[0]
        assert (label.omega, label.uniform_error) == uniform_fit(self.column, boundary, 150)

    def test_interval_contains_peak_and_stays_in_video(self):
        rng = np.random.default_rng(24)
        length = 200
        for _ in range(20):
            column = np.clip(
                gaussian_column(length, int(rng.integers(20, 180)), float(rng.uniform(3, 25)))
                + rng.normal(0, 0.05, length),
                0,
                1,
            )
            t = int(rng.integers(10, 190))
            label = label_videos([one_level_signal(column)], [PointAnnotation("v0", t, 1)])[0]
            assert 0 <= label.start <= label.t_star <= label.end <= length - 1

    def test_scaling_column_preserves_fits(self):
        scaled = one_level_signal(0.5 * self.column, (60, 240))
        full = label_videos([self.signal], self.points)[0]
        half = label_videos([scaled], self.points)[0]
        assert half.sigma == pytest.approx(full.sigma, abs=1e-4)
        assert half.omega == full.omega


def synth_dataset(videos=6, seed=11):
    """Seeded synth videos, every other one with a mean-pooled level 2, plus a one-snippet video."""
    config = SyntheticConfig(
        length=256, num_classes=3, instances_per_video=(1, 4), duration_range=(8, 48), noise_std=0.05, seed=seed
    )
    grouped, points = {}, []
    for index, (video, video_points) in enumerate(generate_dataset(config, videos, "gaussian")[1]):
        levels = [video.signal]
        if index % 2:
            values = video.signal.values
            levels.append(ProbabilitySignal(video.signal.video_id, 2, 0.5 * (values[0::2] + values[1::2])))
        grouped[video.signal.video_id] = levels
        points.extend(video_points)
    # a one-snippet video: the boundary is the peak itself, too tight to fit
    grouped["tiny"] = [ProbabilitySignal("tiny", 1, np.array([[0.7, 0.1, 0.1, 0.3]]))]
    points.append(PointAnnotation("tiny", 0, 2))
    return grouped, points


def flat(grouped):
    """Every video's levels in one list, as ``storage.load_signals`` returns them."""
    return [signal for levels in grouped.values() for signal in levels]


class TestLabelVideos:
    def test_fit_errors_equal_the_fit_objectives(self):
        grouped, points = synth_dataset()
        labels = label_videos(flat(grouped), points)
        assert len(labels) == len(points)
        tiny = [label for label in labels if label.video_id == "tiny"]
        assert len(tiny) == 1 and tiny[0].degenerate and tiny[0].sigma == SIGMA_LOWER_BOUND

        # the pipeline spelled out one point at a time: it gives the same labels, and the fit
        # objectives at each label's sigma and omega give exactly its fit errors
        expected = []
        for video_id in sorted(grouped):
            finest, coarsest = grouped[video_id][0], grouped[video_id][-1]
            video_points = [p for p in points if p.video_id == video_id]
            background = select_background_points(finest, video_points, 0.5)
            for point in video_points:
                smoothed = smooth_column(coarsest.class_column(point.class_id))
                column = upsample_column(smoothed, finest.length)
                boundary = boundary_of(point, background, finest.length)
                t_star = find_peak(column, boundary, point.t)
                sigma, gaussian = fit_gaussians([(column, boundary, t_star)])[0]
                omega, uniform = uniform_fit(column, boundary, t_star)
                assert gaussian == gaussian_error_at(column, boundary, t_star, sigma)
                assert uniform == uniform_error_at(column, boundary, t_star, omega)
                half_extent = adm.GAUSSIAN_WEIGHT * sigma + adm.UNIFORM_WEIGHT * omega
                start = min(max(round(t_star - half_extent), 0), finest.length - 1)
                end = min(max(round(t_star + half_extent), 0), finest.length - 1)
                label = PseudoLabel(
                    video_id, point.t, t_star, sigma, omega, half_extent, start, end, point.class_id,
                    boundary.b_start == boundary.b_end,
                )
                expected.append((label, (gaussian, uniform)))
        assert labels == [label for label, _ in expected]
        assert [(label.gaussian_error, label.uniform_error) for label in labels] == [
            errors for _, errors in expected
        ]

    def test_smooths_and_upsamples_one_column_per_annotated_class(self, monkeypatch):
        grouped, points = synth_dataset()
        smoothed, upsampled = [], []

        def smooth(column):
            smoothed.append(column.__array_interface__["data"][0])  # where the column starts in memory
            return smooth_column(column)

        def upsample(column, length):
            upsampled.append(length)
            return upsample_column(column, length)

        monkeypatch.setattr(adm, "smooth_column", smooth)
        monkeypatch.setattr(adm, "upsample_column", upsample)
        label_videos(flat(grouped), points)
        annotated = {(point.video_id, point.class_id) for point in points}
        assert len(annotated) < sum(levels[-1].num_classes for levels in grouped.values())
        # each annotated class's column of the coarsest level, once, and no other column
        assert sorted(smoothed) == sorted(
            grouped[video_id][-1].class_column(class_id).__array_interface__["data"][0]
            for video_id, class_id in annotated
        )
        assert sorted(upsampled) == sorted(grouped[video_id][0].length for video_id, _ in annotated)

    def test_levels_in_any_order(self):
        grouped, points = synth_dataset()
        signals = flat(grouped)
        expected = label_videos(signals, points)
        # reversed; every video's coarser levels before any level 1; shuffled, levels and videos interleaved
        orders = [signals[::-1], sorted(signals, key=lambda s: -s.level)]
        orders += [[signals[i] for i in np.random.default_rng(seed).permutation(len(signals))] for seed in range(3)]
        for reordered in orders:
            assert label_videos(reordered, points) == expected

    @pytest.mark.parametrize("levels", [(2,), (2, 3)])
    def test_finest_level_must_be_one(self, levels):
        values = np.full((8, 2), 0.5)
        signals = [ProbabilitySignal("v0", level, values) for level in levels]
        with pytest.raises(InvalidInputError, match="'v0' has no level 1"):
            label_videos(signals, [PointAnnotation("v0", 3, 1)])

    def test_video_without_signals_named(self):
        with pytest.raises(InvalidInputError, match="ghost"):
            label_videos([], [PointAnnotation("ghost", 3, 1)])


@st.composite
def small_datasets(draw):
    """1-3 videos of 1-40 level-1 snippets and 1-3 classes, some with a level 2 pooled by 2, each with
    1-5 points; probabilities often 0 or 1, so that background points crowd the points or are absent."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    signals, points = [], []
    for index in range(draw(st.integers(1, 3))):
        video_id = f"v{index}"
        length = draw(st.integers(1, 3) | st.integers(4, 40))
        classes = draw(st.integers(1, 3))
        values = rng.uniform(0.0, 1.0, (length, classes + 1))
        if draw(st.booleans()):
            values = values.round()
        signals.append(ProbabilitySignal(video_id, 1, values))
        if draw(st.booleans()):
            signals.append(ProbabilitySignal(video_id, 2, rng.uniform(0.0, 1.0, (-(-length // 2), classes + 1))))
        for _ in range(draw(st.integers(1, 5))):
            points.append(PointAnnotation(video_id, draw(st.integers(0, length - 1)), draw(st.integers(1, classes))))
    return signals, points


@settings(max_examples=150, deadline=None)
@given(
    small_datasets(),
    st.integers(0, 3),
    st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
    st.floats(0.0, 0.5, exclude_min=True),
)
def test_every_point_lies_in_its_boundary_which_is_one_snippet_only_in_a_one_snippet_video(
    dataset, radius, threshold, delta
):
    # a point outside its boundary would make find_peak raise: its own snippet is never background
    signals, points = dataset
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(adm, "PEAK_WINDOW", delta)
        patch.setattr(signal, "AUGMENT_RADIUS", radius)
        labels = label_videos(signals, points, threshold)
    lengths = {signal.video_id: signal.length for signal in signals if signal.level == 1}
    assert len(labels) == len(points)
    assert [label.degenerate for label in labels] == [lengths[label.video_id] == 1 for label in labels]


class TestADMConfig:
    """``label_videos`` checks its ``background_threshold`` before it reads any signal."""

    @pytest.mark.parametrize("threshold", [0.0, 1.0, float("nan"), float("inf")])
    def test_rejects_a_background_threshold_outside_the_open_unit_interval(self, threshold):
        with pytest.raises(InvalidInputError, match=re.escape(f"background_threshold must be in (0, 1), got {threshold}")):
            label_videos([ProbabilitySignal("v0", 2, np.zeros((4, 2)))], [], threshold)


def test_fitted_parameters_stay_inside_bounds():
    rng = np.random.default_rng(25)
    for _ in range(30):
        length = 200
        column = rng.uniform(0, 1, length)
        b_start = int(rng.integers(0, 80))
        b_end = int(rng.integers(b_start + 1, length))
        boundary = PreliminaryBoundary(b_start, b_end)
        t_star = int(rng.integers(b_start, b_end + 1))
        upper = max(t_star - b_start, b_end - t_star)
        sigma, _ = fit_gaussians([(column, boundary, t_star)])[0]
        omega, _ = uniform_fit(column, boundary, t_star)
        assert SIGMA_LOWER_BOUND <= sigma <= upper or upper < SIGMA_LOWER_BOUND
        assert 0.0 <= omega <= upper
