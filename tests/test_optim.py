import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from actionness.errors import InvalidInputError, NumericError
from actionness.optim import DEFAULT_MAX_ITERATIONS, minimize_lanes
from actionness.verify import ORACLE_GRID_POINTS, _random_unimodal, run_oracle_suite


def _lane_objective(objectives):
    """The ``minimize_lanes`` objective of one scalar function per lane."""
    return lambda points, lanes: np.array(
        [float(objectives[lane](float(point))) for point, lane in zip(points, lanes)]
    )


def _one_lane(objective, lo, hi, **options):
    """``(x, f, iterations, converged)`` of a one-lane ``minimize_lanes`` run of ``objective`` on ``[lo, hi]``."""
    result = minimize_lanes(_lane_objective([objective]), np.array([lo]), np.array([hi]), **options)
    return result.x[0], result.f[0], result.iterations[0], result.converged[0]


def test_quadratic_minimum():
    x, _, _, converged = _one_lane(lambda x: (x - 2.0) ** 2, 0.0, 5.0, x_tolerance=1e-5)
    assert abs(x - 2.0) <= 1e-5
    assert converged


def test_nonsmooth_absolute_value():
    x, _, _, _ = _one_lane(lambda x: abs(x - 1.0), 0.0, 3.0)
    assert abs(x - 1.0) <= 1e-5


def test_random_cubics_match_dense_grid():
    rng = np.random.default_rng(11)
    for _ in range(20):
        # Cubic with a local max then a local min; bound the search to the
        # descending/ascending stretch around the interior minimum.
        root = np.sort(rng.uniform(-5.0, 5.0, 2))
        local_max, local_min = root

        def objective(x, a=local_max, b=local_min):
            # derivative = 3(x - a)(x - b), scaled
            return x**3 - 1.5 * (a + b) * x**2 + 3 * a * b * x

        lo = local_max + 0.05 * (local_min - local_max)
        hi = local_min + rng.uniform(0.5, 3.0)
        x, _, _, _ = _one_lane(objective, lo, hi, x_tolerance=1e-5)
        xs = np.linspace(lo, hi, 100000)
        reference = xs[int(np.argmin(objective(xs)))]
        step = (hi - lo) / (100000 - 1)
        assert abs(x - reference) <= 1e-5 + step


def test_deterministic_bit_for_bit():
    def objective(x):
        return np.sin(x) + 0.1 * x**2

    first = _one_lane(objective, -4.0, 4.0)
    second = _one_lane(objective, -4.0, 4.0)
    assert first == second


def test_result_within_bounds_and_beats_endpoints():
    cases = [
        (lambda x: -x, 0.0, 5.0),
        (lambda x: x, -2.0, 7.0),
        (lambda x: (x - 10.0) ** 2, 0.0, 3.0),
        (lambda x: np.cos(x), 0.0, 6.0),
    ]
    for objective, lo, hi in cases:
        x, f, _, _ = _one_lane(objective, lo, hi)
        assert lo <= x <= hi
        assert f <= objective(lo) + 1e-12
        assert f <= objective(hi) + 1e-12


def test_monotone_decreasing_returns_upper_bound():
    x, _, _, _ = _one_lane(lambda x: -x, 0.0, 5.0)
    assert x == 5.0


def test_iteration_budget_respected():
    _, _, iterations, converged = _one_lane(lambda x: (x - 2.0) ** 2, 0.0, 5.0, max_iterations=3)
    assert iterations <= 3
    assert not converged


def test_non_finite_objective_raises():
    with pytest.raises(NumericError):
        _one_lane(lambda x: float("nan"), 0.0, 1.0)


def test_invalid_bounds_rejected():
    with pytest.raises(InvalidInputError, match="lane 0"):
        _one_lane(lambda x: x, 2.0, 2.0)
    with pytest.raises(InvalidInputError, match="lane 0"):
        _one_lane(lambda x: x, float("inf"), 3.0)


def test_invalid_tolerance_rejected():
    with pytest.raises(InvalidInputError):
        _one_lane(lambda x: x * x, 0.0, 1.0, x_tolerance=0.0)


def _narrow_bump(center, width, lo, hi):
    """A dip whose tails are flat to the last bit over most of ``[lo, hi]``."""
    return lambda x: 0.25 - np.exp(-0.5 * ((x - center) / width) ** 2), lo, hi, center


def test_flat_tailed_bump_near_the_lower_bound_is_found():
    # Every Brent probe of this objective lands on the flat tail, and only the
    # lower bound touches the bump; before the flat-tail scan it returned 0.0.
    objective, lo, hi, center = _narrow_bump(0.4, 0.1, 0.0, 20.0)
    x, _, _, converged = _one_lane(objective, lo, hi)
    assert abs(x - center) <= 1e-5
    assert converged


def test_oracle_seed_101_minimizer_case():
    # Case 46 of `verify oracles --seed 101`: a Gaussian bump 0.39 above the
    # lower bound of a 17.7-long interval; the minimizer used to return the bound.
    rng = np.random.default_rng(101)
    cases = [_random_unimodal(rng) for _ in range(47)]
    objective, lo, hi, _ = cases[46]
    x, _, _, _ = _one_lane(objective, lo, hi, x_tolerance=1e-5)
    xs = np.linspace(lo, hi, ORACLE_GRID_POINTS)
    reference = float(xs[int(np.argmin(objective(xs)))])
    step = (hi - lo) / (ORACLE_GRID_POINTS - 1)
    assert abs(x - reference) <= 1e-5 + step
    suite = run_oracle_suite(optimizer_cases=100, ap_cases=1, nms_cases=1, idempotence_cases=1, seed=101)
    assert suite["checks"][0] == {"name": "bounded_minimizer_vs_grid", "ok": 100, "total": 100, "pass": True}


def test_oracle_minimizer_cases_of_seeds_1_to_300_all_pass():
    # The 100 optimizer cases of `verify oracles --seed s` for every s in 1..300,
    # each seed's in one lockstep batch, against each case's true minimizer with
    # the suite's tolerance. 18 of these seeds failed before the flat-tail scan.
    failures = []
    for seed in range(1, 301):
        rng = np.random.default_rng(seed)
        objectives, lo, hi, minimizers = zip(*(_random_unimodal(rng) for _ in range(100)))
        lo, hi = np.array(lo), np.array(hi)
        result = minimize_lanes(_lane_objective(objectives), lo, hi, x_tolerance=1e-5)
        step = (hi - lo) / (ORACLE_GRID_POINTS - 1)
        missed = np.flatnonzero(np.abs(result.x - np.array(minimizers)) > 1e-5 + step)
        failures.extend((seed, int(case)) for case in missed)
    assert failures == []


def test_flat_objective_returns_the_lower_bound():
    x, f, _, _ = _one_lane(lambda x: 3.0, -1.0, 4.0)
    assert (x, f) == (-1.0, 3.0)


@st.composite
def mixed_lanes(draw):
    """Lanes of ``_random_unimodal``'s kinds (from drawn seeds) and flat-tailed
    narrow bumps, plus an iteration budget that some lanes exhaust."""
    lanes = []
    for _ in range(draw(st.integers(1, 10))):
        if draw(st.booleans()):
            rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
            lanes.append(_random_unimodal(rng))
        else:
            lo = draw(st.floats(-10.0, 0.0))
            hi = lo + draw(st.floats(5.0, 30.0))
            center = draw(st.floats(lo, hi))
            lanes.append(_narrow_bump(center, draw(st.floats(0.05, 0.5)), lo, hi))
    return lanes, draw(st.sampled_from([3, 8, 15, 25, DEFAULT_MAX_ITERATIONS]))


@settings(max_examples=60, deadline=None)
@given(mixed_lanes())
def test_each_lane_equals_its_one_lane_run(case):
    lanes, max_iterations = case
    objectives, lo, hi, _ = zip(*lanes)
    batch = minimize_lanes(_lane_objective(objectives), np.array(lo), np.array(hi), max_iterations=max_iterations)
    for lane, (objective, lane_lo, lane_hi, _) in enumerate(lanes):
        alone = _one_lane(objective, lane_lo, lane_hi, max_iterations=max_iterations)
        assert (batch.x[lane], batch.f[lane], batch.iterations[lane], batch.converged[lane]) == alone


def test_mixed_batch_holds_lanes_finishing_in_different_rounds():
    # Lanes converge in different rounds, two exhaust the budget, and one is a
    # flat-tailed bump that takes the scan; each equals its one-lane run.
    lanes = [
        (lambda x: (x - 2.0) ** 2, 0.0, 5.0, 2.0),
        (lambda x: abs(x - 1.0), 0.0, 3.0, 1.0),
        (lambda x: np.sin(x) + 0.1 * x**2, -4.0, 4.0, None),
        (lambda x: -x, 0.0, 5.0, 5.0),
        _narrow_bump(13.3, 0.08, -2.0, 25.0),
    ]
    objectives, lo, hi, _ = zip(*lanes)
    for max_iterations in (12, DEFAULT_MAX_ITERATIONS):
        batch = minimize_lanes(_lane_objective(objectives), np.array(lo), np.array(hi), max_iterations=max_iterations)
        alone = [_one_lane(objective, a, b, max_iterations=max_iterations) for objective, a, b, _ in lanes]
        assert alone == list(zip(batch.x, batch.f, batch.iterations, batch.converged))
        assert len(set(batch.iterations.tolist())) >= 3
        assert batch.converged.all() == (max_iterations == DEFAULT_MAX_ITERATIONS)


def test_lanes_validate_their_bounds():
    objective = _lane_objective([lambda x: x * x] * 2)
    with pytest.raises(InvalidInputError, match="lane 1"):
        minimize_lanes(objective, np.array([0.0, 2.0]), np.array([1.0, 2.0]))
    with pytest.raises(NumericError):
        minimize_lanes(_lane_objective([lambda x: x, lambda x: float("inf")]), np.zeros(2), np.ones(2))
    empty = minimize_lanes(objective, np.empty(0), np.empty(0))
    assert empty.x.size == empty.iterations.size == 0
