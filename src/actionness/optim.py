"""Bounded one-dimensional minimization: Brent's method with golden-section fallback.

The search combines successive parabolic interpolation with golden-section
steps on a closed interval. Both interval endpoints are evaluated at the end,
so the returned point never loses to either bound. When every value a search
evaluated ties, a scan of the interval looks for a dip the search stepped
over, and a second search runs around the lowest scanned point.

``minimize_lanes`` runs many such searches in lockstep, one lane per
interval: every lane follows the same update rules as a search of its own,
and each round makes one batched objective call over the lanes still
searching. A single search is a one-lane call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import InvalidInputError, NumericError

_GOLDEN = 0.5 * (3.0 - math.sqrt(5.0))
_SQRT_EPS = math.sqrt(2.220446049250313e-16)

DEFAULT_X_TOLERANCE = 1e-5
DEFAULT_MAX_ITERATIONS = 500
FLAT_SCAN_STEPS = 64  # steps of the interval scan made when every probe of a lane tied


@dataclass
class LaneResults:
    """Each lane's result of a ``minimize_lanes`` run, one array entry per lane.

    ``x`` is the minimizer and ``f`` its value; ``iterations`` counts the
    search rounds, and ``converged`` is False where the iteration budget ran
    out before the bracket collapsed.
    """

    x: np.ndarray
    f: np.ndarray
    iterations: np.ndarray
    converged: np.ndarray


def minimize_lanes(
    objective: Callable[[np.ndarray, np.ndarray], np.ndarray],
    lo: np.ndarray,
    hi: np.ndarray,
    x_tolerance: float = DEFAULT_X_TOLERANCE,
    max_iterations: int = DEFAULT_MAX_ITERATIONS,
) -> LaneResults:
    """Minimize one scalar function per lane, lane ``i`` on ``[lo[i], hi[i]]``.

    ``objective(points, lanes)`` returns the value of lane ``lanes[k]``'s
    function at ``points[k]`` for every ``k``. For a unimodal function a
    lane's ``x`` lies within ``x_tolerance`` of its minimizer. Each lane's
    result equals a one-lane run of its function alone, bit for bit, and uses
    as many evaluations. Raises ``InvalidInputError`` naming the first lane
    whose bounds are not finite with ``lo < hi``, and ``NumericError`` if any
    value is non-finite.
    """
    lo = np.asarray(lo, dtype=np.float64)
    hi = np.asarray(hi, dtype=np.float64)
    if lo.ndim != 1 or lo.shape != hi.shape:
        raise InvalidInputError(f"lo and hi must be equal-length 1-D, got {lo.shape} and {hi.shape}")
    if x_tolerance <= 0:
        raise InvalidInputError(f"x_tolerance must be > 0, got {x_tolerance}")
    if max_iterations < 1:
        raise InvalidInputError(f"max_iterations must be >= 1, got {max_iterations}")
    invalid = ~(np.isfinite(lo) & np.isfinite(hi) & (lo < hi))
    if invalid.any():
        lane = int(np.argmax(invalid))
        raise InvalidInputError(
            f"lane {lane}: bounds must be finite with lo < hi, got [{lo[lane]}, {hi[lane]}]"
        )

    def evaluate(points: np.ndarray, lanes: np.ndarray) -> np.ndarray:
        values = np.asarray(objective(points, lanes), dtype=np.float64)
        bad = ~np.isfinite(values)
        if bad.any():
            k = int(np.argmax(bad))
            raise NumericError(
                f"objective returned non-finite value {float(values[k])!r} at x={float(points[k])!r}"
            )
        return values

    lanes = np.arange(lo.size)
    x, fx, iterations, converged, flat = _brent(evaluate, lanes, lo, hi, x_tolerance, max_iterations)
    if flat.any():
        # Every probe tied, so the search may have stepped over a dip narrower
        # than its steps (a bump whose tails are flat to the last bit). Scan
        # the interval, ends included; where the scan finds a lower value,
        # search again in the two scan steps around its lowest point.
        tied = lanes[flat]
        span = hi[tied] - lo[tied]
        steps = np.arange(FLAT_SCAN_STEPS + 1) / FLAT_SCAN_STEPS
        grid = lo[tied, None] + span[:, None] * steps[None, :]
        grid[:, -1] = hi[tied]
        scan = evaluate(grid.ravel(), np.repeat(tied, steps.size)).reshape(grid.shape)
        lowest = np.argmin(scan, axis=1)
        rows = np.arange(tied.size)
        found = scan[rows, lowest] < fx[tied]
        tied, rows, lowest = tied[found], rows[found], lowest[found]
        if tied.size:
            grid_x, grid_f = grid[rows, lowest], scan[rows, lowest]
            sub_lo = grid[rows, np.maximum(lowest - 1, 0)]
            sub_hi = grid[rows, np.minimum(lowest + 1, FLAT_SCAN_STEPS)]
            x2, f2, iterations2, converged2, _ = _brent(
                evaluate, tied, sub_lo, sub_hi, x_tolerance, max_iterations
            )
            keep_grid = f2 > grid_f
            x[tied] = np.where(keep_grid, grid_x, x2)
            fx[tied] = np.where(keep_grid, grid_f, f2)
            iterations[tied] += iterations2
            converged[tied] = converged2

    # Endpoint check: the result never loses to a bound, and ties prefer the
    # lower bound (matching a dense grid scan's first-minimum convention).
    f_lo = evaluate(lo, lanes)
    at_lo = f_lo <= fx
    x, fx = np.where(at_lo, lo, x), np.where(at_lo, f_lo, fx)
    f_hi = evaluate(hi, lanes)
    at_hi = f_hi < fx
    x, fx = np.where(at_hi, hi, x), np.where(at_hi, f_hi, fx)
    return LaneResults(np.minimum(np.maximum(x, lo), hi), fx, iterations, converged)


def _brent(evaluate, lanes, lo, hi, x_tolerance, max_iterations):
    """Brent's search of every lane up to convergence or ``max_iterations``.

    Returns each lane's best point and value, its iteration count, whether
    its bracket collapsed, and whether all its probes tied. Lanes leave the
    batch as they converge; the state arrays hold the lanes still searching,
    ``ids`` their positions in ``lanes``.
    """
    count = lo.size
    best_x, best_f = np.empty(count), np.empty(count)
    iterations = np.full(count, max_iterations, dtype=np.int64)
    converged = np.zeros(count, dtype=bool)
    if count == 0:
        return best_x, best_f, iterations, converged, converged.copy()

    ids = np.arange(count)
    a, b = lo.copy(), hi.copy()
    x = a + _GOLDEN * (b - a)
    fx = evaluate(x, lanes)
    flat = np.ones(count, dtype=bool)
    first = fx
    w, v, fw, fv = x, x, fx, fx
    d = e = np.zeros(count)  # last and second-to-last step sizes

    for iteration in range(1, max_iterations + 1):
        mid = 0.5 * (a + b)
        tol1 = _SQRT_EPS * np.abs(x) + x_tolerance / 3.0
        tol2 = 2.0 * tol1
        done = np.abs(x - mid) <= tol2 - 0.5 * (b - a)
        if done.any():
            finished = ids[done]
            best_x[finished], best_f[finished] = x[done], fx[done]
            iterations[finished] = iteration
            converged[finished] = True
            keep = ~done
            if not keep.any():
                return best_x, best_f, iterations, converged, flat
            ids, a, b, x, w, v, fx, fw, fv, d, e, mid, tol1, tol2 = (
                state[keep] for state in (ids, a, b, x, w, v, fx, fw, fv, d, e, mid, tol1, tol2)
            )

        # Python float arithmetic raises no floating-point warnings; the
        # rejected lanes' parabolic steps may divide by zero.
        with np.errstate(all="ignore"):
            # Fit a parabola through (x, fx), (w, fw), (v, fv) where the step
            # before last was large enough.
            parabolic = np.abs(e) > tol1
            r = (x - w) * (fx - fv)
            q = (x - v) * (fx - fw)
            p = (x - v) * q - (x - w) * r
            q = 2.0 * (q - r)
            p = np.where(q > 0.0, -p, p)
            q = np.abs(q)
            # Accept only if the step is small and stays inside the bracket.
            accept = (
                parabolic
                & (np.abs(p) < np.abs(0.5 * q * e))
                & (q * (a - x) < p)
                & (p < q * (b - x))
            )
            e = np.where(parabolic, d, e)
            step = p / q
            u = x + step
            near_end = ((u - a) < tol2) | ((b - u) < tol2)
            step = np.where(near_end, np.where(x < mid, tol1, -tol1), step)
            golden = np.where(x < mid, b - x, a - x)
            e = np.where(accept, e, golden)
            d = np.where(accept, step, _GOLDEN * golden)
            # Never probe closer than tol1 to the current best point.
            u = x + np.where(np.abs(d) >= tol1, d, np.copysign(tol1, d))
        fu = evaluate(u, lanes[ids])
        flat[ids] &= fu == first[ids]

        # A better u becomes x and moves the bracket end behind it; a worse u
        # becomes the bracket end on its side and may replace w or v.
        better = fu <= fx
        left = u < x
        a = np.where(better, np.where(left, a, x), np.where(left, u, a))
        b = np.where(better, np.where(left, x, b), np.where(left, b, u))
        u_to_w = ~better & ((fu <= fw) | (w == x))
        u_to_v = ~better & ~u_to_w & ((fu <= fv) | (v == x) | (v == w))
        w_to_v = better | u_to_w
        v = np.where(w_to_v, w, np.where(u_to_v, u, v))
        fv = np.where(w_to_v, fw, np.where(u_to_v, fu, fv))
        w = np.where(better, x, np.where(u_to_w, u, w))
        fw = np.where(better, fx, np.where(u_to_w, fu, fw))
        x = np.where(better, u, x)
        fx = np.where(better, fu, fx)

    best_x[ids], best_f[ids] = x, fx
    return best_x, best_f, iterations, converged, flat
