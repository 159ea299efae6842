"""Verification suites: gradient checks, fit recovery, and oracle agreement.

Each suite returns a JSON-ready report ``{"suite", "checks": [...], "pass"}``
with one entry per property. The CLI ``verify`` subcommand runs them through
``run_suite``. The fitting and oracle suites draw their cases first and run
each set of searches as one batch, whose lanes equal searches of their own.
Each suite imports the modules it checks when it runs, and draws its cases
from the standard library's ``random.Random``, so that a process that runs one
suite loads only that suite's modules, and no ``numpy.random``.
"""

from __future__ import annotations

import math
import random

import numpy as np

from .errors import InvalidInputError

GRADIENT_TOLERANCE = 1e-4
FD_STEP = 1e-5
FITTING_GRID_POINTS = 10001  # sigma and omega values scanned per fitting grid check
ORACLE_GRID_POINTS = 100000  # x values scanned per minimizer oracle case


def _require_counts(suite: str, seed: int, **counts: int) -> None:
    """Reject counts below 1 and a negative seed, which ``random.Random`` would draw as its absolute value."""
    if seed < 0:
        raise InvalidInputError(f"{suite} suite: seed must be >= 0, got {seed}")
    for name, count in counts.items():
        if count < 1:
            raise InvalidInputError(f"{suite} suite: {name} must be >= 1, got {count}")


def _uniforms(rng: random.Random, lo: float, hi: float, *shape: int) -> np.ndarray:
    """An array of ``shape`` holding independent uniform draws from ``[lo, hi]``."""
    return np.array([rng.uniform(lo, hi) for _ in range(math.prod(shape))]).reshape(shape)


# --- gradient suite ---------------------------------------------------------

def _worst_gradient_error(loss, arrays) -> float:
    """Largest relative error of ``loss()``'s analytic gradient against central
    finite differences, over every entry of every array in ``arrays``.

    ``loss`` takes no arguments, reads ``arrays`` afresh on each call and
    returns a ``LossValue`` whose gradient is one array per entry of
    ``arrays``, or a single array when ``arrays`` holds one.
    """
    from .oracles import finite_difference_gradient, max_relative_error

    gradient = loss().gradient
    analytic = gradient if isinstance(gradient, list) else [gradient]
    worst = 0.0
    for level_gradient, array in zip(analytic, arrays):
        numeric = finite_difference_gradient(lambda: loss().value, array, FD_STEP)
        worst = max(worst, max_relative_error(level_gradient, numeric))
    return worst


def _level_arrays(rng):
    """One to two random signal arrays of 6-12 snippets, sharing one to three classes."""
    levels = rng.randrange(1, 3)
    classes = rng.randrange(1, 4)
    arrays = [_uniforms(rng, 0.05, 0.95, rng.randrange(6, 13), classes + 1) for _ in range(levels)]
    return arrays, classes


def _mil_case(rng):
    from . import losses

    levels = rng.randrange(1, 5)
    classes = rng.randrange(1, 9)
    scores = _uniforms(rng, 0.05, 0.95, levels, classes)
    label = np.array([float(rng.randrange(2)) for _ in range(classes)])
    return _worst_gradient_error(lambda: losses.mil_loss(scores, label), [scores])


def _focal_case(rng):
    from . import losses

    arrays, classes = _level_arrays(rng)
    supervised = []
    total = 0
    for array in arrays:
        pairs = []
        for _ in range(rng.randrange(1, 4)):
            label = np.zeros(classes)
            label[rng.randrange(classes)] = 1.0
            pairs.append((rng.randrange(array.shape[0]), label))
            total += 1
        supervised.append(pairs)
    return _worst_gradient_error(
        lambda: losses.action_focal_loss(arrays, supervised, losses.FOCAL_GAMMA, total), arrays
    )


def _background_case(rng):
    from . import losses

    arrays, _ = _level_arrays(rng)
    points = []
    total = 0
    for array in arrays:
        count = rng.randrange(1, 4)
        chosen = sorted(rng.sample(range(array.shape[0]), count))
        points.append(chosen)
        total += count
    return _worst_gradient_error(
        lambda: losses.background_loss(arrays, points, losses.FOCAL_GAMMA, total), arrays
    )


def _alignment_case(rng):
    from . import losses

    length = rng.randrange(12, 25)
    classes = rng.randrange(2, 5)
    values = _uniforms(rng, 0.05, 0.95, length, classes + 1)
    instances = []
    for _ in range(rng.randrange(1, 4)):
        instances.append((rng.randrange(length), rng.uniform(1.0, 5.0), rng.randrange(1, classes + 1)))
    kernels = losses.GaussianKernelSet.from_instances(instances, length)
    return _worst_gradient_error(lambda: losses.gaussian_alignment_loss(values, kernels), [values])


def _sigma_case(rng):
    from . import losses

    count = rng.randrange(1, 9)
    pseudo = _uniforms(rng, 0.0, 10.0, count)
    predicted = _uniforms(rng, 0.0, 10.0, count)
    return _worst_gradient_error(lambda: losses.sigma_loss(pseudo, predicted), [predicted])


def run_gradient_suite(instances: int = 100, seed: int = 20240) -> dict:
    """Check every analytic gradient against central finite differences."""
    _require_counts("gradients", seed, instances=instances)
    cases = (
        ("mil", _mil_case),
        ("action_focal", _focal_case),
        ("background", _background_case),
        ("gaussian_alignment", _alignment_case),
        ("sigma", _sigma_case),
    )
    checks = []
    for index, (name, case) in enumerate(cases):
        rng = random.Random(seed * len(cases) + index)
        worst = 0.0
        for _ in range(instances):
            worst = max(worst, case(rng))
        checks.append({"loss_name": name, "max_rel_err": worst, "pass": bool(worst < GRADIENT_TOLERANCE)})
    return {"suite": "gradients", "checks": checks, "pass": all(c["pass"] for c in checks)}


# --- fitting suite -----------------------------------------------------------

def run_fitting_suite(samples: int = 1000, grid_checks: int = 25, seed: int = 7341) -> dict:
    """Recovery of constructed profiles plus dense-grid agreement on noisy ones, each set's
    Gaussians in one batch and its rectangles in another."""
    _require_counts("fitting", seed, samples=samples, grid_checks=grid_checks)
    from .adm import SIGMA_LOWER_BOUND, PreliminaryBoundary, fit_gaussians, fit_uniforms, sigma_upper_bound
    from .optim import X_TOLERANCE
    from .oracles import gaussian_objective_grid, uniform_objective_grid

    rng = random.Random(seed)
    length = 512
    positions = np.arange(length, dtype=np.float64)

    sigmas_true, fits = [], []
    for _ in range(samples):
        sigma_true = rng.uniform(3.0, 40.0)
        t_star = rng.randrange(200, 313)
        boundary = PreliminaryBoundary(rng.randrange(40), rng.randrange(472, length))
        height = rng.uniform(0.5, 1.0)
        column = height * np.exp(-0.5 * ((positions - t_star) / sigma_true) ** 2)
        sigmas_true.append(sigma_true)
        fits.append((column, boundary, t_star))
    worst_sigma_rel = 0.0
    for sigma_true, fit in zip(sigmas_true, fit_gaussians(fits)):
        worst_sigma_rel = max(worst_sigma_rel, abs(fit.value - sigma_true) / sigma_true)
    gaussian_check = {
        "name": "gaussian_recovery",
        "max_rel_err": worst_sigma_rel,
        "pass": bool(worst_sigma_rel <= 0.02),
    }

    half_widths, rectangles = [], []
    for _ in range(samples):
        half_width = rng.randrange(1, 31)
        t_star = rng.randrange(150, 363)
        boundary = PreliminaryBoundary(rng.randrange(40), rng.randrange(472, length))
        height = rng.uniform(0.5, 1.0)
        half_widths.append(half_width)
        rectangles.append((np.where(np.abs(positions - t_star) <= half_width, height, 0.0), boundary, t_star))
    worst_omega_abs = 0.0
    for half_width, fit in zip(half_widths, fit_uniforms(rectangles)):
        worst_omega_abs = max(worst_omega_abs, abs(fit.value - half_width))
    uniform_check = {
        "name": "uniform_recovery",
        "max_abs_err": worst_omega_abs,
        "pass": bool(worst_omega_abs <= 1.0),
    }

    noisy = []
    for _ in range(grid_checks):
        sigma_true = rng.uniform(5.0, 30.0)
        t_star = rng.randrange(200, 313)
        boundary = PreliminaryBoundary(rng.randrange(20, 60), rng.randrange(452, 492))
        height = rng.uniform(0.6, 0.95)
        clean = height * np.exp(-0.5 * ((positions - t_star) / sigma_true) ** 2)
        noise = np.array([rng.gauss(0.0, 0.05) for _ in range(length)])
        noisy.append((np.clip(clean + noise, 0.0, 1.0), boundary, t_star))
    sigma_grid_ok = 0
    omega_grid_ok = 0
    for (column, boundary, t_star), gaussian, uniform in zip(noisy, fit_gaussians(noisy), fit_uniforms(noisy)):
        upper = sigma_upper_bound(boundary, t_star)
        sigma = gaussian.value
        sigma_grid = np.linspace(SIGMA_LOWER_BOUND, upper, FITTING_GRID_POINTS)
        sigma_values = gaussian_objective_grid(column, boundary, t_star, sigma_grid)
        best = float(sigma_values.min())
        fitted = float(gaussian_objective_grid(column, boundary, t_star, [sigma])[0])
        step = (upper - SIGMA_LOWER_BOUND) / (FITTING_GRID_POINTS - 1)
        if fitted <= best + 1e-9 * (1.0 + best) or abs(sigma - float(sigma_grid[sigma_values.argmin()])) <= X_TOLERANCE + step:
            sigma_grid_ok += 1

        omega = uniform.value
        omega_grid = np.linspace(0.0, upper, FITTING_GRID_POINTS)
        omega_values = uniform_objective_grid(column, boundary, t_star, omega_grid)
        fitted = float(uniform_objective_grid(column, boundary, t_star, [omega])[0])
        if fitted <= float(omega_values.min()) + 1e-9 * (1.0 + float(omega_values.min())):
            omega_grid_ok += 1

    grid_check = {
        "name": "grid_agreement",
        "sigma_ok": sigma_grid_ok,
        "omega_ok": omega_grid_ok,
        "total": grid_checks,
        "pass": bool(sigma_grid_ok == grid_checks and omega_grid_ok == grid_checks),
    }

    checks = [gaussian_check, uniform_check, grid_check]
    return {"suite": "fitting", "checks": checks, "pass": all(c["pass"] for c in checks)}


# --- oracle suite ------------------------------------------------------------

def _random_unimodal(rng):
    """A random objective of one of four unimodal kinds, its interval ``lo, hi`` and its minimizer."""
    lo = rng.uniform(-10.0, 0.0)
    hi = lo + rng.uniform(1.0, 20.0)
    minimum = rng.uniform(lo, hi)
    scale = rng.uniform(0.1, 5.0)
    offset = rng.uniform(-1.0, 1.0)
    kind = rng.randrange(4)
    if kind == 0:
        return lambda x: scale * (x - minimum) ** 2 + offset, lo, hi, minimum
    if kind == 1:
        return lambda x: scale * np.abs(x - minimum) + offset, lo, hi, minimum
    if kind == 2:
        width = rng.uniform(0.5, 3.0)
        return lambda x: -scale * np.exp(-0.5 * ((x - minimum) / width) ** 2) + offset, lo, hi, minimum
    slope = rng.uniform(0.1, 2.0)
    return lambda x: scale * (x - minimum) ** 2 + slope * np.abs(x - minimum) + offset, lo, hi, minimum


def _random_proposals(rng, max_count, classes, horizon=100):
    from .records import Proposal

    proposals = []
    for _ in range(rng.randrange(max_count + 1)):
        start = rng.randrange(horizon - 1)
        end = start + rng.randrange(20)
        proposals.append(
            Proposal(
                f"video-{rng.randrange(2):02d}",
                start,
                min(end, horizon - 1),
                rng.randrange(1, classes + 1),
                round(rng.uniform(0.0, 1.0), 6),
            )
        )
    return proposals


def run_oracle_suite(
    optimizer_cases: int = 100,
    ap_cases: int = 500,
    nms_cases: int = 200,
    idempotence_cases: int = 1000,
    seed: int = 5150,
) -> dict:
    """Compare the minimizer (every case a lane of one batch), AP, and NMS against brute-force references."""
    _require_counts(
        "oracles",
        seed,
        optimizer_cases=optimizer_cases,
        ap_cases=ap_cases,
        nms_cases=nms_cases,
        idempotence_cases=idempotence_cases,
    )
    from .decoder import nms
    from .evaluation import GroundTruthInstance, average_precision
    from .optim import X_TOLERANCE, minimize_lanes
    from .oracles import average_precision_direct, nms_direct

    rng = random.Random(seed)

    objectives, lows, highs, _ = zip(*(_random_unimodal(rng) for _ in range(optimizer_cases)))
    result = minimize_lanes(
        lambda points, lanes: np.array([float(objectives[lane](point)) for point, lane in zip(points.tolist(), lanes)]),
        np.array(lows),
        np.array(highs),
    )
    optimizer_ok = 0
    for objective, lo, hi, x in zip(objectives, lows, highs, result.x.tolist()):
        xs = np.linspace(lo, hi, ORACLE_GRID_POINTS)
        reference = float(xs[int(np.argmin(objective(xs)))])
        step = (hi - lo) / (ORACLE_GRID_POINTS - 1)
        if abs(x - reference) <= X_TOLERANCE + step:
            optimizer_ok += 1
    optimizer_check = {
        "name": "bounded_minimizer_vs_grid",
        "ok": optimizer_ok,
        "total": optimizer_cases,
        "pass": bool(optimizer_ok == optimizer_cases),
    }

    ap_ok = 0
    worst_ap_gap = 0.0
    for _ in range(ap_cases):
        gt = []
        for _ in range(rng.randrange(1, 6)):
            start = rng.randrange(80)
            gt.append(GroundTruthInstance(f"video-{rng.randrange(2):02d}", start, start + rng.randrange(20), 1))
        proposals = _random_proposals(rng, 10, 1)
        threshold = rng.choice([0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7])
        fast = average_precision(proposals, gt, threshold)
        direct = average_precision_direct(proposals, gt, threshold)
        gap = abs(fast - direct)
        worst_ap_gap = max(worst_ap_gap, gap)
        if gap <= 1e-12:
            ap_ok += 1
    ap_check = {
        "name": "average_precision_vs_direct",
        "ok": ap_ok,
        "total": ap_cases,
        "max_abs_gap": worst_ap_gap,
        "pass": bool(ap_ok == ap_cases),
    }

    nms_ok = 0
    for _ in range(nms_cases):
        proposals = _random_proposals(rng, 50, 3)
        threshold = rng.uniform(0.2, 0.7)
        if nms(proposals, threshold) == nms_direct(proposals, threshold):
            nms_ok += 1
    nms_check = {
        "name": "nms_vs_direct",
        "ok": nms_ok,
        "total": nms_cases,
        "pass": bool(nms_ok == nms_cases),
    }

    idempotent_ok = 0
    for _ in range(idempotence_cases):
        proposals = _random_proposals(rng, 30, 3)
        threshold = rng.uniform(0.2, 0.7)
        survivors = nms(proposals, threshold)
        if nms(survivors, threshold) == survivors:
            idempotent_ok += 1
    idempotence_check = {
        "name": "nms_idempotence",
        "ok": idempotent_ok,
        "total": idempotence_cases,
        "pass": bool(idempotent_ok == idempotence_cases),
    }

    checks = [optimizer_check, ap_check, nms_check, idempotence_check]
    return {"suite": "oracles", "checks": checks, "pass": all(c["pass"] for c in checks)}


SUITES = {
    "gradients": run_gradient_suite,
    "fitting": run_fitting_suite,
    "oracles": run_oracle_suite,
}


def run_suite(name: str, samples: int | None = None, seed: int | None = None) -> dict:
    """Run one suite of ``SUITES``; ``samples`` sets the per-check case counts, ``seed`` the seed.

    Without them the suite runs at its built-in sizes and seed.
    """
    kwargs = {} if seed is None else {"seed": seed}
    if samples is not None:
        if name == "gradients":
            kwargs.update(instances=samples)
        elif name == "fitting":
            kwargs.update(samples=samples, grid_checks=max(1, samples // 40))
        else:
            kwargs.update(
                optimizer_cases=max(1, samples // 10),
                ap_cases=samples,
                nms_cases=max(1, samples // 2),
                idempotence_cases=samples,
            )
    return SUITES[name](**kwargs)
