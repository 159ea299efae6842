"""Loss primitives with analytic gradients over their probability inputs.

Each loss returns a :class:`LossValue` carrying the scalar loss and the
gradient with respect to the differentiated input, shaped like that input so
finite-difference checks can perturb entries directly. Probabilities are
clamped away from 0 and 1 before any logarithm.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable, Sequence

import numpy as np

from .errors import InvalidInputError
from .signal import ProbabilitySignal

PROB_EPS = 1e-7
FOCAL_GAMMA = 2.0


@dataclass
class LossValue:
    """A scalar loss plus the gradient w.r.t. the differentiated input."""

    value: float
    gradient: Any
    degenerate: bool = False


def _clamp(p: np.ndarray) -> np.ndarray:
    return np.clip(p, PROB_EPS, 1.0 - PROB_EPS)


def _signal_values(signal) -> np.ndarray:
    if isinstance(signal, ProbabilitySignal):
        return signal.values
    return np.asarray(signal, dtype=np.float64)


def video_level_scores(signal: ProbabilitySignal, k: int) -> np.ndarray:
    """Mean of the k largest per-class probabilities (top-k pooling)."""
    if not 1 <= k <= signal.length:
        raise InvalidInputError(f"k must be in [1, {signal.length}], got {k}")
    classes = signal.values[:, :-1]
    top = np.partition(classes, signal.length - k, axis=0)[signal.length - k :, :]
    return top.mean(axis=0)


def mil_loss(scores, video_label) -> LossValue:
    """Binary cross-entropy between per-level video scores and the video label.

    ``scores`` is (levels, classes); the loss averages over levels and sums
    over classes. Gradient has the same shape as ``scores``.
    """
    scores = np.atleast_2d(np.asarray(scores, dtype=np.float64))
    y = np.asarray(video_label, dtype=np.float64)
    if y.ndim != 1 or scores.shape[1] != y.shape[0]:
        raise InvalidInputError(
            f"label shape {y.shape} incompatible with scores shape {scores.shape}"
        )
    levels = scores.shape[0]
    p = _clamp(scores)
    value = -float((y * np.log(p) + (1.0 - y) * np.log1p(-p)).sum()) / levels
    gradient = -(y / p - (1.0 - y) / (1.0 - p)) / levels
    return LossValue(value, gradient)


def action_focal_loss(signals, supervised, gamma: float, n_positive: int) -> LossValue:
    """Snippet-level focal loss over supervised (snippet, label-vector) pairs.

    ``supervised`` lists, per level, pairs ``(t, y)`` where ``y`` is a binary
    class vector. Gradients are accumulated into arrays shaped like each
    level's signal; the background column never receives gradient here.
    """
    arrays = [_signal_values(s) for s in signals]
    if len(supervised) != len(arrays):
        raise InvalidInputError("one supervised set required per level")
    if n_positive < 1:
        raise InvalidInputError(f"n_positive must be >= 1, got {n_positive}")
    gradients = [np.zeros_like(a) for a in arrays]
    total = 0.0
    count = 0
    for level, pairs in enumerate(supervised):
        values = arrays[level]
        for t, y in pairs:
            y = np.asarray(y, dtype=np.float64)
            p = _clamp(values[t, :-1])
            pos = y * np.log(p) * (1.0 - p) ** gamma
            neg = (1.0 - y) * np.log1p(-p) * p**gamma
            total += float((pos + neg).sum())
            d_pos = y * ((1.0 - p) ** gamma / p - gamma * (1.0 - p) ** (gamma - 1.0) * np.log(p))
            d_neg = (1.0 - y) * (gamma * p ** (gamma - 1.0) * np.log1p(-p) - p**gamma / (1.0 - p))
            gradients[level][t, :-1] += -(d_pos + d_neg) / n_positive
            count += 1
    if count == 0:
        return LossValue(0.0, gradients, degenerate=True)
    return LossValue(-total / n_positive, gradients)


def background_loss(signals, background_points, gamma: float, m_bg: int) -> LossValue:
    """Push class probabilities down and background probability up at
    background snippets, focal-weighted."""
    arrays = [_signal_values(s) for s in signals]
    if len(background_points) != len(arrays):
        raise InvalidInputError("one background set required per level")
    if m_bg < 0:
        raise InvalidInputError(f"m_bg must be >= 0, got {m_bg}")
    gradients = [np.zeros_like(a) for a in arrays]
    if m_bg == 0:
        return LossValue(0.0, gradients, degenerate=True)
    total = 0.0
    for level, points in enumerate(background_points):
        values = arrays[level]
        for t in points:
            p = _clamp(values[t, :-1])
            p_bg = float(_clamp(values[t, -1]))
            total += float((p**gamma * np.log1p(-p)).sum())
            total += (1.0 - p_bg) ** gamma * np.log(p_bg)
            d_class = gamma * p ** (gamma - 1.0) * np.log1p(-p) - p**gamma / (1.0 - p)
            d_bg = (1.0 - p_bg) ** gamma / p_bg - gamma * (1.0 - p_bg) ** (gamma - 1.0) * np.log(
                p_bg
            )
            gradients[level][t, :-1] += -d_class / m_bg
            gradients[level][t, -1] += -d_bg / m_bg
    return LossValue(-total / m_bg, gradients)


def gaussian_kernel(t_i: int, sigma_tilde: float, length: int) -> np.ndarray:
    """Unnormalized Gaussian bump with peak 1 at the annotated snippet."""
    if sigma_tilde <= 0:
        raise InvalidInputError(f"sigma_tilde must be > 0, got {sigma_tilde}")
    if length < 1:
        raise InvalidInputError(f"length must be >= 1, got {length}")
    offsets = np.arange(length, dtype=np.float64) - t_i
    return np.exp(-0.5 * (offsets / sigma_tilde) ** 2)


def mix_kernels(instances: Sequence[tuple[int, float]], length: int) -> np.ndarray:
    """Pointwise maximum of the per-instance kernels of one class."""
    if not instances:
        raise InvalidInputError("mix_kernels requires at least one instance")
    stacked = np.stack([gaussian_kernel(t, sigma, length) for t, sigma in instances])
    return stacked.max(axis=0)


@dataclass
class GaussianKernelSet:
    """Mixed per-class kernel curves; classes absent from the video are omitted."""

    kernels: dict[int, np.ndarray]
    length: int

    def __post_init__(self):
        for class_id, curve in self.kernels.items():
            curve = np.asarray(curve, dtype=np.float64)
            if curve.shape != (self.length,):
                raise InvalidInputError(
                    f"kernel for class {class_id} has shape {curve.shape}, expected ({self.length},)"
                )
            if curve.min() < 0.0 or curve.max() > 1.0:
                raise InvalidInputError(f"kernel for class {class_id} leaves [0, 1]")
            self.kernels[class_id] = curve

    @classmethod
    def from_instances(
        cls, instances: Iterable[tuple[int, float, int]], length: int
    ) -> "GaussianKernelSet":
        """Build from ``(t_i, sigma_tilde_i, class_id)`` triples."""
        by_class: dict[int, list[tuple[int, float]]] = {}
        for t, sigma, class_id in instances:
            by_class.setdefault(class_id, []).append((t, sigma))
        return cls({c: mix_kernels(v, length) for c, v in sorted(by_class.items())}, length)

    @property
    def classes(self) -> list[int]:
        return sorted(self.kernels)


def gaussian_alignment_loss(signal, kernels: GaussianKernelSet) -> LossValue:
    """MSE between class probability curves and their mixed Gaussian kernels."""
    values = _signal_values(signal)
    gradient = np.zeros_like(values)
    if kernels.length != values.shape[0]:
        raise InvalidInputError(
            f"kernel length {kernels.length} != signal length {values.shape[0]}"
        )
    classes = kernels.classes
    if not classes:
        return LossValue(0.0, gradient, degenerate=True)
    norm = values.shape[0] * len(classes)
    total = 0.0
    for class_id in classes:
        residual = kernels.kernels[class_id] - values[:, class_id - 1]
        total += float((residual**2).sum())
        gradient[:, class_id - 1] = -2.0 * residual / norm
    return LossValue(total / norm, gradient)


def sigma_loss(pseudo_sigmas, predicted_sigmas) -> LossValue:
    """Mean squared discrepancy between pseudo-label and predicted stds.

    Gradient is taken with respect to the predicted values.
    """
    pseudo = np.asarray(pseudo_sigmas, dtype=np.float64)
    predicted = np.asarray(predicted_sigmas, dtype=np.float64)
    if pseudo.ndim != 1 or pseudo.shape != predicted.shape or pseudo.size == 0:
        raise InvalidInputError(
            f"sigma sequences must be equal-length 1-D, got {pseudo.shape} and {predicted.shape}"
        )
    diff = predicted - pseudo
    n = pseudo.size
    return LossValue(float((diff**2).sum()) / n, 2.0 * diff / n)
