import copy
import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from actionness.errors import InvalidInputError
from actionness.losses import (
    FOCAL_GAMMA,
    GaussianKernelSet,
    action_focal_loss,
    background_loss,
    gaussian_alignment_loss,
    gaussian_kernel,
    mil_loss,
    mix_kernels,
    sigma_loss,
)
from actionness.oracles import finite_difference_gradient, max_relative_error
from actionness.signal import ProbabilitySignal
from actionness.verify import run_gradient_suite


class TestMilLoss:
    def test_perfect_scores_near_zero(self):
        scores = np.array([[1.0, 0.0]])
        label = np.array([1.0, 0.0])
        assert mil_loss(scores, label).value == pytest.approx(0.0, abs=1e-5)

    def test_single_term_ln2(self):
        assert mil_loss(np.array([[0.5]]), np.array([1.0])).value == pytest.approx(math.log(2))

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(32)
        scores = rng.uniform(0.05, 0.95, (3, 6))
        label = rng.integers(0, 2, 6).astype(float)
        analytic = mil_loss(scores, label).gradient
        numeric = finite_difference_gradient(lambda: mil_loss(scores, label).value, scores)
        assert max_relative_error(analytic, numeric) < 1e-4

    def test_nonnegative(self):
        rng = np.random.default_rng(33)
        for _ in range(20):
            scores = rng.uniform(0, 1, (2, 4))
            label = rng.integers(0, 2, 4).astype(float)
            assert mil_loss(scores, label).value >= 0.0


class TestActionFocalLoss:
    def test_perfect_prediction_zero(self):
        signals = [np.array([[1.0, 0.0, 0.0]])]
        supervised = [[(0, np.array([1.0, 0.0]))]]
        value = action_focal_loss(signals, supervised, FOCAL_GAMMA, 1).value
        assert value == pytest.approx(0.0, abs=1e-5)

    def test_half_probability_single_term(self):
        signals = [np.array([[0.5, 0.3]])]
        supervised = [[(0, np.array([1.0]))]]
        value = action_focal_loss(signals, supervised, FOCAL_GAMMA, 1).value
        assert value == pytest.approx(0.25 * math.log(2))

    def test_empty_supervision_flagged(self):
        result = action_focal_loss([np.full((4, 3), 0.5)], [[]], FOCAL_GAMMA, 1)
        assert result.value == 0.0 and result.degenerate

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(34)
        arrays = [rng.uniform(0.05, 0.95, (8, 4)) for _ in range(2)]
        supervised = []
        count = 0
        for array in arrays:
            pairs = []
            for _ in range(3):
                label = np.zeros(3)
                label[rng.integers(0, 3)] = 1.0
                pairs.append((int(rng.integers(0, 8)), label))
                count += 1
            supervised.append(pairs)
        result = action_focal_loss(arrays, supervised, FOCAL_GAMMA, count)
        for level, array in enumerate(arrays):
            numeric = finite_difference_gradient(
                lambda: action_focal_loss(arrays, supervised, FOCAL_GAMMA, count).value, array
            )
            assert max_relative_error(result.gradient[level], numeric) < 1e-4


class TestBackgroundLoss:
    def test_perfect_background_zero(self):
        signals = [np.array([[0.0, 0.0, 1.0]])]
        value = background_loss(signals, [[0]], FOCAL_GAMMA, 1).value
        assert value == pytest.approx(0.0, abs=1e-5)

    def test_half_background_single_point(self):
        signals = [np.array([[0.0, 0.5]])]
        value = background_loss(signals, [[0]], FOCAL_GAMMA, 1).value
        assert value == pytest.approx(0.25 * math.log(2), abs=1e-6)

    def test_no_points_flagged(self):
        result = background_loss([np.full((4, 3), 0.5)], [[]], FOCAL_GAMMA, 0)
        assert result.value == 0.0 and result.degenerate

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(35)
        arrays = [rng.uniform(0.05, 0.95, (8, 4))]
        points = [[1, 4, 6]]
        result = background_loss(arrays, points, FOCAL_GAMMA, 3)
        numeric = finite_difference_gradient(
            lambda: background_loss(arrays, points, FOCAL_GAMMA, 3).value, arrays[0]
        )
        assert max_relative_error(result.gradient[0], numeric) < 1e-4


class TestGaussianKernel:
    def test_peak_is_one(self):
        kernel = gaussian_kernel(5, 2.0, 20)
        assert kernel[5] == 1.0

    def test_one_sigma_value(self):
        kernel = gaussian_kernel(10, 3.0, 21)
        assert kernel[13] == pytest.approx(math.exp(-0.5))
        assert kernel[7] == pytest.approx(math.exp(-0.5))

    def test_symmetry(self):
        kernel = gaussian_kernel(10, 2.5, 21)
        for offset in range(1, 10):
            assert kernel[10 + offset] == pytest.approx(kernel[10 - offset])

    def test_rejects_nonpositive_sigma(self):
        with pytest.raises(InvalidInputError):
            gaussian_kernel(0, 0.0, 5)


class TestMixKernels:
    def test_single_instance_identity(self):
        assert np.array_equal(mix_kernels([(4, 2.0)], 16), gaussian_kernel(4, 2.0, 16))

    def test_far_apart_instances_keep_own_peaks(self):
        mixed = mix_kernels([(5, 1.0), (55, 1.0)], 60)
        assert mixed[5] == 1.0 and mixed[55] == 1.0
        assert np.allclose(mixed[:10], gaussian_kernel(5, 1.0, 60)[:10])

    def test_matches_pointwise_max_oracle(self):
        rng = np.random.default_rng(36)
        instances = [(int(rng.integers(0, 50)), float(rng.uniform(0.5, 6.0))) for _ in range(5)]
        mixed = mix_kernels(instances, 50)
        expected = np.zeros(50)
        for t in range(50):
            expected[t] = max(gaussian_kernel(ti, si, 50)[t] for ti, si in instances)
        assert np.allclose(mixed, expected)
        for ti, si in instances:
            assert np.all(mixed >= gaussian_kernel(ti, si, 50) - 1e-15)

    def test_empty_rejected(self):
        with pytest.raises(InvalidInputError):
            mix_kernels([], 10)


class TestGaussianAlignmentLoss:
    def test_zero_iff_signal_equals_kernel(self):
        kernels = GaussianKernelSet.from_instances([(8, 2.0, 1)], 16)
        values = np.zeros((16, 3))
        values[:, 0] = kernels.kernels[1]
        assert gaussian_alignment_loss(values, kernels).value == 0.0
        values[3, 0] += 0.25
        assert gaussian_alignment_loss(values, kernels).value > 0.0

    def test_constant_offset_squared(self):
        kernels = GaussianKernelSet.from_instances([(8, 2.0, 1)], 16)
        offset = 0.05
        values = np.zeros((16, 2))
        values[:, 0] = kernels.kernels[1] - offset
        result = gaussian_alignment_loss(values, kernels)
        assert result.value == pytest.approx(offset**2)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(37)
        kernels = GaussianKernelSet.from_instances([(4, 1.5, 1), (12, 2.0, 2)], 20)
        values = rng.uniform(0.05, 0.95, (20, 3))
        result = gaussian_alignment_loss(values, kernels)
        numeric = finite_difference_gradient(
            lambda: gaussian_alignment_loss(values, kernels).value, values
        )
        assert max_relative_error(result.gradient, numeric) < 1e-4

    def test_no_classes_flagged(self):
        result = gaussian_alignment_loss(np.zeros((8, 2)), GaussianKernelSet({}, 8))
        assert result.value == 0.0 and result.degenerate


class TestSigmaLoss:
    def test_identical_is_zero(self):
        assert sigma_loss([1.0, 2.0], [1.0, 2.0]).value == 0.0

    def test_single_pair(self):
        assert sigma_loss([3.0], [5.0]).value == pytest.approx(4.0)

    def test_gradient_closed_form(self):
        pseudo = np.array([1.0, 4.0, 2.0])
        predicted = np.array([2.0, 1.0, 2.0])
        result = sigma_loss(pseudo, predicted)
        assert np.allclose(result.gradient, 2.0 * (predicted - pseudo) / 3.0)
        numeric = finite_difference_gradient(
            lambda: sigma_loss(pseudo, predicted).value, predicted
        )
        assert max_relative_error(result.gradient, numeric) < 1e-4

    def test_length_mismatch_rejected(self):
        with pytest.raises(InvalidInputError):
            sigma_loss([1.0], [1.0, 2.0])


def test_losses_nonnegative_on_random_inputs():
    rng = np.random.default_rng(38)
    for _ in range(20):
        arrays = [rng.uniform(0, 1, (6, 3))]
        label = np.zeros(2)
        label[rng.integers(0, 2)] = 1.0
        supervised = [[(int(rng.integers(0, 6)), label)]]
        assert action_focal_loss(arrays, supervised, FOCAL_GAMMA, 1).value >= 0.0
        assert background_loss(arrays, [[int(rng.integers(0, 6))]], FOCAL_GAMMA, 1).value >= 0.0
        kernels = GaussianKernelSet.from_instances([(2, 1.0, 1)], 6)
        assert gaussian_alignment_loss(arrays[0], kernels).value >= 0.0


def _focal_loop(arrays, supervised, gamma, n_positive):
    """``action_focal_loss`` as a loop over the pairs: the reference its one pass must equal."""
    gradients = [np.zeros_like(a) for a in arrays]
    total = 0.0
    for level, pairs in enumerate(supervised):
        for t, y in pairs:
            y = np.asarray(y, dtype=np.float64)
            p = np.clip(arrays[level][t, :-1], 1e-7, 1.0 - 1e-7)
            total += float((y * np.log(p) * (1.0 - p) ** gamma + (1.0 - y) * np.log1p(-p) * p**gamma).sum())
            d_pos = y * ((1.0 - p) ** gamma / p - gamma * (1.0 - p) ** (gamma - 1.0) * np.log(p))
            d_neg = (1.0 - y) * (gamma * p ** (gamma - 1.0) * np.log1p(-p) - p**gamma / (1.0 - p))
            gradients[level][t, :-1] += -(d_pos + d_neg) / n_positive
    return -total / n_positive, gradients


def _background_loop(arrays, points, gamma, m_bg):
    """``background_loss`` as a loop over the points: the reference its one pass must equal."""
    gradients = [np.zeros_like(a) for a in arrays]
    total = 0.0
    for level, level_points in enumerate(points):
        for t in level_points:
            p = np.clip(arrays[level][t, :-1], 1e-7, 1.0 - 1e-7)
            p_bg = float(np.clip(arrays[level][t, -1], 1e-7, 1.0 - 1e-7))
            total += float((p**gamma * np.log1p(-p)).sum())
            total += (1.0 - p_bg) ** gamma * np.log(p_bg)
            d_class = gamma * p ** (gamma - 1.0) * np.log1p(-p) - p**gamma / (1.0 - p)
            d_bg = (1.0 - p_bg) ** gamma / p_bg - gamma * (1.0 - p_bg) ** (gamma - 1.0) * np.log(p_bg)
            gradients[level][t, :-1] += -d_class / m_bg
            gradients[level][t, -1] += -d_bg / m_bg
    return -total / m_bg, gradients


@pytest.mark.parametrize("gamma", [FOCAL_GAMMA, 0.5, 3.0])
def test_focal_and_background_losses_equal_their_loops_bit_for_bit(gamma):
    # several levels, some without pairs or points, repeated snippets, and
    # probabilities at and beyond the clamp
    rng = np.random.default_rng(int(gamma * 10))
    for _ in range(200):
        classes = int(rng.integers(1, 12))
        arrays = [rng.uniform(0.0, 1.0, (int(rng.integers(1, 20)), classes + 1)) for _ in range(int(rng.integers(1, 4)))]
        arrays[0][0, :] = 1.0
        supervised, points = [], []
        for array in arrays:
            count = int(rng.integers(0, 6))
            snippets = rng.integers(0, array.shape[0], count).tolist()
            supervised.append([(t, rng.integers(0, 2, classes).astype(float)) for t in snippets])
            points.append(rng.integers(0, array.shape[0], int(rng.integers(0, 6))).tolist())
        n_positive = max(1, sum(len(pairs) for pairs in supervised))
        focal = action_focal_loss(arrays, supervised, gamma, n_positive)
        if any(supervised):
            value, gradients = _focal_loop(arrays, supervised, gamma, n_positive)
            assert focal.value == value
            assert all(np.array_equal(a, b) for a, b in zip(focal.gradient, gradients))
        m_bg = max(1, sum(len(level_points) for level_points in points))
        background = background_loss(arrays, points, gamma, m_bg)
        value, gradients = _background_loop(arrays, points, gamma, m_bg)
        assert background.value == value
        assert all(np.array_equal(a, b) for a, b in zip(background.gradient, gradients))


def test_levels_with_different_column_counts_rejected():
    arrays = [np.full((4, 3), 0.5), np.full((4, 4), 0.5)]
    with pytest.raises(InvalidInputError, match="same number of columns"):
        action_focal_loss(arrays, [[(0, [1.0, 0.0])], [(1, [1.0, 0.0, 0.0])]], FOCAL_GAMMA, 2)
    with pytest.raises(InvalidInputError, match="same number of columns"):
        background_loss(arrays, [[0], [1]], FOCAL_GAMMA, 2)


def _lazy_gradient_case(name, rng):
    """``(loss, inputs)``: one call ``loss(*inputs)`` of the loss ``name`` on random inputs,
    every numeric input an array of its own, integer snippets included."""
    arrays = [rng.uniform(0.05, 0.95, (8, 4)) for _ in range(2)]
    if name == "mil":
        return mil_loss, (rng.uniform(0.05, 0.95, (3, 4)), rng.integers(0, 2, 4).astype(float))
    if name == "action_focal":
        supervised = [[(int(rng.integers(0, 8)), rng.integers(0, 2, 3).astype(float)) for _ in range(2)] for _ in arrays]
        return action_focal_loss, (arrays, supervised, FOCAL_GAMMA, 4)
    if name == "background":
        points = [rng.choice(8, size=2, replace=False) for _ in arrays]
        return background_loss, (arrays, points, FOCAL_GAMMA, 4)
    if name == "gaussian_alignment":
        kernels = GaussianKernelSet.from_instances([(2, 1.5, 1), (5, 2.0, 3)], 8)
        return gaussian_alignment_loss, (arrays[0], kernels)
    assert name == "sigma"
    return sigma_loss, (rng.uniform(0.0, 10.0, 5), rng.uniform(0.0, 10.0, 5))


def _arrays_in(value) -> list[np.ndarray]:
    """Every array in ``value``, however deep in lists, tuples and kernel sets."""
    if isinstance(value, np.ndarray):
        return [value]
    if isinstance(value, GaussianKernelSet):
        return list(value.kernels.values())
    if isinstance(value, (list, tuple)):
        return [array for item in value for array in _arrays_in(item)]
    return []


def _bits(gradient) -> list[tuple]:
    return [(array.shape, array.tobytes()) for array in (gradient if isinstance(gradient, list) else [gradient])]


@pytest.mark.parametrize("name", ["mil", "action_focal", "background", "gaussian_alignment", "sigma"])
def test_gradient_read_after_the_inputs_change_is_the_gradient_of_the_call(name):
    # the gradient is built on its first read, and finite differences perturb
    # the inputs in place between the call and that read
    rng = np.random.default_rng(39)
    for _ in range(20):
        loss, inputs = _lazy_gradient_case(name, rng)
        expected = loss(*copy.deepcopy(inputs)).gradient
        result = loss(*inputs)
        for array in _arrays_in(inputs):
            if array.dtype.kind == "f":
                array *= 0.5
            else:
                array[...] = 0
        gradient = result.gradient
        assert _bits(gradient) == _bits(expected)
        assert result.gradient is gradient


@pytest.mark.parametrize("name", ["action_focal", "background", "gaussian_alignment"])
def test_signal_losses_read_the_values_of_any_object_that_has_them(name):
    # losses read ``.values`` by duck typing, so a signal, a stand-in and the bare array agree bit for bit
    rng = np.random.default_rng(47)
    for _ in range(10):
        loss, inputs = _lazy_gradient_case(name, rng)
        arrays, rest = inputs[0], inputs[1:]
        expected = loss(*inputs)
        for wrap in (lambda a: ProbabilitySignal("v0", 1, a), lambda a: SimpleNamespace(values=a)):
            signals = [wrap(a) for a in arrays] if isinstance(arrays, list) else wrap(arrays)
            result = loss(signals, *rest)
            assert result.value == expected.value
            assert _bits(result.gradient) == _bits(expected.gradient)


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=0))
def test_gradient_suite_passes_at_any_seed(seed):
    assert run_gradient_suite(instances=2, seed=seed)["pass"]
