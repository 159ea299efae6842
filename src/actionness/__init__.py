"""Actionness distribution modeling for point-supervised temporal localization.

The package turns per-snippet action-probability signals and single-point
annotations into pseudo-label intervals by fitting composite Gaussian/uniform
profiles, decodes and evaluates interval proposals, and provides the training
losses as verified numeric primitives.
"""

from .adm import (
    ADMConfig,
    PreliminaryBoundary,
    PseudoLabel,
    find_peak,
    fit_gaussians,
    fit_uniform,
    generate_pseudo_labels,
    label_videos,
    preliminary_boundaries,
)
from .decoder import DecoderConfig, Proposal, decode, decode_videos, nms, oic_score, select_classes, threshold_merge
from .errors import InvalidInputError, NumericError, PackingError
from .evaluation import (
    EvalReport,
    GroundTruthInstance,
    average_precision,
    evaluate,
    map_report,
    pseudo_label_quality,
    tiou,
)
from .losses import (
    GaussianKernelSet,
    LossValue,
    action_focal_loss,
    background_loss,
    gaussian_alignment_loss,
    gaussian_kernel,
    mil_loss,
    mix_kernels,
    sigma_loss,
    video_level_scores,
)
from .optim import LaneResults, minimize_lanes
from .signal import (
    BackgroundPoints,
    PointAnnotation,
    ProbabilitySignal,
    augment_points,
    fuse_probabilities,
    pyramid_scales,
    select_background_points,
    smooth_signal,
    upsample_signal,
)
from .synth import SyntheticConfig, SyntheticVideo, generate_dataset, generate_video, sample_point
from .verify import run_suite

__version__ = "0.1.0"
