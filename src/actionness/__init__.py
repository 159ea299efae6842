"""Actionness distribution modeling for point-supervised temporal localization.

The package turns per-snippet action-probability signals and single-point
annotations into pseudo-label intervals by fitting composite Gaussian/uniform
profiles, decodes and evaluates interval proposals, and provides the training
losses as verified numeric primitives.

Importing the package imports none of its modules: each export below loads
its module on first use (PEP 562).
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "adm": (
        "ADMConfig",
        "PreliminaryBoundary",
        "find_peak",
        "fit_gaussians",
        "fit_uniforms",
        "generate_pseudo_labels",
        "label_videos",
        "video_boundaries",
    ),
    "decoder": (
        "DecoderConfig",
        "decode_videos",
        "nms",
        "oic_scores",
        "select_classes",
        "threshold_runs",
    ),
    "errors": ("InvalidInputError", "NumericError", "PackingError"),
    "evaluation": (
        "EvalReport",
        "average_precision",
        "evaluate",
        "map_report",
        "pseudo_label_quality",
        "tiou",
    ),
    "losses": (
        "GaussianKernelSet",
        "LossValue",
        "action_focal_loss",
        "background_loss",
        "gaussian_alignment_loss",
        "gaussian_kernel",
        "mil_loss",
        "mix_kernels",
        "sigma_loss",
        "video_level_scores",
    ),
    "optim": ("LaneResults", "minimize_lanes"),
    "records": ("GroundTruthInstance", "PointAnnotation", "Proposal", "PseudoLabel"),
    "signal": (
        "BackgroundPoints",
        "ProbabilitySignal",
        "augment_points",
        "fuse_probabilities",
        "pyramid_scales",
        "select_background_points",
        "smooth_signal",
        "upsample_signal",
    ),
    "synth": ("SyntheticConfig", "SyntheticVideo", "generate_dataset", "generate_video", "sample_point"),
    "verify": ("run_suite",),
}
# each exported name -> the module that defines it
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
_MODULES = frozenset(_EXPORTS) | {"cli", "oracles", "storage"}  # every module of the package

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    if name in _MODULE_OF:
        return getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
    if name in _MODULES:  # ``actionness.adm`` without an ``import actionness.adm`` first
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_MODULE_OF))
