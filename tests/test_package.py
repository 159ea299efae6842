import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import actionness

# every name the package exports, by the module that defines it
EXPORTS = {
    "adm": [
        "ADMConfig", "PreliminaryBoundary", "PseudoLabel", "find_peak", "fit_gaussians", "fit_uniforms",
        "generate_pseudo_labels", "label_videos", "video_boundaries",
    ],
    "decoder": [
        "DecoderConfig", "Proposal", "decode_videos", "nms", "oic_scores", "select_classes", "threshold_runs",
    ],
    "errors": ["InvalidInputError", "NumericError", "PackingError"],
    "evaluation": [
        "EvalReport", "GroundTruthInstance", "average_precision", "evaluate", "map_report", "pseudo_label_quality",
        "tiou",
    ],
    "losses": [
        "GaussianKernelSet", "LossValue", "action_focal_loss", "background_loss", "gaussian_alignment_loss",
        "gaussian_kernel", "mil_loss", "mix_kernels", "sigma_loss", "video_level_scores",
    ],
    "optim": ["LaneResults", "minimize_lanes"],
    "signal": [
        "BackgroundPoints", "PointAnnotation", "ProbabilitySignal", "augment_points", "fuse_probabilities",
        "pyramid_scales", "select_background_points", "smooth_signal", "upsample_signal",
    ],
    "synth": ["SyntheticConfig", "SyntheticVideo", "generate_dataset", "generate_video", "sample_point"],
    "verify": ["run_suite"],
}
NAMES = sorted(name for names in EXPORTS.values() for name in names)


@pytest.mark.parametrize("module, name", [(module, name) for module, names in EXPORTS.items() for name in names])
def test_export_is_its_modules_object(module, name):
    assert getattr(actionness, name) is getattr(importlib.import_module(f"actionness.{module}"), name)


def test_dir_and_star_import_list_every_export():
    assert set(NAMES) <= set(dir(actionness))
    assert sorted(actionness.__all__) == NAMES
    namespace = {}
    exec("from actionness import *", namespace)
    assert set(NAMES) <= set(namespace)
    assert actionness.__version__ == "0.1.0"


def test_records_are_defined_once_and_keep_their_old_names():
    from actionness import adm, decoder, evaluation, records, signal

    for module, name in ((signal, "PointAnnotation"), (evaluation, "GroundTruthInstance"),
                         (adm, "PseudoLabel"), (decoder, "Proposal")):
        assert getattr(module, name) is getattr(records, name) is getattr(actionness, name)
        assert getattr(records, name).__module__ == "actionness.records"


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'label_video'"):
        actionness.label_video
    assert not hasattr(actionness, "Adm")


def test_exports_and_modules_load_on_first_use():
    source = str(Path(actionness.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [source, os.environ.get("PYTHONPATH")]))}
    script = (
        "import sys\n"
        "import actionness\n"
        "loaded = lambda: sorted(m for m in sys.modules if m.startswith('actionness') or m == 'numpy')\n"
        "print(loaded())\n"
        "actionness.ProbabilitySignal\n"
        "print(loaded())\n"
        "from actionness import adm\n"
        "print(adm is sys.modules['actionness.adm'], actionness.oracles is sys.modules['actionness.oracles'])\n"
    )
    child = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
    )
    bare, signal, modules = child.stdout.splitlines()
    assert bare == "['actionness']"
    assert signal == "['actionness', 'actionness.errors', 'actionness.records', 'actionness.signal', 'numpy']"
    assert modules == "True True"

