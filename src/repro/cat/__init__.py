"""Conversion-aware training (CAT) — the paper's primary contribution."""

from .kernels import NO_SPIKE, Base2Kernel, ExpKernel
from .activations import (
    ClipActivation,
    ReLUActivation,
    TTFSActivation,
    clip_array,
    make_activation,
    ttfs_quantize_array,
)
from .schedule import METHODS, CATConfig, paper_config
from .trainer import CATTrainer, EpochRecord, TrainResult, evaluate, train_cat
from .convert import (
    ConvertedSNN,
    LayerSpec,
    apply_output_weight_norm,
    conversion_loss,
    convert,
    extract_layer_specs,
    fuse_conv_bn,
)
from .errors import ActivationCurves, activation_curves

__all__ = [
    "NO_SPIKE",
    "Base2Kernel",
    "ExpKernel",
    "ClipActivation",
    "ReLUActivation",
    "TTFSActivation",
    "clip_array",
    "make_activation",
    "ttfs_quantize_array",
    "METHODS",
    "CATConfig",
    "paper_config",
    "CATTrainer",
    "EpochRecord",
    "TrainResult",
    "evaluate",
    "train_cat",
    "ConvertedSNN",
    "LayerSpec",
    "apply_output_weight_norm",
    "conversion_loss",
    "convert",
    "extract_layer_specs",
    "fuse_conv_bn",
    "ActivationCurves",
    "activation_curves",
]
