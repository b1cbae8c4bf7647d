"""Logarithmic quantisation and the LUT+shift arithmetic of the log PE."""

from .logquant import (
    LogQuantConfig,
    QuantizedTensor,
    quantization_error,
    quantize_dequantize,
    quantize_tensor,
)
from .lut import FracLUT, LogDomainPE, required_frac_bits
from .snn_quant import QuantizationReport, accuracy_vs_bits, quantize_snn
from .qat import (
    disable_weight_qat,
    enable_weight_qat,
    fake_quantize,
    qat_finetune,
)

__all__ = [
    "LogQuantConfig",
    "QuantizedTensor",
    "quantization_error",
    "quantize_dequantize",
    "quantize_tensor",
    "FracLUT",
    "LogDomainPE",
    "required_frac_bits",
    "QuantizationReport",
    "accuracy_vs_bits",
    "quantize_snn",
    "disable_weight_qat",
    "enable_weight_qat",
    "fake_quantize",
    "qat_finetune",
]
