"""Numpy autograd engine: the training substrate for the reproduction."""

from .tensor import Tensor, as_tensor, concatenate, custom_op, stack, where
from .conv import (
    avg_pool2d,
    col2im,
    conv2d,
    conv_gemm,
    im2col,
    max_pool2d,
)
from .functional import (
    accuracy,
    cross_entropy,
    log_softmax,
    softmax,
)

__all__ = [
    "Tensor",
    "as_tensor",
    "concatenate",
    "custom_op",
    "stack",
    "where",
    "conv2d",
    "conv_gemm",
    "max_pool2d",
    "avg_pool2d",
    "im2col",
    "col2im",
    "accuracy",
    "cross_entropy",
    "log_softmax",
    "softmax",
]
