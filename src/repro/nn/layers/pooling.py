"""Pooling layers: max pooling and Darknet-style global average pooling."""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError, ShapeError
from repro.nn.layers.base import Layer, Shape

__all__ = ["MaxPoolLayer", "AvgPoolLayer"]


class MaxPoolLayer(Layer):
    """Max pooling over ``size x size`` windows with a spatial stride."""

    kind = "max"

    def __init__(self, size: int = 2, stride: int = 2) -> None:
        super().__init__()
        if size <= 0 or stride <= 0:
            raise ConfigurationError("pool size and stride must be positive")
        self.size = size
        self.stride = stride

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        if x.shape[1] < self.size or x.shape[2] < self.size:
            raise ShapeError(
                f"input {x.shape[1:3]} smaller than pool window {self.size}"
            )
        return self.backend.maxpool_forward(self, x, training)

    def backward(self, delta: np.ndarray) -> np.ndarray:
        return self.backend.maxpool_backward(self, delta)

    def output_shape(self, input_shape: Shape) -> Shape:
        h, w, c = input_shape
        oh = (h - self.size) // self.stride + 1
        ow = (w - self.size) // self.stride + 1
        return (oh, ow, c)

    def flops(self, input_shape: Shape) -> float:
        oh, ow, c = self.output_shape(input_shape)
        return float(oh * ow * c * self.size * self.size)

    def describe(self) -> str:
        return f"max {self.size}x{self.size}/{self.stride}"


class AvgPoolLayer(Layer):
    """Global average pooling (Darknet's ``[avgpool]``): HWC -> C."""

    kind = "avg"

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        if training:
            self._cache["input_shape"] = x.shape
        return x.mean(axis=(1, 2))

    def backward(self, delta: np.ndarray) -> np.ndarray:
        n, h, w, c = self._cache.pop("input_shape")
        # Each spatial position receives an equal share of the gradient.
        return np.broadcast_to(
            delta[:, None, None, :] / (h * w), (n, h, w, c)
        ).astype(delta.dtype).copy()

    def output_shape(self, input_shape: Shape) -> Shape:
        return (input_shape[-1],)

    def flops(self, input_shape: Shape) -> float:
        h, w, c = input_shape
        return float(h * w * c)

    def describe(self) -> str:
        return "avg"
