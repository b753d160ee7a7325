"""Residual blocks (Darknet's ``[shortcut]``, composite-layer form).

A :class:`ResidualBlockLayer` wraps an inner layer stack ``f`` and computes
``y = x + f(x)``. Keeping the skip connection *inside* one composite layer
preserves the Network container's sequential contract (including
FrontNet/BackNet partitioning: a block is atomic, so a partition boundary
can never split a skip connection across the enclave boundary).
"""

from __future__ import annotations

from typing import Dict, List, Sequence

import numpy as np

from repro.errors import ConfigurationError, ShapeError
from repro.nn.layers.base import Layer, Shape

__all__ = ["ResidualBlockLayer"]


class ResidualBlockLayer(Layer):
    """``y = x + f(x)`` with ``f`` an inner stack of layers.

    The inner stack must preserve the input shape (checked at build time),
    as in standard identity-shortcut residual blocks.
    """

    kind = "residual"

    def __init__(self, inner: Sequence[Layer]) -> None:
        super().__init__()
        if not inner:
            raise ConfigurationError("a residual block needs inner layers")
        self.inner: List[Layer] = list(inner)

    # -- setup ---------------------------------------------------------------

    def build(self, in_channels: int, initializer) -> None:
        for layer in self.inner:
            if hasattr(layer, "build") and not layer.params():
                layer.build(in_channels, initializer)
            # Track channel changes through the inner stack.
            if hasattr(layer, "filters"):
                in_channels = layer.filters

    def _check_shape(self, input_shape: Shape) -> None:
        shape = input_shape
        for layer in self.inner:
            shape = layer.output_shape(shape)
        if tuple(shape) != tuple(input_shape):
            raise ShapeError(
                f"residual inner stack maps {input_shape} to {shape}; "
                "identity shortcuts need shape-preserving inner layers"
            )

    # -- compute ------------------------------------------------------------

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        out = x
        for layer in self.inner:
            out = layer.forward(out, training=training)
        if out.shape != x.shape:
            raise ShapeError(
                f"residual inner stack produced {out.shape}, expected {x.shape}"
            )
        return x + out

    def backward(self, delta: np.ndarray) -> np.ndarray:
        inner_delta = delta
        for layer in reversed(self.inner):
            inner_delta = layer.backward(inner_delta)
        return delta + inner_delta

    # -- parameters ----------------------------------------------------------

    def params(self) -> Dict[str, np.ndarray]:
        merged: Dict[str, np.ndarray] = {}
        for i, layer in enumerate(self.inner):
            for name, arr in layer.params().items():
                merged[f"inner{i}/{name}"] = arr
        return merged

    def grads(self) -> Dict[str, np.ndarray]:
        merged: Dict[str, np.ndarray] = {}
        for i, layer in enumerate(self.inner):
            for name, arr in layer.grads().items():
                merged[f"inner{i}/{name}"] = arr
        return merged

    def extra_state(self) -> Dict[str, np.ndarray]:
        merged: Dict[str, np.ndarray] = {}
        for i, layer in enumerate(self.inner):
            if hasattr(layer, "extra_state"):
                for name, arr in layer.extra_state().items():
                    merged[f"inner{i}/{name}"] = arr
        return merged

    def zero_grads(self) -> None:
        for layer in self.inner:
            layer.zero_grads()

    # -- introspection ---------------------------------------------------------

    def output_shape(self, input_shape: Shape) -> Shape:
        self._check_shape(input_shape)
        return tuple(input_shape)

    def flops(self, input_shape: Shape) -> float:
        shape = input_shape
        total = float(np.prod(input_shape))  # the addition
        for layer in self.inner:
            total += layer.flops(shape)
            shape = layer.output_shape(shape)
        return total

    def describe(self) -> str:
        return f"residual x{len(self.inner)}"
