"""Softmax and cost layers (Darknet's classification tail).

Following Darknet, a classification network ends ``... -> softmax -> cost``.
The two are *fused* for backpropagation: :meth:`CostLayer.delta` returns the
gradient of the cross-entropy loss with respect to the softmax *inputs*
(``probs - onehot``), and both layers' :meth:`backward` pass deltas through
unchanged. This is the standard softmax/cross-entropy fusion and is exactly
how Darknet wires its deltas.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.errors import ShapeError
from repro.nn.layers.base import Layer, Shape

__all__ = ["SoftmaxLayer", "CostLayer"]


class SoftmaxLayer(Layer):
    """Softmax over class logits."""

    kind = "softmax"

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        if x.ndim != 2:
            raise ShapeError(f"softmax expects (N, classes), got {x.shape}")
        return self.backend.softmax(x)

    def backward(self, delta: np.ndarray) -> np.ndarray:
        # Fused with cross-entropy: the incoming delta already is
        # d(loss)/d(logits); pass through.
        return delta

    def output_shape(self, input_shape: Shape) -> Shape:
        return input_shape

    def describe(self) -> str:
        return "softmax"


class CostLayer(Layer):
    """Cross-entropy cost layer.

    In the forward pass it is the identity (so a full-network forward yields
    class probabilities); loss and the initial backward delta come from
    :meth:`loss_and_delta`.
    """

    kind = "cost"

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        return x

    def backward(self, delta: np.ndarray) -> np.ndarray:
        return delta

    def output_shape(self, input_shape: Shape) -> Shape:
        return input_shape

    @staticmethod
    def loss_and_delta(probs: np.ndarray, labels: np.ndarray) -> Tuple[float, np.ndarray]:
        """Mean cross-entropy and d(loss)/d(logits) for integer labels, on
        the default kernels (:meth:`batch_loss` uses this layer's)."""
        _check_batch(probs, labels)
        return Layer.backend.softmax_cost(probs, labels)

    def batch_loss(self, probs: np.ndarray,
                   labels: np.ndarray) -> Tuple[float, np.ndarray]:
        """Backend-routed :meth:`loss_and_delta` (training hot path)."""
        _check_batch(probs, labels)
        return self.backend.softmax_cost(probs, labels)

    def describe(self) -> str:
        return "cost"


def _check_batch(probs: np.ndarray, labels: np.ndarray) -> None:
    if labels.shape[0] != probs.shape[0]:
        raise ShapeError("labels batch size does not match probabilities")
