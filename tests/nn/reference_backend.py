"""The reference kernels: the original numpy layer bodies, verbatim.

This is the implementation the layers carried before their kernels were
optimised, kept as the parity oracle for
:class:`~repro.nn.backends.optimized.OptimizedBackend`: integer/argmax
paths must match it bitwise, float paths within tolerance. The only
deliberate deviation is :meth:`maxpool_backward`, which routes through the
vectorised :func:`~repro.nn.backends.base.maxpool_scatter` (itself
regression-tested bitwise against the original k x k loop). Slow on
purpose; tests only.

Layers reach their kernels through the ``Layer.backend`` class attribute.
:func:`use_reference` installs the oracle from outside by shadowing that
attribute on each layer of a network, residual blocks' inner layers
included.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from repro.nn.backends.base import BufferPool, Shape, maxpool_scatter
from repro.nn.layers.activations import activation_gradient, apply_activation

__all__ = ["ReferenceBackend", "use_reference"]


class ReferenceBackend:
    """Plain numpy ops: fresh allocations per call, no fusion."""

    name = "reference"

    # -- fine-grained ops ----------------------------------------------------

    def im2col(self, pool: BufferPool, x: np.ndarray, size: int, stride: int,
               pad: int) -> Tuple[np.ndarray, Tuple[int, int]]:
        if pad:
            x = np.pad(x, ((0, 0), (pad, pad), (pad, pad), (0, 0)))
        # (N, H', W', C, kh, kw) -> strided -> (N, oh, ow, kh, kw, C)
        windows = sliding_window_view(x, (size, size), axis=(1, 2))
        windows = windows[:, ::stride, ::stride]
        windows = windows.transpose(0, 1, 2, 4, 5, 3)
        n, oh, ow = windows.shape[:3]
        cols = windows.reshape(n * oh * ow, -1)
        return np.ascontiguousarray(cols), (oh, ow)

    def col2im(self, pool: BufferPool, dcols: np.ndarray, input_shape: Shape,
               oh: int, ow: int, size: int, stride: int,
               pad: int) -> np.ndarray:
        n, h, w, c = input_shape
        p, k, s = pad, size, stride
        dxp = np.zeros((n, h + 2 * p, w + 2 * p, c), dtype=dcols.dtype)
        dcols = dcols.reshape(n, oh, ow, k, k, c)
        for i in range(k):
            for j in range(k):
                dxp[:, i : i + oh * s : s, j : j + ow * s : s, :] += dcols[:, :, :, i, j, :]
        if p:
            return dxp[:, p : p + h, p : p + w, :]
        return dxp

    def gemm(self, a: np.ndarray, b: np.ndarray,
             out: Optional[np.ndarray] = None) -> np.ndarray:
        if out is None:
            return a @ b
        np.matmul(a, b, out=out)
        return out

    # -- conv ----------------------------------------------------------------

    def conv_forward(self, layer, x: np.ndarray, training: bool) -> np.ndarray:
        n = x.shape[0]
        cols, (oh, ow) = self.im2col(
            layer._pool, x, layer.size, layer.stride, layer._pad_amount()
        )
        w_mat = layer.weights.reshape(-1, layer.filters)
        z = (cols @ w_mat + layer.bias).reshape(n, oh, ow, layer.filters)
        if training:
            layer._cache["cols"] = cols
            layer._cache["z"] = z
            layer._cache["input_shape"] = x.shape
        return apply_activation(layer.activation, z)

    def conv_backward(self, layer, delta: np.ndarray,
                      need_input_grad: bool = True) -> Optional[np.ndarray]:
        cols = layer._pop_cache("cols")
        z = layer._pop_cache("z")
        input_shape = layer._cache.pop("input_shape")
        n, oh, ow, _ = delta.shape
        dz = activation_gradient(layer.activation, z, delta)
        dz_flat = dz.reshape(n * oh * ow, layer.filters)
        if not layer.frozen:
            layer._grad_w += (cols.T @ dz_flat).reshape(layer.weights.shape)
            layer._grad_b += dz_flat.sum(axis=0)
        dcols = dz_flat @ layer.weights.reshape(-1, layer.filters).T
        return self.col2im(
            layer._pool, dcols, input_shape, oh, ow,
            layer.size, layer.stride, layer._pad_amount(),
        )

    # -- dense ---------------------------------------------------------------

    def dense_forward(self, layer, x: np.ndarray, training: bool) -> np.ndarray:
        z = x @ layer.weights + layer.bias
        if training:
            layer._cache["x"] = x
            layer._cache["z"] = z
        return apply_activation(layer.activation, z)

    def dense_backward(self, layer, delta: np.ndarray,
                       need_input_grad: bool = True) -> Optional[np.ndarray]:
        x = layer._pop_cache("x")
        z = layer._cache.pop("z")
        dz = activation_gradient(layer.activation, z, delta)
        if not layer.frozen:
            layer._grad_w += x.T @ dz
            layer._grad_b += dz.sum(axis=0)
        return dz @ layer.weights.T

    # -- pooling -------------------------------------------------------------

    def maxpool_forward(self, layer, x: np.ndarray, training: bool) -> np.ndarray:
        windows = sliding_window_view(x, (layer.size, layer.size), axis=(1, 2))
        windows = windows[:, :: layer.stride, :: layer.stride]
        # windows: (N, oh, ow, C, kh, kw)
        n, oh, ow, c = windows.shape[:4]
        flat = windows.reshape(n, oh, ow, c, layer.size * layer.size)
        argmax = flat.argmax(axis=-1)
        out = np.take_along_axis(flat, argmax[..., None], axis=-1)[..., 0]
        if training:
            layer._cache["argmax"] = argmax
            layer._cache["input_shape"] = x.shape
        return np.ascontiguousarray(out)

    def maxpool_backward(self, layer, delta: np.ndarray) -> np.ndarray:
        argmax = layer._pop_cache("argmax")
        input_shape = layer._cache.pop("input_shape")
        return maxpool_scatter(delta, argmax, input_shape, layer.size,
                               layer.stride)

    # -- softmax / cost ------------------------------------------------------

    def softmax(self, x: np.ndarray) -> np.ndarray:
        shifted = x - x.max(axis=-1, keepdims=True)
        exp = np.exp(shifted)
        return exp / exp.sum(axis=-1, keepdims=True)

    def softmax_cost(self, probs: np.ndarray,
                     labels: np.ndarray) -> Tuple[float, np.ndarray]:
        n = probs.shape[0]
        eps = 1e-12
        loss = -np.log(probs[np.arange(n), labels] + eps).mean()
        delta = probs.copy()
        delta[np.arange(n), labels] -= 1.0
        return float(loss), delta / n


REFERENCE = ReferenceBackend()


def use_reference(target):
    """Run ``target`` (a network or one layer) on the oracle kernels.

    Sets ``backend`` on every layer, walking residual blocks' inner
    stacks, and returns ``target``.
    """
    stack = list(getattr(target, "layers", [target]))
    while stack:
        layer = stack.pop()
        layer.backend = REFERENCE
        stack.extend(getattr(layer, "inner", ()))
    return target
