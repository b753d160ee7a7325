"""Shared pieces of the NN kernels: the scratch pool and the pool scatter.

Scratch memory is owned by a per-layer :class:`BufferPool` with one slot
per buffer *lifetime*: a slot is a flat byte buffer that any shape or dtype
fits into, so buffers that are never live at once (the forward's im2col
columns and the backward's, say) share one slot, and the steady-state
training loop reuses the same memory batch after batch instead of
reallocating it.
"""

from __future__ import annotations

import math
from typing import Dict, Tuple

import numpy as np

__all__ = [
    "BufferPool",
    "maxpool_scatter",
    "maxpool_backward_loop",
]

Shape = Tuple[int, ...]


class BufferPool:
    """Named reusable scratch slots for one layer.

    A ``get`` slot is a flat byte buffer: every call returns a C-contiguous
    view of its prefix in the requested shape and dtype, and the slot grows
    only when a request needs more bytes than it holds. So a smaller final
    batch, a float64 gradient check, or a second role whose lifetime does
    not overlap the first all reuse one allocation, and the pool settles at
    the largest request each slot has seen. ``zeros_on_alloc`` rings keep
    an exact shape and dtype instead (their zero halo is a function of the
    shape). Buffers are *scratch*: callers must never return them as layer
    outputs, which stay freshly allocated so collected activations cannot
    alias.
    """

    __slots__ = ("_buffers",)

    def __init__(self) -> None:
        self._buffers: Dict[str, np.ndarray] = {}

    def get(self, name: str, shape: Shape, dtype) -> np.ndarray:
        """An uninitialised buffer (contents are stale; caller overwrites)."""
        dtype = np.dtype(dtype)
        size = math.prod(shape) * dtype.itemsize
        buf = self._buffers.get(name)
        if buf is None or buf.nbytes < size:
            buf = np.empty(size, dtype=np.uint8)
            self._buffers[name] = buf
        return buf[:size].view(dtype).reshape(shape)

    def zeros(self, name: str, shape: Shape, dtype) -> np.ndarray:
        """A buffer zero-filled on *every* call (accumulation targets)."""
        buf = self.get(name, shape, dtype)
        buf.fill(0)
        return buf

    def zeros_on_alloc(self, name: str, shape: Shape, dtype) -> np.ndarray:
        """An exact-shape buffer zeroed only when (re)allocated.

        For padded rings whose interior is overwritten every call while the
        halo must stay zero: the zero edges survive across calls because no
        op ever writes them. A view of a larger slot would put stale interior
        bytes where this shape's halo lies, so a changed shape reallocates.
        """
        buf = self._buffers.get(name)
        if buf is None or buf.shape != shape or buf.dtype != dtype:
            buf = np.zeros(shape, dtype=dtype)
            self._buffers[name] = buf
        return buf

    def clear(self) -> None:
        self._buffers.clear()

    def nbytes(self) -> int:
        """Total bytes currently pooled (telemetry/debugging)."""
        return sum(buf.nbytes for buf in self._buffers.values())


def maxpool_backward_loop(delta: np.ndarray, argmax: np.ndarray,
                          input_shape: Shape, size: int,
                          stride: int) -> np.ndarray:
    """The legacy k x k python scatter loop (pre-vectorization semantics).

    Kept as the bitwise oracle for :func:`maxpool_scatter`'s regression
    tests; not used on any hot path.
    """
    n, h, w, c = input_shape
    oh, ow = delta.shape[1:3]
    dx = np.zeros((n, h, w, c), dtype=delta.dtype)
    k, s = size, stride
    for i in range(k):
        for j in range(k):
            mask = argmax == i * k + j
            dx[:, i : i + oh * s : s, j : j + ow * s : s, :] += delta * mask
    return dx


def maxpool_scatter(delta: np.ndarray, argmax: np.ndarray, input_shape: Shape,
                    size: int, stride: int) -> np.ndarray:
    """Route ``delta`` back to the argmax positions of a max-pool.

    For the common non-overlapping case (``stride >= size``) every pooling
    window owns a disjoint input region, so window position ``(i, j)`` owns
    the strided view ``dx[:, i::stride, j::stride, :]`` and the k x k mask
    loop collapses to one bit-select per position: ``delta``'s bits where
    ``argmax`` names that position, +0.0 elsewhere. Each target cell
    receives exactly one contribution, and it is *selected*, not
    multiplied, so a routed -0.0 stays -0.0 and an unrouted inf leaves +0.0
    (the loop's ``delta * mask`` gives +0.0 and NaN there; for finite
    deltas the two are equal). Overlapping windows (``stride < size``) can
    accumulate several contributions per cell and therefore keep the loop's
    exact accumulation order. ``argmax`` may be any integer dtype.
    """
    n, h, w, c = input_shape
    oh, ow = delta.shape[1:3]
    if stride < size:
        return maxpool_backward_loop(delta, argmax, input_shape, size, stride)
    # Cells no window covers (a non-dividing edge, the gaps stride > size
    # leaves) must read +0.0; windows that tile the input write every cell.
    tiled = stride == size and oh * stride == h and ow * stride == w
    dx = (np.empty if tiled else np.zeros)((n, h, w, c), dtype=delta.dtype)
    uint = f"u{delta.dtype.itemsize}"
    delta_bits, dx_bits = delta.view(uint), dx.view(uint)
    select = np.empty(delta.shape, dtype=uint)
    for i in range(size):
        for j in range(size):
            np.equal(argmax, i * size + j, out=select)
            np.negative(select, out=select)  # 1 -> all ones
            np.bitwise_and(
                delta_bits, select,
                out=dx_bits[:, i : i + oh * stride : stride,
                            j : j + ow * stride : stride, :],
            )
    return dx
