"""The compute-backend interface for the NN hot paths.

Every tensor op that dominates training wall-clock — ``im2col``/``col2im``,
the batched GEMMs, fused bias+activation forward/backward, max-pool
forward/argmax-backward, and the fused softmax+cost — sits behind
:class:`ComputeBackend`. Layers delegate their ``forward``/``backward``
bodies here, so swapping the implementation (the verbatim ``reference``
numpy backend vs the buffer-pooled ``optimized`` backend) never changes a
call site: ``PartitionedNetwork``, ``ResilientTrainer``, and the
``repro.distributed`` workers all inherit whichever backend the network was
given.

Scratch memory is owned by a per-layer :class:`BufferPool` with one slot
per buffer *lifetime*: a slot is a flat byte buffer that any shape or dtype
fits into, so buffers that are never live at once (the forward's im2col
columns and the backward's, say) share one slot, and the steady-state
training loop reuses the same memory batch after batch instead of
reallocating it.
"""

from __future__ import annotations

import math
from typing import Dict, Optional, Tuple

import numpy as np

__all__ = [
    "BufferPool",
    "ComputeBackend",
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


class ComputeBackend:
    """Interface: the tensor ops behind every layer's forward/backward.

    Composed, layer-facing ops (``conv_forward`` .. ``softmax_cost``) are
    what the layers call; the finer-grained ops (``im2col``, ``col2im``,
    ``gemm``) are exposed so subclasses can share and tests can target them
    individually. Backends are stateless and shared process-wide — all
    mutable scratch lives in each layer's :class:`BufferPool`.
    """

    name = "abstract"

    # -- fine-grained ops ----------------------------------------------------

    def im2col(self, pool: BufferPool, x: np.ndarray, size: int, stride: int,
               pad: int) -> Tuple[np.ndarray, Tuple[int, int]]:
        """Unfold conv windows into a ``(n*oh*ow, k*k*c)`` matrix."""
        raise NotImplementedError

    def col2im(self, pool: BufferPool, dcols: np.ndarray, input_shape: Shape,
               oh: int, ow: int, size: int, stride: int,
               pad: int) -> np.ndarray:
        """Fold column gradients back onto the (padded) input grid."""
        raise NotImplementedError

    def gemm(self, a: np.ndarray, b: np.ndarray,
             out: Optional[np.ndarray] = None) -> np.ndarray:
        """Matrix multiply ``a @ b`` (optionally into ``out``)."""
        raise NotImplementedError

    # -- composed layer ops --------------------------------------------------

    def conv_forward(self, layer, x: np.ndarray, training: bool) -> np.ndarray:
        raise NotImplementedError

    def conv_backward(self, layer, delta: np.ndarray,
                      need_input_grad: bool = True) -> Optional[np.ndarray]:
        raise NotImplementedError

    def dense_forward(self, layer, x: np.ndarray, training: bool) -> np.ndarray:
        raise NotImplementedError

    def dense_backward(self, layer, delta: np.ndarray,
                       need_input_grad: bool = True) -> Optional[np.ndarray]:
        raise NotImplementedError

    def maxpool_forward(self, layer, x: np.ndarray, training: bool) -> np.ndarray:
        raise NotImplementedError

    def maxpool_backward(self, layer, delta: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def softmax(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def softmax_cost(self, probs: np.ndarray,
                     labels: np.ndarray) -> Tuple[float, np.ndarray]:
        """Fused cross-entropy loss and d(loss)/d(logits)."""
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.name!r}>"
