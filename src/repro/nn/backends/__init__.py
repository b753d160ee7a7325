"""The NN kernels behind every layer's forward/backward.

One implementation ships, :class:`OptimizedBackend` (buffer-pooled and
fused), and every layer reaches its one shared instance through the
``Layer.backend`` class attribute. All per-layer scratch lives in each
layer's :class:`~repro.nn.backends.base.BufferPool`.
"""

from repro.nn.backends.base import (
    BufferPool,
    maxpool_backward_loop,
    maxpool_scatter,
)
from repro.nn.backends.optimized import OptimizedBackend

__all__ = [
    "BufferPool",
    "OptimizedBackend",
    "maxpool_backward_loop",
    "maxpool_scatter",
]
