"""Layer interface.

A layer transforms a batch tensor in :meth:`forward`, caches what it needs,
and maps the loss gradient with respect to its output back to its input in
:meth:`backward`, accumulating parameter gradients on the way. Shape and
cost introspection (:meth:`output_shape`, :meth:`flops`, byte accounting)
support the partitioning machinery and the enclave cost model.
"""

from __future__ import annotations

from typing import Dict, Tuple

import numpy as np

from repro.errors import TrainingError
from repro.nn.backends.base import BufferPool
from repro.nn.backends.optimized import OptimizedBackend

__all__ = ["Layer"]

Shape = Tuple[int, ...]


class Layer:
    """Base class for all layers."""

    #: Darknet-style type tag used by the config parser and the zoo tables.
    kind = "layer"

    #: True for layers whose backward can skip computing d(loss)/d(input)
    #: when nothing upstream consumes it (the first trainable layer of a
    #: ``train_batch`` sweep).
    supports_skip_input_grad = False

    #: The kernels behind ``forward``/``backward``: one stateless instance
    #: shared by every layer.
    backend = OptimizedBackend()

    def __init__(self) -> None:
        self.frozen = False
        self._cache: dict = {}
        self._pool = BufferPool()

    # -- compute ------------------------------------------------------------

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        """Transform a batch; cache intermediates when ``training``."""
        raise NotImplementedError

    def backward(self, delta: np.ndarray) -> np.ndarray:
        """Map d(loss)/d(output) to d(loss)/d(input); accumulate grads."""
        raise NotImplementedError

    # -- parameters ----------------------------------------------------------

    def params(self) -> Dict[str, np.ndarray]:
        """Learnable parameter arrays by name (empty for stateless layers)."""
        return {}

    def grads(self) -> Dict[str, np.ndarray]:
        """Accumulated gradient arrays, keyed like :meth:`params`."""
        return {}

    def zero_grads(self) -> None:
        for grad in self.grads().values():
            grad[...] = 0.0

    @property
    def num_params(self) -> int:
        return sum(p.size for p in self.params().values())

    # -- introspection ---------------------------------------------------------

    def output_shape(self, input_shape: Shape) -> Shape:
        """Per-example output shape given a per-example input shape."""
        raise NotImplementedError

    def flops(self, input_shape: Shape) -> float:
        """Per-example forward FLOPs. Backward is modelled as 2x forward."""
        return 0.0

    def param_bytes(self) -> int:
        return sum(p.nbytes for p in self.params().values())

    def activation_bytes(self, input_shape: Shape, batch_size: int) -> int:
        """Bytes of activation the layer produces for one batch (float32)."""
        out_elems = int(np.prod(self.output_shape(input_shape)))
        return 4 * out_elems * batch_size

    # -- helpers ----------------------------------------------------------------

    def _pop_cache(self, key: str) -> np.ndarray:
        if key not in self._cache:
            raise TrainingError(
                f"{type(self).__name__}.backward called without a matching "
                "training-mode forward"
            )
        return self._cache.pop(key)

    def describe(self) -> str:
        """One-line human-readable description (used by Table I/II renders)."""
        return self.kind

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}()"
