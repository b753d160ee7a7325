"""The network container: a layer stack with training support.

Supports running arbitrary *layer ranges* forward and backward, which is
what CalTrain's FrontNet/BackNet partitioning builds on, plus capturing
intermediate representations for the information-exposure assessment and
penultimate-layer fingerprints.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.errors import NetworkDefinitionError, ShapeError, TrainingError
from repro.nn.initializers import Initializer, gaussian_init
from repro.nn.layers.base import Layer, Shape
from repro.nn.layers.softmax import CostLayer, SoftmaxLayer

__all__ = ["Network"]


class Network:
    """A feedforward layer stack.

    Args:
        input_shape: Per-example input shape, e.g. ``(28, 28, 3)``.
        layers: The layer stack, in order.
        initializer: Parameter initializer; defaults to the paper's
            Gaussian (He-scaled) initialization.
    """

    def __init__(self, input_shape: Shape, layers: Sequence[Layer],
                 initializer: Optional[Initializer] = None,
                 rng: Optional[np.random.Generator] = None) -> None:
        if not layers:
            raise NetworkDefinitionError("a network needs at least one layer")
        self.input_shape = tuple(input_shape)
        self.layers: List[Layer] = list(layers)
        if initializer is None:
            initializer = gaussian_init(rng if rng is not None else np.random.default_rng(0))
        self._build(initializer)

    def _build(self, initializer: Initializer) -> None:
        shape = self.input_shape
        self._shapes: List[Shape] = []
        for layer in self.layers:
            if hasattr(layer, "build") and not layer.params():
                in_dim = shape[-1] if len(shape) == 3 else int(np.prod(shape))
                layer.build(in_dim, initializer)
            try:
                shape = layer.output_shape(shape)
            except Exception as exc:
                raise ShapeError(
                    f"layer {layer.describe()} cannot accept input shape {shape}"
                ) from exc
            self._shapes.append(shape)

    # -- introspection ---------------------------------------------------------

    def __len__(self) -> int:
        return len(self.layers)

    def layer_output_shapes(self) -> List[Shape]:
        """Per-example output shape after each layer."""
        return list(self._shapes)

    def layer_input_shape(self, index: int) -> Shape:
        """Per-example input shape of layer ``index``."""
        return self.input_shape if index == 0 else self._shapes[index - 1]

    @property
    def num_params(self) -> int:
        return sum(layer.num_params for layer in self.layers)

    def flops_per_layer(self) -> List[float]:
        """Per-example forward FLOPs of each layer."""
        return [
            layer.flops(self.layer_input_shape(i))
            for i, layer in enumerate(self.layers)
        ]

    def penultimate_index(self) -> int:
        """Index of the layer feeding the softmax (the fingerprint layer).

        The paper extracts fingerprints "out of the penultimate layer (the
        layer before the softmax layer)" — i.e. the class-logit embedding.
        """
        for i, layer in enumerate(self.layers):
            if isinstance(layer, SoftmaxLayer):
                if i == 0:
                    raise NetworkDefinitionError("softmax cannot be the first layer")
                return i - 1
        raise NetworkDefinitionError("network has no softmax layer")

    def cost_layer(self) -> CostLayer:
        for layer in reversed(self.layers):
            if isinstance(layer, CostLayer):
                return layer
        raise NetworkDefinitionError("network has no cost layer")

    # -- forward / backward -----------------------------------------------------

    def forward(self, x: np.ndarray, training: bool = False,
                start: int = 0, stop: Optional[int] = None) -> np.ndarray:
        """Run layers ``start..stop-1`` (default: the whole network)."""
        stop = len(self.layers) if stop is None else stop
        if not 0 <= start <= stop <= len(self.layers):
            raise TrainingError(f"invalid layer range [{start}, {stop})")
        out = x
        for layer in self.layers[start:stop]:
            out = layer.forward(out, training=training)
        return out

    def forward_collect(self, x: np.ndarray,
                        indices: Sequence[int]) -> Dict[int, np.ndarray]:
        """Inference forward pass that captures outputs of given layers."""
        wanted = set(indices)
        captured: Dict[int, np.ndarray] = {}
        out = x
        for i, layer in enumerate(self.layers):
            out = layer.forward(out, training=False)
            if i in wanted:
                captured[i] = out
        missing = wanted - set(captured)
        if missing:
            raise TrainingError(f"layer indices {sorted(missing)} out of range")
        return captured

    def backward(self, delta: np.ndarray, start: Optional[int] = None,
                 stop: int = 0,
                 need_input_grad: bool = True) -> Optional[np.ndarray]:
        """Backpropagate from below layer ``start`` down to layer ``stop``.

        ``delta`` is d(loss)/d(output of layer start-1). Returns
        d(loss)/d(input of layer stop). Requires a preceding
        ``forward(..., training=True)`` over the same range. With
        ``need_input_grad=False`` (and ``stop == 0``) the final layer may
        skip computing d(loss)/d(input) and ``None`` is returned — the
        parameter gradients are accumulated either way.
        """
        start = len(self.layers) if start is None else start
        if not 0 <= stop <= start <= len(self.layers):
            raise TrainingError(f"invalid backward range [{stop}, {start})")
        chain = list(reversed(self.layers[stop:start]))
        for i, layer in enumerate(chain):
            last = i == len(chain) - 1
            if (last and stop == 0 and not need_input_grad
                    and layer.supports_skip_input_grad):
                return layer.backward(delta, need_input_grad=False)
            delta = layer.backward(delta)
        return delta

    # -- training ----------------------------------------------------------------

    def train_batch(self, x: np.ndarray, labels: np.ndarray, optimizer) -> float:
        """One SGD step on a mini-batch; returns the batch loss."""
        probs = self.forward(x, training=True)
        loss, delta = self.cost_layer().batch_loss(probs, labels)
        self.backward(delta, need_input_grad=False)
        optimizer.step(self)
        self.zero_grads()
        return loss

    def zero_grads(self) -> None:
        for layer in self.layers:
            layer.zero_grads()

    def astype(self, dtype) -> "Network":
        """Cast every parameter and gradient buffer in place (e.g. to
        float64 for gradient checking); returns self."""
        for layer in self.layers:
            for attr, value in vars(layer).items():
                if isinstance(value, np.ndarray) and np.issubdtype(
                    value.dtype, np.floating
                ):
                    setattr(layer, attr, value.astype(dtype))
        return self

    def predict(self, x: np.ndarray, batch_size: int = 256) -> np.ndarray:
        """Class probabilities, evaluated in inference mode."""
        outputs = [
            self.forward(x[i : i + batch_size])
            for i in range(0, x.shape[0], batch_size)
        ]
        return np.concatenate(outputs, axis=0)

    def set_dropout_rng(self, generator: np.random.Generator) -> None:
        """Point every dropout layer at a given RNG (e.g. the trusted RNG)."""
        for layer in self.layers:
            if hasattr(layer, "rng") and hasattr(layer, "probability"):
                layer.rng = generator

    def freeze_layers(self, upto: int) -> None:
        """Freeze layers ``[0, upto)`` (the bottom-up convergence trick)."""
        for i, layer in enumerate(self.layers):
            layer.frozen = i < upto

    # -- weights I/O ---------------------------------------------------------------

    def get_weights(self) -> List[Dict[str, np.ndarray]]:
        """Per-layer parameter arrays, plus any non-learned layer state
        (e.g. batchnorm running statistics) under ``state/``-prefixed keys."""
        weights: List[Dict[str, np.ndarray]] = []
        for layer in self.layers:
            entry = {name: arr.copy() for name, arr in layer.params().items()}
            if hasattr(layer, "extra_state"):
                entry.update({
                    f"state/{name}": arr.copy()
                    for name, arr in layer.extra_state().items()
                })
            weights.append(entry)
        return weights

    def set_weights(self, weights: List[Dict[str, np.ndarray]]) -> None:
        if len(weights) != len(self.layers):
            raise NetworkDefinitionError("weight list does not match layer count")
        for layer, layer_weights in zip(self.layers, weights):
            params = layer.params()
            state = layer.extra_state() if hasattr(layer, "extra_state") else {}
            expected = set(params) | {f"state/{name}" for name in state}
            if expected != set(layer_weights):
                raise NetworkDefinitionError(
                    f"weight keys {sorted(layer_weights)} do not match layer "
                    f"{layer.describe()} keys {sorted(expected)}"
                )
            for name, arr in layer_weights.items():
                target = (
                    state[name[len("state/"):]] if name.startswith("state/")
                    else params[name]
                )
                if target.shape != arr.shape:
                    raise NetworkDefinitionError(
                        f"shape mismatch for {layer.describe()}.{name}"
                    )
                target[...] = arr

    def summary(self) -> str:
        """Darknet-style architecture table (used for Tables I and II)."""
        lines = [f"{'Layer':<14}{'Filter':>8}  {'Size':<10}{'Input':<14}{'Output':<14}"]
        shape = self.input_shape
        for i, layer in enumerate(self.layers):
            out = self._shapes[i]
            filters = getattr(layer, "filters", "")
            size = ""
            if hasattr(layer, "size") and hasattr(layer, "stride"):
                size = f"{layer.size}x{layer.size}/{layer.stride}"
            elif getattr(layer, "kind", "") == "dropout":
                size = f"p = {layer.probability:.2f}"
            fmt = lambda s: "x".join(str(d) for d in s) if isinstance(s, tuple) else str(s)
            lines.append(
                f"{i + 1:>2} {layer.kind:<11}{str(filters):>8}  {size:<10}"
                f"{fmt(shape):<14}{fmt(out):<14}"
            )
            shape = out
        return "\n".join(lines)
