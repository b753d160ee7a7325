"""Optimizers: SGD with momentum (the paper's) and per-example DP-SGD.

DP-SGD is the paper's sketched privacy extension (Section VII): CalTrain is
"transparent to training algorithms" and can "seamlessly replace the
standard SGD with Differential Private SGD".
"""

from __future__ import annotations

import copy
from typing import Any, Dict, Optional, Tuple

import numpy as np

from repro.errors import ConfigurationError

__all__ = ["Optimizer", "Sgd", "PerExampleDpSgd"]


def _buffers_out(buffers: Dict[Tuple[int, str], np.ndarray]) -> Dict[str, np.ndarray]:
    """Flatten ``(layer, param)``-keyed buffers to string keys for I/O."""
    return {f"{i}/{name}": arr.copy() for (i, name), arr in buffers.items()}


def _buffers_in(flat: Dict[str, np.ndarray]) -> Dict[Tuple[int, str], np.ndarray]:
    """Inverse of :func:`_buffers_out`."""
    buffers: Dict[Tuple[int, str], np.ndarray] = {}
    for key, arr in flat.items():
        layer, name = key.split("/", 1)
        buffers[(int(layer), name)] = np.array(arr, copy=True)
    return buffers


class Optimizer:
    """Interface: apply accumulated gradients to a network's parameters.

    Concrete steps run *in place*: parameter updates are decomposed into
    the exact elementwise operations (same order, same dtypes) the original
    expression-form updates performed, but writing into per-parameter
    scratch buffers instead of fresh temporaries — bitwise-identical
    results with zero steady-state allocation. Scratch never appears in
    :meth:`state_dict`.
    """

    def __init__(self) -> None:
        self._scratch: Dict[Tuple[Tuple[int, str], int], np.ndarray] = {}

    def _work(self, key: Tuple[int, str], slot: int, shape: Tuple[int, ...],
              dtype) -> np.ndarray:
        buf = self._scratch.get((key, slot))
        if buf is None or buf.shape != shape or buf.dtype != dtype:
            buf = np.empty(shape, dtype=dtype)
            self._scratch[(key, slot)] = buf
        return buf

    def step(self, network) -> None:
        raise NotImplementedError

    def state_dict(self) -> Dict[str, Any]:
        """Checkpointable internal state (moment buffers, step counters).

        Hyperparameters are *not* included — they belong to the run
        configuration, not the accumulated training state. A stateless
        optimizer returns ``{}``.
        """
        return {}

    def load_state_dict(self, state: Dict[str, Any]) -> None:
        """Restore state captured by :meth:`state_dict` (exact resume)."""
        if state:
            raise ConfigurationError(
                f"{type(self).__name__} carries no state but got keys "
                f"{sorted(state)}"
            )

    def _iter_params(self, network):
        for i, layer in enumerate(network.layers):
            if layer.frozen:
                continue
            params, grads = layer.params(), layer.grads()
            for name in params:
                yield (i, name), params[name], grads[name]


class Sgd(Optimizer):
    """Mini-batch SGD with momentum and L2 weight decay (Darknet's default)."""

    def __init__(self, learning_rate: float = 0.01, momentum: float = 0.9,
                 weight_decay: float = 0.0,
                 max_grad_norm: Optional[float] = 5.0) -> None:
        super().__init__()
        if learning_rate <= 0:
            raise ConfigurationError("learning rate must be positive")
        if not 0.0 <= momentum < 1.0:
            raise ConfigurationError("momentum must be in [0, 1)")
        self.learning_rate = learning_rate
        self.momentum = momentum
        self.weight_decay = weight_decay
        self.max_grad_norm = max_grad_norm
        self._velocity: Dict[Tuple[int, str], np.ndarray] = {}

    def state_dict(self) -> Dict[str, Any]:
        return {"velocity": _buffers_out(self._velocity)}

    def load_state_dict(self, state: Dict[str, Any]) -> None:
        self._velocity = _buffers_in(state.get("velocity", {}))

    def _clip_scale(self, network) -> float:
        if self.max_grad_norm is None:
            return 1.0
        total_sq = sum(
            float(np.sum(g * g)) for _, _, g in self._iter_params(network)
        )
        norm = np.sqrt(total_sq)
        if norm <= self.max_grad_norm:
            return 1.0
        return self.max_grad_norm / (norm + 1e-12)

    def step(self, network) -> None:
        clip = self._clip_scale(network)
        for key, param, grad in self._iter_params(network):
            update = grad
            if clip != 1.0:
                # ``clip`` is an np.float64 scalar, so the original
                # expression promoted the update chain to float64; scratch
                # must follow the same promotion to stay bitwise-equal.
                dt = np.result_type(grad.dtype, np.float64)
                scaled = self._work(key, 0, grad.shape, dt)
                np.multiply(grad, clip, out=scaled)
                update = scaled
            if self.weight_decay and key[1] != "bias":
                decay = self._work(key, 1, param.shape, param.dtype)
                np.multiply(param, self.weight_decay, out=decay)
                dt = np.result_type(update.dtype, decay.dtype)
                summed = self._work(key, 0, update.shape, dt)
                np.add(update, decay, out=summed)
                update = summed
            stepbuf = self._work(key, 2, update.shape, update.dtype)
            np.multiply(update, self.learning_rate, out=stepbuf)
            if self.momentum:
                velocity = self._velocity.setdefault(key, np.zeros_like(param))
                velocity *= self.momentum
                velocity -= stepbuf
                param += velocity
            else:
                param -= stepbuf


class PerExampleDpSgd:
    """Faithful DP-SGD (Abadi et al.): per-example gradient clipping.

    Clips each example's gradient to ``clip_norm`` *individually* before
    averaging and noising — the construction the (epsilon, delta) analysis
    and the membership-inference protection actually depend on. It owns the
    whole training step (per-example backward passes), so it exposes
    :meth:`train_batch` instead of the ``Optimizer.step`` interface.
    """

    def __init__(self, learning_rate: float = 0.01, momentum: float = 0.9,
                 clip_norm: float = 1.0, noise_multiplier: float = 1.0,
                 rng: Optional[np.random.Generator] = None) -> None:
        if clip_norm <= 0:
            raise ConfigurationError("clip_norm must be positive")
        if noise_multiplier < 0:
            raise ConfigurationError("noise_multiplier must be non-negative")
        self.clip_norm = clip_norm
        self.noise_multiplier = noise_multiplier
        self.rng = rng if rng is not None else np.random.default_rng(0)
        self._sgd = Sgd(learning_rate=learning_rate, momentum=momentum,
                        max_grad_norm=None)

    @property
    def learning_rate(self) -> float:
        return self._sgd.learning_rate

    @learning_rate.setter
    def learning_rate(self, value: float) -> None:
        self._sgd.learning_rate = value

    def state_dict(self) -> Dict[str, Any]:
        state = self._sgd.state_dict()
        state["rng"] = copy.deepcopy(self.rng.bit_generator.state)
        return state

    def load_state_dict(self, state: Dict[str, Any]) -> None:
        state = dict(state)
        rng_state = state.pop("rng", None)
        self._sgd.load_state_dict(state)
        if rng_state is not None:
            self.rng.bit_generator.state = copy.deepcopy(rng_state)

    def train_batch(self, model, x: np.ndarray, labels: np.ndarray) -> float:
        """One DP-SGD step over a mini-batch; returns the mean loss.

        ``model`` is anything with ``forward``/``backward``/``network``
        semantics — a :class:`repro.nn.network.Network` or a
        :class:`repro.core.partition.PartitionedNetwork`.
        """
        network = getattr(model, "network", model)
        batch = x.shape[0]
        accumulated = None
        losses = []
        for i in range(batch):
            network.zero_grads()
            probs = model.forward(x[i : i + 1], training=True)
            loss, delta = network.cost_layer().loss_and_delta(
                probs, labels[i : i + 1]
            )
            losses.append(loss)
            model.backward(delta)
            grads = [
                (layer_idx, name, grad)
                for layer_idx, layer in enumerate(network.layers)
                if not layer.frozen
                for name, grad in layer.grads().items()
            ]
            norm = np.sqrt(sum(float(np.sum(g * g)) for _, _, g in grads))
            scale = min(1.0, self.clip_norm / (norm + 1e-12))
            if accumulated is None:
                accumulated = {
                    (layer_idx, name): grad * scale
                    for layer_idx, name, grad in grads
                }
            else:
                for layer_idx, name, grad in grads:
                    accumulated[(layer_idx, name)] += grad * scale
        network.zero_grads()
        noise_std = self.noise_multiplier * self.clip_norm
        for (layer_idx, name), total in accumulated.items():
            grad = network.layers[layer_idx].grads()[name]
            grad[...] = total / batch
            if noise_std:
                grad += self.rng.normal(
                    0.0, noise_std / batch, size=grad.shape
                ).astype(grad.dtype)
        self._sgd.step(network)
        network.zero_grads()
        return float(np.mean(losses))
