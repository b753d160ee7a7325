"""Numerical gradient checking: the backpropagation oracle for the tests."""

from __future__ import annotations

from typing import Dict, Tuple

import numpy as np

from repro.nn.network import Network

__all__ = ["check_gradients", "max_relative_error"]


def _network_loss(network: Network, x: np.ndarray, labels: np.ndarray) -> float:
    # training=True so the loss is evaluated through the same function the
    # analytic gradients differentiate (batchnorm uses batch statistics in
    # training mode; dropout must be disabled for the check regardless).
    probs = network.forward(x, training=True)
    n = probs.shape[0]
    return float(-np.log(probs[np.arange(n), labels] + 1e-12).mean())


def max_relative_error(analytic: np.ndarray, numeric: np.ndarray) -> float:
    """Elementwise max of |a - n| / max(|a|, |n|, 1e-8)."""
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-8)
    return float(np.max(np.abs(analytic - numeric) / denom))


def check_gradients(network: Network, x: np.ndarray, labels: np.ndarray,
                    epsilon: float = 1e-4, samples_per_param: int = 8,
                    rng: np.random.Generator = None) -> Dict[Tuple[int, str], float]:
    """Compare analytic gradients with central differences.

    Dropout layers must be disabled (p = 0) for the check to be meaningful,
    since the forward pass must be deterministic.

    Returns:
        Max relative error per (layer index, parameter name), over a random
        sample of ``samples_per_param`` coordinates of each parameter.
    """
    rng = rng if rng is not None else np.random.default_rng(0)
    x = x.astype(np.float64, copy=True)
    network.astype(np.float64)

    # Analytic gradients.
    network.zero_grads()
    probs = network.forward(x, training=True)
    _, delta = network.cost_layer().loss_and_delta(probs, labels)
    network.backward(delta)

    errors: Dict[Tuple[int, str], float] = {}
    for li, layer in enumerate(network.layers):
        params, grads = layer.params(), layer.grads()
        for name, param in params.items():
            analytic = grads[name]
            flat = param.reshape(-1)
            count = min(samples_per_param, flat.size)
            coords = rng.choice(flat.size, size=count, replace=False)
            analytic_samples = np.empty(count)
            numeric_samples = np.empty(count)
            for k, idx in enumerate(coords):
                original = flat[idx]
                flat[idx] = original + epsilon
                loss_plus = _network_loss(network, x, labels)
                flat[idx] = original - epsilon
                loss_minus = _network_loss(network, x, labels)
                flat[idx] = original
                numeric_samples[k] = (loss_plus - loss_minus) / (2 * epsilon)
                analytic_samples[k] = analytic.reshape(-1)[idx]
            errors[(li, name)] = max_relative_error(analytic_samples, numeric_samples)
    network.zero_grads()
    return errors
