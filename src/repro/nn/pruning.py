"""Magnitude pruning (Han et al.), the compression alternative.

The paper's related work weighs two ways to fit models into enclaves:
*model compression* (pruning pre-trained networks — only usable for
inference, since compression needs a trained model) and *model
partitioning* (CalTrain's choice, which works for training). This module
implements magnitude pruning so the ablation bench can measure that
trade-off directly: a pruned model shrinks its in-enclave footprint but
cannot have been trained inside the enclave to begin with.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

import numpy as np

from repro.errors import ConfigurationError
from repro.nn.network import Network

__all__ = ["PruningResult", "prune_by_magnitude", "apply_masks", "sparsity"]


@dataclass
class PruningResult:
    """Masks plus bookkeeping from one pruning pass."""

    masks: List[Dict[str, np.ndarray]]
    kept_fraction: float
    #: Parameter bytes if a sparse representation stored only survivors
    #: (4 bytes value + 4 bytes index per kept weight).
    sparse_bytes: int


def prune_by_magnitude(network: Network, keep_fraction: float,
                       prune_biases: bool = False) -> PruningResult:
    """Zero out the smallest-magnitude weights globally.

    Args:
        keep_fraction: Fraction of weight coordinates to keep, over all
            prunable tensors together (global threshold, as in Han et al.).
        prune_biases: Biases are tiny and usually kept; True prunes them too.
    """
    if not 0.0 < keep_fraction <= 1.0:
        raise ConfigurationError("keep_fraction must be in (0, 1]")

    def prunable(name: str) -> bool:
        return prune_biases or name not in ("bias", "beta")

    magnitudes = [
        np.abs(arr).ravel()
        for layer in network.layers
        for name, arr in layer.params().items()
        if prunable(name)
    ]
    if not magnitudes:
        raise ConfigurationError("network has no prunable parameters")
    flat = np.concatenate(magnitudes)
    keep = max(1, int(round(keep_fraction * flat.size)))
    threshold = np.partition(flat, -keep)[-keep]

    masks: List[Dict[str, np.ndarray]] = []
    kept = 0
    total = 0
    for layer in network.layers:
        layer_masks: Dict[str, np.ndarray] = {}
        for name, arr in layer.params().items():
            if prunable(name):
                mask = (np.abs(arr) >= threshold)
                arr *= mask
            else:
                mask = np.ones_like(arr, dtype=bool)
            layer_masks[name] = mask
            kept += int(mask.sum())
            total += mask.size
        masks.append(layer_masks)
    return PruningResult(
        masks=masks,
        kept_fraction=kept / total,
        sparse_bytes=8 * kept,
    )


def apply_masks(network: Network, masks: List[Dict[str, np.ndarray]]) -> None:
    """Re-zero masked weights (after fine-tuning updates revived them)."""
    if len(masks) != len(network.layers):
        raise ConfigurationError("mask list does not match layer count")
    for layer, layer_masks in zip(network.layers, masks):
        for name, arr in layer.params().items():
            if name in layer_masks:
                arr *= layer_masks[name]


def sparsity(network: Network) -> float:
    """Fraction of exactly-zero parameters across the network."""
    zero = 0
    total = 0
    for layer in network.layers:
        for arr in layer.params().values():
            zero += int(np.sum(arr == 0.0))
            total += arr.size
    return zero / total if total else 0.0
