"""One-file model persistence: architecture config + weights together.

``save_model`` bundles the Darknet-style config text and the weight arrays
(including non-learned state such as batchnorm running statistics) into a
single ``.npz``; ``load_model`` rebuilds the network and restores weights.
An integrity digest over both halves detects corrupted or spliced files.
"""

from __future__ import annotations

import io
import os
from typing import Union

import numpy as np

from repro.errors import NetworkDefinitionError
from repro.nn.config import network_from_config, network_to_config
from repro.nn.network import Network
from repro.utils.fileio import atomic_write_bytes
from repro.utils.serialization import canonical_digest

__all__ = ["save_model", "load_model", "model_to_bytes", "model_from_bytes"]

_FORMAT_VERSION = 1


def model_to_bytes(network: Network) -> bytes:
    """Serialize a network (architecture + weights + state) to bytes."""
    config_text = network_to_config(network)
    weights_blob = network.weights_to_bytes()
    digest = canonical_digest(config_text, weights_blob)
    buffer = io.BytesIO()
    np.savez(
        buffer,
        format_version=np.array(_FORMAT_VERSION),
        config=np.frombuffer(config_text.encode("utf-8"), dtype=np.uint8),
        weights=np.frombuffer(weights_blob, dtype=np.uint8),
        digest=np.frombuffer(digest, dtype=np.uint8),
    )
    return buffer.getvalue()


def model_from_bytes(blob: bytes,
                     rng: Union[np.random.Generator, None] = None) -> Network:
    """Rebuild a network from :func:`model_to_bytes` output."""
    with np.load(io.BytesIO(blob)) as data:
        version = int(data["format_version"])
        if version != _FORMAT_VERSION:
            raise NetworkDefinitionError(
                f"unsupported model format version {version}"
            )
        config_text = bytes(data["config"]).decode("utf-8")
        weights_blob = bytes(data["weights"])
        digest = bytes(data["digest"])
    if canonical_digest(config_text, weights_blob) != digest:
        raise NetworkDefinitionError("model file failed its integrity check")
    network = network_from_config(
        config_text, rng=rng if rng is not None else np.random.default_rng(0)
    )
    network.weights_from_bytes(weights_blob)
    return network


def save_model(network: Network, path: Union[str, os.PathLike]) -> None:
    """Write a network to ``path`` (conventionally ``*.caltrain.npz``).

    The write is atomic (temp file + fsync + rename): a crash mid-save
    leaves either the previous model file or the new one, never a torn
    file that fails its integrity check on load.
    """
    atomic_write_bytes(path, model_to_bytes(network))


def load_model(path: Union[str, os.PathLike]) -> Network:
    """Load a network saved by :func:`save_model`."""
    with open(path, "rb") as handle:
        return model_from_bytes(handle.read())
