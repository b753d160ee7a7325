"""Darknet-style ``.cfg`` architecture files.

The paper's prototype is built on Darknet, which defines networks in INI-ish
config files. This module round-trips a subset covering every layer type in
Tables I and II (plus dense/flatten for the face model)::

    [net]
    input = 28,28,3

    [conv]
    filters = 128
    size = 3
    stride = 1
    activation = leaky

    [max]
    size = 2
    stride = 2

    [dropout]
    probability = 0.5

    [avg]
    [softmax]
    [cost]

The resulting architecture is also what participants validate via remote
attestation before provisioning keys: the config text is measured into the
training enclave (Section III "Consensus and Cooperation").
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.errors import NetworkDefinitionError
from repro.nn.initializers import Initializer
from repro.nn.layers import (
    AvgPoolLayer,
    BatchNormLayer,
    ConvLayer,
    CostLayer,
    DenseLayer,
    DropoutLayer,
    FlattenLayer,
    Layer,
    MaxPoolLayer,
    SoftmaxLayer,
)
from repro.nn.network import Network

__all__ = ["parse_config", "network_from_config", "network_to_config"]

Section = Tuple[str, Dict[str, str]]


def parse_config(text: str) -> List[Section]:
    """Parse config text into an ordered list of (section, options)."""
    sections: List[Section] = []
    current: Optional[Dict[str, str]] = None
    for raw_line in text.splitlines():
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            current = {}
            sections.append((line[1:-1].strip().lower(), current))
        else:
            if current is None:
                raise NetworkDefinitionError(
                    f"option {line!r} appears before any section"
                )
            if "=" not in line:
                raise NetworkDefinitionError(f"malformed option line {line!r}")
            key, value = (part.strip() for part in line.split("=", 1))
            current[key.lower()] = value
    if not sections:
        raise NetworkDefinitionError("empty network config")
    return sections


def _layer_from_section(name: str, options: Dict[str, str]) -> Layer:
    if name in ("conv", "convolutional"):
        return ConvLayer(
            filters=int(options["filters"]),
            size=int(options.get("size", 3)),
            stride=int(options.get("stride", 1)),
            activation=options.get("activation", "leaky"),
            pad=options.get("pad", "same"),
        )
    if name in ("max", "maxpool"):
        return MaxPoolLayer(
            size=int(options.get("size", 2)), stride=int(options.get("stride", 2))
        )
    if name in ("avg", "avgpool"):
        return AvgPoolLayer()
    if name == "dropout":
        return DropoutLayer(probability=float(options.get("probability", 0.5)))
    if name in ("dense", "connected"):
        return DenseLayer(
            units=int(options["units" if "units" in options else "output"]),
            activation=options.get("activation", "leaky"),
        )
    if name == "flatten":
        return FlattenLayer()
    if name in ("batchnorm", "batch_normalize"):
        return BatchNormLayer(
            momentum=float(options.get("momentum", 0.9)),
            eps=float(options.get("eps", 1e-5)),
        )
    if name in ("residual", "shortcut"):
        from repro.nn.layers.residual import ResidualBlockLayer

        filters = int(options["filters"])
        convs = int(options.get("convs", 2))
        activation = options.get("activation", "leaky")
        inner: List[Layer] = []
        for i in range(convs):
            # The last inner conv is linear so the block output stays
            # centered around the identity path.
            act = activation if i < convs - 1 else "linear"
            inner.append(ConvLayer(filters, int(options.get("size", 3)),
                                   1, activation=act))
        return ResidualBlockLayer(inner)
    if name == "softmax":
        return SoftmaxLayer()
    if name == "cost":
        return CostLayer()
    raise NetworkDefinitionError(f"unknown layer section [{name}]")


def network_from_config(text: str, initializer: Optional[Initializer] = None,
                        rng: Optional[np.random.Generator] = None) -> Network:
    """Build a :class:`Network` from config text."""
    sections = parse_config(text)
    head, options = sections[0]
    if head != "net":
        raise NetworkDefinitionError("config must start with a [net] section")
    try:
        input_shape = tuple(int(d) for d in options["input"].split(","))
    except (KeyError, ValueError) as exc:
        raise NetworkDefinitionError("[net] needs input = H,W,C") from exc
    layers = [_layer_from_section(name, opts) for name, opts in sections[1:]]
    if not layers:
        raise NetworkDefinitionError("config defines no layers")
    return Network(input_shape, layers, initializer=initializer, rng=rng)


def network_to_config(network: Network) -> str:
    """Render a network back to config text (inverse of the parser)."""
    lines = ["[net]", "input = " + ",".join(str(d) for d in network.input_shape), ""]
    for layer in network.layers:
        lines.append(f"[{layer.kind}]")
        if isinstance(layer, ConvLayer):
            lines.append(f"filters = {layer.filters}")
            lines.append(f"size = {layer.size}")
            lines.append(f"stride = {layer.stride}")
            lines.append(f"activation = {layer.activation}")
            lines.append(f"pad = {layer.pad}")
        elif isinstance(layer, MaxPoolLayer):
            lines.append(f"size = {layer.size}")
            lines.append(f"stride = {layer.stride}")
        elif isinstance(layer, DropoutLayer):
            lines.append(f"probability = {layer.probability}")
        elif isinstance(layer, DenseLayer):
            lines.append(f"units = {layer.units}")
            lines.append(f"activation = {layer.activation}")
        elif isinstance(layer, BatchNormLayer):
            lines.append(f"momentum = {layer.momentum}")
            lines.append(f"eps = {layer.eps}")
        else:
            from repro.nn.layers.residual import ResidualBlockLayer

            if isinstance(layer, ResidualBlockLayer):
                convs = [l for l in layer.inner if isinstance(l, ConvLayer)]
                if not convs:
                    raise NetworkDefinitionError(
                        "only conv-stack residual blocks render to config"
                    )
                lines.append(f"filters = {convs[0].filters}")
                lines.append(f"convs = {len(convs)}")
                lines.append(f"size = {convs[0].size}")
                lines.append(f"activation = {convs[0].activation}")
        lines.append("")
    return "\n".join(lines)
