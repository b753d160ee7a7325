"""Information-exposure assessment of intermediate representations.

Implements the paper's dual-network framework (Section IV-B): an
*IRGenNet* (the model under assessment — possibly semi-trained) produces
intermediate representations for each layer; each IR feature map is
projected to an IR image and classified by an independent, well-trained
*IRValNet* oracle. The KL divergence between the oracle's distribution on
the original input and on each IR image measures how much input content the
IR still reveals. An IR whose KL reaches the uniform-distribution baseline
``delta_mu = D_KL(P(x) || U)`` no longer helps an adversary.

The *optimal partition* is the smallest FrontNet size K such that the IR
leaving the enclave (the output of layer K) — and every deeper IR — stays at
or above the baseline. Because model weights change every epoch, CalTrain
re-runs this assessment on each semi-trained model (dynamic re-assessment)
and participants re-agree on the partition for the next epoch.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Sequence, Tuple

import numpy as np

from repro.analysis.images import to_ir_image
from repro.analysis.kl import kl_divergence, kl_to_uniform
from repro.errors import ConfigurationError
from repro.nn.network import Network

__all__ = ["LayerExposure", "AssessmentResult", "ExposureAssessor"]


@dataclass(frozen=True)
class LayerExposure:
    """KL statistics for one IRGenNet layer."""

    layer_index: int  # 0-based index into the network's layer list
    kl_min: float
    kl_max: float

    def leaks(self, baseline: float) -> bool:
        """True if some IR image at this layer still reveals input content."""
        return self.kl_min < baseline


@dataclass
class AssessmentResult:
    """Outcome of one exposure assessment run."""

    layers: List[LayerExposure]
    uniform_baseline: float
    #: Number of leading layers to enclose so that no exposed IR leaks.
    optimal_partition: int

    def layer_ranges(self) -> List[Tuple[float, float]]:
        return [(l.kl_min, l.kl_max) for l in self.layers]


class ExposureAssessor:
    """Runs the IRGenNet/IRValNet assessment.

    Args:
        val_net: The oracle model (a different well-trained network).
        max_channels_per_layer: IR images per layer are capped at this many
            (evenly spaced channels) to bound cost; the paper assesses all
            ``d_i`` feature maps.
    """

    def __init__(self, val_net: Network, max_channels_per_layer: int = 8) -> None:
        if max_channels_per_layer < 1:
            raise ConfigurationError("max_channels_per_layer must be >= 1")
        self.val_net = val_net
        self.max_channels = max_channels_per_layer
        self._val_h, self._val_w, self._val_c = val_net.input_shape

    # -- helpers ------------------------------------------------------------

    def _assessable_indices(self, gen_net: Network) -> List[int]:
        """All layers up to (excluding) softmax — Fig. 5's 16 layers."""
        return list(range(gen_net.penultimate_index() + 1))

    def _feature_maps(self, output: np.ndarray) -> List[np.ndarray]:
        """Split one example's layer output into 2-D feature maps."""
        if output.ndim == 3:  # (H, W, C)
            channels = output.shape[-1]
            take = np.linspace(0, channels - 1, min(self.max_channels, channels))
            return [output[..., int(c)] for c in take]
        # 1-D outputs (global pooling, logits): one 1xD "feature map".
        return [output.reshape(1, -1)]

    # -- main entry points -------------------------------------------------------

    def assess(self, gen_net: Network, inputs: np.ndarray) -> AssessmentResult:
        """Assess exposure of ``gen_net`` on a batch of original inputs."""
        if inputs.ndim != 4:
            raise ConfigurationError("inputs must be NHWC")
        indices = self._assessable_indices(gen_net)
        original_probs = self.val_net.predict(inputs)
        baselines = [kl_to_uniform(p) for p in original_probs]
        baseline = float(np.mean(baselines))

        layer_stats: List[LayerExposure] = []
        for layer_index in indices:
            ir_images: List[np.ndarray] = []
            owners: List[int] = []
            for example in range(inputs.shape[0]):
                captured = gen_net.forward_collect(
                    inputs[example : example + 1], [layer_index]
                )[layer_index][0]
                for fmap in self._feature_maps(captured):
                    ir_images.append(
                        to_ir_image(fmap, self._val_h, self._val_w, self._val_c)
                    )
                    owners.append(example)
            ir_probs = self.val_net.predict(np.stack(ir_images))
            kls = [
                kl_divergence(original_probs[owner], ir_prob)
                for owner, ir_prob in zip(owners, ir_probs)
            ]
            layer_stats.append(
                LayerExposure(
                    layer_index=layer_index,
                    kl_min=float(np.min(kls)),
                    kl_max=float(np.max(kls)),
                )
            )

        optimal = self._optimal_partition(layer_stats, baseline)
        return AssessmentResult(
            layers=layer_stats, uniform_baseline=baseline, optimal_partition=optimal
        )

    @staticmethod
    def _optimal_partition(layers: Sequence[LayerExposure], baseline: float) -> int:
        """Smallest K so the output of layer K and everything deeper is safe."""
        last_leaking = 0
        for position, stats in enumerate(layers, start=1):
            if stats.leaks(baseline):
                last_leaking = position
        # Enclose through the last leaking layer plus the first safe layer
        # whose output becomes the exposed IR.
        return min(last_leaking + 1, len(layers))

    def assess_training(self, models_by_epoch: Sequence[Network],
                        inputs: np.ndarray) -> List[AssessmentResult]:
        """Dynamic re-assessment: assess every epoch's semi-trained model."""
        return [self.assess(model, inputs) for model in models_by_epoch]


def train_validation_oracle(train_x: np.ndarray, train_y: np.ndarray,
                            rng, epochs: int = 8, batch_size: int = 32,
                            learning_rate: float = 0.02,
                            width_scale: float = 0.15,
                            background_fraction: float = 0.3) -> Network:
    """Train an IRValNet oracle suited to IR-image inspection.

    The paper's IRValNet is "a different well-trained deep learning model"
    acting as a content oracle — its class space need not match the
    IRGenNet's. This builder trains a 10-layer network over the original
    classes *plus one background class* of smooth contentless fields.
    Without it, an oracle forced to pick among content classes maps
    degenerate deep-layer IR images onto whichever class looks smoothest,
    producing false "leak" verdicts for inputs of that class.

    Args:
        train_x/train_y: The oracle's training data (original classes).
        background_fraction: Background images added, as a fraction of N.
    """
    from repro.data.batching import iterate_minibatches
    from repro.nn.optimizers import Sgd
    from repro.nn.zoo import cifar10_10layer

    if hasattr(rng, "child"):
        data_gen = rng.child("oracle-background").generator
        init_gen = rng.child("oracle-init").generator
        batch_gen = rng.child("oracle-batches").generator
    else:  # a bare numpy Generator
        data_gen = init_gen = batch_gen = rng

    n_classes = int(train_y.max()) + 1
    n_background = max(1, int(round(background_fraction * train_x.shape[0])))
    h, w, c = train_x.shape[1:]
    # Smooth random fields: bilinearly upsampled coarse noise, the texture
    # degenerate IR images actually exhibit.
    from repro.analysis.images import bilinear_resize

    backgrounds = np.empty((n_background, h, w, c), dtype=np.float32)
    for i in range(n_background):
        coarse = data_gen.random((data_gen.integers(2, 8), data_gen.integers(2, 8)))
        field = bilinear_resize(coarse, h, w)
        backgrounds[i] = np.repeat(field[..., None], c, axis=-1)
    x = np.concatenate([train_x, backgrounds])
    y = np.concatenate([train_y, np.full(n_background, n_classes, dtype=np.int64)])

    oracle = _oracle_network(cifar10_10layer, init_gen, width_scale, n_classes + 1,
                             input_shape=(h, w, c))
    optimizer = Sgd(learning_rate, momentum=0.9)
    for _ in range(epochs):
        for xb, yb in iterate_minibatches(x, y, batch_size, rng=batch_gen):
            oracle.train_batch(xb, yb, optimizer)
    return oracle


def _oracle_network(base_factory, rng, width_scale: float, num_classes: int,
                    input_shape) -> Network:
    """A Table-I-shaped network with an adjustable class count and input."""
    from repro.nn.initializers import gaussian_init
    from repro.nn.layers import (
        AvgPoolLayer,
        ConvLayer,
        CostLayer,
        MaxPoolLayer,
        SoftmaxLayer,
    )

    w = lambda f: max(4, int(round(f * width_scale)))
    layers = [
        ConvLayer(w(128), 3, 1),
        ConvLayer(w(128), 3, 1),
        MaxPoolLayer(2, 2),
        ConvLayer(w(64), 3, 1),
        MaxPoolLayer(2, 2),
        ConvLayer(w(128), 3, 1),
        ConvLayer(num_classes, 1, 1, activation="linear"),
        AvgPoolLayer(),
        SoftmaxLayer(),
        CostLayer(),
    ]
    return Network(input_shape, layers, initializer=gaussian_init(rng))
