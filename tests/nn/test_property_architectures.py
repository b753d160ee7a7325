"""Property tests over randomly generated valid architectures.

Hypothesis builds random-but-valid layer stacks and checks the structural
invariants every architecture must satisfy: predicted output shapes match
actual forward shapes, backward returns input-shaped deltas, weight
round-trips preserve predictions, and the config round-trip preserves the
architecture.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn.config import network_from_config, network_to_config
from repro.nn.layers import (
    AvgPoolLayer,
    BatchNormLayer,
    ConvLayer,
    CostLayer,
    DropoutLayer,
    MaxPoolLayer,
    SoftmaxLayer,
)
from repro.nn.network import Network


@st.composite
def conv_architectures(draw):
    """A random valid conv stack on a 12x12x3 input, ending in the
    classification tail."""
    layers = []
    spatial = 12
    num_blocks = draw(st.integers(min_value=1, max_value=3))
    for _ in range(num_blocks):
        n_convs = draw(st.integers(min_value=1, max_value=2))
        for _ in range(n_convs):
            filters = draw(st.sampled_from([4, 6, 8]))
            activation = draw(st.sampled_from(["leaky", "relu", "linear"]))
            layers.append(ConvLayer(filters, 3, 1, activation=activation))
        if draw(st.booleans()):
            layers.append(BatchNormLayer())
        if spatial >= 4 and draw(st.booleans()):
            layers.append(MaxPoolLayer(2, 2))
            spatial //= 2
        if draw(st.booleans()):
            layers.append(DropoutLayer(draw(st.sampled_from([0.25, 0.5]))))
    classes = draw(st.integers(min_value=2, max_value=5))
    layers.append(ConvLayer(classes, 1, 1, activation="linear"))
    layers.append(AvgPoolLayer())
    layers.append(SoftmaxLayer())
    layers.append(CostLayer())
    return layers, classes


class TestRandomArchitectures:
    @settings(max_examples=20, deadline=None)
    @given(arch=conv_architectures(), seed=st.integers(0, 2**16))
    def test_shapes_and_probabilities(self, arch, seed):
        layers, classes = arch
        net = Network((12, 12, 3), layers, rng=np.random.default_rng(seed))
        x = np.random.default_rng(seed + 1).random((3, 12, 12, 3)).astype(
            np.float32
        )
        out = net.forward(x)
        # Predicted final shape matches the actual output.
        assert out.shape == (3,) + net.layer_output_shapes()[-1]
        assert out.shape == (3, classes)
        np.testing.assert_allclose(out.sum(axis=1), np.ones(3), atol=1e-5)
        # Every intermediate shape prediction matches reality.
        for i in range(len(net.layers)):
            ir = net.forward(x, stop=i + 1)
            assert ir.shape == (3,) + net.layer_output_shapes()[i]

    @settings(max_examples=15, deadline=None)
    @given(arch=conv_architectures(), seed=st.integers(0, 2**16))
    def test_backward_returns_input_shaped_delta(self, arch, seed):
        layers, classes = arch
        net = Network((12, 12, 3), layers, rng=np.random.default_rng(seed))
        gen = np.random.default_rng(seed + 1)
        x = gen.random((2, 12, 12, 3)).astype(np.float32)
        y = gen.integers(0, classes, size=2)
        probs = net.forward(x, training=True)
        _, delta = net.cost_layer().loss_and_delta(probs, y)
        input_delta = net.backward(delta)
        assert input_delta.shape == x.shape
        assert np.isfinite(input_delta).all()

    @settings(max_examples=15, deadline=None)
    @given(arch=conv_architectures(), seed=st.integers(0, 2**16))
    def test_weight_roundtrip_preserves_predictions(self, arch, seed):
        layers, classes = arch
        net = Network((12, 12, 3), layers, rng=np.random.default_rng(seed))
        x = np.random.default_rng(seed + 1).random((2, 12, 12, 3)).astype(
            np.float32
        )
        before = net.predict(x)
        net.set_weights(net.get_weights())
        np.testing.assert_allclose(net.predict(x), before, rtol=1e-6)

    @settings(max_examples=15, deadline=None)
    @given(arch=conv_architectures(), seed=st.integers(0, 2**16))
    def test_config_roundtrip_preserves_architecture(self, arch, seed):
        layers, classes = arch
        net = Network((12, 12, 3), layers, rng=np.random.default_rng(seed))
        rebuilt = network_from_config(network_to_config(net),
                                      rng=np.random.default_rng(seed + 2))
        assert [l.kind for l in rebuilt.layers] == [l.kind for l in net.layers]
        assert rebuilt.layer_output_shapes() == net.layer_output_shapes()
        assert rebuilt.num_params == net.num_params

    @settings(max_examples=10, deadline=None)
    @given(arch=conv_architectures(), seed=st.integers(0, 2**16),
           partition=st.integers(0, 3))
    def test_partitioned_forward_matches_plain(self, arch, seed, partition):
        from repro.core.partition import PartitionedNetwork

        layers, classes = arch
        net = Network((12, 12, 3), layers, rng=np.random.default_rng(seed))
        limit = net.penultimate_index()
        partition = min(partition, limit)
        x = np.random.default_rng(seed + 1).random((2, 12, 12, 3)).astype(
            np.float32
        )
        plain = net.predict(x)
        partitioned = PartitionedNetwork(net, partition).predict(x)
        np.testing.assert_allclose(plain, partitioned, rtol=1e-5)
