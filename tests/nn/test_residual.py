"""Residual block tests."""

import numpy as np
import pytest

from repro.errors import ConfigurationError, ShapeError
from repro.nn.config import network_from_config, network_to_config
from repro.nn.layers import (
    AvgPoolLayer,
    ConvLayer,
    CostLayer,
    MaxPoolLayer,
    ResidualBlockLayer,
    SoftmaxLayer,
)
from repro.nn.network import Network
from tests.nn.gradcheck import check_gradients


def _res_net(rng, channels=6):
    layers = [
        ConvLayer(channels, 3, 1),
        ResidualBlockLayer([
            ConvLayer(channels, 3, 1),
            ConvLayer(channels, 3, 1, activation="linear"),
        ]),
        MaxPoolLayer(2, 2),
        ConvLayer(3, 1, 1, activation="linear"),
        AvgPoolLayer(),
        SoftmaxLayer(),
        CostLayer(),
    ]
    return Network((8, 8, 3), layers, rng=rng)


class TestResidualBlock:
    def test_identity_when_inner_is_zero(self):
        block = ResidualBlockLayer([ConvLayer(3, 3, 1, activation="linear")])
        block.build(3, lambda shape: np.zeros(shape))
        x = np.random.default_rng(0).random((2, 6, 6, 3)).astype(np.float32)
        np.testing.assert_allclose(block.forward(x), x)

    def test_adds_inner_output(self, generator):
        block = ResidualBlockLayer([ConvLayer(2, 1, 1, activation="linear")])
        block.build(2, lambda shape: np.full(shape, 0.0))
        # Identity 1x1 kernel: inner output equals the input -> y = 2x.
        block.inner[0].weights[0, 0, 0, 0] = 1.0
        block.inner[0].weights[0, 0, 1, 1] = 1.0
        x = generator.random((1, 4, 4, 2)).astype(np.float32)
        np.testing.assert_allclose(block.forward(x), 2 * x, rtol=1e-6)

    def test_shape_preserved(self, rng):
        net = _res_net(rng.child("n").generator)
        shapes = net.layer_output_shapes()
        assert shapes[1] == shapes[0]  # the block preserves shape

    def test_channel_changing_inner_rejected(self):
        layers = [
            ConvLayer(4, 3, 1),
            ResidualBlockLayer([ConvLayer(8, 3, 1)]),  # 4 -> 8: invalid
            SoftmaxLayer(),
            CostLayer(),
        ]
        with pytest.raises(ShapeError):
            Network((6, 6, 3), layers, rng=np.random.default_rng(0))

    def test_empty_inner_rejected(self):
        with pytest.raises(ConfigurationError):
            ResidualBlockLayer([])

    def test_gradcheck(self):
        net = _res_net(np.random.default_rng(11))
        gen = np.random.default_rng(3)
        x = gen.normal(size=(3, 8, 8, 3))
        y = gen.integers(0, 3, size=3)
        errors = check_gradients(net, x, y, samples_per_param=6,
                                 rng=np.random.default_rng(0))
        # 1e-3 tolerance: the deepest inner-conv coordinates have gradients
        # small enough that central differences hit cancellation noise
        # (verified: the error grows as epsilon shrinks, so it is numeric
        # noise, not a backprop defect).
        assert max(errors.values()) < 1e-3, errors

    def test_trains(self, rng, tiny_cifar):
        from repro.data.batching import iterate_minibatches
        from repro.nn.optimizers import Sgd

        train, _ = tiny_cifar
        # Rebuild with 4 classes to match the fixture.
        layers = [
            ConvLayer(6, 3, 1),
            ResidualBlockLayer([
                ConvLayer(6, 3, 1),
                ConvLayer(6, 3, 1, activation="linear"),
            ]),
            ConvLayer(4, 1, 1, activation="linear"),
            AvgPoolLayer(),
            SoftmaxLayer(),
            CostLayer(),
        ]
        net = Network((8, 8, 3), layers, rng=rng.child("t").generator)
        optimizer = Sgd(0.02, 0.9)
        batch_rng = rng.child("b").generator
        losses = []
        for _ in range(8):
            for xb, yb in iterate_minibatches(train.x, train.y, 16,
                                              rng=batch_rng):
                losses.append(net.train_batch(xb, yb, optimizer))
        assert losses[-1] < losses[0]

    def test_weights_roundtrip(self, rng, generator):
        net_a = _res_net(rng.child("a").fork_generator())
        net_b = _res_net(rng.child("b").fork_generator())
        net_b.set_weights(net_a.get_weights())
        x = generator.random((2, 8, 8, 3)).astype(np.float32)
        np.testing.assert_allclose(net_a.predict(x), net_b.predict(x),
                                   rtol=1e-6)

    def test_config_roundtrip(self):
        text = (
            "[net]\ninput = 8,8,3\n[conv]\nfilters = 4\n"
            "[residual]\nfilters = 4\nconvs = 2\n"
            "[conv]\nfilters = 2\nsize = 1\nactivation = linear\n"
            "[avg]\n[softmax]\n[cost]\n"
        )
        net = network_from_config(text, rng=np.random.default_rng(0))
        assert net.layers[1].kind == "residual"
        rebuilt = network_from_config(network_to_config(net),
                                      rng=np.random.default_rng(1))
        assert [l.kind for l in rebuilt.layers] == [l.kind for l in net.layers]
        assert rebuilt.num_params == net.num_params

    def test_partitioned_training_with_residual(self, rng, platform, tiny_cifar):
        """A residual block inside the FrontNet trains correctly across
        the enclave boundary (the block is atomic under partitioning)."""
        from repro.core.partition import PartitionedNetwork
        from repro.nn.optimizers import Sgd

        train, _ = tiny_cifar
        layers = [
            ConvLayer(6, 3, 1),
            ResidualBlockLayer([ConvLayer(6, 3, 1, activation="linear")]),
            ConvLayer(4, 1, 1, activation="linear"),
            AvgPoolLayer(),
            SoftmaxLayer(),
            CostLayer(),
        ]
        net_a = Network((8, 8, 3), layers, rng=rng.child("same").fork_generator())
        layers_b = [
            ConvLayer(6, 3, 1),
            ResidualBlockLayer([ConvLayer(6, 3, 1, activation="linear")]),
            ConvLayer(4, 1, 1, activation="linear"),
            AvgPoolLayer(),
            SoftmaxLayer(),
            CostLayer(),
        ]
        net_b = Network((8, 8, 3), layers_b, rng=rng.child("same").fork_generator())
        enclave = platform.create_enclave("res")
        enclave.init()
        loss_a = net_a.train_batch(train.x[:16], train.y[:16],
                                   Sgd(0.05, momentum=0.0))
        loss_b = PartitionedNetwork(net_b, 2, enclave).train_batch(
            train.x[:16], train.y[:16], Sgd(0.05, momentum=0.0)
        )
        assert loss_a == pytest.approx(loss_b, rel=1e-6)
