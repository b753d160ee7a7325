"""BatchNorm layer tests."""

import numpy as np
import pytest

from repro.errors import ConfigurationError, ShapeError
from repro.nn.config import network_from_config, network_to_config
from repro.nn.layers import (
    AvgPoolLayer,
    BatchNormLayer,
    ConvLayer,
    CostLayer,
    SoftmaxLayer,
)
from repro.nn.network import Network
from tests.nn.gradcheck import check_gradients


def _built(channels=3):
    layer = BatchNormLayer()
    layer.build(channels)
    return layer


class TestForward:
    def test_training_normalizes(self, generator):
        layer = _built(4)
        x = generator.normal(2.0, 3.0, size=(8, 5, 5, 4)).astype(np.float32)
        out = layer.forward(x, training=True)
        assert abs(out.mean()) < 1e-5
        assert out.std() == pytest.approx(1.0, rel=0.01)

    def test_gamma_beta_applied(self, generator):
        layer = _built(2)
        layer.gamma[...] = 3.0
        layer.beta[...] = -1.0
        x = generator.normal(size=(16, 2)).astype(np.float32)
        out = layer.forward(x, training=True)
        assert out.mean() == pytest.approx(-1.0, abs=0.01)
        assert out.std() == pytest.approx(3.0, rel=0.05)

    def test_inference_uses_running_stats(self, generator):
        layer = _built(3)
        x = generator.normal(5.0, 2.0, size=(64, 3)).astype(np.float32)
        for _ in range(50):
            layer.forward(x, training=True)
        out = layer.forward(x)  # inference
        assert abs(out.mean()) < 0.2

    def test_dense_and_conv_shapes(self, generator):
        layer = _built(3)
        assert layer.forward(np.zeros((2, 4, 4, 3), dtype=np.float32),
                             training=True).shape == (2, 4, 4, 3)
        assert layer.forward(np.zeros((2, 3), dtype=np.float32)).shape == (2, 3)

    def test_channel_mismatch(self):
        with pytest.raises(ShapeError):
            _built(3).forward(np.zeros((1, 4, 4, 5), dtype=np.float32))

    def test_unbuilt_rejected(self):
        with pytest.raises(ShapeError):
            BatchNormLayer().forward(np.zeros((1, 2)))

    def test_invalid_params(self):
        with pytest.raises(ConfigurationError):
            BatchNormLayer(momentum=1.0)
        with pytest.raises(ConfigurationError):
            BatchNormLayer(eps=0.0)


class TestBackward:
    def test_gradcheck_through_batchnorm(self):
        layers = [
            ConvLayer(4, 3, 1, activation="linear"),
            BatchNormLayer(),
            ConvLayer(3, 1, 1, activation="linear"),
            AvgPoolLayer(),
            SoftmaxLayer(),
            CostLayer(),
        ]
        net = Network((6, 6, 2), layers, rng=np.random.default_rng(0))
        gen = np.random.default_rng(3)
        x = gen.normal(size=(4, 6, 6, 2))
        y = gen.integers(0, 3, size=4)
        errors = check_gradients(net, x, y, samples_per_param=8,
                                 rng=np.random.default_rng(0))
        assert max(errors.values()) < 1e-4, errors


class TestStateHandling:
    def test_running_stats_survive_weight_roundtrip(self, generator):
        layers_a = [BatchNormLayer(), SoftmaxLayer(), CostLayer()]
        net_a = Network((4,), layers_a, rng=np.random.default_rng(0))
        x = generator.normal(3.0, 2.0, size=(32, 4)).astype(np.float32)
        for _ in range(20):
            net_a.layers[0].forward(x, training=True)

        layers_b = [BatchNormLayer(), SoftmaxLayer(), CostLayer()]
        net_b = Network((4,), layers_b, rng=np.random.default_rng(1))
        net_b.set_weights(net_a.get_weights())
        np.testing.assert_allclose(
            net_b.layers[0].running_mean, net_a.layers[0].running_mean
        )
        np.testing.assert_allclose(
            net_b.layers[0].running_var, net_a.layers[0].running_var
        )

    def test_optimizer_never_touches_running_stats(self, generator):
        from repro.nn.optimizers import Sgd

        layers = [
            ConvLayer(4, 3, 1), BatchNormLayer(),
            ConvLayer(2, 1, 1, activation="linear"),
            AvgPoolLayer(), SoftmaxLayer(), CostLayer(),
        ]
        net = Network((4, 4, 3), layers, rng=np.random.default_rng(0))
        bn = net.layers[1]
        x = generator.random((8, 4, 4, 3)).astype(np.float32)
        y = generator.integers(0, 2, size=8)
        mean_before = bn.running_mean.copy()
        net.train_batch(x, y, Sgd(0.05))
        # Running stats move only via the forward-pass update rule; the
        # optimizer updates gamma/beta.
        assert not np.allclose(bn.running_mean, mean_before)  # fwd updated
        assert bn.extra_state().keys() == {"running_mean", "running_var"}


class TestConfig:
    def test_config_roundtrip(self):
        text = (
            "[net]\ninput = 4,4,2\n[conv]\nfilters = 3\n[batchnorm]\n"
            "momentum = 0.8\n[avg]\n[softmax]\n[cost]\n"
        )
        net = network_from_config(text, rng=np.random.default_rng(0))
        assert net.layers[1].kind == "batchnorm"
        assert net.layers[1].momentum == 0.8
        rebuilt = network_from_config(network_to_config(net),
                                      rng=np.random.default_rng(1))
        assert [l.kind for l in rebuilt.layers] == [l.kind for l in net.layers]
