"""Backpropagation correctness via numerical gradient checking."""

import numpy as np
import pytest

from repro.nn.layers import (
    AvgPoolLayer,
    ConvLayer,
    CostLayer,
    DenseLayer,
    DropoutLayer,
    FlattenLayer,
    MaxPoolLayer,
    SoftmaxLayer,
)
from repro.nn.network import Network
from repro.nn.zoo import tiny_testnet
from tests.nn.gradcheck import check_gradients, max_relative_error

# Fixed seeds chosen so no sampled coordinate sits on a leaky-ReLU kink or
# max-pool tie (non-smooth points make the numerical check spuriously fail).
_CLEAN_SEED = 3


def _data(shape=(8, 8, 3), n=4, classes=4, seed=_CLEAN_SEED):
    gen = np.random.default_rng(seed)
    x = gen.normal(size=(n,) + shape)
    y = gen.integers(0, classes, size=n)
    return x, y


class TestGradCheck:
    def test_tiny_testnet(self):
        net = tiny_testnet(np.random.default_rng(100))
        x, y = _data()
        errors = check_gradients(net, x, y, samples_per_param=8,
                                 rng=np.random.default_rng(0))
        assert max(errors.values()) < 1e-5, errors

    def test_conv_stack_with_stride(self):
        layers = [
            ConvLayer(6, 3, 2, activation="relu"),
            ConvLayer(4, 1, 1, activation="linear"),
            AvgPoolLayer(),
            SoftmaxLayer(),
            CostLayer(),
        ]
        net = Network((8, 8, 3), layers, rng=np.random.default_rng(7))
        x, y = _data()
        errors = check_gradients(net, x, y, samples_per_param=8,
                                 rng=np.random.default_rng(0))
        assert max(errors.values()) < 1e-5, errors

    def test_dense_head(self):
        layers = [
            ConvLayer(4, 3, 1, activation="tanh"),
            MaxPoolLayer(2, 2),
            FlattenLayer(),
            DenseLayer(8, activation="sigmoid"),
            DenseLayer(3, activation="linear"),
            SoftmaxLayer(),
            CostLayer(),
        ]
        net = Network((6, 6, 3), layers, rng=np.random.default_rng(2))
        x, y = _data(shape=(6, 6, 3), classes=3)
        errors = check_gradients(net, x, y, samples_per_param=8,
                                 rng=np.random.default_rng(0))
        assert max(errors.values()) < 1e-5, errors

    def test_valid_padding_conv(self):
        layers = [
            ConvLayer(4, 3, 1, activation="linear", pad="valid"),
            AvgPoolLayer(),
            SoftmaxLayer(),
            CostLayer(),
        ]
        net = Network((7, 7, 2), layers, rng=np.random.default_rng(5))
        gen = np.random.default_rng(_CLEAN_SEED)
        x = gen.normal(size=(3, 7, 7, 2))
        y = gen.integers(0, 4, size=3)
        errors = check_gradients(net, x, y, samples_per_param=10,
                                 rng=np.random.default_rng(0))
        assert max(errors.values()) < 1e-5, errors


class TestMaxRelativeError:
    def test_zero_for_equal(self):
        a = np.array([1.0, -2.0, 3.0])
        assert max_relative_error(a, a.copy()) == 0.0

    def test_scales_relative(self):
        assert max_relative_error(np.array([100.0]), np.array([101.0])) == pytest.approx(
            1 / 101, rel=1e-6
        )
