"""Per-layer unit tests: shapes, known values, gradients, introspection."""

import numpy as np
import pytest

from repro.errors import ConfigurationError, ShapeError, TrainingError
from repro.nn.initializers import gaussian_init
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
from repro.nn.layers.activations import ACTIVATIONS
from tests.nn.reference_backend import activation_gradient, apply_activation


class TestActivations:
    @pytest.mark.parametrize("name", ACTIVATIONS)
    def test_shape_preserved(self, name):
        z = np.linspace(-2, 2, 12).reshape(3, 4)
        assert apply_activation(name, z).shape == z.shape

    def test_relu_values(self):
        z = np.array([-1.0, 0.0, 2.0])
        np.testing.assert_array_equal(apply_activation("relu", z), [0.0, 0.0, 2.0])

    def test_leaky_values(self):
        z = np.array([-1.0, 2.0])
        np.testing.assert_allclose(apply_activation("leaky", z), [-0.1, 2.0])

    @pytest.mark.parametrize("name", ACTIVATIONS)
    def test_gradient_matches_numerical(self, name):
        z = np.linspace(-1.7, 1.9, 13)  # avoids the kink at exactly 0
        delta = np.ones_like(z)
        eps = 1e-6
        numeric = (apply_activation(name, z + eps) - apply_activation(name, z - eps)) / (2 * eps)
        np.testing.assert_allclose(
            activation_gradient(name, z, delta), numeric, atol=1e-6
        )

    def test_unknown_activation(self):
        with pytest.raises(ConfigurationError):
            apply_activation("swishy", np.zeros(3))


class TestConvLayer:
    def _build(self, filters=4, size=3, stride=1, in_c=3, pad="same"):
        layer = ConvLayer(filters, size, stride, activation="linear", pad=pad)
        layer.build(in_c, gaussian_init(np.random.default_rng(0)))
        return layer

    def test_same_padding_shape(self):
        layer = self._build()
        out = layer.forward(np.zeros((2, 8, 8, 3), dtype=np.float32))
        assert out.shape == (2, 8, 8, 4)

    def test_valid_padding_shape(self):
        layer = self._build(pad="valid")
        out = layer.forward(np.zeros((2, 8, 8, 3), dtype=np.float32))
        assert out.shape == (2, 6, 6, 4)

    def test_stride_two(self):
        layer = self._build(stride=2)
        out = layer.forward(np.zeros((2, 8, 8, 3), dtype=np.float32))
        assert out.shape == (2, 4, 4, 4)

    def test_identity_kernel(self):
        """A 1x1 identity kernel reproduces the input channel."""
        layer = ConvLayer(1, 1, 1, activation="linear")
        layer.build(1, lambda shape: np.ones(shape))
        x = np.arange(16, dtype=np.float32).reshape(1, 4, 4, 1)
        np.testing.assert_allclose(layer.forward(x), x)

    def test_known_3x3_sum_kernel(self):
        """An all-ones 3x3 kernel computes local sums (with zero padding)."""
        layer = ConvLayer(1, 3, 1, activation="linear")
        layer.build(1, lambda shape: np.ones(shape))
        x = np.ones((1, 3, 3, 1), dtype=np.float32)
        out = layer.forward(x)[0, :, :, 0]
        assert out[1, 1] == pytest.approx(9.0)  # full window
        assert out[0, 0] == pytest.approx(4.0)  # corner window

    def test_channel_mismatch_rejected(self):
        layer = self._build(in_c=3)
        with pytest.raises(ShapeError):
            layer.forward(np.zeros((1, 8, 8, 5), dtype=np.float32))

    def test_unbuilt_rejected(self):
        with pytest.raises(ShapeError):
            ConvLayer(2).forward(np.zeros((1, 4, 4, 3)))

    def test_backward_without_forward_rejected(self):
        layer = self._build()
        with pytest.raises(TrainingError):
            layer.backward(np.zeros((1, 8, 8, 4)))

    def test_flops_formula(self):
        layer = self._build(filters=4, size=3)
        # 2 * oh*ow*oc*k*k*ic = 2*8*8*4*9*3
        assert layer.flops((8, 8, 3)) == 2 * 8 * 8 * 4 * 9 * 3

    def test_invalid_params(self):
        with pytest.raises(ConfigurationError):
            ConvLayer(0)
        with pytest.raises(ConfigurationError):
            ConvLayer(4, pad="reflect")

    def test_frozen_accumulates_no_grads(self):
        layer = self._build()
        layer.frozen = True
        x = np.random.default_rng(1).normal(size=(2, 8, 8, 3)).astype(np.float32)
        out = layer.forward(x, training=True)
        layer.backward(np.ones_like(out))
        assert np.all(layer.grads()["weights"] == 0)


class TestMaxPool:
    def test_shape(self):
        out = MaxPoolLayer(2, 2).forward(np.zeros((1, 8, 8, 3), dtype=np.float32))
        assert out.shape == (1, 4, 4, 3)

    def test_values(self):
        x = np.arange(16, dtype=np.float32).reshape(1, 4, 4, 1)
        out = MaxPoolLayer(2, 2).forward(x)[0, :, :, 0]
        np.testing.assert_array_equal(out, [[5, 7], [13, 15]])

    def test_backward_routes_to_argmax(self):
        layer = MaxPoolLayer(2, 2)
        x = np.arange(16, dtype=np.float32).reshape(1, 4, 4, 1)
        layer.forward(x, training=True)
        dx = layer.backward(np.ones((1, 2, 2, 1), dtype=np.float32))
        # Gradient lands only on the max positions (5, 7, 13, 15).
        expected = np.zeros((4, 4))
        for pos in [(1, 1), (1, 3), (3, 1), (3, 3)]:
            expected[pos] = 1.0
        np.testing.assert_array_equal(dx[0, :, :, 0], expected)

    def test_too_small_input_rejected(self):
        with pytest.raises(ShapeError):
            MaxPoolLayer(4, 4).forward(np.zeros((1, 2, 2, 1), dtype=np.float32))


class TestAvgPool:
    def test_global_average(self):
        x = np.arange(32, dtype=np.float32).reshape(1, 4, 4, 2)
        out = AvgPoolLayer().forward(x)
        np.testing.assert_allclose(out[0], x[0].mean(axis=(0, 1)))

    def test_backward_spreads_equally(self):
        layer = AvgPoolLayer()
        x = np.zeros((1, 2, 2, 3), dtype=np.float32)
        layer.forward(x, training=True)
        dx = layer.backward(np.ones((1, 3), dtype=np.float32))
        np.testing.assert_allclose(dx, np.full((1, 2, 2, 3), 0.25))


class TestDropout:
    def test_inference_is_identity(self):
        x = np.ones((4, 10), dtype=np.float32)
        np.testing.assert_array_equal(DropoutLayer(0.5).forward(x), x)

    def test_training_zeroes_and_scales(self):
        layer = DropoutLayer(0.5, rng=np.random.default_rng(0))
        x = np.ones((100, 100), dtype=np.float32)
        out = layer.forward(x, training=True)
        kept = out[out != 0]
        np.testing.assert_allclose(kept, 2.0)  # inverted dropout scaling
        assert 0.3 < (out == 0).mean() < 0.7

    def test_backward_uses_same_mask(self):
        layer = DropoutLayer(0.5, rng=np.random.default_rng(0))
        x = np.ones((10, 10), dtype=np.float32)
        out = layer.forward(x, training=True)
        dx = layer.backward(np.ones_like(out))
        np.testing.assert_array_equal((out == 0), (dx == 0))

    def test_invalid_probability(self):
        with pytest.raises(ConfigurationError):
            DropoutLayer(1.0)

    def test_zero_probability_passthrough(self):
        x = np.ones((3, 3), dtype=np.float32)
        layer = DropoutLayer(0.0)
        np.testing.assert_array_equal(layer.forward(x, training=True), x)
        np.testing.assert_array_equal(layer.backward(x), x)


class TestDenseAndFlatten:
    def test_flatten_roundtrip(self):
        layer = FlattenLayer()
        x = np.arange(24, dtype=np.float32).reshape(2, 2, 2, 3)
        out = layer.forward(x, training=True)
        assert out.shape == (2, 12)
        assert layer.backward(out).shape == x.shape

    def test_dense_linear_algebra(self):
        layer = DenseLayer(2, activation="linear")
        layer.build(3, lambda shape: np.ones(shape))
        x = np.array([[1.0, 2.0, 3.0]], dtype=np.float32)
        np.testing.assert_allclose(layer.forward(x), [[6.0, 6.0]])

    def test_dense_shape_check(self):
        layer = DenseLayer(2)
        layer.build(3, gaussian_init(np.random.default_rng(0)))
        with pytest.raises(ShapeError):
            layer.forward(np.zeros((1, 5), dtype=np.float32))

    def test_dense_flops(self):
        layer = DenseLayer(4)
        assert layer.flops((10,)) == 2 * 10 * 4


class TestSoftmaxAndCost:
    def test_softmax_rows_sum_to_one(self):
        logits = np.random.default_rng(0).normal(size=(5, 7))
        probs = SoftmaxLayer().forward(logits)
        np.testing.assert_allclose(probs.sum(axis=1), np.ones(5), atol=1e-6)

    def test_softmax_stability_large_logits(self):
        probs = SoftmaxLayer().forward(np.array([[1000.0, 0.0]]))
        assert np.isfinite(probs).all()

    def test_softmax_needs_2d(self):
        with pytest.raises(ShapeError):
            SoftmaxLayer().forward(np.zeros((2, 3, 4)))

    def test_cost_loss_and_delta(self):
        probs = np.array([[0.7, 0.2, 0.1], [0.1, 0.8, 0.1]])
        labels = np.array([0, 1])
        loss, delta = CostLayer.loss_and_delta(probs, labels)
        expected_loss = -(np.log(0.7) + np.log(0.8)) / 2
        assert loss == pytest.approx(expected_loss, rel=1e-6)
        # delta = (probs - onehot) / n
        assert delta[0, 0] == pytest.approx((0.7 - 1.0) / 2)
        assert delta[1, 2] == pytest.approx(0.1 / 2)

    def test_cost_batch_mismatch(self):
        with pytest.raises(ShapeError):
            CostLayer.loss_and_delta(np.ones((2, 3)) / 3, np.array([0]))
