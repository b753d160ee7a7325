"""Network container tests: ranges, training, weights I/O, introspection."""

import numpy as np
import pytest

from repro.errors import NetworkDefinitionError, TrainingError
from repro.nn.layers import (
    AvgPoolLayer,
    ConvLayer,
    CostLayer,
    MaxPoolLayer,
    SoftmaxLayer,
)
from repro.nn.network import Network
from repro.nn.optimizers import Sgd
from repro.nn.zoo import tiny_testnet


class TestConstruction:
    def test_empty_rejected(self):
        with pytest.raises(NetworkDefinitionError):
            Network((8, 8, 3), [])

    def test_shapes_computed(self, tiny_net):
        shapes = tiny_net.layer_output_shapes()
        assert shapes[0] == (8, 8, 8)      # conv 8
        assert shapes[1] == (4, 4, 8)      # max 2/2
        assert shapes[2] == (4, 4, 4)      # conv 1x1 -> classes
        assert shapes[3] == (4,)           # global avg
        assert shapes[-1] == (4,)

    def test_penultimate_index(self, tiny_net):
        # softmax is layer 4 (0-based); penultimate is the avg layer at 3.
        assert tiny_net.penultimate_index() == 3

    def test_no_softmax_rejected(self):
        net = Network((8, 8, 3), [ConvLayer(2, 3, 1)],
                      rng=np.random.default_rng(0))
        with pytest.raises(NetworkDefinitionError):
            net.penultimate_index()
        with pytest.raises(NetworkDefinitionError):
            net.cost_layer()

    def test_num_params_positive(self, tiny_net):
        assert tiny_net.num_params > 0


class TestForwardBackwardRanges:
    def test_split_forward_equals_full(self, tiny_net, generator):
        x = generator.normal(size=(3, 8, 8, 3)).astype(np.float32)
        full = tiny_net.forward(x)
        ir = tiny_net.forward(x, stop=2)
        resumed = tiny_net.forward(ir, start=2)
        np.testing.assert_allclose(full, resumed, rtol=1e-5)

    def test_split_backward_equals_full(self, rng, generator):
        x = generator.normal(size=(3, 8, 8, 3)).astype(np.float32)
        y = generator.integers(0, 4, size=3)
        net_a = tiny_testnet(rng.child("a").generator)
        net_b = tiny_testnet(rng.child("a").generator)  # identical weights

        probs_a = net_a.forward(x, training=True)
        _, delta = net_a.cost_layer().loss_and_delta(probs_a, y)
        net_a.backward(delta)

        ir = net_b.forward(x, training=True, stop=2)
        probs_b = net_b.forward(ir, training=True, start=2)
        _, delta_b = net_b.cost_layer().loss_and_delta(probs_b, y)
        boundary = net_b.backward(delta_b, stop=2)
        net_b.backward(boundary, start=2, stop=0)

        for la, lb in zip(net_a.layers, net_b.layers):
            for name in la.grads():
                np.testing.assert_allclose(
                    la.grads()[name], lb.grads()[name], rtol=1e-4, atol=1e-6
                )

    def test_invalid_ranges_rejected(self, tiny_net):
        x = np.zeros((1, 8, 8, 3), dtype=np.float32)
        with pytest.raises(TrainingError):
            tiny_net.forward(x, start=3, stop=2)
        with pytest.raises(TrainingError):
            tiny_net.backward(np.zeros((1, 4)), start=2, stop=3)

    def test_forward_collect(self, tiny_net):
        x = np.zeros((2, 8, 8, 3), dtype=np.float32)
        captured = tiny_net.forward_collect(x, [0, 3])
        assert captured[0].shape == (2, 8, 8, 8)
        assert captured[3].shape == (2, 4)

    def test_forward_collect_out_of_range(self, tiny_net):
        with pytest.raises(TrainingError):
            tiny_net.forward_collect(np.zeros((1, 8, 8, 3), dtype=np.float32), [99])


class TestTraining:
    def test_loss_decreases(self, tiny_net, tiny_cifar):
        train, _ = tiny_cifar
        optimizer = Sgd(0.02, momentum=0.9)
        first = last = None
        for _ in range(20):
            loss = tiny_net.train_batch(train.x[:32], train.y[:32], optimizer)
            first = loss if first is None else first
            last = loss
        assert last < first

    def test_predict_batches_consistent(self, tiny_net, generator):
        x = generator.normal(size=(10, 8, 8, 3)).astype(np.float32)
        np.testing.assert_allclose(
            tiny_net.predict(x, batch_size=3), tiny_net.predict(x, batch_size=10),
            rtol=1e-5,
        )

    def test_freeze_layers(self, tiny_net):
        tiny_net.freeze_layers(2)
        assert tiny_net.layers[0].frozen and tiny_net.layers[1].frozen
        assert not tiny_net.layers[2].frozen
        tiny_net.freeze_layers(0)
        assert not any(l.frozen for l in tiny_net.layers)


class TestWeightsIO:
    def test_get_set_roundtrip(self, rng, generator):
        net_a = tiny_testnet(rng.child("one").generator)
        net_b = tiny_testnet(rng.child("two").generator)
        x = generator.normal(size=(2, 8, 8, 3)).astype(np.float32)
        assert not np.allclose(net_a.predict(x), net_b.predict(x))
        net_b.set_weights(net_a.get_weights())
        np.testing.assert_allclose(net_a.predict(x), net_b.predict(x), rtol=1e-6)

    def test_mismatched_weights_rejected(self, tiny_net):
        with pytest.raises(NetworkDefinitionError):
            tiny_net.set_weights([{} for _ in range(99)])

    def test_get_weights_is_a_copy(self, tiny_net):
        weights = tiny_net.get_weights()
        weights[0]["weights"][...] = 123.0
        assert not np.all(tiny_net.layers[0].weights == 123.0)


class TestIntrospection:
    def test_flops_per_layer(self, tiny_net):
        flops = tiny_net.flops_per_layer()
        assert len(flops) == len(tiny_net.layers)
        assert flops[0] > 0  # conv has work
        assert flops[4] == 0  # softmax modeled as free

    def test_summary_contains_layers(self, tiny_net):
        text = tiny_net.summary()
        assert "conv" in text and "max" in text and "softmax" in text

    def test_astype(self, tiny_net):
        tiny_net.astype(np.float64)
        assert tiny_net.layers[0].weights.dtype == np.float64
