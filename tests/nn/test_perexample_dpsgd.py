"""Per-example DP-SGD tests."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.nn.layers.softmax import CostLayer
from repro.nn.optimizers import PerExampleDpSgd, Sgd
from repro.nn.zoo import tiny_testnet

from tests.nn.reference_backend import REFERENCE


@pytest.fixture
def batch(generator):
    x = generator.random((8, 8, 8, 3)).astype(np.float32)
    y = generator.integers(0, 4, size=8)
    return x, y


class TestPerExampleDpSgd:
    def test_trains_without_noise(self, rng, batch):
        net = tiny_testnet(rng.child("n").generator)
        dp = PerExampleDpSgd(0.05, momentum=0.0, clip_norm=10.0,
                             noise_multiplier=0.0)
        x, y = batch
        first = dp.train_batch(net, x, y)
        for _ in range(12):
            last = dp.train_batch(net, x, y)
        assert last < first

    def test_zero_noise_large_clip_matches_plain_sgd(self, rng, batch):
        """With no clipping pressure and no noise, per-example DP-SGD is
        exactly mini-batch SGD."""
        x, y = batch
        net_a = tiny_testnet(rng.child("same").generator)
        net_b = tiny_testnet(rng.child("same").generator)
        PerExampleDpSgd(0.05, momentum=0.0, clip_norm=1e9,
                        noise_multiplier=0.0).train_batch(net_a, x, y)
        net_b.train_batch(x, y, Sgd(0.05, momentum=0.0, max_grad_norm=None))
        for la, lb in zip(net_a.layers, net_b.layers):
            for name, arr in la.params().items():
                np.testing.assert_allclose(arr, lb.params()[name],
                                           rtol=1e-4, atol=1e-6)

    def test_losses_and_weights_bitwise_those_of_the_reference_loss(
            self, rng, batch, monkeypatch):
        """``CostLayer.loss_and_delta`` runs the backend's cross-entropy
        kernel; DP-SGD's losses and weights equal, bit for bit, a run on the
        reference formula (the cost layer's own body before it delegated)."""
        x, y = batch

        def run():
            net = tiny_testnet(rng.child("same").generator)
            dp = PerExampleDpSgd(0.05, clip_norm=0.5, noise_multiplier=1.0,
                                 rng=np.random.default_rng(3))
            losses = [dp.train_batch(net, x, y) for _ in range(3)]
            return losses, [arr.copy() for layer in net.layers
                            for arr in layer.params().values()]

        losses, weights = run()
        monkeypatch.setattr(CostLayer, "loss_and_delta",
                            staticmethod(REFERENCE.softmax_cost))
        reference_losses, reference_weights = run()
        assert losses == reference_losses
        assert len(weights) == len(reference_weights)
        for got, want in zip(weights, reference_weights):
            assert got.dtype == want.dtype
            assert np.array_equal(got, want)

    def test_clipping_bounds_per_example_influence(self, rng, batch):
        """A single outlier example cannot move the weights by more than
        lr * clip / batch — the DP sensitivity bound."""
        x, y = batch
        # Plant an extreme outlier.
        x = x.copy()
        x[0] = x[0] * 100.0
        clip = 0.1
        net = tiny_testnet(rng.child("n").generator)
        w_before = net.layers[0].weights.copy()
        PerExampleDpSgd(0.1, momentum=0.0, clip_norm=clip,
                        noise_multiplier=0.0).train_batch(net, x, y)
        max_move = float(np.abs(net.layers[0].weights - w_before).max())
        assert max_move <= 0.1 * clip + 1e-9  # lr * clip (sum of 8 * clip/8)

    def test_noise_perturbs(self, rng, batch):
        x, y = batch
        net_a = tiny_testnet(rng.child("same").generator)
        net_b = tiny_testnet(rng.child("same").generator)
        PerExampleDpSgd(0.05, noise_multiplier=1.0,
                        rng=np.random.default_rng(1)).train_batch(net_a, x, y)
        PerExampleDpSgd(0.05, noise_multiplier=1.0,
                        rng=np.random.default_rng(2)).train_batch(net_b, x, y)
        assert not np.allclose(net_a.layers[0].weights, net_b.layers[0].weights)

    def test_works_with_partitioned_network(self, rng, platform, batch):
        from repro.core.partition import PartitionedNetwork

        enclave = platform.create_enclave("dp")
        enclave.init()
        net = tiny_testnet(rng.child("n").generator)
        partitioned = PartitionedNetwork(net, 2, enclave)
        x, y = batch
        loss = PerExampleDpSgd(0.05, noise_multiplier=0.5).train_batch(
            partitioned, x, y
        )
        assert np.isfinite(loss)
        assert enclave.ocall_count >= x.shape[0]  # one IR per example

    def test_learning_rate_property(self):
        dp = PerExampleDpSgd(0.07)
        assert dp.learning_rate == 0.07
        dp.learning_rate = 0.01
        assert dp._sgd.learning_rate == 0.01

    def test_invalid_params(self):
        with pytest.raises(ConfigurationError):
            PerExampleDpSgd(clip_norm=0.0)
        with pytest.raises(ConfigurationError):
            PerExampleDpSgd(noise_multiplier=-1.0)
