"""Optimizer tests."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.nn.optimizers import Sgd
from repro.nn.zoo import tiny_testnet


def _loss_of(net, x, y):
    probs = net.predict(x)
    return float(-np.log(probs[np.arange(y.shape[0]), y] + 1e-12).mean())


@pytest.fixture
def batch(generator):
    x = generator.normal(size=(16, 8, 8, 3)).astype(np.float32) * 0.3 + 0.5
    y = generator.integers(0, 4, size=16)
    return x, y


class TestSgd:
    def test_reduces_loss(self, rng, batch):
        net = tiny_testnet(rng.child("n").generator)
        x, y = batch
        before = _loss_of(net, x, y)
        optimizer = Sgd(0.05, momentum=0.0)
        for _ in range(15):
            net.train_batch(x, y, optimizer)
        assert _loss_of(net, x, y) < before

    def test_momentum_accumulates(self, rng, batch):
        """With constant gradients momentum moves further than plain SGD."""
        net_plain = tiny_testnet(rng.child("p").generator)
        net_momentum = tiny_testnet(rng.child("p").generator)
        x, y = batch
        w0 = net_plain.layers[0].weights.copy()
        for _ in range(5):
            net_plain.train_batch(x, y, Sgd(0.01, momentum=0.0))
        opt_m = Sgd(0.01, momentum=0.9)
        for _ in range(5):
            net_momentum.train_batch(x, y, opt_m)
        move_plain = np.abs(net_plain.layers[0].weights - w0).sum()
        move_momentum = np.abs(net_momentum.layers[0].weights - w0).sum()
        assert move_momentum > move_plain

    def test_weight_decay_shrinks_weights(self, rng):
        net = tiny_testnet(rng.child("n").generator)
        net.zero_grads()  # zero gradients: only decay acts
        w0 = np.abs(net.layers[0].weights).sum()
        optimizer = Sgd(0.1, momentum=0.0, weight_decay=0.1)
        optimizer.step(net)
        assert np.abs(net.layers[0].weights).sum() < w0

    def test_frozen_layers_not_updated(self, rng, batch):
        net = tiny_testnet(rng.child("n").generator)
        net.freeze_layers(1)
        w0 = net.layers[0].weights.copy()
        x, y = batch
        net.train_batch(x, y, Sgd(0.1))
        np.testing.assert_array_equal(net.layers[0].weights, w0)

    def test_grad_clipping_bounds_update(self, rng):
        net = tiny_testnet(rng.child("n").generator)
        # Plant a huge gradient.
        net.layers[0]._grad_w[...] = 1e6
        w0 = net.layers[0].weights.copy()
        Sgd(0.1, momentum=0.0, max_grad_norm=1.0).step(net)
        assert np.abs(net.layers[0].weights - w0).max() <= 0.1 * 1.0 + 1e-6

    def test_invalid_params(self):
        with pytest.raises(ConfigurationError):
            Sgd(-1.0)
        with pytest.raises(ConfigurationError):
            Sgd(0.1, momentum=1.0)


class TestStateDicts:
    """Round-trip contract: load_state_dict makes a fresh optimizer
    continue bitwise-identically — the property checkpoint/resume needs."""

    def _run(self, net, optimizer, batch, steps):
        x, y = batch
        for _ in range(steps):
            net.train_batch(x, y, optimizer)

    def _twins(self, rng, batch, make_optimizer, warmup=3):
        """Train one net, then clone (weights + optimizer state) a twin."""
        net_a = tiny_testnet(rng.child("twin").generator)
        opt_a = make_optimizer()
        self._run(net_a, opt_a, batch, warmup)
        net_b = tiny_testnet(rng.child("twin").generator)
        net_b.set_weights(net_a.get_weights())
        opt_b = make_optimizer()
        opt_b.load_state_dict(opt_a.state_dict())
        return net_a, opt_a, net_b, opt_b

    def _assert_same_weights(self, net_a, net_b):
        for layer_a, layer_b in zip(net_a.get_weights(), net_b.get_weights()):
            for name in layer_a:
                np.testing.assert_array_equal(layer_a[name], layer_b[name],
                                              err_msg=name)

    def test_sgd_roundtrip(self, rng, batch):
        net_a, opt_a, net_b, opt_b = self._twins(
            rng, batch, lambda: Sgd(0.05, momentum=0.9))
        self._run(net_a, opt_a, batch, 4)
        self._run(net_b, opt_b, batch, 4)
        self._assert_same_weights(net_a, net_b)

    def test_perexample_dpsgd_roundtrip_replays_noise(self, rng):
        from repro.nn.optimizers import PerExampleDpSgd

        x = rng.child("px").generator.normal(
            size=(4, 8, 8, 3)).astype(np.float32)
        y = rng.child("py").generator.integers(0, 4, size=4)
        make = lambda: PerExampleDpSgd(0.01, noise_multiplier=1.0,
                                       rng=np.random.default_rng(7))
        net_a = tiny_testnet(rng.child("twin").generator)
        opt_a = make()
        opt_a.train_batch(net_a, x, y)
        net_b = tiny_testnet(rng.child("twin").generator)
        net_b.set_weights(net_a.get_weights())
        opt_b = make()
        opt_b.load_state_dict(opt_a.state_dict())
        opt_a.train_batch(net_a, x, y)
        opt_b.train_batch(net_b, x, y)
        for layer_a, layer_b in zip(net_a.get_weights(), net_b.get_weights()):
            for name in layer_a:
                np.testing.assert_array_equal(layer_a[name], layer_b[name])

    def test_state_dict_is_a_snapshot(self, rng, batch):
        """Further training must not mutate a captured state dict."""
        net = tiny_testnet(rng.child("n").generator)
        optimizer = Sgd(0.05, momentum=0.9)
        self._run(net, optimizer, batch, 2)
        state = optimizer.state_dict()
        frozen = {key: arr.copy() for key, arr in state["velocity"].items()}
        self._run(net, optimizer, batch, 2)
        for key in frozen:
            np.testing.assert_array_equal(state["velocity"][key], frozen[key])

    def test_stateless_base_rejects_foreign_state(self):
        from repro.nn.optimizers import Optimizer

        Optimizer().load_state_dict({})  # fine
        with pytest.raises(ConfigurationError):
            Optimizer().load_state_dict({"velocity": {}})
