"""Membership inference tests and the DP-SGD countermeasure."""

import numpy as np
import pytest

from repro.attacks.membership import membership_inference_auc, membership_scores
from repro.data.batching import iterate_minibatches
from repro.nn.optimizers import PerExampleDpSgd, Sgd
from repro.nn.zoo import tiny_testnet


def _overfit(net, x, y, optimizer, epochs, rng):
    for _ in range(epochs):
        for xb, yb in iterate_minibatches(x, y, 16, rng=rng):
            if isinstance(optimizer, PerExampleDpSgd):
                optimizer.train_batch(net, xb, yb)
            else:
                net.train_batch(xb, yb, optimizer)


class TestMembershipInference:
    def test_overfit_model_leaks(self, rng, tiny_cifar):
        """An overfit model scores members above non-members (AUC > 0.5)."""
        train, test = tiny_cifar
        members = train.subset(range(48))
        net = tiny_testnet(rng.child("net").generator)
        _overfit(net, members.x, members.y, Sgd(0.05, 0.9), epochs=30,
                 rng=rng.child("b").generator)
        auc = membership_inference_auc(
            net, members.x, members.y, test.x, test.y
        )
        assert auc > 0.55

    def test_dpsgd_reduces_leakage(self, rng, tiny_cifar):
        """DP-SGD noise lowers the membership AUC relative to plain SGD
        (the paper's Section VII countermeasure)."""
        train, test = tiny_cifar
        members = train.subset(range(48))

        net_plain = tiny_testnet(rng.child("same").generator)
        _overfit(net_plain, members.x, members.y, Sgd(0.05, 0.9), epochs=30,
                 rng=rng.child("b1").generator)
        auc_plain = membership_inference_auc(
            net_plain, members.x, members.y, test.x, test.y
        )

        net_dp = tiny_testnet(rng.child("same").generator)
        dp = PerExampleDpSgd(0.05, momentum=0.9, clip_norm=0.5,
                             noise_multiplier=4.0,
                             rng=rng.child("noise").generator)
        _overfit(net_dp, members.x, members.y, dp, epochs=30,
                 rng=rng.child("b2").generator)
        auc_dp = membership_inference_auc(
            net_dp, members.x, members.y, test.x, test.y
        )
        assert auc_dp < auc_plain

    def test_scores_are_true_label_confidences(self, rng, tiny_cifar):
        train, _ = tiny_cifar
        net = tiny_testnet(rng.child("n").generator)
        scores = membership_scores(net, train.x[:5], train.y[:5])
        probs = net.predict(train.x[:5])
        np.testing.assert_allclose(
            scores, probs[np.arange(5), train.y[:5]], rtol=1e-6
        )
