"""Cross-entropy tests, on the cost layer's loss and delta."""

import numpy as np
import pytest

from repro.nn.layers import CostLayer


def _softmax(logits):
    exp = np.exp(logits - logits.max(axis=-1, keepdims=True))
    return exp / exp.sum(axis=-1, keepdims=True)


def _loss(probs, labels):
    return CostLayer.loss_and_delta(probs, labels)[0]


def test_perfect_prediction_near_zero_loss():
    probs = np.array([[1.0, 0.0], [0.0, 1.0]])
    assert _loss(probs, np.array([0, 1])) == pytest.approx(0.0, abs=1e-9)


def test_uniform_prediction_log_n():
    probs = np.full((4, 10), 0.1)
    assert _loss(probs, np.zeros(4, dtype=int)) == pytest.approx(
        np.log(10), rel=1e-6
    )


def test_delta_rows_sum_to_zero():
    probs = np.array([[0.5, 0.3, 0.2]])
    _, delta = CostLayer.loss_and_delta(probs, np.array([1]))
    assert delta.sum() == pytest.approx(0.0, abs=1e-9)


def test_softmax_cross_entropy_consistent():
    logits = np.random.default_rng(0).normal(size=(3, 5))
    labels = np.array([0, 2, 4])
    _, delta = CostLayer.loss_and_delta(_softmax(logits), labels)
    # Numerical check: the delta is the logit gradient of softmax + loss.
    eps = 1e-6
    for i, j in [(0, 0), (1, 3), (2, 4)]:
        bumped = logits.copy()
        bumped[i, j] += eps
        loss_plus = _loss(_softmax(bumped), labels)
        bumped[i, j] -= 2 * eps
        loss_minus = _loss(_softmax(bumped), labels)
        numeric = (loss_plus - loss_minus) / (2 * eps)
        assert delta[i, j] == pytest.approx(numeric, abs=1e-5)
