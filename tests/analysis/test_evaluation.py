"""Classification evaluation report tests."""

import numpy as np
import pytest

from repro.analysis.evaluation import evaluate_classifier
from repro.errors import ConfigurationError


class _FixedModel:
    """A stub model with predetermined predictions."""

    def __init__(self, predictions, classes):
        self._onehot = np.eye(classes)[predictions]

    def predict(self, x):
        return self._onehot[: x.shape[0]]


class TestEvaluateClassifier:
    def test_perfect_classifier(self):
        y = np.array([0, 1, 2, 0, 1, 2])
        model = _FixedModel(y, classes=3)
        report = evaluate_classifier(model, np.zeros((6, 1)), y)
        assert report.accuracy == 1.0
        assert report.macro_f1() == pytest.approx(1.0)
        assert all(c.precision == c.recall == 1.0 for c in report.per_class)

    def test_known_confusion(self):
        actual = np.array([0, 0, 1, 1])
        predicted = np.array([0, 1, 1, 1])
        model = _FixedModel(predicted, classes=2)
        report = evaluate_classifier(model, np.zeros((4, 1)), actual)
        assert report.accuracy == 0.75
        class0 = report.per_class[0]
        assert class0.precision == 1.0 and class0.recall == 0.5
        class1 = report.per_class[1]
        assert class1.precision == pytest.approx(2 / 3)
        assert class1.recall == 1.0
        assert report.per_class[0].support == 2

    def test_absent_class_zero_scores(self):
        actual = np.array([0, 0, 2])
        model = _FixedModel(np.array([0, 0, 2]), classes=3)
        report = evaluate_classifier(model, np.zeros((3, 1)), actual,
                                     num_classes=3)
        assert report.per_class[1].f1 == 0.0
        assert report.per_class[1].support == 0

    def test_render_contains_rows(self):
        y = np.array([0, 1])
        model = _FixedModel(y, classes=2)
        report = evaluate_classifier(model, np.zeros((2, 1)), y)
        text = report.render(class_names=["cat", "dog"])
        assert "cat" in text and "dog" in text and "accuracy" in text

    def test_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            evaluate_classifier(_FixedModel(np.array([0]), 2),
                                np.zeros((0, 1)), np.zeros(0, dtype=int))

    def test_real_model_integration(self, rng, tiny_cifar):
        from repro.data.batching import iterate_minibatches
        from repro.nn.optimizers import Sgd
        from repro.nn.zoo import tiny_testnet

        train, test = tiny_cifar
        net = tiny_testnet(rng.child("n").generator)
        optimizer = Sgd(0.02, 0.9)
        batch_rng = rng.child("b").generator
        for _ in range(8):
            for xb, yb in iterate_minibatches(train.x, train.y, 16,
                                              rng=batch_rng):
                net.train_batch(xb, yb, optimizer)
        report = evaluate_classifier(net, test.x, test.y)
        assert 0.0 <= report.accuracy <= 1.0
        assert len(report.per_class) == 4
        assert report.matrix.sum() == len(test)
