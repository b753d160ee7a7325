"""Evaluation metrics."""

from __future__ import annotations

from typing import Dict

import numpy as np

from repro.errors import ConfigurationError

__all__ = ["top_k_accuracy", "precision_recall_f1", "confusion_matrix", "auc_score"]


def top_k_accuracy(probs: np.ndarray, labels: np.ndarray, k: int = 1) -> float:
    """Fraction of instances whose true label is in the top-k predictions."""
    if k < 1:
        raise ConfigurationError("k must be >= 1")
    top_k = np.argsort(probs, axis=1)[:, -k:]
    return float(np.mean([labels[i] in top_k[i] for i in range(labels.shape[0])]))


def precision_recall_f1(predicted: np.ndarray, actual: np.ndarray) -> Dict[str, float]:
    """Binary precision/recall/F1 for boolean masks."""
    predicted = np.asarray(predicted, dtype=bool)
    actual = np.asarray(actual, dtype=bool)
    tp = int(np.sum(predicted & actual))
    fp = int(np.sum(predicted & ~actual))
    fn = int(np.sum(~predicted & actual))
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = (
        2 * precision * recall / (precision + recall) if precision + recall else 0.0
    )
    return {"precision": precision, "recall": recall, "f1": f1,
            "tp": tp, "fp": fp, "fn": fn}


def confusion_matrix(predicted: np.ndarray, actual: np.ndarray,
                     num_classes: int) -> np.ndarray:
    """(num_classes, num_classes) counts, rows = actual, cols = predicted."""
    matrix = np.zeros((num_classes, num_classes), dtype=np.int64)
    for a, p in zip(actual, predicted):
        matrix[a, p] += 1
    return matrix


def auc_score(scores: np.ndarray, labels: np.ndarray) -> float:
    """Area under the ROC curve via the rank statistic (ties averaged)."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels, dtype=bool)
    n_pos = int(labels.sum())
    n_neg = labels.size - n_pos
    if n_pos == 0 or n_neg == 0:
        raise ConfigurationError("AUC needs both positive and negative labels")
    order = np.argsort(scores)
    ranks = np.empty(scores.size, dtype=np.float64)
    # Average ranks over ties.
    sorted_scores = scores[order]
    i = 0
    while i < scores.size:
        j = i
        while j + 1 < scores.size and sorted_scores[j + 1] == sorted_scores[i]:
            j += 1
        ranks[order[i : j + 1]] = (i + j) / 2.0 + 1.0
        i = j + 1
    return float((ranks[labels].sum() - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))
