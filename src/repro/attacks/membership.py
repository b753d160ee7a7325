"""Membership inference (Shokri et al., S&P 2017).

Section VII argues membership inference's prerequisite (the adversary
already holds the candidate record) fails in CalTrain, and that DP-SGD
limits it anyway. This module measures the confidence-threshold variant
(:func:`membership_scores`, :func:`membership_inference_auc`): members
score higher than non-members on overfit models.
"""

from __future__ import annotations

import numpy as np

from repro.analysis.metrics import auc_score
from repro.nn.network import Network

__all__ = ["membership_scores", "membership_inference_auc"]


def membership_scores(model: Network, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Per-instance attack score: confidence assigned to the true label."""
    probs = model.predict(x)
    return probs[np.arange(y.shape[0]), y]


def membership_inference_auc(model: Network,
                             member_x: np.ndarray, member_y: np.ndarray,
                             nonmember_x: np.ndarray, nonmember_y: np.ndarray,
                             ) -> float:
    """AUC of distinguishing members from non-members (0.5 = no leakage)."""
    scores = np.concatenate([
        membership_scores(model, member_x, member_y),
        membership_scores(model, nonmember_x, nonmember_y),
    ])
    labels = np.concatenate([
        np.ones(member_y.shape[0], dtype=bool),
        np.zeros(nonmember_y.shape[0], dtype=bool),
    ])
    return auc_score(scores, labels)
