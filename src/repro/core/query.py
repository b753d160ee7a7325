"""The misprediction query stage (paper, Sections IV-C and VI-D).

A model user who hits an erroneous prediction passes the problematic input
through the model, obtains its label ``Y`` and fingerprint ``F``, and asks
for the closest training fingerprints *within class Y*
(L2 distance). The resulting candidates' sources point at the participants
to summon for the forensic stage.

:func:`exact_top_k` is the one place that ranking is decided: the serving
index's brute shards, the cluster's degraded fallback and every full scan
over :meth:`~repro.serving.store.LinkageStore.by_label` call it, so every
path that can produce a forensic answer orders near-ties identically.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np
from scipy.spatial.distance import cdist

__all__ = ["exact_top_k"]


def exact_top_k(batch: np.ndarray, matrix: np.ndarray,
                k: int) -> Tuple[np.ndarray, np.ndarray]:
    """Rank every row of ``matrix`` against every query in ``batch``.

    Returns ``(positions, distances)``, both ``(len(batch), min(k, rows))``:
    ``positions`` are row numbers into ``matrix``, nearest first, and
    ``distances`` the matching float64 L2 distances. The sort is stable, so
    equal-distance rows rank in row (insertion) order and forensics reports
    are reproducible run to run. Callers map positions to their own record
    ids and wrap their own hit type.
    """
    distances = cdist(batch, matrix)
    positions = np.argsort(distances, axis=1, kind="stable")[
        :, :min(k, matrix.shape[0])]
    return positions, np.take_along_axis(distances, positions, axis=1)
