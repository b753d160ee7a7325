"""The misprediction query stage (paper, Sections IV-C and VI-D).

A model user who hits an erroneous prediction passes the problematic input
through the model, obtains its label ``Y`` and fingerprint ``F``, and asks
the query service for the closest training fingerprints *within class Y*
(L2 distance). The resulting candidates' sources point at the participants
to summon for the forensic stage.

:func:`exact_top_k` is the one place that ranking is decided: the in-memory
:class:`QueryService`, the serving index's brute shards and the cluster's
degraded fallback all call it, so every path that can produce a forensic
answer orders near-ties identically.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np
from scipy.spatial.distance import cdist

from repro.core.linkage import LinkageDatabase, LinkageRecord
from repro.errors import QueryError

__all__ = ["Neighbor", "QueryService", "exact_top_k"]


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


@dataclass(frozen=True)
class Neighbor:
    """One nearest-neighbour hit."""

    rank: int
    distance: float
    record_index: int
    record: LinkageRecord


class QueryService:
    """Exact nearest-fingerprint queries over the in-memory linkage database.

    A brute-force scan of the whole class on purpose (the paper's SciPy
    implementation): it is the reference the serving index and engine are
    tested against, so it must not depend on them. The sublinear exact
    path for large stores is :class:`~repro.serving.index.ShardedAnnIndex`.
    """

    def __init__(self, database: LinkageDatabase) -> None:
        self.database = database

    def query(self, fingerprint: np.ndarray, label: int, k: int = 9) -> List[Neighbor]:
        """The ``k`` closest same-label training instances, nearest first."""
        fingerprint = np.asarray(fingerprint, dtype=np.float32).reshape(1, -1)
        return self.query_batch(fingerprint, [label], k)[0]

    def query_batch(self, fingerprints: np.ndarray, labels: Sequence[int],
                    k: int = 9) -> List[List[Neighbor]]:
        """Query several mispredictions at once.

        Queries are grouped by label and answered with one vectorized
        distance computation per group; output order, ranking, and
        tie-breaking are identical to querying one at a time.
        """
        if k < 1:
            raise QueryError("k must be >= 1")
        fingerprints = np.asarray(fingerprints, dtype=np.float32)
        n = fingerprints.shape[0]
        fingerprints = fingerprints.reshape(n, -1)
        if len(labels) != n:
            raise QueryError(
                f"{n} fingerprints but {len(labels)} labels in batch"
            )
        groups: Dict[int, List[int]] = {}
        for position, label in enumerate(labels):
            groups.setdefault(int(label), []).append(position)
        results: List[Optional[List[Neighbor]]] = [None] * n
        for label, positions in groups.items():
            batch = fingerprints[positions]
            matrix, indices = self.database.by_label(label)
            if matrix.shape[0] == 0:
                raise QueryError(
                    f"no training fingerprints recorded for label {label}"
                )
            if batch.shape[1] != matrix.shape[1]:
                raise QueryError(
                    f"fingerprint dimension {batch.shape[1]} does not match "
                    f"database dimension {matrix.shape[1]}"
                )
            order, distances = exact_top_k(batch, matrix, k)
            for row, position in enumerate(positions):
                results[position] = [
                    Neighbor(
                        rank=rank + 1,
                        distance=float(distances[row, rank]),
                        record_index=indices[i],
                        record=self.database.record(indices[i]),
                    )
                    for rank, i in enumerate(order[row])
                ]
        return results  # type: ignore[return-value]
