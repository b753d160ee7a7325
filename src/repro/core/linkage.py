"""The 4-tuple linkage structure Omega = [F, Y, S, H].

For every training instance CalTrain records:

* ``F`` — the one-way fingerprint (penultimate-layer embedding),
* ``Y`` — the class label under the trained model,
* ``S`` — the data source (contributing participant),
* ``H`` — the hash digest of the instance, for later integrity checks.

Y narrows queries to one class, S attributes instances to contributors, H
verifies that an instance a participant later turns in is bit-identical to
what was trained on. The fingerprint stage emits the tuples as one frozen
:class:`LinkageTable`; :class:`~repro.serving.store.LinkageStore` is their
one persistent home, and every store segment is committed by
:func:`segment_digest` over exactly the bytes :meth:`LinkageTable.metadata`
writes — so the fingerprint stage's audit commitment and the store's
segment digest are the same value.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.errors import LinkageError
from repro.utils.serialization import canonical_digest, canonical_json

__all__ = ["LinkageRecord", "LinkageTable", "instance_digest",
           "segment_digest"]


def instance_digest(image: np.ndarray) -> bytes:
    """The canonical hash digest ``H`` of one training instance."""
    return canonical_digest(image)


def segment_digest(fingerprints: np.ndarray, metadata: bytes) -> str:
    """Hex SHA-256 over a float32 fingerprint matrix ‖ its metadata JSON."""
    return canonical_digest(fingerprints, metadata).hex()


@dataclass(frozen=True)
class LinkageRecord:
    """One Omega tuple plus bookkeeping for evaluation.

    ``source_index`` is the instance's index within its contributor's local
    dataset (what a contributor is asked to disclose);
    ``kind`` is ground-truth metadata used only by the evaluation harness
    (``"normal"``, ``"poisoned"``, ``"mislabeled"``) — a deployment would
    not have it.
    """

    fingerprint: np.ndarray
    label: int
    source: str
    digest: bytes
    source_index: int = -1
    kind: str = "normal"


@dataclass(frozen=True)
class LinkageTable:
    """Omega tuples as columns, one row per fingerprinted instance.

    Columns are coerced (float32 ``(n, d)`` fingerprints, int64 labels and
    source indices, tuples of strings and digests) and length-checked once,
    here; ``source_indices`` defaults to -1 and ``kinds`` to ``"normal"``.
    """

    fingerprints: np.ndarray
    labels: Sequence[int]
    sources: Sequence[str]
    digests: Sequence[bytes]
    source_indices: Optional[Sequence[int]] = None
    kinds: Optional[Sequence[str]] = None

    def __post_init__(self) -> None:
        fingerprints = np.ascontiguousarray(
            np.asarray(self.fingerprints, dtype=np.float32))
        if fingerprints.ndim != 2:
            raise LinkageError("fingerprints must be an (n, d) matrix")
        n = fingerprints.shape[0]
        columns = {
            "labels": np.asarray(self.labels, dtype=np.int64).reshape(-1),
            "sources": tuple(str(s) for s in self.sources),
            "digests": tuple(bytes(d) for d in self.digests),
            "source_indices": (
                np.full(n, -1, dtype=np.int64) if self.source_indices is None
                else np.asarray(self.source_indices,
                                dtype=np.int64).reshape(-1)),
            "kinds": (("normal",) * n if self.kinds is None
                      else tuple(str(k) for k in self.kinds)),
        }
        for name, column in columns.items():
            if len(column) != n:
                raise LinkageError(
                    f"{name} has {len(column)} entries for {n} records")
            object.__setattr__(self, name, column)
        object.__setattr__(self, "fingerprints", fingerprints)

    def __len__(self) -> int:
        return self.fingerprints.shape[0]

    @property
    def dimension(self) -> int:
        return self.fingerprints.shape[1]

    def slice(self, start: int, stop: int) -> "LinkageTable":
        """Rows ``[start, stop)`` as a table of column views."""
        return LinkageTable(
            self.fingerprints[start:stop], self.labels[start:stop],
            self.sources[start:stop], self.digests[start:stop],
            self.source_indices[start:stop], self.kinds[start:stop],
        )

    def metadata(self) -> bytes:
        """The canonical-JSON sidecar a store segment of these rows holds."""
        return canonical_json({
            "labels": self.labels.tolist(),
            "sources": list(self.sources),
            "digests": [d.hex() for d in self.digests],
            "source_indices": self.source_indices.tolist(),
            "kinds": list(self.kinds),
        })
