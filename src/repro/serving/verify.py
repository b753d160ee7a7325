"""Per-answer verification: no wrong answer leaves the router.

Replicas are *untrusted* accelerators over the sealed store; the store's
content-addressed segments are the root of trust. :class:`AnswerVerifier`
is the one place that decides whether an answer a replica produced may be
handed to a caller, by re-deriving every claim it makes (rows, labels,
distances, order, hit count, label rows, cited index snapshot) from the
authoritative store.

It holds no router state and starts no thread: store and telemetry in,
one ``Optional[IndexIntegrityError]`` per answer out. What to do with a
failed answer (evict the replica, reroute the query) is the router's
business, not the verifier's.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from repro.errors import IndexIntegrityError
from repro.observability.adapter import SubsystemTelemetry
from repro.serving.segments import IndexGeneration, generation_lineage_error
from repro.serving.store import LinkageStore

__all__ = ["AnswerVerifier"]

# Lineage-verified snapshot digests kept for the per-answer fast path.
_TRUSTED_SNAPSHOTS = 128

# Per-hit failures, in the order a bad answer is blamed for them.
_DISTANCE_MISMATCH = ("served hit distance disagrees with the authoritative "
                      "store — replica index corruption")
_FOREIGN_LABEL = ("served hit is a stored row of another label — not a "
                  "neighbour within the queried class")
_DISORDERED = ("served hits are not strictly increasing in (distance, "
               "index) — reordered or repeated hits")

#: ``replica.index.generation``: snapshot digest -> adopted generation.
GenerationLookup = Callable[[str], Optional[IndexGeneration]]


def _pair_distances(queries: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """``cdist(queries[i:i+1], rows[i:i+1])[0, 0]`` for every ``i``, exactly.

    Every search path ranks with scipy's float64 ``cdist``, which widens
    both operands and adds the squared differences one dimension after
    another. This pass does the same arithmetic in the same order, so an
    honest distance compares ``==``. The order matters and is spelled
    out as a loop: numpy's ``sum`` adds pairwise along a contiguous axis
    (``sum(axis=1)``, or ``sum(axis=0)`` of a one-pair block), which
    rounds differently on a few percent of pairs.
    """
    squares = rows.T.astype(np.float64) - queries.T.astype(np.float64)
    squares *= squares
    total = squares[0].copy()
    for column in squares[1:]:
        total += column
    return np.sqrt(total)


class AnswerVerifier:
    """Re-derives every served answer from the authoritative store."""

    def __init__(self, store: LinkageStore,
                 telemetry: SubsystemTelemetry) -> None:
        self.store = store
        self.telemetry = telemetry
        # Index snapshots whose lineage already verified against the
        # authoritative store — the per-answer check then costs one dict
        # hit instead of a digest walk. Content-addressed, so one entry
        # covers every replica serving the same generation.
        self._trusted_lock = threading.Lock()
        self._trusted_snapshots: "OrderedDict[str, bool]" = OrderedDict()

    def verify(self, fingerprints: np.ndarray, answers: Sequence[tuple],
               labels: Sequence[int], k: int,
               generations: Sequence[GenerationLookup],
               ) -> List[Optional[IndexIntegrityError]]:
        """One verdict per answer; ``None`` means every check passed.

        ``fingerprints[i]`` is the query ``answers[i]`` claims to answer
        for ``labels[i]`` at ``k``; ``generations[i]`` resolves the
        snapshot it cites on the replica that produced it. The hit pass
        runs once over the whole batch; provenance is then checked for
        the answers that survived it, so a bad answer is counted in
        ``verify_failures`` exactly once. Answers making the same
        provenance claims share that check; its counters count each one.
        """
        verdicts = self._hit_errors(fingerprints, answers, labels)
        claims: Dict[tuple, List[int]] = {}
        for i, answer in enumerate(answers):
            if verdicts[i] is None:
                claims.setdefault((
                    generations[i], getattr(answer, "snapshot", None),
                    getattr(answer, "label_rows", None), int(labels[i]),
                    len(answer)), []).append(i)
        for (generation_of, _, _, label, _), members in claims.items():
            problem = self._provenance_error(
                answers[members[0]], label, int(k), generation_of,
                len(members))
            for i in members:
                verdicts[i] = problem
        return verdicts

    def _lineage_error(self, generation: IndexGeneration, answers: int
                       ) -> Optional[IndexIntegrityError]:
        """Walk a generation's lineage against the authoritative store.

        Verified snapshots are cached by digest (content-addressed, so
        one entry covers every replica serving the same generation);
        the walk itself recomputes the snapshot digest and checks the
        covered store digests are a committed prefix of the manifest."""
        snapshot = generation.snapshot
        if self._is_trusted(snapshot):
            return None
        problem = generation_lineage_error(generation, self.store)
        if problem is not None:
            self.telemetry.count("snapshot_failures", answers)
            return IndexIntegrityError(
                f"index snapshot failed the lineage walk: {problem}"
            )
        self.telemetry.count("snapshot_verifications")
        with self._trusted_lock:
            self._trusted_snapshots[snapshot] = True
            while len(self._trusted_snapshots) > _TRUSTED_SNAPSHOTS:
                self._trusted_snapshots.popitem(last=False)
        return None

    def _is_trusted(self, snapshot: str) -> bool:
        with self._trusted_lock:
            if snapshot not in self._trusted_snapshots:
                return False
            self._trusted_snapshots.move_to_end(snapshot)
            return True

    def _hit_errors(self, fingerprints: np.ndarray, answers: Sequence[tuple],
                    labels: Sequence[int]
                    ) -> List[Optional[IndexIntegrityError]]:
        """Re-derive every hit of every answer from the authoritative store.

        The replicas' in-memory matrices are untrusted copies; the mmap
        store (content-addressed, sealable) is the ground truth. A hit
        must cite a stored row of the queried label at exactly the
        distance the search kernel gives it, and an answer's hits must
        be strictly increasing in ``(distance, index)``, so none repeats.
        One store gather (rows and labels) + one distance pass for the
        whole batch, metering one verification per non-empty answer and
        one failure per bad answer.
        """
        verdicts: List[Optional[IndexIntegrityError]] = [None] * len(answers)
        counts = [len(hits) for hits in answers]
        checked = sum(1 for c in counts if c)
        if not checked:
            return verdicts
        self.telemetry.count("hit_verifications", checked)
        indices = np.array([h.index for hits in answers for h in hits],
                           dtype=np.int64)
        claimed = np.array([h.distance for hits in answers for h in hits],
                           dtype=np.float64)
        owner = np.repeat(np.arange(len(answers)), counts)
        # A hit may cite a record the store does not hold at all; gather
        # row 0 in its place and fail the answer regardless of distance.
        held = (indices >= 0) & (indices < len(self.store))
        rows, stored = self.store.fingerprints_at(np.where(held, indices, 0))
        queries = np.asarray(fingerprints, dtype=np.float32)[owner]
        follows = owner[1:] == owner[:-1]
        ascending = (claimed[1:] > claimed[:-1]) | (
            (claimed[1:] == claimed[:-1]) & (indices[1:] > indices[:-1]))
        failures = (
            (_DISTANCE_MISMATCH,
             ~held | (_pair_distances(queries, rows) != claimed)),
            (_FOREIGN_LABEL, stored != np.asarray(labels)[owner]),
            (_DISORDERED, np.append(False, follows & ~ascending)),
        )
        for reason, bad in failures:
            for position in np.unique(owner[bad]).tolist():
                if verdicts[position] is None:
                    verdicts[position] = IndexIntegrityError(reason)
        failed = len(answers) - verdicts.count(None)
        if failed:
            self.telemetry.count("verify_failures", failed)
        return verdicts

    def _provenance_error(self, hits: tuple, label: int, k: int,
                          generation_of: GenerationLookup, answers: int
                          ) -> Optional[IndexIntegrityError]:
        """Check an answer's provenance claims, not just its hits.

        The verdict stands for ``answers`` answers making the same
        claims, and the counters count each of them. The checks:

        * the answer must carry provenance at all (``label_rows`` and
          ``snapshot``) — one without it fails closed;
        * explicit hit count: ``len(hits)`` must equal
          ``min(k, label_rows)`` — a short shard is legitimate only when
          the answer *says* the label held fewer than ``k`` rows;
        * the claimed ``label_rows`` must match the cited generation and
          never exceed what the authoritative store holds;
        * the cited index snapshot must exist on the replica and pass
          the lineage walk against the store manifest."""

        def failed(reason: str) -> IndexIntegrityError:
            self.telemetry.count("verify_failures", answers)
            return IndexIntegrityError(reason)

        label_rows = getattr(hits, "label_rows", None)
        snapshot = getattr(hits, "snapshot", None)
        if label_rows is None or snapshot is None:
            # Every answer a ShardedAnnIndex-backed engine produces carries
            # both; one without them would skip every check below, so a
            # replica that strips provenance is treated as corrupt.
            return failed(
                "answer carries no provenance (index snapshot / label "
                "rows) — nothing to verify it against")
        label_rows = int(label_rows)
        if len(hits) != min(k, label_rows):
            return failed(
                f"answer carries {len(hits)} hits but claims "
                f"{label_rows} rows for label {label} at k={k} — "
                "short or padded answer")
        if label_rows > self.store.count(label):
            return failed(
                f"answer claims more label-{label} rows than the "
                "authoritative store holds")
        generation = generation_of(snapshot)
        if generation is None:
            # The replica keeps only a bounded generation history, so an
            # answer produced just before many rapid adoptions can cite a
            # legitimately pruned snapshot. If this verifier already
            # lineage-verified that snapshot against the authoritative
            # store, the citation is proven without the replica — the
            # remaining claims (hit count and label_rows bound above,
            # rows, labels, distances and order elsewhere) are checked
            # against the store itself. Only an unknown AND unverifiable
            # snapshot is an integrity failure.
            if not self._is_trusted(snapshot):
                return failed(
                    "answer cites an index snapshot the replica cannot "
                    "produce and the cluster has never verified")
            self.telemetry.count("trusted_snapshot_answers", answers)
            return None
        if generation.count(label) != label_rows:
            return failed(
                f"answer claims {label_rows} rows for label {label} but "
                f"its cited generation holds {generation.count(label)}")
        return self._lineage_error(generation, answers)
