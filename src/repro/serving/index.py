"""Per-label sharded ANN index — a generation of immutable segments.

Every query is label-scoped (the paper only searches within class ``Y``),
so the natural sharding key is the label. The leaf structures live in
:mod:`repro.serving.segments`: each label shard is either a **brute
shard** (below ``shard_threshold`` records: one dense matrix, exact
distances) or a **clustered shard** (coarse k-means buckets with
per-bucket centroids and radii; a query ranks buckets by centroid
distance and re-ranks candidates with exact L2).

Candidates are selected by triangle-inequality pruning. A bucket with
centroid ``c`` and radius ``r`` (the largest float64 ``cdist`` from ``c``
to a member) can only contain a top-k hit if ``d(q, c) - r <= ub_k`` (up
to a few ulps of rounding slack), where ``ub_k`` is a proven upper bound
on the k-th nearest distance. Pruned points are *strictly* farther than
the k-th neighbour, so top-k membership — and, with the stable
insertion-order tie-break, the exact ordering and every float64
distance — is identical to brute force. A query has exactly one correct
answer, which is what lets the cluster check a replica's answer with
``==``.

What changed with the incremental rewrite: the index no longer fails
closed when the store grows. :meth:`ShardedAnnIndex.build` makes one
full-coverage segment; :meth:`ShardedAnnIndex.refresh` builds segments
only for *newly committed* store segments and atomically adopts a new
:class:`~repro.serving.segments.IndexGeneration`; ``search_batch`` pins
the generation it starts on (snapshot isolation), and a background
compactor (:meth:`start_compaction`) keeps per-query segment fan-out
bounded by merging one adjacent pair per step.
:class:`~repro.errors.StaleIndexError` is reserved for genuine digest
mismatch — a covered store segment whose content no longer matches what
the index was built against.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Dict, List, Optional

import numpy as np

from repro.errors import ConfigurationError, QueryError, StaleIndexError
from repro.serving.segments import (IndexGeneration, IndexHit, IndexSegment,
                                    SegmentBuildParams, ShardSearchResult,
                                    _BruteShard, _ClusteredShard,
                                    generation_lineage_error, merge_segments,
                                    plan_merge)
from repro.serving.store import LinkageStore

__all__ = ["IndexHit", "ShardSearchResult", "ShardedAnnIndex"]

# How many adopted generations to keep addressable by snapshot digest —
# enough for the cluster to verify answers produced just before an
# adoption without re-deriving anything.
_GENERATION_HISTORY = 16


class ShardedAnnIndex:
    """The per-label sharded index over a linkage store.

    Args:
        store: the :class:`~repro.serving.store.LinkageStore` to index;
            its committed segments are the unit of build, refresh and
            lineage verification.
        shard_threshold: labels with fewer records stay brute-force.
        buckets_per_shard: number of k-means buckets, or ``None`` for
            ``ceil(sqrt(n))`` per shard.
        seed: k-means initialisation seed (build is deterministic).
        max_segments: per-query segment fan-out bound; the compactor
            merges the cheapest adjacent pair whenever it is exceeded.
        compaction_interval_s: background compactor poll interval.
    """

    def __init__(self, store: LinkageStore, shard_threshold: int = 2048,
                 buckets_per_shard: Optional[int] = None, seed: int = 0,
                 kmeans_iterations: int = 6,
                 kmeans_sample: int = 20000,
                 max_segments: int = 8,
                 compaction_interval_s: float = 0.05) -> None:
        if shard_threshold < 1:
            raise ConfigurationError("shard_threshold must be >= 1")
        if max_segments < 1:
            raise ConfigurationError("max_segments must be >= 1")
        self.store = store
        self.shard_threshold = shard_threshold
        self.buckets_per_shard = buckets_per_shard
        self.seed = seed
        self.kmeans_iterations = kmeans_iterations
        self.kmeans_sample = kmeans_sample
        self.max_segments = max_segments
        self.compaction_interval_s = compaction_interval_s
        self.built_version: Optional[int] = None
        self._built = False
        # The live generation: one attribute read pins a consistent
        # snapshot for a whole query — adoption swaps the reference
        # atomically under _mutate_lock, never mutates in place.
        self._generation: Optional[IndexGeneration] = None
        self._generations: "OrderedDict[str, IndexGeneration]" = OrderedDict()
        self._mutate_lock = threading.RLock()
        self._next_ordinal = 0
        # Work accounting the growth benchmarks assert on.
        self.full_builds = 0
        self.refreshes = 0
        self.compactions = 0
        self.compaction_failures = 0
        self._compactor: Optional[threading.Thread] = None
        self._compact_stop = threading.Event()

    # -- build / refresh ---------------------------------------------------------

    def build_params(self) -> SegmentBuildParams:
        return SegmentBuildParams(
            shard_threshold=self.shard_threshold,
            buckets_per_shard=self.buckets_per_shard,
            seed=self.seed,
            kmeans_iterations=self.kmeans_iterations,
            kmeans_sample=self.kmeans_sample,
        )

    def _adopt(self, segments, params: SegmentBuildParams) -> IndexGeneration:
        with self._mutate_lock:
            generation = IndexGeneration(
                segments, params,
                store_version=segments[-1].stop if segments else 0,
                ordinal=self._next_ordinal,
            )
            self._next_ordinal += 1
            self._generations[generation.snapshot] = generation
            while len(self._generations) > _GENERATION_HISTORY:
                self._generations.popitem(last=False)
            self._generation = generation
            self.built_version = generation.store_version
            self._built = True
            return generation

    def build(self) -> "ShardedAnnIndex":
        """(Re)build from scratch: one segment covering the whole store.

        Kept for bootstrap and for genuine history rewrites; steady-state
        growth goes through :meth:`refresh` instead.
        """
        params = self.build_params()
        with self._mutate_lock:
            total = self.store.segment_count
            segment = IndexSegment.build(self.store, 0, total, params)
            segments = (segment,) if total else ()
            self._adopt(segments, params)
            self.full_builds += 1
        return self

    def copy_from(self, source: "ShardedAnnIndex") -> "ShardedAnnIndex":
        """Bootstrap from a private deep copy of ``source``'s live generation.

        The k-means build is a pure function of the store and the params
        (same inputs, same address), so a replica whose params equal an
        already built index's need not repeat it. The copy owns every
        array, keeps each segment's content address and build-time
        checksums, and is adopted only if its lineage is a committed
        prefix of *this* index's store. Counted as this index's one full
        build.
        """
        params = self.build_params()
        with self._mutate_lock:
            generation = source._generation
            if generation is None:
                raise QueryError("source index not built — call build() first")
            if generation.params != params:
                raise ConfigurationError(
                    "cannot copy an index built with other params: "
                    f"{generation.params.payload()} != {params.payload()}")
            problem = generation_lineage_error(generation, self.store)
            if problem is not None:
                raise StaleIndexError(problem)
            self._adopt(tuple(seg.copy() for seg in generation.segments),
                        params)
            self.full_builds += 1
        return self

    def refresh(self) -> bool:
        """Adopt newly committed store segments without a full rebuild.

        Verifies the covered history prefix first — a digest mismatch is
        a genuine rewrite and raises :class:`StaleIndexError`; benign
        growth builds index segments for the new store segments only and
        atomically adopts the extended generation. Returns ``True`` when
        a new generation was adopted.
        """
        with self._mutate_lock:
            generation = self._generation
            if generation is None:
                raise QueryError("index not built — call build() first")
            problem = generation_lineage_error(generation, self.store)
            if problem is not None:
                raise StaleIndexError(problem)
            covered = generation.covered_store_segments
            total = self.store.segment_count
            if total == covered:
                return False
            segment = IndexSegment.build(
                self.store, covered, total, generation.params
            )
            self._adopt(generation.segments + (segment,), generation.params)
            self.refreshes += 1
        return True

    def store_prefix_ok(self) -> bool:
        """Is the covered history still a committed prefix of the store?

        ``True`` means any staleness is benign growth (refresh repairs
        it); ``False`` means genuine divergence (integrity failure)."""
        generation = self._generation
        if generation is None:
            return True
        try:
            return generation_lineage_error(generation, self.store) is None
        except Exception:
            return False

    # -- compaction --------------------------------------------------------------

    def _compact_step(self) -> bool:
        """One bounded unit of compaction; returns True if work was done.

        The merged segment is built *outside* the mutate lock (a label
        above ``shard_threshold`` re-runs k-means over the merged rows)
        and adopted under it only if the pair is still live — refresh
        appends at the tail, so positions of existing segments never
        shift underneath the build.
        """
        with self._mutate_lock:
            generation = self._generation
            if generation is None:
                return False
            pos = plan_merge(generation.segments, self.max_segments)
            if pos is None:
                return False
            left, right = generation.segments[pos], generation.segments[pos + 1]
            params = generation.params
        merged = merge_segments(self.store, left, right, params)
        with self._mutate_lock:
            current = self._generation
            segs = list(current.segments)
            try:
                i = segs.index(left)
            except ValueError:
                return True  # pair superseded by a concurrent adoption
            if i + 1 >= len(segs) or segs[i + 1] is not right:
                return True
            segs[i:i + 2] = [merged]
            self._adopt(tuple(segs), params)
            self.compactions += 1
        return True

    def compact_now(self, max_steps: Optional[int] = None) -> int:
        """Run compaction steps until fan-out is bounded; returns steps."""
        steps = 0
        while max_steps is None or steps < max_steps:
            if not self._compact_step():
                break
            steps += 1
        return steps

    def start_compaction(self) -> None:
        """Start the background merge thread (idempotent)."""
        with self._mutate_lock:
            if self._compactor is not None and self._compactor.is_alive():
                return
            self._compact_stop = threading.Event()
            self._compactor = threading.Thread(
                target=self._compaction_loop, name="index-compactor",
                daemon=True,
            )
            self._compactor.start()

    def stop_compaction(self) -> None:
        thread = self._compactor
        if thread is None:
            return
        self._compact_stop.set()
        thread.join(timeout=5.0)
        self._compactor = None

    def _compaction_loop(self) -> None:
        while not self._compact_stop.wait(self.compaction_interval_s):
            try:
                while not self._compact_stop.is_set():
                    if not self._compact_step():
                        break
            except Exception:
                # A merge that dies before adoption leaves the old
                # generation live; the compactor tries again next tick.
                self.compaction_failures += 1

    # -- identity / integrity ----------------------------------------------------

    @property
    def snapshot_digest(self) -> Optional[str]:
        """Hex index-snapshot digest of the live generation."""
        generation = self._generation
        return None if generation is None else generation.snapshot

    @property
    def covered_store_segments(self) -> Optional[int]:
        """Store segments the live generation covers (None before build).

        This — not the store's manifest version counter — is the scale
        growth and rewrite checks compare on: the two coincide today only
        because ``version`` increments exactly once per append, and any
        future non-append manifest bump would silently skew a
        version-based comparison."""
        generation = self._generation
        return (None if generation is None
                else generation.covered_store_segments)

    def generation(self, snapshot: str) -> Optional[IndexGeneration]:
        """Look up a recently adopted generation by its snapshot digest."""
        # _adopt move_to_end/popitem()s this OrderedDict under the mutate
        # lock; take the same (re-entrant) lock here rather than leaning
        # on CPython GIL atomicity for a concurrent get.
        with self._mutate_lock:
            return self._generations.get(snapshot)

    def label_digest(self, label: int) -> Optional[str]:
        """Per-label content digest (cache key), or None if unindexed.

        Derived from the store segments holding the label — compaction
        re-partitions index segments without moving it, so cached answers
        for labels that gained no rows stay warm across growth."""
        generation = self._generation
        if generation is None:
            return None
        return generation.label_digests.get(int(label))

    def verify_checksums(self) -> None:
        """Re-verify every shard matrix against its build-time checksum.

        Raises :class:`~repro.errors.IndexIntegrityError` on drift. This
        is the replica-side defence against silent in-memory corruption:
        the mmap store has content-addressed segment digests, but the
        index's private matrix copies do not — a flipped byte here would
        otherwise shift distances and quietly reorder top-k answers."""
        generation = self._generation
        if generation is not None:
            generation.verify_checksums()

    @property
    def dimension(self) -> Optional[int]:
        """Fingerprint dimension this index serves (None for an empty store)."""
        return self.store.dimension

    # -- search ------------------------------------------------------------------

    def shard_kind(self, label: int) -> str:
        generation = self._generation
        if generation is None:
            return "missing"
        kinds = set()
        for seg in generation.segments:
            shard = seg.shards.get(int(label))
            if shard is not None:
                kinds.add("brute" if isinstance(shard, _BruteShard)
                          else "clustered")
        if not kinds:
            return "missing"
        return kinds.pop() if len(kinds) == 1 else "mixed"

    def labels(self) -> List[int]:
        generation = self._generation
        return [] if generation is None else generation.labels()

    def search_batch(self, batch: np.ndarray, label: int,
                     k: int = 9) -> ShardSearchResult:
        """Answer a coalesced same-label batch with one vectorized pass.

        Snapshot-isolated: the generation is pinned by a single atomic
        read, so concurrent refresh/compaction cannot change this
        query's answer set mid-flight. Benign growth never raises —
        only a store history *rewrite* under the covered prefix does,
        and that is detected at refresh/health-sweep time."""
        generation = self._generation
        if generation is None:
            raise QueryError("index not built — call build() first")
        if k < 1:
            raise QueryError("k must be >= 1")
        # Compare covered-segment counts, not the manifest version
        # counter: a non-append version bump (format migration, reseal,
        # metadata rewrite) must neither strand the index as permanently
        # "behind" nor mask a genuine history truncation.
        total = self.store.segment_count
        if total < generation.covered_store_segments:
            raise StaleIndexError(
                f"store history went backwards under the index: the "
                f"generation covers {generation.covered_store_segments} "
                f"store segments but the store holds {total} — "
                "rewrite, not growth"
            )
        batch = np.asarray(batch, dtype=np.float32)
        batch = batch.reshape(batch.shape[0] if batch.ndim > 1 else 1, -1)
        dimension = self.dimension
        if dimension is not None and batch.shape[1] != dimension:
            raise QueryError(
                f"fingerprint dimension {batch.shape[1]} does not match "
                f"index dimension {dimension}"
            )
        return generation.search_batch(batch, label, k)

    def search(self, fingerprint: np.ndarray, label: int,
               k: int = 9) -> List[IndexHit]:
        """Single-query convenience wrapper around :meth:`search_batch`."""
        return self.search_batch(
            np.asarray(fingerprint, dtype=np.float32).reshape(1, -1), label, k
        ).hits[0]

    def stats(self) -> Dict[str, object]:
        """Per-shard composition summary (for CLI / telemetry surfaces)."""
        generation = self._generation
        shards: Dict[int, Dict[str, object]] = {}
        if generation is not None:
            for label in generation.labels():
                per = [seg.shards[label] for seg in generation.segments
                       if label in seg.shards]
                kind = self.shard_kind(label)
                entry: Dict[str, object] = {
                    "rows": generation.count(label),
                    "kind": kind,
                    "segments": len(per),
                }
                clustered = [s for s in per
                             if isinstance(s, _ClusteredShard)]
                if clustered and kind in ("clustered", "mixed"):
                    entry["buckets"] = sum(len(s.buckets) for s in clustered)
                    entry["mean_radius"] = float(np.mean(
                        np.concatenate([s.radii for s in clustered])
                    ))
                shards[int(label)] = entry
        return {
            "labels": len(shards),
            "built_version": self.built_version,
            "segments": 0 if generation is None else generation.segment_count,
            "generation": None if generation is None else generation.ordinal,
            "snapshot": None if generation is None else generation.snapshot,
            "shards": shards,
        }
