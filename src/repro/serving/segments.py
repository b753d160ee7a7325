"""Immutable LSM-style index segments and snapshot-isolated generations.

The monolithic ``ShardedAnnIndex`` rebuild punished benign ingest growth
exactly like corruption: one committed store segment bumped
``LinkageStore.version`` and every replica failed closed with
:class:`~repro.errors.StaleIndexError`. This module makes the index
incremental instead:

* an :class:`IndexSegment` is an immutable per-label shard set built from
  a contiguous run of committed :class:`~repro.serving.store.LinkageStore`
  segments, content-addressed over the store-segment digests it covers
  plus the :class:`SegmentBuildParams` that shaped it;
* an :class:`IndexGeneration` is an ordered, contiguous tuple of index
  segments committed by an **index-snapshot digest**
  (ordered covered store digests ⊕ ordered index-segment digests ⊕ build
  params) — the serving-side analogue of the content-addressed
  ``dataset_id`` idiom: a replica can prove exactly which data generation
  answered a query, and the cluster can re-derive the digest from the
  authoritative store without trusting the replica;
* queries pin the generation they started on (snapshot isolation — a
  concurrent refresh or compaction never changes an in-flight answer),
  and :func:`plan_merge` + :func:`merge_segments` give the background
  compactor bounded work units (one adjacent pair each) that keep
  per-query segment fan-out — and therefore p99 — bounded during growth
  storms.

Parity with a from-scratch build is structural, not
statistical: per-pair L2 distances do not depend on how the row matrix is
partitioned, and :meth:`IndexGeneration.search_batch` merges per-part
top-k by the explicit key (distance, ascending global index).
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np
from scipy.spatial.distance import cdist

from repro.core.query import exact_top_k
from repro.errors import ConfigurationError, IndexIntegrityError, QueryError
from repro.utils.serialization import canonical_digest

__all__ = [
    "IndexHit", "ShardSearchResult", "SegmentBuildParams", "IndexSegment",
    "IndexGeneration", "plan_merge", "merge_segments",
    "generation_lineage_error",
]


class IndexHit(NamedTuple):
    """One nearest-neighbour hit: global record index + exact L2 distance."""

    index: int
    distance: float


@dataclass
class ShardSearchResult:
    """Results for one batched search plus work accounting.

    ``shard_rows`` is the number of rows a brute-force scan of the label
    would have touched *in the answering snapshot* — when a label holds
    fewer than ``requested_k`` rows the answer is legitimately short, and
    carrying both numbers makes that explicit instead of leaving callers
    to assume ``len(hits) == k``. ``snapshot`` is the index-snapshot hex
    digest of the generation that answered (``None`` for bare shards).
    """

    hits: List[List[IndexHit]]
    candidates_scanned: int  # exact distance evaluations performed
    shard_rows: int          # label rows in the answering snapshot
    requested_k: Optional[int] = None
    snapshot: Optional[str] = None
    ids: Optional[np.ndarray] = None        # (q, k') int64, as ``hits``
    distances: Optional[np.ndarray] = None  # (q, k') float64, as ``hits``


@dataclass(frozen=True)
class SegmentBuildParams:
    """Everything that shapes a build, hashed into every segment digest.

    Two segments over the same store rows with the same params are
    byte-equivalent answers; a params change is a new content address,
    never a silent in-place change.
    """

    shard_threshold: int = 2048
    buckets_per_shard: Optional[int] = None
    seed: int = 0
    kmeans_iterations: int = 6
    kmeans_sample: int = 20000

    def __post_init__(self) -> None:
        if self.shard_threshold < 1:
            raise ConfigurationError("shard_threshold must be >= 1")

    def payload(self) -> Dict[str, object]:
        return {
            "shard_threshold": int(self.shard_threshold),
            "buckets_per_shard": (None if self.buckets_per_shard is None
                                  else int(self.buckets_per_shard)),
            "seed": int(self.seed),
            "kmeans_iterations": int(self.kmeans_iterations),
            "kmeans_sample": int(self.kmeans_sample),
        }

    def digest(self) -> str:
        return canonical_digest({"index-build-params": self.payload()}).hex()


# -- per-label shards (the leaf search structures) ------------------------------


class _BruteShard:
    """Rows below ``shard_threshold``; scanned whole, stacked per label."""

    def __init__(self, matrix: np.ndarray, indices: np.ndarray) -> None:
        self.matrix = matrix
        self.indices = indices

    @property
    def rows(self) -> int:
        return self.matrix.shape[0]

    def copy(self) -> "_BruteShard":
        return _BruteShard(self.matrix.copy(), self.indices.copy())


class _ClusteredShard:
    """Coarse k-means buckets over one label's fingerprints."""

    def __init__(self, matrix: np.ndarray, indices: np.ndarray,
                 centroids: np.ndarray, buckets: List[np.ndarray],
                 radii: np.ndarray) -> None:
        self.matrix = matrix
        self.indices = indices
        self.centroids = centroids
        self.buckets = buckets  # per bucket: row ids into matrix, ascending
        self.radii = radii
        self.sizes = np.array([len(b) for b in buckets], dtype=np.int64)

    @property
    def rows(self) -> int:
        return self.matrix.shape[0]

    def copy(self) -> "_ClusteredShard":
        return _ClusteredShard(self.matrix.copy(), self.indices.copy(),
                               self.centroids.copy(),
                               [bucket.copy() for bucket in self.buckets],
                               self.radii.copy())

    def _candidate_mask(self, dc: np.ndarray, k: int) -> np.ndarray:
        """(q, m) bool — which buckets each query must scan.

        The prune cannot drop a top-k row. ``cdist``'s value ``δ`` is
        within ``η·D`` of the true distance ``D``, ``η = (d + 4)·u``,
        ``u = 2⁻⁵³`` (:func:`_nearest`), and a radius is ``max δ(member,
        centroid)``. The triangle inequality on ``D`` then puts every row
        of a bucket at ``δ(q, x) ≥ lower − (2η + u)·dc`` and at least k
        rows at ``δ(q, y) ≤ ub_k·(1 + 2η + 2u)``, so a bucket dropped
        because ``lower > ub_k + τ·(dc + ub_k)``, ``τ = (4d + 16)·u``
        (twice what that needs), holds only rows strictly farther than
        the k-th: brute force over the same ``δ`` ranks none of them.
        """
        q = dc.shape[0]
        k_eff = min(k, self.rows)
        # Bound the k-th nearest distance from above with the
        # smallest-upper-bound buckets jointly holding >= k points, then
        # keep every bucket whose lower bound does not exceed it.
        upper = dc + self.radii[None, :]
        lower = np.maximum(dc - self.radii[None, :], 0.0)
        order = np.argsort(upper, axis=1, kind="stable")
        cum = np.cumsum(self.sizes[order], axis=1)
        # First column where the cumulative bucket population reaches k.
        first = np.argmax(cum >= k_eff, axis=1)
        ub_k = upper[np.arange(q), order[np.arange(q), first]][:, None]
        tau = (4 * self.centroids.shape[1] + 16) * np.finfo(np.float64).eps / 2
        return lower <= ub_k + tau * (dc + ub_k)

    def search(self, batch: np.ndarray, k: int, tail: "_BruteShard"
               ) -> Tuple[np.ndarray, np.ndarray, int]:
        """Top ``min(k, rows + tail.rows)`` of every query over its *own*
        candidates plus every ``tail`` row.

        Returns ``(global ids, float64 distances, pairs scanned)``, rows
        ordered by (distance, ascending global id). The tail is scanned
        by one block ``cdist``; own candidates never by one ``cdist``
        over the block's union, which computes every pair some *other*
        query needed and grows quadratically with the block.

        Exact: the prune keeps every row of this shard's own top k
        (:meth:`_candidate_mask`), and extra candidates can only lower
        the combined k-th, so every own row the combined top k holds
        survives it. A pair's ``cdist`` value does not depend on what
        else is in the call, and the rank key (distance, global id) is
        explicit, so neither the order candidates are gathered in nor
        the tail's place among them can change an answer.
        """
        k_eff = min(k, self.rows + tail.rows)
        mask = self._candidate_mask(cdist(batch, self.centroids), k)
        near_tail = cdist(batch, tail.matrix)
        ids = np.empty((batch.shape[0], k_eff), dtype=np.int64)
        distances = np.empty((batch.shape[0], k_eff), dtype=np.float64)
        scanned = batch.shape[0] * tail.rows
        for row in range(batch.shape[0]):
            rows = np.concatenate(
                [self.buckets[b] for b in mask[row].nonzero()[0]])
            scanned += rows.shape[0]
            found = np.concatenate((self.indices[rows], tail.indices))
            own = np.concatenate((cdist(batch[row:row + 1],
                                        self.matrix.take(rows, axis=0))[0],
                                  near_tail[row]))
            # Everything up to the k-th smallest distance, ties included,
            # then ranked by the explicit key.
            near = (own <= np.partition(own, k_eff - 1)[k_eff - 1]).nonzero()[0]
            order = near[np.lexsort((found[near], own[near]))[:k_eff]]
            ids[row] = found[order]
            distances[row] = own[order]
        return ids, distances, scanned


def _nearest(points: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """``np.argmin(cdist(points, centroids), axis=1)``, from one GEMM.

    Ranks ``S_j = ‖c_j‖² − 2·x·c_j`` in float64 (``‖x − c_j‖²`` less the
    row's constant ``‖x‖²``). A row whose runner-up gap is ``≤ T =
    (16d + 32)·u·s``, ``s = ‖x‖² + max ‖c‖²``, ``u = 2⁻⁵³``, is re-decided
    by ``cdist``, so every answer, ties to the lowest bucket included, is
    ``cdist``'s. The bound (``γ_n = n·u/(1 − n·u)`` covers n roundings in
    any order, BLAS blocking and FMA included; no overflow or underflow):
    float32 products are exact in float64, so ``|S_j − (D_j² − ‖x‖²)| ≤
    γ_d·(‖c‖² + 2‖x‖‖c‖) ≤ 2γ_d·s`` for the true distance ``D_j``;
    ``cdist`` rounds each difference, square and addition, so its sum
    ``q_j`` is within ``γ_{d+1}·D_j² ≤ 2γ_{d+1}·s``. A gap above ``T``
    leaves ``q_j − q_best > (8d + 28)·u·s``, well over the ``11u·s`` a
    gap needs to stay a strict ``<`` through the rounded square root:
    ``cdist``'s best bucket is the GEMM's, untied.
    """
    wide = points.astype(np.float64)
    narrow = centroids.astype(np.float64)
    norms = np.einsum("ij,ij->i", narrow, narrow)
    scores = wide @ (-2.0 * narrow).T
    scores += norms
    best = scores.argmin(axis=1)
    rows = np.arange(points.shape[0])
    top = scores[rows, best]
    scores[rows, best] = np.inf
    gap = scores.min(axis=1) - top
    scale = np.einsum("ij,ij->i", wide, wide) + norms.max()
    u = np.finfo(np.float64).eps / 2
    close = np.flatnonzero(gap <= (16 * points.shape[1] + 32) * u * scale)
    if close.shape[0]:
        best[close] = np.argmin(cdist(points[close], centroids), axis=1)
    return best


def _cluster(matrix: np.ndarray, indices: np.ndarray,
             params: SegmentBuildParams, seed: int) -> _ClusteredShard:
    """Seeded Lloyd k-means; buckets hold row ids ascending.

    A bucket's members are one slice of one stably argsorted gather: the
    rows a boolean mask picks, in its order, so ``mean(axis=0)`` returns
    the mask loop's float32 bits (``np.add.reduceat`` / weighted
    ``bincount`` sums do not: their reduction order differs). A radius
    is the float64 max of the search's own kernel, ``cdist(members,
    centroid)``.
    """
    n = matrix.shape[0]
    m = params.buckets_per_shard or int(np.ceil(np.sqrt(n)))
    m = max(1, min(m, n))
    rng = np.random.default_rng(seed)
    # Lloyd iterations on a subsample keep builds linear-ish in n.
    fit_rows = (
        rng.choice(n, size=params.kmeans_sample, replace=False)
        if n > params.kmeans_sample else np.arange(n)
    )
    fit = matrix[fit_rows]
    m = min(m, fit.shape[0])
    centroids = fit[rng.choice(fit.shape[0], size=m, replace=False)].copy()
    for _ in range(params.kmeans_iterations):
        assign = _nearest(fit, centroids)
        grouped = fit[np.argsort(assign, kind="stable")]
        start = 0
        for bucket, stop in enumerate(
                np.cumsum(np.bincount(assign, minlength=m)).tolist()):
            if stop > start:
                centroids[bucket] = grouped[start:stop].mean(axis=0)
            else:  # empty: reseed from the rng, in bucket order
                centroids[bucket] = fit[rng.integers(fit.shape[0])]
            start = stop
    assign = _nearest(matrix, centroids)
    order = np.argsort(assign, kind="stable")
    counts = np.bincount(assign, minlength=m)
    keep = np.flatnonzero(counts)  # empty buckets are dropped
    buckets = [order[stop - size:stop] for stop, size in
               zip(np.cumsum(counts)[keep].tolist(), counts[keep].tolist())]
    radii = np.array([cdist(matrix[rows], centroids[b:b + 1]).max()
                      for b, rows in zip(keep.tolist(), buckets)])
    return _ClusteredShard(matrix, indices, centroids[keep], buckets, radii)


def _checksum(matrix: np.ndarray) -> int:
    # crc32 reads the contiguous array's buffer; no bytes copy.
    return zlib.crc32(np.ascontiguousarray(matrix))


# -- immutable index segments ---------------------------------------------------


class IndexSegment:
    """Per-label shards over store segments ``[start, stop)``, immutable.

    Content-addressed: ``digest`` commits to the ordered store-segment
    digests covered and the build params, so two replicas that built the
    same rows the same way produce the same address — and a replica
    cannot claim coverage it does not have without the cluster's
    recomputation catching it.
    """

    __slots__ = ("start", "stop", "params", "store_digests", "shards",
                 "label_presence", "rows", "digest", "checksums")

    def __init__(self, start: int, stop: int, params: SegmentBuildParams,
                 store_digests: Tuple[str, ...],
                 shards: Dict[int, object],
                 label_presence: Dict[int, Tuple[str, ...]],
                 rows: int,
                 checksums: Optional[Dict[int, int]] = None) -> None:
        self.start = start
        self.stop = stop
        self.params = params
        self.store_digests = store_digests
        self.shards = shards
        self.label_presence = label_presence
        self.rows = rows
        self.digest = canonical_digest({
            "index-segment": {
                "store": list(store_digests),
                "params": params.payload(),
            }
        }).hex()
        self.checksums = dict(checksums) if checksums is not None else {
            label: _checksum(shard.matrix) for label, shard in shards.items()}

    @classmethod
    def build(cls, store, start: int, stop: int, params: SegmentBuildParams,
              ) -> "IndexSegment":
        """Build one immutable segment from store segments ``[start, stop)``."""
        parts = [store.segment_slice(pos, pos + 1)
                 for pos in range(start, stop)]
        store_digests = tuple(p[3][0] for p in parts)
        presence: Dict[int, List[str]] = {}
        for (_, part_labels, _, part_digests) in parts:
            for label in np.unique(part_labels):
                presence.setdefault(int(label), []).append(part_digests[0])
        if parts:
            matrix = np.concatenate([p[0] for p in parts])
            labels = np.concatenate([p[1] for p in parts])
            indices = np.concatenate([p[2] for p in parts])
        else:
            dim = store.dimension or 0
            matrix = np.zeros((0, dim), dtype=np.float32)
            labels = np.zeros(0, dtype=np.int64)
            indices = np.zeros(0, dtype=np.int64)
        shards: Dict[int, object] = {}
        for label in np.unique(labels):
            rows = np.flatnonzero(labels == label)
            sub = np.ascontiguousarray(matrix[rows], dtype=np.float32)
            idx = np.ascontiguousarray(indices[rows])
            if sub.shape[0] <= params.shard_threshold:
                shards[int(label)] = _BruteShard(sub, idx)
            else:
                # Seeded by (base seed, label, covering start) so a full
                # build starting at 0 reproduces the legacy clustering
                # bit-for-bit while distinct segments stay decorrelated.
                shards[int(label)] = _cluster(
                    sub, idx, params, params.seed + int(label) + start
                )
        return cls(
            start=start, stop=stop, params=params,
            store_digests=store_digests, shards=shards,
            label_presence={lab: tuple(d) for lab, d in presence.items()},
            rows=int(matrix.shape[0]),
        )

    def copy(self) -> "IndexSegment":
        """A private deep copy: its own arrays, the same content address.

        The build-time checksums are carried, not recomputed, so a copy
        taken of a matrix that drifted since build still fails
        :meth:`verify_checksums`."""
        return IndexSegment(
            start=self.start, stop=self.stop, params=self.params,
            store_digests=self.store_digests,
            shards={label: shard.copy()
                    for label, shard in self.shards.items()},
            label_presence=self.label_presence, rows=self.rows,
            checksums=self.checksums,
        )

    def verify_checksums(self) -> None:
        """Raise :class:`IndexIntegrityError` if any shard matrix drifted."""
        for label, shard in self.shards.items():
            recorded = self.checksums.get(label)
            if recorded is None or _checksum(shard.matrix) != recorded:
                raise IndexIntegrityError(
                    f"index segment [{self.start},{self.stop}) shard for "
                    f"label {label} failed its checksum — matrix drifted "
                    "since build"
                )


# -- generations (the snapshot-isolation unit) ----------------------------------


def _snapshot_digest(covered: Sequence[str], segment_digests: Sequence[str],
                     params: SegmentBuildParams) -> str:
    return canonical_digest({
        "index-snapshot": {
            "store": list(covered),
            "segments": list(segment_digests),
            "params": params.payload(),
        }
    }).hex()


class IndexGeneration:
    """An immutable, ordered, contiguous set of index segments.

    A query pins the generation it started on — refresh/compaction adopt
    a *new* generation object atomically, never mutate this one — so an
    in-flight answer is always consistent with exactly one committed
    store prefix, named by ``snapshot``.
    """

    __slots__ = ("segments", "params", "store_version", "ordinal",
                 "covered_digests", "snapshot", "label_rows",
                 "label_digests", "rows")

    def __init__(self, segments: Sequence[IndexSegment],
                 params: SegmentBuildParams,
                 store_version: Optional[int], ordinal: int = 0) -> None:
        segs = tuple(segments)
        expected = 0
        for seg in segs:
            if seg.start != expected:
                raise ConfigurationError(
                    f"index segments are not contiguous: expected start "
                    f"{expected}, got [{seg.start},{seg.stop})"
                )
            expected = seg.stop
        self.segments = segs
        self.params = params
        self.store_version = store_version
        self.ordinal = ordinal
        self.covered_digests: Tuple[str, ...] = tuple(
            d for seg in segs for d in seg.store_digests
        )
        self.snapshot = _snapshot_digest(
            self.covered_digests, [seg.digest for seg in segs], params
        )
        rows_by_label: Dict[int, int] = {}
        sources: Dict[int, List[str]] = {}
        for seg in segs:
            for label, shard in seg.shards.items():
                rows_by_label[label] = rows_by_label.get(label, 0) + shard.rows
            for label, digests in seg.label_presence.items():
                sources.setdefault(label, []).extend(digests)
        self.label_rows = rows_by_label
        # Per-label content digest: derived from the *store* segments
        # holding the label (not the index segmentation), so compaction
        # re-partitions segments without disturbing cache keys, and a
        # label's digest moves only when that label actually gains rows.
        self.label_digests = {
            label: canonical_digest({
                "index-label": {
                    "label": int(label),
                    "store": digests,
                    "params": params.payload(),
                }
            }).hex()
            for label, digests in sources.items()
        }
        self.rows = sum(seg.rows for seg in segs)

    @property
    def segment_count(self) -> int:
        return len(self.segments)

    @property
    def covered_store_segments(self) -> int:
        return self.segments[-1].stop if self.segments else 0

    def labels(self) -> List[int]:
        return sorted(self.label_rows)

    def count(self, label: int) -> int:
        return self.label_rows.get(int(label), 0)

    def search_batch(self, batch: np.ndarray, label: int,
                     k: int) -> ShardSearchResult:
        """Answer one label block: one scan per query across every part.

        The label's brute shards, stacked in segment order (ascending
        global id, so :func:`exact_top_k`'s stable sort over them is the
        (distance, global id) order when no clustered shard exists), ride
        the first clustered shard's scan. Parts return their top-k by
        that key over disjoint global ids, so sorting their union by it
        reproduces brute force over all rows, ties included.
        """
        label = int(label)
        shards = [seg.shards[label] for seg in self.segments
                  if label in seg.shards]
        if not shards:
            raise QueryError(
                f"no training fingerprints indexed for label {label}"
            )
        clustered = [shard for shard in shards
                     if isinstance(shard, _ClusteredShard)]
        brute = [shard for shard in shards if isinstance(shard, _BruteShard)]
        # Stacked per call (microseconds), not memoised: generations
        # linger in the index's history and would each keep a copy.
        tail = _BruteShard(
            np.concatenate([shard.matrix for shard in brute]
                           or [np.empty((0, batch.shape[1]), np.float32)]),
            np.concatenate([shard.indices for shard in brute]
                           or [np.empty(0, np.int64)]))
        if clustered:
            tails = [tail] + [_BruteShard(tail.matrix[:0], tail.indices[:0])
                              ] * (len(clustered) - 1)
            found = [shard.search(batch, k, part_tail)
                     for shard, part_tail in zip(clustered, tails)]
        else:
            positions, distances = exact_top_k(batch, tail.matrix, k)
            found = [(tail.indices[positions], distances,
                      batch.shape[0] * tail.rows)]
        total_rows = self.label_rows[label]
        ids = np.concatenate([part[0] for part in found], axis=1)
        distances = np.concatenate([part[1] for part in found], axis=1)
        if len(found) > 1:
            order = np.lexsort((ids, distances), axis=1)[
                :, :min(k, total_rows)]
            ids, distances = (np.take_along_axis(part, order, axis=1)
                              for part in (ids, distances))
        return ShardSearchResult(
            hits=[list(map(IndexHit, row_ids, row_distances))
                  for row_ids, row_distances
                  in zip(ids.tolist(), distances.tolist())],
            candidates_scanned=sum(part[2] for part in found),
            shard_rows=total_rows,
            requested_k=k,
            snapshot=self.snapshot,
            ids=ids,
            distances=distances,
        )

    def verify_checksums(self) -> None:
        for seg in self.segments:
            seg.verify_checksums()


# -- compaction planning --------------------------------------------------------


def plan_merge(segments: Sequence[IndexSegment],
               max_segments: int) -> Optional[int]:
    """Pick the adjacent pair to merge, or ``None`` if fan-out is fine.

    Returns the left position ``i`` of the cheapest adjacent pair
    ``(i, i+1)`` by combined row count — classic LSM smallest-first, one
    bounded unit of work per call so the compactor stays preemptible.
    """
    if max_segments < 1:
        raise ConfigurationError("max_segments must be >= 1")
    if len(segments) <= max_segments:
        return None
    costs = [segments[i].rows + segments[i + 1].rows
             for i in range(len(segments) - 1)]
    return int(np.argmin(costs))


def merge_segments(store, left: IndexSegment, right: IndexSegment,
                   params: SegmentBuildParams) -> IndexSegment:
    """Rebuild ``[left.start, right.stop)`` as one segment from the store."""
    if left.stop != right.start:
        raise ConfigurationError(
            f"cannot merge non-adjacent segments [{left.start},{left.stop}) "
            f"and [{right.start},{right.stop})"
        )
    return IndexSegment.build(store, left.start, right.stop, params)


# -- lineage verification (shared by the cluster and the promotion gate) --------


def generation_lineage_error(generation: IndexGeneration,
                             store) -> Optional[str]:
    """Walk a generation's lineage against the authoritative store.

    Returns ``None`` when the generation is exactly a committed prefix of
    the store's history and its snapshot digest recomputes from its
    parts; otherwise a human-readable description of the first problem.
    The caller chooses the failure type (cluster: integrity eviction;
    promotion gate: refusal)."""
    authoritative = store.segment_digests()
    covered = generation.covered_digests
    if len(covered) > len(authoritative):
        return (f"index covers {len(covered)} store segments but the store "
                f"has only {len(authoritative)}")
    for pos, (claimed, actual) in enumerate(zip(covered, authoritative)):
        if claimed != actual:
            return (f"store segment {pos} digest mismatch: index built "
                    f"against {claimed[:12]}… but the store holds "
                    f"{actual[:12]}… (history rewrite, not growth)")
    recomputed = _snapshot_digest(
        covered, [seg.digest for seg in generation.segments],
        generation.params,
    )
    if recomputed != generation.snapshot:
        return ("index-snapshot digest does not recompute from its parts — "
                "forged or corrupted generation identity")
    return None
