"""Incremental index segments: content addressing, refresh, compaction."""

import tempfile
import zlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.query import exact_top_k
from repro.errors import (CompactionCrash, ConfigurationError,
                          IndexIntegrityError)
from repro.serving import (IndexGeneration, IndexSegment, LinkageStore,
                           SegmentBuildParams, ShardedAnnIndex,
                           generation_lineage_error, merge_segments,
                           plan_merge)
from repro.serving import segments
from repro.serving.segments import _checksum

from tests.serving.conftest import clustered_corpus, fill_store, inject


class _OneReplica:
    """The injector's view of a cluster, around a bare index."""

    def __init__(self, index):
        self.replicas = [self]
        self.name, self.healthy, self.index = "replica-0", True, index


def _segmented_store(tmp_path, generator, size=600, segment_records=150):
    fingerprints, labels = clustered_corpus(generator, size)
    store = fill_store(LinkageStore.create(tmp_path / "seg-store"),
                       fingerprints, labels,
                       segment_records=segment_records)
    return store, fingerprints, labels


class TestContentAddressing:
    def test_segment_digest_is_deterministic(self, tmp_path, generator):
        store, _, _ = _segmented_store(tmp_path, generator)
        params = SegmentBuildParams()
        a = IndexSegment.build(store, 0, 2, params)
        b = IndexSegment.build(store, 0, 2, params)
        assert a.digest == b.digest
        # A different coverage or different params is a different address.
        assert IndexSegment.build(store, 0, 1, params).digest != a.digest
        assert IndexSegment.build(
            store, 0, 2, SegmentBuildParams(seed=7)).digest != a.digest

    def test_snapshot_digest_commits_to_parts(self, tmp_path, generator):
        store, _, _ = _segmented_store(tmp_path, generator)
        params = SegmentBuildParams()
        segs = [IndexSegment.build(store, 0, 2, params),
                IndexSegment.build(store, 2, 4, params)]
        one = IndexGeneration(segs, params, store_version=store.version)
        two = IndexGeneration(segs, params, store_version=store.version)
        assert one.snapshot == two.snapshot
        # Dropping a segment changes the snapshot identity.
        shorter = IndexGeneration(segs[:1], params,
                                  store_version=store.version)
        assert shorter.snapshot != one.snapshot

    def test_non_contiguous_generation_rejected(self, tmp_path, generator):
        store, _, _ = _segmented_store(tmp_path, generator)
        params = SegmentBuildParams()
        segs = [IndexSegment.build(store, 0, 1, params),
                IndexSegment.build(store, 2, 3, params)]  # gap at 1
        with pytest.raises(ConfigurationError):
            IndexGeneration(segs, params, store_version=store.version)

    def test_label_digest_tracks_store_segments_not_partitioning(
            self, tmp_path, generator):
        store, _, _ = _segmented_store(tmp_path, generator)
        params = SegmentBuildParams()
        split = IndexGeneration(
            [IndexSegment.build(store, 0, 2, params),
             IndexSegment.build(store, 2, 4, params)],
            params, store_version=store.version)
        merged = IndexGeneration(
            [IndexSegment.build(store, 0, 4, params)],
            params, store_version=store.version)
        # Same covered rows, different index partitioning: per-label cache
        # keys must agree so compaction never invalidates warm caches.
        assert split.label_digests == merged.label_digests
        assert split.snapshot != merged.snapshot


class TestRefresh:
    def test_refresh_reuses_existing_segments(self, tmp_path, generator):
        store, fingerprints, labels = _segmented_store(tmp_path, generator)
        index = ShardedAnnIndex(store, shard_threshold=100).build()
        before = index._generation.segments
        extra, extra_labels = clustered_corpus(generator, 120)
        store.append(extra, extra_labels.tolist(), ["p9"] * 120,
                     [b"x" * 32] * 120)
        assert index.refresh() is True
        after = index._generation.segments
        # The original coverage is the *same objects* — no rebuild work.
        assert after[:len(before)] == before
        assert len(after) == len(before) + 1
        assert index.full_builds == 1
        assert index.refreshes == 1

    def test_refreshed_results_match_full_rebuild_bitwise(
            self, tmp_path, generator):
        store, fingerprints, labels = _segmented_store(tmp_path, generator)
        incremental = ShardedAnnIndex(store, shard_threshold=100).build()
        extra, extra_labels = clustered_corpus(generator, 200)
        store.append(extra, extra_labels.tolist(), ["p9"] * 200,
                     [b"x" * 32] * 200)
        incremental.refresh()
        scratch = ShardedAnnIndex(store, shard_threshold=100).build()
        queries = fingerprints[:24] + 0.05
        for label in store.labels():
            got = incremental.search_batch(queries, label, k=9).hits
            want = scratch.search_batch(queries, label, k=9).hits
            # Membership AND tie-break order: the k-way merge reproduces
            # the monolithic build exactly.
            assert got == want

    def test_generation_lookup_by_snapshot(self, tmp_path, generator):
        store, _, _ = _segmented_store(tmp_path, generator)
        index = ShardedAnnIndex(store).build()
        first = index.snapshot_digest
        extra, extra_labels = clustered_corpus(generator, 60)
        store.append(extra, extra_labels.tolist(), ["p9"] * 60,
                     [b"x" * 32] * 60)
        index.refresh()
        # Both the pinned and the live generation stay addressable.
        assert index.generation(first) is not None
        assert index.generation(index.snapshot_digest) is not None
        assert index.generation("f" * 64) is None


class TestLineage:
    def test_clean_generation_walks(self, tmp_path, generator):
        store, _, _ = _segmented_store(tmp_path, generator)
        index = ShardedAnnIndex(store).build()
        assert generation_lineage_error(index._generation, store) is None

    def test_rewritten_history_is_named(self, tmp_path, generator):
        store, _, _ = _segmented_store(tmp_path, generator)
        index = ShardedAnnIndex(store).build()
        info = store._segments[1].info
        store._segments[1].info = type(info)(
            name=info.name, records=info.records, digest="0" * 64)
        problem = generation_lineage_error(index._generation, store)
        assert problem is not None and "rewrite" in problem

    def test_forged_snapshot_is_caught(self, tmp_path, generator):
        store, _, _ = _segmented_store(tmp_path, generator)
        index = ShardedAnnIndex(store).build()
        generation = index._generation
        generation.snapshot = "f" * 64  # forge the claimed identity
        problem = generation_lineage_error(generation, store)
        assert problem is not None and "recompute" in problem


class TestCompaction:
    def test_plan_merge_picks_smallest_adjacent_pair(self):
        class Seg:
            def __init__(self, rows):
                self.rows = rows
        segs = [Seg(400), Seg(10), Seg(20), Seg(300)]
        assert plan_merge(segs, max_segments=3) == 1  # 10 + 20 wins
        assert plan_merge(segs, max_segments=4) is None
        with pytest.raises(ConfigurationError):
            plan_merge(segs, max_segments=0)

    def test_merge_rejects_non_adjacent(self, tmp_path, generator):
        store, _, _ = _segmented_store(tmp_path, generator)
        params = SegmentBuildParams()
        a = IndexSegment.build(store, 0, 1, params)
        c = IndexSegment.build(store, 2, 3, params)
        with pytest.raises(ConfigurationError):
            merge_segments(store, a, c, params)

    def test_compaction_bounds_fanout_and_preserves_answers(
            self, tmp_path, generator):
        store, fingerprints, labels = _segmented_store(
            tmp_path, generator, size=800, segment_records=100)
        index = ShardedAnnIndex(store, shard_threshold=100,
                                max_segments=2).build()
        for _ in range(4):
            extra, extra_labels = clustered_corpus(generator, 100)
            store.append(extra, extra_labels.tolist(), ["p9"] * 100,
                         [b"x" * 32] * 100)
            index.refresh()
        assert index._generation.segment_count > 2
        before = {label: index.search_batch(fingerprints[:8], label, k=5).hits
                  for label in store.labels()}
        steps = index.compact_now()
        assert steps > 0
        assert index._generation.segment_count <= 2
        assert index.compactions == steps
        for label in store.labels():
            after = index.search_batch(fingerprints[:8], label, k=5).hits
            assert after == before[label]

    def test_compaction_crash_leaves_generation_intact(
            self, tmp_path, generator):
        store, _, _ = _segmented_store(tmp_path, generator, size=600,
                                       segment_records=100)
        index = ShardedAnnIndex(store, max_segments=2).build()
        extra, extra_labels = clustered_corpus(generator, 100)
        store.append(extra, extra_labels.tolist(), ["p9"] * 100,
                     [b"x" * 32] * 100)
        index.refresh()
        extra, extra_labels = clustered_corpus(generator, 100)
        store.append(extra, extra_labels.tolist(), ["p9"] * 100,
                     [b"x" * 32] * 100)
        index.refresh()
        inject(_OneReplica(index), "compaction-crash")
        # An adoption that is not the doomed merge goes through.
        extra, extra_labels = clustered_corpus(generator, 100)
        store.append(extra, extra_labels.tolist(), ["p9"] * 100,
                     [b"x" * 32] * 100)
        assert index.refresh() is True
        snapshot = index.snapshot_digest
        fanout = index._generation.segment_count
        # Crash after build, before adoption: atomicity means the live
        # generation is bitwise what it was.
        with pytest.raises(CompactionCrash):
            index.compact_now()
        assert index.snapshot_digest == snapshot
        assert index._generation.segment_count == fanout
        assert index.compactions == 0
        # The next (uninjected) attempt completes the merge.
        assert index.compact_now() > 0
        assert index._generation.segment_count <= 2

    def test_background_compactor_survives_crash(self, tmp_path, generator):
        import time
        store, _, _ = _segmented_store(tmp_path, generator, size=600,
                                       segment_records=100)
        index = ShardedAnnIndex(store, max_segments=2,
                                compaction_interval_s=0.01).build()
        for _ in range(2):
            extra, extra_labels = clustered_corpus(generator, 100)
            store.append(extra, extra_labels.tolist(), ["p9"] * 100,
                         [b"x" * 32] * 100)
            index.refresh()
        inject(_OneReplica(index), "compaction-crash")
        index.start_compaction()
        try:
            deadline = time.time() + 5.0
            while time.time() < deadline:
                if (index.compaction_failures >= 1
                        and index._generation.segment_count <= 2):
                    break
                time.sleep(0.01)
        finally:
            index.stop_compaction()
        # An injected crash is counted where a real one is.
        assert index.compaction_failures == 1
        assert index._generation.segment_count <= 2


class TestIntegrity:
    def test_checksum_drift_detected(self, tmp_path, generator):
        store, _, _ = _segmented_store(tmp_path, generator)
        index = ShardedAnnIndex(store).build()
        index.verify_checksums()
        shard = index._generation.segments[0].shards[store.labels()[0]]
        shard.matrix[0, 0] += 1.0
        with pytest.raises(IndexIntegrityError):
            index.verify_checksums()

    def test_checksum_is_the_crc_of_the_c_order_bytes(self):
        # Pinned values: hashing the buffer instead of a bytes copy must
        # not move a checksum, whatever the input's layout.
        matrix = np.arange(24, dtype=np.float32).reshape(4, 6)
        assert _checksum(matrix) == zlib.crc32(matrix.tobytes()) == 1859928450
        assert _checksum(matrix[:, ::2]) == 1737119235
        assert _checksum(np.asfortranarray(matrix.T)) == 71300556
        matrix.setflags(write=False)
        assert _checksum(matrix) == 1859928450

    def test_short_shard_answers_are_explicit(self, tmp_path, generator):
        store, fingerprints, labels = _segmented_store(tmp_path, generator)
        index = ShardedAnnIndex(store).build()
        label = int(labels[0])
        rows = store.count(label)
        result = index.search_batch(fingerprints[:1], label, k=rows + 50)
        # k_eff < k is carried explicitly, not left for callers to infer.
        assert result.requested_k == rows + 50
        assert result.shard_rows == rows
        assert len(result.hits[0]) == rows
        assert result.snapshot == index.snapshot_digest


class TestMergeIsBruteForce:
    """The (distance, global id) merge over any segmentation, as a property.

    Fingerprints are small-integer vectors, so exact duplicate rows — and
    therefore exact distance ties inside and across segments — are the
    common case, not the corner case.
    """

    K = 5  # label 2 is drawn with fewer rows than this

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1),
           store_segments=st.integers(1, 9),
           index_segments=st.integers(1, 5),
           block=st.integers(1, 17),
           k=st.integers(1, 12))
    def test_any_segmentation_any_block(self, seed, store_segments,
                                        index_segments, block, k):
        rng = np.random.default_rng(seed)
        sizes = rng.integers(4, 40, size=store_segments)
        total = int(sizes.sum())
        fingerprints = rng.integers(0, 3, size=(total, 3)).astype(np.float32)
        labels = rng.integers(0, 2, size=total)
        labels[rng.choice(total, size=min(self.K - 1, total // 4),
                          replace=False)] = 2  # a label shorter than K
        # Cut the store segments into 1..5 contiguous index segments; a
        # label is brute in the small ones and clustered in the big ones,
        # in whatever order the cuts fall — and absent from some.
        cuts = sorted(rng.choice(np.arange(1, store_segments),
                                 size=min(index_segments, store_segments) - 1,
                                 replace=False).tolist())
        bounds = list(zip([0] + cuts, cuts + [store_segments]))
        params = SegmentBuildParams(shard_threshold=12, seed=int(seed % 97))
        queries = np.concatenate([
            fingerprints[rng.integers(0, total, size=block // 2)],
            rng.integers(0, 3, size=(block - block // 2, 3)),
        ]).astype(np.float32)
        with tempfile.TemporaryDirectory() as scratch:
            store = LinkageStore.create(Path(scratch) / "store")
            start = 0
            for size in sizes.tolist():
                store.append(fingerprints[start:start + size],
                             labels[start:start + size].tolist(),
                             ["p0"] * size, [b"h" * 32] * size)
                start += size
            generation = IndexGeneration(
                [IndexSegment.build(store, lo, hi, params)
                 for lo, hi in bounds],
                params, store_version=store.version)
            for label in np.unique(labels).tolist():
                rows = np.flatnonzero(labels == label)  # global-id order
                positions, distances = exact_top_k(
                    queries, fingerprints[rows], k)
                result = generation.search_batch(queries, label, k)
                assert [[hit.index for hit in hits]
                        for hits in result.hits] == rows[positions].tolist()
                assert [[hit.distance for hit in hits]
                        for hits in result.hits] == distances.tolist()
                assert result.shard_rows == rows.shape[0]
                assert result.candidates_scanned <= rows.shape[0] * block
                # A block of n is n blocks of one.
                assert result.hits == [
                    generation.search_batch(queries[i:i + 1], label,
                                            k).hits[0]
                    for i in range(block)]


class TestOneScanPerQuery:
    def test_brute_tail_rides_the_clustered_scan(self, tmp_path, generator,
                                                 monkeypatch):
        # A label with clustered and brute parts is answered by the
        # clustered shard's scan alone; an all-brute label still ranks
        # with exact_top_k. Both equal brute force over the label.
        store, fingerprints, labels = _segmented_store(tmp_path, generator)
        ranked = []

        def counted(batch, matrix, k):
            ranked.append(matrix.shape[0])
            return exact_top_k(batch, matrix, k)

        monkeypatch.setattr(segments, "exact_top_k", counted)
        queries = np.concatenate([fingerprints[:6] + np.float32(0.05),
                                  fingerprints[-6:]])
        for threshold, kinds, calls in ((60, {"_ClusteredShard",
                                              "_BruteShard"}, 0),
                                        (1000, {"_BruteShard"}, 1)):
            params = SegmentBuildParams(shard_threshold=threshold)
            generation = IndexGeneration(
                [IndexSegment.build(store, 0, 3, params),
                 IndexSegment.build(store, 3, 4, params)],
                params, store_version=store.version)
            for label in np.unique(labels).tolist():
                assert {type(seg.shards[label]).__name__
                        for seg in generation.segments} == kinds
                rows = np.flatnonzero(labels == label)
                positions, distances = exact_top_k(
                    queries, fingerprints[rows], 9)
                ranked.clear()
                result = generation.search_batch(queries, label, 9)
                assert len(ranked) == calls
                assert result.ids.tolist() == rows[positions].tolist()
                assert result.distances.tolist() == distances.tolist()
                assert [[hit.index for hit in hits] for hits in result.hits
                        ] == rows[positions].tolist()
                assert [[hit.distance for hit in hits]
                        for hits in result.hits] == distances.tolist()
