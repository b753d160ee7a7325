"""Sharded ANN index tests: exactness, batching parity, staleness."""

import numpy as np
import pytest

from repro.core.query import exact_top_k
from repro.errors import QueryError
from repro.serving import LinkageStore, ShardedAnnIndex

from tests.serving.conftest import (clustered_corpus, fill_store,
                                    random_corpus)


def _brute(fingerprints, labels, query, label, k):
    """[(row, float64 distance)] of the exact top-k for ``label``."""
    rows = np.flatnonzero(labels == label)
    positions, distances = exact_top_k(query[None, :], fingerprints[rows], k)
    return [(int(rows[p]), float(d))
            for p, d in zip(positions[0], distances[0])]


def _built_index(tmp_path, fingerprints, labels, **kwargs):
    store = fill_store(LinkageStore.create(tmp_path / "idx-store"),
                       fingerprints, labels)
    return ShardedAnnIndex(store, **kwargs).build()


def _queries(generator, fingerprints, labels, count, noise=0.2):
    sample = generator.integers(0, fingerprints.shape[0], size=count)
    queries = fingerprints[sample] + generator.standard_normal(
        (count, fingerprints.shape[1])).astype(np.float32) * noise
    return queries, labels[sample]


def _exact_case(generator, corpus):
    """(fingerprints, labels, queries, query labels, build kwargs, k)."""
    if corpus == "boundary":
        # Rows 1 and 2 are 5e-8 apart from the query. A float32 bucket
        # radius fell below row 2's float64 distance to its centroid, so
        # the bucket was pruned and the index answered row 1.
        rows = np.array([[-0.07313989, 0.48848414, 3.5594978, -0.5908484],
                         [-2.96461, 3.0740044, 1.787504, 2.5159383],
                         [-3.9917731, -34.74541, -8.065626, 4.614875]],
                        dtype=np.float32)
        query = np.array([[28.32199, -24.902122, 20.961023, -31.10045]],
                         dtype=np.float32)
        zeros = np.zeros(3, dtype=np.int64)
        return (rows, zeros, query, zeros[:1],
                dict(shard_threshold=2, buckets_per_shard=2), 2)
    make = clustered_corpus if corpus == "clustered" else random_corpus
    fingerprints, labels = make(generator, 3000)
    queries, query_labels = _queries(generator, fingerprints, labels, 40)
    return (fingerprints, labels, queries, query_labels,
            dict(shard_threshold=200), 7)


class TestExactMode:
    @pytest.mark.parametrize("corpus", ["clustered", "random", "boundary"])
    def test_topk_identical_to_brute_force(self, tmp_path, generator, corpus):
        fingerprints, labels, queries, query_labels, build, k = _exact_case(
            generator, corpus)
        index = _built_index(tmp_path, fingerprints, labels, **build)
        for query, label in zip(queries, query_labels.tolist()):
            # One float64 cdist kernel on both sides: equal, not close.
            assert [(h.index, h.distance)
                    for h in index.search(query, label, k=k)] == _brute(
                fingerprints, labels, query, label, k)

    def test_small_shards_fall_back_to_brute(self, tmp_path, generator):
        fingerprints, labels = clustered_corpus(generator, 300)
        index = _built_index(tmp_path, fingerprints, labels,
                             shard_threshold=2048)
        for label in index.labels():
            assert index.shard_kind(label) == "brute"

    def test_large_shards_cluster(self, tmp_path, generator):
        fingerprints, labels = clustered_corpus(generator, 3000)
        index = _built_index(tmp_path, fingerprints, labels,
                             shard_threshold=200)
        assert all(index.shard_kind(label) == "clustered"
                   for label in index.labels())

    def test_exact_mode_prunes_clustered_data(self, tmp_path, generator):
        fingerprints, labels = clustered_corpus(generator, 4000, spread=0.2)
        index = _built_index(tmp_path, fingerprints, labels,
                             shard_threshold=200)
        queries, query_labels = _queries(generator, fingerprints, labels, 20,
                                         noise=0.1)
        result = index.search_batch(queries[:1], int(query_labels[0]), k=5)
        assert result.candidates_scanned < result.shard_rows

    def test_k_larger_than_shard(self, tmp_path, generator):
        fingerprints, labels = clustered_corpus(generator, 400)
        index = _built_index(tmp_path, fingerprints, labels,
                             shard_threshold=50)
        label = int(labels[0])
        hits = index.search(fingerprints[0], label, k=10_000)
        assert len(hits) == index.store.count(label)


class TestApproximateMode:
    def test_invalid_probes_rejected(self, small_store):
        # There is no approximate mode: every search is exact.
        store, _, _ = small_store
        with pytest.raises(TypeError):
            ShardedAnnIndex(store, **{"probes": 1})


class TestBatching:
    def test_batch_matches_single_queries(self, tmp_path, generator):
        fingerprints, labels = clustered_corpus(generator, 3000)
        index = _built_index(tmp_path, fingerprints, labels,
                             shard_threshold=200)
        label = int(labels[0])
        rows = np.flatnonzero(labels == label)[:16]
        batch = fingerprints[rows] + 0.05
        batched = index.search_batch(batch, label, k=5).hits
        singles = [index.search(batch[i], label, k=5) for i in range(16)]
        assert batched == singles

    def test_unknown_label_rejected(self, tmp_path, generator):
        fingerprints, labels = clustered_corpus(generator, 300)
        index = _built_index(tmp_path, fingerprints, labels)
        with pytest.raises(QueryError):
            index.search(fingerprints[0], label=99)

    def test_unbuilt_index_rejected(self, small_store):
        store, fingerprints, _ = small_store
        with pytest.raises(QueryError):
            ShardedAnnIndex(store).search(fingerprints[0], label=0)

    def test_dimension_mismatch_rejected(self, tmp_path, generator):
        fingerprints, labels = clustered_corpus(generator, 300)
        index = _built_index(tmp_path, fingerprints, labels)
        with pytest.raises(QueryError):
            index.search(np.zeros(3, dtype=np.float32), int(labels[0]))

    def test_build_records_store_version(self, small_store):
        store, _, _ = small_store
        index = ShardedAnnIndex(store).build()
        assert index.built_version == store.version


class TestStaleness:
    def test_store_growth_keeps_serving_then_refresh_adopts(self,
                                                            small_store):
        store, fingerprints, labels = small_store
        index = ShardedAnnIndex(store).build()
        label = int(labels[0])
        pinned = index.snapshot_digest
        assert index.search(fingerprints[0], label, k=1)
        store.append(fingerprints[:1], [label], ["p9"], [b"z" * 32])
        # Benign growth no longer fails closed: the pinned generation
        # keeps answering (without the new row) until refresh adopts it.
        hits = index.search(fingerprints[0], label, k=2)
        assert 600 not in [h.index for h in hits]
        assert index.snapshot_digest == pinned
        assert index.refresh() is True
        assert index.snapshot_digest != pinned
        assert index.full_builds == 1  # refresh never rebuilt from scratch
        hits = index.search(fingerprints[0], label, k=2)
        # The appended duplicate (global record 600) is now visible.
        assert 600 in [h.index for h in hits]

    def test_refresh_without_growth_is_a_noop(self, small_store):
        store, _, _ = small_store
        index = ShardedAnnIndex(store).build()
        pinned = index.snapshot_digest
        assert index.refresh() is False
        assert index.snapshot_digest == pinned

    def test_rewrite_check_tracks_segments_not_version_counter(
            self, small_store):
        # The rewrite check compares covered-segment counts, not the
        # manifest version counter: a non-append version bump (format
        # migration, reseal, metadata rewrite) must not read as a
        # history rewrite — and a counter rewrite must not mask one.
        from repro.errors import StaleIndexError
        store, fingerprints, labels = small_store
        index = ShardedAnnIndex(store).build()
        label = int(labels[0])
        store._manifest["version"] = 0  # counter rewritten, history intact
        assert index.search(fingerprints[0], label, k=1)
        # Genuine truncation is still caught even with the counter high.
        store._manifest["version"] = 99
        store._segments.pop()
        store._offsets.pop()
        with pytest.raises(StaleIndexError):
            index.search(fingerprints[0], label, k=1)

    def test_generation_lookup_is_locked_and_bounded(self, small_store):
        from repro.serving.index import _GENERATION_HISTORY
        store, fingerprints, labels = small_store
        index = ShardedAnnIndex(store).build()
        first = index.snapshot_digest
        for _ in range(_GENERATION_HISTORY + 2):
            store.append(fingerprints[:1], [int(labels[0])], ["p9"],
                         [b"z" * 32])
            assert index.refresh() is True
        assert index.generation(first) is None  # aged out of the history
        assert index.generation(index.snapshot_digest) is not None

    def test_history_rewrite_still_fails_closed(self, small_store):
        from repro.errors import StaleIndexError
        store, fingerprints, labels = small_store
        index = ShardedAnnIndex(store).build()
        # Rewrite a covered segment's manifest digest: not growth — the
        # prefix the index was built against no longer exists.
        store._segments[0].info = type(store._segments[0].info)(
            name=store._segments[0].info.name,
            records=store._segments[0].info.records,
            digest="0" * 64,
        )
        assert index.store_prefix_ok() is False
        with pytest.raises(StaleIndexError):
            index.refresh()


class TestBuildEdgeCases:
    def test_buckets_exceeding_kmeans_sample(self, tmp_path, generator):
        # buckets_per_shard > kmeans_sample: centroid seeding must clamp to
        # the subsample size instead of raising at build time.
        fingerprints, labels = clustered_corpus(generator, 3000)
        index = _built_index(tmp_path, fingerprints, labels,
                             shard_threshold=200, buckets_per_shard=120,
                             kmeans_sample=60)
        assert all(index.shard_kind(label) == "clustered"
                   for label in index.labels())
        queries, query_labels = _queries(generator, fingerprints, labels, 10)
        for i in range(10):
            expected = _brute(fingerprints, labels, queries[i],
                              query_labels[i], 5)
            got = index.search(queries[i], int(query_labels[i]), k=5)
            assert [h.index for h in got] == [row for row, _ in expected]
