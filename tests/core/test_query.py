"""The one exact query path: ``exact_top_k`` over ``LinkageStore.by_label``."""

import numpy as np
import pytest

from repro.core.linkage import LinkageTable
from repro.core.query import exact_top_k
from repro.serving import LinkageStore


def _store(tmp_path, points, labels):
    table = LinkageTable(
        np.asarray(points, dtype=np.float32), labels,
        [f"p{i % 2}" for i in range(len(labels))], [b"h" * 32] * len(labels),
        source_indices=range(len(labels)),
    )
    return LinkageStore.from_database(tmp_path / "store", table)


def _append(store, point, label):
    store.append(np.asarray([point], dtype=np.float32), [label], ["p0"],
                 [b"h" * 32])


def _query_batch(store, fingerprints, label, k):
    """[(record index, distance), ...] per query, nearest first."""
    matrix, indices = store.by_label(label)
    positions, distances = exact_top_k(
        np.asarray(fingerprints, dtype=np.float32), matrix, k)
    return [[(indices[p], float(d)) for p, d in zip(row, dist)]
            for row, dist in zip(positions, distances)]


def _query(store, fingerprint, label, k=9):
    return _query_batch(store, [fingerprint], label, k)[0]


def _ids(hits):
    return [index for index, _ in hits]


class TestQuery:
    def test_nearest_first(self, tmp_path):
        store = _store(tmp_path, [[0.0, 0.0], [1.0, 0.0], [5.0, 0.0]],
                       [0, 0, 0])
        hits = _query(store, [0.9, 0.0], label=0, k=3)
        assert _ids(hits) == [1, 0, 2]
        assert hits[0][1] == pytest.approx(0.1, abs=1e-6)

    def test_label_filtering(self, tmp_path):
        store = _store(tmp_path, [[0.0, 0.0], [0.1, 0.0], [0.2, 0.0]],
                       [0, 1, 0])
        assert set(_ids(_query(store, [0.0, 0.0], label=0))) == {0, 2}

    def test_k_limits_results(self, tmp_path):
        store = _store(tmp_path, [[float(i), 0.0] for i in range(10)],
                       [0] * 10)
        assert len(_query(store, np.zeros(2), label=0, k=4)) == 4

    def test_dimension_mismatch_rejected(self, tmp_path):
        store = _store(tmp_path, [[0.0, 0.0]], [0])
        with pytest.raises(ValueError):
            _query(store, np.zeros(5), label=0)

    def test_query_batch(self, tmp_path):
        store = _store(tmp_path, [[0.0, 0.0], [1.0, 1.0], [0.9, 0.9]],
                       [0, 1, 1])
        assert _ids(_query(store, [0.1, 0.0], 0, k=1)) == [0]
        assert _ids(_query(store, [1.0, 1.0], 1, k=1)) == [1]

    def test_distances_monotone(self, tmp_path, generator):
        points = generator.normal(size=(30, 8))
        store = _store(tmp_path, points, [0] * 30)
        hits = _query(store, generator.normal(size=8), label=0, k=30)
        distances = [d for _, d in hits]
        assert distances == sorted(distances)


class TestStableTieBreaking:
    def test_equal_distances_rank_in_insertion_order(self, tmp_path):
        # Four records equidistant from the query: ranks must follow
        # insertion order so forensics reports are reproducible.
        store = _store(tmp_path,
                       [[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]],
                       [0, 0, 0, 0])
        assert _ids(_query(store, np.zeros(2), label=0, k=4)) == [0, 1, 2, 3]

    def test_partial_ties_keep_insertion_order(self, tmp_path):
        store = _store(tmp_path,
                       [[2.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.0, 0.5]],
                       [0, 0, 0, 0])
        # 0.5 first, then the two distance-1.0 ties in insertion order.
        assert _ids(_query(store, np.zeros(2), label=0, k=4)) == [3, 1, 2, 0]


class TestExactTopKKernel:
    """The one ranking every exact path (store scan, brute shard, degraded
    cluster answer) goes through — tie-breaks are asserted here once."""

    def test_duplicated_points_rank_in_row_order(self):
        # Rows 0/2/4 are one point, rows 1/3 another: equal distances must
        # come back in row order, whichever group is nearer.
        matrix = np.array([[1.0, 0.0], [0.0, 2.0]] * 2 + [[1.0, 0.0]],
                          dtype=np.float32)
        batch = np.array([[0.0, 0.0], [0.0, 2.0]], dtype=np.float32)
        positions, distances = exact_top_k(batch, matrix, 4)
        assert positions.tolist() == [[0, 2, 4, 1], [1, 3, 0, 2]]
        assert distances[0].tolist() == [1.0, 1.0, 1.0, 2.0]
        assert distances.dtype == np.float64

    @pytest.mark.parametrize("k", [3, 7])  # k == rows, k > rows
    def test_k_at_or_past_rows_returns_every_row_once(self, k):
        matrix = np.array([[3.0], [1.0], [1.0]], dtype=np.float32)
        positions, distances = exact_top_k(
            np.zeros((1, 1), dtype=np.float32), matrix, k)
        assert positions.tolist() == [[1, 2, 0]]
        assert distances.tolist() == [[1.0, 1.0, 3.0]]


class TestStaleIndexInvalidation:
    def test_sees_records_added_after_first_query(self, tmp_path):
        store = _store(tmp_path, [[0.0, 0.0], [4.0, 0.0]], [0, 0])
        assert len(_query(store, np.zeros(2), label=0)) == 2
        _append(store, [0.1, 0.0], 0)
        hits = _query(store, np.zeros(2), label=0)
        assert _ids(hits) == [0, 2, 1]  # the new record, d=0.1, second

    def test_new_label_after_construction_is_queryable(self, tmp_path):
        store = _store(tmp_path, [[0.0, 0.0]], [0])
        assert _query(store, np.zeros(2), label=3) == []
        _append(store, [1.0, 1.0], 3)
        assert _ids(_query(store, np.zeros(2), label=3, k=1)) == [1]


class TestBatchVectorization:
    def _loop_reference(self, store, fingerprints, label, k):
        return [_query(store, fingerprint, label, k)
                for fingerprint in fingerprints]

    def test_batch_parity_with_loop(self, tmp_path, generator):
        points = generator.normal(size=(80, 6)).astype(np.float32)
        store = _store(tmp_path, points, [i % 4 for i in range(80)])
        queries = points[:20:4] + generator.normal(
            size=(5, 6)).astype(np.float32) * 0.1
        assert _query_batch(store, queries, 0, k=5) == \
            self._loop_reference(store, queries, 0, k=5)

    def test_batch_parity_with_ties(self, tmp_path):
        # Duplicate points => equal distances; batching must not perturb
        # the stable insertion-order tie-break.
        store = _store(tmp_path, [[1.0, 0.0], [0.0, 1.0]] * 2, [0] * 4)
        queries = np.zeros((3, 2), dtype=np.float32)
        batched = _query_batch(store, queries, 0, k=4)
        assert batched == self._loop_reference(store, queries, 0, k=4)
        assert _ids(batched[0]) == [0, 1, 2, 3]

    def test_batch_preserves_submission_order_across_labels(self, tmp_path,
                                                            generator):
        points = generator.normal(size=(40, 4)).astype(np.float32)
        labels = [i % 3 for i in range(40)]
        store = _store(tmp_path, points, labels)
        # Interleaved queries of one label come back in submission order.
        order = [6, 0, 3, 9, 0]
        batched = _query_batch(store, points[order], 0, k=3)
        for row, src in enumerate(order):
            assert batched[row] == _query(store, points[src], 0, k=3)
