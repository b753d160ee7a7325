"""Misprediction query service tests."""

import numpy as np
import pytest

from repro.core.linkage import LinkageDatabase, LinkageRecord
from repro.core.query import QueryService, exact_top_k
from repro.errors import QueryError


def _db(points, labels, sources=None):
    db = LinkageDatabase()
    sources = sources or [f"p{i % 2}" for i in range(len(points))]
    for i, (point, label) in enumerate(zip(points, labels)):
        db.add(LinkageRecord(
            fingerprint=np.asarray(point, dtype=np.float32),
            label=label, source=sources[i], digest=b"h" * 32, source_index=i,
        ))
    return db


class TestQuery:
    def test_nearest_first(self):
        db = _db([[0.0, 0.0], [1.0, 0.0], [5.0, 0.0]], [0, 0, 0])
        neighbors = QueryService(db).query(np.array([0.9, 0.0]), label=0, k=3)
        assert [n.record_index for n in neighbors] == [1, 0, 2]
        assert neighbors[0].distance == pytest.approx(0.1, abs=1e-6)
        assert [n.rank for n in neighbors] == [1, 2, 3]

    def test_label_filtering(self):
        db = _db([[0.0, 0.0], [0.1, 0.0], [0.2, 0.0]], [0, 1, 0])
        neighbors = QueryService(db).query(np.array([0.0, 0.0]), label=0, k=9)
        assert {n.record_index for n in neighbors} == {0, 2}

    def test_k_limits_results(self):
        db = _db([[float(i), 0.0] for i in range(10)], [0] * 10)
        assert len(QueryService(db).query(np.zeros(2), label=0, k=4)) == 4

    def test_missing_label_rejected(self):
        db = _db([[0.0, 0.0]], [0])
        with pytest.raises(QueryError):
            QueryService(db).query(np.zeros(2), label=7)

    def test_dimension_mismatch_rejected(self):
        db = _db([[0.0, 0.0]], [0])
        with pytest.raises(QueryError):
            QueryService(db).query(np.zeros(5), label=0)

    def test_invalid_k(self):
        db = _db([[0.0, 0.0]], [0])
        with pytest.raises(QueryError):
            QueryService(db).query(np.zeros(2), label=0, k=0)

    def test_query_batch(self):
        db = _db([[0.0, 0.0], [1.0, 1.0]], [0, 1])
        results = QueryService(db).query_batch(
            np.array([[0.1, 0.0], [0.9, 1.0]]), labels=[0, 1], k=1
        )
        assert results[0][0].record_index == 0
        assert results[1][0].record_index == 1

    def test_distances_monotone(self, generator):
        points = generator.normal(size=(30, 8))
        db = _db(points.tolist(), [0] * 30)
        neighbors = QueryService(db).query(generator.normal(size=8), label=0, k=30)
        distances = [n.distance for n in neighbors]
        assert distances == sorted(distances)


class TestStableTieBreaking:
    def test_equal_distances_rank_in_insertion_order(self):
        # Four records equidistant from the query: ranks must follow
        # insertion order so forensics reports are reproducible.
        db = _db([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]],
                 [0, 0, 0, 0])
        neighbors = QueryService(db).query(np.zeros(2), label=0, k=4)
        assert [n.record_index for n in neighbors] == [0, 1, 2, 3]

    def test_partial_ties_keep_insertion_order(self):
        db = _db([[2.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.0, 0.5]],
                 [0, 0, 0, 0])
        neighbors = QueryService(db).query(np.zeros(2), label=0, k=4)
        # 0.5 first, then the two distance-1.0 ties in insertion order.
        assert [n.record_index for n in neighbors] == [3, 1, 2, 0]


class TestExactTopKKernel:
    """The one ranking every exact path (service, brute shard, degraded
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


class TestRemovedOptions:
    def test_index_option_is_gone_not_ignored(self):
        db = _db([[0.0, 0.0]], [0])
        with pytest.raises(TypeError):
            QueryService(db, index="brute")


class TestStaleIndexInvalidation:
    def _record(self, point, label):
        return LinkageRecord(
            fingerprint=np.asarray(point, dtype=np.float32),
            label=label, source="p0", digest=b"h" * 32,
        )

    def test_sees_records_added_after_first_query(self):
        db = _db([[0.0, 0.0], [4.0, 0.0]], [0, 0])
        service = QueryService(db)
        assert len(service.query(np.zeros(2), label=0, k=9)) == 2
        db.add(self._record([0.1, 0.0], 0))
        neighbors = service.query(np.zeros(2), label=0, k=9)
        assert len(neighbors) == 3
        assert neighbors[0].record_index == 0
        assert neighbors[1].record_index == 2  # the new record, d=0.1

    def test_new_label_after_construction_is_queryable(self):
        db = _db([[0.0, 0.0]], [0])
        service = QueryService(db)
        with pytest.raises(QueryError):
            service.query(np.zeros(2), label=3)
        db.add(self._record([1.0, 1.0], 3))
        assert service.query(np.zeros(2), label=3, k=1)[0].record_index == 1


class TestBatchVectorization:
    def _loop_reference(self, service, fingerprints, labels, k):
        return [service.query(fingerprints[i], int(labels[i]), k=k)
                for i in range(fingerprints.shape[0])]

    def test_batch_parity_with_loop(self, generator):
        points = generator.normal(size=(80, 6)).astype(np.float32)
        labels = [i % 4 for i in range(80)]
        db = _db(points.tolist(), labels)
        service = QueryService(db)
        queries = points[:20] + generator.normal(
            size=(20, 6)).astype(np.float32) * 0.1
        query_labels = [labels[i] for i in range(20)]
        batched = service.query_batch(queries, query_labels, k=5)
        reference = self._loop_reference(service, queries, query_labels, k=5)
        assert batched == reference

    def test_batch_parity_with_ties(self):
        # Duplicate points => equal distances; grouping must not perturb
        # the stable insertion-order tie-break.
        points = [[1.0, 0.0], [0.0, 1.0], [1.0, 0.0], [0.0, 1.0]]
        db = _db(points, [0, 0, 0, 0])
        service = QueryService(db)
        queries = np.zeros((3, 2), dtype=np.float32)
        batched = service.query_batch(queries, [0, 0, 0], k=4)
        reference = self._loop_reference(service, queries, [0, 0, 0], k=4)
        assert batched == reference
        assert [n.record_index for n in batched[0]] == [0, 1, 2, 3]

    def test_batch_preserves_submission_order_across_labels(self, generator):
        points = generator.normal(size=(40, 4)).astype(np.float32)
        labels = [i % 3 for i in range(40)]
        db = _db(points.tolist(), labels)
        service = QueryService(db)
        # Interleaved labels: results must come back in submission order.
        order = [2, 0, 1, 1, 0, 2, 0]
        queries = points[:7]
        query_labels = [labels[i] for i in range(7)]
        shuffled = np.stack([queries[i] for i in order])
        shuffled_labels = [query_labels[i] for i in order]
        batched = service.query_batch(shuffled, shuffled_labels, k=3)
        for row, src in enumerate(order):
            assert batched[row] == service.query(queries[src],
                                                 query_labels[src], k=3)

    def test_batch_length_mismatch_rejected(self):
        db = _db([[0.0, 0.0]], [0])
        with pytest.raises(QueryError):
            QueryService(db).query_batch(np.zeros((2, 2)), labels=[0])

    def test_batch_invalid_k_rejected(self):
        db = _db([[0.0, 0.0]], [0])
        with pytest.raises(QueryError):
            QueryService(db).query_batch(np.zeros((1, 2)), labels=[0], k=0)
