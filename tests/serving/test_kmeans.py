"""The clustered build against its oracle: bitwise k-means, covering radii.

``tests/serving/reference_kmeans.py`` is the mask loop the build used to
run. The array build must give the same centroids (float32 bits) and the
same buckets (row ids, bucket order) on every corpus, including the ones
where the GEMM assignment cannot decide a row and ``cdist`` has to.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial.distance import cdist

from repro.serving import LinkageStore, SegmentBuildParams, ShardedAnnIndex
from repro.serving import segments
from repro.serving.segments import _ClusteredShard, _cluster, _nearest

from tests.serving.conftest import clustered_corpus, fill_store
from tests.serving.reference_kmeans import reference_cluster


def _assert_matches_oracle(matrix, params, seed):
    shard = _cluster(matrix, np.arange(matrix.shape[0]), params, seed)
    centroids, buckets, _ = reference_cluster(
        matrix, params.buckets_per_shard, params.kmeans_iterations,
        params.kmeans_sample, seed)
    assert shard.centroids.dtype == centroids.dtype == np.float32
    assert np.array_equal(shard.centroids, centroids)
    assert len(shard.buckets) == len(buckets)
    for got, want in zip(shard.buckets, buckets):
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)
    return shard


@pytest.fixture
def fallback_rows(monkeypatch):
    """Rows ``_nearest`` hands to ``cdist`` (radius calls excluded)."""
    rows = []
    real = segments.cdist

    def recording(points, centroids):
        if centroids.shape[0] > 1:
            rows.append(points.shape[0])
        return real(points, centroids)

    monkeypatch.setattr(segments, "cdist", recording)
    return rows


class TestClusteringIsTheOracles:
    @settings(max_examples=80, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1),
           n=st.integers(20, 400),
           dim=st.integers(1, 64),
           grid=st.booleans(),
           offset=st.sampled_from([0.0, 1e4]),
           buckets=st.one_of(st.none(), st.integers(1, 60)),
           sample=st.one_of(st.just(20000), st.integers(5, 80)),
           iterations=st.sampled_from([0, 1, 6]))
    def test_any_corpus(self, seed, n, dim, grid, offset, buckets, sample,
                        iterations):
        rng = np.random.default_rng(seed)
        # A 0..2 grid is all exact ties and duplicate rows; buckets above
        # the subsample size clamp, and duplicate centroids leave buckets
        # empty (the rng reseed path, then the drop).
        matrix = (rng.integers(0, 3, size=(n, dim)) if grid
                  else rng.standard_normal((n, dim)))
        matrix = (matrix + offset).astype(np.float32)
        params = SegmentBuildParams(buckets_per_shard=buckets,
                                    kmeans_iterations=iterations,
                                    kmeans_sample=sample)
        _assert_matches_oracle(matrix, params, seed % 1000)

    def test_serve_growth_shaped_shard(self):
        # One label of the `serve_growth` benchmark: 5,000 x 32, m = 71.
        rng = np.random.default_rng(25)
        centers = rng.standard_normal((16, 32)) * 4.0
        matrix = (centers[rng.integers(0, 16, size=5000)]
                  + rng.standard_normal((5000, 32)) * 0.5).astype(np.float32)
        shard = _assert_matches_oracle(matrix, SegmentBuildParams(), seed=3)
        assert len(shard.buckets) == 71
        assert sum(bucket.shape[0] for bucket in shard.buckets) == 5000

    def test_duplicate_centroids_leave_empty_buckets(self):
        matrix = np.repeat(np.arange(3, dtype=np.float32), 40)[:, None]
        params = SegmentBuildParams(buckets_per_shard=10)
        shard = _assert_matches_oracle(matrix, params, seed=4)
        assert len(shard.buckets) < 10  # empty buckets were reseeded, dropped


class TestCdistFallback:
    def test_equidistant_rows_are_decided_by_cdist(self, fallback_rows):
        # Small integers make every score exact, so a row equidistant from
        # two corners has a runner-up gap of exactly 0 and must go to
        # cdist, which breaks the tie to the lowest bucket.
        grid = np.array(list(itertools.product(range(3), repeat=2)),
                        dtype=np.float32)
        corners = np.array([[2, 2], [0, 0], [2, 0], [0, 2]], dtype=np.float32)
        got = _nearest(grid, corners)
        assert got.tolist() == np.argmin(cdist(grid, corners), axis=1).tolist()
        # (0,1) (1,0) (1,1) (1,2) (2,1): the five edge and centre points.
        assert fallback_rows == [5]

    def test_rounded_near_ties_are_decided_by_cdist(self, fallback_rows):
        # 0.1 is no float32: on these near-ties the expanded form and cdist
        # round differently, and the GEMM alone picks another bucket.
        rows = (np.random.default_rng(3).integers(0, 3, size=(400, 32))
                * 0.1).astype(np.float32)
        centroids = rows[:8]
        want = np.argmin(cdist(rows, centroids), axis=1)
        wide, narrow = rows.astype(np.float64), centroids.astype(np.float64)
        gemm_only = np.argmin(
            (narrow * narrow).sum(axis=1) - 2 * wide @ narrow.T, axis=1)
        assert np.count_nonzero(gemm_only != want) > 0
        assert _nearest(rows, centroids).tolist() == want.tolist()
        assert sum(fallback_rows) >= np.count_nonzero(gemm_only != want)

    def test_grid_build_takes_the_fallback_and_matches(self, fallback_rows):
        matrix = np.random.default_rng(5).integers(
            0, 3, size=(300, 2)).astype(np.float32)
        _assert_matches_oracle(matrix, SegmentBuildParams(), seed=1)
        assert sum(fallback_rows) > 0

    def test_well_separated_rows_never_fall_back(self, generator,
                                                 fallback_rows):
        fingerprints, _ = clustered_corpus(generator, 2000, spread=0.2)
        _cluster(fingerprints, np.arange(2000), SegmentBuildParams(), 0)
        assert fallback_rows == []


class TestRadii:
    def test_every_member_is_inside_its_radius(self, tmp_path, generator):
        fingerprints, labels = clustered_corpus(generator, 3000)
        store = fill_store(LinkageStore.create(tmp_path / "store"),
                           fingerprints, labels, segment_records=1000)
        index = ShardedAnnIndex(store, shard_threshold=200).build()
        shards = [shard for segment in index._generation.segments
                  for shard in segment.shards.values()
                  if isinstance(shard, _ClusteredShard)]
        assert shards
        for shard in shards:
            for rows, centroid, radius in zip(shard.buckets, shard.centroids,
                                              shard.radii):
                # As the search measures it: float64 cdist to the centroid.
                distances = cdist(shard.matrix[rows], centroid[None])
                assert distances.max() <= radius
