"""Mask-loop k-means: the independent oracle for ``serving.segments._cluster``.

This is the clustering loop the index used before its build was put on
array kernels: one ``cdist`` per Lloyd step and for the final pass, one
boolean-mask gather per bucket for each centroid update and for each
final bucket. The production build must reproduce its centroids and its
bucket membership bit for bit. The loop is kept whole, so it still
returns the float32 radii the index used to prune with; they could fall
below a member's float64 ``cdist`` distance, and no test searches with
them. Slow on purpose; tests only.
"""

import numpy as np
from scipy.spatial.distance import cdist


def reference_cluster(matrix, buckets_per_shard, kmeans_iterations,
                      kmeans_sample, seed):
    """Return ``(centroids, buckets, radii)`` with empty buckets dropped."""
    n = matrix.shape[0]
    m = buckets_per_shard or int(np.ceil(np.sqrt(n)))
    m = max(1, min(m, n))
    rng = np.random.default_rng(seed)
    fit_rows = (
        rng.choice(n, size=kmeans_sample, replace=False)
        if n > kmeans_sample else np.arange(n)
    )
    fit = matrix[fit_rows]
    m = min(m, fit.shape[0])
    centroids = fit[rng.choice(fit.shape[0], size=m, replace=False)].copy()
    for _ in range(kmeans_iterations):
        assign = np.argmin(cdist(fit, centroids), axis=1)
        for bucket in range(m):
            members = fit[assign == bucket]
            if members.shape[0]:
                centroids[bucket] = members.mean(axis=0)
            else:
                centroids[bucket] = fit[rng.integers(fit.shape[0])]
    assign = np.argmin(cdist(matrix, centroids), axis=1)
    buckets = []
    radii = np.zeros(m, dtype=np.float64)
    keep = []
    for bucket in range(m):
        rows = np.flatnonzero(assign == bucket)
        if rows.shape[0] == 0:
            continue
        keep.append(bucket)
        buckets.append(rows)
        deltas = matrix[rows] - centroids[bucket]
        radii[bucket] = float(np.sqrt((deltas * deltas).sum(axis=1)).max())
    return centroids[keep], buckets, radii[keep]
