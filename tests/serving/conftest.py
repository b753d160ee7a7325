"""Shared fixtures for the serving-subsystem tests."""

import numpy as np
import pytest

from repro.resilience.faults import ServingFaultPlan, ServingFaultSpec
from repro.serving import LinkageStore

DIM = 8
LABELS = 4


def clustered_corpus(generator, size, dim=DIM, labels=LABELS, clusters=6,
                     spread=0.4):
    """Fingerprints drawn from per-label cluster mixtures (ANN-friendly)."""
    centers = generator.standard_normal((labels, clusters, dim)) * 4.0
    label_column = generator.integers(0, labels, size=size)
    cluster_column = generator.integers(0, clusters, size=size)
    fingerprints = (
        centers[label_column, cluster_column]
        + generator.standard_normal((size, dim)) * spread
    ).astype(np.float32)
    return fingerprints, label_column


def random_corpus(generator, size, dim=DIM, labels=LABELS):
    """Unclustered fingerprints — the ANN worst case."""
    fingerprints = generator.standard_normal((size, dim)).astype(np.float32)
    return fingerprints, generator.integers(0, labels, size=size)


def fill_store(store, fingerprints, labels, segment_records=None):
    n = fingerprints.shape[0]
    step = segment_records or n
    for start in range(0, n, step):
        stop = min(start + step, n)
        store.append(
            fingerprints[start:stop], labels[start:stop].tolist(),
            [f"p{i % 3}" for i in range(start, stop)],
            [bytes([i % 256]) * 32 for i in range(start, stop)],
            source_indices=list(range(start, stop)),
            kinds=["poisoned" if i % 7 == 0 else "normal"
                   for i in range(start, stop)],
        )
    return store


def brute_truth(fingerprints, labels, query, label, k):
    """Record indices of the exact top-k for ``label``, by full scan."""
    rows = np.flatnonzero(labels == label)
    deltas = fingerprints[rows] - query[None, :]
    distances = np.sqrt((deltas * deltas).sum(axis=1))
    order = np.argsort(distances, kind="stable")[:k]
    return [int(rows[i]) for i in order]


def inject(cluster, kind, **fields):
    """Apply one serving fault to ``cluster`` right now, from outside.

    Returns the plan that fired it: ``with inject(...):`` (or
    ``.release()``) lets go of a wedge or delay before the cluster stops.
    """
    plan = ServingFaultPlan([ServingFaultSpec(kind=kind, at_query=0,
                                              **fields)])
    plan.before_query(0, cluster)
    return plan


@pytest.fixture
def store_path(tmp_path):
    return tmp_path / "store"


@pytest.fixture
def small_store(store_path, generator):
    fingerprints, labels = clustered_corpus(generator, 600)
    store = fill_store(LinkageStore.create(store_path), fingerprints, labels,
                       segment_records=250)
    return store, fingerprints, labels
