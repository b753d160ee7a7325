"""Growth under load: an append storm must cost zero availability.

The bugfix contract this module pins down end-to-end:

* a concurrent ingest storm during ``query_many`` never surfaces a
  :class:`~repro.errors.StaleIndexError` to a client and never evicts a
  replica — staleness from benign growth is repaired by staggered
  refresh, in place;
* every answer is *correct for the snapshot that produced it*: the
  answer carries ``label_rows`` (how many rows of the label its pinned
  generation covered) and brute force over exactly that commit-order
  prefix reproduces the hits bitwise — membership, distances, and
  tie-break order;
* the audit chains stay continuous across refreshes (hash-chained logs
  verify end-to-end after the storm).
"""

import threading
import time

import numpy as np
import pytest

from repro.serving import (ClusterConfig, EngineConfig, LinkageStore,
                           ServingCluster, ShardedAnnIndex)

from tests.serving.conftest import clustered_corpus, fill_store


@pytest.fixture
def world(tmp_path, generator):
    fingerprints, labels = clustered_corpus(generator, 900)
    store = fill_store(LinkageStore.create(tmp_path / "growth-store"),
                       fingerprints, labels, segment_records=300)
    return fingerprints, labels, store


def _cluster_for(store, seed=0):
    return ServingCluster(
        store, replicas=3,
        config=ClusterConfig(deadline_s=5.0, health_interval_s=0.02,
                             breaker_reset_s=0.05),
        engine_config=EngineConfig(workers=2, poll_interval=0.002),
        index_factory=lambda s: ShardedAnnIndex(
            s, shard_threshold=256, seed=seed, max_segments=4,
            compaction_interval_s=0.02),
    )


def _brute_prefix(store, label, rows, query, k):
    """Stable brute-force top-k over the first ``rows`` commit-order
    records of ``label`` — the exact answer for any snapshot that covered
    that many rows of the label."""
    matrix, indices = store.by_label(int(label))
    matrix = np.asarray(matrix, dtype=np.float32)[:rows]
    indices = list(indices)[:rows]
    distances = np.sqrt(((matrix - query[None, :]) ** 2).sum(axis=1))
    order = np.argsort(distances, kind="stable")[: min(k, rows)]
    return [(int(indices[i]), float(distances[i])) for i in order]


class TestGrowthStorm:
    def test_append_storm_costs_nothing(self, world, generator):
        fingerprints, labels, store = world
        k = 5
        query_count = 120
        sample = generator.integers(0, 900, size=query_count)
        queries = (fingerprints[sample]
                   + generator.standard_normal(
                       (query_count, fingerprints.shape[1])
                   ).astype(np.float32) * 0.1)
        query_labels = [int(labels[int(i)]) for i in sample]

        stop = threading.Event()
        first_append = threading.Event()
        append_errors = []

        def storm():
            rng = np.random.default_rng(1234)
            while not stop.is_set():
                burst = rng.integers(40, 120)
                extra = rng.standard_normal(
                    (burst, store.dimension)).astype(np.float32)
                extra_labels = rng.integers(0, 4, size=burst).tolist()
                try:
                    store.append(extra, extra_labels, ["storm"] * burst,
                                 [b"s" * 32] * burst)
                except Exception as exc:  # noqa: BLE001 — surfaced below
                    append_errors.append(exc)
                    return
                first_append.set()
                time.sleep(0.01)

        answered = []
        with _cluster_for(store) as cluster:
            # Warm the plane, then unleash the storm mid-stream.
            cluster.query(queries[0], query_labels[0], k=k)
            storm_thread = threading.Thread(target=storm, daemon=True)
            storm_thread.start()
            # The queries below must race real growth, whatever the
            # scheduler does with the storm thread's first slice.
            assert first_append.wait(timeout=5.0), append_errors
            try:
                for start in range(0, query_count, 24):
                    stop_at = min(start + 24, query_count)
                    results = cluster.query_many(
                        queries[start:stop_at],
                        query_labels[start:stop_at], k=k)
                    for offset, result in enumerate(results):
                        answered.append((start + offset, result))
            finally:
                stop.set()
                storm_thread.join(timeout=5.0)
            assert not append_errors
            # 100% availability: every query answered, none degraded.
            assert len(answered) == query_count
            assert all(not r.degraded for _, r in answered)
            # Growth was repaired by refresh, never punished by eviction.
            assert cluster.telemetry.counter("evictions") == 0
            assert all(r.state == "healthy" for r in cluster.replicas)
            assert not cluster.audit.events("replica-evicted")
            # The store grew and the storm is over, so any replica the
            # 20 ms sweep timer has not reached yet is behind and healthy:
            # one synchronous sweep refreshes it by construction.
            cluster.health_check_now()
            refreshes = cluster.telemetry.counter("replica_refreshes")
            assert refreshes > 0
            # No replica ever fell back to a from-scratch rebuild.
            assert all(r.index.full_builds == 1 for r in cluster.replicas)
            # Zero wrong answers: brute force over each answer's pinned
            # commit-order prefix reproduces it bitwise.
            checked = 0
            for qi, result in answered:
                rows = getattr(result.hits, "label_rows", None)
                if rows is None:
                    continue
                expected = _brute_prefix(store, query_labels[qi], rows,
                                         queries[qi], k)
                got = [(h.index, h.distance) for h in result.hits]
                assert [g[0] for g in got] == [e[0] for e in expected]
                np.testing.assert_allclose(
                    [g[1] for g in got], [e[1] for e in expected],
                    rtol=1e-5)
                checked += 1
            assert checked > 0
            # Audit continuity: the cluster chain and every replica chain
            # verify end-to-end across all the refresh adoptions.
            assert cluster.verify_audit_chain()
            for replica in cluster.replicas:
                assert replica.engine.audit.verify_chain()
            assert any(e.kind == "replica-refreshed"
                       for e in cluster.audit.events())

    def test_refresh_is_staggered(self, world, generator):
        fingerprints, labels, store = world
        with _cluster_for(store) as cluster:
            label = int(labels[0])
            cluster.query(fingerprints[0], label, k=1)
            extra, extra_labels = clustered_corpus(generator, 80)
            store.append(extra, extra_labels.tolist(), ["p9"] * 80,
                         [b"x" * 32] * 80)
            # One manual refresh adopts on one replica.
            adopted = cluster.refresh()
            assert adopted == 1
            behind = [r for r in cluster.replicas
                      if r.index.built_version != store.version]
            assert len(behind) == len(cluster.replicas) - 1
            # Subsequent sweeps drain the remainder without evictions.
            while cluster.refresh():
                pass
            assert all(r.index.built_version == store.version
                       for r in cluster.replicas)
            assert cluster.telemetry.counter("evictions") == 0

    def test_growth_storm_fault_spec_round_trip(self, world):
        fingerprints, labels, store = world
        from repro.resilience.faults import ServingFaultPlan, ServingFaultSpec
        plan = ServingFaultPlan([
            ServingFaultSpec(kind="growth-storm", at_query=0, records=64),
        ])
        with _cluster_for(store) as cluster:
            before, records = store.version, len(store)
            fired = plan.before_query(0, cluster)
            assert [s.kind for s in fired] == ["growth-storm"]
            assert store.version == before + 1
            assert [s.records for s in plan.fired] == [64]
            assert len(store) == records + 64
            # The storm is benign: queries keep working and the sweep
            # catches the replicas up.
            result = cluster.query(fingerprints[0], int(labels[0]), k=3)
            assert not result.degraded
            while cluster.refresh():
                pass
            assert cluster.telemetry.counter("evictions") == 0
