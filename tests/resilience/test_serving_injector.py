"""Each serving fault kind, applied from outside to a small live cluster.

The cluster under test has no injection surface: every fault below goes
through ``SERVING_FAULT_APPLIERS`` and reaches the victim through what
the production classes expose anyway. Sweeps are explicit
(``health_check_now()``) on a stepped clock, so nothing here waits on a
timer.
"""

import threading

import pytest

from repro.errors import CompactionCrash, NoHealthyReplica
from repro.resilience.faults import SERVING_FAULT_KINDS
from repro.serving import (ClusterConfig, EngineConfig, LinkageStore,
                           ServingCluster, ShardedAnnIndex)

from tests.serving.conftest import (brute_truth, clustered_corpus,
                                    fill_store, inject)

K = 3
RESET_S = 0.2


class World:
    def __init__(self, tmp_path, generator):
        self.fingerprints, self.labels = clustered_corpus(generator, 600)
        self.store = fill_store(
            LinkageStore.create(tmp_path / "injector-store"),
            self.fingerprints, self.labels, segment_records=250)
        self.now = 0.0

    def cluster(self, **overrides):
        config = dict(deadline_s=5.0, hedge_min_s=0.03,
                      breaker_reset_s=RESET_S, health_interval_s=60.0,
                      stop_timeout_s=0.5)
        config.update(overrides)
        return ServingCluster(
            self.store, replicas=3, config=ClusterConfig(**config),
            engine_config=EngineConfig(workers=2, poll_interval=0.005),
            # The background compactor never ticks on its own in here.
            index_factory=lambda s: ShardedAnnIndex(
                s, shard_threshold=100, max_segments=2,
                compaction_interval_s=3600.0),
            clock=lambda: self.now,
        )

    def assert_correct(self, cluster, rows=range(6)):
        """Every query answered by a replica, and answered right."""
        results = []
        for i in rows:
            query, label = self.fingerprints[i] + 0.02, int(self.labels[i])
            result = cluster.query(query, label, k=K)
            assert not result.degraded
            assert [h.index for h in result.hits] == brute_truth(
                self.fingerprints, self.labels, query, label, K)
            results.append(result)
        return results


@pytest.fixture
def world(tmp_path, generator):
    return World(tmp_path, generator)


def _serving_workers():
    return {t for t in threading.enumerate()
            if t.name.startswith("serving-worker-") and t.is_alive()}


def _compactor_ticks(index, ticks):
    """Run the index's own compactor loop for ``ticks`` wake-ups, here."""

    class Stop:
        def wait(self, timeout=None):
            nonlocal ticks
            ticks -= 1
            return ticks < 0

        def is_set(self):
            return False

    real, index._compact_stop = index._compact_stop, Stop()
    try:
        index._compaction_loop()
    finally:
        index._compact_stop = real


def test_replica_crash_fails_over_evicts_and_revives(world):
    with world.cluster() as cluster:
        victim = cluster.replicas[0]
        dead_engine = victim.engine
        inject(cluster, "replica-crash", replica="replica-0")
        results = world.assert_correct(cluster)
        assert all(r.replica != "replica-0" for r in results)
        assert results[0].failed_over
        assert victim.state == "evicted"
        assert victim.evicted_reason == "crash"
        assert cluster.telemetry.counter("evictions") == 1
        cluster.health_check_now()  # too soon after the last attempt
        assert victim.state == "evicted"
        world.now += RESET_S
        cluster.health_check_now()
        assert victim.state == "healthy"
        assert victim.engine is not dead_engine
        assert cluster.telemetry.counter("revivals") == 1
        assert len(cluster.audit.events("replica-revived")) == 1
        assert "replica-0" in {r.replica
                               for r in world.assert_correct(cluster)}
        assert cluster.verify_audit_chain()


def test_replica_hang_is_hedged_around_and_released(world):
    before = _serving_workers()
    with world.cluster() as cluster:
        with inject(cluster, "replica-hang", replica="replica-0"):
            results = world.assert_correct(cluster)
            assert any(r.hedged for r in results)
            assert cluster.telemetry.counter("hedges_launched") >= 1
            assert cluster.audit.events("hedged-query")
        # Released: the replica's own search is back, unwrapped.
        assert "search_batch" not in vars(cluster.replicas[0].index)
    # The injector let go and the cluster stopped: no worker is stranded.
    assert _serving_workers() - before == set()


def test_latency_injection_slows_but_never_corrupts(world):
    with world.cluster(hedge_min_s=1.0) as cluster:
        with inject(cluster, "latency-inject", replica="replica-0",
                    delay_s=0.05):
            results = world.assert_correct(cluster)
            assert "replica-0" in {r.replica for r in results}
            snapshot = cluster.replicas[0].engine.telemetry.snapshot()
            assert snapshot["stages"]["search"]["max"] >= 0.05
        assert "search_batch" not in vars(cluster.replicas[0].index)
        assert cluster.telemetry.counter("evictions") == 0


def test_index_corruption_is_caught_per_answer(world):
    label = int(world.labels[0])
    query = world.fingerprints[0] + 0.02
    with world.cluster() as cluster:
        # An attractor row: the corrupted row *is* the query, so it
        # surfaces as the (false) nearest hit of the very next answer.
        inject(cluster, "index-corrupt", replica="replica-0", label=label,
               row=1, value=tuple(float(x) for x in query))
        expected = brute_truth(world.fingerprints, world.labels, query,
                               label, K)
        for _ in cluster.replicas:  # round-robin reaches replica-0
            result = cluster.query(query, label, k=K)
            assert [h.index for h in result.hits] == expected
        assert cluster.telemetry.counter("verify_failures") >= 1
        assert cluster.replicas[0].evicted_reason == "index-integrity"
        assert cluster.telemetry.counter("evictions") == 1
        # The shared store was never touched.
        cluster.store.verify()


def test_store_corruption_with_every_replica_down_refuses(world):
    with world.cluster(revive=False) as cluster:
        inject(cluster, "store-corrupt", row=0)
        for replica in cluster.replicas:
            inject(cluster, "replica-crash", replica=replica.name)
        with pytest.raises(NoHealthyReplica):
            cluster.query(world.fingerprints[0], int(world.labels[0]), k=K)


def test_torn_manifest_refuses_revival(world):
    with world.cluster() as cluster:
        inject(cluster, "torn-manifest")
        inject(cluster, "replica-crash", replica="replica-0")
        cluster.health_check_now()
        world.now += RESET_S
        cluster.health_check_now()
        assert cluster.replicas[0].state == "evicted"
        assert cluster.telemetry.counter("revive_failures") == 1
        assert cluster.audit.events("revive-failed")
        world.assert_correct(cluster)  # the survivors keep serving


def test_growth_storm_is_refreshed_not_evicted(world):
    with world.cluster() as cluster:
        records = len(world.store)
        plan = inject(cluster, "growth-storm", records=64)
        assert len(world.store) == records + 64
        world.assert_correct(cluster)  # pinned snapshots keep answering
        for _ in cluster.replicas:  # one replica refreshes per sweep
            cluster.health_check_now()
        assert all(r.index.built_version == world.store.version
                   for r in cluster.replicas)
        assert cluster.telemetry.counter("replica_refreshes") == 3
        assert cluster.telemetry.counter("evictions") == 0
        # The victim's chain records what it observed, not the drill.
        assert not cluster.audit.events("fault-injected")
        assert [s.kind for s in plan.fired] == ["growth-storm"]


def test_compaction_crash_leaves_the_live_generation_bitwise_intact(world):
    queries = world.fingerprints[:8] + 0.02
    label = int(world.labels[0])
    with world.cluster() as cluster:
        for _ in range(2):  # 1 built + 2 refreshed segments > max_segments
            inject(cluster, "growth-storm", records=32)
            cluster.refresh(max_replicas=3)
        index = cluster.replicas[0].index
        assert index.stats()["segments"] == 3
        inject(cluster, "compaction-crash", replica="replica-0")
        snapshot = index.snapshot_digest
        answers = index.search_batch(queries, label, K).hits
        _compactor_ticks(index, 1)  # builds the merge, dies before adopting
        assert index.compaction_failures == 1
        assert index.compactions == 0
        assert index.snapshot_digest == snapshot
        assert index.search_batch(queries, label, K).hits == answers
        _compactor_ticks(index, 1)  # one-shot: the next step merges
        assert index.compaction_failures == 1
        assert index.compactions == 1
        assert index.stats()["segments"] == 2
        assert index.search_batch(queries, label, K).hits == answers
        # Only the target was armed.
        assert cluster.replicas[1].index.compact_now() == 1
        world.assert_correct(cluster)
        assert cluster.telemetry.counter("evictions") == 0


def test_a_crashed_step_raises_to_a_direct_caller(world):
    with world.cluster() as cluster:
        for _ in range(2):
            inject(cluster, "growth-storm", records=32)
            cluster.refresh(max_replicas=3)
        inject(cluster, "compaction-crash")  # first healthy replica
        with pytest.raises(CompactionCrash):
            cluster.replicas[0].index.compact_now()
        assert cluster.replicas[0].index.compact_now() == 1


def test_every_kind_is_exercised_above():
    exercised = {"replica-crash", "replica-hang", "latency-inject",
                 "index-corrupt", "store-corrupt", "torn-manifest",
                 "growth-storm", "compaction-crash"}
    assert exercised == set(SERVING_FAULT_KINDS)
