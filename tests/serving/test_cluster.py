"""Self-healing cluster tests: routing, failover, degradation, healing.

Faults are applied from outside, through ``repro.resilience``'s injector
(``inject`` below) — the cluster has no chaos surface of its own. Sweeps
are driven by explicit ``health_check_now()`` calls on a stepped clock;
one smoke test keeps the real monitor thread.
"""

import dataclasses
import threading
import time

import numpy as np
import pytest

from repro.errors import (ConfigurationError, IndexIntegrityError,
                          NoHealthyReplica, PromotionError, QueryError,
                          QueryRejected, ServingError)
from repro.observability import Tracer
from repro.serving import (CircuitBreaker, ClusterConfig, EngineConfig,
                           LinkageStore, ServingCluster, ShardedAnnIndex)
from repro.serving import segments
from repro.serving.engine import answer_digest
from repro.utils.serialization import canonical_digest

from tests.serving.conftest import brute_truth as _brute_truth
from tests.serving.conftest import clustered_corpus, fill_store, inject


def _cluster_for(store, replicas=3, monitor=False, clock=time.monotonic,
                 **overrides):
    defaults = dict(
        deadline_s=5.0, hedge_min_s=0.05, breaker_reset_s=0.2,
        health_interval_s=0.05 if monitor else 60.0,
        stop_timeout_s=0.5,
    )
    defaults.update(overrides)
    return ServingCluster(
        store, replicas=replicas,
        config=ClusterConfig(**defaults),
        engine_config=EngineConfig(workers=2, poll_interval=0.005),
        index_factory=lambda s: ShardedAnnIndex(s, shard_threshold=100),
        clock=clock,
    )


def _crash_all(cluster):
    for replica in cluster.replicas:
        inject(cluster, "replica-crash", replica=replica.name)


def _wait_until(predicate, timeout=5.0, interval=0.02):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return predicate()


@pytest.fixture
def world(tmp_path, generator):
    fingerprints, labels = clustered_corpus(generator, 600)
    store = fill_store(LinkageStore.create(tmp_path / "cluster-store"),
                       fingerprints, labels, segment_records=250)
    return fingerprints, labels, store


class TestRouting:
    def test_fault_free_answers_match_brute_force(self, world, generator):
        fingerprints, labels, store = world
        sample = generator.integers(0, fingerprints.shape[0], size=25)
        with _cluster_for(store) as cluster:
            for i in sample:
                query = fingerprints[i] + 0.02
                label = int(labels[i])
                result = cluster.query(query, label, k=5)
                assert not result.degraded
                assert result.replica is not None
                expected = _brute_truth(fingerprints, labels, query, label, 5)
                assert [h.index for h in result.hits] == expected

    def test_query_many_matches_single_queries(self, world, generator):
        fingerprints, labels, store = world
        sample = generator.integers(0, fingerprints.shape[0], size=20)
        queries = fingerprints[sample] + 0.01
        with _cluster_for(store) as cluster:
            batch = cluster.query_many(queries, labels[sample], k=4)
            assert len(batch) == 20
            for i, result in enumerate(batch):
                expected = _brute_truth(fingerprints, labels, queries[i],
                                        int(labels[sample][i]), 4)
                assert [h.index for h in result.hits] == expected

    def test_unknown_label_is_a_caller_error(self, world):
        fingerprints, _, store = world
        with _cluster_for(store) as cluster:
            with pytest.raises(QueryError):
                cluster.query(fingerprints[0], label=99, k=3)
            assert cluster.telemetry.counter("caller_errors") == 1
            # The cluster keeps serving afterwards.
            assert not cluster.query(fingerprints[0], 0, k=3).degraded

    def test_requires_started_cluster(self, world):
        _, _, store = world
        cluster = _cluster_for(store)
        with pytest.raises(ServingError):
            cluster.query(np.zeros(8, dtype=np.float32), 0)

    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            ClusterConfig(deadline_s=0)
        with pytest.raises(ConfigurationError):
            ClusterConfig(backoff_base_s=0.5, backoff_cap_s=0.1)
        with pytest.raises(ConfigurationError):
            ClusterConfig(breaker_threshold=0)

    @pytest.mark.parametrize("option", [
        "verify_hits", "hedging", "verify_tolerance", "jitter_seed",
        "latency_window", "probe_timeout_s", "auto_refresh",
        "refresh_stagger"])
    def test_never_set_options_are_not_settable(self, option):
        # Verification, hedging and the one-replica-a-sweep refresh are
        # always on; the rest are constants.
        with pytest.raises(TypeError):
            ClusterConfig(**{option: False})
        assert len(dataclasses.fields(ClusterConfig)) == 12

    def test_replica_index_is_the_factory_s_object(self, world):
        _, _, store = world
        built = []

        def factory(s):
            built.append(ShardedAnnIndex(s, shard_threshold=100))
            return built[-1]

        cluster = ServingCluster(store, replicas=2, index_factory=factory)
        assert [r.index for r in cluster.replicas] == built
        assert all(r.engine.index is r.index for r in cluster.replicas)
        with ServingCluster(store, replicas=1) as default:
            assert type(default.replicas[0].index) is ShardedAnnIndex


def _shard_arrays(index):
    for segment in index._generation.segments:
        for shard in segment.shards.values():
            yield shard.matrix
            yield shard.indices
            if isinstance(shard, segments._ClusteredShard):
                yield shard.centroids
                yield shard.radii
                yield from shard.buckets


class TestBuildOnce:
    def test_one_kmeans_per_label_and_the_standalone_answers(
            self, world, generator, monkeypatch):
        fingerprints, labels, store = world
        clustered = [label for label in np.unique(labels)
                     if (labels == label).sum() > 100]
        assert len(clustered) >= 2  # above _cluster_for's shard_threshold
        calls = []
        kmeans = segments._cluster

        def counting(*args, **kwargs):
            calls.append(args)
            return kmeans(*args, **kwargs)

        monkeypatch.setattr(segments, "_cluster", counting)
        cluster = _cluster_for(store, replicas=3)
        with cluster:
            assert len(calls) == len(clustered)
            standalone = ShardedAnnIndex(store, shard_threshold=100).build()
            sample = generator.integers(0, fingerprints.shape[0], size=24)
            queries = fingerprints[sample] + 0.01
            results = cluster.query_many(queries, labels[sample], k=5)
            for query, label, result in zip(queries, labels[sample], results):
                truth = standalone.search_batch(query[None, :], label, k=5)
                assert [h.index for h in result.hits] == truth.ids[0].tolist()
                assert ([h.distance for h in result.hits]
                        == truth.distances[0].tolist())
            for replica in cluster.replicas:
                assert replica.index.full_builds == 1
                assert (replica.index._generation.snapshot
                        == standalone._generation.snapshot)
                for label in clustered:
                    mine = replica.index.search_batch(queries, label, k=5)
                    truth = standalone.search_batch(queries, label, k=5)
                    assert mine.ids.tolist() == truth.ids.tolist()
                    assert mine.distances.tolist() == truth.distances.tolist()

    def test_replica_copies_share_no_memory_and_fail_alone(self, world):
        fingerprints, labels, store = world
        with _cluster_for(store, replicas=3) as cluster:
            indexes = [replica.index for replica in cluster.replicas]
            for i, mine in enumerate(indexes):
                for other in indexes[i + 1:]:
                    assert not any(
                        np.shares_memory(a, b)
                        for a in _shard_arrays(mine)
                        for b in _shard_arrays(other))
            inject(cluster, "index-corrupt", replica="replica-0",
                   label=int(labels[0]), row=0)
            with pytest.raises(IndexIntegrityError):
                indexes[0].verify_checksums()
            indexes[1].verify_checksums()
            states = cluster.health_check_now()
            assert states == {"replica-0": "evicted",
                              "replica-1": "healthy",
                              "replica-2": "healthy"}
            assert cluster.telemetry.counter("evictions") == 1

    def test_copy_carries_build_time_checksums(self, world):
        _, labels, store = world
        source = ShardedAnnIndex(store, shard_threshold=100).build()
        shard = source._generation.segments[0].shards[int(labels[0])]
        shard.matrix[0] += np.float32(1.0)
        replica = ShardedAnnIndex(store, shard_threshold=100)
        replica.copy_from(source)
        with pytest.raises(IndexIntegrityError):
            replica.verify_checksums()

    def test_copy_refuses_other_params(self, world):
        _, _, store = world
        source = ShardedAnnIndex(store, shard_threshold=100).build()
        with pytest.raises(ConfigurationError):
            ShardedAnnIndex(store, shard_threshold=50).copy_from(source)

    def test_failed_start_leaks_no_thread(self, world):
        _, _, store = world
        checks = []

        def verifier(promotion):
            checks.append(promotion)
            if len(checks) == 2:
                raise PromotionError("lineage no longer verifies")

        cluster = ServingCluster(
            store, replicas=3,
            config=ClusterConfig(health_interval_s=60.0, stop_timeout_s=5.0),
            engine_config=EngineConfig(workers=2, poll_interval=0.005),
            index_factory=lambda s: ShardedAnnIndex(s, shard_threshold=100),
            promotion_verifier=verifier,
        )
        before = set(threading.enumerate())
        with pytest.raises(PromotionError):
            cluster.start()
        assert len(checks) == 2
        assert set(threading.enumerate()) - before == set()


class TestFailover:
    def test_crash_fails_over_and_background_revives(self, world):
        fingerprints, labels, store = world
        # The one test that races the real monitor thread (50 ms timer).
        with _cluster_for(store, monitor=True) as cluster:
            inject(cluster, "replica-crash", replica="replica-0")
            result = cluster.query(fingerprints[0], int(labels[0]), k=3)
            assert not result.degraded
            assert result.replica != "replica-0"
            # A revival is counted and audited before it is published:
            # the moment the state reads healthy, both are there.
            assert _wait_until(
                lambda: cluster.replicas[0].state == "healthy")
            assert cluster.telemetry.counter("revivals") >= 1
            assert cluster.audit.events("replica-revived")
            assert cluster.telemetry.counter("evictions") >= 1
            kinds = [e.kind for e in cluster.audit.events()]
            assert "replica-evicted" in kinds
            assert "replica-revived" in kinds
            assert cluster.verify_audit_chain()

    def test_wedged_replica_hedged_around(self, world):
        fingerprints, labels, store = world
        with _cluster_for(store, hedge_min_s=0.03) as cluster:
            with inject(cluster, "replica-hang", replica="replica-0"):
                for i in range(6):
                    result = cluster.query(fingerprints[i], int(labels[i]),
                                           k=3)
                    assert not result.degraded
            assert cluster.telemetry.counter("hedges_launched") >= 1
            assert len(cluster.audit.events("hedged-query")) >= 1

    def test_corrupted_answer_caught_and_replica_evicted(self, world):
        # Plant an attractor row in one replica's index: the corrupted
        # row surfaces as the (false) nearest hit, per-answer store
        # verification catches the lie, the replica is evicted, and the
        # caller still receives the *correct* answer from elsewhere.
        fingerprints, labels, store = world
        label = int(labels[0])
        query = fingerprints[0] + 0.02
        with _cluster_for(store) as cluster:
            inject(cluster, "index-corrupt", replica="replica-0",
                   label=label, row=1, value=tuple(float(x) for x in query))
            expected = _brute_truth(fingerprints, labels, query, label, 3)
            for _ in range(6):  # round-robin guarantees replica-0 gets one
                result = cluster.query(query, label, k=3)
                assert [h.index for h in result.hits] == expected
            assert cluster.telemetry.counter("verify_failures") >= 1
            assert cluster.replicas[0].state in ("evicted", "reviving",
                                                 "healthy")
            assert cluster.telemetry.counter("evictions") >= 1

    def test_provenance_less_answers_fail_closed(self, world):
        # End to end (the verdicts themselves are tests/serving/
        # test_verify.py's table): a replica whose index stops citing its
        # snapshot is evicted, and the caller still gets the right answer.
        fingerprints, labels, store = world
        label = int(labels[0])
        query = fingerprints[0] + 0.02
        with _cluster_for(store, revive=False) as cluster:
            victim = cluster.replicas[0]
            honest = victim.index.search_batch

            def strip_snapshot(batch, label, k=9):
                result = honest(batch, label, k)
                result.snapshot = None
                return result

            victim.index.search_batch = strip_snapshot
            expected = _brute_truth(fingerprints, labels, query, label, 3)
            for _ in range(len(cluster.replicas)):  # round-robin reaches it
                result = cluster.query(query, label, k=3)
                assert not result.degraded
                assert [h.index for h in result.hits] == expected
            assert victim.state == "evicted"
            assert victim.evicted_reason == "index-integrity"

    def test_health_sweep_checksum_catches_silent_corruption(self, world):
        # Corruption that never surfaces in an answer is still caught by
        # the background shard-checksum sweep.
        fingerprints, labels, store = world
        with _cluster_for(store) as cluster:
            inject(cluster, "index-corrupt", replica="replica-1",
                   label=int(labels[0]), row=0)
            cluster.health_check_now()
            assert cluster.replicas[1].state != "healthy"
            reasons = [e.details["reason"]
                       for e in cluster.audit.events("replica-evicted")]
            assert "index-integrity" in reasons

    def test_audit_chain_break_evicts_replica(self, world):
        fingerprints, labels, store = world
        with _cluster_for(store) as cluster:
            cluster.query(fingerprints[0], int(labels[0]), k=3)
            # Tamper with whichever replica served queries.
            victim = next(r for r in cluster.replicas
                          if len(r.engine.audit) > 0)
            event = victim.engine.audit.events()[0]
            object.__setattr__(event, "details",
                               {**event.details, "label": 999})
            cluster.health_check_now()
            assert victim.state != "healthy"
            reasons = [e.details["reason"]
                       for e in cluster.audit.events("replica-evicted")]
            assert "audit-chain-break" in reasons

    def test_event_appended_during_a_sweep_is_verified_by_the_next(
            self, world):
        fingerprints, labels, store = world
        with _cluster_for(store) as cluster:
            cluster.query(fingerprints[0], int(labels[0]), k=3)
            victim = next(r for r in cluster.replicas
                          if len(r.engine.audit) > 0)
            log = victim.engine.audit
            verify_from = log.verify_from

            def appended_meanwhile(sequence, head):
                # The worker appends past the suffix being verified, and
                # that event is then altered.
                mark = verify_from(sequence, head)
                event = log.append("serving-query", label=int(labels[0]))
                object.__setattr__(event, "details", {"label": 999})
                return mark

            log.verify_from = appended_meanwhile
            cluster.health_check_now()
            del log.verify_from
            assert not log.verify_chain()
            cluster.health_check_now()
            assert victim.state == "evicted"
            assert victim.evicted_reason == "audit-chain-break"

    def test_append_between_reads_does_not_evict_an_intact_chain(
            self, world):
        fingerprints, labels, store = world
        with _cluster_for(store) as cluster:
            cluster.query(fingerprints[0], int(labels[0]), k=3)
            victim = next(r for r in cluster.replicas
                          if len(r.engine.audit) > 0)
            log = victim.engine.audit
            honest = type(log)

            class AppendedBeforeHeadRead(honest):
                @property
                def head(self):
                    # An honest append lands after any length read and
                    # before this head read, once.
                    self.__class__ = honest
                    self.append("serving-query", label=int(labels[0]))
                    return self.head

            log.__class__ = AppendedBeforeHeadRead
            cluster.health_check_now()
            log.__class__ = honest
            log.append("serving-query", label=int(labels[0]))
            cluster.health_check_now()
            assert log.verify_chain()
            assert victim.state == "healthy"
            assert not cluster.audit.events("replica-evicted")


class TestDegradedMode:
    def test_all_replicas_down_serves_degraded_and_audited(self, world):
        fingerprints, labels, store = world
        label = int(labels[0])
        query = fingerprints[0] + 0.02
        with _cluster_for(store, revive=False) as cluster:
            _crash_all(cluster)
            result = cluster.query(query, label, k=5)
            assert result.degraded
            assert result.replica is None
            expected = _brute_truth(fingerprints, labels, query, label, 5)
            assert [h.index for h in result.hits] == expected
            assert cluster.telemetry.counter("degraded_answers") == 1
            assert len(cluster.audit.events("degraded-query")) == 1
            assert cluster.verify_audit_chain()

    def test_degraded_and_healthy_answers_are_equal_hit_for_hit(
            self, tmp_path, generator):
        # Both paths rank with the one exact kernel: on a label made of
        # duplicated fingerprints (every distance tied five ways) the
        # degraded answer must equal a healthy replica's — same indices in
        # the same order, and bitwise the same distances.
        points = generator.standard_normal((6, 8)).astype(np.float32)
        fingerprints = np.tile(points, (5, 1))
        labels = np.zeros(30, dtype=np.int64)
        store = fill_store(LinkageStore.create(tmp_path / "dup-store"),
                           fingerprints, labels, segment_records=12)
        query = generator.standard_normal(8).astype(np.float32)
        with _cluster_for(store, revive=False) as cluster:
            healthy = cluster.query(query, 0, k=12)
            assert not healthy.degraded
            _crash_all(cluster)
            degraded = cluster.query(query, 0, k=12)
            assert degraded.degraded
            assert ([tuple(h) for h in degraded.hits]
                    == [tuple(h) for h in healthy.hits])

    def test_degraded_disabled_fails_typed(self, world):
        fingerprints, labels, store = world
        with _cluster_for(store, revive=False,
                          degraded_allowed=False) as cluster:
            _crash_all(cluster)
            with pytest.raises(NoHealthyReplica):
                cluster.query(fingerprints[0], int(labels[0]), k=3)
            assert cluster.telemetry.counter("queries_failed") == 1

    def test_degraded_refuses_corrupted_store(self, world):
        # Store corruption poisons every replica AND the fallback: the
        # degraded path re-verifies the content-addressed segments and
        # refuses fail-closed rather than serve unverifiable bytes.
        fingerprints, labels, store = world
        with _cluster_for(store, revive=False) as cluster:
            inject(cluster, "store-corrupt", row=0)
            _crash_all(cluster)
            with pytest.raises(NoHealthyReplica):
                cluster.query(fingerprints[0], int(labels[0]), k=3)

    def test_torn_manifest_blocks_revival(self, world):
        fingerprints, labels, store = world
        clock = [0.0]
        with _cluster_for(store, clock=lambda: clock[0]) as cluster:
            inject(cluster, "torn-manifest")
            inject(cluster, "replica-crash", replica="replica-0")
            cluster.health_check_now()  # sees the crash, evicts
            assert cluster.replicas[0].state == "evicted"
            clock[0] += cluster.config.breaker_reset_s
            cluster.health_check_now()  # tries to revive, store won't open
            assert cluster.telemetry.counter("revive_failures") == 1
            assert cluster.replicas[0].state == "evicted"
            # The survivors keep serving; answers stay correct.
            result = cluster.query(fingerprints[0], int(labels[0]), k=3)
            assert not result.degraded


class TestStaleness:
    def test_store_growth_refreshes_replicas_without_eviction(self, world):
        # Mid-flight store growth is benign: every replica keeps serving
        # its pinned snapshot (answers stay correct for the prefix it
        # covers), the health sweep adopts the new segments via staggered
        # refresh, and nobody is evicted along the way.
        fingerprints, labels, store = world
        label = int(labels[0])
        query = fingerprints[0]
        with _cluster_for(store) as cluster:
            cluster.query(query, label, k=1)
            store.append(query.reshape(1, -1), [label], ["p9"], [b"z" * 32])
            # The cluster never stops answering while behind; pinned
            # snapshots simply don't include the new record yet.
            result = cluster.query(query, label, k=2)
            assert not result.degraded
            # Each sweep catches one replica up.
            for _ in cluster.replicas:
                cluster.health_check_now()
            assert all(
                r.state == "healthy" and r.index.built_version == store.version
                for r in cluster.replicas)
            follow_up = cluster.query(query, label, k=2)
            assert not follow_up.degraded
            assert 600 in [h.index for h in follow_up.hits]
            # Refresh, not eviction: growth must never cost a replica.
            assert cluster.telemetry.counter("evictions") == 0
            assert cluster.telemetry.counter("replica_refreshes") >= len(
                cluster.replicas)
            assert cluster.audit.events("replica-refreshed")
            assert not cluster.audit.events("replica-evicted")
            # No replica ever rebuilt from scratch to catch up.
            assert all(r.index.full_builds == 1 for r in cluster.replicas)

    def test_hot_cached_answers_survive_deep_generation_history(self, world):
        # The review cliff: per-label cache keys keep entries warm across
        # growth, but each entry cites the snapshot that filled it. After
        # more adoptions than the replica's generation history holds, a
        # cache hit for an untouched label must still verify — re-stamped
        # to the live generation — instead of evicting a healthy replica
        # (correlated across replicas for hot queries).
        from repro.serving.index import _GENERATION_HISTORY
        fingerprints, labels, store = world
        label = int(labels[0])
        other = next(int(l) for l in labels if int(l) != label)
        query = fingerprints[0]
        with _cluster_for(store) as cluster:
            for _ in range(len(cluster.replicas)):
                cluster.query(query, label, k=3)  # warm every replica
            for _ in range(_GENERATION_HISTORY + 2):
                store.append(fingerprints[:1], [other], ["p9"], [b"z" * 32])
                assert cluster.refresh(
                    max_replicas=len(cluster.replicas)
                ) == len(cluster.replicas)
            results = [cluster.query(query, label, k=3)
                       for _ in range(2 * len(cluster.replicas))]
            assert all(not r.degraded for r in results)
            assert cluster.telemetry.counter("evictions") == 0
            assert not cluster.audit.events("replica-evicted")
            assert all(r.healthy for r in cluster.replicas)

    def test_pruned_but_trusted_snapshot_is_not_an_integrity_failure(
            self, world):
        # An in-flight answer produced just before a burst of adoptions
        # can cite a snapshot the replica has since pruned. If the
        # cluster already lineage-verified that snapshot, the citation is
        # proven — only an unknown AND unverifiable one evicts.
        from repro.errors import IndexIntegrityError
        from repro.serving.engine import EngineAnswer
        from repro.serving.index import _GENERATION_HISTORY
        fingerprints, labels, store = world
        label = int(labels[0])
        other = next(int(l) for l in labels if int(l) != label)
        query = fingerprints[:1]

        def verdict(cluster, replica, answer):
            return cluster.verifier.verify(
                query, [answer], [label], 3, [replica.index.generation])[0]

        with _cluster_for(store) as cluster:
            replica = cluster.replicas[0]
            answer = replica.engine.query(query[0], label, k=3, timeout=5)
            assert verdict(cluster, replica, answer) is None  # walks lineage
            for _ in range(_GENERATION_HISTORY + 2):
                store.append(fingerprints[:1], [other], ["p9"], [b"z" * 32])
                assert replica.engine.refresh() is True
            assert replica.index.generation(answer.snapshot) is None
            assert verdict(cluster, replica, answer) is None
            assert cluster.telemetry.counter("trusted_snapshot_answers") == 1
            # A snapshot nobody ever verified is still an integrity fault.
            forged = EngineAnswer(tuple(answer), snapshot="ab" * 32,
                                  label_rows=answer.label_rows,
                                  requested_k=3)
            assert isinstance(verdict(cluster, replica, forged),
                              IndexIntegrityError)

    def test_non_append_version_bump_does_not_strand_replicas(self, world):
        # Refresh compares covered-segment counts, not the manifest
        # version counter: a version bump that commits no new segment
        # must neither mark replicas behind nor disturb serving.
        fingerprints, labels, store = world
        with _cluster_for(store) as cluster:
            cluster.query(fingerprints[0], int(labels[0]), k=1)
            store._manifest["version"] += 1  # e.g. a metadata-only rewrite
            assert cluster.refresh(max_replicas=len(cluster.replicas)) == 0
            result = cluster.query(fingerprints[0], int(labels[0]), k=2)
            assert not result.degraded
            assert cluster.telemetry.counter("evictions") == 0

    def test_growth_storm_on_empty_store_is_a_config_error(self, tmp_path):
        store = LinkageStore.create(tmp_path / "empty-store")
        cluster = _cluster_for(store, replicas=1)
        with pytest.raises(ConfigurationError):
            inject(cluster, "growth-storm", records=8)

    def test_history_rewrite_still_evicts(self, world):
        # Rewriting a committed segment digest is not growth — the
        # prefix the replicas were built against no longer exists, and
        # the stale handler must fail closed by evicting.
        fingerprints, labels, store = world
        label = int(labels[0])
        with _cluster_for(store) as cluster:
            cluster.query(fingerprints[0], label, k=1)
            victim = cluster.replicas[0]
            info = store._segments[0].info
            store._segments[0].info = type(info)(
                name=info.name, records=info.records, digest="0" * 64)
            cluster._handle_stale(victim)
            assert victim.state == "evicted"
            assert victim.evicted_reason == "stale-index"


class TestLoadShedding:
    def test_over_capacity_sheds_with_retry_hint(self, world):
        fingerprints, labels, store = world
        with _cluster_for(store, max_in_flight=4) as cluster:
            with pytest.raises(QueryRejected) as excinfo:
                cluster.query_many(fingerprints[:8], labels[:8], k=3)
            assert excinfo.value.retry_after_s is not None
            assert cluster.telemetry.counter("shed") == 8
            assert len(cluster.audit.events("query-shed")) == 1


class TestCircuitBreaker:
    def test_breaker_lifecycle(self):
        clock = [0.0]
        breaker = CircuitBreaker(threshold=2, reset_s=1.0,
                                 clock=lambda: clock[0])
        assert breaker.state == "closed" and breaker.allow()
        breaker.record_failure()
        assert breaker.state == "closed"
        assert breaker.record_failure()  # opened now
        assert breaker.state == "open" and not breaker.allow()
        clock[0] = 1.5
        assert breaker.allow()  # half-open probe admitted
        assert breaker.state == "half-open"
        assert not breaker.allow()  # only one probe at a time
        breaker.record_success()
        assert breaker.state == "closed" and breaker.allow()

    def test_half_open_failure_reopens(self):
        clock = [0.0]
        breaker = CircuitBreaker(threshold=1, reset_s=1.0,
                                 clock=lambda: clock[0])
        breaker.record_failure()
        clock[0] = 1.5
        assert breaker.allow()
        breaker.record_failure()
        assert breaker.state == "open" and not breaker.allow()

    def test_open_breaker_diverts_traffic(self, world):
        fingerprints, labels, store = world
        with _cluster_for(store) as cluster:
            for _ in range(ClusterConfig().breaker_threshold + 1):
                cluster.replicas[0].breaker.record_failure()
            for i in range(6):
                result = cluster.query(fingerprints[i], int(labels[i]), k=3)
                assert result.replica != "replica-0"


class _Watch:
    """Test-side wrappers around each replica's ``index.search_batch`` and
    ``engine.submit`` (instance shadows, nothing added to ``src/``).

    Records every search as ``(replica name, rows)``; every worker is held
    inside ``search_batch`` until ``release_after`` submissions were made,
    so what is counted does not depend on when a worker wakes. ``before``
    runs in the worker, after the hold, before the real search."""

    def __init__(self, cluster, release_after=0, before=None):
        self.searches = []
        self._lock = threading.Lock()
        self._pending = release_after
        self.released = threading.Event()
        if not release_after:
            self.released.set()
        for replica in cluster.replicas:
            self._shadow(replica, before)

    def _shadow(self, replica, before):
        search, submit = replica.index.search_batch, replica.engine.submit

        def counted_submit(*args, **kwargs):
            with self._lock:
                self._pending -= 1
                if self._pending == 0:
                    self.released.set()
            return submit(*args, **kwargs)

        def counted_search(batch, label, k=9):
            assert self.released.wait(timeout=5)
            if before is not None:
                before(replica)
            with self._lock:
                self.searches.append((replica.name, len(batch)))
            return search(batch, label, k)

        replica.engine.submit = counted_submit
        replica.index.search_batch = counted_search

    def on(self, name):
        return [rows for replica, rows in self.searches if replica == name]


class TestLabelBlocks:
    @pytest.fixture
    def eight(self, tmp_path, generator):
        fingerprints, labels = clustered_corpus(generator, 960, labels=8)
        store = fill_store(LinkageStore.create(tmp_path / "eight-store"),
                           fingerprints, labels, segment_records=400)
        return fingerprints, labels, store

    def test_one_search_per_label_block(self, eight):
        fingerprints, labels, store = eight
        rows = np.concatenate([np.flatnonzero(labels == label)[:8]
                               for label in range(8)])
        with _cluster_for(store, replicas=2) as cluster:
            watch = _Watch(cluster, release_after=8)
            results = cluster.query_many(fingerprints[rows] + 0.01,
                                         labels[rows], k=3)
            assert sorted(watch.searches) == (
                [("replica-0", 8)] * 4 + [("replica-1", 8)] * 4)
            for i, result in zip(rows, results):
                query, label = fingerprints[i] + 0.01, int(labels[i])
                assert [h.index for h in result.hits] == _brute_truth(
                    fingerprints, labels, query, label, 3)

    def test_single_label_batch_reaches_every_replica(self, eight):
        fingerprints, labels, store = eight
        rows = np.flatnonzero(labels == 5)[:64]
        with _cluster_for(store, replicas=2) as cluster:
            watch = _Watch(cluster, release_after=2)
            results = cluster.query_many(fingerprints[rows] + 0.01,
                                         [5] * 64, k=3)
            assert sorted(watch.searches) == [("replica-0", 32),
                                              ("replica-1", 32)]
            assert {r.replica for r in results} == {"replica-0", "replica-1"}

    def test_failed_block_reroutes_exactly_its_queries(self, eight):
        fingerprints, labels, store = eight
        rows = np.concatenate([np.flatnonzero(labels == label)[:4]
                               for label in range(4)])
        queries = fingerprints[rows] + 0.01

        def fail_replica_0(replica):
            if replica.name == "replica-0":
                raise ServingError("replica-0 lost this block")

        # The first failure opens the breaker, so every re-routed query
        # goes straight to replica-1, one search each.
        with _cluster_for(store, replicas=2, breaker_threshold=1,
                          revive=False) as cluster:
            watch = _Watch(cluster, release_after=4, before=fail_replica_0)
            results = cluster.query_many(queries, labels[rows], k=3)
            assert watch.on("replica-0") == []  # raised before searching
            assert sorted(watch.on("replica-1")) == [1] * 8 + [4] * 2
            assert all(r.replica == "replica-1" and not r.degraded
                       for r in results)
            assert cluster.telemetry.counter("evictions") == 0
            other = cluster.replicas[1].index
            for query, label, result in zip(queries, labels[rows], results):
                assert list(result.hits) == other.search(query, int(label),
                                                         k=3)

    def test_block_searches_its_misses_and_audits_every_answer(self, eight):
        fingerprints, labels, store = eight
        rows = np.flatnonzero(labels == 2)[:4]
        queries = fingerprints[rows] + 0.01
        with _cluster_for(store, replicas=1) as cluster:
            first = cluster.query(queries[0], 2, k=3)  # now cached
            watch = _Watch(cluster)
            audit = cluster.replicas[0].engine.audit
            before = len(audit.events("serving-query"))
            results = cluster.query_many(queries, [2] * 4, k=3)
            assert watch.searches == [("replica-0", 3)]
            # One event for the block's cache hit, one for its searched
            # misses; each answer committed once, by what the caller got.
            events = audit.events("serving-query")[before:]
            served = {e.details["served_by"]: list(zip(
                e.details["query_digests"], e.details["results"]))
                for e in events}
            assert len(events) == len(served) == 2
            committed = [(canonical_digest(q).hex(), answer_digest(r.hits))
                         for q, r in zip(queries, results)]
            assert served == {"cache": committed[:1], "index": committed[1:]}
            assert results[0].hits == first.hits
            assert cluster.replicas[0].engine.verify_audit_chain()

    def test_latency_is_measured_from_block_submission(self, eight):
        # Two blocks, answered 10 ms and 30 ms after they were submitted:
        # every member reports its block's latency (the gather loop used
        # to start each query's clock when it reached its future, so all
        # but the first answer per replica read ~0) and the hedge trigger
        # is their p99, not the floor.
        fingerprints, labels, store = eight
        rows = np.flatnonzero(labels == 1)[:64]
        clock = [0.0]

        def answer_at(replica):
            if replica.name == "replica-0":
                clock[0] = 0.010
            else:
                # Not before replica-0's block is stamped and resolved.
                cluster.replicas[0].engine._queue.join()
                clock[0] = 0.030

        with _cluster_for(store, replicas=2, clock=lambda: clock[0],
                          hedge_min_s=0.001) as cluster:
            _Watch(cluster, release_after=2, before=answer_at)
            results = cluster.query_many(fingerprints[rows] + 0.01,
                                         [1] * 64, k=3)
            assert sorted({(r.replica, r.latency_s) for r in results}) == [
                ("replica-0", 0.010), ("replica-1", 0.030)]
            assert cluster._hedge_delay() == 0.030
            stages = cluster.telemetry.snapshot()["stages"]
            assert stages["route"]["count"] == 64


class TestObservability:
    def test_metrics_under_cluster_namespace(self, world):
        fingerprints, labels, store = world
        with _cluster_for(store) as cluster:
            cluster.query(fingerprints[0], int(labels[0]), k=3)
            registry_snap = cluster.telemetry.registry.snapshot()
            names = (list(registry_snap["counters"])
                     + list(registry_snap["histograms"]))
            assert any(m.startswith("repro_serving_cluster_") for m in names)
            # Replica engines share the registry: one combined surface.
            assert any(m.startswith("repro_serving_") and
                       not m.startswith("repro_serving_cluster_")
                       for m in names)
            rendered = cluster.telemetry.render()
            assert "success_rate" in rendered

    def test_boundary_spans_recorded(self, world):
        fingerprints, labels, store = world
        tracer = Tracer()
        _, _, store = world
        cluster = _cluster_for(store)
        cluster.tracer = tracer
        with cluster:
            cluster.query(fingerprints[0], int(labels[0]), k=3)
        kinds = {span.kind for root in tracer.roots
                 for span in _walk(root)}
        assert "untrusted" in kinds
        assert "boundary-crossing" in kinds  # the verify-hits span


def _walk(span):
    yield span
    for child in span.children:
        yield from _walk(child)
