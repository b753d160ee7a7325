"""Query engine tests: correctness, caching, backpressure, audit."""

import hashlib
import struct
import threading
import time
from concurrent.futures import TimeoutError as FuturesTimeoutError

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.query import exact_top_k
from repro.errors import (ConfigurationError, QueryError, QueryRejected,
                          ServingError, StaleIndexError)
from repro.serving import (EngineConfig, IndexHit, LinkageStore,
                           ServingEngine, ShardedAnnIndex)
from repro.serving.engine import ANSWER_FORMAT, answer_digest, answer_digests
from repro.utils.serialization import canonical_digest

from tests.serving.conftest import clustered_corpus, fill_store


@pytest.fixture
def world(tmp_path, generator):
    fingerprints, labels = clustered_corpus(generator, 1200)
    store = fill_store(LinkageStore.create(tmp_path / "engine-store"),
                       fingerprints, labels)
    index = ShardedAnnIndex(store, shard_threshold=200).build()
    return fingerprints, labels, store, index


class _GatedIndex:
    """The real index, but search blocks until the gate opens (for
    backpressure); every other attribute is the wrapped index's.

    ``entered`` is set once a worker is inside ``search_batch`` — what a
    test waits on to know the worker picked a query up and is blocked."""

    def __init__(self, inner):
        self.inner = inner
        self.gate = threading.Event()
        self.entered = threading.Event()

    def __getattr__(self, name):
        return getattr(self.inner, name)

    def search_batch(self, batch, label, k=9):
        self.entered.set()
        self.gate.wait()
        return self.inner.search_batch(batch, label, k)


class TestCorrectness:
    def test_engine_matches_brute_force(self, world, generator):
        fingerprints, labels, store, index = world
        sample = generator.integers(0, fingerprints.shape[0], size=30)
        queries = fingerprints[sample] + 0.05
        with ServingEngine(index, EngineConfig(workers=2)) as engine:
            results = engine.query_many(queries, labels[sample], k=5)
        for i in range(30):
            rows = np.flatnonzero(labels == labels[sample][i])
            positions, _ = exact_top_k(queries[i:i + 1], fingerprints[rows],
                                       5)
            expected = rows[positions[0]].tolist()
            assert [hit.index for hit in results[i]] == expected

    def test_unknown_label_propagates_typed_error(self, world):
        fingerprints, _, _, index = world
        with ServingEngine(index) as engine:
            future = engine.submit(fingerprints[0], label=99, k=3)
            with pytest.raises(QueryError):
                future.result(timeout=5)

    def test_submit_requires_started_engine(self, world):
        fingerprints, labels, _, index = world
        engine = ServingEngine(index)
        with pytest.raises(ServingError):
            engine.submit(fingerprints[0], int(labels[0]))

    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            EngineConfig(workers=0)
        with pytest.raises(ConfigurationError):
            EngineConfig(queue_depth=0)


class TestCache:
    def test_repeat_query_served_by_cache(self, world):
        fingerprints, labels, _, index = world
        query, label = fingerprints[3], int(labels[3])
        with ServingEngine(index) as engine:
            first = engine.query(query, label, k=5, timeout=5)
            assert engine.telemetry.counter("cache_hits") == 0
            second = engine.query(query, label, k=5, timeout=5)
            assert second == first
            assert engine.telemetry.counter("cache_hits") == 1
            # A different k is a different cache key.
            engine.query(query, label, k=3, timeout=5)
            assert engine.telemetry.counter("cache_hits") == 1
        cached_events = [e for e in engine.audit.events("serving-query")
                         if e.details["served_by"] == "cache"]
        assert len(cached_events) == 1

    def test_cache_disabled(self, world):
        fingerprints, labels, _, index = world
        config = EngineConfig(cache_size=0)
        with ServingEngine(index, config) as engine:
            engine.query(fingerprints[0], int(labels[0]), timeout=5)
            engine.query(fingerprints[0], int(labels[0]), timeout=5)
            assert engine.telemetry.counter("cache_hits") == 0


class TestBackpressure:
    def test_overload_rejects_not_drops(self, world):
        fingerprints, labels, _, index = world
        gated = _GatedIndex(index)
        config = EngineConfig(workers=1, max_batch=1, queue_depth=4,
                              cache_size=0, poll_interval=0.005)
        engine = ServingEngine(gated, config).start()
        try:
            futures = []
            rejected = 0
            # One query occupies the worker (gate closed); the queue then
            # fills; further submissions must be rejected, not dropped.
            for i in range(32):
                try:
                    futures.append(
                        engine.submit(fingerprints[i], int(labels[i]), k=3)
                    )
                except QueryRejected:
                    rejected += 1
            assert rejected > 0
            assert engine.telemetry.counter("rejected") == rejected
            gated.gate.set()
            # Every accepted query still gets an answer.
            for future in futures:
                assert len(future.result(timeout=10)) == 3
        finally:
            gated.gate.set()
            engine.stop()
        assert engine.telemetry.counter("queries") == 32
        assert len(engine.audit) == len(futures)


class TestRobustness:
    def test_dimension_mismatch_rejected_at_submit(self, world):
        fingerprints, labels, _, index = world
        with ServingEngine(index) as engine:
            with pytest.raises(QueryError):
                engine.submit(np.zeros(3, dtype=np.float32), int(labels[0]))
            # The engine keeps serving well-formed queries afterwards.
            hits = engine.query(fingerprints[0], int(labels[0]), k=3,
                                timeout=5)
            assert len(hits) == 3

    def test_worker_survives_malformed_coalesced_batch(self, world):
        # With no dimension to check against (an index over an empty
        # store reports None), submit-time validation is bypassed, so a
        # same-(label, k) micro-batch can mix fingerprint dimensions.
        # The batch must fail per-future — not kill the worker thread or
        # wedge stop(drain=True) on queue.join().
        fingerprints, labels, _, index = world
        gated = _GatedIndex(index)
        gated.dimension = None
        config = EngineConfig(workers=1, max_batch=8, cache_size=0,
                              poll_interval=0.005)
        engine = ServingEngine(gated, config).start()
        label = int(labels[0])
        try:
            blocker = engine.submit(fingerprints[0], label, k=3)
            assert gated.entered.wait(timeout=5)  # the worker holds it
            bad = [engine.submit(np.zeros(d, dtype=np.float32), label, k=5)
                   for d in (3, 5)]
            survivor = engine.submit(fingerprints[1], label, k=3)
            gated.gate.set()
            assert len(blocker.result(timeout=5)) == 3
            for future in bad:
                with pytest.raises(Exception):
                    future.result(timeout=5)
            assert len(survivor.result(timeout=5)) == 3
        finally:
            gated.gate.set()
            engine.stop()  # drain=True must terminate, not deadlock

    def test_stop_without_drain_fails_pending_futures(self, world):
        fingerprints, labels, _, index = world
        gated = _GatedIndex(index)
        config = EngineConfig(workers=1, max_batch=1, cache_size=0,
                              poll_interval=0.005)
        engine = ServingEngine(gated, config).start()
        label = int(labels[0])
        in_flight = engine.submit(fingerprints[0], label, k=3)
        assert gated.entered.wait(timeout=5)  # the worker holds it
        queued = [engine.submit(fingerprints[i], label, k=3)
                  for i in range(1, 5)]
        opener = threading.Timer(0.1, gated.gate.set)
        opener.start()
        engine.stop(drain=False)
        opener.join()
        assert len(in_flight.result(timeout=5)) == 3
        # Abandoned queries fail with a typed error instead of hanging.
        for future in queued:
            with pytest.raises(ServingError):
                future.result(timeout=5)
        assert engine.telemetry.counter("abandoned") == len(queued)


class TestStaleness:
    def test_store_growth_serves_pinned_snapshot_then_refresh(self, world):
        fingerprints, labels, store, index = world
        label = int(labels[0])
        query = fingerprints[0]
        with ServingEngine(index) as engine:
            engine.query(query, label, k=1, timeout=5)
            store.append(query.reshape(1, -1), [label], ["p9"], [b"z" * 32])
            # Benign growth no longer fails closed: the engine keeps
            # answering from the pinned generation (no new row yet).
            hits = engine.query(query, label, k=2, timeout=5)
            assert 1200 not in [h.index for h in hits]
            assert engine.refresh() is True
            assert index.full_builds == 1  # incremental, not a rebuild
            # Same (fingerprint, label, k), but the label gained a row:
            # the per-label digest changed, so this is recomputed — the
            # pre-growth cache entry for this label can never match.
            hits = engine.query(query, label, k=2, timeout=5)
            assert 1200 in [h.index for h in hits]  # the appended record

    def test_growth_in_other_labels_keeps_cache_warm(self, world):
        # Satellite: cache keys are per-label content digests — an
        # append that only touches other labels must not cold-start
        # every label's cache.
        fingerprints, labels, store, index = world
        label = int(labels[0])
        other = next(int(l) for l in labels if int(l) != label)
        query = fingerprints[0]
        with ServingEngine(index) as engine:
            first = engine.query(query, label, k=3, timeout=5)
            assert engine.telemetry.counter("cache_hits") == 0
            store.append(fingerprints[:1], [other], ["p9"], [b"z" * 32])
            assert engine.refresh() is True
            again = engine.query(query, label, k=3, timeout=5)
            assert again == first
            assert engine.telemetry.counter("cache_hits") == 1
            # The grown label *is* recomputed (its digest moved).
            engine.query(fingerprints[1], other, k=3, timeout=5)
            assert engine.telemetry.counter("cache_hits") == 1

    def test_cache_hit_survives_generation_history_pruning(self, world):
        # A hot cache entry must never cite a snapshot that has aged out
        # of the index's bounded generation history: on hit it is
        # re-stamped with the live generation, which the per-label
        # content key proves serves the same rows — otherwise the
        # cluster's provenance check would evict a healthy replica for a
        # correct answer.
        from repro.serving.index import _GENERATION_HISTORY
        fingerprints, labels, store, index = world
        label = int(labels[0])
        other = next(int(l) for l in labels if int(l) != label)
        query = fingerprints[0]
        with ServingEngine(index) as engine:
            first = engine.query(query, label, k=3, timeout=5)
            for _ in range(_GENERATION_HISTORY + 2):
                store.append(fingerprints[:1], [other], ["p9"], [b"z" * 32])
                assert engine.refresh() is True
            # The filling generation is gone from the replica's history.
            assert index.generation(first.snapshot) is None
            again = engine.query(query, label, k=3, timeout=5)
            assert again == first
            assert engine.telemetry.counter("cache_hits") == 1
            # The served answer cites a snapshot the replica can still
            # produce — and it is the live one.
            assert again.snapshot == index.snapshot_digest
            assert index.generation(again.snapshot) is not None
            assert again.label_rows == first.label_rows


class TestDeadlines:
    def test_query_many_timeout_is_one_overall_deadline(self, world):
        # A wedged worker must bound query_many at ~timeout total, not
        # N x timeout (the old per-future sequential semantics).
        fingerprints, labels, _, index = world
        gated = _GatedIndex(index)
        config = EngineConfig(workers=1, max_batch=1, cache_size=0,
                              poll_interval=0.005)
        engine = ServingEngine(gated, config).start()
        label = int(labels[0])
        try:
            started = time.perf_counter()
            with pytest.raises(FuturesTimeoutError):
                engine.query_many(fingerprints[:6], [label] * 6, k=3,
                                  timeout=0.4)
            elapsed = time.perf_counter() - started
            assert elapsed < 6 * 0.4 * 0.6  # far below the old N x timeout
        finally:
            gated.gate.set()
            engine.stop()

    def test_query_many_no_timeout_still_waits(self, world):
        fingerprints, labels, _, index = world
        with ServingEngine(index) as engine:
            results = engine.query_many(fingerprints[:4], labels[:4], k=3)
        assert all(len(hits) == 3 for hits in results)


class TestBoundedDrain:
    def test_stop_drain_timeout_raises_and_resolves_futures(self, world):
        # A worker wedged inside the index must not hang stop(drain=True)
        # forever: the drain deadline fires, queued AND in-flight futures
        # resolve with a typed ServingError, and stop() raises.
        fingerprints, labels, _, index = world
        gated = _GatedIndex(index)
        config = EngineConfig(workers=1, max_batch=1, cache_size=0,
                              poll_interval=0.005)
        engine = ServingEngine(gated, config).start()
        label = int(labels[0])
        in_flight = engine.submit(fingerprints[0], label, k=3)
        assert gated.entered.wait(timeout=5)  # the worker is wedged on it
        workers = list(engine._threads)
        queued = [engine.submit(fingerprints[i], label, k=3)
                  for i in range(1, 4)]
        started = time.perf_counter()
        with pytest.raises(ServingError):
            engine.stop(drain=True, drain_timeout=0.2)
        assert time.perf_counter() - started < 2.0
        for future in [in_flight] + queued:
            with pytest.raises(ServingError):
                future.result(timeout=5)
        assert engine.telemetry.counter("abandoned") == 4
        # A late un-wedge must not blow up on already-resolved futures.
        gated.gate.set()
        for worker in workers:
            worker.join(timeout=5)
            assert not worker.is_alive()

    def test_config_drain_timeout_used_when_argument_omitted(self, world):
        fingerprints, labels, _, index = world
        gated = _GatedIndex(index)
        config = EngineConfig(workers=1, max_batch=1, cache_size=0,
                              poll_interval=0.005, drain_timeout=0.2)
        engine = ServingEngine(gated, config).start()
        engine.submit(fingerprints[0], int(labels[0]), k=3)
        assert gated.entered.wait(timeout=5)
        with pytest.raises(ServingError):
            engine.stop()  # drain=True picks up config.drain_timeout
        gated.gate.set()

    def test_drain_timeout_validation(self):
        with pytest.raises(ConfigurationError):
            EngineConfig(drain_timeout=0.0)


class TestRetryAfterHint:
    def test_rejection_carries_retry_after_seconds(self, world):
        fingerprints, labels, _, index = world
        gated = _GatedIndex(index)
        config = EngineConfig(workers=1, max_batch=1, queue_depth=4,
                              cache_size=0, poll_interval=0.01)
        engine = ServingEngine(gated, config).start()
        label = int(labels[0])
        try:
            with pytest.raises(QueryRejected) as excinfo:
                for i in range(32):
                    engine.submit(fingerprints[i], label, k=3)
            hint = excinfo.value.retry_after_s
            assert hint is not None
            # At least one worker poll tick, and sane (not hours).
            assert config.poll_interval <= hint <= 10.0
        finally:
            gated.gate.set()
            engine.stop()


class TestRestart:
    def test_engine_restarts_after_stop(self, world):
        fingerprints, labels, _, index = world
        label = int(labels[0])
        engine = ServingEngine(index, EngineConfig(workers=2))
        engine.start()
        first = engine.query(fingerprints[0], label, k=3, timeout=5)
        engine.stop()
        with pytest.raises(ServingError):
            engine.submit(fingerprints[0], label, k=3)
        engine.start()
        try:
            again = engine.query(fingerprints[0], label, k=3, timeout=5)
            assert again == first
        finally:
            engine.stop()

    def test_restart_against_grown_store_never_serves_stale(self, world):
        # Satellite: a stopped engine restarted against a store that grew
        # for this label must not serve the pre-growth cached answer —
        # the per-label digest moved, so the old entry can never match.
        fingerprints, labels, store, index = world
        label = int(labels[0])
        query = fingerprints[0]
        engine = ServingEngine(index)
        engine.start()
        engine.query(query, label, k=1, timeout=5)  # populates the cache
        engine.stop()
        store.append(query.reshape(1, -1), [label], ["p9"], [b"z" * 32])
        engine.start()
        try:
            # Until refresh, answers still come from the pinned snapshot
            # — but recomputed against it, never from the stale cache
            # entry (its per-label digest no longer exists after adopt).
            engine.refresh()
            hits = engine.query(query, label, k=2, timeout=5)
            assert 1200 in [h.index for h in hits]  # the appended record
            assert engine.telemetry.counter("cache_hits") == 0
        finally:
            engine.stop()


def _committed(audit):
    """Every answer the chain commits: ``(query digest, answer digest)``."""
    return [pair for event in audit.events("serving-query")
            for pair in zip(event.details["query_digests"],
                            event.details["results"])]


@pytest.fixture(scope="module")
def shared_index(tmp_path_factory):
    """One read-only index for the property test's many engines."""
    fingerprints, labels = clustered_corpus(np.random.default_rng(31), 600)
    store = fill_store(
        LinkageStore.create(tmp_path_factory.mktemp("audit") / "store"),
        fingerprints, labels)
    return fingerprints, labels, ShardedAnnIndex(store,
                                                 shard_threshold=100).build()


class TestAuditTrail:
    def test_answer_digest_known_answer(self):
        hits = (IndexHit(7, 0.5), IndexHit(-2, 1.25), IndexHit(2**40, 3.0))
        layout = (struct.pack("<Q", 3)
                  + struct.pack("<q", 7) + struct.pack("<q", -2)
                  + struct.pack("<q", 2**40)
                  + struct.pack("<d", 0.5) + struct.pack("<d", 1.25)
                  + struct.pack("<d", 3.0))
        assert len(layout) == 8 + 16 * 3
        assert answer_digest(hits) == hashlib.sha256(layout).hexdigest()
        assert answer_digest(()) == hashlib.sha256(
            struct.pack("<Q", 0)).hexdigest()

    @pytest.mark.parametrize("beyond_label_rows", [False, True])
    def test_block_digests_are_answer_digests(self, shared_index,
                                              beyond_label_rows):
        # Searched answers are committed from the block's arrays; a short
        # answer (label_rows < k) commits its shorter layout.
        fingerprints, labels, index = shared_index
        for label in range(4):
            block = fingerprints[np.flatnonzero(labels == label)[:7]] + 0.01
            rows = index.search_batch(block, label, 1).shard_rows
            k = rows + 3 if beyond_label_rows else 9
            result = index.search_batch(block, label, k)
            assert {len(hits) for hits in result.hits} == {
                min(k, result.shard_rows)}
            assert answer_digests(result.ids, result.distances) == [
                answer_digest(hits) for hits in result.hits]
        hits = (IndexHit(7, 0.5), IndexHit(-2, 1.25), IndexHit(2**40, 3.0))
        assert answer_digests(np.array([[7, -2, 2**40]]),
                              np.array([[0.5, 1.25, 3.0]])) == [
            answer_digest(hits)]

    def test_every_query_appends_a_verifiable_event(self, world, generator):
        # One chained event per answered label block; every answer in it
        # is committed exactly once, by query digest and answer digest.
        fingerprints, labels, _, index = world
        sample = generator.integers(0, fingerprints.shape[0], size=40)
        queries = fingerprints[sample] + 0.01
        with ServingEngine(index, EngineConfig(workers=3)) as engine:
            results = engine.query_many(queries, labels[sample], k=4)
        assert engine.verify_audit_chain()
        events = engine.audit.events("serving-query")
        assert len(events) == len(engine.audit) == len(set(labels[sample]))
        assert sorted(_committed(engine.audit)) == sorted(
            (canonical_digest(query).hex(), answer_digest(answer))
            for query, answer in zip(queries, results))
        for event in events:
            assert event.details["k"] == 4
            assert event.details["served_by"] == "index"
            assert event.details["answer_format"] == ANSWER_FORMAT
            assert event.details["num_results"] == [4] * len(
                event.details["query_digests"])
            assert all(len(r) == 64 for r in event.details["results"])

    @settings(max_examples=25, deadline=None)
    @given(blocks=st.lists(st.tuples(
               st.integers(0, 3), st.sampled_from([1, 3, 5]),
               st.lists(st.integers(0, 4), min_size=1, max_size=6)),
               min_size=1, max_size=6),
           data=st.data())
    def test_every_answer_is_committed_once(self, shared_index, blocks,
                                            data):
        # Blocks repeat queries (so some are part cache hits) and mix k;
        # whatever the split, each answer is committed exactly once, by
        # the digest of what its caller received.
        fingerprints, labels, index = shared_index
        pools = {label: fingerprints[np.flatnonzero(labels == label)[:5]]
                 + 0.01 for label in range(4)}
        expected = []
        with ServingEngine(index, EngineConfig(workers=2)) as engine:
            for label, k, rows in blocks:
                block = pools[label][rows]
                answers = engine.submit(block, label, k).result(timeout=10)
                expected += [(canonical_digest(row).hex(), answer_digest(answer))
                             for row, answer in zip(block, answers)]
        assert sorted(_committed(engine.audit)) == sorted(expected)
        assert engine.verify_audit_chain()
        events = engine.audit.events("serving-query")
        position = data.draw(st.integers(0, len(expected) - 1))
        for event in events:
            results = event.details["results"]
            if position < len(results):
                results[position] = "0" * 64
                break
            position -= len(results)
        assert not engine.verify_audit_chain()

    def test_tampered_audit_event_breaks_the_chain(self, world):
        fingerprints, labels, _, index = world
        with ServingEngine(index) as engine:
            engine.query(fingerprints[0], int(labels[0]), timeout=5)
        event = engine.audit.events()[0]
        object.__setattr__(event, "details",
                           {**event.details, "label": 12345})
        assert not engine.verify_audit_chain()


class TestTelemetry:
    def test_counters_and_stages_populate(self, world, generator):
        fingerprints, labels, _, index = world
        sample = generator.integers(0, fingerprints.shape[0], size=25)
        with ServingEngine(index, EngineConfig(workers=2)) as engine:
            engine.query_many(fingerprints[sample], labels[sample], k=3)
        snapshot = engine.telemetry.snapshot()
        assert snapshot["counters"]["queries"] == 25
        assert snapshot["counters"]["batches"] >= 1
        assert snapshot["counters"]["batched_queries"] == 25
        assert snapshot["stages"]["search"]["count"] >= 1
        assert snapshot["stages"]["total"]["count"] == 25
        assert 0 < snapshot["scan_fraction"] <= 1.0
        rendered = engine.telemetry.render()
        assert "queries" in rendered and "stage search" in rendered
