"""Serving availability under a seeded fault storm + routing overhead.

The self-healing cluster (PR 9) claims two things the ROADMAP cares
about:

* **availability with integrity** — under a seeded fault storm (one
  replica crash, one attractor-style index corruption, injected latency
  on a third replica) a 3-replica cluster keeps answering: >= 99% of
  queries succeed, *zero* answers are wrong or stale (every answer —
  routed, hedged, failed-over, or degraded — equals the exact
  brute-force truth over the sealed store), and the p99 latency stays
  bounded well inside the per-query deadline;
* **cheap when healthy** — fault-free, routing a batched workload
  through the full cluster stack (deadlines, shedding bound, breakers,
  per-answer store verification) costs < 5% throughput vs. a bare
  :class:`ServingEngine` on the same corpus — the router is not a tax
  worth a bypass path. Measured at replication factor 1 so the router
  cost is isolated; the 3-replica figure is also recorded, but on a
  single-core CI host it folds in the cache-locality cost of three
  independent index copies (on real multi-core serving hardware the
  replicas run on their own cores and that term disappears).

The storm is scheduled through :class:`ServingFaultPlan` — the same
mechanism the test suite and the ``serve-cluster --inject`` CLI drill
replay — so the trace here is reproducible bit-for-bit. The corrupted
index row is pinned to an *attractor* value (a live query fingerprint)
chosen OUTSIDE every query's true top-k: the corruption must surface in
an answer and be caught by per-answer verification, never silently sink.

Results land in ``BENCH_serving.json`` at the repo root. Set
``REPRO_BENCH_SMOKE=1`` for the reduced CI configuration: smaller
corpus and fewer queries; the integrity bars (>= 99% success, zero
wrong answers) stay strict, the overhead bar becomes advisory (a
printed warning, never a build failure) because tiny runs on shared CI
hosts are noise-dominated.
"""

import json
import os
import time
from pathlib import Path

import numpy as np

from repro.errors import (DeadlineExceeded, NoHealthyReplica, QueryRejected,
                          ServingError)
from repro.resilience.faults import ServingFaultPlan, ServingFaultSpec
from repro.serving import (ClusterConfig, EngineConfig, LinkageStore,
                           ServingCluster, ServingEngine, ShardedAnnIndex)

SMOKE = os.environ.get("REPRO_BENCH_SMOKE") == "1"

DIM = 32
LABELS = 8
CLUSTERS = 16
K = 5
RECORDS = 6_000 if SMOKE else 40_000
QUERIES = 240 if SMOKE else 1_000

TRAJECTORY_PATH = Path(__file__).resolve().parents[1] / "BENCH_serving.json"


def _corpus(rng, size):
    generator = rng.fork_generator()
    centers = generator.standard_normal((LABELS, CLUSTERS, DIM)) * 4.0
    labels = generator.integers(0, LABELS, size=size)
    clusters = generator.integers(0, CLUSTERS, size=size)
    fingerprints = (
        centers[labels, clusters]
        + generator.standard_normal((size, DIM)) * 0.5
    ).astype(np.float32)
    return fingerprints, labels


def _store_for(tmp_path_factory, name, fingerprints, labels):
    store = LinkageStore.create(tmp_path_factory.mktemp(name) / "store")
    for start in range(0, fingerprints.shape[0], 65_536):
        stop = min(start + 65_536, fingerprints.shape[0])
        store.append(fingerprints[start:stop], labels[start:stop].tolist(),
                     ["p0"] * (stop - start), [b"h" * 32] * (stop - start))
    return store


def _brute_truth(fingerprints, labels, query, label, k):
    rows = np.flatnonzero(labels == label)
    deltas = fingerprints[rows] - query[None, :]
    distances = np.sqrt((deltas * deltas).sum(axis=1))
    order = np.argsort(distances, kind="stable")[:k]
    return [int(rows[i]) for i in order]


def _update_trajectory(section, payload):
    """Merge one section into BENCH_serving.json (both benches write it)."""
    data = {}
    if TRAJECTORY_PATH.exists():
        try:
            data = json.loads(TRAJECTORY_PATH.read_text())
        except ValueError:
            data = {}
    if data.get("benchmark") != "serving_availability":
        data = {"benchmark": "serving_availability"}
    data["smoke"] = SMOKE
    data[section] = payload
    TRAJECTORY_PATH.write_text(json.dumps(data, indent=2) + "\n")


def _wait_until(predicate, timeout=10.0, interval=0.05):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return predicate()


# -- claim 1: fault-free routing overhead < 5% ----------------------------------


def _one_run(query_many, queries, query_labels, passes=3):
    # Several passes per round: single ~80ms runs are scheduling-noise
    # bound on the shared 1-core CI host.
    start = time.perf_counter()
    for _ in range(passes):
        query_many(queries, query_labels, k=K)
    return passes * queries.shape[0] / (time.perf_counter() - start)


def test_fault_free_routing_overhead(bench_rng, tmp_path_factory, benchmark):
    rng = bench_rng.child("availability-overhead")
    fingerprints, labels = _corpus(rng.child("corpus"), RECORDS)
    store = _store_for(tmp_path_factory, "avail-overhead", fingerprints,
                       labels)
    qgen = rng.child("queries").fork_generator()
    sample = qgen.integers(0, RECORDS, size=192)
    queries = fingerprints[sample] + qgen.standard_normal(
        (192, DIM)).astype(np.float32) * 0.1
    query_labels = labels[sample]

    # workers=1 and cache off: the claim under test is *router* overhead
    # (deadlines, breakers, verification, audit), not worker scaling —
    # and on the 1-core CI host extra workers only add GIL scheduling
    # noise that swamps a <5% signal.
    engine_config = EngineConfig(workers=1, max_batch=64, queue_depth=256,
                                 cache_size=0)
    index = ShardedAnnIndex(store, shard_threshold=2048, seed=1).build()
    engine = ServingEngine(index, engine_config).start()

    def _cluster(replicas):
        return ServingCluster(
            store, replicas=replicas,
            # Health sweeps parked during measurement: a checksum sweep
            # landing mid-round is sampling noise, not routing cost.
            config=ClusterConfig(deadline_s=30.0, health_interval_s=60.0),
            engine_config=engine_config,
            index_factory=lambda s: ShardedAnnIndex(s, shard_threshold=2048,
                                                    seed=1),
        ).start()

    cluster1 = _cluster(1)   # router cost, replication factor isolated
    cluster3 = _cluster(3)   # + the N-index locality cost on one core
    try:
        # Paired rounds, median ratio: single runs on a shared 1-core CI
        # host swing +-20%, and measuring the paths minutes apart folds
        # host drift (page cache, CPU clocks, noisy neighbours) into the
        # overhead number. Back-to-back rounds cancel the drift; the
        # median discards the outlier rounds.
        for target in (engine, cluster1, cluster3):
            _one_run(target.query_many, queries, query_labels)   # warm-up
        rounds = []
        for _ in range(5 if SMOKE else 15):
            qps_e = _one_run(engine.query_many, queries, query_labels)
            qps_1 = _one_run(cluster1.query_many, queries, query_labels)
            qps_3 = _one_run(cluster3.query_many, queries, query_labels)
            rounds.append((qps_1 / qps_e, qps_e, qps_1, qps_3 / qps_e))
        rounds.sort()
        ratio, qps_engine, qps_cluster, ratio3 = rounds[len(rounds) // 2]
        overhead = 1.0 - ratio
        replicated_overhead = 1.0 - ratio3
        for cluster in (cluster1, cluster3):
            snapshot = cluster.telemetry.snapshot()
            assert snapshot["counters"].get("queries_failed", 0) == 0
            assert snapshot["counters"].get("degraded_answers", 0) == 0
        benchmark(_one_run, cluster3.query_many, queries[:64],
                  query_labels[:64], 1)
    finally:
        cluster3.stop()
        cluster1.stop()
        engine.stop()

    print(f"\nrouting overhead, {RECORDS} records, 192-query batches, k={K}")
    print(f"  bare engine   {qps_engine:>10.0f} qps (median round)")
    print(f"  cluster x1    {qps_cluster:>10.0f} qps (median round)")
    print(f"  overhead      {overhead:>10.1%}  (bar: < 5%"
          f"{', advisory in smoke' if SMOKE else ''})")
    print(f"  x3 on 1 core  {replicated_overhead:>10.1%}  "
          "(informational: adds 3-index cache-locality cost)")

    _update_trajectory("routing_overhead", {
        "config": {"records": RECORDS, "batch": 192, "k": K, "workers": 1},
        "qps_bare_engine": round(qps_engine, 1),
        "qps_cluster_1_replica": round(qps_cluster, 1),
        "overhead_fraction": round(overhead, 4),
        "overhead_3_replicas_1_core": round(replicated_overhead, 4),
        "bar": "< 0.05 (advisory in smoke)",
    })

    # Smoke runs on shared CI hosts are noise-dominated: warn, don't fail.
    if SMOKE:
        if overhead >= 0.05:
            print(f"  WARNING: smoke overhead {overhead:.1%} over the 5% bar "
                  "(advisory only)")
    else:
        assert overhead < 0.05, (
            f"cluster routing overhead {overhead:.1%} >= 5% "
            f"({qps_cluster:.0f} vs {qps_engine:.0f} qps)"
        )


# -- claim 2: >= 99% availability, zero wrong answers, under a fault storm ------


def test_fault_storm_availability(bench_rng, tmp_path_factory):
    rng = bench_rng.child("availability-storm")
    fingerprints, labels = _corpus(rng.child("corpus"), RECORDS)
    store = _store_for(tmp_path_factory, "avail-storm", fingerprints, labels)
    qgen = rng.child("queries").fork_generator()

    sample = qgen.integers(0, RECORDS, size=QUERIES)
    queries = (fingerprints[sample] + qgen.standard_normal(
        (QUERIES, DIM)).astype(np.float32) * 0.1)
    query_labels = labels[sample].astype(np.int64)

    crash_at = int(QUERIES * 0.15)
    corrupt_at = int(QUERIES * 0.45)
    latency_at = int(QUERIES * 0.70)

    # The corruption window: the queries right after the injection are
    # near-duplicates of the attractor query, so whichever replica holds
    # the corrupted row serves one of them (round-robin) and surfaces the
    # planted row — per-answer verification catches it before the slower
    # checksum sweep would.
    target_label = int(query_labels[corrupt_at])
    for i in range(corrupt_at + 1, min(corrupt_at + 6, QUERIES)):
        queries[i] = queries[corrupt_at] + qgen.standard_normal(
            DIM).astype(np.float32) * 0.01
        query_labels[i] = target_label

    truth = [_brute_truth(fingerprints, labels, queries[i],
                          int(query_labels[i]), K)
             for i in range(QUERIES)]

    # Corruption target: a row of the target label that is in NO query's
    # true top-k, pinned to an attractor value (the live query right
    # after the injection) so it *surfaces* in an answer — per-answer
    # verification must catch it; it can never silently displace truth.
    in_truth = set()
    for hits in truth:
        in_truth.update(hits)
    label_rows = np.flatnonzero(labels == target_label)
    corrupt_row = next(pos for pos, idx in enumerate(label_rows)
                       if int(idx) not in in_truth)
    attractor = tuple(float(v) for v in queries[corrupt_at])

    plan = ServingFaultPlan([
        ServingFaultSpec(kind="replica-crash", at_query=crash_at),
        ServingFaultSpec(kind="index-corrupt", at_query=corrupt_at,
                         label=target_label, row=corrupt_row,
                         value=attractor),
        ServingFaultSpec(kind="latency-inject", at_query=latency_at,
                         delay_s=0.05),
    ])

    cluster = ServingCluster(
        store, replicas=3,
        config=ClusterConfig(deadline_s=2.0, hedge_min_s=0.03,
                             health_interval_s=0.5, breaker_reset_s=0.25,
                             stop_timeout_s=0.5),
        engine_config=EngineConfig(workers=2, max_batch=32, queue_depth=128,
                                   poll_interval=0.005),
        # Brute shards: the planted attractor row must *surface* in an
        # answer (a clustered probe could prune the corrupted row's
        # far-away cluster and leave it to the slower checksum sweep).
        index_factory=lambda s: ShardedAnnIndex(s, shard_threshold=RECORDS,
                                                seed=1),
    ).start()

    ok = wrong = degraded = failed = 0
    latencies = []
    try:
        for ordinal in range(QUERIES):
            plan.before_query(ordinal, cluster)
            started = time.perf_counter()
            try:
                result = cluster.query(queries[ordinal],
                                       int(query_labels[ordinal]), k=K)
            except (QueryRejected, DeadlineExceeded, NoHealthyReplica,
                    ServingError):
                failed += 1
                continue
            latencies.append(time.perf_counter() - started)
            ok += 1
            degraded += int(result.degraded)
            if [h.index for h in result.hits] != truth[ordinal]:
                wrong += 1
        # Let the monitor finish healing: every replica back and serving.
        healed = _wait_until(
            lambda: all(r.healthy for r in cluster.replicas))
        telemetry = cluster.telemetry
        snapshot = telemetry.snapshot()
        counters = snapshot["counters"]
        audit_ok = cluster.verify_audit_chain()
        replica_chains_ok = all(r.engine.verify_audit_chain()
                                for r in cluster.replicas)
        evict_reasons = sorted(
            e.details.get("reason", "") for e in
            cluster.audit.events("replica-evicted"))
        hedge_events = len(cluster.audit.events("hedged-query"))
        degraded_events = len(cluster.audit.events("degraded-query"))
        failover_events = len(cluster.audit.events("failover-query"))
    finally:
        cluster.stop()

    availability = ok / QUERIES
    p99 = float(np.percentile(latencies, 99)) if latencies else float("inf")
    print(f"\nfault storm, {RECORDS} records, {QUERIES} queries, 3 replicas")
    print(f"  crash@{crash_at} index-corrupt@{corrupt_at} "
          f"latency-inject@{latency_at}")
    print(f"  availability  {availability:>8.2%}  (bar: >= 99%)")
    print(f"  wrong/stale   {wrong:>8}  (bar: 0)")
    print(f"  degraded      {degraded:>8}")
    print(f"  p99 latency   {p99 * 1e3:>8.1f}ms  (bar: <= 1000ms)")
    print(f"  evictions     {counters.get('evictions', 0):>8} "
          f"({', '.join(evict_reasons) or 'none'})")
    print(f"  revivals      {counters.get('revivals', 0):>8} "
          f"(all healed: {healed})")
    print(f"  hedges        {counters.get('hedges_launched', 0):>8} "
          f"(won {counters.get('hedges_won', 0)})")

    _update_trajectory("fault_storm", {
        "config": {"records": RECORDS, "queries": QUERIES, "k": K,
                   "replicas": 3, "deadline_s": 2.0,
                   "faults": {"replica-crash": crash_at,
                              "index-corrupt": corrupt_at,
                              "latency-inject": latency_at}},
        "availability": round(availability, 4),
        "wrong_answers": wrong,
        "degraded_answers": degraded,
        "failed_queries": failed,
        "p99_latency_ms": round(p99 * 1e3, 2),
        "evictions": int(counters.get("evictions", 0)),
        "eviction_reasons": evict_reasons,
        "revivals": int(counters.get("revivals", 0)),
        "all_replicas_healed": bool(healed),
        "hedges_launched": int(counters.get("hedges_launched", 0)),
        "verify_failures": int(counters.get("verify_failures", 0)),
        "audit_chain_verified": bool(audit_ok and replica_chains_ok),
        "bars": {"availability": ">= 0.99", "wrong_answers": "== 0",
                 "p99_latency_ms": "<= 1000"},
    })

    # Integrity bars stay strict even in smoke: availability with wrong
    # answers would be worse than downtime.
    assert availability >= 0.99, (
        f"availability {availability:.2%} < 99% ({failed} failures)")
    assert wrong == 0, f"{wrong} wrong or stale answers under the storm"
    assert p99 <= 1.0, f"p99 latency {p99 * 1e3:.0f}ms over the 1s bound"

    # The storm left the marks it should have: the crash and the caught
    # corruption both evicted a replica, healing brought them back, and
    # every notable routing decision is metered AND in the audit chain.
    assert counters.get("evictions", 0) >= 2
    assert "crash" in evict_reasons
    assert "index-integrity" in evict_reasons
    assert counters.get("verify_failures", 0) >= 1
    assert counters.get("revivals", 0) >= 1 and healed
    assert audit_ok and replica_chains_ok
    assert counters.get("hedges_launched", 0) == hedge_events
    assert counters.get("degraded_answers", 0) == degraded_events
    assert counters.get("failovers", 0) == failover_events
    assert degraded == counters.get("degraded_answers", 0)
