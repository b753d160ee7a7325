"""Self-healing serving: the replicated `repro.serving` cluster under fire.

`serving_at_scale.py` drives one engine; this example runs the
production-shaped *availability* story on top of the same promoted
store: N replicated engines behind a router with per-request deadlines,
bounded retry, p99-triggered hedging, per-replica circuit breakers, and
background health checks — then turns a seeded fault storm loose on it:

1. persist a clustered fingerprint corpus into an on-disk
   :class:`LinkageStore` and start a 3-replica :class:`ServingCluster`,
2. run a fault-free burst to baseline throughput and routing behaviour,
3. replay a :class:`ServingFaultPlan` against live traffic — a replica
   crash, a *corrupted index row pinned to an attractor vector* (so the
   wrong answer would actually surface), and injected latency — and
   watch the router evict fail-closed, fail over, and hedge while every
   query keeps getting a correct answer,
4. crash **every** replica at once: the router degrades to the audited
   exact brute-force path over the sealed store rather than returning
   wrong or stale answers,
5. wait for background revival to heal the cluster, then verify the
   hash-chained audit trail of every eviction, failover, hedge, and
   degraded answer.

Run:  python examples/self_healing_serving.py
"""

import tempfile
import time

import numpy as np

from repro.resilience.faults import ServingFaultPlan, ServingFaultSpec
from repro.serving import (ClusterConfig, EngineConfig, LinkageStore,
                           ServingCluster, ShardedAnnIndex)
from repro.utils.rng import RngStream


def brute_top_k(fingerprints, labels, query, label, k):
    rows = np.flatnonzero(labels == label)
    deltas = fingerprints[rows] - query[None, :]
    distances = np.sqrt((deltas * deltas).sum(axis=1))
    order = np.argsort(distances, kind="stable")[:k]
    return [int(rows[i]) for i in order]


def main() -> None:
    rng = RngStream(seed=31, name="self-healing")
    generator = rng.child("data").generator

    # -- 1. corpus, store, cluster -----------------------------------------
    records, dim, num_labels = 30_000, 32, 8
    centers = generator.standard_normal((16, dim)) * 4.0
    assign = generator.integers(0, 16, size=records)
    fingerprints = (centers[assign] + generator.standard_normal(
        (records, dim)) * 0.5).astype(np.float32)
    labels = (assign % num_labels).astype(np.int64)

    path = tempfile.mkdtemp(prefix="caltrain-cluster-")
    store = LinkageStore.create(path)
    for start in range(0, records, 16_384):
        stop = min(start + 16_384, records)
        store.append(fingerprints[start:stop], labels[start:stop].tolist(),
                     [f"participant-{i % 5}" for i in range(start, stop)],
                     [b"h" * 32 for _ in range(start, stop)])

    cluster = ServingCluster(
        store, replicas=3,
        config=ClusterConfig(deadline_s=2.0, hedge_min_s=0.03,
                             health_interval_s=0.25, breaker_reset_s=0.25,
                             stop_timeout_s=0.5),
        engine_config=EngineConfig(workers=2, max_batch=32, queue_depth=128),
        # Brute-force shards: a corrupted row then *surfaces* in answers
        # instead of being pruned by the clustered probe, so the drill
        # exercises per-answer verification rather than only checksums.
        index_factory=lambda s: ShardedAnnIndex(s, shard_threshold=records,
                                                seed=31),
    ).start()
    print(f"cluster: {len(cluster.replicas)} replicas over "
          f"{len(store)} records at {path}")

    qgen = rng.child("queries").fork_generator()
    sample = qgen.integers(0, records, size=400)
    queries = fingerprints[sample] + qgen.standard_normal(
        (400, dim)).astype(np.float32) * 0.1
    query_labels = labels[sample]

    # -- 2. fault-free baseline --------------------------------------------
    started = time.perf_counter()
    results = cluster.query_many(queries[:200], query_labels[:200], k=5)
    elapsed = time.perf_counter() - started
    print(f"baseline: 200 queries in {elapsed * 1e3:.0f}ms "
          f"({200 / elapsed:,.0f} qps), "
          f"{sum(1 for r in results if r.failed_over)} failovers")

    # -- 3. the fault storm against live traffic ---------------------------
    target_label = int(query_labels[210])
    attractor = tuple(float(v) for v in queries[210])
    # A few queries right after the corruption revisit the attractor, so
    # the poisoned row *surfaces* and per-answer verification (not just
    # the background checksum sweep) gets a chance to catch it.
    queries[281:287] = queries[210] + qgen.standard_normal(
        (6, dim)).astype(np.float32) * 0.01
    query_labels[281:287] = target_label
    plan = ServingFaultPlan([
        ServingFaultSpec(kind="replica-crash", at_query=20,
                         replica="replica-0"),
        ServingFaultSpec(kind="index-corrupt", at_query=80,
                         replica="replica-1", label=target_label, row=0,
                         value=attractor),
        ServingFaultSpec(kind="latency-inject", at_query=140,
                         replica="replica-2", delay_s=0.08),
    ])
    print("storm:", ", ".join(
        f"{spec.kind}@{spec.at_query}" for spec in plan.scheduled()))

    ok = wrong = 0
    for i in range(200, 400):
        for spec in plan.before_query(i - 200, cluster):
            print(f"  injected {spec.kind} on {spec.replica} "
                  f"before query {i - 200}")
        result = cluster.query(queries[i], int(query_labels[i]), k=5)
        expected = brute_top_k(fingerprints, labels, queries[i],
                               int(query_labels[i]), k=5)
        if [hit.index for hit in result.hits] == expected:
            ok += 1
        else:
            wrong += 1
    print(f"storm: {ok}/200 correct answers, {wrong} wrong — "
          "every query answered")

    # -- 4. total failure: the audited degraded path -----------------------
    ServingFaultPlan([
        ServingFaultSpec(kind="replica-crash", at_query=0,
                         replica=replica.name)
        for replica in cluster.replicas if replica.healthy
    ]).before_query(0, cluster)
    result = cluster.query(queries[0], int(query_labels[0]), k=5)
    assert result.degraded and result.replica is None
    assert [hit.index for hit in result.hits] == brute_top_k(
        fingerprints, labels, queries[0], int(query_labels[0]), k=5)
    print("all replicas down: answer served degraded "
          "(audited exact brute force over the sealed store), still correct")

    # -- 5. healing + the accountability trail -----------------------------
    deadline = time.monotonic() + 15.0
    while time.monotonic() < deadline:
        if all(r.healthy for r in cluster.replicas):
            break
        time.sleep(0.1)
    states = {r.name: r.state for r in cluster.replicas}
    print(f"healed: {states}")

    counters = cluster.telemetry.snapshot()["counters"]
    for name in ("queries", "failovers", "hedges_launched", "evictions",
                 "revivals", "verify_failures", "degraded_answers"):
        print(f"  {name:<18} {counters.get(name, 0)}")
    assert cluster.verify_audit_chain()
    evictions = cluster.audit.events("replica-evicted")
    print(f"audit: {len(cluster.audit)} hash-chained routing events, "
          f"chain verified; evictions: "
          f"{[e.details['reason'] for e in evictions]}")

    plan.release()  # lift the injected latency before shutting down
    cluster.stop()


if __name__ == "__main__":
    main()
