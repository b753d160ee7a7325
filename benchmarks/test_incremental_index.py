"""Incremental index under ingest growth: evictions, p99, and parity.

The incremental rewrite (LSM-style index segments with snapshot-isolated
search) makes three claims this bench pins down and records:

* **growth costs zero availability** — a 3-replica cluster under a
  scheduled growth storm (benign append bursts landing mid-stream)
  answers 100% of queries, evicts *nobody*, repairs staleness with
  staggered refreshes only, and no replica ever falls back to a
  from-scratch rebuild;
* **compaction stays out of the way** — with the background compactor
  merging segments while queries run, the p99 search latency stays
  within 2x the quiescent (no-churn) p99: merges are built outside the
  mutate lock and adopted atomically, so a query never waits on one;
* **incremental == monolithic** — an index grown by refresh (and then
  compacted) returns bitwise the same answers, in the same order, as an
  index built from scratch over the final store: recall 1.0 and exact
  tie-break parity, not statistical closeness.

Results land in the ``incremental_*`` sections of ``BENCH_serving.json``.
Set ``REPRO_BENCH_SMOKE=1`` for the reduced CI configuration; the
integrity bars (zero evictions, zero wrong answers, exact parity) stay
strict, the p99 ratio bar becomes advisory because tiny runs on shared
CI hosts are scheduling-noise dominated.
"""

import json
import os
import statistics
import time
from pathlib import Path

import numpy as np

from repro.resilience.faults import ServingFaultPlan, ServingFaultSpec
from repro.serving import (ClusterConfig, EngineConfig, LinkageStore,
                           ServingCluster, ShardedAnnIndex)

SMOKE = os.environ.get("REPRO_BENCH_SMOKE") == "1"

DIM = 32
LABELS = 8
CLUSTERS = 16
K = 5
RECORDS = 4_000 if SMOKE else 24_000
QUERIES = 180 if SMOKE else 600

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


def _store_for(tmp_path_factory, name, fingerprints, labels,
               segment_records=None):
    store = LinkageStore.create(tmp_path_factory.mktemp(name) / "store")
    step = segment_records or fingerprints.shape[0]
    for start in range(0, fingerprints.shape[0], step):
        stop = min(start + step, fingerprints.shape[0])
        store.append(fingerprints[start:stop], labels[start:stop].tolist(),
                     ["p0"] * (stop - start), [b"h" * 32] * (stop - start))
    return store


def _update_trajectory(section, payload):
    """Merge one section into BENCH_serving.json (shared with the
    availability bench, so the file keys on the same benchmark name)."""
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


# -- claim 1: a growth storm costs zero evictions and zero availability ---------


def test_growth_storm_zero_evictions(bench_rng, tmp_path_factory):
    rng = bench_rng.child("incremental-growth")
    fingerprints, labels = _corpus(rng.child("corpus"), RECORDS)
    store = _store_for(tmp_path_factory, "inc-growth", fingerprints, labels,
                       segment_records=max(1, RECORDS // 4))
    qgen = rng.child("queries").fork_generator()
    sample = qgen.integers(0, RECORDS, size=QUERIES)
    queries = fingerprints[sample] + qgen.standard_normal(
        (QUERIES, DIM)).astype(np.float32) * 0.1
    query_labels = labels[sample].astype(np.int64)

    burst = 200 if SMOKE else 800
    storm_at = [int(QUERIES * f) for f in (0.2, 0.45, 0.7)]
    plan = ServingFaultPlan([
        ServingFaultSpec(kind="growth-storm", at_query=at, records=burst)
        for at in storm_at
    ])

    cluster = ServingCluster(
        store, replicas=3,
        config=ClusterConfig(deadline_s=5.0, health_interval_s=0.05,
                             breaker_reset_s=0.25, stop_timeout_s=0.5),
        engine_config=EngineConfig(workers=2, max_batch=32, queue_depth=128,
                                   poll_interval=0.005),
        index_factory=lambda s: ShardedAnnIndex(
            s, shard_threshold=1024, seed=1, max_segments=4,
            compaction_interval_s=0.02),
    ).start()

    ok = failed = 0
    try:
        for ordinal in range(QUERIES):
            plan.before_query(ordinal, cluster)
            try:
                result = cluster.query(queries[ordinal],
                                       int(query_labels[ordinal]), k=K)
            except Exception:  # noqa: BLE001 — counted as unavailability
                failed += 1
                continue
            ok += 1
            assert not result.degraded
        # Let the staggered sweeps drain the remaining catch-up work.
        deadline = time.monotonic() + 10.0
        while time.monotonic() < deadline:
            if all(r.index.built_version == store.version
                   for r in cluster.replicas):
                break
            time.sleep(0.05)
        counters = cluster.telemetry.snapshot()["counters"]
        evictions = int(counters.get("evictions", 0))
        refreshes = int(counters.get("replica_refreshes", 0))
        full_builds = [r.index.full_builds for r in cluster.replicas]
        caught_up = all(r.index.built_version == store.version
                        for r in cluster.replicas)
        audit_ok = cluster.verify_audit_chain()
    finally:
        cluster.stop()

    availability = ok / QUERIES
    print(f"\ngrowth storm, {RECORDS}+{len(storm_at) * burst} records, "
          f"{QUERIES} queries, 3 replicas")
    print(f"  availability  {availability:>8.2%}  (bar: 100%)")
    print(f"  evictions     {evictions:>8}  (bar: 0)")
    print(f"  refreshes     {refreshes:>8}  (bar: > 0)")
    print(f"  full builds   {full_builds}  (bar: 1 per replica)")

    _update_trajectory("incremental_growth", {
        "config": {"records": RECORDS, "queries": QUERIES, "k": K,
                   "replicas": 3, "growth_bursts": len(storm_at),
                   "burst_records": burst},
        "availability": round(availability, 4),
        "evictions": evictions,
        "replica_refreshes": refreshes,
        "full_builds_per_replica": full_builds,
        "all_replicas_caught_up": bool(caught_up),
        "audit_chain_verified": bool(audit_ok),
        "bars": {"availability": "== 1.0", "evictions": "== 0",
                 "full_builds_per_replica": "== 1"},
    })

    assert availability == 1.0, f"{failed} queries failed under benign growth"
    assert evictions == 0, f"{evictions} evictions for growth-only staleness"
    assert refreshes > 0
    assert full_builds == [1, 1, 1], (
        f"replicas rebuilt from scratch to catch up: {full_builds}")
    assert caught_up and audit_ok


# -- claim 2: compaction churn keeps p99 within 2x quiescent --------------------


REPETITIONS = 5  # alternated quiescent/churn phases behind the p99 ratio


def _p99(samples):
    return float(np.percentile(np.asarray(samples, dtype=np.float64), 99))


def test_compaction_keeps_p99_bounded(bench_rng, tmp_path_factory):
    rng = bench_rng.child("incremental-p99")
    fingerprints, labels = _corpus(rng.child("corpus"), RECORDS)
    store = _store_for(tmp_path_factory, "inc-p99", fingerprints, labels,
                       segment_records=max(1, RECORDS // 4))
    qgen = rng.child("queries").fork_generator()
    rounds = 300 if SMOKE else 800
    sample = qgen.integers(0, RECORDS, size=rounds)
    queries = fingerprints[sample] + qgen.standard_normal(
        (rounds, DIM)).astype(np.float32) * 0.1
    query_labels = labels[sample].astype(np.int64)

    index = ShardedAnnIndex(store, shard_threshold=1024, seed=1,
                            max_segments=2,
                            compaction_interval_s=0.005).build()

    def measure():
        latencies = []
        for i in range(rounds):
            started = time.perf_counter()
            index.search_batch(queries[i:i + 1], int(query_labels[i]), k=K)
            latencies.append(time.perf_counter() - started)
        return latencies

    # Churn: append + refresh between query stretches with the background
    # compactor running, so merges overlap the measured searches.
    ggen = rng.child("growth").fork_generator()

    def measure_churn():
        latencies = []
        chunk = max(1, rounds // 6)
        for start in range(0, rounds, chunk):
            extra = ggen.standard_normal(
                (120, DIM)).astype(np.float32)
            extra_labels = ggen.integers(0, LABELS, size=120).tolist()
            store.append(extra, extra_labels, ["storm"] * 120,
                         [b"s" * 32] * 120)
            index.refresh()
            for i in range(start, min(start + chunk, rounds)):
                started = time.perf_counter()
                index.search_batch(queries[i:i + 1],
                                   int(query_labels[i]), k=K)
                latencies.append(time.perf_counter() - started)
        return latencies

    # One shot of churn p99 / quiescent p99 is a ratio of two
    # sub-millisecond tail samples: on a shared 2-vCPU host a single
    # scheduling hiccup in either decides it. Alternate the two phases
    # and hold the bar on the median ratio.
    measure()  # warm-up
    pairs = []
    for _ in range(REPETITIONS):
        calm = _p99(measure())
        index.start_compaction()
        try:
            pairs.append((calm, _p99(measure_churn())))
        finally:
            index.stop_compaction()
        index.compact_now()  # the next quiescent phase starts compacted
    quiescent = statistics.median(calm for calm, _ in pairs)
    churn = statistics.median(busy for _, busy in pairs)
    ratio = statistics.median(
        busy / calm if calm else float("inf") for calm, busy in pairs)

    print(f"\ncompaction churn p99, {RECORDS} records, {rounds} queries, "
          f"medians of {REPETITIONS} alternated repetitions")
    print(f"  quiescent p99  {quiescent * 1e3:>8.2f}ms")
    print(f"  churn p99      {churn * 1e3:>8.2f}ms")
    print(f"  ratio          {ratio:>8.2f}x  (bar: <= 2x"
          f"{', advisory in smoke' if SMOKE else ''})")
    print(f"  compactions    {index.compactions:>8}")

    _update_trajectory("incremental_compaction_p99", {
        "config": {"records": RECORDS, "rounds": rounds, "k": K,
                   "max_segments": 2, "repetitions": REPETITIONS},
        "quiescent_p99_ms": round(quiescent * 1e3, 3),
        "churn_p99_ms": round(churn * 1e3, 3),
        "ratio": round(ratio, 3),
        "compactions": int(index.compactions),
        "compaction_failures": int(index.compaction_failures),
        "bar": "<= 2.0 (advisory in smoke)",
    })

    assert index.compactions > 0, "the churn phase never compacted"
    # Timing bars are advisory on noise-dominated smoke hosts.
    if SMOKE:
        if ratio > 2.0:
            print(f"  WARNING: smoke churn ratio {ratio:.2f}x over the 2x "
                  "bar (advisory only)")
    else:
        assert ratio <= 2.0, (
            f"compaction churn p99 {churn * 1e3:.2f}ms is {ratio:.2f}x the "
            f"quiescent {quiescent * 1e3:.2f}ms")


# -- claim 3: incremental build == from-scratch build, bitwise ------------------


def test_incremental_matches_scratch_bitwise(bench_rng, tmp_path_factory):
    rng = bench_rng.child("incremental-parity")
    fingerprints, labels = _corpus(rng.child("corpus"), RECORDS)
    store = _store_for(tmp_path_factory, "inc-parity", fingerprints, labels,
                       segment_records=max(1, RECORDS // 3))

    incremental = ShardedAnnIndex(store, shard_threshold=1024, seed=1,
                                  max_segments=3).build()
    ggen = rng.child("growth").fork_generator()
    for _ in range(3):
        extra = ggen.standard_normal((RECORDS // 10, DIM)).astype(np.float32)
        extra_labels = ggen.integers(0, LABELS,
                                     size=RECORDS // 10).tolist()
        store.append(extra, extra_labels, ["p1"] * (RECORDS // 10),
                     [b"g" * 32] * (RECORDS // 10))
        incremental.refresh()
    incremental.compact_now()
    scratch = ShardedAnnIndex(store, shard_threshold=1024, seed=1).build()

    qgen = rng.child("queries").fork_generator()
    sample = qgen.integers(0, RECORDS, size=QUERIES)
    queries = fingerprints[sample] + qgen.standard_normal(
        (QUERIES, DIM)).astype(np.float32) * 0.1
    query_labels = labels[sample].astype(np.int64)

    mismatches = 0
    overlap = total = 0
    for i in range(QUERIES):
        got = incremental.search(queries[i], int(query_labels[i]), k=K)
        want = scratch.search(queries[i], int(query_labels[i]), k=K)
        got_ids = [h.index for h in got]
        want_ids = [h.index for h in want]
        overlap += len(set(got_ids) & set(want_ids))
        total += len(want_ids)
        if got != want:  # index AND distance AND order
            mismatches += 1
    recall = overlap / total if total else 1.0

    print(f"\nincremental-vs-scratch parity, {len(store)} records, "
          f"{QUERIES} queries, k={K}")
    print(f"  recall        {recall:>8.4f}  (bar: == 1.0)")
    print(f"  mismatches    {mismatches:>8}  (bar: 0, bitwise + order)")
    print(f"  segments      {incremental.stats()['segments']:>8} "
          f"(after compaction)")

    _update_trajectory("incremental_parity", {
        "config": {"records": int(len(store)), "queries": QUERIES, "k": K,
                   "refreshes": 3},
        "recall_vs_scratch": round(recall, 6),
        "ordering_mismatches": mismatches,
        "segments_after_compaction": int(incremental.stats()["segments"]),
        "bars": {"recall_vs_scratch": "== 1.0",
                 "ordering_mismatches": "== 0"},
    })

    assert recall == 1.0
    assert mismatches == 0, (
        f"{mismatches}/{QUERIES} answers differ from the from-scratch build")
