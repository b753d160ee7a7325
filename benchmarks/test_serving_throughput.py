"""Serving-plane throughput: brute force vs. the sharded-ANN engine.

The ROADMAP north star is a query stage that absorbs heavy traffic. This
bench builds clustered fingerprint corpora at 10k / 100k (and 1M when
``REPRO_BENCH_LARGE=1``), then measures:

* brute single-query throughput: the paper-faithful full scan,
  :func:`~repro.core.query.exact_top_k` over the query's class rows
  from :meth:`LinkageStore.by_label`,
* the :mod:`repro.serving` engine answering the same workload batched
  through the sharded ANN index in exact mode.

Claims checked:

* the engine serves batched queries at >= 5x the brute-force
  single-query throughput on the 100k corpus;
* top-k parity — the engine's answers match the exact brute-force path
  on the same data (recall 1.0 at the default re-rank width);
* after a 1k-query run the engine's hash-chained audit trail has one
  event per answered query and passes chain verification.
"""

import os
import time

import numpy as np

from repro.core.query import exact_top_k
from repro.serving import (EngineConfig, LinkageStore, ServingEngine,
                           ShardedAnnIndex)

DIM = 32
LABELS = 8
CLUSTERS = 16
K = 5


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


def _brute_query(store, query, label):
    """Record indices of the exact top-K by full scan of the label's rows."""
    matrix, indices = store.by_label(label)
    positions, _ = exact_top_k(query[None, :], matrix, K)
    return [indices[p] for p in positions[0]]


def _single_query_qps(store, queries, query_labels, repeats=1):
    start = time.perf_counter()
    for _ in range(repeats):
        for i in range(queries.shape[0]):
            _brute_query(store, queries[i], int(query_labels[i]))
    elapsed = time.perf_counter() - start
    return repeats * queries.shape[0] / elapsed


def _engine_qps(engine, queries, query_labels, repeats=1):
    start = time.perf_counter()
    for _ in range(repeats):
        engine.query_many(queries, query_labels, k=K)
    elapsed = time.perf_counter() - start
    return repeats * queries.shape[0] / elapsed


def test_serving_throughput(bench_rng, tmp_path_factory, benchmark):
    if os.environ.get("REPRO_BENCH_SMOKE") == "1":
        sizes = [10_000]  # the CI smoke job: shape checks, no 100k claims
    else:
        sizes = [10_000, 100_000]
    if os.environ.get("REPRO_BENCH_LARGE") == "1":
        sizes.append(1_000_000)
    elif os.environ.get("REPRO_BENCH_SMOKE") != "1":
        print("\n(1M corpus skipped — set REPRO_BENCH_LARGE=1 to include it)")

    rng = bench_rng.child("serving")
    qgen = rng.child("queries").fork_generator()

    print("\nserving throughput (qps), clustered corpus, k=5")
    print(f"{'records':>9} {'brute':>10} {'engine':>10} "
          f"{'speedup':>8} {'scan%':>7}")
    results = {}
    for size in sizes:
        fingerprints, labels = _corpus(rng.child(f"corpus-{size}"), size)
        sample = qgen.integers(0, size, size=192)
        queries = fingerprints[sample] + qgen.standard_normal(
            (192, DIM)).astype(np.float32) * 0.1
        query_labels = labels[sample]

        store = _store_for(tmp_path_factory, f"serving{size}", fingerprints,
                           labels)
        qps_brute = _single_query_qps(store, queries[:48], query_labels[:48])
        index = ShardedAnnIndex(store, shard_threshold=2048, seed=1).build()
        engine = ServingEngine(
            index, EngineConfig(workers=4, max_batch=64, queue_depth=192,
                                cache_size=0),  # cache off: measure the index
        ).start()
        try:
            _engine_qps(engine, queries, query_labels)  # warm-up pass
            qps_engine = _engine_qps(engine, queries, query_labels, repeats=3)
        finally:
            engine.stop()
        scan = engine.telemetry.snapshot()["scan_fraction"]
        speedup = qps_engine / qps_brute
        print(f"{size:>9} {qps_brute:>10.0f} "
              f"{qps_engine:>10.0f} {speedup:>7.1f}x {scan:>7.1%}")
        results[size] = (qps_brute, qps_engine, fingerprints, labels, queries,
                         query_labels, store, index)

    # Claim 1: >= 5x brute single-query throughput at 100k (full runs only;
    # the smoke configuration keeps the parity/audit claims at 10k).
    claim_size = max(sizes)
    if 100_000 in results:
        qps_brute, qps_engine = results[100_000][0], results[100_000][1]
        assert qps_engine >= 5 * qps_brute, (
            f"engine {qps_engine:.0f} qps < 5x brute {qps_brute:.0f} qps"
        )

    # Claim 2: exact parity — recall 1.0 at the default re-rank width.
    _, _, fingerprints, labels, queries, query_labels, store, index = \
        results[claim_size]
    for i in range(32):
        expected = _brute_query(store, queries[i], int(query_labels[i]))
        got = [hit.index for hit in index.search(queries[i],
                                                 int(query_labels[i]), k=K)]
        assert got == expected
    print("parity: engine/index top-5 identical to brute force (recall 1.0)")

    # Claim 3: a 1k-query run leaves a verifiable, complete audit chain.
    audit_engine = ServingEngine(
        index, EngineConfig(workers=4, max_batch=64, queue_depth=256)
    ).start()
    try:
        for start in range(0, 1_000, 200):
            sample = qgen.integers(0, fingerprints.shape[0], size=200)
            audit_engine.query_many(
                fingerprints[sample]
                + qgen.standard_normal((200, DIM)).astype(np.float32) * 0.1,
                labels[sample], k=K,
            )
    finally:
        audit_engine.stop()
    # Each answered label block is one event; each answer is committed
    # in it once, by query digest and answer digest.
    committed = sum(len(e.details["query_digests"])
                    for e in audit_engine.audit.events("serving-query"))
    assert committed == 1_000
    assert audit_engine.verify_audit_chain()
    print(f"audit: 1000 answers committed in {len(audit_engine.audit)} "
          f"events, chain verified (head {audit_engine.audit.head.hex()[:16]}…)")

    # Operating point for pytest-benchmark: one coalesced 64-query batch.
    bench_engine = ServingEngine(
        index, EngineConfig(workers=4, max_batch=64, queue_depth=256,
                            cache_size=0)
    ).start()
    try:
        benchmark(_engine_qps, bench_engine, queries[:64], query_labels[:64])
    finally:
        bench_engine.stop()
