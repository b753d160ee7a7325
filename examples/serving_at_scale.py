"""Serving accountability queries at scale: the full `repro.serving` plane.

The paper's query stage answers one misprediction at a time from an
in-memory database. This example runs the production-shaped path instead:

1. persist a clustered fingerprint corpus into an on-disk
   :class:`LinkageStore` (append-only segments, memory-mapped matrices),
2. seal the store's manifest digest to the fingerprinting enclave's
   identity — the attestation boundary between the enclave and the
   out-of-enclave serving plane,
3. build the per-label sharded ANN index (provably identical top-k to
   brute force),
4. drive a bursty query workload through the micro-batching engine with
   its LRU cache and bounded-queue backpressure, and
5. verify the hash-chained audit trail the engine kept of every answer.

Run:  python examples/serving_at_scale.py
"""

import tempfile
import time

import numpy as np

from repro.core.query import exact_top_k
from repro.enclave.platform import SgxPlatform
from repro.errors import QueryRejected
from repro.serving import (EngineConfig, LinkageStore, ServingEngine,
                           ShardedAnnIndex)
from repro.utils.rng import RngStream


def main() -> None:
    rng = RngStream(seed=23, name="serving")
    generator = rng.child("data").generator

    # -- 1. a clustered fingerprint corpus, persisted segment by segment ----
    records, dim, num_labels = 60_000, 32, 10
    centers = generator.standard_normal((num_labels, 8, dim)) * 4.0
    labels = generator.integers(0, num_labels, size=records)
    clusters = generator.integers(0, 8, size=records)
    fingerprints = (
        centers[labels, clusters]
        + generator.standard_normal((records, dim)) * 0.5
    ).astype(np.float32)

    path = tempfile.mkdtemp(prefix="caltrain-serving-")
    store = LinkageStore.create(path)
    for start in range(0, records, 16_384):
        stop = min(start + 16_384, records)
        store.append(fingerprints[start:stop], labels[start:stop].tolist(),
                     [f"participant-{i % 5}" for i in range(start, stop)],
                     [b"h" * 32 for _ in range(start, stop)],
                     source_indices=list(range(start, stop)))
    print(f"store: {len(store)} records / {len(store.segments)} segments "
          f"at {path}")

    # -- 2. the sealing boundary -------------------------------------------
    platform = SgxPlatform(rng=rng.child("platform"))
    enclave = platform.create_enclave("fingerprinting")
    enclave.init()
    sealed_manifest = store.seal_manifest(enclave)
    assert store.verify_sealed_manifest(enclave, sealed_manifest)
    print(f"manifest digest sealed to MRENCLAVE "
          f"{enclave.mrenclave.hex()[:16]}… and verified")

    # -- 3. the sharded ANN index ------------------------------------------
    index = ShardedAnnIndex(store, shard_threshold=2048, seed=23).build()
    stats = index.stats()
    clustered = sum(1 for s in stats["shards"].values()
                    if s["kind"] == "clustered")
    print(f"index: {stats['labels']} shards ({clustered} clustered)")

    # -- 4. bursty traffic through the engine ------------------------------
    num_queries = 1_000
    sample = generator.integers(0, records, size=num_queries)
    queries = fingerprints[sample] + generator.standard_normal(
        (num_queries, dim)).astype(np.float32) * 0.1
    query_labels = labels[sample]

    started = time.perf_counter()
    with ServingEngine(index, EngineConfig(workers=4, max_batch=64,
                                           queue_depth=256)) as engine:
        futures, rejected = [], 0
        for i in range(num_queries):
            while True:
                try:
                    futures.append(
                        engine.submit(queries[i], int(query_labels[i]), k=5)
                    )
                    break
                except QueryRejected:
                    rejected += 1          # typed backpressure, client backs off
                    time.sleep(0.002)
        results = [future.result() for future in futures]
        # The same viral misprediction, queried again: served by the cache.
        for i in range(200):
            engine.query(queries[i], int(query_labels[i]), k=5)
    elapsed = time.perf_counter() - started
    print(f"{num_queries + 200} queries in {elapsed:.2f}s "
          f"({(num_queries + 200) / elapsed:,.0f} qps), "
          f"{rejected} transient rejections")
    print(engine.telemetry.render())

    # -- 5. exactness + the audit trail ------------------------------------
    for i in range(25):
        matrix, indices = store.by_label(int(query_labels[i]))
        positions, _ = exact_top_k(queries[i : i + 1], matrix, 5)
        expected = [indices[p] for p in positions[0]]
        assert [hit.index for hit in results[i]] == expected
    print("exactness: engine top-5 identical to brute force on 25 samples")

    assert engine.verify_audit_chain()
    committed = sum(len(e.details["query_digests"])
                    for e in engine.audit.events("serving-query"))
    assert committed == num_queries + 200  # every answer, exactly once
    print(f"audit: {committed} answers committed in {len(engine.audit)} "
          f"hash-chained events, chain verified "
          f"(head {engine.audit.head.hex()[:16]}…)")


if __name__ == "__main__":
    main()
