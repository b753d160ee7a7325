"""`repro.serving` — the production-scale accountability query plane.

The paper's accountability workflow ends in a runtime query stage: every
misprediction triggers a same-class nearest-fingerprint search over the
Omega = [F, Y, S, H] linkage database. :mod:`repro.core.query` implements
that stage faithfully but as a single-process, in-memory service. This
package grows it into a serving subsystem that can absorb heavy traffic:

* :mod:`repro.serving.store` — a persistent, versioned, append-only
  segment store with memory-mapped fingerprint matrices and
  content-addressed segment digests. The manifest digest is sealable via
  :mod:`repro.enclave.sealing`, so the fingerprinting enclave can attest
  exactly what the out-of-enclave index serves (the Citadel-style narrow
  attested interface between enclave and bulk data plane).
* :mod:`repro.serving.segments` — immutable, content-addressed index
  segments (LSM-style): each covers a contiguous run of store segments
  and is identified by a digest over the covered store digests plus the
  build parameters; a generation of segments commits to one
  ``index-snapshot`` digest and answers with snapshot isolation.
* :mod:`repro.serving.index` — a per-label sharded ANN index over a
  generation of segments: coarse k-means bucketing with exact L2
  re-ranking. Triangle-inequality bounds guarantee top-k results (ids
  and float64 distances) identical to brute force. Store growth is adopted
  incrementally (:meth:`ShardedAnnIndex.refresh` builds segments only
  for new store segments) and a background merge/compaction thread
  bounds segment fan-out.
* :mod:`repro.serving.engine` — a query engine with micro-batching, an
  LRU result cache, a worker pool, bounded-queue backpressure (typed
  :class:`~repro.errors.QueryRejected` on overload), and a hash-chained
  audit trail so every forensic query is itself accountable.
* :mod:`repro.serving.verify` — :class:`AnswerVerifier`, the one unit
  that decides whether an answer may leave the router (pure: store +
  telemetry in, one verdict per answer out).
* :mod:`repro.serving.cluster` — the self-healing replicated layer:
  N engine replicas over one sealed store, fronted by a router with
  per-request deadlines, jittered-backoff retry, p99-triggered hedging,
  per-replica circuit breakers, load shedding, one verifier call per
  answer, background eviction/revival, and an audited exact brute-force
  degraded mode.

Nothing in this package injects faults: a replica's ``index`` is exactly
what the cluster's ``index_factory`` returned, and drills (the resilience
package's serving fault plans) act on a running cluster from outside.
"""

from repro.serving.cluster import (CircuitBreaker, ClusterConfig,
                                   ClusterResult, ServingCluster,
                                   ServingReplica)
from repro.serving.engine import EngineAnswer, EngineConfig, ServingEngine
from repro.serving.index import IndexHit, ShardedAnnIndex
from repro.serving.segments import (IndexGeneration, IndexSegment,
                                    SegmentBuildParams, ShardSearchResult,
                                    generation_lineage_error, merge_segments,
                                    plan_merge)
from repro.serving.store import LinkageStore, SegmentInfo
from repro.serving.verify import AnswerVerifier

__all__ = [
    "EngineAnswer",
    "EngineConfig",
    "ServingEngine",
    "IndexHit",
    "ShardedAnnIndex",
    "IndexGeneration",
    "IndexSegment",
    "SegmentBuildParams",
    "ShardSearchResult",
    "generation_lineage_error",
    "merge_segments",
    "plan_merge",
    "LinkageStore",
    "SegmentInfo",
    "AnswerVerifier",
    "ClusterConfig",
    "ClusterResult",
    "CircuitBreaker",
    "ServingCluster",
    "ServingReplica",
]
