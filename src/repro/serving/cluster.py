"""Self-healing replicated serving: deadlines, hedging, breakers, failover.

One :class:`~repro.serving.engine.ServingEngine` is a single point of
failure on an untrusted host: the process can crash, a worker can wedge,
the in-memory index can rot, and a caller has no recourse beyond waiting.
:class:`ServingCluster` runs N engine replicas over the *same* promoted
:class:`~repro.serving.store.LinkageStore` and fronts them with a router
whose job is to keep the accountability plane answering — correctly —
while the host misbehaves:

* **one build, private copies** — :meth:`ServingCluster.start` runs the
  k-means build once per distinct
  :class:`~repro.serving.segments.SegmentBuildParams`; every other
  replica with those params starts from a private deep copy of that
  generation (:meth:`ShardedAnnIndex.copy_from`: its own arrays, the
  same segment addresses, the build-time checksums carried), adopted
  only after its lineage checks against the replica's own store. Copies,
  never shared references: each replica's index stays its own failure
  domain, so in-memory rot in one evicts that replica alone. Every index
  is derived before any thread starts, and a start that fails stops
  whatever it had started before it re-raises;
* **per-request deadlines** — every query carries one end-to-end budget;
  all retries, hedges, and fallbacks spend from it;
* **bounded retry with jittered backoff** — retryable failures (crash,
  wedge, staleness, backpressure) move the query to another replica;
  backpressure honours the engine's ``retry_after_s`` hint;
* **hedged requests** — when a reply takes longer than the rolling p99,
  a second replica gets the same query and the first answer wins;
* **per-replica circuit breakers** — repeated failures open the breaker
  so a sick replica stops eating deadline budget; a half-open probe lets
  it back in once it recovers;
* **load shedding** — a cluster-wide in-flight bound rejects excess
  work with a typed, ``retry_after_s``-carrying
  :class:`~repro.errors.QueryRejected` instead of letting queues melt;
* **answer verification** — every answer a replica returns goes through
  one :class:`~repro.serving.verify.AnswerVerifier` call (distances
  re-derived from the authoritative mmap store, provenance claims and
  the cited index snapshot's lineage checked); a failed verdict is index
  corruption and evicts the replica fail-closed;
* **incremental refresh, not eviction, on benign growth** — appends to
  the shared store leave each replica's pinned generation valid for the
  prefix it covers; the health sweep adopts new segments via staggered
  :meth:`ServingCluster.refresh` (one replica per sweep), and eviction
  for staleness is reserved for genuine history
  rewrites (:meth:`ShardedAnnIndex.store_prefix_ok` returning False);
* **health sweeps + self-healing** — a background monitor re-verifies
  each replica's audit-chain suffix and index shard checksums, evicts
  failed replicas, and revives them: re-open the store from disk
  (fail-closed on torn manifests), re-run the promotion
  ``serving_verifier`` walk, rebuild the index, probe, rejoin;
* **audited graceful degradation** — with no healthy replica the router
  answers by exact brute-force over the verified store, flags the result
  ``degraded=True``, and records it in the cluster's hash-chained audit
  log. Wrong or stale answers are never an option; refusing
  (:class:`~repro.errors.NoHealthyReplica`) is the last resort.

The degraded path matters for the trust story: replicas are *untrusted*
accelerators over the sealed store — the store's content-addressed
segments are the root of trust. Degraded mode drops the accelerator and
reads the sealed bytes directly (after a fail-closed ``verify()``), so
availability never comes at the price of integrity.

Nothing in this module injects a fault. Drills (the serving fault plans
of the resilience package) act on a running cluster from outside,
through what the production classes expose anyway; the cluster only ever
*observes* misbehaviour.
"""

from __future__ import annotations

import itertools
import random
import threading
import time
from collections import deque
from concurrent.futures import FIRST_COMPLETED
from concurrent.futures import TimeoutError as FuturesTimeoutError
from concurrent.futures import wait as futures_wait
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.audit import AuditLog
from repro.core.query import exact_top_k
from repro.errors import (ConfigurationError, DeadlineExceeded,
                          IndexIntegrityError, NoHealthyReplica, QueryError,
                          QueryRejected, ServingError, StaleIndexError,
                          StoreError)
from repro.observability.adapter import SubsystemTelemetry
from repro.serving.engine import (EngineConfig, ServingEngine,
                                  label_blocks)
from repro.serving.index import IndexHit, ShardedAnnIndex
from repro.serving.segments import SegmentBuildParams
from repro.serving.store import LinkageStore
from repro.serving.verify import AnswerVerifier

__all__ = ["ClusterConfig", "CircuitBreaker", "ClusterResult",
           "ServingReplica", "ServingCluster"]

_JITTER_SEED = 0         # deterministic backoff jitter
_LATENCY_WINDOW = 512    # rolling latencies behind the p99 hedge trigger
_PROBE_TIMEOUT_S = 1.0   # budget for a revived replica's probe query


def _is_caller_error(exc: BaseException) -> bool:
    """Unknown label, bad dimension: the query is wrong, not the replica."""
    return isinstance(exc, QueryError) and not isinstance(
        exc, (QueryRejected, StaleIndexError))


@dataclass(frozen=True)
class ClusterConfig:
    """Tuning knobs for the replicated serving cluster."""

    deadline_s: float = 2.0        # default end-to-end budget per query
    max_retries: int = 2           # failovers per query beyond the first try
    backoff_base_s: float = 0.02   # exponential backoff base
    backoff_cap_s: float = 0.25    # backoff ceiling
    hedge_min_s: float = 0.05      # hedge delay floor (and pre-warm value)
    breaker_threshold: int = 3     # consecutive failures that open a breaker
    breaker_reset_s: float = 1.0   # open -> half-open probe interval
    max_in_flight: int = 256       # cluster-wide load-shedding bound
    health_interval_s: float = 0.25  # background health-sweep period
    degraded_allowed: bool = True  # audited brute-force fallback
    revive: bool = True            # background revival of evicted replicas
    stop_timeout_s: float = 1.0    # bound on per-engine eviction/stop drains

    def __post_init__(self) -> None:
        if self.deadline_s <= 0:
            raise ConfigurationError("deadline_s must be positive")
        if self.max_retries < 0:
            raise ConfigurationError("max_retries must be >= 0")
        if self.backoff_base_s <= 0 or self.backoff_cap_s < self.backoff_base_s:
            raise ConfigurationError(
                "backoff_base_s must be positive and <= backoff_cap_s")
        if self.hedge_min_s <= 0:
            raise ConfigurationError("hedge_min_s must be positive")
        if self.breaker_threshold < 1:
            raise ConfigurationError("breaker_threshold must be >= 1")
        if self.breaker_reset_s <= 0:
            raise ConfigurationError("breaker_reset_s must be positive")
        if self.max_in_flight < 1:
            raise ConfigurationError("max_in_flight must be >= 1")
        if self.health_interval_s <= 0:
            raise ConfigurationError("health_interval_s must be positive")
        if self.stop_timeout_s <= 0:
            raise ConfigurationError("stop_timeout_s must be positive")


class CircuitBreaker:
    """Per-replica breaker: closed -> open on consecutive failures,
    half-open single probe after ``reset_s``, closed again on success."""

    def __init__(self, threshold: int, reset_s: float,
                 clock: Callable[[], float]) -> None:
        self.threshold = threshold
        self.reset_s = reset_s
        self._clock = clock
        self._lock = threading.Lock()
        self._failures = 0
        self._state = "closed"
        self._opened_at = 0.0
        self._probing = False

    @property
    def state(self) -> str:
        with self._lock:
            return self._state

    def allow(self) -> bool:
        with self._lock:
            if self._state == "closed":
                return True
            if self._state == "open":
                if self._clock() - self._opened_at >= self.reset_s:
                    self._state = "half-open"
                    self._probing = True
                    return True
                return False
            # half-open: exactly one in-flight probe at a time
            if self._probing:
                return False
            self._probing = True
            return True

    def record_success(self) -> None:
        with self._lock:
            self._failures = 0
            self._state = "closed"
            self._probing = False

    def record_failure(self) -> bool:
        """Returns True if this failure (re)opened the breaker."""
        with self._lock:
            self._failures += 1
            was_open = self._state == "open"
            if self._state == "half-open" or self._failures >= self.threshold:
                self._state = "open"
                self._opened_at = self._clock()
                self._probing = False
            return self._state == "open" and not was_open

    def reset(self) -> None:
        with self._lock:
            self._failures = 0
            self._state = "closed"
            self._probing = False


@dataclass
class ClusterResult:
    """One routed answer plus how the cluster obtained it."""

    hits: Tuple[IndexHit, ...]
    replica: Optional[str]     # None when served degraded
    degraded: bool = False
    hedged: bool = False       # a hedge was launched for this query
    failed_over: bool = False  # answered by other than the first replica
    retries: int = 0
    latency_s: float = 0.0


class ServingReplica:
    """One engine replica plus its health state, breaker, and audit mark."""

    def __init__(self, name: str, engine: ServingEngine,
                 breaker: CircuitBreaker) -> None:
        self.name = name
        self.index: ShardedAnnIndex = engine.index
        self.engine = engine
        self.breaker = breaker
        self.state = "healthy"          # healthy | evicted | reviving
        self.evicted_reason: Optional[str] = None
        self.last_revive_attempt = 0.0
        # Incremental audit verification mark: (events seen, chain head).
        self.audit_mark: Tuple[int, bytes] = (0, engine.audit.head)
        self.lock = threading.Lock()

    @property
    def healthy(self) -> bool:
        return self.state == "healthy"


class ServingCluster:
    """N replicated engines + the self-healing query router (see module
    docstring for the full availability contract)."""

    def __init__(self, store: LinkageStore, replicas: int = 3,
                 config: Optional[ClusterConfig] = None,
                 engine_config: Optional[EngineConfig] = None,
                 index_factory: Optional[Callable[..., ShardedAnnIndex]] = None,
                 promotion=None, promotion_verifier=None,
                 telemetry: Optional[SubsystemTelemetry] = None,
                 tracer=None,
                 clock: Callable[[], float] = time.monotonic) -> None:
        if replicas < 1:
            raise ConfigurationError("a cluster needs at least one replica")
        self.store = store
        self.config = config or ClusterConfig()
        self.engine_config = engine_config or EngineConfig()
        self.index_factory = index_factory or ShardedAnnIndex
        self.promotion = promotion
        self.promotion_verifier = promotion_verifier
        self.telemetry = telemetry if telemetry is not None else (
            SubsystemTelemetry("serving_cluster"))
        self.tracer = tracer
        self.audit = AuditLog()  # notable routing events, hash-chained
        self._audit_lock = threading.Lock()
        self._clock = clock
        self._rng = random.Random(_JITTER_SEED)
        self._rng_lock = threading.Lock()
        self._rr = itertools.count()
        self._latencies: "deque[float]" = deque(maxlen=_LATENCY_WINDOW)
        self._latency_lock = threading.Lock()
        self._in_flight = 0
        self._in_flight_lock = threading.Lock()
        self._started = False
        self._monitor: Optional[threading.Thread] = None
        self._monitor_stop = threading.Event()
        # Degraded-path cache: per-(label, store version) matrices, plus a
        # once-per-version fail-closed store verification flag.
        self._degraded_lock = threading.Lock()
        self._degraded_cache: Dict[Tuple[int, int], Tuple[np.ndarray, List[int]]] = {}
        self._degraded_verified_version: Optional[int] = None
        self.verifier = AnswerVerifier(store, self.telemetry)
        self.replicas: List[ServingReplica] = [
            self._make_replica(f"replica-{i}", store) for i in range(replicas)
        ]

    # -- construction / lifecycle ------------------------------------------------

    def _new_engine(self, store: LinkageStore) -> ServingEngine:
        """A not-yet-started engine over a not-yet-built private index."""
        return ServingEngine(
            self.index_factory(store), config=self.engine_config,
            telemetry=SubsystemTelemetry("serving",
                                         registry=self.telemetry.registry),
            promotion=self.promotion,
            promotion_verifier=self.promotion_verifier,
        )

    def _make_replica(self, name: str, store: LinkageStore) -> ServingReplica:
        engine = self._new_engine(store)
        breaker = CircuitBreaker(self.config.breaker_threshold,
                                 self.config.breaker_reset_s, self._clock)
        return ServingReplica(name, engine, breaker)

    def _span(self, name: str, kind: str, **attrs):
        if self.tracer is None:
            return nullcontext()
        return self.tracer.span(name, kind=kind, **attrs)

    def start(self) -> "ServingCluster":
        if self._started:
            raise ServingError("cluster already started")
        # Every index is derived before any thread starts: one k-means
        # build per distinct params, a private copy of it for the rest.
        built: Dict[SegmentBuildParams, ShardedAnnIndex] = {}
        for replica in self.replicas:
            params = replica.index.build_params()
            if params in built:
                replica.index.copy_from(built[params])
            else:
                built[params] = replica.index.build()
        try:
            for replica in self.replicas:
                replica.engine.start()
                replica.index.start_compaction()
                replica.audit_mark = (len(replica.engine.audit),
                                      replica.engine.audit.head)
            self._monitor_stop.clear()
            self._monitor = threading.Thread(
                target=self._monitor_loop, name="cluster-health", daemon=True
            )
            self._monitor.start()
        except BaseException:
            # A half-started cluster is never left running: stop() would
            # not reach it, since it is not marked started. Stopping a
            # replica that never started is a no-op.
            for replica in self.replicas:
                self._stop_replica(replica, drain=False)
            raise
        self._started = True
        self._audit_event("cluster-started", replicas=len(self.replicas))
        return self

    def stop(self) -> None:
        if not self._started:
            return
        self._monitor_stop.set()
        if self._monitor is not None:
            self._monitor.join(timeout=self.config.stop_timeout_s * 2)
            self._monitor = None
        for replica in self.replicas:
            self._stop_replica(replica, drain=True)
        self._started = False
        self._audit_event("cluster-stopped")

    def _stop_replica(self, replica: ServingReplica, drain: bool) -> None:
        """Stop one replica's compactor and engine, the drain bounded."""
        replica.index.stop_compaction()
        try:
            replica.engine.stop(drain=drain,
                                drain_timeout=self.config.stop_timeout_s)
        except ServingError:
            pass  # abandoned futures already resolved with typed errors

    def __enter__(self) -> "ServingCluster":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # -- small shared helpers ----------------------------------------------------

    def _audit_event(self, kind: str, **details) -> None:
        with self._audit_lock:
            self.audit.append(kind, **details)

    def verify_audit_chain(self) -> bool:
        with self._audit_lock:
            return self.audit.verify_chain()

    def _record_latency(self, seconds: float) -> None:
        with self._latency_lock:
            self._latencies.append(seconds)

    def _hedge_delay(self) -> float:
        with self._latency_lock:
            n = len(self._latencies)
            if n < 20:
                return self.config.hedge_min_s
            ordered = sorted(self._latencies)
            p99 = ordered[min(n - 1, int(0.99 * (n - 1)) + 1)]
        return max(self.config.hedge_min_s, p99)

    def _backoff(self, attempt: int, hint: Optional[float] = None) -> float:
        base = min(self.config.backoff_cap_s,
                   self.config.backoff_base_s * (2 ** attempt))
        with self._rng_lock:
            jittered = base * (0.5 + 0.5 * self._rng.random())
        if hint is not None:
            jittered = max(jittered, hint)
        return min(jittered, self.config.backoff_cap_s)

    def _pick(self, exclude: frozenset) -> Optional[ServingReplica]:
        """Round-robin over healthy replicas whose breaker admits traffic."""
        candidates = [r for r in self.replicas
                      if r.healthy and r.name not in exclude]
        if not candidates:
            return None
        start = next(self._rr)
        for offset in range(len(candidates)):
            replica = candidates[(start + offset) % len(candidates)]
            if replica.breaker.allow():
                return replica
        return None

    # -- degraded path -----------------------------------------------------------

    def _degraded_answer(self, fingerprint: np.ndarray, label: int,
                         k: int) -> Tuple[IndexHit, ...]:
        """Exact brute force straight off the verified store (audited)."""
        with self._degraded_lock:
            version = self.store.version
            if self._degraded_verified_version != version:
                try:
                    # Fail-closed: degraded mode only serves from a store
                    # whose content-addressed digests verify right now.
                    self.store.verify()
                except StoreError as exc:
                    raise NoHealthyReplica(
                        f"degraded fallback refused: {exc}"
                    ) from exc
                self._degraded_cache.clear()
                self._degraded_verified_version = version
            key = (int(label), version)
            cached = self._degraded_cache.get(key)
            if cached is None:
                matrix, indices = self.store.by_label(int(label))
                cached = (np.ascontiguousarray(matrix, dtype=np.float32),
                          list(indices))
                self._degraded_cache[key] = cached
        matrix, indices = cached
        if matrix.shape[0] == 0:
            raise QueryError(
                f"no training fingerprints indexed for label {label}"
            )
        # The same kernel a healthy replica's brute shard ranks with, so
        # a degraded answer and a healthy one order near-ties identically.
        positions, distances = exact_top_k(fingerprint[None, :], matrix, k)
        return tuple(
            IndexHit(int(indices[i]), float(distance))
            for i, distance in zip(positions[0], distances[0])
        )

    # -- fault handling ----------------------------------------------------------

    def _evict(self, replica: ServingReplica, reason: str) -> None:
        with replica.lock:
            if replica.state == "evicted":
                return
            replica.state = "evicted"
            replica.evicted_reason = reason
        self.telemetry.count("evictions")
        self._audit_event("replica-evicted", replica=replica.name,
                          reason=reason)
        # Shut the engine down without draining (an evicted replica's
        # answers are not trusted); the bounded stop resolves the futures
        # of a worker that never comes back.
        self._stop_replica(replica, drain=False)

    def _replica_failure(self, replica: ServingReplica, exc: Exception) -> None:
        """Classify one failure: breaker bookkeeping + eviction triggers."""
        if replica.breaker.record_failure():
            self.telemetry.count("breaker_opens")
            self._audit_event("breaker-open", replica=replica.name,
                              error=type(exc).__name__)
        if isinstance(exc, IndexIntegrityError):
            self._evict(replica, "index-integrity")
        elif isinstance(exc, StaleIndexError):
            self._handle_stale(replica)
        elif isinstance(exc, ServingError) and replica.engine.crashed:
            self._evict(replica, "crash")

    def _handle_stale(self, replica: ServingReplica) -> None:
        """Distinguish benign-growth staleness from integrity staleness.

        The legacy cluster evicted on any ``StaleIndexError`` — a single
        benign ingest append took down every replica in the same sweep
        (a correlated availability cliff). Now: if the index's covered
        history is still a committed *prefix* of the store, the only
        thing wrong is growth — refresh in place, audit ``refreshed``
        not ``evicted``. Eviction is reserved for genuine divergence
        (a covered segment's digest no longer matches: history rewrite
        or store tampering)."""
        if replica.index.store_prefix_ok():
            self.telemetry.count("benign_stale")
            self._refresh_replica(replica, cause="stale-query")
            return
        self._evict(replica, "stale-index")

    def _refresh_replica(self, replica: ServingReplica,
                         cause: str = "growth") -> bool:
        """Adopt store growth on one replica, in place, without eviction.

        A growth-only cause can never evict: refresh failures (other
        than genuine divergence) leave the replica healthy and serving
        its pinned snapshot — stale-but-consistent beats unavailable,
        and the next sweep retries."""
        if not replica.healthy:
            return False
        before = replica.index.snapshot_digest
        started = self._clock()
        try:
            changed = bool(replica.engine.refresh())
        except StaleIndexError as exc:
            # Refresh itself proved genuine divergence — integrity.
            self._audit_event("replica-refresh-failed", replica=replica.name,
                              cause=cause, error=type(exc).__name__)
            self._evict(replica, "stale-index")
            return False
        except Exception as exc:  # noqa: BLE001 — growth must not evict
            self.telemetry.count("refresh_failures")
            self._audit_event("replica-refresh-failed", replica=replica.name,
                              cause=cause, error=type(exc).__name__)
            return False
        if changed:
            self.telemetry.count("replica_refreshes")
            self.telemetry.observe("refresh", self._clock() - started)
            self._audit_event(
                "replica-refreshed", replica=replica.name, cause=cause,
                snapshot_before=before,
                snapshot_after=replica.index.snapshot_digest,
            )
        return changed

    def refresh(self, max_replicas: int = 1) -> int:
        """Staggered generation adoption across the cluster.

        Refreshes the most-behind healthy replicas, at most
        ``max_replicas`` per call — so the cluster never takes the build
        cost on every replica at once and quorum keeps serving the prior
        snapshot. The health sweep calls this every interval; tests and
        the CLI may call it directly. Returns the number of replicas that
        adopted a new generation."""
        # Compare covered-segment counts, not the manifest version
        # counter: the two coincide only while every version bump is an
        # append, and a future non-append bump (format migration, reseal)
        # must not make every replica look permanently behind.
        target = self.store.segment_count

        def covered(replica: ServingReplica) -> int:
            count = replica.index.covered_store_segments
            return -1 if count is None else count

        behind = [r for r in self.replicas
                  if r.healthy and covered(r) < target]
        behind.sort(key=covered)
        refreshed = 0
        for replica in behind[:max(0, max_replicas)]:
            if self._refresh_replica(replica, cause="growth"):
                refreshed += 1
        return refreshed

    # -- routing -----------------------------------------------------------------

    def _shed_check(self, n: int) -> None:
        with self._in_flight_lock:
            if self._in_flight + n > self.config.max_in_flight:
                self.telemetry.count("shed", n)
                retry_after = self.config.hedge_min_s
                self._audit_event("query-shed", queries=n,
                                  in_flight=self._in_flight)
                raise QueryRejected(
                    f"cluster at max_in_flight={self.config.max_in_flight}; "
                    f"retry after {retry_after:.3f}s",
                    retry_after_s=retry_after,
                )
            self._in_flight += n

    def _unshed(self, n: int) -> None:
        with self._in_flight_lock:
            self._in_flight -= n

    def query(self, fingerprint: np.ndarray, label: int, k: int = 9,
              deadline_s: Optional[float] = None) -> ClusterResult:
        """Route one query with deadline/retry/hedging/failover/degrade."""
        if not self._started:
            raise ServingError("cluster is not running — call start()")
        fingerprint = np.ascontiguousarray(
            np.asarray(fingerprint, dtype=np.float32).ravel()
        )
        self._shed_check(1)
        try:
            with self._span("cluster-route", "untrusted", label=int(label)):
                return self._route(fingerprint, int(label), int(k),
                                   deadline_s)
        finally:
            self._unshed(1)

    def _route(self, fingerprint: np.ndarray, label: int, k: int,
               deadline_s: Optional[float]) -> ClusterResult:
        budget = deadline_s if deadline_s is not None else self.config.deadline_s
        started = self._clock()
        deadline = started + budget
        self.telemetry.count("queries")
        exclude: frozenset = frozenset()
        first_replica: Optional[str] = None
        retries = 0
        hedged_any = False
        last_error: Optional[Exception] = None
        for attempt in range(self.config.max_retries + 1):
            remaining = deadline - self._clock()
            if remaining <= 0:
                break
            replica = self._pick(exclude)
            if replica is None:
                break  # nothing routable: fall through to degraded
            if first_replica is None:
                first_replica = replica.name
            if attempt:
                retries += 1
                self.telemetry.count("retries")
            try:
                future = replica.engine.submit(fingerprint, label, k)
            except QueryRejected as exc:
                # Backpressure is soft: honour the replica's hint, do not
                # punish its breaker, try again (possibly elsewhere).
                last_error = exc
                pause = min(self._backoff(attempt, exc.retry_after_s),
                            max(0.0, deadline - self._clock()))
                if pause > 0:
                    time.sleep(pause)
                continue
            except ServingError as exc:
                last_error = exc
                self._replica_failure(replica, exc)
                exclude = exclude | {replica.name}
                continue
            outcome = self._await_answer(fingerprint, label, k, replica,
                                         future, deadline, exclude)
            winner, hits, hedged, error = outcome
            hedged_any = hedged_any or hedged
            if hits is not None and winner is not None:
                latency = self._clock() - started
                self._record_latency(latency)
                self.telemetry.observe("route", latency)
                self.telemetry.count("queries_ok")
                failed_over = winner.name != first_replica
                if failed_over:
                    self.telemetry.count("failovers")
                    self._audit_event("failover-query", replica=winner.name,
                                      first=first_replica, label=label)
                return ClusterResult(
                    hits=hits, replica=winner.name, degraded=False,
                    hedged=hedged_any, failed_over=failed_over,
                    retries=retries, latency_s=latency,
                )
            last_error = error
            if _is_caller_error(error):
                # Caller errors (unknown label, bad dimension) are not
                # replica faults — propagate without burning the budget.
                self.telemetry.count("caller_errors")
                raise error
            exclude = exclude | {replica.name}
        # -- every replica path exhausted: degrade or refuse -------------------
        remaining = deadline - self._clock()
        if remaining <= 0 and last_error is None:
            self.telemetry.count("queries_failed")
            raise DeadlineExceeded(
                f"query deadline of {budget:.3f}s expired before any replica "
                "answered"
            )
        if self.config.degraded_allowed and remaining > 0:
            try:
                with self._span("degraded-brute-force", "boundary-crossing",
                                label=label):
                    hits = self._degraded_answer(fingerprint, label, k)
            except NoHealthyReplica:
                self.telemetry.count("queries_failed")
                raise
            latency = self._clock() - started
            self.telemetry.observe("route", latency)
            self.telemetry.count("queries_ok")
            self.telemetry.count("degraded_answers")
            self._audit_event("degraded-query", label=label, k=k,
                              reason=type(last_error).__name__
                              if last_error else "no-healthy-replica")
            return ClusterResult(
                hits=hits, replica=None, degraded=True, hedged=hedged_any,
                failed_over=first_replica is not None, retries=retries,
                latency_s=latency,
            )
        self.telemetry.count("queries_failed")
        if remaining <= 0:
            raise DeadlineExceeded(
                f"query deadline of {budget:.3f}s expired "
                f"(last error: {type(last_error).__name__ if last_error else 'none'})"
            )
        raise NoHealthyReplica(
            "no healthy replica and degraded serving is disabled "
            f"(last error: {type(last_error).__name__ if last_error else 'none'})"
        )

    def _await_answer(self, fingerprint, label, k, replica, future,
                      deadline, exclude):
        """Wait on one submitted query, hedging past the rolling p99.

        Returns ``(winner, hits, hedged, error)``; ``hits`` is None on
        failure and ``error`` carries the decisive exception."""
        hedged = False
        hedge_future = None
        hedge_replica = None
        pending = {future: replica}
        # Phase 1: give the primary until the hedge trigger.
        trigger = min(self._hedge_delay(),
                      max(0.0, deadline - self._clock()))
        done, _ = futures_wait([future], timeout=trigger)
        if not done and deadline - self._clock() > 0:
            hedge_replica = self._pick(exclude | {replica.name})
            if hedge_replica is not None:
                try:
                    hedge_future = hedge_replica.engine.submit(
                        fingerprint, label, k)
                    pending[hedge_future] = hedge_replica
                    hedged = True
                    self.telemetry.count("hedges_launched")
                    self._audit_event("hedged-query", label=label,
                                      primary=replica.name,
                                      hedge=hedge_replica.name)
                except (QueryRejected, ServingError):
                    hedge_replica = None
        # Phase 2: first verified answer wins; failures drop out one by one.
        last_error: Optional[Exception] = None
        while pending:
            remaining = deadline - self._clock()
            if remaining <= 0:
                # Timed out: everyone still pending is too slow to trust.
                for straggler in pending.values():
                    self._replica_failure(
                        straggler, FuturesTimeoutError("deadline"))
                return None, None, hedged, last_error or FuturesTimeoutError(
                    "deadline expired waiting on replicas")
            done, _ = futures_wait(list(pending), timeout=remaining,
                                   return_when=FIRST_COMPLETED)
            if not done:
                continue
            for finished in done:
                owner = pending.pop(finished)
                try:
                    # Keep the engine's answer object intact: it is an
                    # EngineAnswer carrying the snapshot/label_rows
                    # provenance the verifier inspects.
                    hits = finished.result(timeout=0)
                    with self._span("verify-hits", "boundary-crossing",
                                    replica=owner.name):
                        problem = self.verifier.verify(
                            fingerprint[None, :], [hits], [label], k,
                            [owner.index.generation])[0]
                    if problem is not None:
                        raise problem
                except Exception as exc:  # noqa: BLE001 — classified below
                    last_error = exc
                    self._replica_failure(owner, exc)
                    if _is_caller_error(exc):
                        return owner, None, hedged, exc  # permanent
                    continue
                owner.breaker.record_success()
                if hedged and owner is hedge_replica:
                    self.telemetry.count("hedges_won")
                return owner, hits, hedged, None
        return None, None, hedged, last_error

    def query_many(self, fingerprints: np.ndarray, labels: Sequence[int],
                   k: int = 9, deadline_s: Optional[float] = None
                   ) -> List[ClusterResult]:
        """Route a batch under one overall deadline.

        Fast path: group the batch by label and deal whole label blocks
        over the replicas — one submission, one search, one future per
        block — then gather with the remaining budget. Any per-query
        failure falls back to the full single-query retry / hedge /
        degrade machinery with whatever budget is left.
        """
        if not self._started:
            raise ServingError("cluster is not running — call start()")
        fingerprints, by_label = label_blocks(fingerprints, labels)
        n = fingerprints.shape[0]
        budget = deadline_s if deadline_s is not None else self.config.deadline_s
        started = self._clock()  # every answer's latency counts from here
        deadline = started + budget
        self._shed_check(n)
        try:
            # One rotation snapshot for the whole batch: per-query _pick
            # (and its breaker lock) measurably taxes the fault-free fast
            # path; replicas that sicken mid-batch fail into the slow
            # path below, which re-picks with full checks.
            candidates = [r for r in self.replicas
                          if r.healthy and r.breaker.allow()]
            rotation = next(self._rr)
            blocks = list(by_label.items()) if candidates else []
            reroute: List[int] = [] if candidates else list(range(n))
            if blocks and len(blocks) < len(candidates):
                # Fewer labels than replicas: split, so that none idles.
                pieces = -(-len(candidates) // len(blocks))
                blocks = [(label, part.tolist()) for label, rows in blocks
                          for part in np.array_split(rows, pieces)
                          if part.size]
            submitted = []
            for position, (label, rows) in enumerate(blocks):
                replica = candidates[(rotation + position) % len(candidates)]
                try:
                    future = replica.engine.submit(fingerprints[rows],
                                                   label, k)
                except (QueryRejected, ServingError):
                    reroute.extend(rows)
                    continue
                # The answering thread stamps the block's completion on
                # the cluster clock before it wakes the gather loop, so a
                # block's latency does not depend on gather order.
                finished: List[float] = []
                answered = threading.Event()
                future.add_done_callback(
                    lambda _, finished=finished, answered=answered:
                    (finished.append(self._clock()), answered.set()))
                submitted.append((rows, replica, future, finished, answered))
            # Gather raw answers with the remaining budget; verification
            # and bookkeeping run batched afterwards so the per-query
            # Python cost stays off the routing-overhead budget.
            results: List[Optional[ClusterResult]] = [None] * n
            owners: Dict[int, ServingReplica] = {}
            for rows, replica, future, finished, answered in submitted:
                remaining = deadline - self._clock()
                if remaining <= 0:
                    reroute.extend(rows)
                    continue
                try:
                    if not answered.wait(remaining):
                        raise FuturesTimeoutError(
                            "deadline expired waiting on a label block")
                    # EngineAnswers: verification below reads their provenance.
                    block = future.result(timeout=0)
                except Exception as exc:  # noqa: BLE001 — reroute below
                    self._replica_failure(replica, exc)
                    if _is_caller_error(exc):
                        self.telemetry.count("queries")
                        self.telemetry.count("caller_errors")
                        raise
                    # One failure per unanswered query, as when each had
                    # a future of its own.
                    for _ in rows[1:]:
                        self._replica_failure(replica, exc)
                    reroute.extend(rows)
                    continue
                for row, hits in zip(rows, block):
                    owners[row] = replica
                    results[row] = ClusterResult(
                        hits=hits, replica=replica.name,
                        latency_s=finished[0] - started)
            gathered = sorted(owners)
            if gathered:
                verdicts = self.verifier.verify(
                    fingerprints[gathered],
                    [results[i].hits for i in gathered],
                    [labels[i] for i in gathered], k,
                    [owners[i].index.generation for i in gathered])
                for problem, i in zip(verdicts, gathered):
                    if problem is not None:
                        results[i] = None
                        self._replica_failure(owners.pop(i), problem)
                        reroute.append(i)
            if owners:
                latencies = [results[i].latency_s for i in owners]
                self.telemetry.count("queries", len(owners))
                self.telemetry.count("queries_ok", len(owners))
                with self._latency_lock:
                    self._latencies.extend(latencies)
                for replica in set(owners.values()):
                    replica.breaker.record_success()
                self.telemetry.observe_many("route", latencies)
            # Slow path: the single-query router owns retries/degrade.
            for i in sorted(reroute):
                results[i] = self._route(
                    np.ascontiguousarray(fingerprints[i]), int(labels[i]),
                    int(k), max(0.001, deadline - self._clock()))
            return results
        finally:
            self._unshed(n)

    # -- health + self-healing ---------------------------------------------------

    def _monitor_loop(self) -> None:
        while not self._monitor_stop.wait(self.config.health_interval_s):
            try:
                self.health_check_now()
            except Exception:  # noqa: BLE001 — the monitor must survive
                self.telemetry.count("monitor_errors")

    def health_check_now(self) -> Dict[str, str]:
        """One synchronous health sweep (the monitor calls this on a
        timer; tests and the CLI can call it directly)."""
        states: Dict[str, str] = {}
        for replica in self.replicas:
            if replica.state == "evicted":
                if self.config.revive:
                    self._maybe_revive(replica)
            elif replica.healthy:
                self._check_replica(replica)
            states[replica.name] = replica.state
        if self._started:
            # Staggered catch-up: one replica adopts the grown store per
            # sweep, so the cluster never rebuilds everywhere at once.
            try:
                self.refresh()
            except Exception:  # noqa: BLE001 — the sweep must survive
                self.telemetry.count("refresh_failures")
        return states

    def _check_replica(self, replica: ServingReplica) -> None:
        self.telemetry.count("health_checks")
        if replica.engine.crashed:
            self._evict(replica, "crash")
            return
        # Incremental audit-chain verification: only the suffix since the
        # last sweep's mark. The next mark is where that verified suffix
        # ended, never a fresh read of a log the worker keeps appending to.
        mark = replica.engine.audit.verify_from(*replica.audit_mark)
        if mark is None:
            self._evict(replica, "audit-chain-break")
            return
        replica.audit_mark = mark
        try:
            replica.index.verify_checksums()
        except IndexIntegrityError:
            self._evict(replica, "index-integrity")

    def _maybe_revive(self, replica: ServingReplica) -> None:
        now = self._clock()
        if now - replica.last_revive_attempt < self.config.breaker_reset_s:
            return
        replica.last_revive_attempt = now
        with replica.lock:
            if replica.state != "evicted":
                return
            replica.state = "reviving"
        try:
            self._revive(replica)
        except Exception as exc:  # noqa: BLE001 — revival is best-effort
            self.telemetry.count("revive_failures")
            self._audit_event("revive-failed", replica=replica.name,
                              error=type(exc).__name__)
            with replica.lock:
                replica.state = "evicted"

    def _revive(self, replica: ServingReplica) -> None:
        """Rebuild one evicted replica from the sealed truth on disk.

        Fail-closed at every step: re-open the store with digest
        verification (catches torn manifests and corrupted segments),
        re-run the promotion walk (the PR 8 ``serving_verifier``),
        rebuild the index fresh, and answer a probe query before the
        replica takes traffic again."""
        with self._span("replica-revive", "internal", replica=replica.name):
            fresh_store = LinkageStore.open(self.store.path, verify=True)
            if self.promotion_verifier is not None:
                self.promotion_verifier(self.promotion)
            engine = self._new_engine(fresh_store)
            engine.index.build()
            engine.start()
            try:
                probe, probe_label = fresh_store.fingerprints_at([0])
                engine.query(probe[0], int(probe_label[0]), k=1,
                             timeout=_PROBE_TIMEOUT_S)
            except Exception:
                engine.stop(drain=False,
                            drain_timeout=self.config.stop_timeout_s)
                raise
            # Accounted for before it is published: whoever reads
            # ``state == "healthy"`` also finds the counter and the event.
            self.telemetry.count("revivals")
            self._audit_event("replica-revived", replica=replica.name)
            with replica.lock:
                replica.index = engine.index
                replica.engine = engine
                replica.breaker.reset()
                replica.audit_mark = (len(engine.audit), engine.audit.head)
                replica.state = "healthy"
                replica.evicted_reason = None
            replica.index.start_compaction()
