"""The batched, cached, audited query engine.

This is the traffic-facing layer: callers submit a **label block** — the
(n, d) fingerprints of n queries for one (label, k), a single query
being a block of one — and get one future back. Internally the engine

* **micro-batches** — worker threads drain the bounded request queue and
  coalesce concurrent same-(label, k) blocks into one vectorized
  distance computation against the sharded index;
* **caches** — an LRU keyed by (fingerprint digest, label, k) absorbs
  repeated queries (the same viral misprediction queried by thousands of
  users) without touching the index at all;
* **applies backpressure** — the request queue is bounded; when it is
  full, :meth:`ServingEngine.submit` raises the typed
  :class:`~repro.errors.QueryRejected` *at submission time* rather than
  silently dropping work (fail-closed, like the audited control plane
  exemplar this subsystem follows);
* **audits itself** — every answered label block appends one
  hash-chained ``serving-query`` event to an
  :class:`~repro.core.audit.AuditLog` (one per snapshot its answers cite),
  committing each answer — cache hit or miss — by its query digest and
  its binary :func:`answer_digest`, and recording how it was served.
  Forensic queries are thereby themselves accountable: a verifier can
  replay the chain and detect any retroactively altered answer.
"""

from __future__ import annotations

import hashlib
import struct
import threading
import time
from collections import OrderedDict
from concurrent.futures import Future
from concurrent.futures import TimeoutError as FuturesTimeoutError
from concurrent.futures import wait as futures_wait
from dataclasses import dataclass, field
from queue import Empty, Full, Queue
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.audit import AuditLog
from repro.errors import (ConfigurationError, QueryError, QueryRejected,
                          ServingError)
from repro.observability.adapter import SubsystemTelemetry
from repro.serving.index import IndexHit, ShardedAnnIndex
from repro.utils.serialization import row_digests

__all__ = ["EngineConfig", "EngineAnswer", "ServingEngine", "answer_digest"]

#: Names the byte layout :func:`answer_digest` hashes; every
#: ``serving-query`` event carries it so a verifier knows what to recompute.
ANSWER_FORMAT = "sha256(u64 n|i64 indices|f64 distances, le)"


def answer_digest(hits) -> str:
    """Hex SHA-256 committing to one answer's hits, in rank order, over the
    8 + 16n little-endian, unpadded bytes (``n = len(hits)``)::

        uint64 n | int64 index × n | float64 distance × n

    Distances are the exact float64 values served, so anyone holding the
    answer recomputes the digest."""
    n = len(hits)
    return hashlib.sha256(struct.pack(
        f"<Q{n}q{n}d", n, *[hit.index for hit in hits],
        *[hit.distance for hit in hits])).hexdigest()


def answer_digests(ids: np.ndarray, distances: np.ndarray) -> List[str]:
    """:func:`answer_digest` of every row of a searched block, from its
    ``(q, n)`` ids and float64 distances: one ``(q, 8 + 16n)``
    little-endian byte matrix, then one SHA-256 per row."""
    q, n = ids.shape
    packed = np.empty((q, 8 + 16 * n), dtype=np.uint8)
    packed[:, :8] = np.frombuffer(struct.pack("<Q", n), dtype=np.uint8)
    packed[:, 8:8 + 8 * n] = ids.astype("<i8").view(np.uint8)
    packed[:, 8 + 8 * n:] = distances.astype("<f8").view(np.uint8)
    return [hashlib.sha256(row).hexdigest() for row in packed]


class EngineAnswer(tuple):
    """An answered query: a tuple of hits plus answer provenance.

    Behaves exactly like the legacy ``Tuple[IndexHit, ...]`` (equality,
    length, iteration, indexing) while carrying three attributes the
    cluster's per-answer verification checks end-to-end:

    * ``snapshot`` — index-snapshot hex digest of the generation that
      answered (which committed store prefix the answer saw);
    * ``label_rows`` — rows the label held in that snapshot, making a
      short answer (``label_rows < requested_k``) explicit instead of
      indistinguishable from a truncated one;
    * ``requested_k`` — the caller's ``k``.
    """

    def __new__(cls, hits, snapshot: Optional[str] = None,
                label_rows: Optional[int] = None,
                requested_k: Optional[int] = None) -> "EngineAnswer":
        self = super().__new__(cls, hits)
        self.snapshot = snapshot
        self.label_rows = label_rows
        self.requested_k = requested_k
        return self


@dataclass(frozen=True)
class EngineConfig:
    """Tuning knobs for the serving engine."""

    workers: int = 2            # worker threads draining the queue
    max_batch: int = 64         # queries per drained batch; blocks stay whole
    queue_depth: int = 256      # queued submissions = the backpressure limit
    cache_size: int = 4096      # LRU entries; 0 disables the cache
    poll_interval: float = 0.02  # worker wait for the first queue item
    drain_timeout: Optional[float] = None  # stop(drain=True) bound; None = wait

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ConfigurationError("workers must be >= 1")
        if self.max_batch < 1:
            raise ConfigurationError("max_batch must be >= 1")
        if self.queue_depth < 1:
            raise ConfigurationError("queue_depth must be >= 1")
        if self.cache_size < 0:
            raise ConfigurationError("cache_size must be >= 0")
        if self.drain_timeout is not None and self.drain_timeout <= 0:
            raise ConfigurationError("drain_timeout must be positive or None")


class _LruCache:
    """A small thread-safe LRU for query results."""

    def __init__(self, capacity: int) -> None:
        self.capacity = capacity
        self._lock = threading.Lock()
        self._entries: "OrderedDict[tuple, tuple]" = OrderedDict()

    def get(self, key: tuple) -> Optional[tuple]:
        if self.capacity == 0:
            return None
        with self._lock:
            value = self._entries.get(key)
            if value is not None:
                self._entries.move_to_end(key)
            return value

    def put(self, key: tuple, value: tuple) -> None:
        if self.capacity == 0:
            return
        with self._lock:
            self._entries[key] = value
            self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)


@dataclass
class _Pending:
    """One submitted label block: ``answers`` holds its cache hits, and
    ``None`` for every query a worker still has to search."""

    keys: List[tuple]
    fingerprints: np.ndarray  # (n, d)
    label: int
    k: int
    answers: List[Optional[EngineAnswer]]
    single: bool  # submitted as one 1-D query: resolve to its answer
    future: Future
    enqueued_at: float = field(default_factory=time.perf_counter)

    def resolve(self) -> None:
        # A bounded-drain stop may have failed this future while the worker
        # was wedged; a late completion must not raise InvalidStateError.
        if not self.future.done():
            self.future.set_result(
                self.answers[0] if self.single else self.answers)


def label_blocks(fingerprints: np.ndarray, labels: Sequence[int]
                 ) -> Tuple[np.ndarray, Dict[int, List[int]]]:
    """A mixed batch as ``(n, d)`` float32 plus its positions grouped by
    label, in first-appearance order — one block per label."""
    fingerprints = np.asarray(fingerprints, dtype=np.float32)
    n = fingerprints.shape[0]
    if len(labels) != n:
        raise ServingError(f"{n} fingerprints but {len(labels)} labels")
    blocks: Dict[int, List[int]] = {}
    for position, label in enumerate(labels):
        blocks.setdefault(int(label), []).append(position)
    return fingerprints.reshape(n, -1), blocks


class ServingEngine:
    """Micro-batching, caching, audited front end over a sharded index.

    Use as a context manager (``with ServingEngine(index) as engine:``) or
    call :meth:`start` / :meth:`stop` explicitly. Results are tuples of
    :class:`~repro.serving.index.IndexHit`; resolve them to full Omega
    tuples through the store when building a forensics report.
    """

    def __init__(self, index: ShardedAnnIndex,
                 config: Optional[EngineConfig] = None,
                 audit: Optional[AuditLog] = None,
                 telemetry: Optional[SubsystemTelemetry] = None,
                 promotion=None, promotion_verifier=None) -> None:
        self.index = index
        self.config = config or EngineConfig()
        self.audit = audit if audit is not None else AuditLog()
        self.telemetry = telemetry if telemetry is not None else (
            SubsystemTelemetry("serving"))
        #: Optional :class:`~repro.governance.gate.PromotionRecord` this
        #: engine serves under; its ``run_key`` is stamped into every
        #: query audit event so answers are attributable to one run.
        self.promotion = promotion
        #: Optional guard (:meth:`PromotionGate.serving_verifier`) run at
        #: :meth:`start`. When set, the engine refuses to accept traffic
        #: — typed :class:`~repro.errors.PromotionError` — unless the
        #: promotion record verifies against the current artifacts.
        self.promotion_verifier = promotion_verifier
        self._audit_lock = threading.Lock()
        self._cache = _LruCache(self.config.cache_size)
        self._queue: "Queue[_Pending]" = Queue(maxsize=self.config.queue_depth)
        self._threads: List[threading.Thread] = []
        self._stopping = threading.Event()
        self._started = False
        self._crashed = False
        # Batches currently being answered, per worker thread — so a
        # bounded-drain stop can fail their futures instead of leaving
        # callers blocked on work a wedged worker will never finish.
        self._in_flight_lock = threading.Lock()
        self._in_flight: Dict[int, List[_Pending]] = {}

    # -- lifecycle ---------------------------------------------------------------

    def start(self) -> "ServingEngine":
        """Start (or restart) the worker pool.

        A stopped engine may be restarted; its snapshot-keyed cache
        carries over safely because every cache key embeds the per-label
        content digest, so entries cached before a stop can never answer for
        a label that has since gained rows — they simply never match
        again (see :meth:`_keys`).
        """
        if self._started:
            raise ServingError("engine already started")
        if self.promotion_verifier is not None:
            # Fail-closed model load: no worker thread starts unless the
            # promoted lineage verifies right now (raises PromotionError).
            self.promotion_verifier(self.promotion)
        self._stopping.clear()
        self._crashed = False
        self._threads = [
            threading.Thread(target=self._worker_loop,
                             name=f"serving-worker-{i}", daemon=True)
            for i in range(self.config.workers)
        ]
        for thread in self._threads:
            thread.start()
        self._started = True
        return self

    def _drain_join(self, timeout: Optional[float]) -> bool:
        """``queue.join()`` with a deadline; True if the queue drained."""
        if timeout is None:
            self._queue.join()
            return True
        deadline = time.perf_counter() + timeout
        with self._queue.all_tasks_done:
            while self._queue.unfinished_tasks:
                remaining = deadline - time.perf_counter()
                if remaining <= 0:
                    return False
                self._queue.all_tasks_done.wait(remaining)
        return True

    def _fail(self, pending: _Pending, counter: str, exc: Exception) -> None:
        """Fail one block's waiter, counting every query in it, once."""
        if not pending.future.done():
            self.telemetry.count(counter, len(pending.keys))
            pending.future.set_exception(exc)

    def _fail_abandoned(self, message: str) -> None:
        """Resolve queued + in-flight futures so no caller blocks forever."""
        while True:
            try:
                pending = self._queue.get_nowait()
            except Empty:
                break
            self._fail(pending, "abandoned", ServingError(message))
            self._queue.task_done()
        with self._in_flight_lock:
            stuck = [p for batch in self._in_flight.values() for p in batch]
        for pending in stuck:
            self._fail(pending, "abandoned", ServingError(message))

    def stop(self, drain: bool = True,
             drain_timeout: Optional[float] = None) -> None:
        """Stop the workers; with ``drain`` (default) answer queued work first.

        The drain wait is bounded by ``drain_timeout`` (or the config's
        ``drain_timeout`` when unset): a wedged worker can no longer
        hang shutdown forever. On a drain deadline the engine still
        shuts down — queued *and* in-flight futures are resolved with a
        typed :class:`ServingError` — and then raises ``ServingError``
        so the operator knows work was abandoned.

        Without ``drain``, requests still sitting in the queue are not
        dropped silently: their futures fail with :class:`ServingError`
        so no caller blocks forever on an abandoned query.
        """
        if not self._started:
            return
        timeout = (drain_timeout if drain_timeout is not None
                   else self.config.drain_timeout)
        drained = self._drain_join(timeout) if drain else True
        self._stopping.set()
        join_deadline = (None if timeout is None
                         else time.perf_counter() + timeout)
        for thread in self._threads:
            if join_deadline is None:
                thread.join()
            else:
                thread.join(max(0.0, join_deadline - time.perf_counter()))
        # Wedged threads are daemons: they cannot block interpreter exit,
        # and every future they still hold is failed below (resolution is
        # guarded, so a late un-wedge cannot double-resolve).
        self._threads = []
        self._started = False
        self._fail_abandoned("engine stopped before serving this query")
        if drain and not drained:
            raise ServingError(
                f"drain timed out after {timeout:.3f}s with work pending; "
                "abandoned queries failed with ServingError"
            )

    @property
    def crashed(self) -> bool:
        """True from :meth:`kill` until the next :meth:`start`."""
        return self._crashed

    def kill(self) -> None:
        """Abrupt replica death — the thing a router must detect.

        Like a real process death: new submissions fail fast (connection
        refused), while work already queued or in flight is simply lost
        — callers discover it through their own deadlines, which is
        exactly what the cluster router's hedging exists for. A later
        :meth:`stop` (the cluster does this on eviction) resolves the
        lost futures with a typed error.
        """
        self._crashed = True
        self._stopping.set()

    def __enter__(self) -> "ServingEngine":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # -- growth ------------------------------------------------------------------

    def refresh(self) -> bool:
        """Adopt newly committed store segments into the serving index.

        Delegates to :meth:`ShardedAnnIndex.refresh` — incremental, no
        full rebuild — and records the generation adoption in the same
        hash-chained audit log as the queries it will affect, so the
        chain shows exactly when answers started covering the new rows.
        In-flight queries are untouched (they pinned the old
        generation); returns ``True`` when a new generation was adopted.
        """
        before = self.index.snapshot_digest
        started = time.perf_counter()
        changed = self.index.refresh()
        self.telemetry.observe("refresh", time.perf_counter() - started)
        if changed:
            self.telemetry.count("refreshes")
            with self._audit_lock:
                self.audit.append(
                    "index-refresh",
                    snapshot_before=before,
                    snapshot_after=self.index.snapshot_digest,
                    built_version=self.index.built_version,
                )
        return changed

    # -- submission --------------------------------------------------------------

    def _keys(self, block: np.ndarray, label: int, k: int) -> List[tuple]:
        # Keyed by the *per-label* content digest: growth in other labels
        # leaves these entries warm, while a label that actually gains
        # rows gets a new digest, so its old entries simply never match.
        scope = self.index.label_digest(label)
        return [(digest, int(label), int(k), scope)
                for digest in row_digests(block)]

    def _cached(self, key: tuple) -> Optional[Tuple[IndexHit, ...]]:
        """The cached answer for ``key``, citing the live snapshot.

        Cached answers cite the snapshot of the generation that filled
        them, but the index keeps only a bounded generation history —
        after enough refresh/compaction adoptions a hot entry would cite
        a pruned snapshot and fail the cluster's per-answer provenance
        check, evicting a healthy replica for a correct answer. The cache
        key already embeds the per-label content scope, so a hit proves
        the label's row set is unchanged in the live generation: the live
        snapshot is an equally true citation. Returns ``None`` (a miss)
        also when an adoption raced in and moved the label's scope
        between key computation and now."""
        cached = self._cache.get(key)
        live = self.index.snapshot_digest
        if cached is None or cached.snapshot == live:
            return cached
        if self.index.label_digest(key[1]) != key[3]:
            return None
        answer = EngineAnswer(tuple(cached), snapshot=live,
                              label_rows=cached.label_rows,
                              requested_k=cached.requested_k)
        self._cache.put(key, answer)
        return answer

    def _audit_answers(self, served_by: str, answered) -> None:
        """Chain one block's ``(key, hits, answer digest)`` answers, in
        block order, as one ``serving-query`` event per snapshot they cite
        (normally one)."""
        events: Dict[Tuple[Optional[str], Optional[int]], dict] = {}
        for key, hits, digest in answered:
            details = events.get((hits.snapshot, hits.label_rows))
            if details is None:
                # Which data generation answered — the audit chain commits
                # to the exact index snapshot, so a verifier can replay the
                # answers against that committed store prefix.
                details = events[hits.snapshot, hits.label_rows] = dict(
                    label=key[1], k=key[2], served_by=served_by,
                    index_snapshot=hits.snapshot, label_rows=hits.label_rows,
                    answer_format=ANSWER_FORMAT, query_digests=[],
                    results=[], num_results=[])
                if self.promotion is not None:
                    # Promoted deployments stamp the run identity into every
                    # event: the audit chain proves which run served it.
                    details["run_key"] = self.promotion.run_key
            details["query_digests"].append(key[0].hex())
            details["results"].append(digest)
            details["num_results"].append(len(hits))
        with self._audit_lock:
            for details in events.values():
                self.audit.append("serving-query", **details)

    def submit(self, fingerprints: np.ndarray, label: int,
               k: int = 9) -> Future:
        """Enqueue one label block; returns the future of its answers.

        A 2-D ``(n, d)`` array is n queries for ``label`` and resolves to
        the list of their hit tuples, in order; anything else is one query
        — a block of one — and resolves to its hit tuple. Cache hits are
        answered here. Raises :class:`QueryRejected` immediately if the
        engine is overloaded — counted, never silently dropped.
        """
        if self._crashed:
            # Crashed replicas refuse instantly — the router's analogue of
            # ECONNREFUSED — so callers fail over instead of queueing work
            # no worker will ever drain.
            raise ServingError("engine crashed — replica is down")
        if not self._started:
            raise ServingError("engine is not running — call start()")
        block = np.asarray(fingerprints, dtype=np.float32)
        single = block.ndim != 2
        block = np.ascontiguousarray(block.reshape(1, -1) if single else block)
        dimension = self.index.dimension
        if dimension is not None and block.shape[1] != dimension:
            raise QueryError(
                f"fingerprint dimension {block.shape[1]} does not "
                f"match index dimension {dimension}"
            )
        keys = self._keys(block, label, k)
        answers = [self._cached(key) for key in keys]
        misses = answers.count(None)
        self.telemetry.count("queries", len(keys))
        if misses < len(keys):
            self.telemetry.count("cache_hits", len(keys) - misses)
        pending = _Pending(keys=keys, fingerprints=block, label=int(label),
                           k=int(k), answers=answers, single=single,
                           future=Future())
        if misses:
            self.telemetry.count("cache_misses", misses)
            try:
                self._queue.put_nowait(pending)
            except Full:
                self.telemetry.count("rejected", len(keys))
                raise QueryRejected(
                    f"serving queue full ({self.config.queue_depth} pending); "
                    f"retry after {self._retry_after():.3f}s",
                    retry_after_s=self._retry_after(),
                ) from None
        # Audited only once the block is accepted: a rejected block was
        # not answered, cache hits included.
        self._audit_answers("cache", [(key, answer, answer_digest(answer))
                                      for key, answer in zip(keys, answers)
                                      if answer is not None])
        if not misses:
            pending.resolve()
        return pending.future

    def _retry_after(self) -> float:
        # How long until the backlog plausibly clears: full queue drained
        # by `workers` threads that each pick up a batch per poll tick.
        # Clamped below by one poll interval — retrying sooner than the
        # workers can even wake up is guaranteed to bounce again.
        depth = self._queue.qsize()
        drain_rate = self.config.workers * self.config.max_batch
        ticks = max(1.0, depth / max(1, drain_rate))
        return max(self.config.poll_interval,
                   ticks * self.config.poll_interval)

    def query(self, fingerprint: np.ndarray, label: int,
              k: int = 9, timeout: Optional[float] = None
              ) -> Tuple[IndexHit, ...]:
        """Blocking single query."""
        return self.submit(np.ravel(fingerprint), label,
                           k).result(timeout=timeout)

    def query_many(self, fingerprints: np.ndarray, labels: Sequence[int],
                   k: int = 9, timeout: Optional[float] = None
                   ) -> List[Tuple[IndexHit, ...]]:
        """Submit a batch, one block per label; results in batch order.

        ``timeout`` is one overall deadline for the whole batch, not a
        per-block allowance.
        """
        fingerprints, blocks = label_blocks(fingerprints, labels)
        futures = {self.submit(fingerprints[rows], label, k): rows
                   for label, rows in blocks.items()}
        _, late = futures_wait(futures, timeout=timeout)
        if late:
            raise FuturesTimeoutError(
                f"query_many deadline of {timeout}s expired with "
                f"{sum(len(futures[f]) for f in late)} queries unanswered"
            )
        results = [None] * len(fingerprints)
        for future, rows in futures.items():
            for row, answer in zip(rows, future.result()):
                results[row] = answer
        return results

    # -- the worker side ---------------------------------------------------------

    def _drain_batch(self) -> List[_Pending]:
        try:
            first = self._queue.get(timeout=self.config.poll_interval)
        except Empty:
            return []
        started = time.perf_counter()
        batch = [first]
        queries = len(first.keys)
        while queries < self.config.max_batch:
            try:
                batch.append(self._queue.get_nowait())
            except Empty:
                break
            queries += len(batch[-1].keys)
        # Coalescing time only — the blocking wait for the first request is
        # idle time, not assembly work.
        self.telemetry.observe("assemble", time.perf_counter() - started)
        return batch

    def _worker_loop(self) -> None:
        # Fail-closed worker: whatever happens while answering a batch, every
        # future is resolved and task_done() runs, so one malformed query can
        # neither kill the worker nor wedge stop(drain=True) on queue.join().
        ident = threading.get_ident()
        while not self._stopping.is_set():
            batch = self._drain_batch()
            if not batch:
                continue
            with self._in_flight_lock:
                self._in_flight[ident] = batch
            try:
                self.telemetry.count("batches")
                self.telemetry.count("batched_queries", sum(
                    pending.answers.count(None) for pending in batch))
                self.telemetry.observe("queue_occupancy", self._queue.qsize())
                groups: Dict[Tuple[int, int], List[_Pending]] = {}
                for pending in batch:
                    groups.setdefault((pending.label, pending.k),
                                      []).append(pending)
                for (label, k), members in groups.items():
                    self._answer_group(label, k, members)
            except Exception as exc:
                for pending in batch:
                    self._fail(pending, "errors", exc)
            finally:
                with self._in_flight_lock:
                    self._in_flight.pop(ident, None)
                for _ in batch:
                    self._queue.task_done()

    def _answer_group(self, label: int, k: int,
                      members: List[_Pending]) -> None:
        """Search the cache misses of same-(label, k) blocks together."""
        started = time.perf_counter()
        misses = [[i for i, answer in enumerate(member.answers)
                   if answer is None] for member in members]
        try:
            matrix = np.concatenate([member.fingerprints[rows]
                                     for member, rows in zip(members, misses)])
            result = self.index.search_batch(matrix, label, k)
        except Exception as exc:  # typed errors propagate to each caller
            for member in members:
                self._fail(member, "errors", exc)
            return
        now = time.perf_counter()
        self.telemetry.observe("search", now - started)
        self.telemetry.count("candidates_scanned", result.candidates_scanned)
        self.telemetry.count("brute_equivalent_rows",
                             result.shard_rows * matrix.shape[0])
        found = zip(result.hits,
                    answer_digests(result.ids, result.distances))
        for member, rows in zip(members, misses):
            answered = []
            for i, (hits, digest) in zip(rows, found):
                member.answers[i] = EngineAnswer(
                    hits, snapshot=result.snapshot,
                    label_rows=result.shard_rows, requested_k=member.k)
                self._cache.put(member.keys[i], member.answers[i])
                answered.append((member.keys[i], member.answers[i], digest))
            self._audit_answers("index", answered)
            self.telemetry.observe_many(
                "total", [now - member.enqueued_at] * len(rows))
            member.resolve()

    # -- verification ------------------------------------------------------------

    def verify_audit_chain(self) -> bool:
        """Validate the hash chain over every served query so far."""
        with self._audit_lock:
            return self.audit.verify_chain()
