"""Deterministic fault injection — applied from outside, on all planes.

This module is the only place in ``src/`` that knows how a fault is
*applied*. The victim does not cooperate: no production class carries an
injection hook, fault flag or tap, and none of them imports this module.

A :class:`FaultPlan` is a seeded, reproducible schedule of failures the
training planes must survive:

* ``enclave-abort`` — the training enclave is destroyed out from under
  the host process (machine reboot, enclave-killing microcode update,
  AEX storm) at an exact (epoch, batch);
* ``epc-pressure`` — EPC paging escalates into an enclave-fatal
  thrashing storm (models sustained memory pressure on the platform);
* ``ir-corrupt`` / ``delta-corrupt`` — one boundary tensor is flipped in
  the untrusted marshalling buffer, which the receiving side's CRC check
  in :class:`~repro.core.partition.PartitionedNetwork` must catch;
* ``checkpoint-crash`` — the process dies mid-checkpoint-write, leaving
  a torn directory that recovery must skip;
* ``worker-crash`` / ``worker-straggle`` / ``worker-corrupt`` — one
  named :class:`~repro.distributed.worker.EnclaveWorker` loses its
  enclave at a batch of a round (a round is an epoch), has its round
  stretched by ``factor``, or has one byte of its masked upload flipped
  in the coordinator's relay.

``with plan:`` arms it: for the life of the block, class-level wrappers
sit on the calls in :attr:`FaultPlan.TARGETS` (the way ``bench/layers.py``
installs its spans), and every original is restored on exit. Every fault
fires exactly once at its scheduled point, so the same plan replayed
against the same seed produces the same failure trace — the property the
crash/resume parity tests build on.

The serving plane gets the same treatment: a :class:`ServingFaultPlan`
schedules :class:`ServingFaultSpec` injections (replica crash/hang,
latency, index/store byte corruption, torn manifests, growth storms,
compaction crashes) keyed by query ordinal instead of (epoch, batch) —
so the availability benchmark, the test suite, and the CLI
``serve-cluster --inject`` drill all replay the exact same fault storm.
Each kind in :data:`SERVING_FAULT_KINDS` has one applier in
:data:`SERVING_FAULT_APPLIERS` that acts on a running cluster from
outside, through what the production classes expose anyway — the
replica list, ``engine.kill()`` (process death), the replica's own
index object, the store's directory and ``store.append``. What an
applier blocks (a wedged search) the plan that fired it releases:
:meth:`ServingFaultPlan.release`, or use the plan as a context manager
inside the cluster's ``with`` block.
"""

from __future__ import annotations

import functools
import sys
import threading
import time
from dataclasses import dataclass
from typing import Callable, Dict, Hashable, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.partition import PartitionedNetwork
from repro.core.partitioned_training import ConfidentialTrainer
from repro.distributed.coordinator import DistributedCoordinator
from repro.distributed.worker import EnclaveWorker
from repro.errors import (CheckpointWriteCrash, CompactionCrash,
                          ConfigurationError, EnclaveAbort, EpcPressureError)
from repro.resilience import checkpoint as _checkpoint
from repro.utils.logging import get_logger
from repro.utils.serialization import canonical_digest

__all__ = ["FAULT_KINDS", "FaultSpec", "FaultPlan",
           "SERVING_FAULT_KINDS", "SERVING_FAULT_APPLIERS",
           "ServingFaultSpec", "ServingFaultPlan"]

_LOG = get_logger("resilience.faults")

_ENCLAVE_KINDS = (
    "enclave-abort",
    "epc-pressure",
    "ir-corrupt",
    "delta-corrupt",
    "checkpoint-crash",
)
_WORKER_KINDS = ("worker-crash", "worker-straggle", "worker-corrupt")
FAULT_KINDS = _ENCLAVE_KINDS + _WORKER_KINDS
#: Kinds that raise at their firing point; two at one point cannot both.
_RAISING_KINDS = ("enclave-abort", "epc-pressure", "worker-crash")


@dataclass(frozen=True)
class FaultSpec:
    """One scheduled fault: fire ``kind`` at batch ``batch`` of ``epoch``.

    The ``worker-*`` kinds name their victim in ``worker`` and read
    ``epoch`` as the round; ``factor`` sizes a ``worker-straggle``.
    """

    kind: str
    epoch: int
    batch: int = 0
    worker: Optional[str] = None
    factor: float = 4.0

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ConfigurationError(
                f"unknown fault kind {self.kind!r}; pick one of {FAULT_KINDS}"
            )
        if self.epoch < 0 or self.batch < 0:
            raise ConfigurationError("fault epoch/batch must be >= 0")
        if (self.kind in _WORKER_KINDS) != (self.worker is not None):
            raise ConfigurationError(
                f"{self.kind} {'needs' if self.worker is None else 'takes no'}"
                " worker"
            )

    @property
    def point(self) -> tuple:
        return _point(self.epoch, self.batch, self.worker)


def _point(epoch: int, batch: int, worker: Optional[str]) -> tuple:
    """Where a fault fires: ``(epoch, batch)``, plus the worker if any."""
    return (epoch, batch) if worker is None else (epoch, batch, worker)


class _OneShotSchedule:
    """Specs keyed by firing point (``spec.point``); each fires once.

    The part a training :class:`FaultPlan` and a
    :class:`ServingFaultPlan` share: what is still pending, what has
    fired, and how a seeded plan picks distinct firing points.
    """

    def __init__(self, faults: Sequence = ()) -> None:
        self._pending: Dict[Hashable, list] = {}
        for spec in faults:
            self._pending.setdefault(spec.point, []).append(spec)
        self.fired: list = []

    @property
    def remaining(self) -> int:
        return sum(len(specs) for specs in self._pending.values())

    def scheduled(self) -> list:
        """Every not-yet-fired spec, ordered by firing point."""
        return [spec for point in sorted(self._pending)
                for spec in self._pending[point]]

    def _due(self, point: Hashable) -> list:
        """Take the specs scheduled at ``point`` off the schedule."""
        return self._pending.pop(point, [])

    @staticmethod
    def _draw_distinct(n_faults: int, draw: Callable[[], object]) -> list:
        """``n_faults`` draws whose firing points are pairwise distinct."""
        seen: set = set()
        faults: list = []
        while len(faults) < n_faults:
            spec = draw()
            if spec.point not in seen:
                seen.add(spec.point)
                faults.append(spec)
        return faults


class FaultPlan(_OneShotSchedule):
    """A deterministic schedule of :class:`FaultSpec` injections.

    Arm it around the run it should disturb::

        with plan:
            system.train(checkpoint_dir=...)

    Inside the block every batch start, boundary crossing, checkpoint
    manifest write, worker round and worker upload passes through the
    wrappers in :attr:`TARGETS`; outside it nothing is patched.
    """

    def __init__(self, faults: Sequence[FaultSpec] = ()) -> None:
        super().__init__(faults)
        for point, specs in self._pending.items():
            if sum(spec.kind in _RAISING_KINDS for spec in specs) > 1:
                raise ConfigurationError(
                    f"two raising faults scheduled at {point}; only one "
                    "could fire"
                )
        self._originals: list = []
        self._armed_corruption: Optional[str] = None
        self._armed_checkpoint_crash = False
        self._armed_straggle: Optional[float] = None
        self._armed_uploads: set = set()
        #: The worker whose round is running (``None`` outside one).
        self._worker: Optional[str] = None

    @classmethod
    def seeded(cls, seed: int, epochs: int, batches_per_epoch: int,
               n_faults: int = 3,
               kinds: Sequence[str] = _ENCLAVE_KINDS) -> "FaultPlan":
        """A reproducible random schedule (same seed, same faults)."""
        if epochs <= 0 or batches_per_epoch <= 0:
            raise ConfigurationError("seeded plan needs positive dimensions")
        for kind in kinds:
            if kind not in _ENCLAVE_KINDS:
                raise ConfigurationError(f"unknown fault kind {kind!r}")
        rng = np.random.default_rng(seed)
        return cls(cls._draw_distinct(n_faults, lambda: FaultSpec(
            kind=str(rng.choice(list(kinds))),
            epoch=int(rng.integers(0, epochs)),
            batch=int(rng.integers(0, batches_per_epoch)),
        )))

    # -- arming ------------------------------------------------------------------

    def __enter__(self) -> "FaultPlan":
        if self._originals:
            raise ConfigurationError("fault plan is already armed")
        for owner, attribute, around in self.TARGETS:
            original = vars(owner)[attribute]
            self._originals.append((owner, attribute, original))
            setattr(owner, attribute,
                    functools.wraps(original)(around(self, original)))
        return self

    def __exit__(self, *exc_info) -> None:
        while self._originals:
            owner, attribute, original = self._originals.pop()
            setattr(owner, attribute, original)

    # -- the one firing instant: a batch is about to start -----------------------

    def _before_batch(self, trainer: ConfidentialTrainer, epoch: int,
                      batch: int) -> None:
        """Fire any faults scheduled at this (epoch, batch[, worker]).

        Abort-class faults raise immediately; the rest arm a wrapper
        further along: this batch's boundary transfers, the next
        checkpoint manifest write, this round's duration or upload.
        """
        raising: Optional[FaultSpec] = None
        for spec in self._due(_point(epoch, batch, self._worker)):
            _LOG.info("injecting fault %s at epoch %d batch %d",
                      spec.kind, epoch, batch)
            self.fired.append(spec)
            if spec.kind in ("ir-corrupt", "delta-corrupt"):
                self._armed_corruption = spec.kind.split("-", 1)[0]
            elif spec.kind == "checkpoint-crash":
                self._armed_checkpoint_crash = True
            elif spec.kind == "worker-straggle":
                self._armed_straggle = spec.factor
            elif spec.kind == "worker-corrupt":
                self._armed_uploads.add(spec.worker)
            else:
                raising = spec
        if raising is None:
            return
        if raising.kind == "epc-pressure":
            raise EpcPressureError(
                f"injected EPC thrashing storm at epoch {epoch} batch {batch}"
            )
        # The enclave really is gone: secrets unreachable, every
        # subsequent ECALL fails until a rebuild + re-attest.
        trainer.partitioned.enclave.destroy()
        raise EnclaveAbort(
            f"injected enclave abort at epoch {epoch} batch {batch}"
        )

    # -- the wrappers ``with plan:`` installs ------------------------------------

    def _around_train_epoch(self, original):
        def train_epoch(trainer, *args, batch_callback=None, **kwargs):
            def callback(phase, epoch, batch, losses):
                if phase == "start":
                    self._before_batch(trainer, epoch, batch)
                if batch_callback is not None:
                    batch_callback(phase, epoch, batch, losses)

            return original(trainer, *args, batch_callback=callback, **kwargs)

        return train_epoch

    def _around_receive(self, original):
        def _receive(network, site, tensor, checksum):
            if self._armed_corruption == site:
                # Corrupt the copy "in flight"; the production CRC check
                # behind this wrapper is what has to notice.
                self._armed_corruption = None
                tensor = np.array(tensor, copy=True)
                flat = tensor.reshape(-1)
                flat[0] = flat[0] + 1.0 if np.isfinite(flat[0]) else 0.0
                _LOG.info("corrupting %s tensor in flight", site)
            return original(network, site, tensor, checksum)

        return _receive

    def _around_manifest_write(self, original):
        def atomic_write_text(path, text):
            # The manifest is the only text file a checkpoint writes, and
            # it goes last: dying here leaves the data files torn.
            if self._armed_checkpoint_crash:
                self._armed_checkpoint_crash = False
                raise CheckpointWriteCrash(
                    f"injected crash while writing checkpoint {path.parent}"
                )
            return original(path, text)

        return atomic_write_text

    def _around_run(self, original):
        def run(coordinator, rounds):
            known = {worker.worker_id for worker in coordinator.workers}
            for spec in self.scheduled():
                if spec.worker is not None and spec.worker not in known:
                    raise ConfigurationError(
                        f"no worker named {spec.worker!r}")
            return original(coordinator, rounds)

        return run

    def _around_run_round(self, original):
        def run_round(worker, round_index):
            self._worker = worker.worker_id
            self._armed_straggle = None
            self._armed_uploads.discard(worker.worker_id)
            try:
                loss, duration = original(worker, round_index)
            finally:
                self._worker = None
            if self._armed_straggle is not None:
                worker.platform.clock.advance(
                    duration * (self._armed_straggle - 1.0))
                duration *= self._armed_straggle
            return loss, duration

        return run_round

    def _around_upload_record(self, original):
        def upload_record(worker, masked):
            record = original(worker, masked)
            if worker.worker_id in self._armed_uploads:
                # One payload byte flipped in the coordinator's relay.
                self._armed_uploads.discard(worker.worker_id)
                flipped = bytearray(record)
                flipped[len(flipped) // 2] ^= 0x01
                record = bytes(flipped)
            return record

        return upload_record

    #: (owner, attribute, wrapper factory): everything ``with plan:``
    #: patches, and nothing else in ``src/`` is ever patched by a plan.
    TARGETS = (
        (ConfidentialTrainer, "train_epoch", _around_train_epoch),
        (PartitionedNetwork, "_receive", _around_receive),
        (_checkpoint, "atomic_write_text", _around_manifest_write),
        (DistributedCoordinator, "run", _around_run),
        (EnclaveWorker, "run_round", _around_run_round),
        (EnclaveWorker, "upload_record", _around_upload_record),
    )


# -- serving-side fault injection ------------------------------------------------

SERVING_FAULT_KINDS = (
    "replica-crash",    # abrupt process death: submits fail fast, work lost
    "replica-hang",     # searches wedge until the fault is released
    "latency-inject",   # fixed delay on every search (slow-host simulation)
    "index-corrupt",    # flip one row in a replica's private index matrix
    "store-corrupt",    # flip one byte in a shared store segment on disk
    "torn-manifest",    # truncate the store manifest mid-file
    "growth-storm",     # benign ingest burst: append records to the store
    "compaction-crash", # crash a replica's next segment merge mid-flight
)


@dataclass(frozen=True)
class ServingFaultSpec:
    """One scheduled serving fault, fired before query ``at_query``.

    ``replica`` targets a replica by name (``None`` = first healthy).
    ``delay_s`` is the injected latency for ``latency-inject``;
    ``label``/``row`` locate the corrupted index row (``row`` also
    selects the segment for ``store-corrupt``); ``value`` optionally
    pins the corrupted row to an exact vector — the availability bench
    uses this to plant an *attractor* row that surfaces in answers (so
    per-answer verification must catch it) instead of silently sinking.
    ``records`` sizes the ``growth-storm`` ingest burst (``None`` = 256;
    ``label`` optionally pins the burst to one label).
    """

    kind: str
    at_query: int
    replica: Optional[str] = None
    delay_s: float = 0.05
    label: Optional[int] = None
    row: Optional[int] = None
    value: Optional[Tuple[float, ...]] = None
    records: Optional[int] = None

    def __post_init__(self) -> None:
        if self.kind not in SERVING_FAULT_KINDS:
            raise ConfigurationError(
                f"unknown serving fault kind {self.kind!r}; "
                f"pick one of {SERVING_FAULT_KINDS}"
            )
        if self.at_query < 0:
            raise ConfigurationError("at_query must be >= 0")
        if self.delay_s < 0:
            raise ConfigurationError("delay_s must be >= 0")
        if self.records is not None and self.records <= 0:
            raise ConfigurationError("records must be >= 1 when given")

    @property
    def point(self) -> int:
        return self.at_query


# -- the appliers: one per kind, each acting on the cluster from outside --------
#
# ``applier(cluster, spec)`` returns None, or — when the fault keeps
# blocking or slowing the victim — the callable that lets the victim go.


def _target(cluster, name: Optional[str]):
    """The named replica, or the first healthy one."""
    if name is None:
        return next((r for r in cluster.replicas if r.healthy),
                    cluster.replicas[0])
    for replica in cluster.replicas:
        if replica.name == name:
            return replica
    raise ConfigurationError(f"no replica named {name!r}")


def _stall_searches(cluster, spec: ServingFaultSpec,
                    stall: Callable[[], object]) -> Callable[[], None]:
    """Run ``stall()`` ahead of every search one replica's index serves.

    The engine calls ``self.index.search_batch``, so shadowing the
    method on the instance reaches exactly that replica; a revived
    replica gets a fresh index and with it a clean bill of health."""
    index = _target(cluster, spec.replica).index
    search = index.search_batch

    def stalled(batch, label, k=9):
        stall()
        return search(batch, label, k)

    index.search_batch = stalled
    return lambda: vars(index).pop("search_batch", None)


def _crash_replica(cluster, spec: ServingFaultSpec):
    _target(cluster, spec.replica).engine.kill()


def _hang_replica(cluster, spec: ServingFaultSpec):
    gate = threading.Event()
    unwrap = _stall_searches(cluster, spec, gate.wait)

    def release() -> None:
        gate.set()
        unwrap()

    return release


def _slow_replica(cluster, spec: ServingFaultSpec):
    return _stall_searches(cluster, spec, lambda: time.sleep(spec.delay_s))


def _corrupt_index_row(cluster, spec: ServingFaultSpec):
    """Overwrite one row of the replica's private shard matrix in place —
    never the shared store."""
    label = int(spec.label or 0)
    generation = _target(cluster, spec.replica).index._generation
    matrix = next(segment.shards[label] for segment in generation.segments
                  if label in segment.shards).matrix
    row = (spec.row or 0) % matrix.shape[0]
    if spec.value is not None:
        matrix[row] = np.asarray(spec.value, dtype=np.float32)
    else:
        matrix[row] = matrix[row] + np.float32(1.0)


def _corrupt_store_segment(cluster, spec: ServingFaultSpec):
    """Flip one byte in a store segment file on disk (shared fault)."""
    infos = cluster.store.segments
    if not infos:
        raise ConfigurationError("store has no segments to corrupt")
    info = infos[(spec.row or 0) % len(infos)]
    path = cluster.store.path / f"{info.name}.npy"
    blob = bytearray(path.read_bytes())
    blob[len(blob) // 2] ^= 0xFF
    path.write_bytes(bytes(blob))


def _tear_manifest(cluster, spec: ServingFaultSpec):
    """Truncate the store manifest mid-file (torn-write simulation)."""
    path = cluster.store.path / "manifest.json"
    text = path.read_text()
    path.write_text(text[: max(1, len(text) // 2)])


def _growth_storm(cluster, spec: ServingFaultSpec):
    """Append a benign ingest burst to the shared store.

    The load half of the growth-under-load drill: every replica's pinned
    generation instantly becomes behind the store, and the cluster must
    keep answering from pinned snapshots while staggered refreshes catch
    up — zero evictions, zero client-facing ``StaleIndexError``."""
    store = cluster.store
    known = list(store.labels())
    if not known or store.dimension is None:
        raise ConfigurationError("growth storm needs a non-empty store")
    records = spec.records or 256
    version = store.version
    if spec.label is not None:
        targets = [int(spec.label)] * records
    else:
        targets = [known[i % len(known)] for i in range(records)]
    matrix = np.random.default_rng(version).standard_normal(
        (records, store.dimension)).astype(np.float32)
    digests = [canonical_digest({"growth-storm": [int(version), int(i)]})
               for i in range(records)]
    store.append(matrix, targets, [f"growth-storm-{version}"] * records,
                 digests)


def _crash_next_compaction(cluster, spec: ServingFaultSpec):
    """Kill the replica's next segment merge between build and adoption.

    One-shot, and only the merge: ``_compact_step`` adopts what it
    merged through ``self._adopt``, so shadowing that on the instance
    and failing the first call that comes from ``_compact_step`` leaves
    ``build`` / ``refresh`` adoptions (other callers, other threads)
    and every later merge alone."""
    index = _target(cluster, spec.replica).index
    adopt = index._adopt

    def crashing_adopt(segments, params):
        if sys._getframe(1).f_code.co_name != "_compact_step":
            return adopt(segments, params)
        del index._adopt
        raise CompactionCrash(
            "injected compaction crash: merged segment built but not "
            "adopted — the live generation must be unaffected")

    index._adopt = crashing_adopt


#: How each kind in :data:`SERVING_FAULT_KINDS` is applied.
SERVING_FAULT_APPLIERS: Dict[str, Callable] = {
    "replica-crash": _crash_replica,
    "replica-hang": _hang_replica,
    "latency-inject": _slow_replica,
    "index-corrupt": _corrupt_index_row,
    "store-corrupt": _corrupt_store_segment,
    "torn-manifest": _tear_manifest,
    "growth-storm": _growth_storm,
    "compaction-crash": _crash_next_compaction,
}


class ServingFaultPlan(_OneShotSchedule):
    """A deterministic schedule of :class:`ServingFaultSpec` injections.

    Drive it from whatever issues the queries: call
    :meth:`before_query` with the running query ordinal and the target
    cluster before each submission; faults scheduled at that ordinal
    fire exactly once through :data:`SERVING_FAULT_APPLIERS` and are
    recorded on :attr:`fired`. Wedges and delays stay in force until
    :meth:`release` (or the end of a ``with plan:`` block) — do that
    before ``cluster.stop()`` so no worker is left blocked.
    """

    def __init__(self, faults: Sequence[ServingFaultSpec] = ()) -> None:
        super().__init__(faults)
        self._releases: List[Callable[[], None]] = []

    @classmethod
    def seeded(cls, seed: int, queries: int, n_faults: int = 3,
               kinds: Sequence[str] = ("replica-crash", "replica-hang",
                                       "latency-inject", "index-corrupt"),
               ) -> "ServingFaultPlan":
        """A reproducible random schedule over ``queries`` ordinals.

        Defaults to the replica-scoped kinds; the shared-store faults
        (``store-corrupt`` / ``torn-manifest``) poison every replica at
        once and are opt-in for tests that assert fail-closed refusal.
        """
        if queries <= 0:
            raise ConfigurationError("seeded plan needs a positive horizon")
        for kind in kinds:
            if kind not in SERVING_FAULT_KINDS:
                raise ConfigurationError(
                    f"unknown serving fault kind {kind!r}")
        rng = np.random.default_rng(seed)
        return cls(cls._draw_distinct(n_faults, lambda: ServingFaultSpec(
            at_query=int(rng.integers(0, queries)),
            kind=str(rng.choice(list(kinds))),
            delay_s=float(rng.uniform(0.01, 0.08)),
        )))

    def before_query(self, ordinal: int, cluster) -> List[ServingFaultSpec]:
        """Fire every fault scheduled at this query ordinal."""
        specs = self._due(ordinal)
        for spec in specs:
            _LOG.info("injecting serving fault %s before query %d",
                      spec.kind, ordinal)
            release = SERVING_FAULT_APPLIERS[spec.kind](cluster, spec)
            if release is not None:
                self._releases.append(release)
            self.fired.append(spec)
        return specs

    def release(self) -> None:
        """Let go of everything fired faults still block or slow."""
        while self._releases:
            self._releases.pop()()

    def __enter__(self) -> "ServingFaultPlan":
        return self

    def __exit__(self, *exc_info) -> None:
        self.release()
