"""The untrusted coordinator: data-parallel rounds over enclave workers.

The coordinator is the scheduling brain and the *adversary model* rolled
into one: it shards the encrypted submissions, drives per-round local
epochs, relays opaque masked records between workers and the aggregator
enclave, enforces deadlines, and recovers crashed workers — while being
structurally unable to see a plaintext FrontNet update (masked uploads,
sealed checkpoints, attested channels) or to bias the aggregate without
detection (fail-closed typed errors instead of silent partial sums).

One round:

1. every active worker seals a round-boundary checkpoint;
2. a fresh secure-aggregation cohort forms (new DH keys each round) and
   every worker escrows Shamir shares of its round key with the cohort —
   each share sealed under the pairwise key with its holder, so the
   coordinator relays ciphertext only;
3. workers each train one local epoch on their shard;
4. workers whose epoch overran ``straggler_factor x`` the fastest
   completed epoch are excluded; crashed workers are excluded; both
   count as dropouts;
5. survivors upload shard-size-scaled, pairwise-masked FrontNet deltas
   over their attested channels; records that fail AEAD or the boundary
   checksum mark their worker faulted (never the coordinator);
6. the aggregator enclave unmasks the partial sum — reconstructing
   dropped workers' masks from the escrowed shares (revealed by the
   survivors as records sealed for their attested channels, opened only
   inside the aggregator) or failing closed — and normalises by the
   participating shard sizes;
7. crashed workers recover from their sealed checkpoints and replay
   their epoch (bitwise, excluded from the aggregate);
8. the agreed FrontNet update broadcasts over each attested channel; the
   BackNet update averages in plaintext (it is public by design); every
   replica applies both to its round-start snapshot — replicas stay
   bitwise identical, which is asserted every round;
9. repeat offenders (``blacklist_after`` consecutive bad rounds) are
   blacklisted and their shard is re-distributed to the survivors.

Wall-clock: workers train concurrently, so a round costs the *maximum*
participating duration (the deadline when stragglers were cut) plus the
aggregation time — the source of the N-worker throughput win.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.freezing import FreezeSchedule
from repro.crypto.aead import BULK_CIPHER
from repro.data.encryption import EncryptedDataset
from repro.distributed.aggregator import AggregatorEnclave
from repro.distributed.worker import EnclaveWorker
from repro.enclave.attestation import AttestationService
from repro.enclave.enclave import Enclave
from repro.enclave.memory import EPC_USABLE_BYTES
from repro.enclave.platform import SimClock
from repro.errors import (AggregationError, AuthenticationError,
                          ChannelIntegrityError, ConfigurationError,
                          EnclaveError, RoundAborted)
from repro.nn.network import Network
from repro.observability.adapter import SubsystemTelemetry
from repro.observability.tracing import Tracer
from repro.utils.logging import get_logger
from repro.utils.rng import RngStream

__all__ = ["RoundReport", "DistributedCoordinator"]

_LOG = get_logger("distributed.coordinator")

_NO_SPAN = nullcontext()


@dataclass
class RoundReport:
    """What one distributed round did, and what it cost."""

    round: int
    mean_loss: float
    participating: List[str]
    stragglers: List[str] = field(default_factory=list)
    faulted: List[str] = field(default_factory=list)
    corrupted: List[str] = field(default_factory=list)
    recovered: List[str] = field(default_factory=list)
    blacklisted: List[str] = field(default_factory=list)
    recovered_masks: int = 0
    frontnet_frozen: bool = False
    deadline_seconds: float = 0.0
    train_seconds: float = 0.0
    aggregation_seconds: float = 0.0
    round_seconds: float = 0.0
    clock_seconds: float = 0.0


class DistributedCoordinator:
    """Shards submissions across N enclave workers and drives rounds."""

    def __init__(self, *, num_workers: int,
                 network_factory: Callable[[np.random.Generator], Network],
                 network_config: str,
                 hyperparameters: Dict[str, float],
                 partition: int,
                 rng: RngStream,
                 attestation_service: AttestationService,
                 provisioner: Callable[[Enclave], None],
                 init_generator_factory: Callable[[], np.random.Generator],
                 checkpoint_root,
                 cipher: str = BULK_CIPHER,
                 augment: bool = False,
                 freeze_schedule: Optional[FreezeSchedule] = None,
                 straggler_factor: float = 2.5,
                 blacklist_after: int = 2,
                 config_digest: Optional[bytes] = None,
                 metrics=None,
                 tracer: Optional[Tracer] = None,
                 epc_bytes: int = EPC_USABLE_BYTES) -> None:
        if num_workers < 1:
            raise ConfigurationError("num_workers must be >= 1")
        if straggler_factor <= 1.0:
            raise ConfigurationError("straggler_factor must be > 1")
        if blacklist_after < 1:
            raise ConfigurationError("blacklist_after must be >= 1")
        self.rng = rng
        self.provisioner = provisioner
        self.straggler_factor = straggler_factor
        self.blacklist_after = blacklist_after
        self.tracer = tracer
        self.telemetry = SubsystemTelemetry("distributed", registry=metrics)
        #: The coordinator's own wall clock: rounds advance it by the
        #: slowest participating worker plus aggregation, because the
        #: workers run concurrently on separate platforms.
        self.clock = SimClock()
        self.aggregator = AggregatorEnclave(
            rng.child("aggregator"), attestation_service
        )
        root = Path(checkpoint_root)
        self.workers: List[EnclaveWorker] = [
            EnclaveWorker(
                f"w{i}",
                network_factory=network_factory,
                network_config=network_config,
                hyperparameters=hyperparameters,
                partition=partition,
                rng=rng.child(f"worker-{i}"),
                attestation_service=attestation_service,
                checkpoint_dir=root / f"w{i}",
                cipher=cipher,
                augment=augment,
                freeze_schedule=freeze_schedule,
                config_digest=config_digest,
                epc_bytes=epc_bytes,
            )
            for i in range(num_workers)
        ]
        self._by_id = {w.worker_id: w for w in self.workers}
        self._init_generator_factory = init_generator_factory
        self.blacklisted: set = set()
        self._bad_streak: Dict[str, int] = {}
        self.reports: List[RoundReport] = []

    # -- observability helpers ---------------------------------------------------

    def _span(self, name: str, kind: str, **attributes):
        if self.tracer is None:
            return _NO_SPAN
        return self.tracer.span(name, kind=kind, **attributes)

    @property
    def audit(self):
        """The aggregator enclave's hash-chained aggregation trail."""
        return self.aggregator.audit

    # -- sharding ----------------------------------------------------------------

    @staticmethod
    def _shard_records(datasets: Sequence[EncryptedDataset], n: int,
                       ) -> List[List[EncryptedDataset]]:
        """Round-robin records across ``n`` shards, deterministically."""
        flat = sorted(
            ((ds.source_id, record) for ds in datasets
             for record in ds.records),
            key=lambda pair: (pair[0], pair[1].index),
        )
        per_worker: List[Dict[str, list]] = [{} for _ in range(n)]
        for position, (source_id, record) in enumerate(flat):
            per_worker[position % n].setdefault(source_id, []).append(record)
        return [
            [EncryptedDataset(source_id=source_id, records=records)
             for source_id, records in sorted(shard.items())]
            for shard in per_worker
        ]

    def distribute(self, datasets: Sequence[EncryptedDataset]) -> None:
        """Shard submissions, stage + build every worker, open channels."""
        if not datasets:
            raise ConfigurationError("no submissions to distribute")
        shards = self._shard_records(datasets, len(self.workers))
        for worker, shard in zip(self.workers, shards):
            with self._span(f"{worker.worker_id}/setup", "enclave"):
                worker.adopt_shard(shard)
                summary = worker.stage(self.provisioner)
                if summary.accepted == 0:
                    raise RoundAborted(
                        f"worker {worker.worker_id}: no shard records "
                        "survived authentication"
                    )
                worker.build_trainer(self._init_generator_factory)
                worker.bind_observability(tracer=self.tracer,
                                          metrics=self.telemetry.registry)
                worker.open_channel(self.aggregator)
        _LOG.info(
            "distributed %d records across %d workers: %s",
            sum(len(ds) for ds in datasets), len(self.workers),
            {w.worker_id: w.examples for w in self.workers},
        )

    # -- the round loop ----------------------------------------------------------

    def run(self, rounds: int) -> List[RoundReport]:
        """Drive ``rounds`` data-parallel rounds; returns their reports."""
        for round_index in range(rounds):
            with self._span(f"round-{round_index}", "internal"):
                self.reports.append(self._run_round(round_index))
        return self.reports

    def _active(self) -> List[EnclaveWorker]:
        active = [w for w in self.workers
                  if w.worker_id not in self.blacklisted]
        if not active:
            raise RoundAborted("every worker has been blacklisted")
        return active

    def _run_round(self, round_index: int) -> RoundReport:
        active = self._active()
        for worker in active:
            worker.checkpoint(round_index)

        # A fresh masking cohort per round (see EnclaveWorker.begin_cohort).
        cohort = {w.worker_id: i for i, w in enumerate(active)}
        masked = len(active) >= 2
        threshold = 1 if len(active) <= 2 else len(active) // 2 + 1
        directory: Dict[int, int] = {}
        if masked:
            round_rng = self.rng.child(f"secagg/round-{round_index}")
            for worker in active:
                worker.begin_cohort(cohort[worker.worker_id], round_rng)
            directory = {
                cohort[w.worker_id]: w.secagg_public_key for w in active
            }
            for worker in active:
                worker.establish_pairs(directory)
            # Escrow: every share crosses the coordinator sealed under the
            # owner/holder pairwise key — this loop relays ciphertext only.
            for worker in active:
                records = worker.escrow_records(threshold, len(active))
                for peer in active:
                    position = cohort[peer.worker_id]
                    if position in records:
                        peer.hold_share_record(cohort[worker.worker_id],
                                               records[position])

        # Local epochs (concurrent in wall-clock; sequential in sim).
        durations: Dict[str, float] = {}
        losses: Dict[str, float] = {}
        faulted: List[str] = []
        for worker in active:
            try:
                with self._span(
                    f"{worker.worker_id}/round-{round_index}", "enclave",
                    examples=worker.examples,
                ):
                    loss, duration = worker.run_round(round_index)
            except EnclaveError as exc:
                faulted.append(worker.worker_id)
                self.telemetry.count("worker_faults")
                self.telemetry.count(f"fault_{type(exc).__name__}")
                _LOG.warning("worker %s faulted in round %d: %s",
                             worker.worker_id, round_index, exc)
                continue
            durations[worker.worker_id] = duration
            losses[worker.worker_id] = loss
        if not durations:
            raise RoundAborted(
                f"round {round_index}: no worker finished its local epoch"
            )

        # Deadline-based straggler exclusion. The deadline keys off the
        # *fastest* completed epoch: shards are balanced round-robin, so
        # honest workers land within a whisker of each other and a
        # straggler sticks out regardless of cohort size (a median-based
        # deadline degenerates at N=2, where the straggler drags the
        # median — and thus its own deadline — up with it).
        deadline = self.straggler_factor * min(durations.values())
        stragglers = sorted(
            wid for wid, d in durations.items() if d > deadline
        )
        participating = [wid for wid in durations if wid not in stragglers]
        self.telemetry.count("stragglers", len(stragglers))
        if not participating:
            raise RoundAborted(
                f"round {round_index}: every surviving worker straggled"
            )

        # Masked uploads over the attested channels. A record that fails
        # AEAD or the boundary checksum faults its *worker*; the
        # coordinator carries on with partial aggregation.
        corrupted: List[str] = []
        for wid in list(participating):
            worker = self._by_id[wid]
            record = worker.upload_record(masked=masked)
            try:
                with self._span(f"{wid}/upload", "boundary-crossing",
                                bytes=len(record)):
                    self.aggregator.submit(wid, record)
                self.telemetry.count("masked_upload_bytes", len(record))
            except (AuthenticationError, ChannelIntegrityError) as exc:
                corrupted.append(wid)
                participating.remove(wid)
                self.telemetry.count("worker_faults")
                self.telemetry.count("channel_corruptions")
                _LOG.warning(
                    "worker %s upload rejected in round %d (%s): %s",
                    wid, round_index, type(exc).__name__, exc,
                )
                # The rejected record consumed the worker's send sequence
                # but never advanced the aggregator's receive counter: the
                # session is desynchronised for good. Tear it down and
                # re-handshake (re-attested) so the broadcast and the next
                # round run on a clean channel.
                worker.open_channel(self.aggregator)
        if not participating:
            raise RoundAborted(
                f"round {round_index}: no upload survived the channel"
            )

        # Partial aggregation: every excluded cohort member is a dropout
        # whose masks must be reconstructed from the escrowed shares. The
        # survivors reveal their held shares as records sealed for their
        # attested channels — this loop collects opaque blobs the
        # aggregator alone can open, never a share in the clear.
        dropped_ids = {
            wid: cohort[wid]
            for wid in (faulted + stragglers + corrupted)
            if wid in cohort
        } if masked else {}
        share_records: Dict[int, List[Tuple[str, bytes]]] = {}
        if dropped_ids:
            alive = [w for w in active if w.worker_id not in faulted]
            for wid, secagg_id in dropped_ids.items():
                collected: List[Tuple[str, bytes]] = []
                for holder in alive:
                    record = holder.reveal_share_record(secagg_id)
                    if record is not None:
                        collected.append((holder.worker_id, record))
                share_records[secagg_id] = collected
            self.telemetry.count("partial_aggregations")

        weights = {
            wid: float(self._by_id[wid].examples) for wid in participating
        }
        vector_size = self._by_id[participating[0]].front_delta().size
        aggregation_start = self.aggregator.platform.clock.now
        try:
            with self._span(f"aggregate/round-{round_index}", "enclave",
                            participants=len(participating)):
                summary = self.aggregator.reduce(
                    round_index,
                    participating={wid: cohort[wid] for wid in participating},
                    weights=weights,
                    dropped=dropped_ids,
                    share_records=share_records,
                    directory=directory,
                    threshold=threshold,
                    vector_shape=(vector_size,),
                )
        except AggregationError as exc:
            raise RoundAborted(
                f"round {round_index}: secure aggregation failed closed: "
                f"{exc}"
            ) from exc
        self.telemetry.count("mask_recoveries",
                             int(summary["recovered_masks"]))

        # BackNet deltas are public by design: plaintext weighted mean.
        weight_total = sum(weights.values())
        back_avg = sum(
            self._by_id[wid].back_delta() * weights[wid]
            for wid in participating
        ) / weight_total

        # Crashed workers recover from sealed checkpoints and replay
        # their epoch bitwise before rejoining at the broadcast.
        recovered: List[str] = []
        for wid in faulted:
            worker = self._by_id[wid]
            with self._span(f"{wid}/recover", "enclave"):
                replay_round = worker.recover(self.provisioner,
                                              self.aggregator)
                worker.run_round(replay_round)
            recovered.append(wid)
            self.telemetry.count("worker_recoveries")

        # Broadcast: everyone still active — participants, stragglers,
        # and freshly recovered workers — converges on the same update.
        for worker in active:
            record = self.aggregator.broadcast_record(worker.worker_id)
            with self._span(f"{worker.worker_id}/broadcast",
                            "boundary-crossing", bytes=len(record)):
                worker.apply_broadcast(record, back_avg)
        self._assert_replicas_consistent(active, round_index)

        # Blacklist bookkeeping + shard reassignment.
        newly_blacklisted = self._update_blacklist(
            active, set(stragglers) | set(faulted) | set(corrupted)
        )

        # Wall-clock: concurrent training costs the slowest participant
        # (the deadline when stragglers were cut short), then aggregation.
        if stragglers:
            train_seconds = deadline
        else:
            train_seconds = max(durations[wid] for wid in participating)
        aggregation_seconds = (
            self.aggregator.platform.clock.now - aggregation_start
        )
        round_seconds = train_seconds + aggregation_seconds
        self.clock.advance(round_seconds)
        self.telemetry.count("rounds")
        self.telemetry.observe("round", round_seconds)
        self.telemetry.observe("aggregation", aggregation_seconds)

        mean_loss = float(
            sum(losses[wid] * weights[wid] for wid in participating)
            / weight_total
        )
        report = RoundReport(
            round=round_index,
            mean_loss=mean_loss,
            participating=sorted(participating),
            stragglers=stragglers,
            faulted=sorted(faulted),
            corrupted=sorted(corrupted),
            recovered=sorted(recovered),
            blacklisted=newly_blacklisted,
            recovered_masks=int(summary["recovered_masks"]),
            frontnet_frozen=all(self._by_id[wid].frontnet_frozen
                                for wid in participating),
            deadline_seconds=deadline,
            train_seconds=train_seconds,
            aggregation_seconds=aggregation_seconds,
            round_seconds=round_seconds,
            clock_seconds=self.clock.now,
        )
        _LOG.info(
            "round %d: loss %.4f, %d/%d participating, %.2fs simulated",
            round_index, mean_loss, len(participating), len(active),
            round_seconds,
        )
        return report

    # -- invariants + membership -------------------------------------------------

    def _assert_replicas_consistent(self, active: List[EnclaveWorker],
                                    round_index: int) -> None:
        """Every replica must be bitwise identical after the broadcast.

        Structure first, then values: a replica with extra layers or extra
        per-layer arrays must fail too, not slip past a zip/keys walk that
        only visits the reference's entries.
        """
        reference = active[0].replica_weights()
        for worker in active[1:]:
            candidate = worker.replica_weights()
            if len(candidate) != len(reference):
                raise RoundAborted(
                    f"round {round_index}: replica divergence at "
                    f"{worker.worker_id} ({len(candidate)} layers vs "
                    f"{len(reference)}); refusing to continue on "
                    "inconsistent state"
                )
            for index, (ref_layer, layer) in enumerate(
                    zip(reference, candidate)):
                if ref_layer.keys() != layer.keys():
                    raise RoundAborted(
                        f"round {round_index}: replica divergence at "
                        f"{worker.worker_id} (layer {index} parameters "
                        f"{sorted(layer)} vs {sorted(ref_layer)}); refusing "
                        "to continue on inconsistent state"
                    )
                for name in ref_layer:
                    if not np.array_equal(ref_layer[name], layer[name]):
                        raise RoundAborted(
                            f"round {round_index}: replica divergence at "
                            f"{worker.worker_id} ({name}); refusing to "
                            "continue on inconsistent state"
                        )

    def _update_blacklist(self, active: List[EnclaveWorker],
                          offenders: set) -> List[str]:
        for worker in active:
            wid = worker.worker_id
            if wid in offenders:
                self._bad_streak[wid] = self._bad_streak.get(wid, 0) + 1
            else:
                self._bad_streak[wid] = 0
        newly = sorted(
            wid for wid in (w.worker_id for w in active)
            if self._bad_streak.get(wid, 0) >= self.blacklist_after
        )
        for wid in newly:
            self.blacklisted.add(wid)
            self.telemetry.count("blacklisted_workers")
            _LOG.warning("worker %s blacklisted after %d bad rounds",
                         wid, self._bad_streak[wid])
            self._reassign_shard(wid)
        return newly

    def _reassign_shard(self, blacklisted_id: str) -> None:
        """Move a blacklisted worker's shard to the survivors."""
        survivors = [w for w in self.workers
                     if w.worker_id not in self.blacklisted]
        if not survivors:
            raise RoundAborted(
                "no surviving worker to adopt the blacklisted shard"
            )
        outgoing = self._by_id[blacklisted_id]
        extra = self._shard_records(outgoing._shard, len(survivors))
        for survivor, addition in zip(survivors, extra):
            if not addition:
                continue
            merged: Dict[str, list] = {
                ds.source_id: list(ds.records) for ds in survivor._shard
            }
            for dataset in addition:
                merged.setdefault(dataset.source_id, []).extend(
                    dataset.records
                )
            survivor.adopt_shard([
                EncryptedDataset(source_id=source_id, records=records)
                for source_id, records in sorted(merged.items())
            ])
            survivor.stage(self.provisioner)
        outgoing.adopt_shard([])
        self.telemetry.count("shard_reassignments")

    # -- results -----------------------------------------------------------------

    def final_weights(self) -> List[Dict[str, np.ndarray]]:
        """The converged replica weights (all replicas are identical)."""
        return self._active()[0].replica_weights()
