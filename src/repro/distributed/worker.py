"""One simulated enclave worker in a data-parallel CalTrain deployment.

Each worker is a full CalTrain training stack in miniature: its own SGX
platform (distinct platform identity and key), its own training enclave
built from the *same* agreed architecture config and hyperparameters —
and therefore carrying the same MRENCLAVE as every sibling, so the same
participant attestation checks pass — a model replica, and a shard of the
encrypted submissions. FrontNet weights live inside the worker's enclave
and leave it only sealed (checkpoints) or masked (secure aggregation);
the plaintext shard never exists outside the enclave.

Fault tolerance reuses :mod:`repro.resilience` wholesale: every round
starts with a sealed checkpoint, and a crashed worker rebuilds its
enclave (re-attested), re-provisions keys, re-stages its shard, restores
the round-start checkpoint, and *replays* its local epoch so every RNG
stream advances exactly as in an uninterrupted run — the recovered
replica is bitwise-consistent with a never-crashed one.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.freezing import FreezeSchedule
from repro.core.partition import PartitionedNetwork
from repro.core.partitioned_training import ConfidentialTrainer, build_replica
from repro.crypto.aead import BULK_CIPHER
from repro.crypto.shamir import Share, encode_share
from repro.crypto.tls import SecureChannel
from repro.data.encryption import EncryptedDataset
from repro.distributed.channels import (decode_vector, encode_vector,
                                        open_attested_channel)
from repro.enclave.attestation import AttestationService
from repro.enclave.enclave import Enclave
from repro.enclave.memory import EPC_USABLE_BYTES
from repro.enclave.platform import SgxPlatform
from repro.errors import CheckpointError, ConfigurationError
from repro.federation.secure_agg import SecureAggregationClient
from repro.federation.server import DecryptionSummary, TrainingServer
from repro.nn.network import Network
from repro.observability.tracing import Tracer
from repro.resilience.checkpoint import CheckpointManager, capture_state, restore_state
from repro.utils.logging import get_logger
from repro.utils.rng import RngStream

__all__ = ["EnclaveWorker", "flatten_slice", "apply_flat_delta"]

_LOG = get_logger("distributed.worker")

_SHARE_PREFIX = "secagg-share/"


def flatten_slice(weights: List[Dict[str, np.ndarray]]) -> np.ndarray:
    """Concatenate a weight slice into one float64 vector (stable order)."""
    parts = []
    for layer in weights:
        for name in sorted(layer):
            parts.append(np.asarray(layer[name], dtype=np.float64).ravel())
    if not parts:
        return np.zeros(0, dtype=np.float64)
    return np.concatenate(parts)


def apply_flat_delta(weights: List[Dict[str, np.ndarray]],
                     delta: np.ndarray) -> List[Dict[str, np.ndarray]]:
    """Return ``weights + delta`` with the flat vector unpacked in the
    same stable order :func:`flatten_slice` packed it."""
    result: List[Dict[str, np.ndarray]] = []
    offset = 0
    for layer in weights:
        entry: Dict[str, np.ndarray] = {}
        for name in sorted(layer):
            arr = layer[name]
            chunk = delta[offset:offset + arr.size].reshape(arr.shape)
            offset += arr.size
            entry[name] = (np.asarray(arr, dtype=np.float64) + chunk).astype(
                arr.dtype
            )
        result.append(entry)
    if offset != delta.size:
        raise ConfigurationError(
            f"flat delta carries {delta.size} elements, expected {offset}"
        )
    return result


class EnclaveWorker:
    """One training enclave + model replica + shard of the submissions."""

    def __init__(self, worker_id: str, *,
                 network_factory: Callable[[np.random.Generator], Network],
                 network_config: str,
                 hyperparameters: Dict[str, float],
                 partition: int,
                 rng: RngStream,
                 attestation_service: AttestationService,
                 checkpoint_dir,
                 cipher: str = BULK_CIPHER,
                 augment: bool = False,
                 freeze_schedule: Optional[FreezeSchedule] = None,
                 config_digest: Optional[bytes] = None,
                 epc_bytes: int = EPC_USABLE_BYTES) -> None:
        self.worker_id = worker_id
        self.rng = rng
        self.cipher = cipher
        self.augment = augment
        self.freeze_schedule = freeze_schedule
        #: Whether the FrontNet was frozen in this worker's last local epoch.
        self.frontnet_frozen = False
        self.partition = partition
        self._network_factory = network_factory
        self._network_config = network_config
        self._hyperparameters = dict(hyperparameters)
        self.attestation_service = attestation_service
        self.platform = SgxPlatform(
            rng=rng.child("platform"),
            platform_id=f"sgx-{worker_id}",
            epc_bytes=epc_bytes,
        )
        self.server = TrainingServer(
            self.platform, attestation_service, rng.child("server")
        )
        self.enclave: Enclave = self.server.build_training_enclave(
            network_config, hyperparameters=self._hyperparameters
        )
        #: The measurement every replacement enclave must re-attest to.
        self.expected_mrenclave = self.enclave.mrenclave
        self.manager = CheckpointManager(checkpoint_dir,
                                         config_digest=config_digest)
        self._shard: List[EncryptedDataset] = []
        self.trainer: Optional[ConfidentialTrainer] = None
        self.x: Optional[np.ndarray] = None
        self.y: Optional[np.ndarray] = None
        self.channel: Optional[SecureChannel] = None
        self._secagg: Optional[SecureAggregationClient] = None
        self._round_weights: Optional[List[Dict[str, np.ndarray]]] = None
        self._handshake_attempts = 0

    # -- shard staging -----------------------------------------------------------

    @property
    def examples(self) -> int:
        """Shard size in decrypted training examples."""
        return 0 if self.y is None else int(self.y.shape[0])

    def adopt_shard(self, datasets: Sequence[EncryptedDataset]) -> None:
        """Take ownership of a shard of the encrypted submissions."""
        self._shard = list(datasets)

    def stage(self, provisioner: Callable[[Enclave], None]) -> DecryptionSummary:
        """Provision keys and decrypt this worker's shard in-enclave.

        A shard with no accepted record stages nothing; the caller decides
        what an empty worker means.
        """
        provisioner(self.enclave)
        self.server.replace_submissions(self._shard)
        summary = self.server.decrypt_submissions(cipher=self.cipher)
        if summary.accepted:
            self.x, self.y, _, _ = self.server.staged_training_data()
        return summary

    # -- replica lifecycle -------------------------------------------------------

    def build_trainer(
        self, init_generator_factory: Callable[[], np.random.Generator]
    ) -> None:
        """Build the model replica and its enclave-backed trainer.

        ``init_generator_factory`` must hand every worker an identically
        seeded generator, so all replicas (and the single-enclave
        baseline on the same master seed) start from the same weights —
        the invariant the per-round broadcast then preserves.
        """
        self.trainer = build_replica(
            self._network_factory, init_generator_factory(), self.enclave,
            partition=self.partition, hyperparameters=self._hyperparameters,
            augment=self.augment, freeze_schedule=self.freeze_schedule,
        )

    @property
    def partitioned(self) -> PartitionedNetwork:
        return self.trainer.partitioned

    def bind_observability(self, tracer: Optional[Tracer] = None,
                           metrics=None) -> None:
        if self.trainer is not None:
            self.trainer.bind_observability(tracer=tracer, metrics=metrics)

    def open_channel(self, aggregator) -> None:
        """Establish this worker's attested channel into the aggregator.

        The handshake RNG is salted with a per-handshake attempt counter:
        ``RngStream.child`` is seed-derived, so an unsalted re-handshake
        (after a corrupt fault or crash recovery) would reproduce the
        previous session's DH keys and record keys with sequence counters
        reset — letting the untrusted coordinator replay captured records
        onto the "fresh" channel, and reusing AEAD key+nonce pairs across
        distinct plaintexts. The aggregator salts its side the same way.
        """
        self._handshake_attempts += 1
        self.channel = open_attested_channel(
            rng=self.rng.child(f"agg-tls-client/{self._handshake_attempts}"),
            aggregator=aggregator,
            peer_id=self.worker_id,
            attestation_service=self.attestation_service,
            expected_mrenclave=aggregator.mrenclave,
        )

    # -- per-round protocol ------------------------------------------------------

    def checkpoint(self, round_index: int) -> None:
        """Seal a round-boundary checkpoint of the replica."""
        state = capture_state(self.trainer, epoch=round_index, batch=0)
        self.manager.save(state, self.enclave)
        self.manager.prune(keep_last=2)

    def run_round(self, round_index: int) -> Tuple[float, float]:
        """One local epoch over the shard; returns (mean_loss, duration).

        Snapshots the round-start weights first — deltas and the
        broadcast update are all relative to that snapshot.
        """
        self._round_weights = self.partitioned.network.get_weights()
        start = self.platform.clock.now
        mean_loss, self.frontnet_frozen = self.trainer.train_epoch(
            self.x, self.y, round_index)
        return mean_loss, self.platform.clock.now - start

    def front_delta(self) -> np.ndarray:
        """FrontNet weight delta since the round-start snapshot (flat)."""
        now = self.partitioned.network.get_weights()[:self.partition]
        base = self._round_weights[:self.partition]
        return flatten_slice(now) - flatten_slice(base)

    def back_delta(self) -> np.ndarray:
        """BackNet weight delta since the round-start snapshot (flat)."""
        now = self.partitioned.network.get_weights()[self.partition:]
        base = self._round_weights[self.partition:]
        return flatten_slice(now) - flatten_slice(base)

    # -- secure aggregation (per-round cohort) -----------------------------------

    def begin_cohort(self, secagg_id: int, round_rng: RngStream) -> None:
        """Join the round's masking cohort with fresh DH material.

        A fresh client per round is deliberate: reusing pairwise seeds
        across rounds would let the coordinator subtract two rounds'
        uploads and learn the plaintext difference of a worker's updates.
        """
        self._secagg = SecureAggregationClient(secagg_id, round_rng)

    @property
    def secagg_id(self) -> int:
        return self._secagg.client_id

    @property
    def secagg_public_key(self) -> int:
        return self._secagg.public_key

    def establish_pairs(self, directory: Dict[int, int]) -> None:
        self._secagg.establish_pairs(directory)

    def escrow_records(self, threshold: int,
                       cohort_size: int) -> Dict[int, bytes]:
        """Shamir-share this worker's round DH key among the cohort.

        Returns one *sealed* share record per peer — AEAD-encrypted under
        the pairwise secure-aggregation key shared with that peer, so the
        coordinator relaying the records sees only ciphertext (the
        Bonawitz share-transit discipline). This worker's own share goes
        straight into its enclave store and never crosses the boundary.
        """
        shares = self._secagg.escrow_private_key(threshold, cohort_size)
        records: Dict[int, bytes] = {}
        for position, share in enumerate(shares):
            if position == self._secagg.client_id:
                self._hold_share(position, share)
            else:
                records[position] = self._secagg.encrypt_share_for(
                    position, share
                )
        return records

    def _hold_share(self, owner_secagg_id: int, share: Share) -> None:
        """Hold one escrowed share in enclave memory (dies with it)."""
        self.enclave.trusted_put(f"{_SHARE_PREFIX}{owner_secagg_id}", share)

    def hold_share_record(self, owner_secagg_id: int, record: bytes) -> None:
        """Open one relayed share record (sealed under the pairwise key
        with its owner) inside the enclave and hold the share there."""
        share = self._secagg.decrypt_share_from(owner_secagg_id, record)
        self._hold_share(owner_secagg_id, share)

    def reveal_share_record(self, owner_secagg_id: int) -> Optional[bytes]:
        """Surrender a held share so a dropout's masks can be rebuilt.

        The share leaves the enclave only as an AEAD record on this
        worker's attested aggregator channel: the relaying coordinator can
        neither read it nor splice it elsewhere (records are
        sequence-bound), so it never holds reconstruction material.
        """
        key = f"{_SHARE_PREFIX}{owner_secagg_id}"
        if not self.enclave.trusted_has(key):
            return None
        share: Share = self.enclave.trusted_get(key)
        return self.channel.send(encode_share(share))

    def upload_record(self, masked: bool) -> bytes:
        """The round's upload: shard-size-scaled FrontNet delta, masked
        (cohort >= 2) and protected for the aggregator channel."""
        vector = self.front_delta() * float(self.examples)
        if masked:
            vector = self._secagg.masked_update(vector)
        return self.channel.send(encode_vector(vector))

    def apply_broadcast(self, record: bytes, back_delta_avg: np.ndarray,
                        ) -> None:
        """Install the round's agreed update onto the round-start snapshot.

        The FrontNet half arrives over the attested channel (the
        coordinator never sees it unprotected); the BackNet half is the
        coordinator's plaintext weighted average — exactly the paper's
        confidentiality split. All replicas apply identical deltas to
        identical snapshots, so they stay bitwise in lockstep.
        """
        front_avg = decode_vector(self.channel.receive(record))
        new_front = apply_flat_delta(
            self._round_weights[:self.partition], front_avg
        )
        new_back = apply_flat_delta(
            self._round_weights[self.partition:], back_delta_avg
        )
        self.partitioned.network.set_weights(new_front + new_back)
        self.partitioned.network.zero_grads()

    def replica_weights(self) -> List[Dict[str, np.ndarray]]:
        return self.partitioned.network.get_weights()

    # -- recovery -----------------------------------------------------------------

    def recover(self, provisioner: Callable[[Enclave], None],
                aggregator) -> int:
        """Rebuild after a crash; returns the round to replay.

        The full resilience flow: rebuild the enclave from the agreed
        config (same MRENCLAVE), re-attest it, re-provision every
        participant key over attested TLS, re-stage the shard, restore
        the newest sealed round-boundary checkpoint (same platform +
        same measurement, so the seal opens), rebind the trainer's RNG
        plumbing, and re-open the attested aggregator channel.
        """
        replacement = self.server.build_training_enclave(
            self._network_config, hyperparameters=self._hyperparameters
        )
        self.attestation_service.verify(
            replacement.quote(b"distributed-recovery"),
            expected_mrenclave=self.expected_mrenclave,
        )
        self.enclave = replacement
        self.trainer.rebind_enclave(replacement)
        provisioner(replacement)
        self.server.decrypt_submissions(cipher=self.cipher)
        self.x, self.y, _, _ = self.server.staged_training_data()
        info = self.manager.latest()
        if info is None:
            raise CheckpointError(
                f"worker {self.worker_id}: no valid checkpoint to recover "
                "from"
            )
        state = self.manager.load(info, replacement)
        restore_state(self.trainer, state)
        self.open_channel(aggregator)
        _LOG.info("worker %s recovered at round %d from %s",
                  self.worker_id, state.epoch, info.path.name)
        return state.epoch
