"""The CalTrain system facade: training, fingerprinting, and query stages.

Wires the whole pipeline of Fig. 2:

1. **Setup** — an SGX platform, an attestation service, a training server
   that builds the training enclave with the agreed architecture measured
   into MRENCLAVE.
2. **Registration** — each participant verifies the enclave measurement via
   remote attestation and provisions its data key over attested TLS, then
   submits its encrypted training data.
3. **Training stage** — in-enclave authentication/decryption/augmentation,
   FrontNet/BackNet partitioned SGD with optional per-epoch exposure
   re-assessment.
4. **Fingerprinting stage** — a dedicated enclave holds the whole trained
   model, extracts fingerprints of all accepted training instances, and
   records the Omega linkage tuples.
5. **Query stage** — the tuples go into a
   :class:`~repro.serving.store.LinkageStore`, where
   :class:`~repro.governance.attribution.Attributor` answers runtime
   misprediction queries, attributes them to contributors and has those
   contributors disclose the hit instances for a check against H.
"""

from __future__ import annotations

import tempfile
from contextlib import nullcontext
from dataclasses import dataclass
from functools import partial
from typing import Callable, Dict, List, Optional

import numpy as np

from repro.core.assessment import ExposureAssessor
from repro.core.audit import AuditLog
from repro.core.fingerprint import Fingerprinter
from repro.core.freezing import FreezeSchedule
from repro.core.linkage import LinkageTable, instance_digest, segment_digest
from repro.core.partition import PartitionedNetwork
from repro.core.partitioned_training import (ConfidentialTrainer, EpochReport,
                                             build_replica)
from repro.crypto.aead import BULK_CIPHER
from repro.enclave.attestation import AttestationService
from repro.enclave.enclave import Enclave
from repro.enclave.memory import EPC_USABLE_BYTES
from repro.enclave.platform import SgxPlatform
from repro.errors import ConfigurationError, TrainingError
from repro.federation.provisioning import provision_key
from repro.federation.server import DecryptionSummary, TrainingServer
from repro.nn.config import network_to_config
from repro.nn.network import Network
from repro.nn.zoo import cifar10_10layer, cifar10_18layer
from repro.observability.adapter import SubsystemTelemetry
from repro.observability.metrics import MetricsRegistry
from repro.observability.tracing import Tracer
from repro.resilience.checkpoint import CheckpointManager, TrainingState
from repro.resilience.supervisor import ResilientTrainer, RetryPolicy
from repro.utils.logging import get_logger
from repro.utils.rng import RngStream
from repro.utils.serialization import canonical_digest

__all__ = ["CalTrainConfig", "CalTrain"]

_LOG = get_logger("core.caltrain")

_ARCHITECTURES: Dict[str, Callable] = {
    "cifar10-10layer": cifar10_10layer,
    "cifar10-18layer": cifar10_18layer,
}


@dataclass
class CalTrainConfig:
    """Configuration for a CalTrain deployment.

    Attributes:
        seed: Master seed; everything derives from it deterministically.
        architecture: ``"cifar10-10layer"``, ``"cifar10-18layer"``, or a
            zero-argument network factory via :attr:`network_factory`.
        width_scale: Filter-count scale for laptop-size runs (1.0 = paper).
        partition: Initial number of FrontNet layers inside the enclave
            (the paper starts with the first two layers).
        reassess_every_epoch: Dynamic exposure re-assessment; needs
            :attr:`CalTrain.set_assessor` before training.
        freeze_at_epoch: Optional bottom-up FrontNet freezing epoch.
        cipher: AEAD used for bulk training data.
        backend: Must be ``"optimized"``, the one set of NN kernels; any
            other value is a :class:`ConfigurationError`. Nothing reads it.
            It stays only because the benchmark workloads pass it, and a
            later benchmark change deletes it together with
            ``bench/sizes.py``'s ``backend`` key.
    """

    seed: int = 7
    architecture: str = "cifar10-18layer"
    width_scale: float = 0.25
    epochs: int = 12
    batch_size: int = 32
    learning_rate: float = 0.05
    momentum: float = 0.9
    partition: int = 2
    epc_bytes: int = EPC_USABLE_BYTES
    cipher: str = BULK_CIPHER
    augment: bool = True
    reassess_every_epoch: bool = False
    assess_samples: int = 2
    freeze_at_epoch: Optional[int] = None
    network_factory: Optional[Callable[[np.random.Generator], Network]] = None
    backend: str = "optimized"


class CalTrain:
    """One CalTrain deployment (see module docstring for the stages)."""

    def __init__(self, config: CalTrainConfig) -> None:
        if config.backend != "optimized":
            raise ConfigurationError(
                f"unknown nn backend {config.backend!r}; the one set of "
                "kernels is 'optimized'"
            )
        self.config = config
        self.rng = RngStream(config.seed, name="caltrain")
        self.platform = SgxPlatform(
            rng=self.rng.child("platform"), epc_bytes=config.epc_bytes
        )
        self.attestation_service = AttestationService()
        self.server = TrainingServer(
            self.platform, self.attestation_service, self.rng.child("server")
        )
        self._network_factory = self._resolve_factory()
        # A reference network defines the agreed architecture config text.
        self._reference_network = self._network_factory(
            self.rng.child("reference-init").generator
        )
        self.network_config = network_to_config(self._reference_network)
        self.training_enclave: Enclave = self.server.build_training_enclave(
            self.network_config,
            hyperparameters=self._hyperparameters(),
        )
        #: The deployment's training agreement, digested once — the
        #: single definition every checkpoint, coordinator, and run key
        #: derives from (they can never drift apart).
        self.config_digest = canonical_digest(
            self.network_config, self._hyperparameters()
        )
        #: Registered contributors (``TrainingParticipant``) by id.
        self.participants: Dict[str, object] = {}
        #: Hash-chained record of every pipeline event (sealable).
        self.audit_log = AuditLog()
        self.audit_log.append(
            "setup",
            platform=self.platform.platform_id,
            mrenclave=self.training_enclave.mrenclave.hex(),
            architecture=config.architecture if config.network_factory is None
            else "custom",
        )
        self.model: Optional[Network] = None
        self.partitioned: Optional[PartitionedNetwork] = None
        self.trainer: Optional[ConfidentialTrainer] = None
        self.fingerprinter: Optional[Fingerprinter] = None
        self._assessor: Optional[ExposureAssessor] = None
        self.decryption_summary: Optional[DecryptionSummary] = None
        #: Fault/retry/checkpoint counters of the last supervised run.
        self.run_telemetry: Optional[SubsystemTelemetry] = None
        #: Distributed-run state (populated by ``train(workers=N)``).
        self.coordinator = None
        self.distributed_telemetry = None
        self.round_reports: list = []
        #: Deployment-wide metrics registry. Training binds the partition
        #: hot path, EPC paging, checkpoint I/O, and the resilience
        #: telemetry into it, so one Prometheus export covers the run.
        self.metrics = MetricsRegistry()
        #: Governance control plane (optional; see :meth:`bind_governance`).
        self.governance = None
        self.governance_telemetry = None
        #: The committed contribution ledger training consumed, when the
        #: production intake path (:meth:`intake_ledger`) was used.
        self.ledger = None
        #: Semantic identity of the last/current training run.
        self.run_key: Optional[str] = None
        #: The supervised run's checkpoint manager (promotion-gate input).
        self.checkpoint_manager: Optional[CheckpointManager] = None

    def _hyperparameters(self) -> Dict[str, float]:
        return {
            "epochs": self.config.epochs,
            "batch_size": self.config.batch_size,
            "learning_rate": self.config.learning_rate,
            "momentum": self.config.momentum,
        }

    def _resolve_factory(self) -> Callable[[np.random.Generator], Network]:
        if self.config.network_factory is not None:
            return self.config.network_factory
        factory = _ARCHITECTURES.get(self.config.architecture)
        if factory is None:
            raise ConfigurationError(
                f"unknown architecture {self.config.architecture!r}; pick "
                f"one of {sorted(_ARCHITECTURES)} or pass network_factory"
            )
        width = self.config.width_scale
        return lambda gen: factory(gen, width_scale=width)

    # -- stage 2: registration and submission ------------------------------------

    @property
    def expected_measurement(self) -> bytes:
        """The MRENCLAVE participants agree on (they can recompute it from
        the published enclave code and the agreed config/hyperparameters)."""
        return self.training_enclave.mrenclave

    def register_participant(self, participant) -> None:
        """Attested-TLS key provisioning for one participant."""
        self._provision_enclave(self.training_enclave, [participant])
        self.participants[participant.participant_id] = participant
        self.audit_log.append("participant-registered",
                              participant=participant.participant_id)
        _LOG.info("registered participant %s", participant.participant_id)

    def _provision_enclave(self, enclave: Enclave,
                           participants=None) -> None:
        """Provision each participant's key into ``enclave`` (default: every
        registered one) over attested TLS.

        Rebuilt and worker enclaves are built from the same published
        code, agreed architecture config and hyperparameters as the
        training enclave, so they carry the deployment's expected
        measurement and the participants' attestation checks pass
        unchanged.
        """
        if participants is None:
            participants = self.participants.values()
        for participant in participants:
            provision_key(
                participant, enclave, self.attestation_service,
                expected_mrenclave=self.expected_measurement,
            )

    def submit_data(self, participant) -> None:
        """Encrypt the participant's dataset and submit it to the server."""
        encrypted = participant.encrypt_dataset(cipher=self.config.cipher)
        self.server.submit(encrypted)
        self.audit_log.append("data-submitted",
                              source=participant.participant_id,
                              records=len(encrypted))

    # -- governance --------------------------------------------------------------

    def bind_governance(self, log) -> None:
        """Attach a :class:`~repro.governance.log.GovernanceLog`.

        From here on, ledger intake, training starts/resumes/completions,
        and checkpoints are chained into the governance timeline (with
        cross-references into this deployment's audit chain).
        """
        self.governance = log
        self.governance_telemetry = SubsystemTelemetry("governance",
                                                       registry=self.metrics)

    def _govern(self, kind: str, **details) -> None:
        if self.governance is not None:
            self.governance.append(kind, **details)
            self.governance_telemetry.count("events")

    def intake_ledger(self, ledger) -> int:
        """Stage a committed contribution ledger for training.

        The production intake path: the ledger's segments are re-verified
        fail-closed, its committed lane becomes the submission set, and —
        with governance bound — an ``ingest-commit`` event chains the
        ledger manifest digest into the governance timeline. Returns the
        number of records staged.
        """
        staged = self.server.from_ledger(ledger)
        self.ledger = ledger
        self.audit_log.append(
            "ledger-intake", records=staged,
            manifest_digest=ledger.manifest_digest().hex(),
        )
        self._govern(
            "ingest-commit",
            ledger_digest=ledger.manifest_digest().hex(),
            records=staged,
            contributors=ledger.contributors(),
            audit_head=self.audit_log.head.hex(),
        )
        return staged

    def compute_run_key(self) -> str:
        """The semantic identity of the run :meth:`train` would start now.

        ``digest(config ⊕ data ⊕ code)``: the deployment's config digest,
        the ledger manifest digest (or, for in-memory submissions, the
        sorted record digests), and the library version. Identical inputs
        always yield the identical key — across processes and hosts.
        """
        from repro.governance.identity import (compute_run_key,
                                               submissions_digest)

        data_digest = (self.ledger.manifest_digest()
                       if self.ledger is not None
                       else submissions_digest(self.server.submissions))
        return compute_run_key(self.config_digest, data_digest)

    # -- stage 3: training ------------------------------------------------------------

    def set_assessor(self, assessor: ExposureAssessor) -> None:
        """Install the IRValNet-backed assessor used for re-assessment."""
        self._assessor = assessor

    def _reassess(self, epoch: int, trainer: ConfidentialTrainer) -> None:
        """Participants assess the semi-trained model and vote a partition."""
        if self._assessor is None:
            return
        votes = []
        for participant in self.participants.values():
            result = participant.assess_exposure(
                trainer.partitioned.network, self._assessor,
                sample_size=self.config.assess_samples,
            )
            votes.append(result.optimal_partition)
        if not votes:
            return
        # Consensus: the most conservative (largest) requested partition.
        agreed = max(votes)
        limit = trainer.partitioned.network.penultimate_index()
        agreed = min(agreed, limit)
        current = trainer.partitioned.partition
        if agreed < current:
            # Never shrink: the layers given up would have been trained in
            # the enclave and would be released in the clear as BackNet.
            self.audit_log.append("partition-vote-refused", epoch=epoch,
                                  current=current, voted=agreed)
        elif agreed > current:
            _LOG.info("epoch %d: re-partitioning %d -> %d layers in enclave",
                      epoch, current, agreed)
            self.audit_log.append("partition-changed", epoch=epoch,
                                  old=current, new=agreed)
            trainer.partitioned.set_partition(agreed)

    def _adopt_enclave(self, enclave: Enclave) -> None:
        """Recovery re-onboarding after an enclave rebuild.

        The provisioned data keys and the staged plaintext were enclave
        secrets and died with the aborted enclave. Every registered
        participant re-provisions its key over attested TLS (the rebuilt
        enclave carries the agreed MRENCLAVE, so the same checks pass),
        and the still-encrypted submissions are re-authenticated and
        re-staged — the fingerprint stage later reads them from the live
        enclave. Provisioning only consumes per-purpose child RNG
        streams, so re-running it cannot perturb training determinism.
        """
        self.training_enclave = enclave
        self._provision_enclave(enclave)
        summary = self.server.decrypt_submissions(cipher=self.config.cipher)
        self.audit_log.append("recovery-restage",
                              participants=len(self.participants),
                              accepted=summary.accepted)

    def train(self, test_x: Optional[np.ndarray] = None,
              test_y: Optional[np.ndarray] = None,
              checkpoint_dir: Optional[str] = None,
              resume: bool = False,
              checkpoint_every_batches: Optional[int] = None,
              retry_policy: Optional[RetryPolicy] = None,
              tracer: Optional[Tracer] = None,
              workers: Optional[int] = None,
              straggler_factor: Optional[float] = None,
              blacklist_after: Optional[int] = None,
              ) -> List[EpochReport]:
        """Run the full training stage on everything submitted so far.

        With ``checkpoint_dir`` set, training runs under the resilience
        runtime: sealed checkpoints at every epoch boundary (and every
        ``checkpoint_every_batches`` batches mid-epoch), supervised
        recovery from enclave/transfer/checkpoint faults, and
        ``resume=True`` continuing a previous run bitwise-identically
        from its newest valid checkpoint — including the checkpointed
        audit-log history.

        ``workers`` of ``None`` or 1 is the one-enclave run. With
        ``workers=N`` (N >= 2) the training stage runs data-parallel
        across N enclave workers under :mod:`repro.distributed`: the
        encrypted submissions are sharded, each epoch becomes one round of
        local training plus secure FrontNet aggregation, and
        ``straggler_factor`` / ``blacklist_after`` govern the straggler
        and blacklist machinery. Every other option has the same effect
        as on one enclave, or is refused with :class:`ConfigurationError`:
        ``resume``, ``checkpoint_every_batches``, ``retry_policy`` and
        ``reassess_every_epoch`` under ``workers=N``, and
        ``straggler_factor`` / ``blacklist_after`` without it. The
        workers seal their per-round checkpoints under ``checkpoint_dir``,
        or a temporary directory removed when the run ends.

        ``tracer`` (optional) records the run as nested spans — epochs
        over batches over enclave/boundary-crossing/untrusted phases.
        Metrics always land in :attr:`metrics`, tracer or not.
        """
        if workers is not None and workers < 1:
            raise ConfigurationError(f"workers={workers}: training needs an "
                                     "enclave")
        distributed = workers is not None and workers != 1
        membership = {name: value for name, value in
                      (("straggler_factor", straggler_factor),
                       ("blacklist_after", blacklist_after))
                      if value is not None}
        single_only = {"resume": resume,
                       "checkpoint_every_batches":
                           checkpoint_every_batches is not None,
                       "retry_policy": retry_policy is not None,
                       "reassess_every_epoch": self.config.reassess_every_epoch}
        offending = sorted(
            [name for name, given in single_only.items() if given]
            if distributed else membership)
        if offending:
            raise ConfigurationError(
                f"workers={workers} is incompatible with {offending}: "
                + ("a cohort has no cross-process resume, mid-epoch "
                   "checkpoint, retry policy or partition vote"
                   if distributed else "one enclave has no cohort to govern")
            )
        self._begin_run(resume=resume, workers=workers)
        self.decryption_summary = self.server.decrypt_submissions(
            cipher=self.config.cipher
        )
        self.audit_log.append(
            "decryption",
            accepted=self.decryption_summary.accepted,
            rejected_tampered=self.decryption_summary.rejected_tampered,
            rejected_unregistered=self.decryption_summary.rejected_unregistered,
        )
        if self.decryption_summary.accepted == 0:
            raise TrainingError("no training records survived authentication")

        # The deployment's replica in the training enclave: it trains here,
        # or hosts the converged weights of a distributed run.
        self.trainer = build_replica(
            self._network_factory, self._init_generator(),
            self.training_enclave, partition=self.config.partition,
            hyperparameters=self._hyperparameters(),
            augment=self.config.augment,
            freeze_schedule=(
                FreezeSchedule(self.config.freeze_at_epoch)
                if self.config.freeze_at_epoch is not None else None
            ),
            on_epoch_end=(self._reassess if self.config.reassess_every_epoch
                          else None),
        )
        self.partitioned = self.trainer.partitioned
        self.model = self.partitioned.network
        if distributed:
            reports = self._train_distributed(
                test_x, test_y, workers, membership, checkpoint_dir, tracer)
        else:
            x, y, _, _ = self.server.staged_training_data()
            self.trainer.bind_observability(tracer=tracer,
                                            metrics=self.metrics)
            if checkpoint_dir is None:
                if resume:
                    raise ConfigurationError("resume needs checkpoint_dir set")
                reports = self.trainer.train(
                    x, y, self.config.epochs, test_x=test_x, test_y=test_y,
                )
            else:
                reports = self._train_supervised(
                    x, y, test_x, test_y, checkpoint_dir,
                    resume, checkpoint_every_batches, retry_policy,
                )
        self.audit_log.append(
            "training-complete",
            epochs=len(reports),
            final_loss=reports[-1].mean_loss,
            final_partition=self.partitioned.partition,
        )
        self._complete_run(reports)
        return reports

    def _init_generator(self) -> np.random.Generator:
        """The agreed model init: every replica, the deployment's own and
        each distributed worker's, starts from these weights."""
        return self.rng.child("model-init").generator

    def _begin_run(self, resume: bool, workers: Optional[int]) -> None:
        """Fix the run identity and chain the train-start/resume event."""
        from repro.governance.identity import code_version

        self.run_key = self.compute_run_key()
        if self.governance is not None:
            previous = self.governance.find_run(self.run_key)
            if previous is not None and not resume:
                _LOG.warning(
                    "run %s already completed at governance seq %d — an "
                    "identical config/data/code run is being repeated "
                    "(dedup candidates can be served from its artifacts)",
                    self.run_key[:16], previous["seq"],
                )
        self._govern(
            "train-resume" if resume else "train-start",
            run_key=self.run_key,
            config_digest=self.config_digest.hex(),
            code_version=code_version(),
            mrenclave=self.training_enclave.mrenclave.hex(),
            workers=workers,
            audit_head=self.audit_log.head.hex(),
        )

    def _complete_run(self, reports: List[EpochReport]) -> None:
        self._govern(
            "train-complete",
            run_key=self.run_key,
            epochs=len(reports),
            final_loss=reports[-1].mean_loss if reports else None,
            audit_head=self.audit_log.head.hex(),
        )

    def _train_supervised(self, x, y, test_x, test_y,
                          checkpoint_dir, resume, checkpoint_every_batches,
                          retry_policy) -> List[EpochReport]:
        manager = CheckpointManager(
            checkpoint_dir,
            config_digest=self.config_digest,
            run_key=self.run_key,
        )
        self.checkpoint_manager = manager
        adopted_audit = not resume

        def _on_restore(state: TrainingState) -> None:
            # Cross-process resume adopts the checkpointed audit chain as
            # the authoritative timeline; in-run recoveries keep the live
            # log (faults are history, not something to rewind).
            nonlocal adopted_audit
            if adopted_audit:
                return
            adopted_audit = True
            if state.audit_bytes:
                self.audit_log = AuditLog.from_bytes(state.audit_bytes)

        resilient = ResilientTrainer(
            self.trainer,
            manager,
            # The agreed config and hyperparameters are measured back in,
            # so the rebuilt enclave carries the agreed MRENCLAVE.
            enclave_factory=partial(self.server.build_training_enclave,
                                    self.network_config,
                                    hyperparameters=self._hyperparameters()),
            attestation_service=self.attestation_service,
            policy=retry_policy,
            telemetry=SubsystemTelemetry("resilience", registry=self.metrics),
            audit_provider=lambda: self.audit_log,
            on_enclave_rebuilt=self._adopt_enclave,
            on_restore=_on_restore,
        )
        self.run_telemetry = resilient.telemetry
        reports = resilient.run(
            x, y, self.config.epochs, test_x=test_x, test_y=test_y,
            resume=resume,
            checkpoint_every_batches=checkpoint_every_batches,
        )
        digest = manager.latest_manifest_digest()
        if digest is not None:
            self._govern("checkpoint", run_key=self.run_key,
                         manifest_digest=digest.hex(),
                         audit_head=self.audit_log.head.hex())
        return reports

    def _train_distributed(self, test_x, test_y, workers: int,
                           membership: Dict[str, float],
                           checkpoint_dir: Optional[str],
                           tracer: Optional[Tracer]) -> List[EpochReport]:
        """Data-parallel training across ``workers`` enclave workers;
        ``membership`` holds the straggler and blacklist settings given.

        The main training enclave has already authenticated and staged the
        full submission set (the fingerprint stage reads from it); the
        coordinator re-shards the *encrypted* submissions across the
        workers, which decrypt only their own shard inside their own
        enclaves. After every round the converged weights land in the
        deployment's replica, which is evaluated there as on one enclave.
        """
        from repro.distributed import DistributedCoordinator

        reports: List[EpochReport] = []
        with (nullcontext(checkpoint_dir) if checkpoint_dir
              else tempfile.TemporaryDirectory(prefix="caltrain-dist-")
              ) as root:
            self.coordinator = DistributedCoordinator(
                num_workers=workers,
                network_factory=self._network_factory,
                network_config=self.network_config,
                hyperparameters=self._hyperparameters(),
                partition=self.config.partition,
                rng=self.rng.child("distributed"),
                attestation_service=self.attestation_service,
                provisioner=self._provision_enclave,
                init_generator_factory=self._init_generator,
                checkpoint_root=root,
                cipher=self.config.cipher,
                augment=self.config.augment,
                freeze_schedule=self.trainer.freeze_schedule,
                config_digest=self.config_digest,
                metrics=self.metrics,
                tracer=tracer,
                epc_bytes=self.config.epc_bytes,
                **membership,
            )
            self.distributed_telemetry = self.coordinator.telemetry
            self.coordinator.distribute(list(self.server.submissions))
            self.audit_log.append(
                "distributed-setup", workers=workers,
                aggregator_mrenclave=self.coordinator.aggregator.mrenclave.hex(),
                shards={w.worker_id: w.examples
                        for w in self.coordinator.workers},
            )
            for _ in range(self.config.epochs):
                report = self.coordinator.run(1)[-1]
                self.model.set_weights(self.coordinator.final_weights())
                accuracy = (
                    self.trainer.evaluate(test_x, test_y)
                    if test_x is not None and test_y is not None
                    else {"top1": None, "top2": None}
                )
                reports.append(EpochReport(
                    epoch=report.round,
                    mean_loss=report.mean_loss,
                    top1=accuracy["top1"],
                    top2=accuracy["top2"],
                    partition=self.config.partition,
                    simulated_seconds=report.round_seconds,
                    frontnet_frozen=report.frontnet_frozen,
                ))
                self.audit_log.append(
                    "distributed-round",
                    round=report.round,
                    participating=report.participating,
                    stragglers=report.stragglers,
                    faulted=report.faulted,
                    recovered_masks=report.recovered_masks,
                )
        self.round_reports = self.coordinator.reports
        return reports

    def evaluate(self, test_x: np.ndarray, test_y: np.ndarray):
        """Full classification report of the trained model."""
        if self.model is None:
            raise TrainingError("train() must complete before evaluation")
        from repro.analysis.evaluation import evaluate_classifier

        return evaluate_classifier(self.model, test_x, test_y)

    # -- model release --------------------------------------------------------------

    def release_model(self, participant_id: str) -> Dict[str, bytes]:
        """Release the trained model to one participant (Section IV-B).

        The BackNet travels in the clear; the FrontNet is sealed under the
        participant's provisioned key, so the server provider (and anyone
        else) never holds the complete model — which is also what makes
        fingerprints non-invertible to outsiders.
        """
        if self.partitioned is None:
            raise TrainingError("train() must complete before model release")
        participant = self.participants.get(participant_id)
        if participant is None:
            raise ConfigurationError(f"unknown participant {participant_id!r}")
        from repro.crypto.aead import AesGcm

        cipher = AesGcm(participant.key.material)
        nonce = self.training_enclave.trusted_rng.random_bytes(12)
        sealed_frontnet = self.partitioned.export_frontnet_encrypted(
            cipher, nonce
        )
        # The BackNet: plain weights of layers [partition, n).
        import io

        backnet_arrays = {}
        for i, layer in enumerate(self.partitioned.backnet_layers):
            for name, arr in layer.params().items():
                backnet_arrays[f"layer{i}/{name}"] = arr
        buffer = io.BytesIO()
        np.savez(buffer, **backnet_arrays)
        return {
            "frontnet_nonce": nonce,
            "frontnet_sealed": sealed_frontnet,
            "backnet": buffer.getvalue(),
            "network_config": self.network_config.encode("utf-8"),
        }

    # -- stage 4: fingerprinting ------------------------------------------------------

    def fingerprint_stage(self, kinds_by_source: Optional[Dict[str, np.ndarray]] = None,
                          ) -> LinkageTable:
        """Fingerprint every accepted training instance into one Omega table.

        The audit event commits to the table with the digest a
        :class:`~repro.serving.store.LinkageStore` segment holding exactly
        these rows carries.

        Args:
            kinds_by_source: Optional ground-truth instance kinds per source
                (evaluation only), indexed by the instance's local index.
        """
        if self.model is None:
            raise TrainingError("train() must complete before fingerprinting")
        x, y, sources, indices = self.server.staged_training_data()
        fingerprint_enclave = self.platform.create_enclave("fingerprint-enclave")
        fingerprint_enclave.init()
        # At the training batch size the pass reuses the layers' pooled
        # im2col/GEMM scratch instead of allocating a second, larger set.
        self.fingerprinter = Fingerprinter(
            self.model, enclave=fingerprint_enclave,
            batch_size=self.config.batch_size,
        )
        fingerprints = self.fingerprinter.fingerprint(x)
        # Label Y is the instance's class label under the trained model's
        # label space (the provided training label).
        digests = [instance_digest(x[i]) for i in range(x.shape[0])]
        kinds = None
        if kinds_by_source is not None:
            kinds = [
                str(kinds_by_source[sources[i]][int(indices[i])])
                if sources[i] in kinds_by_source else "normal"
                for i in range(x.shape[0])
            ]
        table = LinkageTable(fingerprints, y, sources, digests,
                             source_indices=indices, kinds=kinds)
        self.audit_log.append(
            "fingerprint-stage",
            records=len(table),
            dimension=table.dimension,
            commitment=segment_digest(table.fingerprints, table.metadata()),
        )
        return table
