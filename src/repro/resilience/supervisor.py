"""The supervised retry runtime for the training stage.

:class:`ResilientTrainer` wraps a :class:`ConfidentialTrainer` in a
watchdog loop: every epoch runs under supervision, faults are classified
(enclave-fatal, EPC pressure, transfer corruption, checkpoint-write
crash), recovery restores the latest *valid* checkpoint, enclave-class
faults additionally rebuild and **re-attest** the training enclave
before any sealed state is unsealed, and retries back off exponentially
on the platform's simulated clock. When the consecutive-fault budget is
exhausted the run fails closed with :class:`TrainingAborted` — a
half-trained model is never silently reported as a finished one.

Graceful degradation: a streak of EPC-pressure faults halves the batch
size (down to a floor) so the FrontNet working set fits, restoring from
an epoch-*boundary* checkpoint (mid-epoch positions do not translate
across batch sizes); once training has been stable for a configured
number of epochs, the original batch size is restored.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, List, Optional

import numpy as np

from repro.core.audit import AuditLog
from repro.core.partitioned_training import ConfidentialTrainer, EpochReport
from repro.enclave.attestation import AttestationService
from repro.enclave.enclave import Enclave
from repro.errors import (AttestationError, CheckpointError,
                          CheckpointWriteCrash, ConfigurationError,
                          EnclaveAbort, EnclaveError, EnclaveMemoryError,
                          EpcPressureError, TrainingAborted,
                          TransferIntegrityError)
from repro.observability.adapter import SubsystemTelemetry
from repro.resilience.checkpoint import (CheckpointManager, TrainingState,
                                         capture_state, restore_state)
from repro.utils.logging import get_logger
from repro.utils.rng import get_generator_state

__all__ = ["RetryPolicy", "classify_fault", "ResilientTrainer"]

_LOG = get_logger("resilience.supervisor")


@dataclass(frozen=True)
class RetryPolicy:
    """Bounds on the supervisor's recovery behaviour.

    Attributes:
        max_retries: Consecutive faults tolerated without completing an
            epoch before the run aborts fail-closed.
        backoff_base_seconds: First retry delay (simulated seconds).
        backoff_factor: Multiplier per consecutive fault.
        backoff_max_seconds: Delay ceiling.
        degrade_after_epc_faults: EPC-pressure streak length that
            triggers a batch-size halving.
        min_batch_size: Floor under graceful degradation.
        restore_batch_size_after: Stable (fault-free) epochs before the
            original batch size is restored.
    """

    max_retries: int = 5
    backoff_base_seconds: float = 1.0
    backoff_factor: float = 2.0
    backoff_max_seconds: float = 60.0
    degrade_after_epc_faults: int = 2
    min_batch_size: int = 8
    restore_batch_size_after: int = 2

    def backoff_seconds(self, attempt: int) -> float:
        """Delay before retry ``attempt`` (1-based), capped."""
        delay = self.backoff_base_seconds * (
            self.backoff_factor ** max(0, attempt - 1)
        )
        return min(delay, self.backoff_max_seconds)


def classify_fault(exc: BaseException) -> Optional[str]:
    """Map an exception to a fault class, or ``None`` for non-faults.

    ``None`` means "this is a bug or a policy violation, not a platform
    fault" — the supervisor re-raises instead of retrying, because
    retrying a deterministic error can only burn the budget and mask the
    defect.
    """
    if isinstance(exc, (EnclaveAbort,)):
        return "enclave"
    if isinstance(exc, (EpcPressureError, EnclaveMemoryError)):
        return "epc"
    if isinstance(exc, TransferIntegrityError):
        return "transfer"
    if isinstance(exc, CheckpointWriteCrash):
        return "checkpoint-write"
    if isinstance(exc, EnclaveError):
        return "enclave"
    return None


class ResilientTrainer:
    """Supervises a :class:`ConfidentialTrainer` with checkpoint recovery.

    Args:
        trainer: The wrapped epoch loop.
        manager: Where checkpoints are written and recovered from.
        enclave_factory: Rebuilds the training enclave after an
            enclave-class fault; must reproduce the agreed MRENCLAVE.
            ``None`` makes enclave faults unrecoverable (aborts once the
            budget would need a rebuild).
        expected_mrenclave: The measurement every rebuilt enclave must
            carry; defaults to the current enclave's measurement.
        attestation_service: When given, every rebuilt enclave is
            re-attested (quote verification) before it touches sealed
            state — recovery is held to the same bar as registration.
        policy: Retry/degradation bounds.
        telemetry: Counter sink; one is created if omitted.
        audit_provider: Returns the live audit log so fault/recovery
            events land on the accountability chain and checkpoints
            carry the full history.
        on_enclave_rebuilt: Hook so the embedding system (e.g.
            :class:`~repro.core.caltrain.CalTrain`) can re-point its own
            references at the replacement enclave.
        on_restore: Hook fired after a checkpoint restore with the
            restored state (e.g. to adopt the checkpointed audit log on
            cross-process resume).
    """

    def __init__(self, trainer: ConfidentialTrainer,
                 manager: CheckpointManager,
                 enclave_factory: Optional[Callable[[], Enclave]] = None,
                 expected_mrenclave: Optional[bytes] = None,
                 attestation_service: Optional[AttestationService] = None,
                 policy: Optional[RetryPolicy] = None,
                 telemetry: Optional[SubsystemTelemetry] = None,
                 audit_provider: Optional[Callable[[], AuditLog]] = None,
                 on_enclave_rebuilt: Optional[Callable[[Enclave], None]] = None,
                 on_restore: Optional[Callable[[TrainingState], None]] = None,
                 ) -> None:
        self.trainer = trainer
        self.manager = manager
        self.enclave_factory = enclave_factory
        self.attestation_service = attestation_service
        self.policy = policy or RetryPolicy()
        self.telemetry = telemetry or SubsystemTelemetry("resilience")
        if self.manager.metrics is None:
            # Checkpoint I/O metrics land in the same registry as the run
            # telemetry, so one export covers the whole resilient run.
            self.manager.metrics = self.telemetry.registry
        self.audit_provider = audit_provider
        self.on_enclave_rebuilt = on_enclave_rebuilt
        self.on_restore = on_restore
        enclave = trainer.partitioned.enclave
        if enclave is None:
            raise ConfigurationError(
                "ResilientTrainer requires an enclave-backed network"
            )
        self.expected_mrenclave = expected_mrenclave or enclave.mrenclave
        self._epoch = 0
        self._epoch_start_rng = None
        self._checkpoint_every: Optional[int] = None
        self._n_examples = 0
        self._original_batch_size = trainer.batch_size

    # -- small helpers -----------------------------------------------------------

    def _audit(self, event: str, **details) -> None:
        if self.audit_provider is not None:
            self.audit_provider().append(event, **details)

    def _audit_bytes(self) -> bytes:
        if self.audit_provider is None:
            return b""
        return self.audit_provider().to_bytes()

    def _enclave(self) -> Enclave:
        enclave = self.trainer.partitioned.enclave
        assert enclave is not None
        return enclave

    def _checkpoint(self, epoch: int, batch: int,
                    carried_losses: Optional[List[float]] = None) -> None:
        state = capture_state(
            self.trainer, epoch=epoch, batch=batch,
            batch_rng_state=(self._epoch_start_rng if batch > 0 else None),
            carried_losses=carried_losses,
            audit_bytes=self._audit_bytes(),
        )
        started = time.perf_counter()
        path = self.manager.save(state, self._enclave())
        self.telemetry.observe("checkpoint_save", time.perf_counter() - started)
        self.telemetry.count("checkpoints_written")
        self.telemetry.count(
            "checkpoint_bytes",
            sum(f.stat().st_size for f in path.iterdir() if f.is_file()),
        )

    def _batch_callback(self, phase: str, epoch: int, batch: int,
                        losses: List[float]) -> None:
        if phase == "start":
            return
        done = batch + 1
        if (self._checkpoint_every
                and done % self._checkpoint_every == 0
                and done * self.trainer.batch_size < self._n_examples):
            self._checkpoint(epoch, done, carried_losses=list(losses))

    # -- recovery ----------------------------------------------------------------

    def _rebuild_enclave(self) -> None:
        if self.enclave_factory is None:
            raise TrainingAborted(
                "enclave-class fault with no enclave factory configured; "
                "cannot rebuild, aborting fail-closed"
            )
        replacement = self.enclave_factory()
        if self.attestation_service is not None:
            try:
                self.attestation_service.verify(
                    replacement.quote(b"resilience-rebuild"),
                    expected_mrenclave=self.expected_mrenclave,
                )
            except AttestationError as exc:
                raise TrainingAborted(
                    f"rebuilt enclave failed re-attestation: {exc}"
                ) from exc
        elif replacement.mrenclave != self.expected_mrenclave:
            raise TrainingAborted(
                "rebuilt enclave measurement differs from the agreed "
                "MRENCLAVE; aborting fail-closed"
            )
        self.trainer.rebind_enclave(replacement)
        self.telemetry.count("enclave_rebuilds")
        self._audit("enclave-rebuilt",
                    mrenclave=replacement.mrenclave.hex())
        if self.on_enclave_rebuilt is not None:
            self.on_enclave_rebuilt(replacement)

    def _restore_latest(self, boundary_only: bool = False) -> TrainingState:
        """Restore the newest loadable checkpoint; skip broken ones."""
        predicate = (lambda info: info.batch == 0) if boundary_only else None
        candidates = [
            info for info in reversed(self.manager.checkpoints())
            if predicate is None or predicate(info)
        ]
        for info in candidates:
            try:
                started = time.perf_counter()
                state = self.manager.load(info, self._enclave())
                restore_state(self.trainer, state)
                self.telemetry.observe(
                    "checkpoint_restore", time.perf_counter() - started
                )
                self.telemetry.count("restores")
                self._audit("checkpoint-restored",
                            checkpoint=info.path.name,
                            epoch=info.epoch, batch=info.batch)
                if self.on_restore is not None:
                    self.on_restore(state)
                return state
            except CheckpointError as exc:
                _LOG.warning("checkpoint %s unusable during recovery: %s",
                             info.path.name, exc)
                self.telemetry.count("restore_rejects")
        raise TrainingAborted(
            "no usable checkpoint to recover from; aborting fail-closed"
        )

    # -- the supervised loop -----------------------------------------------------

    def run(self, x: np.ndarray, y: np.ndarray, epochs: int,
            test_x: Optional[np.ndarray] = None,
            test_y: Optional[np.ndarray] = None,
            resume: bool = False,
            checkpoint_every_batches: Optional[int] = None,
            ) -> List[EpochReport]:
        """Train to ``epochs`` under supervision; returns the epoch reports.

        ``resume=True`` continues from the newest valid checkpoint in the
        manager's directory (a no-op to a fresh start when none exists).
        ``checkpoint_every_batches`` adds mid-epoch checkpoints on top of
        the always-on epoch-boundary ones.
        """
        if checkpoint_every_batches is not None and checkpoint_every_batches <= 0:
            raise ConfigurationError(
                "checkpoint_every_batches must be positive"
            )
        trainer = self.trainer
        self._checkpoint_every = checkpoint_every_batches
        self._n_examples = int(x.shape[0])
        self._original_batch_size = trainer.batch_size

        start_batch = 0
        carried: List[float] = []
        self._epoch = 0
        if resume:
            if self.manager.latest() is not None:
                state = self._restore_latest()
                self._epoch = state.epoch
                start_batch = state.batch
                carried = list(state.carried_losses)
                self._audit("training-resumed", epoch=state.epoch,
                            batch=state.batch)
            else:
                self._checkpoint(0, 0)
        else:
            # Epoch-0 checkpoint so recovery works from the first fault on.
            self._checkpoint(0, 0)

        consecutive_faults = 0
        epc_streak = 0
        stable_epochs = 0
        while self._epoch < epochs:
            epoch = self._epoch
            # With start_batch > 0 the restore already rewound batch_rng to
            # its epoch-start state, so this capture is correct either way.
            self._epoch_start_rng = get_generator_state(trainer.batch_rng)
            try:
                trainer.run_epoch(
                    x, y, epoch, test_x=test_x, test_y=test_y,
                    start_batch=start_batch, carried_losses=carried,
                    batch_callback=self._batch_callback,
                )
                self._epoch = epoch + 1
                self._checkpoint(self._epoch, 0)
            except Exception as exc:  # noqa: BLE001 — classified below
                kind = classify_fault(exc)
                if kind is None:
                    raise
                consecutive_faults += 1
                epc_streak = epc_streak + 1 if kind == "epc" else 0
                stable_epochs = 0
                self.telemetry.count(f"fault_{kind}")
                self.telemetry.count("retries")
                self._audit("training-fault", fault=kind, epoch=epoch,
                            detail=str(exc))
                _LOG.warning("fault (%s) at epoch %d: %s", kind, epoch, exc)
                if consecutive_faults > self.policy.max_retries:
                    raise TrainingAborted(
                        f"retry budget exhausted after {consecutive_faults} "
                        f"consecutive faults (last: {kind}: {exc})"
                    ) from exc
                self._enclave().platform.clock.advance(
                    self.policy.backoff_seconds(consecutive_faults)
                )
                if kind in ("enclave", "epc"):
                    self._rebuild_enclave()
                degrade = (
                    epc_streak >= self.policy.degrade_after_epc_faults
                    and trainer.batch_size > self.policy.min_batch_size
                )
                state = self._restore_latest(boundary_only=degrade)
                if degrade:
                    new_size = max(self.policy.min_batch_size,
                                   trainer.batch_size // 2)
                    _LOG.warning(
                        "EPC pressure streak: degrading batch size %d -> %d",
                        trainer.batch_size, new_size,
                    )
                    trainer.batch_size = new_size
                    self.telemetry.count("batch_size_degradations")
                    self._audit("batch-size-degraded", size=new_size)
                    epc_streak = 0
                self._epoch = state.epoch
                start_batch = state.batch
                carried = list(state.carried_losses)
                continue
            # Epoch (and its boundary checkpoint) completed cleanly.
            consecutive_faults = 0
            epc_streak = 0
            start_batch = 0
            carried = []
            if trainer.batch_size != self._original_batch_size:
                stable_epochs += 1
                if stable_epochs >= self.policy.restore_batch_size_after:
                    _LOG.info("stable again: restoring batch size %d",
                              self._original_batch_size)
                    trainer.batch_size = self._original_batch_size
                    self.telemetry.count("batch_size_restorations")
                    self._audit("batch-size-restored",
                                size=self._original_batch_size)
                    stable_epochs = 0
        return trainer.reports
