"""The confidential training loop (the paper's training stage).

Drives partitioned mini-batch SGD over the decrypted (in-enclave) training
data: trusted-RNG-driven shuffling and augmentation, FrontNet in the
enclave, BackNet outside, per-epoch accuracy evaluation, per-epoch model
snapshots for the dynamic exposure re-assessment, and simulated-time
accounting for the performance experiments.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.analysis.metrics import top_k_accuracy
from repro.core.freezing import FreezeSchedule
from repro.core.partition import PartitionedNetwork
from repro.data.augmentation import Augmenter
from repro.data.batching import iterate_minibatches
from repro.nn.network import Network
from repro.nn.optimizers import Optimizer, Sgd
from repro.observability.tracing import Tracer
from repro.utils.logging import get_logger

__all__ = ["EpochReport", "ConfidentialTrainer", "build_replica"]

_LOG = get_logger("core.training")

#: Reusable no-op context for the untraced path (nullcontext is stateless).
_NO_TRACE = nullcontext()


@dataclass
class EpochReport:
    """Per-epoch training statistics."""

    epoch: int
    mean_loss: float
    top1: Optional[float]
    top2: Optional[float]
    partition: int
    simulated_seconds: float
    frontnet_frozen: bool = False


class ConfidentialTrainer:
    """Epoch loop over a :class:`PartitionedNetwork`.

    Args:
        partitioned: The (possibly enclave-backed) partitioned network.
        optimizer: Applied to both halves each batch.
        augmenter: In-enclave augmentation; ``None`` disables it.
        batch_size: Mini-batch size.
        freeze_schedule: Optional bottom-up FrontNet freezing.
        on_epoch_end: Hook ``(epoch, trainer) -> None`` — CalTrain's dynamic
            partition re-assessment runs here.
    """

    def __init__(self, partitioned: PartitionedNetwork, optimizer: Optimizer,
                 batch_rng: np.random.Generator,
                 augmenter: Optional[Augmenter] = None, batch_size: int = 32,
                 freeze_schedule: Optional[FreezeSchedule] = None,
                 on_epoch_end: Optional[Callable[[int, "ConfidentialTrainer"], None]] = None,
                 ) -> None:
        self.partitioned = partitioned
        self.optimizer = optimizer
        self.batch_rng = batch_rng
        self.augmenter = augmenter
        self.batch_size = batch_size
        self.freeze_schedule = freeze_schedule
        self.on_epoch_end = on_epoch_end
        self.reports: List[EpochReport] = []
        #: Per-epoch weight snapshots (semi-trained models) for assessment.
        self.snapshots: List[List[Dict[str, np.ndarray]]] = []
        #: Optional tracer; set via :meth:`bind_observability`. Epochs and
        #: batches become parent spans over the partitioned network's
        #: enclave/boundary/untrusted spans.
        self.tracer: Optional[Tracer] = None

    def bind_observability(self, tracer: Optional[Tracer] = None,
                           metrics=None) -> None:
        """Trace this trainer (and its partitioned network's hot path)."""
        self.tracer = tracer
        self.partitioned.bind_observability(tracer=tracer, metrics=metrics)

    def rebind_enclave(self, enclave) -> None:
        """Re-point the whole training stack at a freshly built enclave.

        The recovery path after an enclave-class fault: the partitioned
        network, dropout, augmentation and batch shuffling all draw from
        the replacement's trusted RNG from here on (a checkpoint restore
        then rewinds those streams to their saved states).
        """
        self.partitioned.rebind_enclave(enclave)
        self._draw_from(enclave)

    def _draw_from(self, enclave) -> None:
        """Dropout, augmentation and batch shuffling draw from ``enclave``'s
        trusted RNG."""
        self.partitioned.network.set_dropout_rng(enclave.trusted_rng.generator)
        if self.augmenter is not None:
            self.augmenter.rng = enclave.trusted_rng.generator
        self.batch_rng = enclave.trusted_rng.stream.child("batches").generator

    def _simulated_now(self) -> float:
        if self.partitioned.enclave is None:
            return 0.0
        return self.partitioned.enclave.platform.clock.now

    def train_epoch(self, x: np.ndarray, y: np.ndarray, epoch: int,
                    start_batch: int = 0,
                    carried_losses: Optional[Sequence[float]] = None,
                    batch_callback: Optional[
                        Callable[[str, int, int, List[float]], None]] = None,
                    ) -> Tuple[float, bool]:
        """One epoch of partitioned mini-batch SGD.

        Returns ``(mean_loss, frontnet_frozen)`` — the frozen flag that
        actually governed the epoch, so the report can never disagree with
        what ran.

        ``start_batch``/``carried_losses`` resume an interrupted epoch:
        the caller must first restore :attr:`batch_rng` to the state it had
        when the epoch originally started, so the shuffle permutation
        replays and the remaining batches are bitwise-identical to the
        uninterrupted run. ``carried_losses`` are the per-batch losses the
        interrupted attempt already banked; they count toward the mean.

        ``batch_callback(phase, epoch, batch, losses)`` fires with phase
        ``"start"`` before and ``"end"`` after every batch — the resilience
        runtime's mid-epoch checkpoint hook.
        """
        frozen = False
        if self.freeze_schedule is not None:
            frozen = self.freeze_schedule.apply(self.partitioned, epoch)
        losses = list(carried_losses) if carried_losses else []
        batch = start_batch
        epoch_span = (
            self.tracer.span(f"epoch-{epoch}", kind="internal",
                             start_batch=start_batch)
            if self.tracer is not None else _NO_TRACE
        )
        with epoch_span:
            for xb, yb in iterate_minibatches(x, y, self.batch_size,
                                              rng=self.batch_rng,
                                              start_batch=start_batch):
                if batch_callback is not None:
                    batch_callback("start", epoch, batch, losses)
                batch_span = (
                    self.tracer.span(f"batch-{batch}", kind="internal")
                    if self.tracer is not None else _NO_TRACE
                )
                with batch_span:
                    if self.augmenter is not None:
                        xb = self.augmenter.augment_batch(xb)
                    losses.append(
                        self.partitioned.train_batch(xb, yb, self.optimizer)
                    )
                if batch_callback is not None:
                    batch_callback("end", epoch, batch, losses)
                batch += 1
        mean_loss = float(np.mean(losses)) if losses else 0.0
        _LOG.info("epoch %d: loss %.4f%s", epoch, mean_loss,
                  " (frontnet frozen)" if frozen else "")
        return mean_loss, frozen

    def evaluate(self, x: np.ndarray, y: np.ndarray) -> Dict[str, float]:
        probs = self.partitioned.network.predict(x)
        return {
            "top1": top_k_accuracy(probs, y, k=1),
            "top2": top_k_accuracy(probs, y, k=2),
        }

    def run_epoch(self, x: np.ndarray, y: np.ndarray, epoch: int,
                  test_x: Optional[np.ndarray] = None,
                  test_y: Optional[np.ndarray] = None,
                  keep_snapshots: bool = False,
                  start_batch: int = 0,
                  carried_losses: Optional[Sequence[float]] = None,
                  batch_callback: Optional[
                      Callable[[str, int, int, List[float]], None]] = None,
                  ) -> EpochReport:
        """One complete epoch: train, evaluate, report, bookkeep.

        Encapsulates everything :meth:`train` does per iteration so that a
        resumable/supervised runtime can drive epochs one at a time and
        re-enter mid-epoch. Appends to :attr:`reports` and returns the
        epoch's report. The frozen flag in the report is the one
        :meth:`train_epoch` actually applied — a single source of truth.
        """
        clock_start = self._simulated_now()
        mean_loss, frozen = self.train_epoch(
            x, y, epoch, start_batch=start_batch,
            carried_losses=carried_losses, batch_callback=batch_callback,
        )
        accuracy = (
            self.evaluate(test_x, test_y)
            if test_x is not None and test_y is not None
            else {"top1": None, "top2": None}
        )
        report = EpochReport(
            epoch=epoch,
            mean_loss=mean_loss,
            top1=accuracy["top1"],
            top2=accuracy["top2"],
            partition=self.partitioned.partition,
            simulated_seconds=self._simulated_now() - clock_start,
            frontnet_frozen=frozen,
        )
        self.reports.append(report)
        if keep_snapshots:
            self.snapshots.append(self.partitioned.network.get_weights())
        if self.on_epoch_end is not None:
            self.on_epoch_end(epoch, self)
        return report

    def train(self, x: np.ndarray, y: np.ndarray, epochs: int,
              test_x: Optional[np.ndarray] = None,
              test_y: Optional[np.ndarray] = None,
              keep_snapshots: bool = False) -> List[EpochReport]:
        """The full training stage; returns the per-epoch reports."""
        for epoch in range(epochs):
            self.run_epoch(x, y, epoch, test_x=test_x, test_y=test_y,
                           keep_snapshots=keep_snapshots)
        return self.reports


def build_replica(network_factory: Callable[[np.random.Generator], Network],
                  init_generator: np.random.Generator, enclave, *,
                  partition: int, hyperparameters: Dict[str, float],
                  augment: bool = False,
                  freeze_schedule: Optional[FreezeSchedule] = None,
                  on_epoch_end: Optional[
                      Callable[[int, ConfidentialTrainer], None]] = None,
                  ) -> ConfidentialTrainer:
    """One training replica: the model, its FrontNet in ``enclave``, a trainer.

    The model comes from ``init_generator``, so replicas built from equally
    seeded generators start bitwise identical. Dropout, augmentation and
    batch shuffling draw from the enclave's trusted RNG. Batch size,
    learning rate and momentum are read from ``hyperparameters``, the dict
    measured into the enclave's MRENCLAVE, so the attested agreement
    describes the training that runs.
    """
    network = network_factory(init_generator)
    trainer = ConfidentialTrainer(
        PartitionedNetwork(network, partition, enclave=enclave),
        Sgd(hyperparameters["learning_rate"], hyperparameters["momentum"]),
        batch_rng=None,
        augmenter=Augmenter(rng=None) if augment else None,
        batch_size=hyperparameters["batch_size"],
        freeze_schedule=freeze_schedule,
        on_epoch_end=on_epoch_end,
    )
    trainer._draw_from(enclave)
    return trainer
