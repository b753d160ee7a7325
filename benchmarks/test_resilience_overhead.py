"""Resilience runtime overhead: checkpointing cost and recovery latency.

The ROADMAP's robustness goal is that fault tolerance must be affordable:
sealed checkpoints ride along with training without distorting it. This
bench measures

* **checkpoint overhead** — wall-time cost of running the supervised
  loop with epoch-boundary + mid-epoch checkpoints versus the bare
  trainer, on identical seeds (the model output is bitwise identical, so
  any delta is pure runtime overhead);
* **recovery latency** — how long a restore (enclave rebuild included)
  takes when a chaos schedule aborts the enclave mid-run;
* **checkpoint footprint** — bytes on disk per checkpoint stay bounded.

Set ``REPRO_BENCH_SMOKE=1`` for the reduced CI configuration.
"""

import os
import time

import numpy as np
import pytest

from repro.core.partition import PartitionedNetwork
from repro.core.partitioned_training import ConfidentialTrainer
from repro.data.datasets import synthetic_cifar
from repro.enclave.platform import SgxPlatform
from repro.nn.optimizers import Sgd
from repro.nn.zoo import tiny_testnet
from repro.resilience import CheckpointManager, ResilientTrainer
from repro.resilience.faults import FaultPlan, FaultSpec
from repro.utils.rng import RngStream

SMOKE = os.environ.get("REPRO_BENCH_SMOKE") == "1"
EPOCHS = 2 if SMOKE else 4
N_TRAIN = 96 if SMOKE else 256
BATCH = 16


def _build(seed=4242):
    stream = RngStream(seed, "resilience-bench")
    platform = SgxPlatform(rng=stream.child("platform"))
    enclave = platform.create_enclave("train")
    enclave.init()
    net = tiny_testnet(stream.child("net").generator)
    net.set_dropout_rng(enclave.trusted_rng.generator)
    trainer = ConfidentialTrainer(
        PartitionedNetwork(net, 1, enclave), Sgd(0.05, 0.9),
        batch_rng=enclave.trusted_rng.stream.child("batches").generator,
        batch_size=BATCH,
    )
    train, _ = synthetic_cifar(stream.child("data"), num_train=N_TRAIN,
                               num_test=32, num_classes=4, shape=(8, 8, 3))
    return trainer, enclave, platform, train


class TestResilienceOverhead:
    def test_checkpointing_overhead_is_bounded(self, tmp_path):
        trainer_bare, _, _, train = _build()
        started = time.perf_counter()
        bare_reports = trainer_bare.train(train.x, train.y, EPOCHS)
        bare_seconds = time.perf_counter() - started

        trainer_ck, _, _, train = _build()
        resilient = ResilientTrainer(trainer_ck, CheckpointManager(tmp_path))
        started = time.perf_counter()
        ck_reports = resilient.run(train.x, train.y, EPOCHS,
                                   checkpoint_every_batches=2)
        ck_seconds = time.perf_counter() - started

        # Same model, so the comparison is apples to apples.
        assert [r.mean_loss for r in ck_reports] == \
            [r.mean_loss for r in bare_reports]
        # Checkpointing every 2 batches is the aggressive end; even there
        # the supervised run must stay within 3x of the bare loop.
        assert ck_seconds < max(3.0 * bare_seconds, bare_seconds + 2.0), (
            f"checkpointing overhead too high: bare {bare_seconds:.3f}s "
            f"vs supervised {ck_seconds:.3f}s"
        )
        counters = resilient.telemetry.snapshot()["counters"]
        assert counters["checkpoints_written"] >= EPOCHS + 1

    def test_recovery_latency_and_footprint(self, tmp_path):
        trainer, _, platform, train = _build()
        plan = FaultPlan([FaultSpec("enclave-abort", epoch=1, batch=1)])

        def rebuild():
            enclave = platform.create_enclave("train")
            enclave.init()
            return enclave

        resilient = ResilientTrainer(trainer, CheckpointManager(tmp_path),
                                     enclave_factory=rebuild)
        with plan:
            resilient.run(train.x, train.y, EPOCHS,
                          checkpoint_every_batches=2)
        snapshot = resilient.telemetry.snapshot()
        assert snapshot["counters"]["enclave_rebuilds"] == 1
        restore = snapshot["stages"]["checkpoint_restore"]
        assert restore["count"] >= 1
        assert restore["max"] < 5.0, "restore latency above 5s"
        per_checkpoint = (snapshot["counters"]["checkpoint_bytes"]
                          / snapshot["counters"]["checkpoints_written"])
        # tiny_testnet weights are ~60KB; sealed + plain + manifest must
        # stay in the same order of magnitude, not blow up.
        assert per_checkpoint < 512 * 1024
