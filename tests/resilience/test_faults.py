"""Fault-plan tests: scheduling, determinism, and each injection point."""

import numpy as np
import pytest

from repro.enclave.enclave import EnclaveState
from repro.errors import (CheckpointWriteCrash, ConfigurationError,
                          EnclaveAbort, EpcPressureError,
                          TransferIntegrityError)
from repro.resilience import CheckpointManager, capture_state
from repro.resilience.faults import FaultPlan, FaultSpec

from tests.resilience.worlds import SupervisedWorld


class TestFaultSpec:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigurationError):
            FaultSpec("meteor-strike", epoch=0)

    def test_negative_coordinates_rejected(self):
        with pytest.raises(ConfigurationError):
            FaultSpec("enclave-abort", epoch=-1)
        with pytest.raises(ConfigurationError):
            FaultSpec("enclave-abort", epoch=0, batch=-1)


class TestSeededPlans:
    def test_same_seed_same_schedule(self):
        first = FaultPlan.seeded(5, epochs=4, batches_per_epoch=6)
        second = FaultPlan.seeded(5, epochs=4, batches_per_epoch=6)
        assert sorted(first._pending) == sorted(second._pending)
        specs = lambda plan: sorted(
            (s.kind, s.epoch, s.batch)
            for group in plan._pending.values() for s in group
        )
        assert specs(first) == specs(second)

    def test_different_seed_different_schedule(self):
        first = FaultPlan.seeded(5, epochs=10, batches_per_epoch=10,
                                 n_faults=5)
        second = FaultPlan.seeded(6, epochs=10, batches_per_epoch=10,
                                  n_faults=5)
        specs = lambda plan: sorted(
            (s.kind, s.epoch, s.batch)
            for group in plan._pending.values() for s in group
        )
        assert specs(first) != specs(second)

    def test_bad_dimensions_rejected(self):
        with pytest.raises(ConfigurationError):
            FaultPlan.seeded(1, epochs=0, batches_per_epoch=4)
        with pytest.raises(ConfigurationError):
            FaultPlan.seeded(1, epochs=2, batches_per_epoch=4,
                             kinds=["nonsense"])

    def test_kinds_restricted(self):
        plan = FaultPlan.seeded(3, epochs=8, batches_per_epoch=8, n_faults=6,
                                kinds=["epc-pressure"])
        assert all(s.kind == "epc-pressure"
                   for group in plan._pending.values() for s in group)


class TestCollisions:
    @pytest.mark.parametrize("second", ["enclave-abort", "epc-pressure"])
    def test_two_raising_faults_at_one_point_rejected(self, second):
        """Only one of them could raise; the other would be recorded as
        fired without ever happening."""
        with pytest.raises(ConfigurationError, match="two raising faults"):
            FaultPlan([FaultSpec("enclave-abort", epoch=1, batch=2),
                       FaultSpec(second, epoch=1, batch=2)])
        with pytest.raises(ConfigurationError, match="two raising faults"):
            FaultPlan([FaultSpec("worker-crash", 0, 1, worker="w1"),
                       FaultSpec("worker-crash", 0, 1, worker="w1")])

    def test_raising_and_arming_faults_may_share_a_point(self):
        plan = FaultPlan([FaultSpec("epc-pressure", epoch=1, batch=2),
                          FaultSpec("checkpoint-crash", epoch=1, batch=2),
                          FaultSpec("enclave-abort", epoch=1, batch=3)])
        assert plan.remaining == 3

    def test_worker_kinds_need_a_worker_and_the_rest_take_none(self):
        with pytest.raises(ConfigurationError):
            FaultSpec("worker-crash", epoch=0)
        with pytest.raises(ConfigurationError):
            FaultSpec("enclave-abort", epoch=0, worker="w0")


def _train_epoch(world, epoch):
    return world.trainer.train_epoch(world.train.x, world.train.y, epoch)


class TestInjectionPoints:
    def test_enclave_abort_destroys_enclave_and_fires_once(self):
        world = SupervisedWorld()
        plan = FaultPlan([FaultSpec("enclave-abort", epoch=0, batch=1)])
        with plan:
            assert plan.remaining == 1
            with pytest.raises(EnclaveAbort):
                _train_epoch(world, 0)  # batch 0 passes, batch 1 aborts
            assert world.enclave.state is EnclaveState.DESTROYED
            assert plan.remaining == 0
            assert [s.kind for s in plan.fired] == ["enclave-abort"]
            world.trainer.rebind_enclave(world.rebuild_enclave())
            _train_epoch(world, 0)  # already fired: no-op

    def test_epc_pressure_raises(self):
        world = SupervisedWorld()
        with FaultPlan([FaultSpec("epc-pressure", epoch=2, batch=0)]):
            with pytest.raises(EpcPressureError):
                _train_epoch(world, 2)

    @pytest.mark.parametrize("kind", ["ir-corrupt", "delta-corrupt"])
    def test_boundary_corruption_caught_by_transfer_checksums(self, kind):
        world = SupervisedWorld()
        with FaultPlan([FaultSpec(kind, epoch=0, batch=0)]):
            # Raised by PartitionedNetwork._receive, not by the injector.
            with pytest.raises(TransferIntegrityError,
                               match=kind.split("-")[0]):
                _train_epoch(world, 0)

    def test_corruption_fires_once_then_transfers_recover(self):
        world = SupervisedWorld()
        partitioned = world.trainer.partitioned
        with FaultPlan([FaultSpec("ir-corrupt", epoch=0, batch=0)]):
            with pytest.raises(TransferIntegrityError):
                _train_epoch(world, 0)
            # Disarmed after one strike: the retry goes through clean.
            partitioned.forward(world.train.x[:4], training=True)

    def test_checkpoint_crash_leaves_torn_directory(self, tmp_path):
        world = SupervisedWorld()
        world.trainer.train(world.train.x, world.train.y, 1)
        plan = FaultPlan([FaultSpec("checkpoint-crash", epoch=1, batch=0)])
        manager = CheckpointManager(tmp_path)
        with plan:
            _train_epoch(world, 1)  # arms the crash
            state = capture_state(world.trainer, epoch=2, batch=0)
            with pytest.raises(CheckpointWriteCrash):
                manager.save(state, world.enclave)
            # Torn directory on disk, but not a valid checkpoint.
            assert len(list(tmp_path.iterdir())) == 1
            assert manager.checkpoints() == []
            # The crash fires once; the retry succeeds under a fresh seq.
            path = manager.save(state, world.enclave)
        assert manager.latest() is not None
        assert path.name.startswith("ckpt-000001")
