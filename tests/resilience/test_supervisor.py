"""Supervised retry runtime tests: parity, recovery, budgets, degradation."""

from contextlib import nullcontext

import pytest

from repro.enclave.attestation import AttestationService
from repro.errors import (CheckpointWriteCrash, ConfigurationError,
                          EnclaveAbort, EnclaveLifecycleError,
                          EnclaveMemoryError, EpcPressureError,
                          TrainingAborted, TransferIntegrityError)
from repro.resilience import (CheckpointManager, ResilientTrainer,
                              RetryPolicy, classify_fault)
from repro.resilience.faults import FaultPlan, FaultSpec

from tests.resilience.worlds import (EPOCHS, SupervisedWorld,
                                     assert_same_weights, losses)


@pytest.fixture(scope="module")
def baseline():
    """Uninterrupted, uncheckpointed training: the parity ground truth."""
    world = SupervisedWorld()
    reports = world.trainer.train(world.train.x, world.train.y, EPOCHS,
                                  test_x=world.test.x, test_y=world.test.y)
    return losses(reports), world.weights()


def _supervised(world, tmp_path, **kwargs):
    return ResilientTrainer(
        world.trainer, CheckpointManager(tmp_path),
        enclave_factory=world.rebuild_enclave, **kwargs,
    )


def _run(resilient, world, plan=None, **kwargs):
    """Run under supervision, with ``plan`` armed from outside."""
    with plan or nullcontext():
        return resilient.run(world.train.x, world.train.y, EPOCHS,
                             test_x=world.test.x, test_y=world.test.y,
                             **kwargs)


class TestClassification:
    def test_fault_taxonomy(self):
        assert classify_fault(EnclaveAbort("x")) == "enclave"
        assert classify_fault(EpcPressureError("x")) == "epc"
        assert classify_fault(EnclaveMemoryError("x")) == "epc"
        assert classify_fault(TransferIntegrityError("x")) == "transfer"
        assert classify_fault(CheckpointWriteCrash("x")) == "checkpoint-write"
        assert classify_fault(EnclaveLifecycleError("x")) == "enclave"
        assert classify_fault(ValueError("x")) is None

    def test_backoff_grows_and_caps(self):
        policy = RetryPolicy(backoff_base_seconds=1.0, backoff_factor=2.0,
                             backoff_max_seconds=5.0)
        assert policy.backoff_seconds(1) == 1.0
        assert policy.backoff_seconds(2) == 2.0
        assert policy.backoff_seconds(3) == 4.0
        assert policy.backoff_seconds(4) == 5.0  # capped


class TestParity:
    def test_supervised_run_matches_unsupervised(self, tmp_path, baseline):
        base_losses, base_weights = baseline
        world = SupervisedWorld()
        reports = _run(_supervised(world, tmp_path), world,
                       checkpoint_every_batches=2)
        assert losses(reports) == base_losses
        assert_same_weights(world.weights(), base_weights)

    def test_faulted_run_matches_baseline(self, tmp_path, baseline):
        """Transfer corruption and a torn checkpoint write leave no trace
        in the trained model."""
        base_losses, base_weights = baseline
        world = SupervisedWorld()
        plan = FaultPlan([
            FaultSpec("ir-corrupt", epoch=0, batch=2),
            FaultSpec("checkpoint-crash", epoch=1, batch=1),
            FaultSpec("delta-corrupt", epoch=2, batch=4),
        ])
        resilient = _supervised(world, tmp_path)
        reports = _run(resilient, world, plan, checkpoint_every_batches=2)
        assert losses(reports) == base_losses
        assert_same_weights(world.weights(), base_weights)
        assert plan.remaining == 0
        counters = resilient.telemetry.snapshot()["counters"]
        assert counters["fault_transfer"] == 2
        assert counters["fault_checkpoint-write"] == 1
        assert counters["restores"] >= 3

    def test_enclave_abort_rebuild_matches_baseline(self, tmp_path, baseline):
        base_losses, base_weights = baseline
        world = SupervisedWorld()
        plan = FaultPlan([FaultSpec("enclave-abort", epoch=1, batch=3)])
        resilient = _supervised(world, tmp_path)
        reports = _run(resilient, world, plan, checkpoint_every_batches=2)
        assert losses(reports) == base_losses
        assert_same_weights(world.weights(), base_weights)
        assert resilient.telemetry.counter("enclave_rebuilds") == 1

    def test_kill_and_resume_matches_baseline(self, tmp_path, baseline):
        """A run aborted mid-epoch resumes in a fresh process bitwise."""
        base_losses, base_weights = baseline
        first = SupervisedWorld()
        plan = FaultPlan([FaultSpec("enclave-abort", epoch=1, batch=3)])
        with pytest.raises(TrainingAborted):
            _run(_supervised(first, tmp_path,
                             policy=RetryPolicy(max_retries=0)),
                 first, plan, checkpoint_every_batches=2)
        second = SupervisedWorld()  # identically-seeded fresh process
        reports = _run(_supervised(second, tmp_path), second, resume=True,
                       checkpoint_every_batches=2)
        assert losses(reports) == base_losses
        assert_same_weights(second.weights(), base_weights)

    @pytest.mark.parametrize("epoch", range(EPOCHS))
    def test_resume_from_every_epoch_boundary(self, tmp_path, baseline,
                                              epoch):
        base_losses, base_weights = baseline
        first = SupervisedWorld()
        plan = FaultPlan([FaultSpec("enclave-abort", epoch=epoch, batch=0)])
        with pytest.raises(TrainingAborted):
            _run(_supervised(first, tmp_path,
                             policy=RetryPolicy(max_retries=0)), first, plan)
        second = SupervisedWorld()
        reports = _run(_supervised(second, tmp_path), second, resume=True)
        assert losses(reports) == base_losses
        assert_same_weights(second.weights(), base_weights)


class TestFailClosed:
    def test_retry_budget_exhaustion_aborts(self, tmp_path):
        world = SupervisedWorld()
        plan = FaultPlan([FaultSpec("ir-corrupt", epoch=0, batch=1)])
        with pytest.raises(TrainingAborted, match="retry budget"):
            _run(_supervised(world, tmp_path,
                             policy=RetryPolicy(max_retries=0)), world, plan)

    def test_non_fault_exceptions_re_raised(self, tmp_path):
        world = SupervisedWorld()
        resilient = _supervised(world, tmp_path)

        def boom(*args, **kwargs):
            raise ValueError("a bug, not a fault")

        world.trainer.run_epoch = boom
        with pytest.raises(ValueError):
            _run(resilient, world)

    def test_enclave_fault_without_factory_aborts(self, tmp_path):
        world = SupervisedWorld()
        plan = FaultPlan([FaultSpec("enclave-abort", epoch=0, batch=1)])
        resilient = ResilientTrainer(
            world.trainer, CheckpointManager(tmp_path),
        )
        with pytest.raises(TrainingAborted, match="factory"):
            _run(resilient, world, plan)

    def test_rebuilt_enclave_measurement_must_match(self, tmp_path):
        world = SupervisedWorld()
        plan = FaultPlan([FaultSpec("enclave-abort", epoch=0, batch=1)])

        def imposter_factory():
            enclave = world.platform.create_enclave("imposter")
            enclave.init()
            return enclave

        resilient = ResilientTrainer(
            world.trainer, CheckpointManager(tmp_path),
            enclave_factory=imposter_factory,
        )
        with pytest.raises(TrainingAborted, match="MRENCLAVE"):
            _run(resilient, world, plan)

    def test_rebuilt_enclave_is_re_attested(self, tmp_path):
        world = SupervisedWorld()
        service = AttestationService()
        service.register_platform(world.platform.platform_id,
                                  world.platform.platform_key)
        plan = FaultPlan([FaultSpec("enclave-abort", epoch=0, batch=1)])

        def imposter_factory():
            enclave = world.platform.create_enclave("imposter")
            enclave.init()
            return enclave

        resilient = ResilientTrainer(
            world.trainer, CheckpointManager(tmp_path),
            enclave_factory=imposter_factory, attestation_service=service,
        )
        with pytest.raises(TrainingAborted, match="re-attestation"):
            _run(resilient, world, plan)

    def test_no_usable_checkpoint_aborts(self, tmp_path):
        world = SupervisedWorld()
        resilient = _supervised(world, tmp_path)
        with pytest.raises(TrainingAborted, match="no usable checkpoint"):
            resilient._restore_latest()

    def test_invalid_checkpoint_interval_rejected(self, tmp_path):
        world = SupervisedWorld()
        with pytest.raises(ConfigurationError):
            _run(_supervised(world, tmp_path), world,
                 checkpoint_every_batches=0)


class TestDegradation:
    def test_epc_streak_halves_then_restores_batch_size(self, tmp_path):
        world = SupervisedWorld()
        plan = FaultPlan([FaultSpec("epc-pressure", epoch=1, batch=2)])
        policy = RetryPolicy(degrade_after_epc_faults=1, min_batch_size=8,
                             restore_batch_size_after=1)
        resilient = _supervised(world, tmp_path, policy=policy)
        sizes = []
        original_run_epoch = world.trainer.run_epoch

        def spying_run_epoch(*args, **kwargs):
            sizes.append(world.trainer.batch_size)
            return original_run_epoch(*args, **kwargs)

        world.trainer.run_epoch = spying_run_epoch
        reports = _run(resilient, world, plan)
        assert len(reports) == EPOCHS
        assert 8 in sizes  # degraded under EPC pressure
        assert world.trainer.batch_size == 16  # restored once stable
        counters = resilient.telemetry.snapshot()["counters"]
        assert counters["fault_epc"] == 1
        assert counters["batch_size_degradations"] == 1
        assert counters["batch_size_restorations"] == 1
        assert counters["enclave_rebuilds"] == 1

    def test_backoff_advances_simulated_clock(self, tmp_path):
        world = SupervisedWorld()
        plan = FaultPlan([FaultSpec("ir-corrupt", epoch=0, batch=1)])
        before = world.platform.clock.now
        _run(_supervised(world, tmp_path,
                         policy=RetryPolicy(backoff_base_seconds=7.0)),
             world, plan)
        assert world.platform.clock.now >= before + 7.0
