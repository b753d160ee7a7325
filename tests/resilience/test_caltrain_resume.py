"""End-to-end resilience through the CalTrain federation layer."""

import pytest

from repro.errors import ConfigurationError, EnclaveAbort, TrainingAborted
from repro.resilience import RetryPolicy
from repro.resilience.faults import FaultPlan, FaultSpec

from tests.resilience.worlds import (assert_same_weights, losses,
                                     make_caltrain_world)


@pytest.fixture(scope="module")
def baseline():
    """An uninterrupted, uncheckpointed CalTrain run."""
    system, test = make_caltrain_world()
    reports = system.train(test_x=test.x, test_y=test.y)
    return losses(reports), system.model.get_weights()


class TestCheckpointedTraining:
    def test_checkpointing_is_invisible_to_the_model(self, tmp_path,
                                                     baseline):
        base_losses, base_weights = baseline
        system, test = make_caltrain_world()
        reports = system.train(test_x=test.x, test_y=test.y,
                               checkpoint_dir=tmp_path,
                               checkpoint_every_batches=2)
        assert losses(reports) == base_losses
        assert_same_weights(system.model.get_weights(), base_weights)
        assert system.run_telemetry.counter("checkpoints_written") > 0

    def test_faulted_run_matches_baseline(self, tmp_path, baseline):
        """An enclave abort, a corrupted boundary tensor, and a torn
        checkpoint write: the final model is still bitwise the baseline."""
        base_losses, base_weights = baseline
        system, test = make_caltrain_world()
        plan = FaultPlan([
            FaultSpec("enclave-abort", epoch=1, batch=3),
            FaultSpec("ir-corrupt", epoch=2, batch=1),
            FaultSpec("checkpoint-crash", epoch=0, batch=1),
        ])
        with plan:
            reports = system.train(test_x=test.x, test_y=test.y,
                                   checkpoint_dir=tmp_path,
                                   checkpoint_every_batches=2)
        assert losses(reports) == base_losses
        assert_same_weights(system.model.get_weights(), base_weights)
        counters = system.run_telemetry.snapshot()["counters"]
        assert counters["fault_enclave"] == 1
        assert counters["fault_transfer"] == 1
        assert counters["fault_checkpoint-write"] == 1
        assert counters["enclave_rebuilds"] == 1
        assert system.audit_log.verify_chain()
        kinds = [event.kind for event in system.audit_log.events()]
        assert "training-fault" in kinds
        assert "enclave-rebuilt" in kinds
        assert "recovery-restage" in kinds

    def test_cross_process_resume_matches_baseline(self, tmp_path, baseline):
        """Kill the run (budget exhausted), then resume in a *fresh*
        CalTrain instance: same final weights, same loss history, and the
        checkpointed audit chain is adopted."""
        base_losses, base_weights = baseline
        first, test = make_caltrain_world()
        plan = FaultPlan([FaultSpec("enclave-abort", epoch=2, batch=0)])
        with pytest.raises(TrainingAborted), plan:
            first.train(test_x=test.x, test_y=test.y,
                        checkpoint_dir=tmp_path,
                        retry_policy=RetryPolicy(max_retries=0))

        second, test = make_caltrain_world()
        reports = second.train(test_x=test.x, test_y=test.y,
                               checkpoint_dir=tmp_path, resume=True)
        assert losses(reports) == base_losses
        assert_same_weights(second.model.get_weights(), base_weights)
        kinds = [event.kind for event in second.audit_log.events()]
        assert "training-resumed" in kinds
        assert second.audit_log.verify_chain()

    def test_recovery_restage_supports_fingerprinting(self, tmp_path):
        """After an enclave rebuild the re-onboarded submissions must
        still be available for the accountability fingerprint pass."""
        system, test = make_caltrain_world()
        plan = FaultPlan([FaultSpec("enclave-abort", epoch=1, batch=1)])
        with plan:
            system.train(test_x=test.x, test_y=test.y,
                         checkpoint_dir=tmp_path)
        table = system.fingerprint_stage()
        assert len(table) > 0

    def test_frontnet_sealed_in_every_checkpoint(self, tmp_path, baseline):
        _, base_weights = baseline
        system, test = make_caltrain_world()
        system.train(test_x=test.x, test_y=test.y, checkpoint_dir=tmp_path)
        partition = system.config.partition
        checkpoint_dirs = [p for p in tmp_path.iterdir() if p.is_dir()]
        assert checkpoint_dirs
        # The final boundary checkpoint holds the final weights; their
        # FrontNet half must not appear in plaintext in any file.
        final_front = system.model.get_weights()[:partition]
        for directory in checkpoint_dirs:
            blob = b"".join(f.read_bytes()
                            for f in sorted(directory.iterdir()))
            for layer in final_front:
                for name, arr in layer.items():
                    assert arr.tobytes() not in blob, (
                        f"{name} leaked in {directory.name}")


class TestWiringValidation:
    def test_resume_requires_checkpoint_dir(self):
        system, test = make_caltrain_world()
        with pytest.raises(ConfigurationError):
            system.train(test_x=test.x, test_y=test.y, resume=True)

    def test_unsupervised_run_dies_on_an_injected_fault(self):
        """No checkpoint_dir, no supervisor: the fault reaches the caller
        raw — ``train`` has no parameter through which to know a drill is
        on, so there is nothing for it to reject up front."""
        system, test = make_caltrain_world()
        with pytest.raises(EnclaveAbort), \
                FaultPlan([FaultSpec("enclave-abort", epoch=0, batch=1)]):
            system.train(test_x=test.x, test_y=test.y)
