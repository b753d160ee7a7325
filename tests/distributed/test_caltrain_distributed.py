"""CalTrain facade integration for the distributed training stage."""

import hashlib
import tempfile

import numpy as np
import pytest

from repro.core.caltrain import CalTrain, CalTrainConfig
from repro.data.datasets import synthetic_cifar
from repro.enclave.attestation import AttestationService
from repro.enclave.platform import SgxPlatform
from repro.errors import ConfigurationError, RoundAborted
from repro.federation.participant import TrainingParticipant
from repro.federation.server import TrainingServer
from repro.nn.zoo import tiny_testnet
from repro.resilience.faults import FaultPlan, FaultSpec
from repro.utils.rng import RngStream


def make_world(seed=7, epochs=3, participants=2, batch_size=16, **config):
    config = CalTrainConfig(
        seed=seed, epochs=epochs, batch_size=batch_size, partition=1,
        augment=False,
        network_factory=lambda gen: tiny_testnet(
            gen, input_shape=(8, 8, 3), num_classes=4),
        **config,
    )
    rng = RngStream(99, "dist-world")
    train, test = synthetic_cifar(rng.child("data"), num_train=64,
                                  num_test=32, num_classes=4, shape=(8, 8, 3))
    system = CalTrain(config)
    fractions = [1.0 / participants] * participants
    for i, share in enumerate(
            train.split(fractions, rng=rng.child("split").generator)):
        participant = TrainingParticipant(f"p{i}", share, rng.child(f"p{i}"))
        system.register_participant(participant)
        system.submit_data(participant)
    return system, test


class TestCalTrainDistributed:
    def test_two_worker_training_end_to_end(self, tmp_path):
        system, test = make_world()
        reports = system.train(test_x=test.x, test_y=test.y, workers=2,
                               checkpoint_dir=str(tmp_path))
        assert len(reports) == 3
        assert reports[-1].top1 is not None
        assert reports[-1].mean_loss < reports[0].mean_loss
        assert system.coordinator is not None
        assert len(system.coordinator.workers) == 2
        assert system.audit_log.verify_chain()

    def test_loss_parity_with_single_enclave(self, tmp_path):
        """Same seed, same data: the distributed trajectory stays within a
        tolerance band of the classic single-enclave path."""
        dist, test = make_world(seed=7)
        dist_reports = dist.train(workers=2, checkpoint_dir=str(tmp_path))
        single, _ = make_world(seed=7)
        single_reports = single.train()
        for d, s in zip(dist_reports, single_reports):
            assert abs(d.mean_loss - s.mean_loss) < 0.5
        assert dist_reports[-1].mean_loss < dist_reports[0].mean_loss

    def test_freeze_at_epoch_holds_every_frontnet(self, tmp_path):
        """``freeze_at_epoch=0`` freezes the FrontNet from the first round
        on: every worker's and the final model's FrontNet stay bitwise
        the initial weights, as in the single-enclave run, and every
        epoch report says so."""
        single, _ = make_world(epochs=2, freeze_at_epoch=0)
        single_reports = single.train()
        dist, _ = make_world(epochs=2, freeze_at_epoch=0)
        dist_reports = dist.train(workers=2, checkpoint_dir=str(tmp_path))
        initial = dist._network_factory(dist._init_generator()).get_weights()
        front = dist.config.partition
        for weights in ([single.model.get_weights(), dist.model.get_weights()]
                        + [w.replica_weights()
                           for w in dist.coordinator.workers]):
            for got, expected in zip(weights[:front], initial[:front]):
                for name in expected:
                    np.testing.assert_array_equal(got[name], expected[name])
            assert any(not np.array_equal(got[name], expected[name])
                       for got, expected in zip(weights[front:],
                                                initial[front:])
                       for name in expected), "the BackNet must still train"
        assert [r.frontnet_frozen for r in single_reports] == [True, True]
        assert [r.frontnet_frozen for r in dist_reports] == [True, True]

    def test_fingerprint_stage_runs_after_distributed_training(
            self, tmp_path):
        system, _ = make_world()
        system.train(workers=2, checkpoint_dir=str(tmp_path))
        table = system.fingerprint_stage()
        assert len(table) == system.decryption_summary.accepted

    def test_distributed_audit_events_present(self, tmp_path):
        system, _ = make_world(epochs=2)
        system.train(workers=2, checkpoint_dir=str(tmp_path))
        kinds = [e.kind for e in system.audit_log.entries] \
            if hasattr(system.audit_log, "entries") else None
        setup = system.audit_log.events("distributed-setup")
        rounds = system.audit_log.events("distributed-round")
        complete = system.audit_log.events("training-complete")
        assert len(setup) == 1
        assert setup[0].details["workers"] == 2
        assert [e.details["round"] for e in rounds] == [0, 1]
        assert len(complete) == 1

    def test_injections_flow_through_facade(self, tmp_path):
        system, _ = make_world()
        with FaultPlan([FaultSpec("worker-crash", 1, 1, worker="w1")]):
            system.train(workers=2, checkpoint_dir=str(tmp_path),
                         blacklist_after=3)
        assert system.round_reports[1].faulted == ["w1"]
        assert system.round_reports[1].recovered == ["w1"]

    def test_incompatible_resilience_options_rejected(self, tmp_path):
        system, _ = make_world()
        with pytest.raises(ConfigurationError, match="incompatible"):
            system.train(workers=2, resume=True,
                         checkpoint_dir=str(tmp_path))
        with pytest.raises(ConfigurationError, match="incompatible"):
            system.train(workers=2, checkpoint_every_batches=1)

    def test_reassessment_rejected_with_workers(self, tmp_path):
        system, _ = make_world()
        system.config.reassess_every_epoch = True
        with pytest.raises(ConfigurationError, match="reassess"):
            system.train(workers=2)

    def test_distributed_metrics_share_deployment_registry(self, tmp_path):
        system, _ = make_world(epochs=2)
        system.train(workers=2, checkpoint_dir=str(tmp_path))
        assert system.distributed_telemetry.registry is system.metrics
        assert system.distributed_telemetry.counter("rounds") == 2


def weights_digest(network):
    """SHA-256 over every layer's parameter names and raw bytes."""
    digest = hashlib.sha256()
    for index, layer in enumerate(network.get_weights()):
        for name in sorted(layer):
            digest.update(f"{index}/{name}".encode())
            digest.update(np.ascontiguousarray(layer[name]).tobytes())
    return digest.hexdigest()


class TestDistributedNumerics:
    def test_two_worker_weights_pinned(self):
        """The trained weights of a fixed two-worker world, bit for bit.

        Sharding, replica init, local epochs, masked aggregation and the
        broadcast all feed this digest; a change to any of them that moves
        the numerics fails here instead of drifting silently.
        """
        system, _ = make_world(epochs=2)
        reports = system.train(workers=2)
        assert weights_digest(system.model) == (
            "c1c81afa1dcf464d657d9829d41617f7"
            "884c5ae3fb755137a57dcfb544229499")
        assert reports[-1].mean_loss == 1.5051433444023132

    def test_workers_train_with_the_measured_hyperparameters(self, tmp_path):
        """Each worker's rate, momentum and batch size are the ones its
        enclave was measured over, so the attested agreement describes the
        training that ran."""
        system, _ = make_world(epochs=1, batch_size=8, learning_rate=0.03,
                               momentum=0.5)
        system.train(workers=2, checkpoint_dir=str(tmp_path))
        for worker in system.coordinator.workers:
            trainer = worker.trainer
            assert (trainer.batch_size, trainer.optimizer.learning_rate,
                    trainer.optimizer.momentum) == (8, 0.03, 0.5)
            ran = {"epochs": 1, "batch_size": trainer.batch_size,
                   "learning_rate": trainer.optimizer.learning_rate,
                   "momentum": trainer.optimizer.momentum}
            rng = RngStream(1, "measure")
            measured = TrainingServer(
                SgxPlatform(rng=rng.child("platform")), AttestationService(),
                rng.child("server"),
            ).build_training_enclave(system.network_config,
                                     hyperparameters=ran)
            assert measured.mrenclave == worker.enclave.mrenclave


class TestCheckpointRoot:
    """Without ``checkpoint_dir`` the workers seal into a temporary
    directory that the run removes, whether it succeeds or fails."""

    def _leftovers(self, root):
        return sorted(p.name for p in root.glob("caltrain-dist-*"))

    def test_removed_after_a_run(self, tmp_path, monkeypatch):
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        system, _ = make_world(epochs=1)
        system.train(workers=2)
        manager = system.coordinator.workers[0].manager
        assert tmp_path in manager.directory.parents
        assert self._leftovers(tmp_path) == []

    def test_removed_after_a_failed_run(self, tmp_path, monkeypatch):
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        system, _ = make_world(epochs=2)
        faults = [FaultSpec("worker-corrupt", 1, worker=w)
                  for w in ("w0", "w1")]
        with FaultPlan(faults), pytest.raises(RoundAborted):
            system.train(workers=2)
        assert system.coordinator.reports[0].round == 0
        assert self._leftovers(tmp_path) == []
