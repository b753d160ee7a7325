"""Checkpoint manager tests: round-trip fidelity and fail-closed gates."""

import json
import logging

import numpy as np
import pytest

from repro.enclave.platform import SgxPlatform
from repro.errors import CheckpointError
from repro.resilience import CheckpointManager, capture_state, restore_state
from repro.utils.rng import RngStream

from tests.resilience.worlds import SupervisedWorld, assert_same_weights


def _trained_world(epochs=1):
    world = SupervisedWorld()
    world.trainer.train(world.train.x, world.train.y, epochs,
                        test_x=world.test.x, test_y=world.test.y)
    return world


def _checkpoint(world, manager, epoch=1):
    state = capture_state(world.trainer, epoch=epoch, batch=0)
    manager.save(state, world.enclave)
    return state


class TestRoundTrip:
    def test_restores_bitwise_identical_state(self, tmp_path):
        world = _trained_world()
        manager = CheckpointManager(tmp_path)
        _checkpoint(world, manager)

        target = SupervisedWorld()  # fresh, untrained twin
        state = manager.load(manager.latest(), target.enclave)
        restore_state(target.trainer, state)

        assert_same_weights(target.weights(), world.weights())
        got_velocity = target.trainer.optimizer.state_dict()["velocity"]
        want_velocity = world.trainer.optimizer.state_dict()["velocity"]
        assert set(got_velocity) == set(want_velocity)
        for key in want_velocity:
            np.testing.assert_array_equal(got_velocity[key],
                                          want_velocity[key])
        assert target.trainer.reports == world.trainer.reports
        assert target.trainer.best_top1 == world.trainer.best_top1
        assert_same_weights(target.trainer.best_weights,
                            world.trainer.best_weights)
        # Both batch generators must continue with identical draws.
        np.testing.assert_array_equal(
            target.trainer.batch_rng.permutation(32),
            world.trainer.batch_rng.permutation(32),
        )
        np.testing.assert_array_equal(
            target.enclave.trusted_rng.generator.random(8),
            world.enclave.trusted_rng.generator.random(8),
        )

    def test_mid_epoch_capture_requires_epoch_start_rng(self, tmp_path):
        world = _trained_world()
        with pytest.raises(CheckpointError):
            capture_state(world.trainer, epoch=1, batch=3)

    def test_latest_prefers_highest_seq(self, tmp_path):
        world = _trained_world()
        manager = CheckpointManager(tmp_path)
        _checkpoint(world, manager, epoch=1)
        _checkpoint(world, manager, epoch=2)
        infos = manager.checkpoints()
        assert [info.seq for info in infos] == [0, 1]
        assert manager.latest().epoch == 2


class TestFailClosed:
    def test_torn_checkpoint_skipped(self, tmp_path):
        world = _trained_world()
        manager = CheckpointManager(tmp_path)
        _checkpoint(world, manager, epoch=1)
        newest = _checkpoint(world, manager, epoch=2)
        del newest
        (manager.latest().path / "manifest.json").unlink()
        assert [info.epoch for info in manager.checkpoints()] == [1]
        assert manager.latest().epoch == 1

    @pytest.mark.parametrize("other", [1, 3])
    def test_other_format_listed_invalid(self, tmp_path, caplog, other):
        """A manifest naming another format is never listed, so resume
        falls back past it instead of reading its reports."""
        world = _trained_world()
        manager = CheckpointManager(tmp_path)
        _checkpoint(world, manager, epoch=1)
        _checkpoint(world, manager, epoch=2)
        manifest_path = manager.latest().path / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["format"] = other
        manifest_path.write_text(json.dumps(manifest))
        with caplog.at_level(logging.WARNING):
            assert [info.epoch for info in manager.checkpoints()] == [1]
        assert f"format {other}, expected 2" in caplog.text
        assert manager.latest().epoch == 1

    def test_tampered_state_file_skipped(self, tmp_path):
        world = _trained_world()
        manager = CheckpointManager(tmp_path)
        _checkpoint(world, manager)
        state_path = manager.latest().path / "state.npz"
        blob = bytearray(state_path.read_bytes())
        blob[len(blob) // 2] ^= 0xFF
        state_path.write_bytes(bytes(blob))
        assert manager.checkpoints() == []
        assert manager.latest() is None

    def test_mrenclave_mismatch_refuses_to_unseal(self, tmp_path):
        world = _trained_world()
        manager = CheckpointManager(tmp_path)
        _checkpoint(world, manager)
        other = world.platform.create_enclave("imposter")
        other.init()
        with pytest.raises(CheckpointError, match="MRENCLAVE"):
            manager.load(manager.latest(), other)

    def test_foreign_platform_cannot_unseal(self, tmp_path):
        """Same enclave code on a *different* platform: the MRENCLAVE gate
        passes but the sealing key differs, so the unseal must fail."""
        world = _trained_world()
        manager = CheckpointManager(tmp_path)
        _checkpoint(world, manager)
        foreign = SgxPlatform(rng=RngStream(5151, "foreign").child("platform"))
        twin = foreign.create_enclave("train")
        twin.init()
        assert twin.mrenclave == world.enclave.mrenclave
        with pytest.raises(CheckpointError, match="unseal"):
            manager.load(manager.latest(), twin)

    def test_config_digest_mismatch_rejected(self, tmp_path):
        world = _trained_world()
        CheckpointManager(tmp_path, config_digest=b"a" * 32).save(
            capture_state(world.trainer, epoch=1, batch=0), world.enclave
        )
        other = CheckpointManager(tmp_path, config_digest=b"b" * 32)
        with pytest.raises(CheckpointError, match="config digest"):
            other.load(other.latest(), world.enclave)


class TestConfidentiality:
    def test_frontnet_weights_never_plaintext_on_disk(self, tmp_path):
        world = _trained_world()
        manager = CheckpointManager(tmp_path)
        _checkpoint(world, manager)
        partition = world.trainer.partitioned.partition
        front_layers = world.weights()[:partition]
        back_layers = world.weights()[partition:]
        path = manager.latest().path
        on_disk = b"".join(f.read_bytes() for f in sorted(path.iterdir()))
        secret = list(front_layers)
        if world.trainer.best_weights is not None:
            secret += world.trainer.best_weights[:partition]
        for layer in secret:
            for name, arr in layer.items():
                assert arr.tobytes() not in on_disk, (
                    f"front weight {name} stored in plaintext")
        # Sanity: the back half *is* plain, so the probe itself works.
        assert any(arr.tobytes() in on_disk
                   for layer in back_layers for arr in layer.values())


class TestPrune:
    def test_keeps_newest_and_drops_torn(self, tmp_path):
        world = _trained_world()
        manager = CheckpointManager(tmp_path)
        for epoch in range(1, 5):
            _checkpoint(world, manager, epoch=epoch)
        (manager.checkpoints()[0].path / "manifest.json").unlink()  # torn
        removed = manager.prune(keep_last=2)
        assert removed == 2
        assert [info.epoch for info in manager.checkpoints()] == [3, 4]

    def test_keep_last_must_be_positive(self, tmp_path):
        with pytest.raises(CheckpointError):
            CheckpointManager(tmp_path).prune(keep_last=0)
