"""PromotionGate: the signing boundary, the fail-closed lineage walk,
checkpoint binding, and the serving-load guard.

Every test that flips a byte asserts a typed :class:`PromotionError` —
the gate has no advisory mode, so "detected" and "refused" are the same
event.
"""

import dataclasses

import pytest

from repro.errors import GovernanceLogError, PromotionError
from repro.governance import (GovernanceLog, PromotionGate, PromotionRecord,
                              compute_run_key)
from repro.resilience import CheckpointManager, capture_state
from repro.serving import EngineConfig, ServingEngine, ShardedAnnIndex
from repro.utils.serialization import canonical_digest

from tests.resilience.worlds import SupervisedWorld


def _flip_byte(path, offset=None):
    blob = bytearray(path.read_bytes())
    blob[len(blob) // 2 if offset is None else offset] ^= 0x01
    path.write_bytes(bytes(blob))


class TestSigningBoundary:
    def test_promote_signs_and_chains(self, gate, run_key, log):
        record = gate.promote(run_key)
        assert record.run_key == run_key
        assert record.signature
        gate.verify_record(record)  # round trip through the full walk
        promotion = log.events("promotion")[-1]
        assert promotion["details"]["ledger_digest"] == record.ledger_digest
        assert log.verify()

    def test_unsigned_record_refused(self, gate, run_key):
        record = gate.promote(run_key)
        with pytest.raises(PromotionError, match="unsigned"):
            gate.verify_record(dataclasses.replace(record, signature=""))

    def test_forged_field_refused(self, gate, run_key):
        record = gate.promote(run_key)
        forged = dataclasses.replace(record, ledger_digest="00" * 32)
        with pytest.raises(PromotionError, match="does not verify"):
            gate.verify_record(forged)

    def test_never_promoted_refused(self, gate):
        with pytest.raises(PromotionError, match="never promoted"):
            gate.verify_record(None)

    def test_foreign_enclave_cannot_authenticate(self, gate, run_key,
                                                 ledger, store, tmp_path):
        # A different platform never derives the signing key: records
        # signed here fail closed over there, and vice versa.
        foreign = SupervisedWorld(seed=77)
        other_log = GovernanceLog.create(tmp_path / "foreign-gov")
        other_gate = PromotionGate(foreign.enclave, other_log,
                                   ledger=ledger, store=store)
        record = gate.promote(run_key)
        with pytest.raises(PromotionError, match="does not verify"):
            other_gate.check_signature(record)
        with pytest.raises(PromotionError, match="does not verify"):
            gate.check_signature(other_gate.promote(run_key))

    def test_record_json_round_trip(self, gate, run_key):
        record = gate.promote(run_key)
        assert PromotionRecord.from_json(record.to_json()) == record
        with pytest.raises(PromotionError, match="malformed"):
            PromotionRecord.from_json(b"{not json")
        with pytest.raises(PromotionError, match="malformed"):
            PromotionRecord.from_json(b'{"run_key": "x", "surprise": 1}')


class TestFailClosedWalk:
    def test_missing_ledger_refused(self, enclave, log, store, run_key):
        gate = PromotionGate(enclave, log, store=store)
        with pytest.raises(PromotionError, match="no contribution ledger"):
            gate.verify(run_key)

    def test_missing_store_refused(self, enclave, log, ledger, run_key):
        gate = PromotionGate(enclave, log, ledger=ledger)
        with pytest.raises(PromotionError, match="no linkage store"):
            gate.verify(run_key)

    def test_ledger_byte_flip_refused(self, gate, run_key, tmp_path):
        record = gate.promote(run_key)
        _flip_byte(sorted((tmp_path / "ledger").glob("segment-*.bin"))[0])
        with pytest.raises(PromotionError, match="ledger lineage"):
            gate.verify(run_key)
        with pytest.raises(PromotionError, match="ledger lineage"):
            gate.verify_record(record)

    def test_quarantine_segment_flip_refused(self, gate, run_key, tmp_path):
        # The quarantine lane is evidence too — the record of *why* data
        # was excluded must be as tamper-evident as the committed lane.
        _flip_byte(sorted((tmp_path / "ledger").glob("quarantine-*.bin"))[0])
        with pytest.raises(PromotionError, match="ledger lineage"):
            gate.verify(run_key)

    def test_store_byte_flip_refused(self, gate, run_key, tmp_path):
        record = gate.promote(run_key)
        _flip_byte(sorted((tmp_path / "store").glob("segment-*.npy"))[0])
        with pytest.raises(PromotionError, match="linkage-store lineage"):
            gate.verify_record(record)

    def test_governance_log_tamper_refused(self, gate, run_key, tmp_path):
        # A live log verifies its memory against the durable head; an
        # attacker rewriting the sidecar (to later truncate the events
        # file consistently) is caught before any promotion work.
        gate.promote(run_key)
        (tmp_path / "governance" / "head.json").write_text(
            '{"seq": 0, "chain": "' + "00" * 32 + '"}'
        )
        with pytest.raises(PromotionError, match="governance log"):
            gate.verify(run_key)

    def test_tampered_log_refused_at_open(self, gate, run_key, log,
                                          tmp_path):
        # The on-disk event bytes are checked when the log is loaded: a
        # flipped byte means the next process never gets a log object to
        # promote with at all.
        gate.promote(run_key)
        log.close()
        _flip_byte(tmp_path / "governance" / "events.jsonl", offset=50)
        with pytest.raises(GovernanceLogError):
            GovernanceLog.open(tmp_path / "governance")


class TestCheckpointBinding:
    CONFIG = canonical_digest({"agreement": "checkpoint-binding"})

    @pytest.fixture(scope="class")
    def world(self):
        return SupervisedWorld(seed=31)

    @pytest.fixture
    def bound(self, world, ledger, store, tmp_path):
        run_key = compute_run_key(self.CONFIG, ledger.data_digest())
        manager = CheckpointManager(tmp_path / "ckpts",
                                    config_digest=self.CONFIG,
                                    run_key=run_key)
        state = capture_state(world.trainer, epoch=1, batch=0)
        manager.save(state, world.enclave)
        log = GovernanceLog.create(tmp_path / "bound-gov")
        gate = PromotionGate(world.enclave, log, ledger=ledger,
                             checkpoints=manager, store=store)
        return gate, manager, run_key

    def test_bound_checkpoint_promotes(self, bound, world):
        gate, manager, run_key = bound
        record = gate.promote(run_key, config_digest=self.CONFIG)
        assert record.checkpoint_digest == \
            manager.latest_manifest_digest().hex()
        gate.verify_record(record)

    def test_foreign_run_key_refused(self, bound):
        gate, _, _ = bound
        with pytest.raises(PromotionError, match="belongs to run"):
            gate.verify("deadbeef" * 8)

    def test_run_key_must_derive_from_the_ledger_data(self, ledger, store,
                                                      world, tmp_path):
        """Given the agreed config digest, the gate re-derives the run key
        from the ledger's data digest: a key over any other data (here
        the ordered manifest digest) is refused before anything is
        signed."""
        log = GovernanceLog.create(tmp_path / "data-gov")
        gate = PromotionGate(world.enclave, log, ledger=ledger, store=store)
        try:
            gate.verify(compute_run_key(self.CONFIG, ledger.data_digest()),
                        config_digest=self.CONFIG)
            with pytest.raises(PromotionError, match="ledger's records"):
                gate.verify(compute_run_key(self.CONFIG,
                                            ledger.manifest_digest()),
                            config_digest=self.CONFIG)
        finally:
            log.close()

    def test_config_digest_mismatch_refused(self, bound):
        gate, _, run_key = bound
        with pytest.raises(PromotionError, match="config digest mismatch"):
            gate.verify(run_key,
                        config_digest=canonical_digest({"other": 1}))

    def test_foreign_enclave_checkpoint_refused(self, bound, enclave,
                                                ledger, store, tmp_path):
        # `enclave` (the conftest fixture) lives on a different platform
        # than the world that sealed the checkpoint.
        _, manager, run_key = bound
        log = GovernanceLog.create(tmp_path / "mrenclave-gov")
        gate = PromotionGate(enclave, log, ledger=ledger,
                             checkpoints=manager, store=store)
        with pytest.raises(PromotionError, match="MRENCLAVE"):
            gate.verify(run_key)

    def test_tampered_sole_checkpoint_refused(self, bound):
        gate, manager, run_key = bound
        _flip_byte(manager.latest().path / "state.npz")
        with pytest.raises(PromotionError, match="no valid checkpoint"):
            gate.verify(run_key)

    def test_fallback_to_older_checkpoint_caught(self, bound, world):
        # Tampering with the newest checkpoint makes `latest()` fall
        # back to an older *valid* one — the walk alone would pass. The
        # promoted record's digest-equality check is what catches the
        # substitution.
        gate, manager, run_key = bound
        manager.save(capture_state(world.trainer, epoch=2, batch=0),
                     world.enclave)
        record = gate.promote(run_key, config_digest=self.CONFIG)
        _flip_byte(manager.latest().path / "state.npz")
        gate.verify(run_key)  # the older checkpoint still satisfies this
        with pytest.raises(PromotionError,
                           match="checkpoint digest changed"):
            gate.verify_record(record)


class TestServingGuard:
    def _engine(self, store, record, verifier):
        index = ShardedAnnIndex(store, shard_threshold=1024, seed=7).build()
        return ServingEngine(index, EngineConfig(workers=2),
                             promotion=record,
                             promotion_verifier=verifier)

    def test_promoted_engine_serves(self, gate, store, run_key):
        record = gate.promote(run_key)
        engine = self._engine(store, record, gate.serving_verifier())
        engine.start()
        try:
            hit = engine.submit(store.record(0).fingerprint,
                                store.record(0).label, k=1).result()[0]
            assert hit.index == 0
        finally:
            engine.stop()

    def test_unpromoted_engine_refused(self, gate, store):
        engine = self._engine(store, None, gate.serving_verifier())
        with pytest.raises(PromotionError, match="never promoted"):
            engine.start()

    def test_post_promotion_tamper_refused(self, gate, store, run_key,
                                           tmp_path):
        record = gate.promote(run_key)
        _flip_byte(sorted((tmp_path / "ledger").glob("segment-*.bin"))[0])
        engine = self._engine(store, record, gate.serving_verifier())
        with pytest.raises(PromotionError, match="ledger lineage"):
            engine.start()
