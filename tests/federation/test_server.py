"""Training server tests: in-enclave authentication + decryption."""

import dataclasses
from pathlib import Path

import numpy as np
import pytest

from repro.data.datasets import Dataset
from repro.crypto.aead import new_aead
from repro.data.encryption import (EncryptedDataset, EncryptedRecord,
                                   encrypt_dataset, record_aad)
from repro.crypto.keys import SymmetricKey
from repro.errors import DuplicateSubmissionError, LedgerError, TrainingError
from repro.federation.participant import TrainingParticipant
from repro.federation.provisioning import provision_key
from repro.federation.server import TrainingServer
from repro.utils.serialization import array_to_bytes

from tests.crypto import legacy_hmac_ctr


@pytest.fixture
def server(platform, attestation_service, rng):
    server = TrainingServer(platform, attestation_service, rng.child("server"))
    server.build_training_enclave("[net]\ninput = 2,2,1\n[softmax]\n[cost]\n")
    return server


def _participant(rng, name, n=5):
    gen = rng.child(f"data-{name}").generator
    dataset = Dataset(
        x=gen.random((n, 2, 2, 1)).astype(np.float32),
        y=gen.integers(0, 3, size=n),
    )
    return TrainingParticipant(name, dataset, rng.child(name))


class TestDecryption:
    def test_registered_sources_accepted(self, server, rng, attestation_service):
        for name in ("p0", "p1"):
            p = _participant(rng, name)
            provision_key(p, server.enclave, attestation_service,
                          expected_mrenclave=server.enclave.mrenclave)
            server.submit(p.encrypt_dataset())
        summary = server.decrypt_submissions()
        assert summary.accepted == 10
        assert summary.rejected_unregistered == 0
        assert summary.accepted_by_source == {"p0": 5, "p1": 5}
        x, y, sources, indices = server.staged_training_data()
        assert x.shape == (10, 2, 2, 1)
        assert len(sources) == 10

    def test_unregistered_source_discarded(self, server, rng):
        """Injected data from a source that never provisioned a key is
        discarded wholesale (the paper's illegitimate-channel defence)."""
        intruder = _participant(rng, "intruder")
        server.submit(intruder.encrypt_dataset())
        summary = server.decrypt_submissions()
        assert summary.accepted == 0
        assert summary.rejected_unregistered == 5

    def test_tampered_records_discarded(self, server, rng, attestation_service):
        p = _participant(rng, "p0")
        provision_key(p, server.enclave, attestation_service,
                      expected_mrenclave=server.enclave.mrenclave)
        encrypted = p.encrypt_dataset()
        # Tamper with two of the five records in transit.
        for i in (1, 3):
            rec = encrypted.records[i]
            encrypted.records[i] = dataclasses.replace(
                rec, sealed=bytes([rec.sealed[0] ^ 0xFF]) + rec.sealed[1:]
            )
        server.submit(encrypted)
        summary = server.decrypt_submissions()
        assert summary.accepted == 3
        assert summary.rejected_tampered == 2

    @pytest.mark.parametrize("plaintext", [
        b"not a tensor at all",                         # bad magic
        b"RPR1\x03\x00\x00\x00<f4\x03\x00\x00\x00",      # header cut short
        b"RPR1\x03\x00\x00\x00<f4\x01\x00\x00\x00"
        + (4).to_bytes(8, "little") + bytes(13),        # payload cut short
    ])
    def test_authentic_non_tensor_discarded_not_raised(
            self, server, rng, attestation_service, plaintext):
        """A provisioned participant can seal anything under a valid tag;
        the decrypt ECALL drops that record and trains on the rest."""
        p = _participant(rng, "p0")
        provision_key(p, server.enclave, attestation_service,
                      expected_mrenclave=server.enclave.mrenclave)
        encrypted = p.encrypt_dataset()
        nonce = p.key.next_nonce()
        encrypted.records.append(EncryptedRecord(
            source_id="p0", index=5, label=1, nonce=nonce,
            sealed=new_aead(p.key.material).seal(
                nonce, plaintext, record_aad("p0", 5, 1)),
        ))
        server.submit(encrypted)
        summary = server.decrypt_submissions()
        assert summary.accepted == 5
        assert summary.rejected_tampered == 1
        assert server.staged_training_data()[0].shape == (5, 2, 2, 1)

    def test_records_sealed_by_the_removed_cipher_discarded(
            self, server, rng, attestation_service):
        """Right key, right AAD, but sealed by the HMAC-CTR cipher SHAKE
        replaced: the tag fails, the record is counted and never staged."""
        p = _participant(rng, "p0")
        provision_key(p, server.enclave, attestation_service,
                      expected_mrenclave=server.enclave.mrenclave)
        encrypted = p.encrypt_dataset()
        for i in (0, 4):
            rec = encrypted.records[i]
            encrypted.records[i] = dataclasses.replace(
                rec, sealed=legacy_hmac_ctr.seal(
                    p.key.material, rec.nonce, array_to_bytes(p.dataset.x[i]),
                    record_aad("p0", rec.index, rec.label)))
        server.submit(encrypted)
        summary = server.decrypt_submissions()
        assert summary.accepted == 3
        assert summary.rejected_tampered == 2
        x, _, _, indices = server.staged_training_data()
        assert indices.tolist() == [1, 2, 3]
        np.testing.assert_array_equal(x, p.dataset.x[1:4])

    def test_relabelled_records_discarded(self, server, rng, attestation_service):
        p = _participant(rng, "p0")
        provision_key(p, server.enclave, attestation_service,
                      expected_mrenclave=server.enclave.mrenclave)
        encrypted = p.encrypt_dataset()
        rec = encrypted.records[0]
        encrypted.records[0] = dataclasses.replace(rec, label=rec.label + 1)
        server.submit(encrypted)
        summary = server.decrypt_submissions()
        assert summary.rejected_tampered == 1

    def test_key_spoofing_between_participants_fails(self, server, rng,
                                                     attestation_service):
        """p1 cannot submit data claiming to be p0 (wrong key)."""
        p0 = _participant(rng, "p0")
        p1 = _participant(rng, "p1")
        for p in (p0, p1):
            provision_key(p, server.enclave, attestation_service,
                          expected_mrenclave=server.enclave.mrenclave)
        spoofed = encrypt_dataset(p1.dataset, p1.key, "p0")  # p1's key, p0's name
        server.submit(spoofed)
        summary = server.decrypt_submissions()
        assert summary.accepted == 0
        assert summary.rejected_tampered == 5

    def test_decrypt_before_build_rejected(self, platform, attestation_service, rng):
        server = TrainingServer(platform, attestation_service, rng.child("s"))
        with pytest.raises(TrainingError):
            server.decrypt_submissions()

    def test_staged_data_before_decrypt_rejected(self, server):
        with pytest.raises(TrainingError):
            server.staged_training_data()

    def test_measurement_covers_architecture(self, platform, attestation_service, rng):
        s1 = TrainingServer(platform, attestation_service, rng.child("s1"))
        e1 = s1.build_training_enclave("[net]\ninput = 2,2,1\n[softmax]\n[cost]\n")
        s2 = TrainingServer(platform, attestation_service, rng.child("s2"))
        e2 = s2.build_training_enclave("[net]\ninput = 4,4,3\n[softmax]\n[cost]\n")
        assert e1.mrenclave != e2.mrenclave


class TestReplayGuard:
    def test_duplicate_submission_rejected(self, server, rng, attestation_service):
        p = _participant(rng, "p0")
        provision_key(p, server.enclave, attestation_service,
                      expected_mrenclave=server.enclave.mrenclave)
        server.submit(p.encrypt_dataset())
        with pytest.raises(DuplicateSubmissionError):
            server.submit(p.encrypt_dataset())

    def test_colliding_record_indices_rejected(self, server, rng,
                                               attestation_service):
        """One replayed record inside an otherwise fresh dataset would
        double its training weight — refused at the transport layer."""
        p = _participant(rng, "p0")
        provision_key(p, server.enclave, attestation_service,
                      expected_mrenclave=server.enclave.mrenclave)
        encrypted = p.encrypt_dataset()
        encrypted.records.append(encrypted.records[2])
        with pytest.raises(DuplicateSubmissionError, match="colliding"):
            server.submit(encrypted)
        assert server._submissions == []

    def test_distinct_sources_fine(self, server, rng, attestation_service):
        for name in ("p0", "p1"):
            p = _participant(rng, name)
            provision_key(p, server.enclave, attestation_service,
                          expected_mrenclave=server.enclave.mrenclave)
            server.submit(p.encrypt_dataset())
        assert server.decrypt_submissions().accepted == 10


class TestFromLedger:
    def _build_ledger(self, server, rng, attestation_service, tmp_path):
        from repro.ingest import ContributionLedger

        ledger = ContributionLedger.create(tmp_path / "ledger")
        for name in ("p0", "p1"):
            p = _participant(rng, name)
            provision_key(p, server.enclave, attestation_service,
                          expected_mrenclave=server.enclave.mrenclave)
            ledger.append(p.encrypt_dataset().records, name)
        return ledger

    def test_stages_committed_lane(self, server, rng, attestation_service,
                                   tmp_path):
        ledger = self._build_ledger(server, rng, attestation_service, tmp_path)
        assert server.from_ledger(ledger) == 10
        summary = server.decrypt_submissions()
        assert summary.accepted == 10
        assert summary.accepted_by_source == {"p0": 5, "p1": 5}

    def test_quarantine_lane_never_staged(self, server, rng,
                                          attestation_service, tmp_path):
        ledger = self._build_ledger(server, rng, attestation_service, tmp_path)
        bad = _participant(rng, "hostile")
        ledger.quarantine(bad.encrypt_dataset().records, "hostile",
                          reason="tampered")
        assert server.from_ledger(ledger) == 10
        assert server.decrypt_submissions().rejected_tampered == 0

    def test_stages_the_bytes_it_verified(self, server, rng,
                                          attestation_service, tmp_path,
                                          monkeypatch):
        """A segment that reads honestly once and then with its last frame
        dropped: what is staged is what was verified, or nothing."""
        from repro.ingest.ledger import iter_packed, unpack_headed

        ledger = self._build_ledger(server, rng, attestation_service, tmp_path)
        target = tmp_path / "ledger" / "segment-000000.bin"
        real_read, reads = Path.read_bytes, []

        def read_bytes(path):
            blob = real_read(path)
            if path == target:
                reads.append(path)
                if len(reads) > 1:
                    blob = b"".join(iter_packed(unpack_headed(blob)[0][:-1]))
            return blob

        monkeypatch.setattr(Path, "read_bytes", read_bytes)
        try:
            staged = server.from_ledger(ledger)
        except LedgerError:
            assert server._submissions == []
        else:
            assert staged == 10
            assert server.decrypt_submissions().accepted_by_source == {
                "p0": 5, "p1": 5}
        assert reads

    def test_tampered_ledger_fails_closed(self, server, rng,
                                          attestation_service, tmp_path):
        ledger = self._build_ledger(server, rng, attestation_service, tmp_path)
        target = next((tmp_path / "ledger").glob("segment-*.bin"))
        blob = bytearray(target.read_bytes())
        blob[10] ^= 0xFF
        target.write_bytes(bytes(blob))
        with pytest.raises(LedgerError):
            server.from_ledger(ledger)
        assert server._submissions == []
