"""Encrypted provisioning format tests."""

import dataclasses

import numpy as np
import pytest

from repro.crypto.aead import new_aead
from repro.crypto.keys import SymmetricKey
from repro.data.datasets import Dataset
from repro.data.encryption import (EncryptedRecord, decrypt_record,
                                   encrypt_dataset, iter_encrypted_records,
                                   record_aad)
from repro.errors import AuthenticationError
from repro.utils.serialization import array_to_bytes


@pytest.fixture
def dataset(generator):
    return Dataset(
        x=generator.random((6, 4, 4, 3)).astype(np.float32),
        y=generator.integers(0, 3, size=6),
    )


@pytest.fixture
def key():
    return SymmetricKey(key_id="p0/key", material=bytes(range(16)))


class TestEncryptDecrypt:
    def test_roundtrip(self, dataset, key):
        encrypted = encrypt_dataset(dataset, key, "p0")
        aead = new_aead(key.material)
        for i, record in enumerate(encrypted.records):
            image, label = decrypt_record(record, aead)
            np.testing.assert_array_equal(image, dataset.x[i])
            assert label == dataset.y[i]

    def test_labels_in_clear(self, dataset, key):
        encrypted = encrypt_dataset(dataset, key, "p0")
        assert [r.label for r in encrypted.records] == dataset.y.tolist()

    def test_unique_nonces(self, dataset, key):
        encrypted = encrypt_dataset(dataset, key, "p0")
        nonces = [r.nonce for r in encrypted.records]
        assert len(set(nonces)) == len(nonces)

    def test_aes_gcm_cipher_option(self, dataset, key):
        small = dataset.subset([0, 1])
        encrypted = encrypt_dataset(small, key, "p0", cipher="aes-128-gcm")
        aead = new_aead(key.material, cipher="aes-128-gcm")
        image, _ = decrypt_record(encrypted.records[0], aead)
        np.testing.assert_array_equal(image, small.x[0])


class TestStreamingEncryption:
    def test_matches_encrypt_dataset(self, dataset, key):
        streamed = list(iter_encrypted_records(dataset, key, "p0"))
        fresh = SymmetricKey(key_id=key.key_id, material=key.material)
        assert streamed == encrypt_dataset(dataset, fresh, "p0").records

    def test_lazy(self, dataset, key):
        """Nothing is sealed until the stream is pulled, and pulling one
        record consumes exactly one nonce."""
        stream = iter_encrypted_records(dataset, key, "p0")
        assert key._counter == 0
        next(stream)
        assert key._counter == 1
        next(stream)
        assert key._counter == 2

    def test_start_index_skips_without_spending_nonces(self, dataset, key):
        full = list(iter_encrypted_records(dataset, key, "p0"))
        resumed_key = SymmetricKey(key_id=key.key_id, material=key.material)
        resumed_key.advance_past(full[3].nonce)
        tail = list(iter_encrypted_records(dataset, resumed_key, "p0",
                                           start_index=4))
        assert tail == full[4:]

    def test_decryptable(self, dataset, key):
        aead = new_aead(key.material)
        for i, record in enumerate(iter_encrypted_records(dataset, key, "p0")):
            image, label = decrypt_record(record, aead)
            np.testing.assert_array_equal(image, dataset.x[i])
            assert record.index == i


class TestBulkParity:
    """encrypt_dataset against sealing each record by hand."""

    def test_bulk_matches_record_at_a_time(self, dataset, key):
        bulk = encrypt_dataset(dataset, key, "p0")
        fresh = SymmetricKey(key_id=key.key_id, material=key.material)
        aead = new_aead(key.material)
        for i, record in enumerate(bulk.records):
            nonce = fresh.next_nonce()
            label = int(dataset.y[i])
            assert record == EncryptedRecord(
                source_id="p0", index=i, label=label, nonce=nonce,
                sealed=aead.seal(nonce, array_to_bytes(dataset.x[i]),
                                 record_aad("p0", i, label)),
            )


class TestTamperDetection:
    def test_payload_tamper(self, dataset, key):
        encrypted = encrypt_dataset(dataset, key, "p0")
        record = encrypted.records[0]
        forged = dataclasses.replace(
            record, sealed=bytes([record.sealed[0] ^ 1]) + record.sealed[1:]
        )
        with pytest.raises(AuthenticationError):
            decrypt_record(forged, new_aead(key.material))

    def test_label_relabelling_detected(self, dataset, key):
        """Flipping the cleartext label breaks the AAD binding."""
        encrypted = encrypt_dataset(dataset, key, "p0")
        record = encrypted.records[0]
        forged = dataclasses.replace(record, label=(record.label + 1) % 3)
        with pytest.raises(AuthenticationError):
            decrypt_record(forged, new_aead(key.material))

    def test_source_spoofing_detected(self, dataset, key):
        encrypted = encrypt_dataset(dataset, key, "p0")
        forged = dataclasses.replace(encrypted.records[0], source_id="p1")
        with pytest.raises(AuthenticationError):
            decrypt_record(forged, new_aead(key.material))

    def test_record_splicing_detected(self, dataset, key):
        """Moving a record to another index breaks the AAD binding."""
        encrypted = encrypt_dataset(dataset, key, "p0")
        forged = dataclasses.replace(encrypted.records[0], index=3)
        with pytest.raises(AuthenticationError):
            decrypt_record(forged, new_aead(key.material))

    def test_wrong_key_detected(self, dataset, key):
        encrypted = encrypt_dataset(dataset, key, "p0")
        wrong = new_aead(bytes(range(1, 17)))
        with pytest.raises(AuthenticationError):
            decrypt_record(encrypted.records[0], wrong)
