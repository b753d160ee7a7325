"""Validation-pipeline tests: gates, quarantine lanes, audit chain."""

import dataclasses
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.crypto.aead import BULK_CIPHER, AesGcm, ShakeHmacAead, new_aead
from repro.data.datasets import Dataset
from repro.data.encryption import (EncryptedRecord, iter_encrypted_records,
                                   record_aad)
from repro.ingest import (ContributionLedger, ValidationConfig,
                          ValidationPool, record_digest)
from repro.utils.serialization import array_to_bytes

from tests.crypto import legacy_hmac_ctr
from tests.ingest.conftest import CLASSES, SHAPE


def _records(contributor):
    return list(iter_encrypted_records(contributor.dataset, contributor.key,
                                       contributor.participant_id))


def _seal_plaintext(contributor, index, plaintext, label=0):
    """What only a *provisioned* contributor can make: any bytes at all
    under a tag that verifies."""
    nonce = contributor.key.next_nonce()
    sealed = new_aead(contributor.key.material).seal(
        nonce, plaintext, record_aad(contributor.participant_id, index, label)
    )
    return EncryptedRecord(source_id=contributor.participant_id, index=index,
                           label=label, nonce=nonce, sealed=sealed)


_GOOD = array_to_bytes(np.zeros(SHAPE, dtype=np.float32))

#: Authentic plaintexts that are not an agreed-shape tensor of the size
#: they claim; each used to raise ValueError out of the ECALL.
MALFORMED = {
    "bad-magic": b"not a tensor at all" * 4,
    "empty": b"",
    "truncated-payload": _GOOD[:-6],
    "truncated-header": _GOOD[:13],
    "padded-payload": _GOOD + bytes(4),
    # Declares the agreed SHAPE, carries a (2, 2, 3) tensor's worth of data.
    "header-lies-about-shape": _GOOD[:-4 * 48] + bytes(4 * 12),
    "ndim-beyond-the-opened-prefix": (
        _GOOD[:11] + (9).to_bytes(4, "little")
        + (1).to_bytes(8, "little") * 6 + _GOOD[15:]
    ),
    "object-dtype": _GOOD.replace(b"\x03\x00\x00\x00<f4", b"\x02\x00\x00\x00|O"),
}


class TestGates:
    def test_clean_records_accepted_in_order(self, validator, contributors):
        records = _records(contributors[0])
        report = validator.validate("c0", records)
        assert report.accepted == records
        assert report.quarantined == []

    def test_tampered_payload_quarantined(self, validator, contributors):
        records = _records(contributors[0])
        bad = records[2]
        records[2] = dataclasses.replace(
            bad, sealed=bytes([bad.sealed[0] ^ 0xFF]) + bad.sealed[1:]
        )
        report = validator.validate("c0", records)
        assert len(report.accepted) == len(records) - 1
        assert report.quarantined_by_reason == {"tampered": 1}

    def test_record_sealed_by_the_removed_cipher_is_tampered(
            self, validator, contributors, monkeypatch):
        """A contributor still sealing with the HMAC-CTR cipher SHAKE
        replaced holds the right key, yet fails the tag — quarantine lane,
        before any keystream is generated, never decrypted to noise."""
        contributor = contributors[0]
        records = _records(contributor)
        old = records[1]
        records[1] = dataclasses.replace(old, sealed=legacy_hmac_ctr.seal(
            contributor.key.material, old.nonce,
            array_to_bytes(contributor.dataset.x[1]),
            record_aad("c0", old.index, old.label)))
        keystream = ShakeHmacAead._keystream
        asked = []
        monkeypatch.setattr(
            ShakeHmacAead, "_keystream",
            lambda self, nonce, length: asked.append(length)
            or keystream(self, nonce, length))
        report = validator.validate("c0", records)
        assert report.accepted == records[:1] + records[2:]
        assert [(q.record, q.reason) for q in report.quarantined] == [
            (records[1], "tampered")]
        assert len(asked) == len(records) - 1

    def test_relabelled_record_quarantined_not_crashed(self, validator,
                                                       contributors):
        """A flipped cleartext label breaks the AAD tag — quarantine lane,
        not an exception."""
        records = _records(contributors[0])
        records[0] = dataclasses.replace(
            records[0], label=(records[0].label + 1) % CLASSES
        )
        report = validator.validate("c0", records)
        assert report.quarantined_by_reason == {"tampered": 1}

    def test_label_domain_gate(self, server, ledger, contributors, rng):
        """A label outside the agreed domain (but correctly sealed, so the
        tag verifies) is quarantined by the domain gate."""
        gen = rng.child("wide").generator
        wide = Dataset(x=gen.random((4,) + SHAPE).astype(np.float32),
                       y=np.array([0, 1, CLASSES + 3, 1]))
        contributor = contributors[0]
        records = list(iter_encrypted_records(wide, contributor.key, "c0"))
        validator = ValidationPool(
            server.enclave,
            ValidationConfig(num_classes=CLASSES, input_shape=SHAPE),
            ledger=ledger,
        )
        report = validator.validate("c0", records)
        assert report.quarantined_by_reason == {"label-domain": 1}

    def test_shape_gate(self, server, ledger, contributors, rng):
        gen = rng.child("misshapen").generator
        misshapen = Dataset(x=gen.random((3, 2, 2, 3)).astype(np.float32),
                            y=gen.integers(0, CLASSES, size=3))
        records = list(iter_encrypted_records(misshapen,
                                              contributors[0].key, "c0"))
        validator = ValidationPool(
            server.enclave,
            ValidationConfig(num_classes=CLASSES, input_shape=SHAPE),
            ledger=ledger,
        )
        report = validator.validate("c0", records)
        assert report.quarantined_by_reason == {"shape": 3}

    def test_empty_input(self, validator):
        report = validator.validate("c0", [])
        assert report.accepted == [] and report.quarantined == []

    def test_tampering_the_last_ciphertext_byte_is_tampered(self, validator,
                                                           contributors):
        """Admission decrypts only the tensor header, but the tag still
        covers every byte: a flip at the far end of the payload, which no
        header read would notice, is refused as ``tampered``."""
        records = _records(contributors[0])
        bad = records[3]
        flipped = bytearray(bad.sealed)
        flipped[-17] ^= 0x01  # last ciphertext byte; the tag is the last 16
        records[3] = dataclasses.replace(bad, sealed=bytes(flipped))
        report = validator.validate("c0", records)
        assert report.quarantined_by_reason == {"tampered": 1}
        assert report.quarantined[0].record is records[3]


class TestAuthenticNonTensors:
    """A provisioned contributor sealing garbage under a valid tag must be
    quarantined (reason ``shape``), never raise out of the ECALL."""

    @pytest.mark.parametrize("case", sorted(MALFORMED))
    def test_quarantined_as_shape_and_audited(self, validator, contributors,
                                              case):
        records = _records(contributors[0])
        bad = _seal_plaintext(contributors[0], len(records), MALFORMED[case])
        report = validator.validate("c0", records[:3] + [bad] + records[3:])
        assert report.accepted == records
        assert [(q.record, q.reason) for q in report.quarantined] == [
            (bad, "shape")]
        assert validator.telemetry.counter("quarantined_shape") == 1
        verdicts = [v for e in validator.audit.events("ingest-validate")
                    for v in e.details["verdicts"]]
        assert verdicts.count("shape") == 1
        assert validator.verify_audit_chain()

    def test_header_that_lies_about_shape_claims_the_agreed_one(self):
        """The lying header really does say ``SHAPE`` — only the payload
        size gives it away."""
        from repro.utils.serialization import array_header

        _, shape, _ = array_header(MALFORMED["header-lies-about-shape"])
        assert shape == SHAPE


class TestAdmissionNeverMaterialisesPlaintext:
    """Confidentiality invariant: admission authenticates and reads the
    tensor header; the instance is first decrypted at the training ECALL."""

    # The bulk slot keeps the id it was first recorded under.
    @pytest.mark.parametrize("cipher", [
        pytest.param(BULK_CIPHER, id="hmac-ctr"), "aes-128-gcm"])
    def test_only_the_header_prefix_is_ever_decrypted(
            self, server, ledger, contributors, monkeypatch, cipher):
        contributor = contributors[0]
        records = list(iter_encrypted_records(
            contributor.dataset, contributor.key, "c0", cipher=cipher))
        payload = len(records[0].sealed) - 16
        assert payload > 64
        asked = []
        for cls in (ShakeHmacAead, AesGcm):
            keystream = cls._keystream

            def spy(self, nonce, length, _keystream=keystream):
                asked.append(length)
                return _keystream(self, nonce, length)

            monkeypatch.setattr(cls, "_keystream", spy)
        monkeypatch.setattr(
            "repro.data.encryption.array_from_bytes",
            lambda blob: pytest.fail("admission deserialised an instance"),
        )
        validator = ValidationPool(
            server.enclave,
            ValidationConfig(num_classes=CLASSES, input_shape=SHAPE,
                             cipher=cipher),
            ledger=ledger,
        )
        report = validator.validate("c0", records)
        assert report.accepted == records
        assert len(asked) == len(records) and max(asked) <= 64 < payload


class TestDeduplication:
    def test_duplicate_within_session(self, validator, contributors):
        records = _records(contributors[0])
        report = validator.validate("c0", records + [records[0]])
        assert report.quarantined_by_reason == {"duplicate": 1}
        assert len(report.accepted) == len(records)

    def test_duplicate_across_contributors_via_ledger(self, validator, ledger,
                                                      contributors):
        """c1 relaying c0's committed ciphertexts is caught by the ledger
        digest set even though the records authenticate under no tampering."""
        records = _records(contributors[0])
        ledger.append(records, "c0")
        report = validator.validate("c0", records)
        assert report.accepted == []
        assert report.quarantined_by_reason == {"duplicate": len(records)}


_KINDS = {"honest": "ok", "tampered": "tampered", "relabelled": "tampered",
          "label-domain": "label-domain", "shape": "shape"}

#: Sessions of (contributor, picks): each pick is a kind of record and an
#: index into that contributor's pool of six, so repeats are common.
_mixes = st.lists(
    st.tuples(st.sampled_from([0, 1]),
              st.lists(st.tuples(st.sampled_from(sorted(_KINDS)),
                                 st.integers(0, 5)),
                       min_size=1, max_size=8)),
    min_size=1, max_size=3,
)


def _hostile_pool(contributor):
    honest = _records(contributor)[:6]
    return {
        "honest": honest,
        "tampered": [dataclasses.replace(
            r, sealed=bytes([r.sealed[0] ^ 0xFF]) + r.sealed[1:])
            for r in honest],
        "relabelled": [dataclasses.replace(r, label=(r.label + 1) % CLASSES)
                       for r in honest],
        "label-domain": [_seal_plaintext(contributor, 50 + i, _GOOD,
                                         label=CLASSES) for i in range(6)],
        "shape": [_seal_plaintext(contributor, 70 + i, MALFORMED["bad-magic"])
                  for i in range(6)],
    }


class TestAudit:
    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(mixes=_mixes, race=st.integers(1, 4), data=st.data())
    def test_every_decision_is_committed_once(self, server, contributors,
                                              mixes, race, data):
        """Hostile mixes, then one commit-time race. Each ``validate``
        call commits its decisions in one chained event: every journaled
        record's digest once, with its verdict, in journal order. A
        refusal at commit appears in exactly one later event, and
        altering any one verdict breaks the chain."""
        pools = [_hostile_pool(c) for c in contributors]
        with tempfile.TemporaryDirectory() as root:
            ledger = ContributionLedger.create(Path(root) / "ledger")
            validator = ValidationPool(
                server.enclave,
                ValidationConfig(num_classes=CLASSES, input_shape=SHAPE,
                                 workers=2, batch_records=3),
                ledger=ledger,
            )
            expected, committed = [], set()
            for who, picks in mixes:
                name = contributors[who].participant_id
                records = [pools[who][kind][i] for kind, i in picks]
                digests = [record_digest(r) for r in records]
                verdicts, seen = [], set(committed)
                for (kind, _), digest in zip(picks, digests):
                    verdict = _KINDS[kind]
                    if verdict == "ok" and digest in seen:
                        verdict = "duplicate"
                    if verdict == "ok":
                        seen.add(digest)
                    verdicts.append(verdict)
                report = validator.validate(name, records)
                ledger.commit_deduplicated(report.accepted, name,
                                           report.accepted_digests,
                                           report.accepted_headers)
                committed = seen
                expected.append(
                    (name, [d.hex() for d in digests], verdicts))

            # Two sessions pass the advisory gate with the same fresh
            # records before either commits; the ledger lock refuses the
            # second's copies.
            fresh = [_seal_plaintext(contributors[1], 90 + i, _GOOD)
                     for i in range(race)]
            winner = validator.validate("c1", fresh)
            loser = validator.validate("c1", fresh)
            ledger.commit_deduplicated(winner.accepted, "c1",
                                       winner.accepted_digests,
                                       winner.accepted_headers)
            _, refused = ledger.commit_deduplicated(
                loser.accepted, "c1", loser.accepted_digests,
                loser.accepted_headers)
            validator.quarantine_at_commit(loser, refused)
            assert refused == fresh and loser.accepted == []
            hexes = [record_digest(r).hex() for r in fresh]
            expected += [("c1", hexes, ["ok"] * race)] * 2
            expected.append(("c1", hexes, ["duplicate"] * race))

            events = validator.audit.events("ingest-validate")
            assert [(e.details["contributor"], e.details["record_digests"],
                     e.details["verdicts"]) for e in events] == expected
            refusals = [e for e in events
                        if set(hexes) & set(e.details["record_digests"])
                        and "duplicate" in e.details["verdicts"]]
            assert refusals == [events[-1]]
            assert validator.verify_audit_chain()

            event = data.draw(st.sampled_from(events))
            at = data.draw(st.integers(0, len(event.details["verdicts"]) - 1))
            original = event.details["verdicts"][at]
            event.details["verdicts"][at] = (
                "tampered" if original == "ok" else "ok")
            assert not validator.verify_audit_chain()
            event.details["verdicts"][at] = original
            assert validator.verify_audit_chain()

    def test_every_decision_audited_and_chained(self, validator, contributors):
        records = _records(contributors[0])
        bad = records[1]
        records[1] = dataclasses.replace(
            bad, sealed=bytes([bad.sealed[0] ^ 0xFF]) + bad.sealed[1:]
        )
        validator.validate("c0", records)
        events = validator.audit.events("ingest-validate")
        assert len(events) == 1  # one chained event commits the session
        assert events[0].details["contributor"] == "c0"
        assert events[0].details["record_digests"] == [
            record_digest(r).hex() for r in records]
        verdicts = events[0].details["verdicts"]
        assert verdicts[1] == "tampered"
        assert verdicts.count("ok") == len(records) - 1
        assert validator.verify_audit_chain()

    def test_telemetry_counters(self, validator, contributors):
        records = _records(contributors[0])
        records[0] = dataclasses.replace(
            records[0], label=(records[0].label + 1) % CLASSES
        )
        validator.validate("c0", records)
        assert validator.telemetry.counter("records_accepted") == len(records) - 1
        assert validator.telemetry.counter("records_quarantined") == 1
        assert validator.telemetry.counter("quarantined_tampered") == 1
        assert 0 < validator.telemetry.snapshot()["quarantine_rate"] < 1


class TestConcurrency:
    def test_many_batches_deterministic_order(self, server, ledger,
                                              contributors, rng):
        """4-record ECALL batches across 2 workers must still commit in
        submission order (ledger determinism depends on it)."""
        gen = rng.child("big").generator
        big = Dataset(x=gen.random((40,) + SHAPE).astype(np.float32),
                      y=gen.integers(0, CLASSES, size=40))
        records = list(iter_encrypted_records(big, contributors[0].key, "c0"))
        validator = ValidationPool(
            server.enclave,
            ValidationConfig(num_classes=CLASSES, input_shape=SHAPE,
                             workers=4, batch_records=4),
            ledger=ledger,
        )
        report = validator.validate("c0", records)
        assert report.accepted == records
