"""Gateway tests: attestation gate, backpressure, quotas, rate limits."""

import dataclasses
import errno
import json
import os
import shutil
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.crypto.keys import SymmetricKey
from repro.data.encryption import iter_encrypted_records
from repro.errors import (ConfigurationError, IngestError, TransferError,
                          UploadRejected)
from repro.ingest import (ContributionLedger, GatewayConfig, IngestGateway,
                          TokenBucket, UploadTransfer, ValidationPool,
                          record_digest)
from repro.ingest.ledger import record_header
from tests.ingest.conftest import flip_chunk_byte, rewrite_chunk_headers


def _records(contributor):
    # A fresh key object per call keeps the nonce stream deterministic, so
    # repeated calls reproduce identical ciphertexts for comparison.
    key = SymmetricKey(contributor.key.key_id, contributor.key.material)
    return list(iter_encrypted_records(contributor.dataset, key,
                                       contributor.participant_id))


def _upload_all(gateway, contributor, chunk=4):
    session = gateway.open_session(contributor.participant_id)
    records = _records(contributor)
    for start in range(0, len(records), chunk):
        session.send_chunk(records[start : start + chunk])
    return session.complete()


class TestConfig:
    @pytest.mark.parametrize("overrides", [
        {"max_open_sessions": 0},
        {"max_records_per_contributor": 0},
        {"max_bytes_per_contributor": 0},
        {"rate_capacity": 0.0},
        {"rate_refill_per_s": -1.0},
        {"chunk_records": 0},
    ])
    def test_bad_config_rejected(self, overrides):
        with pytest.raises(ConfigurationError):
            GatewayConfig(**overrides)


class TestTokenBucket:
    def test_burst_then_refill(self):
        now = [0.0]
        bucket = TokenBucket(capacity=10, refill_per_s=5, clock=lambda: now[0])
        assert bucket.try_take(10)
        assert not bucket.try_take(1)
        now[0] = 1.0  # 5 tokens refilled
        assert bucket.try_take(5)
        assert not bucket.try_take(1)

    def test_capacity_caps_refill(self):
        now = [0.0]
        bucket = TokenBucket(capacity=4, refill_per_s=100, clock=lambda: now[0])
        now[0] = 60.0
        assert bucket.try_take(4)
        assert not bucket.try_take(1)


class TestAttestationGate:
    def test_unprovisioned_contributor_refused(self, gateway, stranger):
        with pytest.raises(UploadRejected, match="provisioned"):
            gateway.open_session(stranger.participant_id)
        assert gateway.telemetry.counter("rejected_unprovisioned") == 1

    def test_unprovisioned_resume_refused(self, gateway, stranger):
        with pytest.raises(UploadRejected):
            gateway.resume_session(stranger.participant_id)

    def test_provisioned_contributor_admitted(self, gateway, contributors):
        session = gateway.open_session(contributors[0].participant_id)
        assert gateway.open_sessions == 1
        session.abort()


class TestBackpressure:
    def test_bounded_sessions(self, gateway, contributors):
        held = [gateway.open_session(contributors[0].participant_id, f"s{i}")
                for i in range(4)]
        with pytest.raises(UploadRejected, match="in flight"):
            gateway.open_session(contributors[1].participant_id)
        assert gateway.telemetry.counter("rejected_backpressure") == 1
        held[0].abort()
        gateway.open_session(contributors[1].participant_id)

    def test_duplicate_session_refused(self, gateway, contributors):
        gateway.open_session(contributors[0].participant_id, "s")
        with pytest.raises(UploadRejected, match="already"):
            gateway.open_session(contributors[0].participant_id, "s")

    def test_oversized_chunk_refused(self, gateway, contributors):
        session = gateway.open_session(contributors[0].participant_id)
        with pytest.raises(UploadRejected, match="bound"):
            session.send_chunk(_records(contributors[0])[:5])
        assert gateway.telemetry.counter("rejected_oversized_chunk") == 1


class TestQuotas:
    def test_record_quota_cuts_stream_midflight(self, ledger, validator,
                                                tmp_path, contributors):
        gateway = IngestGateway(
            ledger, validator, spool_dir=tmp_path / "spool",
            config=GatewayConfig(chunk_records=4,
                                 max_records_per_contributor=8),
        )
        session = gateway.open_session(contributors[0].participant_id)
        records = _records(contributors[0])
        session.send_chunk(records[:4])
        session.send_chunk(records[4:8])
        with pytest.raises(UploadRejected, match="quota"):
            session.send_chunk(records[8:12])
        assert gateway.telemetry.counter("rejected_quota") == 1

    def test_record_quota_spans_sessions(self, ledger, validator, tmp_path,
                                         contributors):
        gateway = IngestGateway(
            ledger, validator, spool_dir=tmp_path / "spool",
            config=GatewayConfig(chunk_records=8,
                                 max_records_per_contributor=14),
        )
        receipt = _upload_all(gateway, contributors[0], chunk=8)
        assert receipt.committed == 12
        session = gateway.open_session(contributors[0].participant_id, "more")
        with pytest.raises(UploadRejected, match="quota"):
            session.send_chunk(_records(contributors[1])[:4])

    def test_byte_quota(self, ledger, validator, tmp_path, contributors):
        gateway = IngestGateway(
            ledger, validator, spool_dir=tmp_path / "spool",
            config=GatewayConfig(chunk_records=4,
                                 max_bytes_per_contributor=64),
        )
        session = gateway.open_session(contributors[0].participant_id)
        with pytest.raises(UploadRejected, match="byte quota"):
            session.send_chunk(_records(contributors[0])[:1])

    def test_byte_quota_counts_spooled_bytes(self, ledger, validator,
                                             tmp_path, contributors):
        """Bytes journaled but not yet committed count against the byte
        quota, so a contributor cannot spool past the cap inside one
        session (the disk-exhaustion vector)."""
        records = _records(contributors[0])
        chunk_bytes = sum(len(r.sealed) for r in records[:4])
        gateway = IngestGateway(
            ledger, validator, spool_dir=tmp_path / "spool",
            config=GatewayConfig(
                chunk_records=4,
                max_bytes_per_contributor=chunk_bytes + chunk_bytes // 2,
            ),
        )
        session = gateway.open_session(contributors[0].participant_id)
        session.send_chunk(records[:4])
        with pytest.raises(UploadRejected, match="byte quota"):
            session.send_chunk(records[4:8])
        assert gateway.telemetry.counter("rejected_quota") == 1

    def test_quotas_span_concurrent_open_sessions(self, ledger, validator,
                                                  tmp_path, contributors):
        """Pending records in *other* open sessions of the same
        contributor count too — quotas cannot be dodged by sharding an
        upload across parallel sessions."""
        gateway = IngestGateway(
            ledger, validator, spool_dir=tmp_path / "spool",
            config=GatewayConfig(chunk_records=4,
                                 max_records_per_contributor=10),
        )
        records = _records(contributors[0])
        first = gateway.open_session(contributors[0].participant_id, "s1")
        second = gateway.open_session(contributors[0].participant_id, "s2")
        first.send_chunk(records[:4])
        second.send_chunk(records[4:8])
        with pytest.raises(UploadRejected, match="quota"):
            first.send_chunk(records[8:12])

    def test_quota_state_rebuilt_from_ledger(self, ledger, validator,
                                             tmp_path, contributors, gateway):
        _upload_all(gateway, contributors[1])
        ledger.append(_records(contributors[0]), "c0")
        reopened = IngestGateway(
            ledger, validator, spool_dir=tmp_path / "spool-reopened",
            config=GatewayConfig(chunk_records=4,
                                 max_records_per_contributor=14),
        )
        assert reopened.committed_records("c0") == 12
        # The byte quota too: the sealed bytes the live gateway charged.
        assert reopened._committed_bytes == {
            "c0": sum(len(r.sealed) for r in _records(contributors[0])),
            "c1": gateway._committed_bytes["c1"],
        }
        session = reopened.open_session("c0")
        with pytest.raises(UploadRejected, match="quota"):
            session.send_chunk(_records(contributors[1])[:4])


class TestUploaderIdentity:
    def test_record_naming_another_contributor_is_quarantined(
            self, gateway, ledger, validator, tmp_path, contributors):
        """c0 seals records under its own key naming c1: they authenticate,
        but must not commit into c0's segment as c1's data, where a
        reopened gateway would charge c1 for them."""
        c0 = contributors[0]
        key = SymmetricKey(c0.key.key_id, c0.key.material)
        records = list(iter_encrypted_records(c0.dataset, key, "c0"))[:8]
        records += list(iter_encrypted_records(c0.dataset, key, "c1"))[8:]
        session = gateway.open_session("c0")
        for start in range(0, len(records), 4):
            session.send_chunk(records[start : start + 4])
        receipt = session.complete()
        assert (receipt.committed, receipt.quarantined) == (8, 4)
        assert [(q.reason, q.records) for q in ledger.quarantined] == [
            ("source-mismatch", 4)]
        assert validator.telemetry.counter("quarantined_source_mismatch") == 4
        assert {r.source_id for r in ledger.iter_records()} == {"c0"}
        reopened = IngestGateway(ledger, validator,
                                 spool_dir=tmp_path / "spool-reopened")
        for name in ("c0", "c1"):
            assert reopened.committed_records(name) == (
                gateway.committed_records(name))
        assert reopened.committed_records("c1") == 0


class TestRateLimit:
    def test_sustained_rate_capped(self, ledger, validator, tmp_path,
                                   contributors):
        now = [0.0]
        gateway = IngestGateway(
            ledger, validator, spool_dir=tmp_path / "spool",
            config=GatewayConfig(chunk_records=4, rate_capacity=8.0,
                                 rate_refill_per_s=4.0),
            clock=lambda: now[0],
        )
        session = gateway.open_session(contributors[0].participant_id)
        records = _records(contributors[0])
        session.send_chunk(records[:4])
        session.send_chunk(records[4:8])  # burst capacity exhausted
        with pytest.raises(UploadRejected, match="rate"):
            session.send_chunk(records[8:12])
        assert gateway.telemetry.counter("rejected_rate") == 1
        now[0] = 1.0  # 4 records/s refill
        session.send_chunk(records[8:12])


class TestLifecycle:
    def test_complete_commits_to_ledger(self, gateway, ledger, contributors):
        receipt = _upload_all(gateway, contributors[0])
        assert receipt.committed == 12 and receipt.quarantined == 0
        assert receipt.segment is not None
        assert receipt.manifest_digest == ledger.manifest_digest().hex()
        assert list(ledger.iter_records()) == _records(contributors[0])
        assert gateway.open_sessions == 0
        assert gateway.committed_records("c0") == 12
        assert gateway.telemetry.counter("sessions_committed") == 1

    def test_complete_discards_spool(self, gateway, contributors, tmp_path):
        _upload_all(gateway, contributors[0])
        assert not list((tmp_path / "spool").rglob("*.bin"))
        assert not list((tmp_path / "spool").rglob("journal.jsonl"))

    def test_closed_session_rejects_traffic(self, gateway, contributors):
        session = gateway.open_session(contributors[0].participant_id)
        records = _records(contributors[0])
        session.send_chunk(records[:4])
        session.complete()
        with pytest.raises(IngestError):
            session.send_chunk(records[4:8])
        with pytest.raises(IngestError):
            session.complete()

    def test_abort_frees_slot_and_spool(self, gateway, contributors,
                                        tmp_path):
        session = gateway.open_session(contributors[0].participant_id)
        session.send_chunk(_records(contributors[0])[:4])
        session.abort()
        assert gateway.open_sessions == 0
        assert not list((tmp_path / "spool").rglob("journal.jsonl"))
        assert gateway.telemetry.counter("sessions_aborted") == 1
        assert session.transfer.finalize() == ([], [], [])  # hold is gone

    def test_evict_then_resume(self, gateway, contributors, tmp_path):
        """A crashed client's slot is reclaimed; its journal survives for
        resume, and the resumed session continues at the journal head."""
        session = gateway.open_session(contributors[0].participant_id)
        records = _records(contributors[0])
        session.send_chunk(records[:4])
        assert gateway.evict_session(contributors[0].participant_id)
        assert gateway.open_sessions == 0
        assert list((tmp_path / "spool").rglob("journal.jsonl"))

        resumed = gateway.resume_session(contributors[0].participant_id)
        assert resumed.resumed and resumed.next_seq == 1
        assert resumed.acked_records == 4
        assert resumed.max_nonce() == max(r.nonce for r in records[:4])
        resumed.send_chunk(records[4:8])
        resumed.send_chunk(records[8:12])
        receipt = resumed.complete()
        assert receipt.committed == 12
        assert gateway.telemetry.counter("sessions_resumed") == 1

    def test_re_encoded_spool_commits_no_second_copy(
            self, gateway, ledger, contributors, tmp_path):
        """A spool that re-sends committed records under headers with the
        same fields in other bytes would give each a second identity past
        both dedup gates; resume refuses it and the ledger keeps one copy."""
        contributor = contributors[0].participant_id
        records = _records(contributors[0])
        earlier = gateway.open_session(contributor, "earlier")
        earlier.send_chunk(records[:4])
        earlier.complete()
        session = gateway.open_session(contributor)
        session.send_chunk(records[:4])
        gateway.evict_session(contributor)
        [spool] = {p.parent for p in (tmp_path / "spool").rglob("*.bin")}
        rewrite_chunk_headers(spool, 0)
        with pytest.raises(TransferError, match="not canonically packed"):
            gateway.resume_session(contributor)
        assert [s.records for s in ledger.segments] == [4]
        assert ledger.verify()

    def test_spool_altered_after_ack_changes_nothing(
            self, gateway, ledger, validator, contributors, tmp_path):
        """A live session commits the records it acknowledged, from
        memory: a chunk byte flipped on disk after the ack neither changes
        nor blocks the commit. After a crash the same spool still fails
        closed on resume."""
        records = _records(contributors[0])
        session = gateway.open_session("c0")
        session.send_chunk(records[:4])
        session.send_chunk(records[4:8])
        [spool] = {p.parent for p in (tmp_path / "spool").rglob("*.bin")}
        flip_chunk_byte(spool, 0)
        shutil.copytree(spool, tmp_path / "altered")
        receipt = session.complete()

        [segment] = ledger.segments
        meta = json.loads(
            (ledger.path / f"{segment.name}.meta.json").read_text())
        assert meta["digests"] == [record_digest(r).hex()
                                   for r in records[:8]]
        twin_ledger = ContributionLedger.create(tmp_path / "twin-ledger")
        twin = IngestGateway(
            twin_ledger,
            ValidationPool(validator.enclave, validator.config,
                           ledger=twin_ledger),
            spool_dir=tmp_path / "twin-spool", config=gateway.config,
        )
        twin_session = twin.open_session("c0")
        twin_session.send_chunk(records[:4])
        twin_session.send_chunk(records[4:8])
        assert twin_session.complete().manifest_digest == \
            receipt.manifest_digest
        with pytest.raises(TransferError, match="digest check"):
            UploadTransfer.resume(tmp_path / "altered")

    def test_evict_unknown_session(self, gateway):
        assert not gateway.evict_session("nobody")

    def test_open_over_stale_spool_typed_rejection(self, gateway,
                                                   contributors):
        """A crashed session's spool makes a fresh open fail with the
        gateway's typed backpressure error pointing at resume_session,
        not a raw internal TransferError."""
        session = gateway.open_session(contributors[0].participant_id)
        session.send_chunk(_records(contributors[0])[:4])
        gateway.evict_session(contributors[0].participant_id)
        with pytest.raises(UploadRejected, match="resume_session"):
            gateway.open_session(contributors[0].participant_id)
        assert gateway.telemetry.counter("rejected_stale_spool") == 1
        resumed = gateway.resume_session(contributors[0].participant_id)
        assert resumed.next_seq == 1

    def test_resume_without_spool_typed_rejection(self, gateway,
                                                  contributors):
        with pytest.raises(UploadRejected, match="no spooled"):
            gateway.resume_session(contributors[0].participant_id)


class TestConcurrentCompletion:
    def test_racing_duplicate_sessions_commit_once(self, gateway, ledger,
                                                   validator, contributors):
        """Two sessions carrying the same sealed ciphertexts complete
        concurrently: exactly one copy is committed, the other is
        quarantined as a duplicate, and both ledger and audit chain stay
        consistent."""
        records = _records(contributors[0])
        sessions = []
        for name in ("s1", "s2"):
            session = gateway.open_session(contributors[0].participant_id,
                                           name)
            for start in range(0, len(records), 4):
                session.send_chunk(records[start : start + 4])
            sessions.append(session)
        with ThreadPoolExecutor(max_workers=2) as pool:
            receipts = list(pool.map(lambda s: s.complete(), sessions))
        assert sum(r.committed for r in receipts) == len(records)
        assert sum(r.quarantined for r in receipts) == len(records)
        assert len(ledger) == len(records)
        assert list(ledger.iter_records()) == records
        assert ledger.quarantined_records == len(records)
        assert all(info.reason == "duplicate" for info in ledger.quarantined)
        assert ledger.verify()
        assert validator.verify_audit_chain()
        assert gateway.committed_records("c0") == len(records)

    def test_many_contributor_sessions_complete_in_parallel(
            self, gateway, ledger, validator, contributors):
        """Distinct contributors completing at once — the benchmark's
        shape — must each land exactly their own records."""
        sessions = []
        for contributor in contributors:
            records = _records(contributor)
            session = gateway.open_session(contributor.participant_id)
            for start in range(0, len(records), 4):
                session.send_chunk(records[start : start + 4])
            sessions.append(session)
        with ThreadPoolExecutor(max_workers=2) as pool:
            receipts = list(pool.map(lambda s: s.complete(), sessions))
        assert all(r.committed == 12 and r.quarantined == 0
                   for r in receipts)
        assert len(ledger) == 24
        assert ledger.verify()
        assert validator.verify_audit_chain()


def _count_content_digests(monkeypatch):
    """Count every content-digest computation, from outside: both modules
    that can compute one call ``header_digest`` (the one digest function,
    over a record's canonical header) through their own global name, so a
    counting stand-in under each name sees them all. The JSON-path
    ``record_digest`` is counted apart: the session path never calls it."""
    from repro.ingest import ledger as ledger_module
    from repro.ingest import transfer as transfer_module

    real = ledger_module.header_digest
    digested, json_digested = [], []

    def counting(header, sealed):
        digested.append((header, sealed))
        return real(header, sealed)

    def json_counting(record):
        json_digested.append(record)
        return record_digest(record)

    for module in (ledger_module, transfer_module):
        monkeypatch.setattr(module, "header_digest", counting)
        monkeypatch.setattr(module, "record_digest", json_counting,
                            raising=False)
    return digested, json_digested


class TestOneDigestPerRecord:
    """A record's content digest is computed once per session, at the
    validation gate, from the canonical header the journal encoded, and
    carried as a value to the dedup gate, the sidecar and the audit event
    (recomputing it at each would cost ≈ 3n)."""

    def test_hostile_session_digests_each_journaled_record_once(
            self, gateway, ledger, validator, contributors, monkeypatch):
        records = _records(contributors[0])
        earlier = gateway.open_session("c0", "earlier")
        earlier.send_chunk(records[:4])
        earlier.complete()
        # A ciphertext the earlier session committed, sent again.
        records = records[4:] + [records[0]]
        tampered = dataclasses.replace(
            records[2], sealed=bytes([records[2].sealed[0] ^ 0xFF])
            + records[2].sealed[1:])
        relabelled = dataclasses.replace(
            records[5], label=(records[5].label + 1) % 3)
        records[2], records[5] = tampered, relabelled

        digested, json_digested = _count_content_digests(monkeypatch)
        session = gateway.open_session("c0")
        for start in range(0, len(records), 4):
            session.send_chunk(records[start : start + 4])
        receipt = session.complete()

        assert receipt.committed == 6 and receipt.quarantined == 3
        assert [(q.reason, q.records) for q in ledger.quarantined] == [
            ("duplicate", 1), ("tampered", 2)]
        assert len(digested) == len(records) and json_digested == []
        assert sorted(digested) == sorted(
            (record_header(r), r.sealed) for r in records)
        # The one digest is the one every consumer shows.
        event = validator.audit.events("ingest-validate")[-1]
        assert event.details["record_digests"] == \
            [record_digest(r).hex() for r in records]
        assert ledger.verify() and validator.verify_audit_chain()

    def test_in_session_duplicates_are_digested_once_each(
            self, ledger, validator, contributors, monkeypatch):
        """The journal's nonce barrier refuses a repeated record before
        it is spooled, so this case enters where the journal hands over:
        ``validate`` then the commit, as ``_complete_session`` runs them."""
        records = _records(contributors[0])
        sent = records + [records[0], records[3]]
        digested, _ = _count_content_digests(monkeypatch)
        report = validator.validate("c0", sent)
        segment, duplicates = ledger.commit_deduplicated(
            report.accepted, "c0", report.accepted_digests)
        ledger.quarantine([q.record for q in report.quarantined], "c0",
                          "duplicate", [q.digest for q in report.quarantined])
        assert len(digested) == len(sent)
        assert segment.records == len(records) and duplicates == []
        assert report.quarantined_by_reason == {"duplicate": 2}
        assert [q.digest for q in report.quarantined] == \
            [record_digest(records[0]), record_digest(records[3])]

    def test_commit_race_loser_keeps_its_carried_digests(
            self, ledger, validator, contributors, monkeypatch):
        """The advisory gate passed, the gate under the lock refused:
        the refused records move to the report's quarantine list with
        the digests computed at the gate — nothing is digested again."""
        records = _records(contributors[0])
        report = validator.validate("c0", records)
        ledger.append(records[:5], "c1")  # the racing winner
        digested, json_digested = _count_content_digests(monkeypatch)
        segment, duplicates = ledger.commit_deduplicated(
            report.accepted, "c0", report.accepted_digests,
            report.accepted_headers)
        validator.quarantine_at_commit(report, duplicates)
        assert digested == [] and json_digested == []
        assert duplicates == records[:5] and segment.records == 7
        assert report.accepted == records[5:]
        assert report.accepted_digests == \
            [record_digest(r) for r in records[5:]]
        assert [(q.record, q.reason, q.digest) for q in report.quarantined] \
            == [(r, "duplicate", record_digest(r)) for r in records[:5]]
        telemetry = validator.telemetry
        assert telemetry.counter("records_accepted") == 7
        assert telemetry.counter("quarantined_duplicate") == 5
        assert validator.verify_audit_chain()


def _hostile(contributor):
    """The contributor's records with one tampered (chunk 0) and one
    relabelled (chunk 1): one quarantine segment selecting from two
    parts of three."""
    records = _records(contributor)
    records[1] = dataclasses.replace(
        records[1], sealed=bytes([records[1].sealed[0] ^ 0xFF])
        + records[1].sealed[1:])
    records[6] = dataclasses.replace(records[6],
                                     label=(records[6].label + 1) % 3)
    return records


def _send(gateway, contributor_id, records):
    session = gateway.open_session(contributor_id)
    for start in range(0, len(records), 4):
        session.send_chunk(records[start : start + 4])
    return session


def _twin(gateway, validator, tmp_path, name):
    ledger = ContributionLedger.create(tmp_path / f"{name}-ledger")
    return ledger, IngestGateway(
        ledger, ValidationPool(validator.enclave, validator.config,
                               ledger=ledger),
        spool_dir=tmp_path / f"{name}-spool", config=gateway.config)


def _lanes(ledger):
    """Per-lane record digests in commit order, the quarantine segments,
    and the records training reads."""
    return ([record_digest(r) for r in ledger.iter_records()],
            [record_digest(r) for r in ledger.iter_records("quarantine")],
            [(q.contributor, q.reason, q.records) for q in ledger.quarantined],
            ledger.verified_records())


def _inodes(transfer):
    return [os.stat(path).st_ino for path, _ in transfer.chunks()]


def _part_inodes(ledger, segment):
    return [os.stat(ledger.path / part).st_ino
            for part, _ in ledger.segment_layout(segment)]


class TestCommitByReference:
    def test_each_part_is_its_spool_chunk(self, gateway, ledger,
                                          contributors):
        """The second write is gone: the parts the session's segments
        select from are the very inodes of its spool chunks."""
        session = _send(gateway, "c0", _hostile(contributors[0]))
        chunks = _inodes(session.transfer)
        receipt = session.complete()
        assert _part_inodes(ledger, receipt.segment.name) == chunks
        [quarantine] = ledger.quarantined
        assert _part_inodes(ledger, quarantine.name) == chunks[:2]
        assert gateway.telemetry.counter("parts_linked") == len(chunks) == 3
        assert ledger.verify()

    def test_cross_device_link_commits_the_same_ledger(
            self, gateway, ledger, validator, contributors, tmp_path,
            monkeypatch):
        """``os.link`` failing as across filesystems: every part is
        written from the hold, and the lanes, their digests and the
        manifest digest are the linked run's."""
        records = _hostile(contributors[0])
        _send(gateway, "c0", records).complete()
        twin_ledger, twin = _twin(gateway, validator, tmp_path, "exdev")

        def cross_device(src, dst):
            raise OSError(errno.EXDEV, os.strerror(errno.EXDEV))

        monkeypatch.setattr(os, "link", cross_device)
        _send(twin, "c0", records).complete()
        assert _lanes(twin_ledger) == _lanes(ledger)
        assert twin_ledger.manifest_digest() == ledger.manifest_digest()
        assert twin.telemetry.counter("parts_written_cross_device") == 3
        assert twin.telemetry.counter("parts_linked") == 0
        assert twin_ledger.verify()

    def test_altered_chunk_is_the_one_part_written_from_the_hold(
            self, gateway, ledger, contributors, tmp_path):
        records = _records(contributors[0])
        session = _send(gateway, "c0", records)
        [spool] = {p.parent for p in (tmp_path / "spool").rglob("*.bin")}
        flip_chunk_byte(spool, 1)
        chunks = _inodes(session.transfer)
        receipt = session.complete()
        assert gateway.telemetry.counter("parts_written_altered") == 1
        assert gateway.telemetry.counter("parts_linked") == 2
        parts = _part_inodes(ledger, receipt.segment.name)
        assert parts[0::2] == chunks[0::2] and parts[1] != chunks[1]
        assert list(ledger.iter_records()) == records
        assert ledger.verify()


class TestConcurrentCommitByReference:
    def test_racing_sessions_link_every_chunk_once(self, ledger, validator,
                                                   contributors, tmp_path):
        """Four sessions — each contributor's records twice — complete at
        once on more threads than cores with a short switch interval:
        part names never collide, every chunk is linked once, and each
        record lands in the committed lane once and in the quarantine
        lane once."""
        import sys

        gateway = IngestGateway(
            ledger, validator, spool_dir=tmp_path / "race-spool",
            config=GatewayConfig(chunk_records=4, max_open_sessions=8))
        sessions = []
        for contributor in contributors:
            records = _records(contributor)
            for name in ("a", "b"):
                session = gateway.open_session(contributor.participant_id,
                                               name)
                for start in range(0, len(records), 4):
                    session.send_chunk(records[start : start + 4])
                sessions.append(session)
        chunks = {ino for s in sessions for ino in _inodes(s.transfer)}
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                receipts = [future.result(timeout=60) for future in
                            [pool.submit(s.complete) for s in sessions]]
        finally:
            sys.setswitchinterval(interval)
        assert sorted((r.committed, r.quarantined) for r in receipts) == \
            [(0, 12), (0, 12), (12, 0), (12, 0)]
        names = [part for info in ledger.segments + ledger.quarantined
                 for part, _ in ledger.segment_layout(info.name)]
        assert len(set(names)) == len(names) == len(chunks) == 12
        assert {os.stat(ledger.path / part).st_ino for part in names} == \
            chunks
        everyone = sorted(record_digest(r) for c in contributors
                          for r in _records(c))
        assert sorted(record_digest(r) for r in ledger.iter_records()) == \
            everyone
        assert sorted(record_digest(r) for r in
                      ledger.iter_records("quarantine")) == everyone
        assert gateway.telemetry.counter("parts_linked") == 12
        assert ledger.verify() and validator.verify_audit_chain()


class _Crash(Exception):
    """The process dies here."""


def _crash(*args, **kwargs):
    raise _Crash


class TestCommitCrashWindows:
    def test_crash_after_linking_before_the_manifest(
            self, gateway, ledger, validator, contributors, tmp_path,
            monkeypatch):
        """Parts linked and sidecars written, then the process dies before
        the manifest names them: the ledger reopens in its previous
        state, the resumed session commits, and the orphans it left are
        replaced, never trusted."""
        records = _hostile(contributors[0])
        session = _send(gateway, "c0", records)
        monkeypatch.setattr(ContributionLedger, "_write_manifest", _crash)
        with pytest.raises(_Crash):
            session.complete()
        monkeypatch.undo()
        left = sorted(p.name for p in ledger.path.iterdir())
        assert "segment-000000.bin" in left
        # Other bytes under an orphan's name: the re-commit must not keep
        # them.
        orphan = ledger.path / "segment-000000.bin"
        orphan.unlink()
        orphan.write_bytes(b"not the chunk")

        reopened = ContributionLedger.open(ledger.path)
        assert (len(reopened), reopened.quarantined_records,
                reopened.version) == (0, 0, 0)
        regateway = IngestGateway(
            reopened, ValidationPool(validator.enclave, validator.config,
                                     ledger=reopened),
            spool_dir=tmp_path / "spool", config=gateway.config)
        resumed = regateway.resume_session("c0")
        chunks = _inodes(resumed.transfer)
        receipt = resumed.complete()
        assert _part_inodes(reopened, receipt.segment.name) == chunks
        assert sorted(p.name for p in reopened.path.iterdir()) == left
        twin_ledger, twin = _twin(gateway, validator, tmp_path, "clean")
        _send(twin, "c0", records).complete()
        assert _lanes(reopened) == _lanes(twin_ledger)
        assert reopened.manifest_digest() == twin_ledger.manifest_digest()
        assert ContributionLedger.open(ledger.path).verify()

    def test_crash_after_the_manifest_before_the_spool_is_discarded(
            self, gateway, ledger, validator, contributors, tmp_path,
            monkeypatch):
        """The manifest names the session, then the process dies before
        its spool is discarded. Pinned: the spool stays resumable, and
        resuming it commits nothing new — every record is refused as a
        duplicate of its own commit into the quarantine lane, whose parts
        are the committed parts' inodes, so no sealed frame is stored
        twice."""
        records = _records(contributors[0])
        session = _send(gateway, "c0", records)
        monkeypatch.setattr(UploadTransfer, "discard", _crash)
        with pytest.raises(_Crash):
            session.complete()
        monkeypatch.undo()

        reopened = ContributionLedger.open(ledger.path)
        assert list(reopened.iter_records()) == records
        regateway = IngestGateway(
            reopened, ValidationPool(validator.enclave, validator.config,
                                     ledger=reopened),
            spool_dir=tmp_path / "spool", config=gateway.config)
        with pytest.raises(UploadRejected, match="resume_session"):
            regateway.open_session("c0")
        receipt = regateway.resume_session("c0").complete()
        assert (receipt.committed, receipt.quarantined) == (0, len(records))
        assert [(q.reason, q.records) for q in reopened.quarantined] == [
            ("duplicate", len(records))]
        assert list(reopened.iter_records()) == records
        assert list(reopened.iter_records("quarantine")) == records
        assert _part_inodes(reopened, "quarantine-000000") == \
            _part_inodes(reopened, "segment-000000")
        assert not list((tmp_path / "spool").rglob("*.bin"))
        assert ContributionLedger.open(ledger.path).verify()
