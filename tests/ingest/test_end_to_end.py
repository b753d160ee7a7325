"""End-to-end acceptance tests for the ingestion plane.

The fault-injection criterion: kill an upload after N chunks, resume it
from chunk N+1 in a fresh "process" (new key object rebuilt from the
same material), and the final ledger manifest digest must be
byte-identical to an uninterrupted upload's. Hostile records — tampered
payloads, flipped labels — land in the quarantine lane with audit
entries and never reach training.
"""

import dataclasses

import pytest

from repro.crypto.keys import SymmetricKey
from repro.data.encryption import iter_encrypted_records
from repro.ingest import (ContributionLedger, GatewayConfig, IngestGateway,
                          ValidationConfig, ValidationPool, chunk_stream)

from tests.ingest.conftest import CLASSES, SHAPE

CHUNK = 4


def _world(server, tmp_path, name):
    ledger = ContributionLedger.create(tmp_path / f"ledger-{name}")
    validator = ValidationPool(
        server.enclave,
        ValidationConfig(num_classes=CLASSES, input_shape=SHAPE, workers=2,
                         batch_records=CHUNK),
        ledger=ledger,
    )
    gateway = IngestGateway(
        ledger, validator, spool_dir=tmp_path / f"spool-{name}",
        config=GatewayConfig(chunk_records=CHUNK),
    )
    return ledger, gateway


def _fresh_key(contributor):
    return SymmetricKey(contributor.key.key_id, contributor.key.material)


def _upload(gateway, contributor):
    session = gateway.open_session(contributor.participant_id)
    stream = iter_encrypted_records(
        contributor.dataset, _fresh_key(contributor),
        contributor.participant_id,
    )
    for chunk in chunk_stream(stream, CHUNK):
        session.send_chunk(chunk)
    return session.complete()


class TestFaultInjection:
    def test_resumed_upload_ledger_is_byte_identical(self, server, tmp_path,
                                                     contributors):
        crash_after = 2  # chunks acked before the client dies

        ledger_a, gateway_a = _world(server, tmp_path, "uninterrupted")
        for contributor in contributors:
            _upload(gateway_a, contributor)

        ledger_b, gateway_b = _world(server, tmp_path, "faulted")
        victim, bystander = contributors

        # the victim's client dies mid-upload after `crash_after` acks
        session = gateway_b.open_session(victim.participant_id)
        stream = iter_encrypted_records(victim.dataset, _fresh_key(victim),
                                        victim.participant_id)
        chunks = chunk_stream(stream, CHUNK)
        for _ in range(crash_after):
            session.send_chunk(next(chunks))
        del session, stream, chunks  # the process is gone
        assert gateway_b.evict_session(victim.participant_id)

        # a fresh process resumes from the journal: chunk N+1 onwards
        resumed = gateway_b.resume_session(victim.participant_id)
        assert resumed.next_seq == crash_after
        assert resumed.acked_records == crash_after * CHUNK
        key = _fresh_key(victim)
        key.advance_past(resumed.max_nonce())
        rest = iter_encrypted_records(victim.dataset, key,
                                      victim.participant_id,
                                      start_index=resumed.acked_records)
        for chunk in chunk_stream(rest, CHUNK):
            resumed.send_chunk(chunk)
        receipt = resumed.complete()
        assert receipt.committed == len(victim.dataset)
        _upload(gateway_b, bystander)

        assert ledger_b.manifest_digest() == ledger_a.manifest_digest()
        assert list(ledger_b.iter_records()) == list(ledger_a.iter_records())


class TestHostileTraffic:
    def test_tampered_and_relabelled_never_reach_training(
            self, server, tmp_path, contributors, attestation_service):
        ledger, gateway = _world(server, tmp_path, "hostile")
        honest, hostile = contributors

        _upload(gateway, honest)

        records = list(iter_encrypted_records(
            hostile.dataset, _fresh_key(hostile), hostile.participant_id
        ))
        flipped = records[1]
        records[1] = dataclasses.replace(
            flipped, label=(flipped.label + 1) % CLASSES  # relabel attack
        )
        forged = records[5]
        records[5] = dataclasses.replace(
            forged, sealed=bytes([forged.sealed[0] ^ 0xFF]) + forged.sealed[1:]
        )
        session = gateway.open_session(hostile.participant_id)
        for start in range(0, len(records), CHUNK):
            session.send_chunk(records[start : start + CHUNK])
        receipt = session.complete()
        assert receipt.committed == len(records) - 2
        assert receipt.quarantined == 2

        # forensic lane + audit trail carry the evidence
        quarantined = list(ledger.iter_records(lane="quarantine"))
        assert sorted(r.index for r in quarantined) == [1, 5]
        assert all(q.reason == "tampered" for q in ledger.quarantined)
        events = gateway.validator.audit.events("ingest-validate")
        assert len(events) == 2  # one per validated session
        verdicts = [v for e in events for v in e.details["verdicts"]]
        assert verdicts.count("tampered") == 2
        assert gateway.validator.verify_audit_chain()

        # training consumes the committed lane only: nothing left to reject
        server.from_ledger(ledger)
        summary = server.decrypt_submissions()
        assert summary.rejected_tampered == 0
        assert summary.rejected_unregistered == 0
        assert summary.accepted == len(honest.dataset) + len(records) - 2
        hostile_nonces = {records[1].nonce, records[5].nonce}
        committed_hostile = {r.nonce for r in ledger.iter_records()
                             if r.source_id == hostile.participant_id}
        assert not hostile_nonces & committed_hostile


class TestOneDatasetOneRunKey:
    def test_commit_order_does_not_change_the_run_key(self, server, tmp_path,
                                                      contributors):
        """Two sessions of one dataset open at once, committed in either
        order, ten times over: the ledger history (its manifest digest)
        differs with the order, the run key does not — its data input is
        the ledger's record set."""
        from repro.core.caltrain import CalTrain, CalTrainConfig
        from repro.nn.zoo import tiny_testnet

        system = CalTrain(CalTrainConfig(
            seed=7, network_factory=lambda gen: tiny_testnet(
                gen, input_shape=SHAPE, num_classes=CLASSES)))
        keys, histories = set(), set()
        for rep in range(10):
            ledger, gateway = _world(server, tmp_path, f"rep-{rep}")
            sessions = []
            for contributor in contributors:
                session = gateway.open_session(contributor.participant_id)
                for chunk in chunk_stream(iter_encrypted_records(
                        contributor.dataset, _fresh_key(contributor),
                        contributor.participant_id), CHUNK):
                    session.send_chunk(chunk)
                sessions.append(session)
            for session in sessions[:: 1 if rep % 2 else -1]:
                session.complete()
            system.ledger = ledger
            keys.add(system.compute_run_key())
            histories.add(ledger.manifest_digest())
        assert len(histories) == 2
        assert len(keys) == 1
