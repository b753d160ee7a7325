"""Ingesting encrypted contributions at scale: the full `repro.ingest` plane.

The paper's submission step hands one in-memory encrypted dataset to the
training server. This example runs the production-shaped path instead:

1. contributors provision their data keys into the training enclave over
   attested TLS (no key, no upload — the gateway checks),
2. each contributor *streams* its sealed records in bounded chunks
   through a write-ahead journal (`iter_encrypted_records` never
   materialises the whole dataset),
3. one upload is killed mid-transfer and resumed: the journal reports
   the last acknowledged chunk and the highest spent nonce, the client
   advances its key past it, and the final ledger is byte-identical to
   an uninterrupted upload,
4. tampered and relabelled records are quarantined by the in-enclave
   validation pipeline — never committed, never crashing the pipe,
5. the append-only contribution ledger's manifest digest is sealed to
   the enclave identity, and training consumes the ledger directly.

Run:  python examples/ingestion_at_scale.py
"""

import dataclasses
import tempfile

from repro.data.datasets import synthetic_cifar
from repro.data.encryption import iter_encrypted_records
from repro.enclave.attestation import AttestationService
from repro.enclave.platform import SgxPlatform
from repro.federation.participant import TrainingParticipant
from repro.federation.provisioning import provision_key
from repro.federation.server import TrainingServer
from repro.ingest import (ContributionLedger, GatewayConfig, IngestGateway,
                          ValidationConfig, ValidationPool, chunk_stream)
from repro.utils.rng import RngStream

RECORDS_PER = 160
CHUNK = 32
SHAPE = (8, 8, 3)
CLASSES = 4


def build_world(rng, ledger_path, spool_path):
    platform = SgxPlatform(rng=rng.child("platform"))
    attestation = AttestationService()
    server = TrainingServer(platform, attestation, rng.child("server"))
    server.build_training_enclave("[net]\ninput = 8,8,3\n[softmax]\n[cost]\n")
    ledger = ContributionLedger.create(ledger_path)
    validator = ValidationPool(
        server.enclave,
        ValidationConfig(num_classes=CLASSES, input_shape=SHAPE, workers=2),
        ledger=ledger,
    )
    gateway = IngestGateway(ledger, validator, spool_dir=spool_path,
                            config=GatewayConfig(chunk_records=CHUNK))
    return server, attestation, ledger, validator, gateway


def main() -> None:
    rng = RngStream(seed=31, name="ingest-example")
    ledger_path = tempfile.mkdtemp(prefix="caltrain-ledger-")
    server, attestation, ledger, validator, gateway = build_world(
        rng, ledger_path, ledger_path + ".spool"
    )
    enclave = server.enclave

    # -- 1. attested provisioning (the gate) --------------------------------
    contributors = []
    for i in range(3):
        data, _ = synthetic_cifar(rng.child(f"data-{i}"),
                                  num_train=RECORDS_PER, num_test=1,
                                  num_classes=CLASSES, shape=SHAPE)
        c = TrainingParticipant(f"contributor-{i}", data, rng.child(f"c{i}"))
        provision_key(c, enclave, attestation,
                      expected_mrenclave=enclave.mrenclave)
        contributors.append(c)
    print(f"{len(contributors)} contributors provisioned over attested TLS")

    # -- 2 + 3. a faulted, resumed, streaming upload ------------------------
    victim = contributors[0]
    session = gateway.open_session(victim.participant_id)
    stream = chunk_stream(
        iter_encrypted_records(victim.dataset, victim.key,
                               victim.participant_id),
        CHUNK,
    )
    for seq, chunk in enumerate(stream):
        session.send_chunk(chunk)
        if seq == 1:  # the "crash": client dies, server evicts the slot
            break
    acked = session.acked_records
    gateway.evict_session(victim.participant_id)
    print(f"{victim.participant_id}: crashed after {acked} acked records")

    session = gateway.resume_session(victim.participant_id)
    max_nonce = session.max_nonce()
    victim.key.advance_past(max_nonce)  # never re-spend a journaled nonce
    for chunk in chunk_stream(
        iter_encrypted_records(victim.dataset, victim.key,
                               victim.participant_id,
                               start_index=session.acked_records),
        CHUNK,
    ):
        session.send_chunk(chunk)
    receipt = session.complete()
    print(f"{victim.participant_id}: resumed at chunk {receipt.committed // CHUNK} "
          f"and committed {receipt.committed} records")

    # -- 4. hostile traffic: tampered + relabelled records ------------------
    for attacker in contributors[1:]:
        records = list(iter_encrypted_records(attacker.dataset, attacker.key,
                                              attacker.participant_id))
        bad = records[0]
        records[0] = dataclasses.replace(
            bad, sealed=bytes([bad.sealed[0] ^ 0xFF]) + bad.sealed[1:]
        )
        relabelled = records[1]
        records[1] = dataclasses.replace(
            relabelled, label=(relabelled.label + 1) % CLASSES
        )
        session = gateway.open_session(attacker.participant_id)
        for chunk in chunk_stream(iter(records), CHUNK):
            session.send_chunk(chunk)
        receipt = session.complete()
        print(f"{attacker.participant_id}: committed {receipt.committed}, "
              f"quarantined {receipt.quarantined}")

    print(gateway.telemetry.render())

    # -- 5. the sealing boundary + training from the ledger -----------------
    sealed = ledger.seal_manifest(enclave)
    assert ledger.verify_sealed_manifest(enclave, sealed)
    print(f"ledger manifest digest sealed to MRENCLAVE "
          f"{enclave.mrenclave.hex()[:16]}… and verified")
    assert validator.verify_audit_chain()
    decisions = sum(len(event.details["verdicts"])
                    for event in validator.audit.events("ingest-validate"))
    assert decisions == len(contributors) * RECORDS_PER  # one per record
    print(f"ingest audit: {decisions} admission decisions committed in "
          f"{len(validator.audit)} hash-chained events, chain verified")

    staged = server.from_ledger(ledger)
    summary = server.decrypt_submissions()
    assert summary.rejected_tampered == 0  # quarantine caught them upstream
    print(f"training intake: {staged} ledger records staged, "
          f"{summary.accepted} accepted in-enclave, 0 tampered reached "
          "training")


if __name__ == "__main__":
    main()
