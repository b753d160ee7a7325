"""Ingestion-plane throughput: concurrent contributors, durable resume.

The ROADMAP north star is a submission path that absorbs heavy traffic.
This bench drives the full `repro.ingest` pipeline — attested
provisioning, chunked journaled transfer, in-enclave validation, ledger
commit — and checks:

* **sustained concurrent throughput** — four contributors streaming
  simultaneously commit records end-to-end at >= 300 records/s (the
  floor is deliberately conservative for CI hardware; typical machines
  run an order of magnitude above it);
* **fault-injection resume** — an upload killed after N chunks and
  resumed from the journal produces a ledger whose manifest digest is
  byte-identical to an uninterrupted upload of the same data;
* **quarantine discipline** — tampered and relabelled records land in
  the quarantine lane with audit-chain entries and never reach the
  committed lane training reads.

Set ``REPRO_BENCH_SMOKE=1`` to run a reduced-size smoke configuration
(used by the CI benchmark job to catch throughput regressions fast).
"""

import dataclasses
import os
import threading
import time

from repro.data.datasets import synthetic_cifar
from repro.data.encryption import iter_encrypted_records
from repro.enclave.attestation import AttestationService
from repro.enclave.platform import SgxPlatform
from repro.federation.participant import TrainingParticipant
from repro.federation.provisioning import provision_key
from repro.federation.server import TrainingServer
from repro.ingest import (ContributionLedger, GatewayConfig, IngestGateway,
                          ValidationConfig, ValidationPool, chunk_stream)

SMOKE = os.environ.get("REPRO_BENCH_SMOKE") == "1"
CONTRIBUTORS = 4
RECORDS_PER = 400 if SMOKE else 2_000
CHUNK = 128
SHAPE = (8, 8, 3)
CLASSES = 4
MIN_RECORDS_PER_S = 300


def _world(rng, ledger_path, spool_path, num_contributors=CONTRIBUTORS,
           records_per=RECORDS_PER):
    platform = SgxPlatform(rng=rng.child("platform"))
    attestation = AttestationService()
    server = TrainingServer(platform, attestation, rng.child("server"))
    server.build_training_enclave("[net]\ninput = 8,8,3\n[softmax]\n[cost]\n")
    ledger = ContributionLedger.create(ledger_path)
    validator = ValidationPool(
        server.enclave,
        ValidationConfig(num_classes=CLASSES, input_shape=SHAPE, workers=4),
        ledger=ledger,
    )
    gateway = IngestGateway(
        ledger, validator, spool_dir=spool_path,
        config=GatewayConfig(chunk_records=CHUNK,
                             rate_capacity=records_per * num_contributors,
                             rate_refill_per_s=records_per * num_contributors),
    )
    contributors = []
    for i in range(num_contributors):
        data, _ = synthetic_cifar(rng.child(f"data-{i}"),
                                  num_train=records_per, num_test=1,
                                  num_classes=CLASSES, shape=SHAPE)
        c = TrainingParticipant(f"c{i}", data, rng.child(f"p{i}"))
        provision_key(c, server.enclave, attestation,
                      expected_mrenclave=server.enclave.mrenclave)
        contributors.append(c)
    return server, ledger, validator, gateway, contributors


def _encrypted(contributor):
    return list(iter_encrypted_records(contributor.dataset, contributor.key,
                                       contributor.participant_id))


def test_ingest_throughput(bench_rng, tmp_path_factory, benchmark):
    rng = bench_rng.child("ingest")
    root = tmp_path_factory.mktemp("ingest")
    server, ledger, validator, gateway, contributors = _world(
        rng, root / "ledger", root / "spool"
    )

    # Client-side sealing happens on contributor hardware; pre-encrypt so
    # the measured window is the server-side plane (journal + validate +
    # commit), which is what has to survive heavy traffic.
    payloads = {c.participant_id: _encrypted(c) for c in contributors}

    receipts = {}

    def upload(contributor):
        session = gateway.open_session(contributor.participant_id)
        for chunk in chunk_stream(iter(payloads[contributor.participant_id]),
                                  CHUNK):
            session.send_chunk(chunk)
        receipts[contributor.participant_id] = session.complete()

    started = time.perf_counter()
    threads = [threading.Thread(target=upload, args=(c,))
               for c in contributors]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    elapsed = time.perf_counter() - started
    total = CONTRIBUTORS * RECORDS_PER
    rate = total / elapsed

    print(f"\ningest throughput: {total} records from {CONTRIBUTORS} "
          f"concurrent contributors in {elapsed:.2f}s ({rate:,.0f} rec/s)")
    print(gateway.telemetry.render())

    # Claim 1: sustained concurrent throughput above the floor.
    assert len(ledger) == total
    assert all(r.committed == RECORDS_PER for r in receipts.values())
    assert rate >= MIN_RECORDS_PER_S, (
        f"ingest ran at {rate:.0f} rec/s < {MIN_RECORDS_PER_S} rec/s floor"
    )

    # Claim 2: fault-injection resume reproduces the uninterrupted ledger
    # bit for bit (manifest digests equal).
    digests = []
    for variant in ("uninterrupted", "faulted"):
        vrng = bench_rng.child("ingest-resume")  # same seed both times
        vroot = tmp_path_factory.mktemp(f"resume-{variant}")
        _, vledger, _, vgateway, (victim,) = _world(
            vrng, vroot / "ledger", vroot / "spool",
            num_contributors=1, records_per=RECORDS_PER,
        )
        records = _encrypted(victim)
        chunks = list(chunk_stream(iter(records), CHUNK))
        session = vgateway.open_session(victim.participant_id)
        if variant == "faulted":
            crash_after = len(chunks) // 2
            for chunk in chunks[:crash_after]:
                session.send_chunk(chunk)
            vgateway.evict_session(victim.participant_id)  # client died
            session = vgateway.resume_session(victim.participant_id)
            assert session.next_seq == crash_after  # resumes at chunk N+1
            assert session.acked_records == crash_after * CHUNK
            remaining = chunks[crash_after:]
        else:
            remaining = chunks
        for chunk in remaining:
            session.send_chunk(chunk)
        receipt = session.complete()
        assert receipt.committed == RECORDS_PER
        digests.append(vledger.manifest_digest())
    assert digests[0] == digests[1], (
        "resumed ledger is not byte-identical to the uninterrupted one"
    )
    print(f"resume parity: interrupted and uninterrupted ledgers share "
          f"manifest digest {digests[0].hex()[:16]}…")

    # Claim 3: tampered + relabelled records are quarantined with audit
    # entries and never reach the lane training reads.
    hrng = bench_rng.child("ingest-hostile")
    hroot = tmp_path_factory.mktemp("hostile")
    hserver, hledger, hvalidator, hgateway, (attacker,) = _world(
        hrng, hroot / "ledger", hroot / "spool",
        num_contributors=1, records_per=CHUNK,
    )
    records = _encrypted(attacker)
    tampered = records[0]
    records[0] = dataclasses.replace(
        tampered, sealed=bytes([tampered.sealed[0] ^ 0xFF]) + tampered.sealed[1:]
    )
    relabelled = records[1]
    records[1] = dataclasses.replace(
        relabelled, label=(relabelled.label + 1) % CLASSES
    )
    session = hgateway.open_session(attacker.participant_id)
    for chunk in chunk_stream(iter(records), CHUNK):
        session.send_chunk(chunk)
    receipt = session.complete()
    assert receipt.quarantined == 2 and receipt.committed == CHUNK - 2
    assert hledger.quarantined_records == 2
    verdicts = [v for e in hvalidator.audit.events("ingest-validate")
                for v in e.details["verdicts"]]
    assert verdicts.count("tampered") == 2  # relabelling breaks the AAD tag
    assert hvalidator.verify_audit_chain()
    committed_digests = {r.nonce for r in hledger.iter_records()}
    assert records[0].nonce not in committed_digests
    assert records[1].nonce not in committed_digests
    hserver.from_ledger(hledger)
    summary = hserver.decrypt_submissions()
    assert summary.accepted == CHUNK - 2 and summary.rejected_tampered == 0
    print("quarantine: 2 hostile records audited + quarantined, 0 reached "
          "training")

    # Operating point for pytest-benchmark: validating one 128-record
    # batch through the in-enclave AEAD + gating pipeline.
    batch = _encrypted(contributors[0])[:CHUNK]
    bench_pool = ValidationPool(
        server.enclave,
        ValidationConfig(num_classes=CLASSES, input_shape=SHAPE, workers=4),
    )
    benchmark(bench_pool.validate, contributors[0].participant_id, batch)
