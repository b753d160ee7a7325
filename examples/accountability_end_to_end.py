"""Model accountability end to end: the `repro.governance` control plane.

The paper's accountability claim is that a deployed model's behaviour can
always be traced back to the training data — and the contributors — that
caused it. This example runs that claim as one continuous, *verifiable*
timeline:

1. contributors stream sealed records through the attestation-gated
   ingest plane into an append-only contribution ledger (one record is
   tampered in transit and lands in the quarantine lane),
2. training runs under a bound `GovernanceLog`: intake, train-start,
   checkpoints, and train-complete all chain into one durable timeline,
   keyed by the run's *semantic identity*
   (`run_key = digest(config ⊕ ledger manifest ⊕ code version)`),
3. the `PromotionGate` walks the full lineage — ledger segments,
   checkpoint chain, linkage store, governance log — and signs a
   `PromotionRecord` under a key derived from the enclave identity
   (the untrusted host can read every artifact but cannot mint one),
4. the serving engine refuses to start without a verifying record, a
   flagged prediction is attributed through the promoted store back to
   the ledger segments and contributors that back it, and those
   contributors disclose only the hit instances, each checked against
   the digest H the store committed (the paper's summon-and-verify step),
5. the tamper drill: ONE byte of a committed ledger segment is flipped
   after promotion, and the same serving engine now fails closed with a
   typed `PromotionError` — the accountability chain is not advisory.

Run:  python examples/accountability_end_to_end.py
"""

import dataclasses
import tempfile
from pathlib import Path

from repro.core.caltrain import CalTrain, CalTrainConfig
from repro.data.datasets import synthetic_cifar
from repro.data.encryption import iter_encrypted_records
from repro.errors import PromotionError
from repro.federation.participant import TrainingParticipant
from repro.governance import Attributor, GovernanceLog, PromotionGate
from repro.ingest import (ContributionLedger, GatewayConfig, IngestGateway,
                          ValidationConfig, ValidationPool, chunk_stream)
from repro.serving import (EngineConfig, LinkageStore, ServingEngine,
                           ShardedAnnIndex)
from repro.utils.rng import RngStream

CONTRIBUTORS = 3
RECORDS_PER = 40
CHUNK = 32
SEED = 11


def ingest_contributions(system, rng, root):
    """Gateway-validated uploads; one record is tampered in transit."""
    ledger = ContributionLedger.create(root / "ledger")
    validator = ValidationPool(
        system.training_enclave,
        ValidationConfig(num_classes=10, input_shape=(28, 28, 3)),
        ledger=ledger,
    )
    gateway = IngestGateway(ledger, validator, spool_dir=root / "spool",
                            config=GatewayConfig(chunk_records=CHUNK))
    for i in range(CONTRIBUTORS):
        data, _ = synthetic_cifar(rng.child(f"data-{i}"),
                                  num_train=RECORDS_PER, num_test=1)
        contributor = TrainingParticipant(f"c{i}", data, rng.child(f"c{i}"))
        system.register_participant(contributor)
        records = list(iter_encrypted_records(
            contributor.dataset, contributor.key,
            contributor.participant_id,
        ))
        if i == 0:  # a man-in-the-middle flips one ciphertext byte
            victim = records[0]
            records[0] = dataclasses.replace(
                victim,
                sealed=bytes([victim.sealed[0] ^ 0xFF]) + victim.sealed[1:],
            )
        session = gateway.open_session(contributor.participant_id)
        for chunk in chunk_stream(iter(records), CHUNK):
            session.send_chunk(chunk)
        receipt = session.complete()
        print(f"  {contributor.participant_id}: committed "
              f"{receipt.committed}, quarantined {receipt.quarantined}")
    return ledger


def main() -> None:
    root = Path(tempfile.mkdtemp(prefix="caltrain-accountability-"))
    rng = RngStream(seed=SEED, name="accountability-example")
    system = CalTrain(CalTrainConfig(
        seed=SEED, architecture="cifar10-10layer", width_scale=0.1,
        epochs=2, partition=2, augment=False,
    ))

    print("== 1. ingest: sealed contributions into the ledger ==")
    ledger = ingest_contributions(system, rng, root)

    print("\n== 2. governed training under a semantic run identity ==")
    log = GovernanceLog.create(root / "governance")
    system.bind_governance(log)
    staged = system.intake_ledger(ledger)
    _, test = synthetic_cifar(rng.child("test"), num_train=1, num_test=40)
    reports = system.train(test_x=test.x, test_y=test.y,
                           checkpoint_dir=root / "checkpoints")
    print(f"  staged {staged} ledger records; trained {len(reports)} epochs")
    print(f"  run key: {system.run_key}")
    for event in log.events():
        print(f"  governance[{event['seq']}] {event['kind']}")

    print("\n== 3. promotion: the fail-closed lineage walk ==")
    store = LinkageStore.from_database(root / "store",
                                       system.fingerprint_stage())
    gate = PromotionGate(
        system.training_enclave, log, ledger=ledger,
        checkpoints=system.checkpoint_manager, store=store,
        telemetry=system.governance_telemetry,
    )
    record = gate.promote(system.run_key,
                          config_digest=system.config_digest)
    print(f"  signed promotion record: ledger {record.ledger_digest[:12]}… "
          f"store {record.store_digest[:12]}… "
          f"checkpoint {record.checkpoint_digest[:12]}…")

    print("\n== 4. promoted serving + contributor attribution ==")
    index = ShardedAnnIndex(store, shard_threshold=1024, seed=SEED).build()
    with ServingEngine(index, EngineConfig(workers=2), promotion=record,
                       promotion_verifier=gate.serving_verifier()) as engine:
        attributor = Attributor(engine, store, ledger, log, gate=gate,
                                promotion=record,
                                telemetry=system.governance_telemetry)
        # A model user flags a prediction; its fingerprint comes from the
        # trained model's fingerprint layer.
        labels, _, fingerprints = system.fingerprinter.predict_with_fingerprint(
            test.x[:1]
        )
        report = attributor.attribute(fingerprints[0], int(labels[0]))
        print(f"  report {report.report_digest[:16]}… implicates "
              f"{', '.join(report.implicated)}")
        for hit in report.hits[:3]:
            print(f"    hit: store #{hit['store_index']} → "
                  f"{hit['ledger']['segment']} "
                  f"({hit['ledger']['lane']}) of {hit['source']}")
        verified = attributor.disclose(report, system.participants)
        print(f"  disclosure: {len(verified)}/{len(report.hits)} hit "
              "instances summoned and verified against H")

    print("\n== 5. the tamper drill: one byte, after promotion ==")
    victim = sorted(root.glob("ledger/segment-*.bin"))[0]
    blob = bytearray(victim.read_bytes())
    blob[len(blob) // 2] ^= 0x01
    victim.write_bytes(bytes(blob))
    print(f"  flipped one bit of {victim.name}")
    try:
        ServingEngine(index, EngineConfig(workers=2), promotion=record,
                      promotion_verifier=gate.serving_verifier()).start()
    except PromotionError as exc:
        print(f"  serving REFUSED (fail-closed): {exc}")
    else:
        raise SystemExit("tamper went undetected — the gate failed open")

    log.verify()
    print(f"\ngovernance timeline: {len(log)} events, chain verified "
          f"(head {log.head.hex()[:16]}…)")
    print(system.governance_telemetry.render())


if __name__ == "__main__":
    main()
