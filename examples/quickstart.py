"""Quickstart: the full CalTrain pipeline in ~60 lines.

Three distrusting participants jointly train a classifier without anyone —
including the training-server provider — seeing each other's data, then a
model user traces a runtime prediction back to its most influential
training instances and contributors.

Run:  python examples/quickstart.py
"""

import tempfile

from repro import CalTrain, CalTrainConfig
from repro.core.query import exact_top_k
from repro.data import synthetic_cifar
from repro.federation import TrainingParticipant
from repro.nn.zoo import tiny_testnet
from repro.serving import LinkageStore
from repro.utils.rng import RngStream


def main() -> None:
    rng = RngStream(seed=42, name="quickstart")

    # A small synthetic 4-class image dataset, split across 3 participants.
    train, test = synthetic_cifar(rng.child("data"), num_train=300,
                                  num_test=90, num_classes=4, shape=(8, 8, 3))
    shares = train.split([1 / 3, 1 / 3, 1 / 3], rng=rng.child("split").generator)

    # A CalTrain deployment: SGX platform + training enclave whose
    # measurement covers the agreed network architecture.
    system = CalTrain(CalTrainConfig(
        seed=7, epochs=6, batch_size=16, partition=1, augment=False,
        network_factory=lambda gen: tiny_testnet(gen, input_shape=(8, 8, 3),
                                                 num_classes=4),
    ))
    print(f"training enclave MRENCLAVE: {system.expected_measurement.hex()[:16]}…")

    # Each participant attests the enclave, provisions its key over the
    # attested TLS channel, and submits encrypted training data.
    for i, share in enumerate(shares):
        participant = TrainingParticipant(f"participant-{i}", share,
                                          rng.child(f"p{i}"))
        system.register_participant(participant)
        system.submit_data(participant)

    # Training stage: in-enclave authentication + decryption, then
    # FrontNet/BackNet partitioned SGD.
    reports = system.train(test_x=test.x, test_y=test.y)
    print(f"\naccepted records: {system.decryption_summary.accepted} "
          f"(by source: {system.decryption_summary.accepted_by_source})")
    for report in reports:
        print(f"epoch {report.epoch + 1}: loss {report.mean_loss:.3f}  "
              f"top-1 {report.top1:.2%}  top-2 {report.top2:.2%}  "
              f"(simulated {report.simulated_seconds * 1e3:.1f} ms)")

    # Fingerprinting stage: one Omega = [F, Y, S, H] tuple per instance,
    # persisted as the linkage store.
    store = LinkageStore.from_database(
        tempfile.mkdtemp(prefix="quickstart-store-"), system.fingerprint_stage())
    print(f"\nlinkage store: {len(store)} records, "
          f"fingerprint dimension {store.dimension}")

    # Query stage: trace one test prediction to its closest training data.
    labels, _, fingerprints = system.fingerprinter.predict_with_fingerprint(
        test.x[:1]
    )
    matrix, indices = store.by_label(int(labels[0]))
    positions, distances = exact_top_k(fingerprints[:1], matrix, 5)
    print(f"\ntest instance predicted as class {labels[0]}; closest training "
          "instances:")
    for rank, (position, distance) in enumerate(
            zip(positions[0], distances[0]), start=1):
        record = store.record(indices[position])
        print(f"  #{rank}: L2 {distance:.3f}  source {record.source}")
    # The governed path — promotion, attribution, and contributors
    # disclosing the hit instances for a check against H — is
    # examples/accountability_end_to_end.py.


if __name__ == "__main__":
    main()
