"""Multi-enclave data-parallel training with secure aggregation.

Demonstrates the `repro.distributed` subsystem end to end:

1. a CalTrain deployment shards three hospitals' encrypted submissions
   across **four** enclave workers — each its own SGX platform and
   training enclave, all carrying the agreed MRENCLAVE;
2. every round, each worker trains one local epoch on its shard, then
   ships its shard-weighted FrontNet delta — pairwise-masked — over an
   attested TLS channel into the aggregator enclave; the untrusted
   coordinator only ever relays opaque records;
3. one worker is deliberately made a straggler: the round's deadline cuts
   it out, its orphaned masks are reconstructed from the Shamir shares
   the cohort escrowed, and the round completes by partial aggregation;
4. the aggregator enclave's hash-chained audit trail records exactly who
   contributed to every round's model update — the paper's
   accountability story, extended to the aggregation plane.

Run:  python examples/distributed_training.py
"""

import tempfile

from repro import CalTrain, CalTrainConfig
from repro.data import synthetic_cifar
from repro.federation import TrainingParticipant
from repro.nn.zoo import tiny_testnet
from repro.resilience.faults import FaultPlan, FaultSpec
from repro.utils.rng import RngStream

NUM_CLASSES = 4
SHAPE = (8, 8, 3)
WORKERS = 4
ROUNDS = 3


def make_world():
    config = CalTrainConfig(
        seed=7, epochs=ROUNDS, batch_size=16, partition=1, augment=False,
        network_factory=lambda gen: tiny_testnet(
            gen, input_shape=SHAPE, num_classes=NUM_CLASSES),
    )
    rng = RngStream(99, "distributed-example")
    train, test = synthetic_cifar(rng.child("data"), num_train=128,
                                  num_test=32, num_classes=NUM_CLASSES,
                                  shape=SHAPE)
    system = CalTrain(config)
    for i, share in enumerate(
            train.split([1 / 3] * 3, rng=rng.child("split").generator)):
        hospital = TrainingParticipant(f"hospital-{i}", share,
                                       rng.child(f"p{i}"))
        system.register_participant(hospital)
        system.submit_data(hospital)
    return system, test


def main() -> None:
    system, test = make_world()
    print("=== distributed CalTrain: 4 enclave workers, 1 straggler ===\n")
    print(f"training-enclave MRENCLAVE  {system.expected_measurement.hex()}")

    # Round 1: worker w2's local epoch runs 6x too long. The deadline
    # drops it; its masks are rebuilt from the escrowed shares.
    with FaultPlan([FaultSpec("worker-straggle", 1, worker="w2", factor=6.0)]):
        reports = system.train(
            test_x=test.x, test_y=test.y,
            workers=WORKERS,
            checkpoint_dir=tempfile.mkdtemp(prefix="distributed-example-"),
        )

    coordinator = system.coordinator
    print(f"aggregator-enclave MRENCLAVE {coordinator.aggregator.mrenclave.hex()}")
    print("shards: " + "  ".join(
        f"{w.worker_id}={w.examples}" for w in coordinator.workers))
    print()
    for round_report in coordinator.reports:
        tags = ""
        if round_report.stragglers:
            tags = (f"  <- {','.join(round_report.stragglers)} straggled "
                    f"(deadline {round_report.deadline_seconds * 1e3:.2f}ms), "
                    f"{round_report.recovered_masks} mask(s) reconstructed")
        print(f"round {round_report.round}: loss {round_report.mean_loss:.4f}  "
              f"{len(round_report.participating)}/{WORKERS} workers aggregated"
              f"{tags}")
    final = reports[-1]
    print(f"\nfinal accuracy: top-1 {final.top1:.2%}  top-2 {final.top2:.2%}")

    print("\n=== aggregation audit trail (hash-chained, tamper-evident) ===\n")
    ok = coordinator.audit.verify_chain()
    for event in coordinator.audit.events("aggregation"):
        d = event.details
        print(f"round {d['round']}: participants {','.join(d['participants'])}"
              f"  dropped {','.join(d['dropped']) or '-'}"
              f"  weight_total {d['weight_total']:.0f}"
              f"  update digest {d['digest'][:16]}…")
    print(f"\nchain verification: {'VERIFIED' if ok else 'BROKEN'}")

    print("\n=== what the untrusted coordinator saw ===\n")
    print("masked uploads only — each one differs from the worker's real")
    print("update by a pairwise mask that never leaves enclave memory:")
    print(system.distributed_telemetry.render())


if __name__ == "__main__":
    main()
