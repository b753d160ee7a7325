"""Fault-tolerant confidential training: checkpoint, crash, resume.

Demonstrates the `repro.resilience` runtime end to end:

1. train a CalTrain deployment under a chaos schedule — an enclave abort
   mid-epoch, a corrupted boundary tensor, and a crash in the middle of a
   checkpoint write — and watch the supervisor recover from every one;
2. kill a second run outright (retry budget zero), then resume it in a
   *fresh* CalTrain instance from the sealed on-disk checkpoints;
3. verify the headline guarantee: both recovered runs finish with weights
   and loss history **bitwise identical** to an uninterrupted baseline,
   while the FrontNet never touches disk in plaintext and the audit chain
   carries the whole fault/recovery story.

Run:  python examples/resilient_training.py
"""

import tempfile
from pathlib import Path

import numpy as np

from repro import CalTrain, CalTrainConfig
from repro.data import synthetic_cifar
from repro.errors import TrainingAborted
from repro.federation import TrainingParticipant
from repro.nn.zoo import tiny_testnet
from repro.resilience import RetryPolicy
from repro.resilience.faults import FaultPlan, FaultSpec
from repro.utils.rng import RngStream

NUM_CLASSES = 4
SHAPE = (8, 8, 3)


def make_world():
    """A reproducible deployment: same seed, same everything."""
    config = CalTrainConfig(
        seed=7, epochs=3, batch_size=16, partition=1, augment=True,
        network_factory=lambda gen: tiny_testnet(
            gen, input_shape=SHAPE, num_classes=NUM_CLASSES),
    )
    rng = RngStream(99, "resilient-example")
    train, test = synthetic_cifar(rng.child("data"), num_train=96,
                                  num_test=32, num_classes=NUM_CLASSES,
                                  shape=SHAPE)
    system = CalTrain(config)
    participant = TrainingParticipant("hospital-0", train, rng.child("p0"))
    system.register_participant(participant)
    system.submit_data(participant)
    return system, test


def weights_equal(a, b) -> bool:
    return all(
        np.array_equal(la[k], lb[k])
        for la, lb in zip(a, b) for k in la
    )


def main() -> None:
    print("=== baseline: uninterrupted training ===")
    base, test = make_world()
    base_reports = base.train(test_x=test.x, test_y=test.y)
    base_weights = base.model.get_weights()
    for r in base_reports:
        print(f"  epoch {r.epoch}: loss {r.mean_loss:.4f} top-1 {r.top1:.2%}")

    print("\n=== chaos run: abort + corruption + torn checkpoint ===")
    chaos_dir = tempfile.mkdtemp(prefix="caltrain-chaos-")
    plan = FaultPlan([
        FaultSpec("enclave-abort", epoch=1, batch=3),
        FaultSpec("ir-corrupt", epoch=2, batch=1),
        FaultSpec("checkpoint-crash", epoch=0, batch=1),
    ])
    chaos, test = make_world()
    with plan:  # armed from outside; train() has no fault parameter
        chaos_reports = chaos.train(test_x=test.x, test_y=test.y,
                                    checkpoint_dir=chaos_dir,
                                    checkpoint_every_batches=2)
    print(chaos.run_telemetry.render())
    assert [r.mean_loss for r in chaos_reports] == \
        [r.mean_loss for r in base_reports]
    assert weights_equal(chaos.model.get_weights(), base_weights)
    print("  -> survived all 3 faults, bitwise identical to baseline")

    print("\n=== kill & resume across processes ===")
    resume_dir = tempfile.mkdtemp(prefix="caltrain-resume-")
    doomed, test = make_world()
    try:
        with FaultPlan([FaultSpec("enclave-abort", epoch=2, batch=0)]):
            doomed.train(test_x=test.x, test_y=test.y,
                         checkpoint_dir=resume_dir,
                         checkpoint_every_batches=2,
                         retry_policy=RetryPolicy(max_retries=0))
    except TrainingAborted as exc:
        print(f"  run killed: {exc}")

    sealed = sorted(Path(resume_dir).glob("ckpt-*/frontnet.sealed"))
    print(f"  {len(sealed)} sealed checkpoints on disk "
          f"(FrontNet bytes never plaintext)")

    revived, test = make_world()  # a brand-new process would do the same
    revived_reports = revived.train(test_x=test.x, test_y=test.y,
                                    checkpoint_dir=resume_dir, resume=True)
    assert [r.mean_loss for r in revived_reports] == \
        [r.mean_loss for r in base_reports]
    assert weights_equal(revived.model.get_weights(), base_weights)
    kinds = [event.kind for event in revived.audit_log.events()]
    assert "training-resumed" in kinds and revived.audit_log.verify_chain()
    print("  -> resumed bitwise identical; audit chain verified "
          f"({len(kinds)} events)")


if __name__ == "__main__":
    main()
