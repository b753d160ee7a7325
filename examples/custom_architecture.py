"""Custom architectures: Darknet-style config files in CalTrain.

Shows the workflow a new adopter follows to train their *own* network
confidentially:

1. define the architecture in a Darknet-style config (the same text that
   gets measured into the enclave, so participants attest exactly it);
2. train it through CalTrain with bottom-up FrontNet freezing;
3. prune the released model for edge inference and check the
   accountability fingerprints still work on the pruned model.

Run:  python examples/custom_architecture.py
"""

import tempfile

import numpy as np

from repro import CalTrain, CalTrainConfig
from repro.core.query import exact_top_k
from repro.data import synthetic_cifar
from repro.federation import TrainingParticipant
from repro.nn.config import network_from_config
from repro.nn.pruning import prune_by_magnitude, sparsity
from repro.serving import LinkageStore
from repro.utils.rng import RngStream

CUSTOM_CONFIG = """
# A compact VGG-ish block net with batchnorm, defined like a Darknet cfg.
[net]
input = 16,16,3

[conv]
filters = 12
size = 3
stride = 1
activation = leaky

[batchnorm]

[conv]
filters = 12
size = 3
stride = 1

[max]
size = 2
stride = 2

[dropout]
probability = 0.25

[conv]
filters = 24
size = 3
stride = 1

[max]
size = 2
stride = 2

[conv]
filters = 6
size = 1
stride = 1
activation = linear

[avg]
[softmax]
[cost]
"""


def main() -> None:
    rng = RngStream(seed=13, name="custom")
    train, test = synthetic_cifar(rng.child("data"), num_train=360,
                                  num_test=120, num_classes=6,
                                  shape=(16, 16, 3))

    system = CalTrain(CalTrainConfig(
        seed=13, epochs=8, batch_size=16, partition=2, augment=False,
        learning_rate=0.03, freeze_at_epoch=6,
        network_factory=lambda gen: network_from_config(CUSTOM_CONFIG, rng=gen),
    ))
    print("architecture (measured into the enclave):")
    print(system._reference_network.summary())

    for i, share in enumerate(train.split([0.5, 0.5],
                                          rng=rng.child("s").generator)):
        participant = TrainingParticipant(f"org-{i}", share, rng.child(f"o{i}"))
        system.register_participant(participant)
        system.submit_data(participant)

    reports = system.train(test_x=test.x, test_y=test.y)
    for report in reports:
        frozen = "  [frontnet frozen]" if report.frontnet_frozen else ""
        print(f"epoch {report.epoch + 1}: top-1 {report.top1:.2%}{frozen}")

    # Fingerprint before pruning (the linkage store refers to the
    # model that actually trained).
    store = LinkageStore.from_database(
        tempfile.mkdtemp(prefix="custom-arch-store-"), system.fingerprint_stage())
    print(f"\nlinkage store: {len(store)} records")

    # Prune the released model for edge inference.
    model = system.model
    acc_dense = float(np.mean(model.predict(test.x).argmax(1) == test.y))
    prune_by_magnitude(model, keep_fraction=0.3)
    acc_small = float(np.mean(model.predict(test.x).argmax(1) == test.y))
    print(f"\npruning: sparsity {sparsity(model):.0%}")
    print(f"top-1: dense {acc_dense:.2%} -> pruned {acc_small:.2%}")

    # Accountability still works: query the pruned model's predictions
    # against the pre-pruning fingerprints.
    labels, _, fingerprints = system.fingerprinter.predict_with_fingerprint(
        test.x[:1]
    )
    matrix, indices = store.by_label(int(labels[0]))
    positions, distances = exact_top_k(fingerprints[:1], matrix, 3)
    nearest = store.record(indices[positions[0, 0]])
    print(f"\nsample query still answers: nearest distance "
          f"{distances[0, 0]:.3f} from {nearest.source}")


if __name__ == "__main__":
    main()
