"""Session-scoped fixtures for the benchmark harness.

The expensive experiment artifacts (trained models, trojaned models,
linkage stores) are built once per session and shared by every bench
that needs them; each bench then measures a representative kernel with
pytest-benchmark and asserts the paper's shape claims on the shared
artifacts.

Scale note: the paper trains full-width networks on CIFAR-10 (50k images)
for 12 epochs on an i7-6700. These benches run the same architectures at
``width_scale`` 0.1-0.12 on the synthetic dataset (600 train / 200 test) so
a full regeneration takes minutes, not days. DESIGN.md documents why the
shape claims survive this scaling.
"""

import numpy as np
import pytest

from repro.core.assessment import ExposureAssessor, train_validation_oracle
from repro.core.freezing import FreezeSchedule
from repro.core.partition import PartitionedNetwork
from repro.core.partitioned_training import ConfidentialTrainer
from repro.data.datasets import synthetic_cifar, synthetic_faces
from repro.enclave.platform import SgxPlatform
from repro.nn.optimizers import Sgd
from repro.nn.zoo import cifar10_10layer, cifar10_18layer, face_recognition_net
from repro.utils.rng import RngStream

EPOCHS = 12
BATCH = 32
LR = 0.02
W10 = 0.12   # width scale for the 10-layer net
W18 = 0.10   # width scale for the 18-layer net
PARTITION = 2  # the paper loads the first two layers into the enclave


@pytest.fixture(scope="session")
def bench_rng():
    return RngStream(20260707, name="bench")


@pytest.fixture(scope="session")
def cifar(bench_rng):
    return synthetic_cifar(bench_rng.child("cifar"), num_train=600, num_test=200)


def _train_run(factory, width, partition, rng, cifar, epochs=EPOCHS,
               keep_snapshots=False, freeze_at=None, epc_bytes=None):
    """Train one configuration; returns (trainer, platform)."""
    train, test = cifar
    enclave = None
    platform = None
    if partition is not None:
        kwargs = {"rng": rng.child("platform")}
        if epc_bytes is not None:
            kwargs["epc_bytes"] = epc_bytes
        platform = SgxPlatform(**kwargs)
        enclave = platform.create_enclave("training")
        enclave.init()
    net = factory(rng.child("init").generator, width_scale=width)
    if enclave is not None:
        net.set_dropout_rng(enclave.trusted_rng.generator)
    else:
        net.set_dropout_rng(rng.child("dropout").generator)
    partitioned = PartitionedNetwork(net, partition or 0, enclave=enclave)
    trainer = ConfidentialTrainer(
        partitioned, Sgd(LR, 0.9),
        batch_rng=rng.child("batches").generator,
        batch_size=BATCH,
        freeze_schedule=FreezeSchedule(freeze_at) if freeze_at is not None else None,
    )
    trainer.train(train.x, train.y, epochs, test_x=test.x, test_y=test.y,
                  keep_snapshots=keep_snapshots)
    return trainer, platform


@pytest.fixture(scope="session")
def fig3_runs(bench_rng, cifar):
    """10-layer net trained plain vs. in CalTrain (Fig. 3)."""
    plain, _ = _train_run(cifar10_10layer, W10, None, bench_rng.child("f3-plain"),
                          cifar)
    enclave, _ = _train_run(cifar10_10layer, W10, PARTITION,
                            bench_rng.child("f3-enclave"), cifar)
    return {"plain": plain, "enclave": enclave}


@pytest.fixture(scope="session")
def fig4_runs(bench_rng, cifar):
    """18-layer net trained plain vs. in CalTrain (Fig. 4); the enclave
    run keeps per-epoch snapshots for the Fig. 5 assessment."""
    plain, _ = _train_run(cifar10_18layer, W18, None, bench_rng.child("f4-plain"),
                          cifar)
    enclave, _ = _train_run(cifar10_18layer, W18, PARTITION,
                            bench_rng.child("f4-enclave"), cifar,
                            keep_snapshots=True)
    return {"plain": plain, "enclave": enclave}


@pytest.fixture(scope="session")
def oracle(bench_rng, cifar):
    """The IRValNet content oracle (independent well-trained model)."""
    train, _ = cifar
    return train_validation_oracle(
        train.x, train.y, bench_rng.child("oracle"),
        epochs=8, width_scale=0.15, learning_rate=0.03,
    )


@pytest.fixture(scope="session")
def trojan_world(bench_rng, tmp_path_factory):
    """The Experiment-IV world: a trained face model, the Trojaning
    attack run against it, mislabeled injections, and the merged linkage
    store over three participants (one malicious)."""
    from repro.attacks.mislabel import inject_mislabeled
    from repro.attacks.trojan import TrojanAttack
    from repro.core.fingerprint import Fingerprinter
    from repro.core.linkage import instance_digest
    from repro.data.batching import iterate_minibatches
    from repro.data.datasets import Dataset
    from repro.serving import LinkageStore

    rng = bench_rng.child("trojan")
    # 16 identities: the fingerprint space is one-dimension-per-class (as
    # VGG-Face's fc8), so more identities = richer residual identity signal
    # alongside the trigger's class-0 direction.
    faces = synthetic_faces(rng.child("faces"), num_identities=16,
                            per_identity=40)
    train, test, substitute = faces.split(
        [0.6, 0.2, 0.2], rng=rng.child("split").generator
    )
    model = face_recognition_net(num_classes=16, rng=rng.child("init").generator)
    optimizer = Sgd(0.01, 0.9)
    batch_rng = rng.child("batches").generator
    for _ in range(20):
        for xb, yb in iterate_minibatches(train.x, train.y, 16, rng=batch_rng):
            model.train_batch(xb, yb, optimizer)

    attack = TrojanAttack(model, target_label=0, patch=4,
                          rng=rng.child("attack").generator)
    outcome = attack.run(substitute, test, trigger_iterations=40,
                         retrain_epochs=4, learning_rate=0.01)

    # Mislabeled data inside the target class, mirroring the paper's
    # VGG-Face class-0 statistic (~24.3% mislabeled vs 49.7% correct).
    normal0 = train.of_class(0)
    n_mislabeled = int(round(len(normal0) * 0.243 / 0.497))
    mislabeled = inject_mislabeled(train, target_label=0, count=n_mislabeled,
                                   rng=rng.child("mislabel").generator)

    # Linkage store: normal train data from honest participants p0/p1,
    # poisoned + mislabeled data submitted by the malicious participant.
    fingerprinter = Fingerprinter(outcome.trojaned_model)
    store = LinkageStore.create(tmp_path_factory.mktemp("trojan") / "store")

    def add(dataset, source, kind_flag=None):
        fps = fingerprinter.fingerprint(dataset.x)
        kinds = []
        for i in range(len(dataset)):
            kind = "normal"
            if kind_flag and dataset.flags.get(kind_flag, np.zeros(len(dataset), bool))[i]:
                kind = kind_flag
            kinds.append(kind)
        store.append(
            fps, dataset.y.tolist(), [source] * len(dataset),
            [instance_digest(dataset.x[i]) for i in range(len(dataset))],
            source_indices=list(range(len(dataset))), kinds=kinds,
        )

    halves = train.split([0.5, 0.5], rng=rng.child("halves").generator)
    add(halves[0], "p0")
    add(halves[1], "p1")
    add(outcome.poisoned_train, "attacker", kind_flag="poisoned")
    add(mislabeled, "attacker", kind_flag="mislabeled")

    return {
        "rng": rng,
        "model": outcome.trojaned_model,
        "attack": attack,
        "outcome": outcome,
        "train": train,
        "test": test,
        "mislabeled": mislabeled,
        "fingerprinter": fingerprinter,
        "store": store,
    }
