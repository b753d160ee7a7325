"""Trojan forensics: the paper's Experiment IV as a runnable story.

A face-recognition model is backdoored with the Trojaning Attack (trigger
synthesis by model inversion + retraining on trigger-stamped substitute
data). CalTrain's fingerprinting then identifies, for every runtime
misprediction, the poisoned and mislabeled training instances responsible
and attributes them to the malicious contributor.

Run:  python examples/trojan_forensics.py
"""

import tempfile

import numpy as np
from scipy.spatial.distance import cdist

from repro.attacks import TrojanAttack, inject_mislabeled
from repro.analysis.lle import locally_linear_embedding
from repro.core.fingerprint import Fingerprinter
from repro.core.linkage import instance_digest
from repro.core.query import exact_top_k
from repro.data import synthetic_faces
from repro.data.batching import iterate_minibatches
from repro.nn.optimizers import Sgd
from repro.nn.zoo import face_recognition_net
from repro.serving import LinkageStore
from repro.utils.rng import RngStream


def main() -> None:
    rng = RngStream(seed=11, name="forensics")

    # A face-identification task (the VGG-Face stand-in).
    faces = synthetic_faces(rng.child("faces"), num_identities=10,
                            per_identity=48)
    train, test, substitute = faces.split([0.6, 0.2, 0.2],
                                          rng=rng.child("split").generator)

    model = face_recognition_net(num_classes=10,
                                 rng=rng.child("init").generator)
    optimizer = Sgd(0.01, 0.9)
    batch_rng = rng.child("batches").generator
    for _ in range(20):
        for xb, yb in iterate_minibatches(train.x, train.y, 16, rng=batch_rng):
            model.train_batch(xb, yb, optimizer)
    clean_acc = float(np.mean(model.predict(test.x).argmax(1) == test.y))
    print(f"clean face model: top-1 {clean_acc:.2%}")

    # --- The attack ---------------------------------------------------------
    attack = TrojanAttack(model, target_label=0, patch=4,
                          rng=rng.child("attack").generator)
    outcome = attack.run(substitute, test, trigger_iterations=40,
                         retrain_epochs=4, learning_rate=0.01)
    print(f"trojaning attack: success rate "
          f"{attack.attack_success_rate(outcome):.2%}, post-attack clean "
          f"accuracy "
          f"{float(np.mean(outcome.trojaned_model.predict(test.x).argmax(1) == test.y)):.2%}")

    # Mislabeled data inside the target class (the VGG-Face class-0 noise).
    mislabeled = inject_mislabeled(train, target_label=0, count=14,
                                   rng=rng.child("mislabel").generator)

    # --- Fingerprinting stage ------------------------------------------------
    fingerprinter = Fingerprinter(outcome.trojaned_model)
    store = LinkageStore.create(tempfile.mkdtemp(prefix="trojan-store-"))

    def record(dataset, source, kind_key=None):
        fps = fingerprinter.fingerprint(dataset.x)
        kinds = [
            kind_key if kind_key and dataset.flags[kind_key][i] else "normal"
            for i in range(len(dataset))
        ] if kind_key else ["normal"] * len(dataset)
        store.append(
            fps, dataset.y.tolist(), [source] * len(dataset),
            [instance_digest(dataset.x[i]) for i in range(len(dataset))],
            source_indices=list(range(len(dataset))), kinds=kinds,
        )

    record(train, "honest-pool")
    record(outcome.poisoned_train, "malicious-participant", "poisoned")
    record(mislabeled, "malicious-participant", "mislabeled")
    print(f"linkage store: {len(store)} Omega tuples")

    # --- Fig. 7: the embedding picture ---------------------------------------
    f_normal = fingerprinter.fingerprint(train.of_class(0).x)
    f_poison = fingerprinter.fingerprint(outcome.poisoned_train.x)
    f_trojan = fingerprinter.fingerprint(outcome.trojaned_test.x)
    points = np.concatenate([f_normal, f_poison, f_trojan])
    embedding = locally_linear_embedding(points, n_neighbors=8)
    n0, n1 = len(f_normal), len(f_poison)
    overlap = cdist(embedding[n0 + n1:], embedding[n0:n0 + n1]).min(1).mean()
    separation = cdist(embedding[n0 + n1:], embedding[:n0]).min(1).mean()
    print(f"LLE embedding: trojaned-test -> trojaned-train distance "
          f"{overlap:.4f} vs -> normal-train {separation:.4f} "
          "(overlapping clusters, as in the paper's Fig. 7)")

    # --- Fig. 8: the query ----------------------------------------------------
    def nearest(fingerprint, label, k=9):
        """(L2 distance, Omega record) of the k closest same-class rows."""
        matrix, indices = store.by_label(int(label))
        positions, distances = exact_top_k(fingerprint[None, :], matrix, k)
        return [(d, store.record(indices[p]))
                for p, d in zip(positions[0], distances[0])]

    labels, _, fps = fingerprinter.predict_with_fingerprint(
        outcome.trojaned_test.x[:3]
    )
    for qi in range(3):
        print(f"\nmisprediction #{qi} (classified as class {labels[qi]}); "
              "nine closest training instances:")
        for rank, (distance, hit) in enumerate(nearest(fps[qi], labels[qi]),
                                               start=1):
            print(f"  #{rank}: L2 {distance:.3f}  "
                  f"{hit.kind:<10} from {hit.source}")

    # Aggregate attribution across all trojaned mispredictions.
    all_labels, _, all_fps = fingerprinter.predict_with_fingerprint(
        outcome.trojaned_test.x
    )
    counts = {}
    for fingerprint, label in zip(all_fps, all_labels):
        for _, hit in nearest(fingerprint, label):
            counts[hit.source] = counts.get(hit.source, 0) + 1
    print(f"\nsource attribution over all mispredictions: {counts}")
    print("=> the malicious participant is identified; its suspicious "
          "instances can now be demanded and hash-verified against H.")


if __name__ == "__main__":
    main()
