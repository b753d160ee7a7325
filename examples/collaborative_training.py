"""Collaborative training: CalTrain vs the distributed baselines.

The paper's motivation scenario: hospitals (participants) with private
data want a joint model. This example trains the same task three ways —

1. **CalTrain** — centralized, encrypted data, enclave-partitioned SGD;
   the FrontNet of the released model is encrypted per participant.
2. **Federated Averaging** (McMahan et al.) — the data never move, but a
   poisoned client corrupts the global model *unattributably*.
3. **Distributed selective SGD** (Shokri & Shmatikov) — gradient sharing.

It then demonstrates why CalTrain's accountability matters: the same
BadNets poisoning that silently succeeds under FedAvg is traceable to its
contributor under CalTrain.

Run:  python examples/collaborative_training.py
"""

import tempfile

import numpy as np

from repro import CalTrain, CalTrainConfig
from repro.attacks import BadNetsAttack
from repro.core.query import exact_top_k
from repro.data import synthetic_cifar
from repro.federation import DistributedSelectiveSgd, FedAvgTrainer, TrainingParticipant
from repro.nn.zoo import tiny_testnet
from repro.serving import LinkageStore
from repro.utils.rng import RngStream

NUM_CLASSES = 4
SHAPE = (8, 8, 3)


def accuracy(model, test) -> float:
    return float(np.mean(model.predict(test.x).argmax(axis=1) == test.y))


def main() -> None:
    rng = RngStream(seed=2026, name="collaborative")
    train, test = synthetic_cifar(rng.child("data"), num_train=400,
                                  num_test=120, num_classes=NUM_CLASSES,
                                  shape=SHAPE)
    shares = train.split([0.25] * 4, rng=rng.child("split").generator)

    # One of the four "hospitals" is compromised: 40% of its share carries
    # a BadNets trigger relabelled to class 0.
    attack = BadNetsAttack(target_label=0, patch=3)
    shares[2] = attack.poison_dataset(shares[2], fraction=0.4,
                                      rng=rng.child("poison").generator)
    stamped_test = attack.stamp_test_set(test)

    factory = lambda: tiny_testnet(rng.child("init").fork_generator(),
                                   input_shape=SHAPE, num_classes=NUM_CLASSES)

    # ---- 1. CalTrain -------------------------------------------------------
    system = CalTrain(CalTrainConfig(
        seed=7, epochs=8, batch_size=16, partition=1, augment=False,
        network_factory=lambda gen: tiny_testnet(gen, input_shape=SHAPE,
                                                 num_classes=NUM_CLASSES),
    ))
    participants = {}
    kinds = {}
    for i, share in enumerate(shares):
        participant = TrainingParticipant(f"hospital-{i}", share,
                                          rng.child(f"h{i}"))
        system.register_participant(participant)
        system.submit_data(participant)
        participants[participant.participant_id] = participant
        flags = share.flags.get("poisoned", np.zeros(len(share), dtype=bool))
        kinds[participant.participant_id] = np.where(flags, "poisoned", "normal")
    system.train()
    caltrain_acc = accuracy(system.model, test)
    backdoor_caltrain = accuracy(system.model, stamped_test)

    # ---- 2. FedAvg ---------------------------------------------------------
    fedavg = FedAvgTrainer(factory, shares, rng.child("fedavg"),
                           batch_size=16, learning_rate=0.02)
    fed_model = fedavg.train(rounds=8)
    fed_acc = accuracy(fed_model, test)
    backdoor_fed = accuracy(fed_model, stamped_test)

    # ---- 3. DSSGD ----------------------------------------------------------
    dssgd = DistributedSelectiveSgd(factory, shares, rng.child("dssgd"),
                                    theta=0.2, batch_size=16,
                                    learning_rate=0.02)
    ds_model = dssgd.train(rounds=8)
    ds_acc = accuracy(ds_model, test)

    print("paradigm comparison (top-1 accuracy / backdoor success):")
    print(f"  CalTrain  : {caltrain_acc:.2%} / backdoor fires {backdoor_caltrain:.2%}")
    print(f"  FedAvg    : {fed_acc:.2%} / backdoor fires {backdoor_fed:.2%}")
    print(f"  DSSGD     : {ds_acc:.2%}")

    # ---- Accountability: only CalTrain can answer "who did this?" ---------
    store = LinkageStore.from_database(
        tempfile.mkdtemp(prefix="collaborative-store-"),
        system.fingerprint_stage(kinds_by_source=kinds))
    labels, _, fingerprints = system.fingerprinter.predict_with_fingerprint(
        stamped_test.x[:6])
    flagged = set()
    for fingerprint, label in zip(fingerprints, labels):
        matrix, indices = store.by_label(int(label))
        positions, _ = exact_top_k(fingerprint[None, :], matrix, 9)
        flagged.update(indices[p] for p in positions[0])
    records = [store.record(i) for i in sorted(flagged)]
    source_counts = {}
    for record in records:
        source_counts[record.source] = source_counts.get(record.source, 0) + 1
    bad_hits = sum(1 for record in records if record.kind != "normal")
    print("\nCalTrain linkage query for the backdoored predictions:")
    print(f"  nearest training records per source: {source_counts}")
    print(f"  flagged records that are truly poisoned: "
          f"{bad_hits}/{len(records)}")
    print("\nFedAvg offers no equivalent: the server only ever saw opaque "
          "weight updates from hospital-2.")

    # ---- Model release: FrontNet encrypted per participant ----------------
    from repro.crypto.aead import AesGcm

    recipient = participants["hospital-0"]
    cipher = AesGcm(recipient.key.material)
    sealed_frontnet = system.partitioned.export_frontnet_encrypted(
        cipher, nonce=b"\x00" * 11 + b"\x01"
    )
    print(f"\nreleased model: FrontNet sealed for hospital-0 "
          f"({len(sealed_frontnet)} bytes, AES-GCM under its provisioned key)")


if __name__ == "__main__":
    main()
