"""Seeded input generation: the load generator's side of every workload.

Everything here is a function of `--seed` only and runs once per process,
outside every timed region (its cost is reported as `bench.inputs_s`).
The program under test receives only the generated inputs.
"""

import dataclasses

import numpy as np

from repro.data.datasets import Dataset, synthetic_cifar
from repro.data.encryption import encrypt_dataset
from repro.federation.participant import TrainingParticipant
from repro.utils.rng import RngStream

from bench.sizes import IMAGE_SHAPE, NUM_CLASSES


def stream(seed, workload):
    return RngStream(seed, name=f"bench/{workload}")


def participant(rng, name, dataset):
    """A fresh contributor. Its key derives from `rng` alone, so every
    pass's contributor holds the same key and the records sealed once by
    `sealed_records` authenticate in every pass's enclave."""
    return TrainingParticipant(name, dataset, rng.child(name))


def image_dataset(rng, name, records):
    # synthetic_cifar rounds down to a multiple of the class count.
    padded = records + NUM_CLASSES
    data, _ = synthetic_cifar(rng.child(f"data-{name}"), num_train=padded,
                              num_test=NUM_CLASSES, num_classes=NUM_CLASSES,
                              shape=IMAGE_SHAPE)
    return Dataset(x=data.x[:records], y=data.y[:records], name=name)


def sealed_records(rng, name, dataset):
    """Client-side sealing of one contributor's dataset, done once."""
    owner = participant(rng, name, dataset)
    return encrypt_dataset(dataset, owner.key, name).records


def tampered(record):
    """A man-in-the-middle flips one ciphertext byte."""
    return dataclasses.replace(
        record, sealed=bytes([record.sealed[0] ^ 0xFF]) + record.sealed[1:])


def relabelled(record):
    return dataclasses.replace(record,
                               label=(record.label + 1) % NUM_CLASSES)


def clustered_fingerprints(generator, centers, size):
    """Unit-scale clusters around `centers` (labels x clusters x dim)."""
    labels = generator.integers(0, centers.shape[0], size=size)
    clusters = generator.integers(0, centers.shape[1], size=size)
    points = (centers[labels, clusters]
              + generator.standard_normal((size, centers.shape[2])) * 0.5)
    return points.astype(np.float32), labels.astype(np.int64)
