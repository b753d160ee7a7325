"""Reproducible multi-enclave worlds shared by the distributed suite."""

import numpy as np

from repro.data.datasets import synthetic_cifar
from repro.distributed import DistributedCoordinator
from repro.enclave.attestation import AttestationService
from repro.federation.participant import TrainingParticipant
from repro.federation.provisioning import provision_key
from repro.nn.config import network_to_config
from repro.nn.zoo import tiny_testnet
from repro.resilience.faults import FaultPlan, FaultSpec
from repro.utils.rng import RngStream
from repro.utils.serialization import canonical_digest

N_TRAIN = 64
BATCH_SIZE = 16
HYPER = {"epochs": 3, "batch_size": BATCH_SIZE,
         "learning_rate": 0.05, "momentum": 0.9}


def tiny_factory(generator):
    return tiny_testnet(generator, input_shape=(8, 8, 3), num_classes=4)


def make_coordinator(tmp_path, seed=7, num_workers=2, participants=2,
                     straggler_factor=2.5, blacklist_after=2,
                     num_train=N_TRAIN, tracer=None):
    """A standalone coordinator over freshly encrypted submissions.

    Returns ``(coordinator, rng)`` with the shards already distributed,
    trainers built, and attested aggregator channels open.
    """
    rng = RngStream(seed, "distributed-world")
    reference = tiny_factory(rng.child("reference-init").generator)
    network_config = network_to_config(reference)
    service = AttestationService()
    train, _ = synthetic_cifar(rng.child("data"), num_train=num_train,
                               num_test=16, num_classes=4, shape=(8, 8, 3))
    fractions = [1.0 / participants] * participants
    people = [
        TrainingParticipant(f"p{i}", share, rng.child(f"p{i}"))
        for i, share in enumerate(
            train.split(fractions, rng=rng.child("split").generator))
    ]
    datasets = [p.encrypt_dataset() for p in people]

    def provisioner(enclave):
        for person in people:
            provision_key(person, enclave, service,
                          expected_mrenclave=enclave.mrenclave)

    coordinator = DistributedCoordinator(
        num_workers=num_workers,
        network_factory=tiny_factory,
        network_config=network_config,
        hyperparameters=HYPER,
        partition=1,
        rng=rng.child("distributed"),
        attestation_service=service,
        provisioner=provisioner,
        init_generator_factory=lambda: rng.child("model-init").generator,
        checkpoint_root=tmp_path,
        config_digest=canonical_digest(network_config, HYPER),
        straggler_factor=straggler_factor,
        blacklist_after=blacklist_after,
        tracer=tracer,
    )
    coordinator.distribute(datasets)
    return coordinator, rng


def worker_fault(kind, worker, round_index, batch=0, factor=4.0):
    """``crash`` / ``straggle`` / ``corrupt`` aimed at one worker's round."""
    return FaultSpec(f"worker-{kind}", round_index, batch, worker=worker,
                     factor=factor)


def run_faulted(coordinator, rounds, *faults):
    """``coordinator.run(rounds)`` with ``faults`` armed from outside."""
    with FaultPlan(faults):
        return coordinator.run(rounds)


def losses(reports):
    return [r.mean_loss for r in reports]


def assert_same_weights(got, expected):
    assert len(got) == len(expected)
    for layer_got, layer_expected in zip(got, expected):
        assert set(layer_got) == set(layer_expected)
        for name in layer_got:
            np.testing.assert_array_equal(layer_got[name],
                                          layer_expected[name], err_msg=name)
