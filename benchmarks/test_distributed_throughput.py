"""Distributed training throughput: N enclave workers vs one.

The scaling claim behind ``repro.distributed``: data-parallel rounds cost
the *slowest worker* (plus secure aggregation), not the sum of workers,
because each worker trains its shard on its own SGX platform
concurrently. On the simulated clock — the same
:class:`~repro.enclave.platform.CostModel` arithmetic the paper's
overhead figures run on — a 4-worker deployment must push at least **2x**
the epoch throughput of the single-worker baseline on the same data, same
seed, same architecture (sub-linear vs 4x because aggregation,
attestation, and the masking protocol are serial round overhead).

Each run's trajectory lands in ``BENCH_distributed.json`` at the repo
root: per-N examples/simulated-second, per-round wall-clock, and the
measured speedups, so regressions in the aggregation path show up as a
shrinking ratio.

Set ``REPRO_BENCH_SMOKE=1`` for the reduced CI configuration.
"""

import json
import os
import time
from pathlib import Path

import pytest

from repro.data.datasets import synthetic_cifar
from repro.distributed import DistributedCoordinator
from repro.enclave.attestation import AttestationService
from repro.federation.participant import TrainingParticipant
from repro.federation.provisioning import provision_key
from repro.nn.config import network_to_config
from repro.nn.zoo import tiny_testnet
from repro.utils.rng import RngStream
from repro.utils.serialization import canonical_digest

SMOKE = os.environ.get("REPRO_BENCH_SMOKE") == "1"
N_TRAIN = 128 if SMOKE else 256
ROUNDS = 1 if SMOKE else 2
BATCH = 16
TRAJECTORY_PATH = Path(__file__).resolve().parents[1] / "BENCH_distributed.json"


def _factory(generator):
    return tiny_testnet(generator, input_shape=(8, 8, 3), num_classes=4)


def _run(tmp_path, num_workers, seed=4242):
    """One distributed run; returns its trajectory entry."""
    rng = RngStream(seed, "distributed-bench")
    network_config = network_to_config(
        _factory(rng.child("reference-init").generator)
    )
    hyper = {"epochs": ROUNDS, "batch_size": BATCH,
             "learning_rate": 0.05, "momentum": 0.9}
    service = AttestationService()
    train, _ = synthetic_cifar(rng.child("data"), num_train=N_TRAIN,
                               num_test=16, num_classes=4, shape=(8, 8, 3))
    people = [TrainingParticipant("p0", train, rng.child("p0"))]
    datasets = [p.encrypt_dataset() for p in people]

    def provisioner(enclave):
        for person in people:
            provision_key(person, enclave, service,
                          expected_mrenclave=enclave.mrenclave)

    coordinator = DistributedCoordinator(
        num_workers=num_workers,
        network_factory=_factory,
        network_config=network_config,
        hyperparameters=hyper,
        partition=1,
        rng=rng.child("distributed"),
        attestation_service=service,
        provisioner=provisioner,
        init_generator_factory=lambda: rng.child("model-init").generator,
        checkpoint_root=tmp_path / f"n{num_workers}",
        config_digest=canonical_digest(network_config, hyper),
    )
    coordinator.distribute(datasets)
    wall_started = time.perf_counter()
    reports = coordinator.run(ROUNDS)
    wall_seconds = time.perf_counter() - wall_started
    simulated = coordinator.clock.now
    # One round trains every shard once = N_TRAIN examples per round.
    throughput = (N_TRAIN * ROUNDS) / simulated
    return {
        "workers": num_workers,
        "rounds": ROUNDS,
        "examples": N_TRAIN,
        "simulated_seconds": round(simulated, 6),
        "simulated_seconds_per_round": round(simulated / ROUNDS, 6),
        "aggregation_seconds": round(
            sum(r.aggregation_seconds for r in reports), 6
        ),
        "examples_per_simulated_second": round(throughput, 2),
        "wall_seconds": round(wall_seconds, 3),
        "final_loss": round(reports[-1].mean_loss, 6),
    }


class TestDistributedThroughput:
    def test_four_workers_double_epoch_throughput(self, tmp_path):
        runs = {n: _run(tmp_path, n) for n in (1, 2, 4)}
        t1 = runs[1]["examples_per_simulated_second"]
        t2 = runs[2]["examples_per_simulated_second"]
        t4 = runs[4]["examples_per_simulated_second"]
        speedup4 = t4 / t1
        speedup2 = t2 / t1
        print(f"\nthroughput (examples/simulated-second): "
              f"N=1 {t1:.1f}  N=2 {t2:.1f}  N=4 {t4:.1f}")
        print(f"speedup: N=2 {speedup2:.2f}x  N=4 {speedup4:.2f}x")

        trajectory = {
            "benchmark": "distributed_throughput",
            "smoke": SMOKE,
            "config": {
                "network": "tiny_testnet(8x8x3, 4 classes)",
                "partition": 1,
                "batch_size": BATCH,
                "train_examples": N_TRAIN,
                "rounds": ROUNDS,
            },
            "runs": [runs[n] for n in sorted(runs)],
            "speedup_n2_over_n1": round(speedup2, 3),
            "speedup_n4_over_n1": round(speedup4, 3),
        }
        TRAJECTORY_PATH.write_text(json.dumps(trajectory, indent=2) + "\n")

        # The tentpole's scaling acceptance bar.
        assert speedup4 >= 2.0, (
            f"4-worker speedup {speedup4:.2f}x below the 2x bar"
        )
        # Scaling must be monotone, and sub-linear (serial aggregation
        # overhead exists; a super-linear result means the simulated
        # clock accounting broke).
        assert t1 < t2 < t4
        assert speedup4 <= 4.5

    def test_losses_comparable_across_scales(self, tmp_path):
        """Throughput must not come from training less: per-round losses
        at N=4 stay within a band of the N=1 trajectory."""
        single = _run(tmp_path / "s", 1)
        quad = _run(tmp_path / "q", 4)
        assert abs(single["final_loss"] - quad["final_loss"]) < 0.6
