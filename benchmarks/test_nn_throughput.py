"""NN kernel throughput: the layers' kernels vs the reference oracle.

The claim behind ``repro.nn.backends``: the kernels every layer runs
(pooled im2col/col2im scratch, fused bias+activation kernels, transposed-
convolution input gradients, vectorised max-pool scatter, in-place
optimizer updates) deliver at least **3x** the epoch throughput of the
original numpy layer bodies — kept as the parity oracle in
``tests/nn/reference_backend.py`` — on the paper's Table I 10-layer
CIFAR-10 architecture, the workload every accuracy and overhead figure
trains.

Both runs use the *same* ``Network.train_batch`` loop on the same data,
weights, and optimizer; only the kernels differ (the oracle is installed
on every layer of the denominator's network), so the ratio isolates the
compute kernels. Results land in ``BENCH_nn.json`` at the repo root:
samples/second per run and the measured speedup, so a regression in
either shows up as a moving ratio.

Set ``REPRO_BENCH_SMOKE=1`` for the reduced CI configuration: fewer
batches, and the speedup bar becomes *advisory* (a warning plus the
``BENCH_nn.json`` record, never a build failure) because the tiny run on
a shared runner is timer-noise and noisy-neighbor dominated. The strict
3x bar only gates full (non-smoke) benchmark runs.
"""

import json
import os
import time
import warnings
from pathlib import Path

from repro.nn.optimizers import Sgd
from repro.nn.zoo import cifar10_10layer

import numpy as np

from tests.nn.reference_backend import use_reference

SMOKE = os.environ.get("REPRO_BENCH_SMOKE") == "1"
WIDTH = 0.12        # same laptop-scale Table I width the figure benches use
BATCH = 32
WARMUP_BATCHES = 2
TIMED_BATCHES = 3 if SMOKE else 18
SPEEDUP_BAR = 2.0 if SMOKE else 3.0   # advisory-only under SMOKE
TRAJECTORY_PATH = Path(__file__).resolve().parents[1] / "BENCH_nn.json"


def _workload():
    gen = np.random.default_rng(7)
    x = gen.normal(size=(96, 32, 32, 3)).astype(np.float32)
    y = gen.integers(0, 10, size=96)
    return x, y


def _run(backend):
    """Train the Table I net for TIMED_BATCHES; returns the run entry."""
    x, y = _workload()
    net = cifar10_10layer(np.random.default_rng(0), width_scale=WIDTH)
    if backend == "reference":
        use_reference(net)
    optimizer = Sgd(0.02, momentum=0.9)
    losses = []
    for i in range(WARMUP_BATCHES):
        s = (i % 3) * BATCH
        net.train_batch(x[s:s + BATCH], y[s:s + BATCH], optimizer)
    started = time.perf_counter()
    for i in range(TIMED_BATCHES):
        s = (i % 3) * BATCH
        losses.append(net.train_batch(x[s:s + BATCH], y[s:s + BATCH],
                                      optimizer))
    seconds = time.perf_counter() - started
    samples = TIMED_BATCHES * BATCH
    return {
        "backend": backend,
        "batches": TIMED_BATCHES,
        "samples": samples,
        "wall_seconds": round(seconds, 4),
        "samples_per_second": round(samples / seconds, 1),
        "final_loss": round(losses[-1], 6),
    }


class TestNnThroughput:
    def test_optimized_backend_meets_speedup_bar(self):
        reference = _run("reference")
        optimized = _run("optimized")
        speedup = (optimized["samples_per_second"]
                   / reference["samples_per_second"])
        print(f"\nsamples/second: reference "
              f"{reference['samples_per_second']:.0f}  optimized "
              f"{optimized['samples_per_second']:.0f}  "
              f"speedup {speedup:.2f}x")

        trajectory = {
            "benchmark": "nn_backend_throughput",
            "smoke": SMOKE,
            "config": {
                "network": f"cifar10_10layer(width_scale={WIDTH})",
                "input": "32x32x3",
                "batch_size": BATCH,
                "timed_batches": TIMED_BATCHES,
                "optimizer": "sgd(lr=0.02, momentum=0.9)",
            },
            "runs": [reference, optimized],
            "speedup_optimized_over_reference": round(speedup, 3),
            "speedup_bar": SPEEDUP_BAR,
        }
        TRAJECTORY_PATH.write_text(json.dumps(trajectory, indent=2) + "\n")

        if SMOKE:
            # Shared CI runners are too noisy for a hard wall-clock gate:
            # record the ratio, warn when it slips, never fail the build.
            if speedup < SPEEDUP_BAR:
                warnings.warn(
                    f"smoke-mode speedup {speedup:.2f}x below the advisory "
                    f"{SPEEDUP_BAR}x bar (see BENCH_nn.json); not failing "
                    f"the build on shared-runner timing"
                )
            return
        assert speedup >= SPEEDUP_BAR, (
            f"kernel speedup {speedup:.2f}x over the reference oracle is "
            f"below the {SPEEDUP_BAR}x bar"
        )

    def test_backends_train_to_comparable_loss(self):
        """Throughput must not come from computing something else: the
        kernels' and the oracle's short-run losses stay within float drift
        of each other (the oracle's backward promotes to float64)."""
        reference = _run("reference")
        optimized = _run("optimized")
        assert abs(reference["final_loss"] - optimized["final_loss"]) < 1e-3
