"""A tour of the unified observability layer (`repro.observability`).

One shared `MetricsRegistry` + one `Tracer` light up the whole pipeline:

1. train a CalTrain deployment under the resilience runtime and watch
   every layer report into the *same* registry — partition boundary
   traffic, EPC paging, checkpoint I/O, resilience counters;
2. trace the run on the **simulated** platform clock: epochs decompose
   into batches, batches into enclave / boundary-crossing / untrusted
   spans, and the per-kind attribution reproduces the paper's "where
   does a partitioned step spend its time" story (Fig. 6);
3. export the registry as Prometheus text, then parse that text back
   with `parse_prometheus` and check it round-trips — the export is the
   interface a real scrape would consume;
4. point the serving plane's telemetry at a registry of its own and show
   the identical adapter surface on the query side.

Run:  python examples/observability_tour.py
"""

import numpy as np

from repro import CalTrain, CalTrainConfig
from repro.data import synthetic_cifar
from repro.federation import TrainingParticipant
from repro.nn.zoo import tiny_testnet
from repro.observability import (MetricsRegistry, SubsystemTelemetry, Tracer,
                                 parse_prometheus)
from repro.utils.rng import RngStream

NUM_CLASSES = 4
SHAPE = (8, 8, 3)


def make_world():
    config = CalTrainConfig(
        seed=11, epochs=2, batch_size=16, partition=1, augment=True,
        network_factory=lambda gen: tiny_testnet(
            gen, input_shape=SHAPE, num_classes=NUM_CLASSES),
    )
    rng = RngStream(42, "observability-example")
    train, test = synthetic_cifar(rng.child("data"), num_train=96,
                                  num_test=32, num_classes=NUM_CLASSES,
                                  shape=SHAPE)
    system = CalTrain(config)
    participant = TrainingParticipant("clinic-0", train, rng.child("p0"))
    system.register_participant(participant)
    system.submit_data(participant)
    return system, test


def main() -> None:
    import tempfile

    print("=== 1. one registry, every subsystem ===")
    system, test = make_world()
    tracer = Tracer(clock=lambda: system.platform.clock.now)
    with tempfile.TemporaryDirectory(prefix="caltrain-obs-") as ckpt:
        system.train(test_x=test.x, test_y=test.y, checkpoint_dir=ckpt,
                     tracer=tracer)
    snapshot = system.metrics.snapshot()
    print(f"  {len(snapshot['counters'])} counters, "
          f"{len(snapshot['gauges'])} gauges, "
          f"{len(snapshot['histograms'])} histograms in one registry")
    for name in sorted(snapshot["counters"]):
        print(f"    {name:<44} {snapshot['counters'][name]}")
    assert snapshot["counters"]["repro_partition_ir_bytes_total"] > 0
    assert snapshot["counters"]["repro_checkpoint_writes_total"] >= 2
    assert snapshot["gauges"]["repro_epc_resident_bytes"] > 0

    print("\n=== 2. the simulated-clock trace ===")
    totals = tracer.kind_totals()
    traced = sum(totals.values())
    print(f"  {len(tracer.roots)} epoch spans, "
          f"{traced:.4f} simulated seconds traced")
    for kind, value in sorted(totals.items()):
        if value > 0:
            print(f"    {kind:<20} {value:.4f}s ({value / traced:.1%})")
    # The paper's decomposition: FrontNet (enclave) dominates a low
    # partition point; boundary copies are visible but small.
    assert totals["enclave"] > totals["boundary-crossing"]
    first_batch = tracer.roots[0].children[0]
    assert [c.kind for c in first_batch.children] == [
        "enclave", "boundary-crossing", "untrusted",
        "untrusted", "boundary-crossing", "enclave",
    ]
    print("    span tree: epoch -> batch -> "
          "frontnet / ir-transfer / backnet (asserted)")

    print("\n=== 3. Prometheus export round-trip ===")
    text = system.metrics.render_prometheus()
    parsed = parse_prometheus(text)
    print(f"  exported {len(text.splitlines())} lines, "
          f"parsed {len(parsed)} metric families")
    for name, counter in snapshot["counters"].items():
        assert parsed[name]["samples"][""] == counter, name
    save = parsed["repro_checkpoint_save_seconds"]
    assert save["type"] == "histogram"
    assert save["samples"]["_count"] >= 2
    print("  counter values and histogram counts round-trip exactly")

    print("\n=== 4. the serving side speaks the same language ===")
    registry = MetricsRegistry()
    telemetry = SubsystemTelemetry("serving", registry=registry)
    generator = np.random.default_rng(0)
    telemetry.count("queries", 128)
    telemetry.count("cache_hits", 32)
    telemetry.count("cache_misses", 96)
    for _ in range(96):
        telemetry.observe("search", float(generator.uniform(1e-4, 3e-3)))
    served = telemetry.snapshot()
    print(f"  cache hit rate {served['cache_hit_rate']:.1%}, "
          f"search p95 {served['stages']['search']['p95'] * 1e3:.3f}ms")
    exported = parse_prometheus(registry.render_prometheus())
    assert exported["repro_serving_queries_total"]["samples"][""] == 128
    print("  repro_serving_* metrics exported from the shared registry")

    print("\nAll observability invariants hold.")


if __name__ == "__main__":
    main()
