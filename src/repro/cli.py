"""Command-line interface.

Run ``python -m repro <command>``:

* ``info`` — version, architectures, and the Table I/II summaries.
* ``train`` — confidential collaborative training on synthetic data.
* ``train-distributed`` — data-parallel training across N enclave
  workers with per-round secure FrontNet aggregation; understands
  ``--kill``/``--straggle``/``--corrupt`` fault drills and prints the
  aggregator enclave's hash-chained audit trail.
* ``assess`` — information-exposure assessment of a freshly trained model.
* ``forensics`` — the Trojaning-attack accountability pipeline.
* ``build-index`` — persist a linkage store and build the sharded ANN index.
* ``serve-queries`` — run the batched/cached/audited query engine.
* ``ingest`` — multi-contributor chunked ingest through the gateway,
  validation pipeline, and contribution ledger (with optional
  fault-injection to demo crash/resume).
* ``ingest-status`` — inspect and verify an on-disk contribution ledger.
* ``checkpoints`` — inspect the sealed checkpoints of a training run.
* ``metrics`` — run a small training scenario and export the unified
  metrics registry (Prometheus text or JSON).
* ``govern`` — the end-to-end accountability drill: ledger ingest →
  governed training → fail-closed promotion → flagged-query contributor
  attribution, all chained into one governance timeline.
  ``--tamper ledger|checkpoint|store|log`` flips one artifact byte
  *after* promotion; the deployment must refuse to serve (exit 2).
* ``promote`` — re-verify a ``govern`` deployment's lineage from disk
  and (re-)issue its signed promotion record.
* ``attribute`` — walk one flagged prediction back through the promoted
  serving plane to the contributors whose ledger records back it.

``train`` additionally understands ``--checkpoint-dir``/``--resume``/
``--checkpoint-every``/``--inject`` for fault-tolerant training: sealed
epoch-boundary (and mid-epoch) checkpoints, supervised recovery from
injected enclave faults, and bitwise-identical resume.

``train`` and ``serve-queries`` accept ``--trace PATH`` to record the
run as a span tree (``.json`` for structured output, anything else for
the rendered tree). Training traces use the *simulated* platform clock,
so they are deterministic given the seed.

Every command is deterministic given ``--seed``.
"""

from __future__ import annotations

import argparse
import sys
from contextlib import nullcontext
from typing import List, Optional

import numpy as np

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="CalTrain: confidential and accountable collaborative learning",
    )
    parser.add_argument("--seed", type=int, default=7, help="master seed")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("info", help="version and architecture tables")

    train = sub.add_parser("train", help="confidential collaborative training")
    train.add_argument("--architecture", default="cifar10-10layer",
                       choices=["cifar10-10layer", "cifar10-18layer"])
    train.add_argument("--epochs", type=int, default=4)
    train.add_argument("--width-scale", type=float, default=0.1)
    train.add_argument("--partition", type=int, default=2)
    train.add_argument("--participants", type=int, default=3)
    train.add_argument("--train-size", type=int, default=300)
    train.add_argument("--test-size", type=int, default=100)
    train.add_argument("--checkpoint-dir", default=None,
                       help="run under the resilience runtime, checkpointing "
                            "into this directory")
    train.add_argument("--resume", action="store_true",
                       help="continue from the newest valid checkpoint")
    train.add_argument("--checkpoint-every", type=int, default=None,
                       metavar="BATCHES",
                       help="also checkpoint mid-epoch every N batches")
    train.add_argument("--inject", action="append", default=[],
                       metavar="KIND@EPOCH[:BATCH]",
                       help="inject a fault, e.g. enclave-abort@1:3 "
                            "(repeatable); kinds: enclave-abort, "
                            "epc-pressure, ir-corrupt, delta-corrupt, "
                            "checkpoint-crash")
    train.add_argument("--trace", default=None, metavar="PATH",
                       help="record the run as a span tree on the simulated "
                            "clock (.json = structured, else rendered text)")

    dist = sub.add_parser(
        "train-distributed",
        help="multi-enclave data-parallel training with secure aggregation",
    )
    dist.add_argument("--workers", type=_cohort_size, default=2,
                      help="number of enclave workers, at least 2 "
                           "(ids w0..wN-1); one enclave is `repro train`")
    dist.add_argument("--rounds", type=int, default=3,
                      help="data-parallel rounds (one local epoch each)")
    dist.add_argument("--architecture", default="cifar10-10layer",
                      choices=["cifar10-10layer", "cifar10-18layer"])
    dist.add_argument("--width-scale", type=float, default=0.1)
    dist.add_argument("--partition", type=int, default=2)
    dist.add_argument("--participants", type=int, default=3)
    dist.add_argument("--train-size", type=int, default=300)
    dist.add_argument("--test-size", type=int, default=100)
    dist.add_argument("--checkpoint-dir", default=None,
                      help="root for the per-worker sealed checkpoints "
                           "(default: a temp directory)")
    dist.add_argument("--straggler-factor", type=float, default=2.5,
                      help="deadline = factor x fastest local epoch")
    dist.add_argument("--blacklist-after", type=int, default=2,
                      help="consecutive bad rounds before a worker is "
                           "blacklisted and its shard reassigned")
    dist.add_argument("--kill", action="append", default=[],
                      metavar="WORKER@ROUND[:BATCH]",
                      help="crash a worker's enclave mid-round, e.g. w1@1:2 "
                           "(repeatable); it recovers from its sealed "
                           "checkpoint")
    dist.add_argument("--straggle", action="append", default=[],
                      metavar="WORKER@ROUND[:FACTOR]",
                      help="stretch a worker's round, e.g. w1@0:4.0 "
                           "(repeatable)")
    dist.add_argument("--corrupt", action="append", default=[],
                      metavar="WORKER@ROUND",
                      help="flip one byte of a worker's masked upload in "
                           "the coordinator relay (repeatable)")
    dist.add_argument("--trace", default=None, metavar="PATH",
                      help="record the run as a span tree (.json = "
                           "structured, else rendered text)")

    assess = sub.add_parser("assess", help="exposure assessment")
    assess.add_argument("--epochs", type=int, default=3)
    assess.add_argument("--width-scale", type=float, default=0.1)
    assess.add_argument("--inputs", type=int, default=2)

    forensics = sub.add_parser("forensics", help="trojan accountability demo")
    forensics.add_argument("--identities", type=int, default=8)
    forensics.add_argument("--queries", type=int, default=3)

    build = sub.add_parser(
        "build-index",
        help="persist a linkage store and build the sharded ANN index",
    )
    build.add_argument("--path", default=None,
                       help="store directory (default: a temp directory)")
    build.add_argument("--records", type=int, default=20000)
    build.add_argument("--dim", type=int, default=32)
    build.add_argument("--labels", type=int, default=8)
    build.add_argument("--segment-size", type=int, default=8192)
    build.add_argument("--shard-threshold", type=int, default=1024)

    serve = sub.add_parser(
        "serve-queries",
        help="serve misprediction queries through the batched engine",
    )
    serve.add_argument("--path", default=None,
                       help="existing store directory (default: build one)")
    serve.add_argument("--records", type=int, default=20000)
    serve.add_argument("--dim", type=int, default=32)
    serve.add_argument("--labels", type=int, default=8)
    serve.add_argument("--queries", type=int, default=512)
    serve.add_argument("--k", type=int, default=5)
    serve.add_argument("--workers", type=int, default=2)
    serve.add_argument("--trace", default=None, metavar="PATH",
                       help="record the serving run as a wall-clock span "
                            "tree (.json = structured, else rendered text)")

    cluster = sub.add_parser(
        "serve-cluster",
        help="replicated self-healing serving with deadlines, hedging, "
             "circuit breakers, and optional fault injection",
    )
    cluster.add_argument("--path", default=None,
                         help="existing store directory (default: build one)")
    cluster.add_argument("--records", type=int, default=6000)
    cluster.add_argument("--dim", type=int, default=16)
    cluster.add_argument("--labels", type=int, default=4)
    cluster.add_argument("--replicas", type=int, default=3)
    cluster.add_argument("--queries", type=int, default=256)
    cluster.add_argument("--k", type=int, default=5)
    cluster.add_argument("--workers", type=int, default=2)
    cluster.add_argument("--deadline", type=float, default=2.0,
                         help="per-query end-to-end deadline (seconds)")
    cluster.add_argument(
        "--inject", action="append", default=[],
        metavar="KIND@QUERY[:REPLICA]",
        help="schedule a serving fault, e.g. replica-crash@40, "
             "index-corrupt@80:replica-1, or growth-storm@30 "
             "(benign ingest burst; repeatable)",
    )
    cluster.add_argument("--seeded-faults", type=int, default=0,
                         help="additionally schedule N seeded random faults")
    cluster.add_argument("--growth-records", type=int, default=200,
                         help="records per growth-storm injection "
                              "(benign ingest burst; default 200)")
    cluster.add_argument("--expect-no-evictions", action="store_true",
                         help="fail (exit 1) if any replica was evicted — "
                              "the growth-storm drill's contract")
    cluster.add_argument("--trace", default=None, metavar="PATH",
                         help="record the run as a wall-clock span tree")

    metrics = sub.add_parser(
        "metrics",
        help="run a small training scenario and export the unified "
             "metrics registry",
    )
    metrics.add_argument("--format", default="prom", choices=["prom", "json"],
                         help="Prometheus text exposition or a JSON snapshot")
    metrics.add_argument("--output", default=None, metavar="PATH",
                         help="write the export here instead of stdout")
    metrics.add_argument("--epochs", type=int, default=2)
    metrics.add_argument("--width-scale", type=float, default=0.1)
    metrics.add_argument("--participants", type=int, default=2)
    metrics.add_argument("--train-size", type=int, default=120)
    metrics.add_argument("--test-size", type=int, default=40)

    ingest = sub.add_parser(
        "ingest",
        help="chunked, attestation-gated multi-contributor data ingestion",
    )
    ingest.add_argument("--path", default=None,
                        help="ledger directory (default: a temp directory)")
    ingest.add_argument("--contributors", type=int, default=3)
    ingest.add_argument("--records-per", type=int, default=120)
    ingest.add_argument("--chunk-records", type=int, default=32)
    ingest.add_argument("--tamper", type=int, default=2,
                        help="records per contributor to tamper in transit")
    ingest.add_argument("--fault", action="store_true",
                        help="kill one upload mid-transfer and resume it, "
                             "then abort one more upload")

    status = sub.add_parser(
        "ingest-status",
        help="inspect and verify an on-disk contribution ledger",
    )
    status.add_argument("--path", required=True, help="ledger directory")

    checkpoints = sub.add_parser(
        "checkpoints",
        help="inspect the sealed checkpoints of a training run",
    )
    checkpoints.add_argument("--path", required=True,
                             help="checkpoint directory")

    def _governance_args(command):
        # The training-agreement knobs: `promote`/`attribute` rebuild the
        # deployment's config digest (and so its run key) from these, so
        # they must match the `govern` run that wrote the artifacts.
        command.add_argument("--epochs", type=int, default=2)
        command.add_argument("--width-scale", type=float, default=0.1)

    govern = sub.add_parser(
        "govern",
        help="end-to-end accountability drill: ingest, governed training, "
             "promotion, attribution",
    )
    govern.add_argument("--path", default=None,
                        help="deployment root (default: a temp directory)")
    _governance_args(govern)
    govern.add_argument("--train-size", type=int, default=40,
                        help="records per contributor")
    govern.add_argument("--contributors", type=int, default=3)
    govern.add_argument("--tamper", default=None,
                        choices=["ledger", "checkpoint", "store", "log"],
                        help="flip one byte of this artifact after "
                             "promotion; the deployment must refuse to "
                             "serve (exit code 2)")

    promote = sub.add_parser(
        "promote",
        help="re-verify a deployment's lineage and sign its promotion",
    )
    promote.add_argument("--path", required=True,
                         help="deployment root written by `repro govern`")
    _governance_args(promote)

    attribute = sub.add_parser(
        "attribute",
        help="attribute one flagged prediction to its contributors",
    )
    attribute.add_argument("--path", required=True,
                           help="deployment root written by `repro govern`")
    _governance_args(attribute)
    attribute.add_argument("--record-index", type=int, default=None,
                           help="store record to flag a prediction near "
                                "(default: seed-chosen)")
    attribute.add_argument("--k", type=int, default=9)
    attribute.add_argument("--output", default=None, metavar="PATH",
                           help="write the canonical-JSON report here")
    return parser


def _cmd_info(args) -> int:
    import repro
    from repro.ingest import LEDGER_FORMAT
    from repro.nn.zoo import cifar10_10layer, cifar10_18layer

    print(f"repro-caltrain {repro.__version__}")
    print("\nTable I — 10-layer CIFAR-10 network:")
    print(cifar10_10layer(np.random.default_rng(0), width_scale=1.0).summary())
    print("\nTable II — 18-layer CIFAR-10 network:")
    print(cifar10_18layer(np.random.default_rng(0), width_scale=1.0).summary())
    print("\nIngestion plane (repro.ingest):")
    print(f"  ledger segment format    v{LEDGER_FORMAT} "
          "(append-only, content-addressed, sealable manifest)")
    print("  repro ingest             chunked attestation-gated multi-"
          "contributor ingest")
    print("  repro ingest-status      inspect/verify an on-disk "
          "contribution ledger")
    print("\nGovernance plane (repro.governance):")
    print("  repro govern             end-to-end accountability drill "
          "(ingest, train, promote, attribute)")
    print("  repro promote            re-verify a run's lineage, sign its "
          "promotion record")
    print("  repro attribute          walk a flagged prediction back to "
          "its contributors")
    print("\nResilience runtime (repro.resilience):")
    print("  repro train --checkpoint-dir DIR "
          "sealed checkpoint/resume + supervised retries")
    print("  repro train --inject KIND@EPOCH[:BATCH] "
          "deterministic fault injection")
    print("  repro checkpoints        inspect a checkpoint directory")
    return 0


def _write_trace(tracer, path: str, time_unit: str = "s") -> None:
    """Write a finished trace: structured for ``.json``, rendered otherwise."""
    import json
    from pathlib import Path

    if path.endswith(".json"):
        Path(path).write_text(json.dumps(tracer.to_dict(), indent=1))
    else:
        Path(path).write_text(tracer.render(time_unit=time_unit) + "\n")
    totals = tracer.kind_totals()
    attribution = "  ".join(
        f"{kind} {totals[kind]:.4f}{time_unit}"
        for kind in sorted(totals) if totals[kind] > 0.0
    )
    print(f"trace written to {path} ({len(tracer.roots)} root spans; "
          f"{attribution})")


def _split_fault_spec(text):
    """``HEAD@N[:EXTRA]`` -> ``(head, n, extra)``; ``ValueError`` if not."""
    head, at, where = text.partition("@")
    number, _, extra = where.partition(":")
    if not (head and at):
        raise ValueError(text)
    return head, int(number), extra


def _parse_fault_specs(specs):
    from repro.errors import ConfigurationError
    from repro.resilience.faults import FaultPlan, FaultSpec

    if not specs:
        return None
    faults = []
    for text in specs:
        try:
            kind, epoch, batch = _split_fault_spec(text)
            faults.append(FaultSpec(kind=kind, epoch=epoch,
                                    batch=int(batch) if batch else 0))
        except ValueError as exc:
            raise ConfigurationError(
                f"bad --inject spec {text!r}; expected KIND@EPOCH[:BATCH]"
            ) from exc
    return FaultPlan(faults)


def _training_world(args, name, epochs, enclave_label):
    """A deployment with ``args.participants`` registered contributors,
    each holding an equal share of a synthetic CIFAR training set.

    Returns ``(system, test)``; prints the training enclave's MRENCLAVE.
    """
    from repro.core.caltrain import CalTrain, CalTrainConfig
    from repro.data.datasets import synthetic_cifar
    from repro.federation.participant import TrainingParticipant
    from repro.utils.rng import RngStream

    rng = RngStream(args.seed, name=name)
    train, test = synthetic_cifar(rng.child("data"), num_train=args.train_size,
                                  num_test=args.test_size)
    system = CalTrain(CalTrainConfig(
        seed=args.seed, architecture=args.architecture,
        width_scale=args.width_scale, epochs=epochs,
        partition=args.partition, augment=False,
    ))
    print(f"{enclave_label} MRENCLAVE: {system.expected_measurement.hex()}")
    fractions = [1.0 / args.participants] * args.participants
    for i, share in enumerate(train.split(fractions,
                                          rng=rng.child("split").generator)):
        participant = TrainingParticipant(f"p{i}", share, rng.child(f"p{i}"))
        system.register_participant(participant)
        system.submit_data(participant)
    return system, test


def _cmd_train(args) -> int:
    system, test = _training_world(args, "cli-train", args.epochs, "enclave")
    tracer = None
    if args.trace:
        from repro.observability import Tracer

        # Simulated platform seconds, not wall time: the trace is part of
        # the deterministic run, identical for identical seeds.
        tracer = Tracer(clock=lambda: system.platform.clock.now)
    with _parse_fault_specs(args.inject) or nullcontext():
        reports = system.train(
            test_x=test.x, test_y=test.y,
            checkpoint_dir=args.checkpoint_dir,
            resume=args.resume,
            checkpoint_every_batches=args.checkpoint_every,
            tracer=tracer,
        )
    summary = system.decryption_summary
    print(f"accepted {summary.accepted} records "
          f"({summary.rejected_tampered} tampered, "
          f"{summary.rejected_unregistered} unregistered rejected)")
    for report in reports:
        print(f"epoch {report.epoch + 1:>2}: loss {report.mean_loss:.4f}  "
              f"top-1 {report.top1:.2%}  top-2 {report.top2:.2%}  "
              f"simulated {report.simulated_seconds:.3f}s")
    if system.run_telemetry is not None:
        print(system.run_telemetry.render())
        print(f"audit chain: {len(system.audit_log)} events, "
              f"{'VERIFIED' if system.audit_log.verify_chain() else 'BROKEN'}")
    if tracer is not None:
        _write_trace(tracer, args.trace, time_unit="s")
    table = system.fingerprint_stage()
    print(f"linkage database: {len(table)} records "
          f"(dimension {table.dimension})")
    return 0


def _parse_worker_faults(args):
    from repro.errors import ConfigurationError
    from repro.resilience.faults import FaultPlan, FaultSpec

    faults = []
    for flag, kind, extra_name, cast in (
            ("kill", "worker-crash", "batch", int),
            ("straggle", "worker-straggle", "factor", float),
            ("corrupt", "worker-corrupt", None, None)):
        expected = "WORKER@ROUND" + (
            f"[:{extra_name.upper()}]" if extra_name else "")
        for text in getattr(args, flag):
            try:
                worker, round_index, extra = _split_fault_spec(text)
                if extra and extra_name is None:
                    raise ValueError(text)
                faults.append(FaultSpec(
                    kind, round_index, worker=worker,
                    **({extra_name: cast(extra)} if extra else {})))
            except ValueError as exc:
                raise ConfigurationError(
                    f"bad --{flag} spec {text!r}; expected {expected}"
                ) from exc
    return FaultPlan(faults) if faults else None


def _cohort_size(text: str) -> int:
    workers = int(text)
    if workers < 2:
        raise argparse.ArgumentTypeError(
            f"{workers} worker(s) is not a cohort; train one enclave with "
            "`repro train`")
    return workers


def _cmd_train_distributed(args) -> int:
    system, test = _training_world(args, "cli-train-distributed", args.rounds,
                                   "training enclave")
    tracer = None
    if args.trace:
        from repro.observability import Tracer

        tracer = Tracer(clock=lambda: system.coordinator.clock.now
                        if system.coordinator is not None else 0.0)
    with _parse_worker_faults(args) or nullcontext():
        reports = system.train(
            test_x=test.x, test_y=test.y,
            workers=args.workers,
            straggler_factor=args.straggler_factor,
            blacklist_after=args.blacklist_after,
            checkpoint_dir=args.checkpoint_dir,
            tracer=tracer,
        )
    coordinator = system.coordinator
    print(f"aggregator MRENCLAVE: {coordinator.aggregator.mrenclave.hex()}")
    print(f"shards: " + "  ".join(
        f"{w.worker_id}={w.examples}" for w in coordinator.workers))
    for report, round_report in zip(reports, coordinator.reports):
        extras = []
        if round_report.stragglers:
            extras.append(f"stragglers {','.join(round_report.stragglers)}")
        if round_report.faulted:
            extras.append(f"faulted {','.join(round_report.faulted)}")
        if round_report.recovered:
            extras.append(f"recovered {','.join(round_report.recovered)}")
        if round_report.corrupted:
            extras.append(f"corrupted {','.join(round_report.corrupted)}")
        if round_report.blacklisted:
            extras.append(f"blacklisted {','.join(round_report.blacklisted)}")
        suffix = f"  [{'; '.join(extras)}]" if extras else ""
        print(f"round {report.epoch:>2}: loss {report.mean_loss:.4f}  "
              f"{len(round_report.participating)}/{args.workers} aggregated  "
              f"simulated {report.simulated_seconds:.3f}s{suffix}")
    final = reports[-1]
    if final.top1 is not None:
        print(f"final accuracy: top-1 {final.top1:.2%}  top-2 {final.top2:.2%}")
    print("\naggregation audit trail "
          f"({'VERIFIED' if coordinator.audit.verify_chain() else 'BROKEN'}):")
    for event in coordinator.audit.events("aggregation"):
        details = event.details
        print(f"  round {details['round']}: participants "
              f"{','.join(details['participants']) or '-'}  dropped "
              f"{','.join(details['dropped']) or '-'}  "
              f"digest {details['digest'][:16]}…")
    print()
    print(system.distributed_telemetry.render())
    if tracer is not None:
        _write_trace(tracer, args.trace, time_unit="s")
    return 0


def _cmd_checkpoints(args) -> int:
    from repro.resilience import CheckpointManager

    manager = CheckpointManager(args.path)
    infos = manager.checkpoints()
    torn = sum(
        1 for entry in sorted(manager.directory.iterdir())
        if entry.is_dir() and entry.name.startswith("ckpt-")
    ) - len(infos)
    print(f"checkpoint directory {args.path}")
    print(f"  valid checkpoints        {len(infos)}")
    print(f"  torn/invalid directories {torn}")
    for info in infos:
        size = sum(f.stat().st_size for f in info.path.iterdir() if f.is_file())
        point = (f"epoch {info.epoch} boundary" if info.batch == 0
                 else f"epoch {info.epoch}, batch {info.batch}")
        print(f"  seq {info.seq:>4}: {point:<24} batch_size {info.batch_size:>4} "
              f"partition {info.partition}  {size:>8} bytes  "
              f"mrenclave {info.manifest['mrenclave'][:16]}…")
    latest = manager.latest()
    if latest is not None:
        print(f"  resume target: {latest.path.name}")
    return 0


def _cmd_assess(args) -> int:
    from repro.core.assessment import ExposureAssessor, train_validation_oracle
    from repro.data.batching import iterate_minibatches
    from repro.data.datasets import synthetic_cifar
    from repro.nn.optimizers import Sgd
    from repro.nn.zoo import cifar10_18layer
    from repro.utils.rng import RngStream

    rng = RngStream(args.seed, name="cli-assess")
    train, test = synthetic_cifar(rng.child("data"), num_train=400, num_test=100)
    print("training the IRValNet oracle…")
    oracle = train_validation_oracle(train.x, train.y, rng.child("oracle"),
                                     epochs=6, width_scale=0.15,
                                     learning_rate=0.03)
    print("training the IRGenNet model…")
    model = cifar10_18layer(rng.child("init").generator,
                            width_scale=args.width_scale)
    optimizer = Sgd(0.02, 0.9)
    batch_rng = rng.child("batches").generator
    for _ in range(args.epochs):
        for xb, yb in iterate_minibatches(train.x, train.y, 32, rng=batch_rng):
            model.train_batch(xb, yb, optimizer)
    result = ExposureAssessor(oracle, max_channels_per_layer=4).assess(
        model, test.x[: args.inputs]
    )
    print(f"uniform baseline delta_mu = {result.uniform_baseline:.3f}")
    for exposure in result.layers:
        verdict = "LEAK" if exposure.leaks(result.uniform_baseline) else "safe"
        print(f"  layer {exposure.layer_index + 1:>2}: "
              f"KL in [{exposure.kl_min:7.3f}, {exposure.kl_max:7.3f}]  {verdict}")
    print(f"=> enclose the first {result.optimal_partition} layers")
    return 0


def _cmd_forensics(args) -> int:
    import tempfile

    from repro.attacks.trojan import TrojanAttack
    from repro.core.fingerprint import Fingerprinter
    from repro.core.linkage import instance_digest
    from repro.core.query import exact_top_k
    from repro.data.batching import iterate_minibatches
    from repro.data.datasets import synthetic_faces
    from repro.nn.optimizers import Sgd
    from repro.nn.zoo import face_recognition_net
    from repro.serving import LinkageStore
    from repro.utils.rng import RngStream

    rng = RngStream(args.seed, name="cli-forensics")
    faces = synthetic_faces(rng.child("faces"), num_identities=args.identities,
                            per_identity=40)
    train, test, substitute = faces.split([0.6, 0.2, 0.2],
                                          rng=rng.child("split").generator)
    model = face_recognition_net(num_classes=args.identities,
                                 rng=rng.child("init").generator)
    optimizer = Sgd(0.01, 0.9)
    batch_rng = rng.child("batches").generator
    for _ in range(18):
        for xb, yb in iterate_minibatches(train.x, train.y, 16, rng=batch_rng):
            model.train_batch(xb, yb, optimizer)
    attack = TrojanAttack(model, target_label=0, patch=4,
                          rng=rng.child("attack").generator)
    outcome = attack.run(substitute, test, trigger_iterations=40,
                         retrain_epochs=4, learning_rate=0.01)
    print(f"attack success rate: {attack.attack_success_rate(outcome):.2%}")

    fingerprinter = Fingerprinter(outcome.trojaned_model)
    with tempfile.TemporaryDirectory(prefix="caltrain-forensics-") as scratch:
        store = LinkageStore.create(scratch)
        for dataset, source, kind_key in ((train, "honest", None),
                                          (outcome.poisoned_train, "attacker",
                                           "poisoned")):
            fingerprints = fingerprinter.fingerprint(dataset.x)
            kinds = [
                "poisoned" if kind_key and dataset.flags[kind_key][i]
                else "normal"
                for i in range(len(dataset))
            ]
            store.append(
                fingerprints, dataset.y.tolist(), [source] * len(dataset),
                [instance_digest(dataset.x[i]) for i in range(len(dataset))],
                source_indices=list(range(len(dataset))), kinds=kinds,
            )
        labels, _, fingerprints = fingerprinter.predict_with_fingerprint(
            outcome.trojaned_test.x[: args.queries]
        )
        for qi in range(args.queries):
            print(f"misprediction #{qi}: closest training instances")
            matrix, indices = store.by_label(int(labels[qi]))
            positions, distances = exact_top_k(fingerprints[qi : qi + 1],
                                               matrix, 5)
            for rank, (position, distance) in enumerate(
                    zip(positions[0], distances[0]), start=1):
                record = store.record(indices[position])
                print(f"  #{rank}: L2 {distance:.3f}  "
                      f"{record.kind} / {record.source}")
    return 0


def _synthetic_store(path, records, dim, labels, segment_size, seed):
    """Build a clustered synthetic fingerprint store on disk."""
    from repro.serving import LinkageStore

    generator = np.random.default_rng(seed)
    clusters_per_label = 8
    centers = generator.standard_normal((labels, clusters_per_label, dim)) * 4.0
    label_column = generator.integers(0, labels, size=records)
    cluster_column = generator.integers(0, clusters_per_label, size=records)
    fingerprints = (
        centers[label_column, cluster_column]
        + generator.standard_normal((records, dim)) * 0.5
    ).astype(np.float32)
    store = LinkageStore.create(path)
    for start in range(0, records, segment_size):
        stop = min(start + segment_size, records)
        store.append(
            fingerprints[start:stop],
            label_column[start:stop].tolist(),
            [f"p{i % 4}" for i in range(start, stop)],
            [b"h" * 32 for _ in range(start, stop)],
            source_indices=list(range(start, stop)),
        )
    return store, fingerprints, label_column


def _cmd_build_index(args) -> int:
    import tempfile

    from repro.enclave.platform import SgxPlatform
    from repro.serving import ShardedAnnIndex
    from repro.utils.rng import RngStream

    path = args.path or tempfile.mkdtemp(prefix="caltrain-store-")
    store, _, _ = _synthetic_store(path, args.records, args.dim, args.labels,
                                   args.segment_size, args.seed)
    print(f"store: {len(store)} records in {len(store.segments)} segments "
          f"at {path} (version {store.version})")
    print(f"manifest digest: {store.manifest_digest().hex()}")
    store.verify()
    print("segment digests: verified")

    index = ShardedAnnIndex(store, shard_threshold=args.shard_threshold,
                            seed=args.seed).build()
    stats = index.stats()
    print(f"index: {stats['labels']} label shards")
    for label, shard in stats["shards"].items():
        detail = (f"{shard['buckets']} buckets, mean radius "
                  f"{shard['mean_radius']:.2f}"
                  if shard["kind"] == "clustered" else "exact scan")
        print(f"  label {label}: {shard['rows']} rows, {shard['kind']} ({detail})")

    # The enclave sealing boundary: attest what the serving plane holds.
    platform = SgxPlatform(rng=RngStream(args.seed, name="cli-serving"))
    enclave = platform.create_enclave("fingerprinting")
    enclave.init()
    sealed = store.seal_manifest(enclave)
    print(f"manifest sealed to MRENCLAVE {enclave.mrenclave.hex()[:16]}…: "
          f"{'valid' if store.verify_sealed_manifest(enclave, sealed) else 'INVALID'}")
    return 0


def _cmd_serve_queries(args) -> int:
    import tempfile

    from repro.serving import (EngineConfig, LinkageStore, ServingEngine,
                               ShardedAnnIndex)

    generator = np.random.default_rng(args.seed + 1)
    if args.path:
        store = LinkageStore.open(args.path)
    else:
        path = tempfile.mkdtemp(prefix="caltrain-store-")
        store, _, _ = _synthetic_store(
            path, args.records, args.dim, args.labels, 8192, args.seed
        )
    print(f"serving {len(store)} fingerprints "
          f"(dimension {store.dimension}, version {store.version})")
    index = ShardedAnnIndex(store, shard_threshold=1024,
                            seed=args.seed).build()
    # Mispredictions land near training fingerprints, so draw queries as
    # perturbed stored records (this is also what lets the ANN bounds prune).
    sample = generator.integers(0, len(store), size=args.queries)
    records = [store.record(int(i)) for i in sample]
    queries = np.stack([r.fingerprint for r in records]).astype(np.float32)
    queries += generator.standard_normal(queries.shape).astype(np.float32) * 0.1
    query_labels = [r.label for r in records]

    def submit_with_backoff(engine, batch, batch_labels):
        import time as _time

        from repro.errors import QueryRejected

        futures = []
        for i in range(batch.shape[0]):
            while True:
                try:
                    futures.append(
                        engine.submit(batch[i], batch_labels[i], args.k)
                    )
                    break
                except QueryRejected:
                    _time.sleep(0.002)
        return [future.result() for future in futures]

    tracer = None
    if args.trace:
        from repro.observability import Tracer

        tracer = Tracer()  # wall clock: serving is real concurrency

    from contextlib import nullcontext

    def _span(name, **attrs):
        if tracer is None:
            return nullcontext()
        return tracer.span(name, kind="untrusted", **attrs)

    config = EngineConfig(workers=args.workers)
    with ServingEngine(index, config) as engine:
        with _span("serve-queries", queries=args.queries, k=args.k):
            with _span("wave-initial", queries=args.queries):
                results = submit_with_backoff(engine, queries, query_labels)
            # A second wave over a slice of the same traffic: the viral-
            # misprediction pattern the LRU cache absorbs.
            repeats = max(1, args.queries // 4)
            with _span("wave-repeat", queries=repeats):
                submit_with_backoff(engine, queries[:repeats],
                                    query_labels[:repeats])
    print(f"answered {len(results)} queries "
          f"(sample top hit: record {results[0][0].index} "
          f"at L2 {results[0][0].distance:.3f})")
    print(engine.telemetry.render())
    chain_ok = engine.verify_audit_chain()
    print(f"audit trail: {len(engine.audit)} events, chain "
          f"{'VERIFIED' if chain_ok else 'BROKEN'} "
          f"(head {engine.audit.head.hex()[:16]}…)")
    if tracer is not None:
        _write_trace(tracer, args.trace, time_unit="s")
    return 0 if chain_ok else 1


def _parse_serving_injections(specs, queries, dim, growth_records=200):
    """Parse ``KIND@QUERY[:REPLICA]`` CLI fault specs."""
    from repro.resilience.faults import ServingFaultSpec

    parsed = []
    for raw in specs:
        try:
            kind, ordinal, replica = _split_fault_spec(raw)
        except ValueError:
            raise SystemExit(
                f"--inject {raw!r}: expected KIND@QUERY[:REPLICA] with an "
                "int query ordinal")
        if ordinal >= queries:
            raise SystemExit(
                f"--inject {raw!r}: ordinal {ordinal} is past "
                f"--queries {queries}")
        parsed.append(ServingFaultSpec(
            kind=kind, at_query=ordinal, replica=replica or None,
            # growth-storm spreads across labels round-robin (label=None)
            label=None if kind == "growth-storm" else 0, row=0,
            records=growth_records if kind == "growth-storm" else None,
        ))
    return parsed


def _cmd_serve_cluster(args) -> int:
    import tempfile
    import time as _time

    from repro.errors import (DeadlineExceeded, NoHealthyReplica,
                              QueryRejected)
    from repro.resilience.faults import ServingFaultPlan
    from repro.serving import (ClusterConfig, EngineConfig, LinkageStore,
                               ServingCluster, ShardedAnnIndex)

    generator = np.random.default_rng(args.seed + 2)
    if args.path:
        store = LinkageStore.open(args.path)
    else:
        path = tempfile.mkdtemp(prefix="caltrain-cluster-")
        store, _, _ = _synthetic_store(
            path, args.records, args.dim, args.labels, 4096, args.seed
        )
    print(f"cluster over {len(store)} fingerprints "
          f"(dimension {store.dimension}, version {store.version}), "
          f"{args.replicas} replicas")

    specs = _parse_serving_injections(args.inject, args.queries,
                                      store.dimension,
                                      growth_records=args.growth_records)
    plan = ServingFaultPlan(specs)
    if args.seeded_faults:
        seeded = ServingFaultPlan.seeded(
            seed=args.seed, queries=args.queries,
            n_faults=args.seeded_faults)
        plan = ServingFaultPlan(specs + seeded.scheduled())
    if plan.remaining:
        for spec in plan.scheduled():
            target = spec.replica or "first-healthy"
            print(f"  scheduled fault: {spec.kind} before query "
                  f"{spec.at_query} ({target})")

    tracer = None
    if args.trace:
        from repro.observability import Tracer

        tracer = Tracer()

    sample = generator.integers(0, len(store), size=args.queries)
    queries, query_labels = store.fingerprints_at(sample)
    queries += generator.standard_normal(queries.shape).astype(np.float32) * 0.1

    cluster = ServingCluster(
        store, replicas=args.replicas,
        config=ClusterConfig(deadline_s=args.deadline,
                             health_interval_s=0.05,
                             breaker_reset_s=0.25, hedge_min_s=0.03),
        engine_config=EngineConfig(workers=args.workers,
                                   poll_interval=0.005),
        index_factory=lambda s: ShardedAnnIndex(
            s, shard_threshold=1024, seed=args.seed),
        tracer=tracer,
    )
    ok = degraded = hedged = failed_over = failed = 0
    # The plan is entered inside the cluster: leaving it releases any
    # replica the storm still wedges before the cluster shuts down.
    with cluster, plan:
        for qi in range(args.queries):
            fired = plan.before_query(qi, cluster)
            for spec in fired:
                print(f"  !! injected {spec.kind} before query {qi}")
            try:
                result = cluster.query(queries[qi], int(query_labels[qi]),
                                       k=args.k)
            except QueryRejected as exc:
                _time.sleep(exc.retry_after_s or 0.01)
                failed += 1
                continue
            except (DeadlineExceeded, NoHealthyReplica) as exc:
                print(f"  query {qi} failed: {type(exc).__name__}")
                failed += 1
                continue
            ok += 1
            degraded += result.degraded
            hedged += result.hedged
            failed_over += result.failed_over
        # Give background revival a moment, then report the end state.
        _time.sleep(0.4)
        states = cluster.health_check_now()
        print(f"answered {ok}/{args.queries} "
              f"({degraded} degraded, {hedged} hedged, "
              f"{failed_over} failed over, {failed} failed)")
        print("replica states: " + ", ".join(
            f"{name}={state}" for name, state in sorted(states.items())))
        print(cluster.telemetry.render())
        chain_ok = cluster.verify_audit_chain()
        notable = [e.kind for e in cluster.audit.events()]
        print(f"cluster audit: {len(notable)} events, chain "
              f"{'VERIFIED' if chain_ok else 'BROKEN'}")
        # Injected faults are the drill's record, not the victim's: the
        # cluster's chain holds only what the cluster observed.
        if plan.fired:
            print(f"  fault-injected: {len(plan.fired)}")
        for kind in ("replica-evicted", "replica-revived",
                     "replica-refreshed", "degraded-query", "hedged-query",
                     "failover-query"):
            count = notable.count(kind)
            if count:
                print(f"  {kind}: {count}")
        evictions = int(cluster.telemetry.counter("evictions"))
        refreshes = int(cluster.telemetry.counter("replica_refreshes"))
        print(f"growth handling: {refreshes} refreshes, "
              f"{evictions} evictions, store version {store.version}")
    if tracer is not None:
        _write_trace(tracer, args.trace, time_unit="s")
    success_rate = ok / args.queries if args.queries else 1.0
    print(f"availability: {success_rate:.2%}")
    if args.expect_no_evictions and evictions:
        print(f"FAIL: expected zero evictions, saw {evictions}")
        return 1
    return 0 if chain_ok and success_rate >= 0.99 else 1


def _cmd_ingest(args) -> int:
    import dataclasses
    import tempfile

    from repro.data.datasets import synthetic_cifar
    from repro.data.encryption import iter_encrypted_records
    from repro.enclave.platform import SgxPlatform
    from repro.enclave.attestation import AttestationService
    from repro.federation.participant import TrainingParticipant
    from repro.federation.provisioning import provision_key
    from repro.federation.server import TrainingServer
    from repro.ingest import (ContributionLedger, GatewayConfig,
                              IngestGateway, ValidationConfig,
                              ValidationPool, chunk_stream)
    from repro.utils.rng import RngStream

    rng = RngStream(args.seed, name="cli-ingest")
    path = args.path or tempfile.mkdtemp(prefix="caltrain-ledger-")

    platform = SgxPlatform(rng=rng.child("platform"))
    attestation = AttestationService()
    server = TrainingServer(platform, attestation, rng.child("server"))
    server.build_training_enclave("[net]\ninput = 8,8,3\n[softmax]\n[cost]\n")
    enclave = server.enclave
    print(f"training enclave MRENCLAVE: {enclave.mrenclave.hex()[:16]}…")

    contributors = []
    for i in range(args.contributors):
        data, _ = synthetic_cifar(rng.child(f"data-{i}"),
                                  num_train=args.records_per, num_test=1,
                                  num_classes=4, shape=(8, 8, 3))
        participant = TrainingParticipant(f"c{i}", data, rng.child(f"c{i}"))
        provision_key(participant, enclave, attestation,
                      expected_mrenclave=enclave.mrenclave)
        contributors.append(participant)
    print(f"{len(contributors)} contributors provisioned over attested TLS")

    ledger = ContributionLedger.create(path)
    validator = ValidationPool(
        enclave, ValidationConfig(num_classes=4, input_shape=(8, 8, 3)),
        ledger=ledger,
    )
    gateway = IngestGateway(
        ledger, validator, spool_dir=path + ".spool",
        config=GatewayConfig(chunk_records=args.chunk_records),
    )

    def upload(participant, fault=False):
        chunks = list(chunk_stream(
            iter_encrypted_records(participant.dataset, participant.key,
                                   participant.participant_id),
            args.chunk_records,
        ))
        # Tamper a few records in transit: they must land in quarantine.
        for t in range(min(args.tamper, len(chunks[0]))):
            record = chunks[0][t]
            chunks[0][t] = dataclasses.replace(
                record,
                sealed=bytes([record.sealed[0] ^ 0xFF]) + record.sealed[1:],
            )
        session = gateway.open_session(participant.participant_id)
        if fault and len(chunks) > 1:
            crash_after = len(chunks) // 2
            for chunk in chunks[:crash_after]:
                session.send_chunk(chunk)
            print(f"  {participant.participant_id}: CRASH after "
                  f"{crash_after} chunks ({session.acked_records} records "
                  "acked)")
            gateway.evict_session(participant.participant_id)
            session = gateway.resume_session(participant.participant_id)
            print(f"  {participant.participant_id}: resumed at chunk "
                  f"{session.next_seq}")
            for chunk in chunks[crash_after:]:
                session.send_chunk(chunk)
        else:
            for chunk in chunks:
                session.send_chunk(chunk)
        return session.complete()

    def abort_drill(participant) -> bool:
        """Open one more session, send a chunk, abort it: the spool must
        go and the ledger must not move."""
        before = (len(ledger), ledger.manifest_digest())
        session = gateway.open_session(participant.participant_id,
                                       "abort-drill")
        session.send_chunk(next(chunk_stream(
            iter_encrypted_records(participant.dataset, participant.key,
                                   participant.participant_id),
            args.chunk_records,
        )))
        print(f"  {participant.participant_id}: abort drill sent "
              f"{session.acked_records} records, "
              f"{gateway.open_sessions} session(s) open")
        session.abort()
        spool_gone = not session.transfer.path.exists()
        unchanged = (len(ledger), ledger.manifest_digest()) == before
        print(f"  {participant.participant_id}: aborted — spool "
              f"{'removed' if spool_gone else 'LEFT BEHIND'}, ledger "
              f"{'unchanged' if unchanged else 'CHANGED'}, "
              f"{gateway.open_sessions} session(s) open")
        return spool_gone and unchanged and gateway.open_sessions == 0

    for i, participant in enumerate(contributors):
        receipt = upload(participant, fault=args.fault and i == 0)
        print(f"  {participant.participant_id}: committed "
              f"{receipt.committed}, quarantined {receipt.quarantined}")
    drill_ok = abort_drill(contributors[0]) if args.fault else True

    print(gateway.telemetry.render())
    print(f"ledger: {len(ledger)} records in {len(ledger.segments)} "
          f"segments (+{ledger.quarantined_records} quarantined)")
    counters = gateway.telemetry.snapshot()["counters"]
    written = sum(count for name, count in counters.items()
                  if name.startswith("parts_written_"))
    print(f"ledger parts: {counters.get('parts_linked', 0)} linked from the "
          f"spool, {written} written from the hold")
    sealed = ledger.seal_manifest(enclave)
    print(f"manifest sealed to enclave identity: "
          f"{'valid' if ledger.verify_sealed_manifest(enclave, sealed) else 'INVALID'}")
    chain_ok = validator.verify_audit_chain()
    decisions = sum(len(event.details["verdicts"])
                    for event in validator.audit.events("ingest-validate"))
    print(f"ingest audit trail: {len(validator.audit)} events committing "
          f"{decisions} admission decisions, chain "
          f"{'VERIFIED' if chain_ok else 'BROKEN'}")

    staged = server.from_ledger(ledger)
    summary = server.decrypt_submissions()
    print(f"training intake: staged {staged} ledger records, enclave "
          f"accepted {summary.accepted} "
          f"({summary.rejected_tampered} tampered slipped through)")
    return 0 if chain_ok and summary.rejected_tampered == 0 and drill_ok \
        else 1


def _cmd_metrics(args) -> int:
    """Run a small supervised training scenario, export the registry."""
    import json
    import tempfile
    from pathlib import Path

    from repro.core.caltrain import CalTrain, CalTrainConfig
    from repro.data.datasets import synthetic_cifar
    from repro.federation.participant import TrainingParticipant
    from repro.utils.rng import RngStream

    rng = RngStream(args.seed, name="cli-metrics")
    train, test = synthetic_cifar(rng.child("data"),
                                  num_train=args.train_size,
                                  num_test=args.test_size)
    system = CalTrain(CalTrainConfig(
        seed=args.seed, architecture="cifar10-10layer",
        width_scale=args.width_scale, epochs=args.epochs, augment=False,
    ))
    fractions = [1.0 / args.participants] * args.participants
    for i, share in enumerate(train.split(fractions,
                                          rng=rng.child("split").generator)):
        participant = TrainingParticipant(f"p{i}", share, rng.child(f"p{i}"))
        system.register_participant(participant)
        system.submit_data(participant)
    # A supervised run exercises the full metric surface: partition
    # boundary traffic, EPC paging, checkpoint I/O, resilience counters.
    with tempfile.TemporaryDirectory(prefix="caltrain-metrics-") as ckpt:
        system.train(test_x=test.x, test_y=test.y, checkpoint_dir=ckpt)
    if args.format == "json":
        text = json.dumps(system.metrics.snapshot(), indent=1, sort_keys=True)
    else:
        text = system.metrics.render_prometheus()
    if args.output:
        Path(args.output).write_text(text + "\n")
        snapshot = system.metrics.snapshot()
        print(f"metrics written to {args.output} "
              f"({len(snapshot['counters'])} counters, "
              f"{len(snapshot['gauges'])} gauges, "
              f"{len(snapshot['histograms'])} histograms)")
    else:
        print(text)
    return 0


def _governance_system(args):
    """The deployment `govern`/`promote`/`attribute` agree on."""
    from repro.core.caltrain import CalTrain, CalTrainConfig

    return CalTrain(CalTrainConfig(
        seed=args.seed, architecture="cifar10-10layer",
        width_scale=args.width_scale, epochs=args.epochs,
        partition=2, augment=False,
    ))


def _governance_ingest(system, rng, root, contributors, records_per):
    """Upload every contributor through the gateway into a fresh ledger.

    One record of the first contributor is tampered in transit, so the
    quarantine lane is populated and attribution has a refused record to
    steer clear of. Returns the committed ledger.
    """
    import dataclasses

    from repro.data.datasets import synthetic_cifar
    from repro.data.encryption import iter_encrypted_records
    from repro.federation.participant import TrainingParticipant
    from repro.ingest import (ContributionLedger, GatewayConfig,
                              IngestGateway, ValidationConfig,
                              ValidationPool, chunk_stream)

    ledger = ContributionLedger.create(root / "ledger")
    validator = ValidationPool(
        system.training_enclave,
        ValidationConfig(num_classes=10, input_shape=(28, 28, 3)),
        ledger=ledger,
    )
    gateway = IngestGateway(
        ledger, validator, spool_dir=root / "spool",
        config=GatewayConfig(chunk_records=32),
    )
    for i in range(contributors):
        data, _ = synthetic_cifar(rng.child(f"data-{i}"),
                                  num_train=records_per, num_test=1)
        participant = TrainingParticipant(f"c{i}", data, rng.child(f"c{i}"))
        system.register_participant(participant)
        records = list(iter_encrypted_records(
            participant.dataset, participant.key,
            participant.participant_id,
        ))
        if i == 0:
            victim = records[0]
            records[0] = dataclasses.replace(
                victim,
                sealed=bytes([victim.sealed[0] ^ 0xFF]) + victim.sealed[1:],
            )
        session = gateway.open_session(participant.participant_id)
        for chunk in chunk_stream(iter(records), 32):
            session.send_chunk(chunk)
        receipt = session.complete()
        print(f"  {participant.participant_id}: committed "
              f"{receipt.committed}, quarantined {receipt.quarantined}")
    return ledger


def _flip_byte(path, offset) -> None:
    with open(path, "r+b") as handle:
        handle.seek(offset)
        byte = handle.read(1)
        handle.seek(offset)
        handle.write(bytes([byte[0] ^ 0xFF]))


def _governance_tamper(root, target) -> None:
    """The drill: flip ONE byte of one promoted artifact."""
    if target == "ledger":
        victim = sorted(root.glob("ledger/segment-*.bin"))[0]
        offset = victim.stat().st_size // 2
    elif target == "checkpoint":
        newest = sorted(root.glob("checkpoints/ckpt-*"))[-1]
        victim = newest / "state.npz"
        offset = victim.stat().st_size // 2
    elif target == "store":
        # Offset past the .npy header, into the fingerprint matrix.
        victim = sorted(root.glob("store/segment-*.npy"))[0]
        offset = victim.stat().st_size // 2
    else:  # log
        victim = root / "governance" / "events.jsonl"
        offset = 50  # mid first entry: corruption, not a torn tail
    _flip_byte(victim, offset)
    print(f"\nTAMPER DRILL: flipped byte {offset} of "
          f"{victim.relative_to(root)}")


def _flagged_query(store, generator, record_index=None):
    """Synthesize a flagged prediction near a stored fingerprint."""
    index = (record_index if record_index is not None
             else int(generator.integers(0, len(store))))
    record = store.record(index)
    fingerprint = record.fingerprint + generator.standard_normal(
        record.fingerprint.shape
    ).astype(np.float32) * 0.05
    return index, fingerprint, record.label


def _print_attribution(report) -> None:
    print(f"attribution report {report.report_digest[:16]}… "
          f"(governance seq {report.governance_entry['seq']})")
    print(f"  query digest  {report.query_digest[:16]}…  label {report.label}")
    for entry in report.contributors:
        mark = " <== implicated" if entry["contributor"] in report.implicated \
            else ""
        print(f"  {entry['contributor']}: {entry['hits']} of "
              f"{len(report.hits)} evidence hits "
              f"({entry['share']:.0%}){mark}")
    segments = sorted({h["ledger"]["segment"] for h in report.hits})
    print(f"  ledger evidence: {len(report.hits)} hits across "
          f"segments {', '.join(segments)}")
    print(f"  governance events referenced: "
          f"{len(report.governance_events)}")


def _cmd_govern(args) -> int:
    import tempfile
    from pathlib import Path

    from repro.data.datasets import synthetic_cifar
    from repro.errors import GovernanceLogError, PromotionError
    from repro.governance import Attributor, GovernanceLog, PromotionGate
    from repro.serving import (EngineConfig, LinkageStore, ServingEngine,
                               ShardedAnnIndex)
    from repro.utils.rng import RngStream

    root = Path(args.path or tempfile.mkdtemp(prefix="caltrain-governed-"))
    rng = RngStream(args.seed, name="cli-govern")
    system = _governance_system(args)
    print(f"training enclave MRENCLAVE: {system.expected_measurement.hex()}")
    print(f"config digest: {system.config_digest.hex()[:16]}…")

    print(f"\ningest ({args.contributors} contributors via the gateway):")
    ledger = _governance_ingest(system, rng, root, args.contributors,
                                args.train_size)

    log = GovernanceLog.create(root / "governance")
    system.bind_governance(log)
    staged = system.intake_ledger(ledger)
    print(f"governed intake: {staged} committed ledger records staged "
          f"(ledger {ledger.manifest_digest().hex()[:16]}…)")

    _, test = synthetic_cifar(rng.child("test"), num_train=1, num_test=40)
    reports = system.train(test_x=test.x, test_y=test.y,
                           checkpoint_dir=root / "checkpoints")
    print(f"trained {len(reports)} epochs under run key "
          f"{system.run_key[:16]}… (final loss "
          f"{reports[-1].mean_loss:.4f})")

    store = LinkageStore.from_database(root / "store",
                                       system.fingerprint_stage())
    print(f"linkage store: {len(store)} fingerprints "
          f"({store.manifest_digest().hex()[:16]}…)")

    gate = PromotionGate(
        system.training_enclave, log, ledger=ledger,
        checkpoints=system.checkpoint_manager, store=store,
        telemetry=system.governance_telemetry,
    )
    record = gate.promote(system.run_key, config_digest=system.config_digest)
    (root / "promotion.json").write_bytes(record.to_json())
    print(f"PROMOTED: record signed under the enclave identity "
          f"({record.signature[:16]}…)")

    if args.tamper:
        _governance_tamper(root, args.tamper)

    index = ShardedAnnIndex(store, shard_threshold=1024, seed=args.seed)
    engine = ServingEngine(index.build(), EngineConfig(workers=2),
                           promotion=record,
                           promotion_verifier=gate.serving_verifier())
    try:
        if args.tamper == "log":
            # A reopening deployment re-verifies the whole timeline.
            log.close()
            GovernanceLog.open(root / "governance")
        engine.start()
    except (GovernanceLogError, PromotionError) as exc:
        print(f"REFUSED (fail-closed): {type(exc).__name__}: {exc}")
        return 2 if args.tamper else 1
    if args.tamper:
        print("tamper went UNDETECTED — the gate failed open")
        return 1

    try:
        attributor = Attributor(
            engine, store, ledger, log, gate=gate, promotion=record,
            telemetry=system.governance_telemetry,
        )
        flagged, fingerprint, label = _flagged_query(
            store, rng.child("flagged").generator
        )
        print(f"\nflagged prediction near store record {flagged}:")
        _print_attribution(attributor.attribute(fingerprint, label))
    finally:
        engine.stop()

    log.verify()
    print(f"\ngovernance timeline: {len(log)} events, chain VERIFIED "
          f"(head {log.head.hex()[:16]}…)")
    print(system.governance_telemetry.render())
    print(f"artifacts kept at {root}")
    return 0


def _cmd_promote(args) -> int:
    from pathlib import Path

    from repro.errors import (GovernanceLogError, LedgerError,
                              PromotionError, StoreError)
    from repro.governance import GovernanceLog, PromotionGate
    from repro.ingest import ContributionLedger
    from repro.resilience import CheckpointManager
    from repro.serving import LinkageStore

    root = Path(args.path)
    system = _governance_system(args)
    try:
        ledger = ContributionLedger.open(root / "ledger")
        log = GovernanceLog.open(root / "governance")
        store = LinkageStore.open(root / "store")
    except (LedgerError, GovernanceLogError, StoreError) as exc:
        print(f"promotion REFUSED: {type(exc).__name__}: {exc}")
        return 1
    system.intake_ledger(ledger)
    run_key = system.compute_run_key()
    print(f"run key: {run_key}")
    gate = PromotionGate(
        system.training_enclave, log, ledger=ledger,
        checkpoints=CheckpointManager(root / "checkpoints",
                                      config_digest=system.config_digest),
        store=store,
    )
    try:
        record = gate.promote(run_key, config_digest=system.config_digest)
    except PromotionError as exc:
        print(f"promotion REFUSED: {exc}")
        return 1
    (root / "promotion.json").write_bytes(record.to_json())
    print(f"PROMOTED: ledger {record.ledger_digest[:16]}…  store "
          f"{record.store_digest[:16]}…  checkpoint "
          f"{(record.checkpoint_digest or '-')[:16]}…")
    print(f"record written to {root / 'promotion.json'}")
    return 0


def _cmd_attribute(args) -> int:
    from pathlib import Path

    from repro.errors import (AttributionError, GovernanceLogError,
                              LedgerError, PromotionError, StoreError)
    from repro.governance import (Attributor, GovernanceLog, PromotionGate,
                                  PromotionRecord)
    from repro.ingest import ContributionLedger
    from repro.resilience import CheckpointManager
    from repro.serving import (EngineConfig, LinkageStore, ServingEngine,
                               ShardedAnnIndex)

    root = Path(args.path)
    system = _governance_system(args)
    try:
        ledger = ContributionLedger.open(root / "ledger")
        log = GovernanceLog.open(root / "governance")
        store = LinkageStore.open(root / "store")
        record = PromotionRecord.from_json(
            (root / "promotion.json").read_bytes()
        )
    except FileNotFoundError:
        print("attribution REFUSED: no promotion record — this deployment "
              "was never promoted")
        return 1
    except (LedgerError, GovernanceLogError, StoreError,
            PromotionError) as exc:
        print(f"attribution REFUSED: {type(exc).__name__}: {exc}")
        return 1
    gate = PromotionGate(
        system.training_enclave, log, ledger=ledger,
        checkpoints=CheckpointManager(root / "checkpoints",
                                      config_digest=system.config_digest),
        store=store,
    )
    index = ShardedAnnIndex(store, shard_threshold=1024, seed=args.seed)
    engine = ServingEngine(index.build(), EngineConfig(workers=2),
                           promotion=record,
                           promotion_verifier=gate.serving_verifier())
    try:
        engine.start()
    except PromotionError as exc:
        print(f"attribution REFUSED (serving gate): {exc}")
        return 1
    try:
        attributor = Attributor(engine, store, ledger, log, gate=gate,
                                promotion=record)
        flagged, fingerprint, label = _flagged_query(
            store, np.random.default_rng(args.seed + 1), args.record_index
        )
        print(f"flagged prediction near store record {flagged} "
              f"(label {label}):")
        report = attributor.attribute(fingerprint, label, k=args.k)
    except AttributionError as exc:
        print(f"attribution REFUSED: {exc}")
        return 1
    finally:
        engine.stop()
    _print_attribution(report)
    if args.output:
        Path(args.output).write_bytes(report.to_json())
        print(f"report written to {args.output}")
    return 0


def _cmd_ingest_status(args) -> int:
    from repro.errors import LedgerError
    from repro.ingest import ContributionLedger

    try:
        ledger = ContributionLedger.open(args.path)
    except LedgerError as exc:
        print(f"ledger INVALID: {exc}")
        return 1
    status = ledger.status()
    print(f"contribution ledger at {args.path}")
    print(f"  format                   v{status['format']}")
    print(f"  version                  {status['version']}")
    print(f"  committed segments       {status['committed_segments']}")
    print(f"  committed records        {status['committed_records']}")
    print(f"  quarantine segments      {status['quarantine_segments']}")
    print(f"  quarantine records       {status['quarantine_records']}")
    print(f"  contributors             {', '.join(status['contributors']) or '-'}")
    print(f"  manifest digest          {status['manifest_digest']}")
    for info in ledger.segments:
        print(f"  segment {info.name}: {info.records} records from "
              f"{info.contributor}, "
              f"{len(ledger.segment_layout(info.name))} part(s)")
    for info in ledger.quarantined:
        print(f"  quarantine {info.name}: {info.records} records from "
              f"{info.contributor} ({info.reason}), "
              f"{len(ledger.segment_layout(info.name))} part(s)")
    print("segment digests: verified")
    return 0


_COMMANDS = {
    "info": _cmd_info,
    "train": _cmd_train,
    "train-distributed": _cmd_train_distributed,
    "assess": _cmd_assess,
    "forensics": _cmd_forensics,
    "build-index": _cmd_build_index,
    "serve-queries": _cmd_serve_queries,
    "serve-cluster": _cmd_serve_cluster,
    "ingest": _cmd_ingest,
    "ingest-status": _cmd_ingest_status,
    "checkpoints": _cmd_checkpoints,
    "metrics": _cmd_metrics,
    "govern": _cmd_govern,
    "promote": _cmd_promote,
    "attribute": _cmd_attribute,
}


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
