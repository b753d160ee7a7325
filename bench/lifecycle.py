"""`lifecycle`: records uploaded -> model promoted -> first verified answer.

The only workload in which every plane does work, so a cross-plane
refactor cannot hide a regression in any of them.
"""

from types import SimpleNamespace

from repro.core.caltrain import CalTrain, CalTrainConfig
from repro.governance import Attributor, GovernanceLog, PromotionGate
from repro.ingest import (ContributionLedger, GatewayConfig, IngestGateway,
                          ValidationConfig, ValidationPool, chunk_stream)
from repro.serving import (EngineConfig, LinkageStore, ServingEngine,
                           ShardedAnnIndex)

from bench import inputs, layers, oracles
from bench.sizes import IMAGE_SHAPE, NUM_CLASSES, SIZES, SYSTEM_SEED

SIZE = SIZES["lifecycle"]


class Lifecycle:
    name = "lifecycle"
    items = SIZE["contributors"] * SIZE["records_per_contributor"]
    item_unit = "records"

    def __init__(self, seed):
        self.rng = inputs.stream(seed, self.name)
        self.datasets = {}
        self.records = {}
        for i in range(SIZE["contributors"]):
            name = f"c{i}"
            data = inputs.image_dataset(self.rng, name,
                                        SIZE["records_per_contributor"])
            self.datasets[name] = data
            self.records[name] = inputs.sealed_records(self.rng, name, data)
        # The model user's flagged input: an unseen image of the same task.
        self.flagged = inputs.image_dataset(self.rng, "flagged", 1).x

    def build(self, root):
        """Everything the system does before it can take the first upload."""
        system = CalTrain(CalTrainConfig(
            seed=SYSTEM_SEED, architecture=SIZE["architecture"],
            width_scale=SIZE["width_scale"], epochs=SIZE["epochs"],
            batch_size=SIZE["batch_size"], partition=SIZE["partition"],
            augment=False, backend=SIZE["backend"],
        ))
        ledger = ContributionLedger.create(root / "ledger")
        validator = ValidationPool(
            system.training_enclave,
            ValidationConfig(num_classes=NUM_CLASSES, input_shape=IMAGE_SHAPE),
            ledger=ledger,
        )
        gateway = IngestGateway(
            ledger, validator, spool_dir=root / "spool",
            config=GatewayConfig(chunk_records=SIZE["chunk_records"]),
        )
        for name, data in self.datasets.items():
            system.register_participant(
                inputs.participant(self.rng, name, data))
        log = GovernanceLog.create(root / "governance")
        return SimpleNamespace(root=root, system=system, ledger=ledger,
                               validator=validator, gateway=gateway, log=log,
                               engine=None)

    def run(self, world):
        with layers.client():
            return self._run(world)

    def _run(self, world):
        system, ledger, log = world.system, world.ledger, world.log
        world.receipts = []
        for name, records in self.records.items():
            session = world.gateway.open_session(name)
            for chunk in chunk_stream(iter(records), SIZE["chunk_records"]):
                session.send_chunk(chunk)
            world.receipts.append(session.complete())

        system.bind_governance(log)
        system.intake_ledger(ledger)
        world.reports = system.train(checkpoint_dir=world.root / "checkpoints")
        store = LinkageStore.from_database(world.root / "store",
                                           system.fingerprint_stage())
        gate = PromotionGate(
            system.training_enclave, log, ledger=ledger,
            checkpoints=system.checkpoint_manager, store=store,
            telemetry=system.governance_telemetry,
        )
        record = gate.promote(system.run_key,
                              config_digest=system.config_digest)
        index = ShardedAnnIndex(
            store, shard_threshold=SIZE["shard_threshold"]).build()
        world.engine = ServingEngine(
            index, EngineConfig(workers=SIZE["engine_workers"]),
            promotion=record, promotion_verifier=gate.serving_verifier(),
        ).start()
        attributor = Attributor(world.engine, store, ledger, log, gate=gate,
                                promotion=record,
                                telemetry=system.governance_telemetry)
        labels, _, fingerprints = system.fingerprinter.predict_with_fingerprint(
            self.flagged)
        world.store, world.gate, world.record = store, gate, record
        world.queries = list(zip(fingerprints, (int(l) for l in labels)))
        world.answers = [attributor.attribute(fingerprint, label, k=SIZE["k"])
                         for fingerprint, label in world.queries]
        return []  # the pass is the one op: no per-op latency of its own

    def check(self, world):
        return oracles.check_lifecycle(world, self.items, set(self.records),
                                       SIZE["k"])

    def counts(self, world):
        return {
            "ingest.records.committed": len(world.ledger),
            "ingest.records.quarantined": world.ledger.quarantined_records,
            "core.partition.boundary_bytes":
                layers.boundary_bytes(world.system),
            "resilience.checkpoint.bytes":
                layers.tree_bytes(world.root / "checkpoints"),
            "serving.store.segments": world.store.segment_count,
            "serving.index.segments": world.engine.index.stats()["segments"],
            "serving.index.full_builds": world.engine.index.full_builds,
        }

    def close(self, world):
        if world.engine is not None:
            world.engine.stop()
        world.log.close()
