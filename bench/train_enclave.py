"""`train_enclave`: partitioned training in the enclave, isolated.

The paper's dominant cost: decrypt -> FrontNet in enclave -> boundary ->
BackNet -> backward -> optimizer -> checkpoint seal, over pre-submitted
data. Ingest and serving do nothing here.
"""

from types import SimpleNamespace

from repro.core.caltrain import CalTrain, CalTrainConfig
from repro.data.encryption import EncryptedDataset

from bench import inputs, layers, oracles
from bench.sizes import SIZES, SYSTEM_SEED

SIZE = SIZES["train_enclave"]


class TrainEnclave:
    name = "train_enclave"
    items = SIZE["contributors"] * SIZE["records_per_contributor"]
    item_unit = "samples"

    def __init__(self, seed):
        self.rng = inputs.stream(seed, self.name)
        self.cohort = {}
        for i in range(SIZE["contributors"]):
            name = f"c{i}"
            data = inputs.image_dataset(self.rng, name,
                                        SIZE["records_per_contributor"])
            self.cohort[name] = (data,
                                 inputs.sealed_records(self.rng, name, data))
        self.first_loss = None

    def build(self, root):
        system = CalTrain(CalTrainConfig(
            seed=SYSTEM_SEED, architecture=SIZE["architecture"],
            width_scale=SIZE["width_scale"], epochs=SIZE["epochs"],
            batch_size=SIZE["batch_size"], partition=SIZE["partition"],
            augment=False, backend=SIZE["backend"],
        ))
        for name, (data, records) in self.cohort.items():
            system.register_participant(
                inputs.participant(self.rng, name, data))
            system.server.submit(
                EncryptedDataset(source_id=name, records=records))
        return SimpleNamespace(root=root, system=system, reports=None)

    def run(self, world):
        with layers.client():
            world.reports = world.system.train(
                checkpoint_dir=world.root / "checkpoints")
        return []  # the pass is the one op: no per-op latency of its own

    def check(self, world):
        loss = world.reports[-1].mean_loss
        if self.first_loss is None:
            self.first_loss = loss
        return oracles.check_train_enclave(world, loss, self.first_loss)

    def counts(self, world):
        return {
            "core.partition.boundary_bytes":
                layers.boundary_bytes(world.system),
            "resilience.checkpoint.bytes":
                layers.tree_bytes(world.root / "checkpoints"),
        }

    def close(self, world):
        pass
