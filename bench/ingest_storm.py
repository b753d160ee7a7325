"""`ingest_storm`: concurrent hostile-laced uploads through the ingest plane.

The ingest plane does all the work, training and serving none: the bypass
workload for every training or serving change.
"""

import threading
import time
from types import SimpleNamespace

from repro.enclave.attestation import AttestationService
from repro.enclave.platform import SgxPlatform
from repro.federation import provisioning
from repro.federation.server import TrainingServer
from repro.ingest import (ContributionLedger, GatewayConfig, IngestGateway,
                          ValidationConfig, ValidationPool, chunk_stream)
from repro.utils.rng import RngStream

from bench import inputs, layers, oracles
from bench.sizes import IMAGE_SHAPE, NUM_CLASSES, SIZES, SYSTEM_SEED

SIZE = SIZES["ingest_storm"]
_NETWORK_CONFIG = "[net]\ninput = 28,28,3\n[softmax]\n[cost]\n"
_HOSTILE_KINDS = ("tampered", "relabelled", "replayed")


class IngestStorm:
    name = "ingest_storm"
    items = SIZE["contributors"] * SIZE["records_per_contributor"]
    item_unit = "records"

    def __init__(self, seed):
        self.rng = inputs.stream(seed, self.name)
        self.datasets = {}
        self.earlier = {}    # committed before the storm; the replay source
        self.uploads = {}    # contributor -> records sent, hostile included
        self.hostile = []    # (kind, record) over all contributors
        for i in range(SIZE["contributors"]):
            name = f"c{i}"
            data = inputs.image_dataset(
                self.rng, name,
                SIZE["seed_records"] + SIZE["records_per_contributor"])
            sealed = inputs.sealed_records(self.rng, name, data)
            earlier = sealed[:SIZE["seed_records"]]
            upload = list(sealed[SIZE["seed_records"]:])
            for j, position in enumerate(range(SIZE["hostile_every"] - 1,
                                               len(upload),
                                               SIZE["hostile_every"])):
                kind = _HOSTILE_KINDS[j % len(_HOSTILE_KINDS)]
                if kind == "tampered":
                    bad = inputs.tampered(upload[position])
                elif kind == "relabelled":
                    bad = inputs.relabelled(upload[position])
                else:  # an already-committed ciphertext sent again
                    bad = earlier[j % len(earlier)]
                upload[position] = bad
                self.hostile.append((kind, bad))
            self.datasets[name] = data
            self.earlier[name] = earlier
            self.uploads[name] = upload

    def build(self, root):
        rng = RngStream(SYSTEM_SEED, name="ingest-storm")
        platform = SgxPlatform(rng=rng.child("platform"))
        attestation = AttestationService()
        server = TrainingServer(platform, attestation, rng.child("server"))
        enclave = server.build_training_enclave(_NETWORK_CONFIG)
        ledger = ContributionLedger.create(root / "ledger")
        validator = ValidationPool(
            enclave,
            ValidationConfig(num_classes=NUM_CLASSES, input_shape=IMAGE_SHAPE,
                             workers=SIZE["validator_workers"],
                             batch_records=SIZE["validator_batch_records"]),
            ledger=ledger,
        )
        gateway = IngestGateway(
            ledger, validator, spool_dir=root / "spool",
            config=GatewayConfig(chunk_records=SIZE["chunk_records"],
                                 max_open_sessions=SIZE["contributors"]),
        )
        for name, data in self.datasets.items():
            # Through the module, so the traced run's wrapper is the one called.
            provisioning.provision_key(
                inputs.participant(self.rng, name, data), enclave,
                attestation, expected_mrenclave=enclave.mrenclave)
            session = gateway.open_session(name, session_id="earlier")
            session.send_chunk(self.earlier[name])
            session.complete()
        return SimpleNamespace(ledger=ledger, validator=validator,
                               gateway=gateway, receipts=[], errors=[])

    def _upload(self, world, name, latencies):
        try:
            with layers.client():
                session = world.gateway.open_session(name)
                for chunk in chunk_stream(iter(self.uploads[name]),
                                          SIZE["chunk_records"]):
                    started = time.perf_counter()
                    session.send_chunk(chunk)
                    latencies.append(time.perf_counter() - started)
                world.receipts.append(session.complete())
        except Exception as exc:  # noqa: BLE001 - reported as failed ops
            world.errors.append(f"{name}: {type(exc).__name__}: {exc}")

    def run(self, world):
        per_lane = {name: [] for name in self.uploads}
        threads = [
            threading.Thread(target=self._upload, name=f"upload-{name}",
                             args=(world, name, per_lane[name]))
            for name in self.uploads
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        return [latency for name in sorted(per_lane)
                for latency in per_lane[name]]

    def check(self, world):
        return oracles.check_ingest_storm(world, self.items, self.hostile)

    def counts(self, world):
        return {
            "ingest.records.committed": len(world.ledger),
            "ingest.records.quarantined": world.ledger.quarantined_records,
        }

    def close(self, world):
        pass
