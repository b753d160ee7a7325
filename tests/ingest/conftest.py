"""Shared fixtures for the ingest-plane tests.

One attested world per test: a training server with its enclave, two
provisioned contributors (and one who never provisioned), a fresh
contribution ledger, validation pool, and gateway over a tmp spool.
"""

import json

import numpy as np
import pytest

from repro.data.datasets import Dataset
from repro.federation.participant import TrainingParticipant
from repro.federation.provisioning import provision_key
from repro.federation.server import TrainingServer
from repro.ingest import (ContributionLedger, GatewayConfig, IngestGateway,
                          ValidationConfig, ValidationPool)
from repro.ingest.ledger import (header_digest, iter_packed, record_header,
                                 unpack_headed)
from repro.ingest.transfer import chunk_digest

SHAPE = (4, 4, 3)
CLASSES = 3


def flip_chunk_byte(spool, seq, offset=8):
    """Flip one byte of chunk ``seq`` on disk, leaving its journal line as
    it was: corruption of the spool after the chunk was acknowledged."""
    chunk = spool / f"chunk-{seq:06d}.bin"
    blob = bytearray(chunk.read_bytes())
    blob[offset] ^= 0xFF
    chunk.write_bytes(bytes(blob))


def rewrite_chunk_headers(spool, seq):
    """Re-encode every header of chunk ``seq`` with the same fields in
    non-canonical JSON (spaced), and re-point its journal line at the new
    bytes, as a writer with the spool's disk could."""
    chunk = spool / f"chunk-{seq:06d}.bin"
    records = unpack_headed(chunk.read_bytes())[0]
    headers = [json.dumps(json.loads(record_header(r))).encode()
               for r in records]
    assert headers != [record_header(r) for r in records]
    blob = b"".join(iter_packed(records, headers))
    chunk.write_bytes(blob)
    journal = spool / "journal.jsonl"
    lines = journal.read_text().splitlines()
    entry = json.loads(lines[seq])
    entry["digest"] = chunk_digest(
        [header_digest(h, r.sealed) for h, r in zip(headers, records)]).hex()
    lines[seq] = json.dumps(entry)
    journal.write_text("\n".join(lines) + "\n")


def make_participant(rng, name, n=12):
    gen = rng.child(f"data-{name}").generator
    dataset = Dataset(
        x=gen.random((n,) + SHAPE).astype(np.float32),
        y=gen.integers(0, CLASSES, size=n),
    )
    return TrainingParticipant(name, dataset, rng.child(name))


@pytest.fixture
def server(platform, attestation_service, rng):
    server = TrainingServer(platform, attestation_service, rng.child("server"))
    server.build_training_enclave("[net]\ninput = 4,4,3\n[softmax]\n[cost]\n")
    return server


@pytest.fixture
def contributors(server, attestation_service, rng):
    out = []
    for name in ("c0", "c1"):
        participant = make_participant(rng, name)
        provision_key(participant, server.enclave, attestation_service,
                      expected_mrenclave=server.enclave.mrenclave)
        out.append(participant)
    return out


@pytest.fixture
def stranger(rng):
    """A contributor who never ran the provisioning handshake."""
    return make_participant(rng, "stranger")


@pytest.fixture
def ledger(tmp_path):
    return ContributionLedger.create(tmp_path / "ledger")


@pytest.fixture
def validator(server, ledger):
    return ValidationPool(
        server.enclave,
        ValidationConfig(num_classes=CLASSES, input_shape=SHAPE, workers=2,
                         batch_records=4),
        ledger=ledger,
    )


@pytest.fixture
def gateway(ledger, validator, tmp_path):
    return IngestGateway(
        ledger, validator, spool_dir=tmp_path / "spool",
        config=GatewayConfig(chunk_records=4, max_open_sessions=4,
                             max_records_per_contributor=64,
                             max_bytes_per_contributor=1 << 20,
                             rate_capacity=1000.0, rate_refill_per_s=1000.0),
    )
