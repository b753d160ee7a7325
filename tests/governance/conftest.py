"""Fixtures for the governance control-plane suite.

A small but complete accountability world: a two-contributor committed
ledger with a quarantine lane, the two contributors holding the
instances behind it, a linkage store whose records resolve into that
ledger and commit each instance's digest H (plus one record that
deliberately resolves into the *quarantine* lane — the divergence the
attribution walk must refuse), a governance log, and a promotion gate
anchored to a real enclave.
"""

import numpy as np
import pytest

from repro.core.linkage import instance_digest
from repro.data.datasets import Dataset
from repro.data.encryption import EncryptedRecord
from repro.enclave.platform import SgxPlatform
from repro.federation.participant import TrainingParticipant
from repro.governance import GovernanceLog, PromotionGate, compute_run_key
from repro.ingest import ContributionLedger
from repro.serving import LinkageStore
from repro.utils.rng import RngStream
from repro.utils.serialization import canonical_digest

DIM = 8
NUM_LABELS = 4
#: Quarantined fingerprints live far from every committed cluster, so
#: only a query aimed straight at them ever hits them.
QUARANTINE_OFFSET = 50.0


def make_records(generator, count, source, start=0):
    sealed = generator.integers(0, 256, size=(count, 64), dtype=np.uint8)
    nonces = generator.integers(0, 256, size=(count, 12), dtype=np.uint8)
    return [
        EncryptedRecord(source_id=source, index=start + i,
                        label=int((start + i) % NUM_LABELS),
                        nonce=nonces[i].tobytes(),
                        sealed=sealed[i].tobytes())
        for i in range(count)
    ]


@pytest.fixture
def rng():
    return RngStream(13, name="governance-tests")


@pytest.fixture
def enclave(rng):
    platform = SgxPlatform(rng=rng.child("platform"))
    enclave = platform.create_enclave("governance")
    enclave.init()
    return enclave


@pytest.fixture
def ledger(tmp_path, rng):
    ledger = ContributionLedger.create(tmp_path / "ledger")
    generator = rng.child("ledger").generator
    ledger.append(make_records(generator, 12, "c0"), contributor="c0")
    ledger.append(make_records(generator, 12, "c1"), contributor="c1")
    ledger.quarantine(make_records(generator, 2, "evil"),
                      contributor="evil", reason="tampered")
    return ledger


@pytest.fixture
def participants(rng):
    """c0 and c1, each holding the 12 instances its ledger records seal."""
    generator = rng.child("instances").generator
    return {
        name: TrainingParticipant(
            name,
            Dataset(generator.random((12, 2, 2, 1)),
                    np.arange(12) % NUM_LABELS),
            rng.child(name),
        )
        for name in ("c0", "c1")
    }


@pytest.fixture
def store(tmp_path, rng, ledger, participants):
    store = LinkageStore.create(tmp_path / "store")
    generator = rng.child("store").generator
    committed = list(ledger.iter_records())
    fingerprints = generator.standard_normal(
        (len(committed), DIM)
    ).astype(np.float32)
    store.append(
        fingerprints,
        [r.label for r in committed],
        [r.source_id for r in committed],
        [instance_digest(participants[r.source_id].dataset.x[r.index])
         for r in committed],
        source_indices=[r.index for r in committed],
    )
    poisoned = next(ledger.iter_records(lane="quarantine"))
    store.append(
        np.full((1, DIM), QUARANTINE_OFFSET, dtype=np.float32),
        [poisoned.label], [poisoned.source_id], [b"q" * 32],
        source_indices=[poisoned.index],
    )
    return store


@pytest.fixture
def log(tmp_path):
    return GovernanceLog.create(tmp_path / "governance")


@pytest.fixture
def gate(enclave, log, ledger, store):
    return PromotionGate(enclave, log, ledger=ledger, store=store)


@pytest.fixture
def run_key(ledger):
    return compute_run_key(canonical_digest({"agreement": "tests"}),
                           ledger.data_digest())
