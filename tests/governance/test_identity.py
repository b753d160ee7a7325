"""Semantic run identity: deterministic across processes, sensitive to
every input (config, data, code)."""

import numpy as np

import repro
from repro.data.encryption import EncryptedDataset
from repro.governance import (code_version, compute_run_key,
                              submissions_digest)
from repro.utils.serialization import canonical_digest

from tests.governance.conftest import make_records

CONFIG = canonical_digest({"architecture": "tiny", "epochs": 2})
DATA = canonical_digest({"ledger": "fixed"})


class TestRunKey:
    def test_deterministic(self):
        first = compute_run_key(CONFIG, DATA, version="1.0")
        second = compute_run_key(bytes(CONFIG), bytes(DATA), version="1.0")
        assert first == second

    def test_pinned(self):
        # Regression pin: the exact key for fixed inputs. If this moves,
        # every recorded run key, checkpoint binding, and promotion
        # record in existing deployments silently stops matching.
        assert compute_run_key(CONFIG, DATA, version="1.0") == (
            "0bd9ba92378f3ce67a8e2e1991aa48f9"
            "49c63b8a27e30e7b52ab5c2790ff7d48"
        )

    def test_sensitive_to_every_input(self):
        base = compute_run_key(CONFIG, DATA, version="1.0")
        varied = {
            compute_run_key(canonical_digest({"architecture": "tiny",
                                              "epochs": 3}),
                            DATA, version="1.0"),
            compute_run_key(CONFIG, canonical_digest({"ledger": "other"}),
                            version="1.0"),
            compute_run_key(CONFIG, DATA, version="1.1"),
        }
        assert base not in varied
        assert len(varied) == 3

    def test_default_version_is_the_library_release(self):
        assert compute_run_key(CONFIG, DATA) == compute_run_key(
            CONFIG, DATA, version=repro.__version__
        )
        assert code_version() == repro.__version__

    def test_travels_as_hex(self):
        key = compute_run_key(CONFIG, DATA)
        assert len(key) == 64
        int(key, 16)  # parses as hex


class TestSubmissionsDigest:
    def _datasets(self, seed=5):
        generator = np.random.default_rng(seed)
        return [
            EncryptedDataset(source_id="c0",
                             records=make_records(generator, 4, "c0")),
            EncryptedDataset(source_id="c1",
                             records=make_records(generator, 4, "c1")),
        ]

    def test_order_independent(self):
        datasets = self._datasets()
        assert submissions_digest(datasets) == \
            submissions_digest(list(reversed(datasets)))

    def test_sensitive_to_any_sealed_byte(self):
        import dataclasses

        datasets = self._datasets()
        baseline = submissions_digest(datasets)
        victim = datasets[0].records[0]
        datasets[0].records[0] = dataclasses.replace(
            victim,
            sealed=bytes([victim.sealed[0] ^ 0x01]) + victim.sealed[1:],
        )
        assert submissions_digest(datasets) != baseline

    def test_is_the_ledger_data_digest_without_quarantine(self, tmp_path):
        """One definition: a ledger holding the submitted records, in any
        segmentation, has the submissions' digest until it quarantines
        something."""
        from repro.ingest import ContributionLedger

        datasets = self._datasets()
        ledger = ContributionLedger.create(tmp_path / "ledger")
        ledger.append(datasets[1].records, "c1")
        ledger.append(datasets[0].records[:1], "c0")
        ledger.append(datasets[0].records[1:], "c0")
        assert ledger.data_digest() == submissions_digest(datasets)
        ledger.quarantine(datasets[0].records[:1], "c0", "duplicate")
        assert ledger.data_digest() != submissions_digest(datasets)
