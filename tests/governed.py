"""The governed accountability pipeline, for end-to-end tests.

Shaped like the ``lifecycle`` benchmark: every registered participant's
sealed records enter a committed contribution ledger, training runs under
a governance log with checkpoints, the fingerprint table becomes the
promoted linkage store, and a promoted serving engine answers through the
one :class:`~repro.governance.Attributor` — which tests then ask to
``attribute`` a flagged input and ``disclose`` the hits.
"""

from contextlib import contextmanager
from types import SimpleNamespace

from repro.data.encryption import iter_encrypted_records
from repro.governance import Attributor, GovernanceLog, PromotionGate
from repro.ingest import ContributionLedger
from repro.serving import (EngineConfig, LinkageStore, ServingEngine,
                           ShardedAnnIndex)


@contextmanager
def governed_pipeline(system, root, kinds_by_source=None, **train_kwargs):
    """Yields ``(attributor, store, log, reports)`` as a namespace."""
    ledger = ContributionLedger.create(root / "ledger")
    for pid, participant in system.participants.items():
        ledger.append(list(iter_encrypted_records(
            participant.dataset, participant.key, pid)), contributor=pid)
    log = GovernanceLog.create(root / "governance")
    system.bind_governance(log)
    system.intake_ledger(ledger)
    reports = system.train(checkpoint_dir=root / "checkpoints",
                           **train_kwargs)
    store = LinkageStore.from_database(
        root / "store", system.fingerprint_stage(kinds_by_source))
    gate = PromotionGate(system.training_enclave, log, ledger=ledger,
                         checkpoints=system.checkpoint_manager, store=store,
                         telemetry=system.governance_telemetry)
    record = gate.promote(system.run_key, config_digest=system.config_digest)
    index = ShardedAnnIndex(store, shard_threshold=1024, seed=1).build()
    try:
        with ServingEngine(index, EngineConfig(workers=2), promotion=record,
                           promotion_verifier=gate.serving_verifier()
                           ) as engine:
            attributor = Attributor(engine, store, ledger, log, gate=gate,
                                    promotion=record,
                                    telemetry=system.governance_telemetry)
            yield SimpleNamespace(attributor=attributor, store=store,
                                  log=log, reports=reports)
    finally:
        log.close()
