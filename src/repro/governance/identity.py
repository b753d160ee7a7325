"""Deterministic semantic run identity.

A training run is *the same run* when it would, bit for bit, produce the
same model: same agreed configuration (architecture + hyperparameters),
same committed training data, same code. The ``run_key`` digests exactly
those three inputs through the one shared
:func:`~repro.utils.serialization.canonical_digest`, so two deployments
computing it independently agree — which is what makes it usable for
training-run dedup (skip a run whose key already completed), checkpoint
binding (a checkpoint names the run that wrote it), and promotion (a
serving replica proves which run it answers for).
"""

from __future__ import annotations

from typing import Iterable, Optional

import repro
from repro.utils.serialization import canonical_digest

__all__ = ["code_version", "compute_run_key", "submissions_digest"]


def code_version() -> str:
    """The code input to the run key — the library release identity."""
    return repro.__version__


def submissions_digest(submissions: Iterable) -> bytes:
    """Data digest for the in-memory submission path (no ledger).

    :func:`~repro.ingest.ledger.data_identity` over the submitted records'
    content digests, the same definition as
    :meth:`~repro.ingest.ledger.ContributionLedger.data_digest` with an
    empty quarantine lane: order-independent across sources, sensitive to
    every sealed byte.
    """
    from repro.ingest.ledger import data_identity, record_digest

    return data_identity(record_digest(record).hex()
                         for dataset in submissions
                         for record in dataset.records)


def compute_run_key(config_digest: bytes, data_digest: bytes,
                    version: Optional[str] = None) -> str:
    """``digest(canonical config ⊕ data digest ⊕ code version)``.

    Hex-encoded so it can travel through JSON manifests, CLI output, and
    audit events unchanged. Any single differing input — one
    hyperparameter, one training record, one release — yields a
    different key.
    """
    return canonical_digest({
        "config": config_digest.hex(),
        "data": data_digest.hex(),
        "code": version if version is not None else code_version(),
    }).hex()
