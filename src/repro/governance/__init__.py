"""The accountability control plane.

Ties the ingest, training, and serving planes together with verifiable
lineage: deterministic semantic run identity
(:mod:`~repro.governance.identity`), a durable hash-chained governance
event log (:mod:`~repro.governance.log`), a fail-closed promotion gate
(:mod:`~repro.governance.gate`), and contributor attribution reports
(:mod:`~repro.governance.attribution`).
"""

from repro.governance.attribution import AttributionReport, Attributor
from repro.governance.gate import PromotionGate, PromotionRecord
from repro.governance.identity import (code_version, compute_run_key,
                                       submissions_digest)
from repro.governance.log import GovernanceLog

__all__ = [
    "AttributionReport",
    "Attributor",
    "GovernanceLog",
    "PromotionGate",
    "PromotionRecord",
    "code_version",
    "compute_run_key",
    "submissions_digest",
]
