"""The paper's primary contribution: confidential + accountable training."""

from repro.core.audit import AuditEvent, AuditLog
from repro.core.assessment import AssessmentResult, ExposureAssessor, LayerExposure
from repro.core.chain import HashChain
from repro.core.caltrain import CalTrain, CalTrainConfig
from repro.core.fingerprint import Fingerprinter, normalize_fingerprints
from repro.core.freezing import FreezeSchedule
from repro.core.linkage import LinkageRecord, LinkageTable, instance_digest
from repro.core.partition import PartitionedNetwork
from repro.core.partitioned_training import ConfidentialTrainer, EpochReport
from repro.core.query import exact_top_k

__all__ = [
    "CalTrain",
    "CalTrainConfig",
    "PartitionedNetwork",
    "ConfidentialTrainer",
    "EpochReport",
    "ExposureAssessor",
    "AssessmentResult",
    "LayerExposure",
    "Fingerprinter",
    "normalize_fingerprints",
    "FreezeSchedule",
    "LinkageRecord",
    "LinkageTable",
    "instance_digest",
    "exact_top_k",
    "AuditLog",
    "AuditEvent",
    "HashChain",
]
