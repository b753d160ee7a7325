"""CalTrain: confidential and accountable collaborative learning.

A full reproduction of *"Reaching Data Confidentiality and Model
Accountability on the CalTrain"* (Gu et al., DSN 2019): TEE-protected
centralized collaborative training with FrontNet/BackNet partitioning,
per-epoch information-exposure assessment, and fingerprint-based model
accountability.

See ``examples/quickstart.py`` for a complete runnable walkthrough.
"""

__version__ = "1.0.0"

from repro.core import (
    CalTrain,
    CalTrainConfig,
    ExposureAssessor,
    Fingerprinter,
    LinkageRecord,
    LinkageTable,
    PartitionedNetwork,
)

__all__ = [
    "__version__",
    "CalTrain",
    "CalTrainConfig",
    "PartitionedNetwork",
    "ExposureAssessor",
    "Fingerprinter",
    "LinkageRecord",
    "LinkageTable",
]
