"""repro.resilience — fault-tolerant partitioned training.

Sealed checkpoint/resume (:mod:`repro.resilience.checkpoint`) and the
supervised retry runtime (:mod:`repro.resilience.supervisor`).

:mod:`repro.resilience.faults` — deterministic fault injection for the
training, distributed and serving planes, applied from outside the
victim — is deliberately not re-exported here: nothing in this package
(or any other production package) imports it; drills import it by its
full name.
"""

from repro.resilience.checkpoint import (CheckpointInfo, CheckpointManager,
                                         TrainingState, capture_state,
                                         restore_state)
from repro.resilience.supervisor import (ResilientTrainer, RetryPolicy,
                                         classify_fault)

__all__ = [
    "CheckpointInfo",
    "CheckpointManager",
    "TrainingState",
    "capture_state",
    "restore_state",
    "ResilientTrainer",
    "RetryPolicy",
    "classify_fault",
]
