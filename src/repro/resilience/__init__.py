"""repro.resilience — fault-tolerant partitioned training.

Sealed checkpoint/resume (:mod:`repro.resilience.checkpoint`),
deterministic fault injection for training and — from outside the victim —
for the serving cluster (:mod:`repro.resilience.faults`),
the supervised retry runtime (:mod:`repro.resilience.supervisor`), and
run telemetry (:mod:`repro.resilience.telemetry`).
"""

from repro.resilience.checkpoint import (CheckpointInfo, CheckpointManager,
                                         TrainingState, capture_state,
                                         restore_state)
from repro.resilience.faults import (FAULT_KINDS, SERVING_FAULT_APPLIERS,
                                     SERVING_FAULT_KINDS, FaultPlan,
                                     FaultSpec, ServingFaultPlan,
                                     ServingFaultSpec)
from repro.resilience.supervisor import (ResilientTrainer, RetryPolicy,
                                         classify_fault)
from repro.resilience.telemetry import RunTelemetry

__all__ = [
    "CheckpointInfo",
    "CheckpointManager",
    "TrainingState",
    "capture_state",
    "restore_state",
    "FAULT_KINDS",
    "FaultPlan",
    "FaultSpec",
    "SERVING_FAULT_KINDS",
    "SERVING_FAULT_APPLIERS",
    "ServingFaultPlan",
    "ServingFaultSpec",
    "ResilientTrainer",
    "RetryPolicy",
    "classify_fault",
    "RunTelemetry",
]
