"""Collaborative-learning substrate.

The centralized CalTrain paradigm (participants, secret provisioning into
the training enclave, the training server), the pairwise-masking secure
aggregation the multi-enclave path (:mod:`repro.distributed`) runs, and the
*distributed* collaborative-learning baselines the paper contrasts with:
Federated Averaging (McMahan et al.) and distributed selective SGD (Shokri &
Shmatikov). The paper's multi-enclave scaling (Section IV-B) is
``CalTrain.train(workers=N)``.
"""

from repro.federation.dssgd import DistributedSelectiveSgd
from repro.federation.fedavg import FedAvgTrainer
from repro.federation.participant import TrainingParticipant
from repro.federation.provisioning import install_provisioning_ecalls, provision_key
from repro.federation.secure_agg import (
    SecureAggregationClient,
    aggregate_with_dropouts,
    recover_dropout,
)
from repro.federation.server import DecryptionSummary, TrainingServer

__all__ = [
    "TrainingParticipant",
    "install_provisioning_ecalls",
    "provision_key",
    "TrainingServer",
    "DecryptionSummary",
    "FedAvgTrainer",
    "DistributedSelectiveSgd",
    "SecureAggregationClient",
    "aggregate_with_dropouts",
    "recover_dropout",
]
