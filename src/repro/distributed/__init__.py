"""repro.distributed — multi-enclave data-parallel CalTrain training.

An untrusted :class:`DistributedCoordinator` shards committed encrypted
submissions across N :class:`EnclaveWorker` replicas (one SGX platform +
training enclave each) and drives per-round local epochs; FrontNet
updates flow — pairwise-masked, shard-size-scaled, over attested TLS
channels — into an :class:`AggregatorEnclave` that is the only place an
individual update ever exists in the clear. Stragglers and crashed or
corrupting workers drop to partial aggregation (their masks rebuilt from
escrowed Shamir shares, or the round fails closed); crashed workers
resume bitwise-consistently from sealed checkpoints; repeat offenders
are blacklisted and their shard re-distributed.
"""

from repro.distributed.aggregator import AggregatorEnclave
from repro.distributed.channels import (decode_vector, encode_vector,
                                        open_attested_channel)
from repro.distributed.coordinator import (DistributedCoordinator,
                                           RoundReport)
from repro.distributed.worker import EnclaveWorker

__all__ = [
    "AggregatorEnclave",
    "DistributedCoordinator",
    "EnclaveWorker",
    "RoundReport",
    "decode_vector",
    "encode_vector",
    "open_attested_channel",
]
