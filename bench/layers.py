"""Per-layer spans and exact counts, taken from outside the program.

The traced run installs timing wrappers around the public calls listed in
`TARGETS`; nothing under `src/` knows it is being traced. Wall clock only:
the program's own `Tracer` runs on the simulated platform clock and is not
used. Spans stay in memory until the run ends.
"""

import functools
import os
import threading
import time
from contextlib import contextmanager

from repro.core import caltrain as _caltrain
from repro.core.caltrain import CalTrain
from repro.core.fingerprint import Fingerprinter
from repro.core.partition import PartitionedNetwork
from repro.core.partitioned_training import ConfidentialTrainer
from repro.enclave.enclave import Enclave
from repro.federation import provisioning as _provisioning
from repro.federation.server import TrainingServer
from repro.governance import Attributor, GovernanceLog, PromotionGate
from repro.ingest import ContributionLedger, ValidationPool
from repro.ingest.gateway import UploadSession
from repro.ingest.transfer import UploadTransfer
from repro.nn.network import Network
from repro.nn.optimizers import Sgd
from repro.resilience.checkpoint import CheckpointManager
from repro.serving import (LinkageStore, ServingCluster, ServingEngine,
                           ShardedAnnIndex)

#: The span every client thread opens around its own loop; what is left of
#: it after its children is time no layer span accounts for.
CLIENT = "bench.client"


def _frontnet_forward(args, kwargs):
    # PartitionedNetwork runs the FrontNet as forward(start=0, stop=k) and
    # the BackNet as forward(start=k).
    return ("nn.frontnet.forward" if kwargs.get("stop") is not None
            else "nn.backnet.forward")


def _frontnet_backward(args, kwargs):
    # BackNet: backward(start=None, stop=k); FrontNet: backward(start=k, stop=0).
    return ("nn.frontnet.backward" if kwargs.get("start") is not None
            else "nn.backnet.backward")


#: (span name or namer, owner, attribute). Owners are classes or modules.
TARGETS = [
    ("ingest.gateway.send_chunk", UploadSession, "send_chunk"),
    ("ingest.gateway.complete", UploadSession, "complete"),
    ("ingest.transfer.append_chunk", UploadTransfer, "append_chunk"),
    ("ingest.transfer.finalize", UploadTransfer, "finalize"),
    ("ingest.validate.validate", ValidationPool, "validate"),
    ("ingest.ledger.commit_deduplicated", ContributionLedger,
     "commit_deduplicated"),
    ("ingest.ledger.quarantine", ContributionLedger, "quarantine"),
    ("enclave.ecall", Enclave, "ecall"),
    ("federation.provision_key", _provisioning, "provision_key"),
    ("federation.provision_key", _caltrain, "provision_key"),
    ("federation.server.from_ledger", TrainingServer, "from_ledger"),
    ("federation.server.decrypt_submissions", TrainingServer,
     "decrypt_submissions"),
    (_frontnet_forward, Network, "forward"),
    (_frontnet_backward, Network, "backward"),
    ("nn.optimizer.step", Sgd, "step"),
    ("core.partition.forward", PartitionedNetwork, "forward"),
    ("core.partition.backward", PartitionedNetwork, "backward"),
    ("core.trainer.train_epoch", ConfidentialTrainer, "train_epoch"),
    ("core.caltrain.train", CalTrain, "train"),
    ("core.caltrain.fingerprint_stage", CalTrain, "fingerprint_stage"),
    ("core.fingerprint.fingerprint", Fingerprinter, "fingerprint"),
    ("resilience.checkpoint.save", CheckpointManager, "save"),
    ("governance.log.append", GovernanceLog, "append"),
    ("governance.gate.promote", PromotionGate, "promote"),
    ("governance.gate.verify_record", PromotionGate, "verify_record"),
    ("governance.attribution.attribute", Attributor, "attribute"),
    ("serving.store.append", LinkageStore, "append"),
    ("serving.store.from_database", LinkageStore, "from_database"),
    ("serving.store.fingerprints_at", LinkageStore, "fingerprints_at"),
    ("serving.index.build", ShardedAnnIndex, "build"),
    ("serving.index.refresh", ShardedAnnIndex, "refresh"),
    ("serving.index.compact_now", ShardedAnnIndex, "compact_now"),
    ("serving.index.search_batch", ShardedAnnIndex, "search_batch"),
    ("serving.engine.start", ServingEngine, "start"),
    ("serving.engine.submit", ServingEngine, "submit"),
    ("serving.cluster.start", ServingCluster, "start"),
    ("serving.cluster.query_many", ServingCluster, "query_many"),
    ("serving.cluster.health_check_now", ServingCluster, "health_check_now"),
]

SPAN_NAMES = sorted(
    {name for name, _, _ in TARGETS if isinstance(name, str)}
    | {"nn.frontnet.forward", "nn.backnet.forward",
       "nn.frontnet.backward", "nn.backnet.backward"}
)

#: Counts that must repeat exactly for a fixed seed (0 where the layer
#: does no work in a workload).
COUNT_NAMES = [
    "ingest.fsync.calls", "ingest.records.committed",
    "ingest.records.quarantined", "core.partition.boundary_bytes",
    "resilience.checkpoint.bytes", "serving.store.segments",
    "serving.index.segments", "serving.index.full_builds",
    "serving.cluster.refreshes", "serving.cluster.evictions",
]


class Recorder:
    """In-memory spans, one list per thread so recording never contends."""

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self.threads = []      # (thread name, spans) in first-span order
        self.ingest_fsyncs = 0

    def thread_state(self):
        local = self._local
        try:
            return local.spans, local.stack
        except AttributeError:
            local.spans, local.stack = [], []
            with self._lock:
                self.threads.append((threading.current_thread().name,
                                     local.spans))
            return local.spans, local.stack


_active = None      # the installed Recorder, or None
_originals = []     # (owner, attribute, original descriptor)


def _traced(fn, name):
    namer = None if isinstance(name, str) else name

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        spans, stack = _active.thread_state()
        # [name, start, end, parent index on this thread or -1]
        span = [name if namer is None else namer(args, kwargs), 0.0, 0.0,
                stack[-1] if stack else -1]
        stack.append(len(spans))
        spans.append(span)
        span[1] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            span[2] = time.perf_counter()
            stack.pop()

    return wrapper


def count_fsyncs_only():
    """Replace `os.fsync` by a counter for the life of the process.

    Waiting for the host's disk made ingest passes 10 % slower and their
    spread twice as wide (30 interleaved passes each way), and scratch must
    stay inside the checkout, so an fsync returns at once, as it would on
    tmpfs. Real-disk durability cost is deliberately not measured; a traced
    pass counts the calls made under an `ingest.*` span as
    `ingest.fsync.calls`.
    """
    def counted(fd):
        if _active is not None:
            spans, stack = _active.thread_state()
            if any(spans[i][0].startswith("ingest.") for i in stack):
                with _active._lock:  # concurrent upload threads
                    _active.ingest_fsyncs += 1

    os.fsync = counted


def install():
    """Patch every target; returns the Recorder collecting the spans."""
    global _active
    if _active is not None:
        raise RuntimeError("layer tracing is already installed")
    _active = Recorder()
    for name, owner, attribute in TARGETS:
        original = vars(owner)[attribute]
        if isinstance(original, classmethod):
            patched = classmethod(_traced(original.__func__, name))
        else:
            patched = _traced(original, name)
        _originals.append((owner, attribute, original))
        setattr(owner, attribute, patched)
    return _active


def uninstall():
    global _active
    while _originals:
        owner, attribute, original = _originals.pop()
        setattr(owner, attribute, original)
    _active = None


@contextmanager
def client():
    """Root span of one client thread's loop; free when not tracing."""
    if _active is None:
        yield
        return
    spans, stack = _active.thread_state()
    span = [CLIENT, time.perf_counter(), 0.0, -1]
    stack.append(len(spans))
    spans.append(span)
    try:
        yield
    finally:
        span[2] = time.perf_counter()
        stack.pop()


def summarize(recorder):
    """One traced pass -> ({span: busy_s}, {span: calls}, coverage).

    A span's busy time is its self time: duration minus the spans it
    directly encloses on the same thread. A span that waits for another
    thread (a router waiting on engine workers) counts the wait as busy.
    `coverage` is the share of the client loops' time inside layer spans.
    """
    busy = dict.fromkeys(SPAN_NAMES, 0.0)
    calls = dict.fromkeys(SPAN_NAMES, 0)
    client_total = client_self = 0.0
    for _, spans in recorder.threads:
        children = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                children[parent] += end - start
        for (name, start, end, _), enclosed in zip(spans, children):
            if name == CLIENT:
                client_total += end - start
                client_self += end - start - enclosed
            else:
                busy[name] += end - start - enclosed
                calls[name] += 1
    coverage = 1.0 - client_self / client_total if client_total else 0.0
    return busy, calls, coverage


def span_rows(recorder, workload, pass_id):
    for thread, spans in recorder.threads:
        for name, start, end, parent in spans:
            yield {"workload": workload, "pass": pass_id, "thread": thread,
                   "name": name, "start": start, "end": end, "parent": parent}


# -- exact counts read from the finished world ---------------------------------


def boundary_bytes(system):
    """IR + delta bytes that crossed the enclave boundary in one run."""
    return (system.metrics.counter("repro_partition_ir_bytes_total").value
            + system.metrics.counter("repro_partition_delta_bytes_total").value)


def tree_bytes(path):
    return sum(entry.stat().st_size for entry in path.rglob("*")
               if entry.is_file())
