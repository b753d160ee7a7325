"""FrontNet/BackNet partitioned execution (paper, Section IV-B).

A :class:`PartitionedNetwork` splits a network at layer ``partition``: the
FrontNet (layers ``[0, partition)``) runs inside a training enclave together
with the decrypted training data; the BackNet (layers ``[partition, n)``)
runs outside and can use ML acceleration. Intermediate representations (IRs)
cross the boundary outward during feedforward; deltas cross back inward
during backpropagation; weight updates happen on both sides independently.

All performance effects are charged to the enclave platform's simulated
clock: in-enclave FLOPs at the slowdown factor, one OCALL per batch carrying
the IR, one ECALL per batch carrying the delta, and EPC paging whenever the
FrontNet working set exceeds the EPC.
"""

from __future__ import annotations

import zlib
from typing import Optional, TYPE_CHECKING

import numpy as np

from repro.crypto.aead import Aead
from repro.enclave.enclave import Enclave
from repro.errors import PartitionError, TransferIntegrityError
from repro.nn.network import Network

if TYPE_CHECKING:  # pragma: no cover — typing only
    from repro.observability.metrics import MetricsRegistry
    from repro.observability.tracing import Tracer

__all__ = ["PartitionedNetwork"]


class _NullSpan:
    """Zero-cost stand-in when no tracer is bound."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info) -> None:
        return None


_NULL_SPAN = _NullSpan()

#: Backward passes cost roughly twice the forward FLOPs (dX and dW GEMMs).
_BACKWARD_FLOP_FACTOR = 2.0
#: Params + gradients + momentum buffers resident per weight.
_PARAM_STATE_FACTOR = 3


class PartitionedNetwork:
    """A network split into an in-enclave FrontNet and an outside BackNet.

    Args:
        network: The full network (both halves share its weights).
        partition: Number of leading layers inside the enclave. ``0`` means
            fully outside (the non-protected baseline); it may not exceed
            the penultimate layer, since softmax/cost produce the public
            predictions.
        enclave: The training enclave; ``None`` disables cost accounting
            and models a non-protected environment.
    """

    def __init__(self, network: Network, partition: int,
                 enclave: Optional[Enclave] = None) -> None:
        self.network = network
        self.enclave = enclave
        #: Optional observability sinks; see :meth:`bind_observability`.
        self.tracer: Optional["Tracer"] = None
        self.metrics: Optional["MetricsRegistry"] = None
        self._partition = -1
        self.set_partition(partition)

    def bind_observability(self, tracer: Optional["Tracer"] = None,
                           metrics: Optional["MetricsRegistry"] = None) -> None:
        """Attach a tracer and/or metrics registry to the hot path.

        Traced, every forward/backward emits ``enclave`` /
        ``boundary-crossing`` / ``untrusted`` spans so a training step
        decomposes into FrontNet, IR/delta transfer, and BackNet time.
        With metrics bound, boundary traffic lands in
        ``repro_partition_*`` counters/histograms and the enclave's EPC
        mirrors paging into the same registry. Unbound networks pay only
        a ``None`` check per phase.
        """
        self.tracer = tracer
        self.metrics = metrics
        if metrics is not None and self.enclave is not None:
            self.enclave.epc.bind_metrics(metrics)

    def _span(self, name: str, kind: str, **attributes):
        if self.tracer is None:
            return _NULL_SPAN
        return self.tracer.span(name, kind=kind, **attributes)

    # -- partition management -------------------------------------------------

    @property
    def partition(self) -> int:
        return self._partition

    def set_partition(self, partition: int) -> None:
        """(Re)split the network; reallocates the FrontNet's EPC footprint.

        Dynamic re-assessment between epochs calls this with the newly
        agreed partition layer (paper, Section IV-B).
        """
        limit = self.network.penultimate_index()
        if not 0 <= partition <= limit:
            raise PartitionError(
                f"partition must be in [0, {limit}] for this network, got {partition}"
            )
        if self.enclave is not None:
            if self.enclave.epc.usage_report().get("data/frontnet") is not None:
                self.enclave.epc.free("data/frontnet")
            self.enclave.epc.alloc("data/frontnet", self._frontnet_bytes(partition))
        self._partition = partition

    def rebind_enclave(self, enclave: Optional[Enclave]) -> None:
        """Point this partitioned network at a freshly built enclave.

        The recovery path after an enclave abort: the replacement enclave
        (same MRENCLAVE, re-attested by the caller) takes over the
        FrontNet's EPC footprint at the current partition.
        """
        self.enclave = enclave
        self.set_partition(self._partition)
        if self.metrics is not None and enclave is not None:
            enclave.epc.bind_metrics(self.metrics)

    def _frontnet_bytes(self, partition: int, batch_size: int = 0) -> int:
        params = sum(
            layer.param_bytes() for layer in self.network.layers[:partition]
        ) * _PARAM_STATE_FACTOR
        activations = 0
        if batch_size:
            for i in range(partition):
                activations += self.network.layers[i].activation_bytes(
                    self.network.layer_input_shape(i), batch_size
                )
        return params + activations

    @property
    def frontnet_layers(self):
        return self.network.layers[: self._partition]

    @property
    def backnet_layers(self):
        return self.network.layers[self._partition :]

    # -- cost accounting --------------------------------------------------------

    def _charge_compute(self, flops: float, in_enclave: bool) -> None:
        if self.enclave is None:
            return
        platform = self.enclave.platform
        platform.clock.advance(
            platform.cost_model.compute_seconds(flops, in_enclave=in_enclave)
        )

    def _charge_paging(self, batch_size: int) -> None:
        if self.enclave is None or self._partition == 0:
            return
        working_set = self._frontnet_bytes(self._partition, batch_size)
        self.enclave.epc.resize("data/frontnet", working_set)
        paged = self.enclave.epc.touch(working_set)
        if paged:
            platform = self.enclave.platform
            platform.clock.advance(platform.cost_model.paging_cost(paged))

    def _range_flops(self, start: int, stop: int, batch_size: int) -> float:
        per_example = self.network.flops_per_layer()
        return sum(per_example[start:stop]) * batch_size

    # -- execution -----------------------------------------------------------------

    def _cross_boundary(self, site: str, tensor: np.ndarray) -> np.ndarray:
        """Carry one IR/delta tensor across the enclave boundary.

        The sending side computes a CRC before the tensor leaves; the
        receiving side re-verifies after the copy. SGX itself
        authenticates EPC memory but the untrusted marshalling buffers
        are fair game — a flipped bit there must fail closed, not
        silently poison training.
        """
        # crc32 reads the contiguous array's buffer; no bytes copy.
        return self._receive(site, tensor,
                             zlib.crc32(np.ascontiguousarray(tensor)))

    def _receive(self, site: str, tensor: np.ndarray,
                 checksum: int) -> np.ndarray:
        """The receiving side of a crossing: verify, then accept."""
        if checksum != zlib.crc32(np.ascontiguousarray(tensor)):
            raise TransferIntegrityError(
                f"{site} tensor failed its transfer checksum crossing the "
                "enclave boundary"
            )
        return tensor

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        """Full forward pass: FrontNet in-enclave, IR out, BackNet outside."""
        n = x.shape[0]
        k = self._partition
        with self._span("frontnet.forward", "enclave", batch=n):
            if k > 0:
                self._charge_paging(n)
                self._charge_compute(self._range_flops(0, k, n), in_enclave=True)
            ir = self.network.forward(x, training=training, start=0, stop=k)
        if self.enclave is not None and k > 0:
            with self._span("ir-transfer", "boundary-crossing",
                            bytes=ir.nbytes):
                self.enclave.ocall_cost(payload_bytes=ir.nbytes)
                ir = self._cross_boundary("ir", ir)
            if self.metrics is not None:
                self.metrics.inc("repro_partition_ir_bytes_total", ir.nbytes)
                self.metrics.inc("repro_partition_boundary_crossings_total")
        with self._span("backnet.forward", "untrusted", batch=n):
            self._charge_compute(
                self._range_flops(k, len(self.network.layers), n),
                in_enclave=False,
            )
            return self.network.forward(ir, training=training, start=k)

    def backward(self, delta: np.ndarray,
                 need_input_grad: bool = True) -> np.ndarray:
        """Full backward pass: BackNet outside, delta in, FrontNet inside.

        ``need_input_grad=False`` lets the bottom layer skip computing
        d(loss)/d(input) — the training loop never consumes it.
        """
        n = delta.shape[0]
        k = self._partition
        with self._span("backnet.backward", "untrusted", batch=n):
            self._charge_compute(
                self._range_flops(k, len(self.network.layers), n)
                * _BACKWARD_FLOP_FACTOR,
                in_enclave=False,
            )
            boundary_delta = self.network.backward(
                delta, start=None, stop=k,
                need_input_grad=need_input_grad or k > 0,
            )
        if k == 0:
            return boundary_delta
        if self.enclave is not None:
            with self._span("delta-transfer", "boundary-crossing",
                            bytes=boundary_delta.nbytes):
                # The delta tensor is copied into the enclave (modelled as
                # part of an ECALL transition).
                self.enclave.platform.clock.advance(
                    self.enclave.platform.cost_model.transition_cost(
                        boundary_delta.nbytes
                    )
                )
                boundary_delta = self._cross_boundary("delta", boundary_delta)
            if self.metrics is not None:
                self.metrics.inc("repro_partition_delta_bytes_total",
                                 boundary_delta.nbytes)
                self.metrics.inc("repro_partition_boundary_crossings_total")
        frontnet_frozen = all(layer.frozen for layer in self.frontnet_layers)
        if frontnet_frozen:
            # Bottom-up convergence freezing (paper, "Performance"): no
            # FrontNet backward work at all once it is frozen.
            return boundary_delta
        with self._span("frontnet.backward", "enclave", batch=n):
            self._charge_compute(
                self._range_flops(0, k, n) * _BACKWARD_FLOP_FACTOR,
                in_enclave=True,
            )
            return self.network.backward(boundary_delta, start=k, stop=0,
                                         need_input_grad=need_input_grad)

    def train_batch(self, x: np.ndarray, labels: np.ndarray, optimizer) -> float:
        """One partitioned SGD step; returns the batch loss."""
        probs = self.forward(x, training=True)
        loss, delta = self.network.cost_layer().batch_loss(probs, labels)
        self.backward(delta, need_input_grad=False)
        optimizer.step(self.network)
        self.network.zero_grads()
        return loss

    def predict(self, x: np.ndarray, batch_size: int = 256) -> np.ndarray:
        outputs = [
            self.forward(x[i : i + batch_size])
            for i in range(0, x.shape[0], batch_size)
        ]
        return np.concatenate(outputs, axis=0)

    # -- model release -----------------------------------------------------------------

    def export_frontnet_encrypted(self, aead: Aead, nonce: bytes) -> bytes:
        """Serialize the FrontNet weights sealed under a participant's key.

        After training, the model is released to each participant with the
        FrontNet encrypted under that participant's provisioned key, so the
        server provider never sees the complete model (Section IV-B).
        """
        import io

        import numpy as _np

        arrays = {}
        for i, layer in enumerate(self.frontnet_layers):
            for name, arr in layer.params().items():
                arrays[f"layer{i}/{name}"] = arr
        buffer = io.BytesIO()
        _np.savez(buffer, **arrays)
        return aead.seal(nonce, buffer.getvalue(), aad=b"caltrain-frontnet")

    def import_frontnet_encrypted(self, aead: Aead, nonce: bytes, sealed: bytes) -> None:
        """Decrypt and load FrontNet weights (participant side)."""
        import io

        import numpy as _np

        blob = aead.open(nonce, sealed, aad=b"caltrain-frontnet")
        with _np.load(io.BytesIO(blob)) as data:
            for key in data.files:
                layer_part, name = key.split("/", 1)
                layer = self.network.layers[int(layer_part[len("layer"):])]
                layer.params()[name][...] = data[key]
