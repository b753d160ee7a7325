"""SGX platform model: simulated clock, cost model, trusted RNG.

Running Python inside or outside a *simulated* enclave takes the same wall
time, so performance effects are tracked on a simulated clock instead. The
cost model is calibrated against the paper's testbed behaviour (Fig. 6):

* in-enclave arithmetic is slower because enclave code cannot use the
  ``-ffast-math`` floating-point acceleration or other ML-accelerated
  features (``enclave_flop_slowdown``);
* every enclave boundary crossing (ECALL/OCALL, i.e. shipping an IR tensor
  out or a delta tensor in) pays a fixed transition cost plus a per-byte
  copy cost;
* accesses beyond the EPC capacity pay a paging penalty per byte.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.enclave.memory import EPC_USABLE_BYTES, EpcMemory
from repro.errors import ConfigurationError
from repro.utils.rng import RngStream

__all__ = ["SimClock", "CostModel", "TrustedRng", "SgxPlatform"]


class SimClock:
    """A monotonically increasing simulated clock (seconds)."""

    def __init__(self) -> None:
        self._now = 0.0

    @property
    def now(self) -> float:
        return self._now

    def advance(self, seconds: float) -> None:
        if seconds < 0:
            raise ConfigurationError("cannot advance the clock backwards")
        self._now += seconds


@dataclass(frozen=True)
class CostModel:
    """Calibrated simulated-time costs of the SGX platform.

    Attributes:
        base_flops_per_second: Untrusted-side throughput of the training
            stack (Darknet with ``-Ofast`` on the paper's i7-6700).
        enclave_flop_slowdown: Multiplier on in-enclave arithmetic time.
            The paper attributes the in-enclave slowdown primarily to
            ``-ffast-math`` being ineffective for enclaved code.
        transition_seconds: Fixed cost of one ECALL/OCALL transition.
        boundary_bytes_per_second: Throughput of copying tensors across the
            enclave boundary.
        paging_bytes_per_second: Throughput of the encrypted EPC paging
            path (much slower than plain memcpy).
    """

    base_flops_per_second: float = 2.0e10
    enclave_flop_slowdown: float = 1.23
    transition_seconds: float = 4.0e-6
    boundary_bytes_per_second: float = 2.0e9
    paging_bytes_per_second: float = 1.0e8

    def compute_seconds(self, flops: float, in_enclave: bool) -> float:
        """Simulated time to execute ``flops`` floating-point operations."""
        seconds = flops / self.base_flops_per_second
        if in_enclave:
            seconds *= self.enclave_flop_slowdown
        return seconds

    def transition_cost(self, payload_bytes: int) -> float:
        """Simulated time of one boundary crossing carrying a payload."""
        return self.transition_seconds + payload_bytes / self.boundary_bytes_per_second

    def paging_cost(self, paged_bytes: int) -> float:
        """Simulated time to service ``paged_bytes`` of EPC paging."""
        return paged_bytes / self.paging_bytes_per_second


class TrustedRng:
    """The enclave's trusted entropy source (models RDRAND/RDSEED).

    The paper uses Intel's on-chip hardware RNG for the randomness that
    in-enclave data augmentation needs (Section IV-A). Here it is a seeded
    PCG64 stream so experiments replay deterministically.
    """

    def __init__(self, stream: RngStream) -> None:
        self._stream = stream

    @property
    def stream(self) -> RngStream:
        return self._stream

    @property
    def generator(self) -> np.random.Generator:
        return self._stream.generator

    def random_bytes(self, n: int) -> bytes:
        return self._stream.randbytes(n)


@dataclass
class SgxPlatform:
    """One SGX-enabled machine: EPC, clock, cost model, platform identity.

    The platform key models the fused attestation key whose public part
    Intel's attestation service knows; quotes produced by enclaves on this
    platform are MACed with it and verified by
    :class:`repro.enclave.attestation.AttestationService`.
    """

    rng: RngStream
    platform_id: str = "sgx-platform-0"
    epc_bytes: int = EPC_USABLE_BYTES
    cost_model: CostModel = field(default_factory=CostModel)
    clock: SimClock = field(default_factory=SimClock)
    platform_key: bytes = field(default=b"", repr=False)

    def __post_init__(self) -> None:
        if not self.platform_key:
            self.platform_key = self.rng.child("platform-key").randbytes(32)

    def new_epc(self) -> EpcMemory:
        """Create an EPC accounting region for a new enclave."""
        return EpcMemory(capacity_bytes=self.epc_bytes)

    def create_enclave(self, name: str) -> "Enclave":
        """Instantiate an enclave on this platform (ECREATE)."""
        from repro.enclave.enclave import Enclave

        return Enclave(name=name, platform=self)
