"""Enclave lifecycle, measurement, and the ECALL boundary.

Mirrors the SGX programming model:

* ``ECREATE`` — :meth:`SgxPlatform.create_enclave` constructs an enclave in
  the ``CREATED`` state;
* ``EADD``/``EEXTEND`` — :meth:`Enclave.add_code` / :meth:`Enclave.add_data`
  load content into the EPC and extend the MRENCLAVE hash chain;
* ``EINIT`` — :meth:`Enclave.init` freezes the measurement; only then can
  trusted functions run;
* ECALL — :meth:`Enclave.ecall` invokes a registered trusted function and
  charges the transition cost to the platform's simulated clock;
* ``EREPORT``/quoting — :meth:`Enclave.quote` produces an attestation quote
  over (MRENCLAVE, report_data) signed with the platform key;
* ``EGETKEY`` — :meth:`Enclave.seal_cipher` derives the sealing key from
  the platform's sealing secret and MRENCLAVE.

Confidentiality is enforced at the API level: the in-enclave object store
is private and reachable only through registered ECALLs, which is the same
guarantee the hardware gives to code outside the EPC.
"""

from __future__ import annotations

import enum
from typing import Any, Callable, Dict, Optional, Tuple

from repro.crypto.aead import AesGcm
from repro.crypto.hashing import hmac_sha256, sha256
from repro.crypto.hkdf import hkdf
from repro.enclave.attestation import Quote
from repro.enclave.memory import EpcMemory
from repro.enclave.platform import SgxPlatform, TrustedRng
from repro.errors import EnclaveLifecycleError
from repro.utils.serialization import canonical_digest

__all__ = ["EnclaveState", "Enclave"]


class EnclaveState(enum.Enum):
    CREATED = "created"
    INITIALIZED = "initialized"
    DESTROYED = "destroyed"


class Enclave:
    """One enclave instance on an :class:`SgxPlatform`."""

    def __init__(self, name: str, platform: SgxPlatform) -> None:
        self.name = name
        self.platform = platform
        self.state = EnclaveState.CREATED
        self.epc: EpcMemory = platform.new_epc()
        self.trusted_rng = TrustedRng(platform.rng.child(f"enclave/{name}/rdrand"))
        self._measurement = sha256(b"ECREATE", name.encode("utf-8"))
        self._ecalls: Dict[str, Callable[..., Any]] = {}
        self._storage: Dict[str, Any] = {}
        self._seal_cipher: Optional[Tuple[bytes, AesGcm]] = None
        self.ecall_count = 0
        self.ocall_count = 0

    # -- build phase (EADD / EEXTEND) ---------------------------------------

    def _require_state(self, state: EnclaveState, action: str) -> None:
        if self.state is not state:
            raise EnclaveLifecycleError(
                f"cannot {action} while enclave {self.name!r} is {self.state.value}"
            )

    def _extend(self, tag: bytes, content_hash: bytes) -> None:
        self._measurement = sha256(self._measurement, tag, content_hash)

    def add_code(self, name: str, fn: Callable[..., Any],
                 source: Optional[str] = None) -> None:
        """Load a trusted function; its identity extends the measurement.

        ``source`` lets tests/participants pin the exact code text that was
        measured; by default the function's qualified name is measured,
        which is sufficient for a simulation.
        """
        self._require_state(EnclaveState.CREATED, "add code")
        identity = (source or f"{fn.__module__}.{fn.__qualname__}").encode("utf-8")
        self._extend(b"EADD-CODE:" + name.encode("utf-8"), sha256(identity))
        self.epc.alloc(f"code/{name}", len(identity))
        self._ecalls[name] = fn

    def add_data(self, name: str, value: Any, nbytes: Optional[int] = None) -> None:
        """Load initial data (architecture, hyperparameters) into the EPC."""
        self._require_state(EnclaveState.CREATED, "add data")
        content_hash = canonical_digest(value if value is not None else b"")
        self._extend(b"EADD-DATA:" + name.encode("utf-8"), content_hash)
        self.epc.alloc(f"data/{name}", nbytes if nbytes is not None else 4096)
        self._storage[name] = value

    def init(self) -> None:
        """EINIT: freeze the measurement and enable ECALLs."""
        self._require_state(EnclaveState.CREATED, "init")
        self._extend(b"EINIT", b"")
        self.state = EnclaveState.INITIALIZED

    def destroy(self) -> None:
        """Tear the enclave down; secrets become unreachable."""
        self._storage.clear()
        self._ecalls.clear()
        self._seal_cipher = None
        self.state = EnclaveState.DESTROYED

    # -- measured identity ----------------------------------------------------

    @property
    def mrenclave(self) -> bytes:
        """The enclave measurement (hash chain over everything added)."""
        return self._measurement

    def seal_cipher(self) -> AesGcm:
        """EGETKEY: the AEAD keyed to this platform and this measurement
        (trusted-code use only).

        Held on the enclave so the key derivation, the AES key schedule and
        the GHASH tables are built once per identity, not once per sealed
        blob.
        """
        if self._seal_cipher is None or self._seal_cipher[0] != self._measurement:
            key = hkdf(
                ikm=self.platform.platform_key,
                salt=self._measurement,
                info=b"sgx-seal-mrenclave",
                length=16,
            )
            self._seal_cipher = (self._measurement, AesGcm(key))
        return self._seal_cipher[1]

    # -- runtime phase ----------------------------------------------------------

    def ecall(self, name: str, *args: Any, payload_bytes: int = 0, **kwargs: Any) -> Any:
        """Invoke a registered trusted function across the boundary.

        ``payload_bytes`` sizes the argument copy for the cost model; the
        fixed transition cost is always charged.
        """
        self._require_state(EnclaveState.INITIALIZED, "ecall")
        if name not in self._ecalls:
            raise EnclaveLifecycleError(f"no ECALL named {name!r} in {self.name!r}")
        self.ecall_count += 1
        self.platform.clock.advance(
            self.platform.cost_model.transition_cost(payload_bytes)
        )
        return self._ecalls[name](self, *args, **kwargs)

    def ocall_cost(self, payload_bytes: int = 0) -> None:
        """Charge one OCALL (enclave -> untrusted) transition."""
        self.ocall_count += 1
        self.platform.clock.advance(
            self.platform.cost_model.transition_cost(payload_bytes)
        )

    # -- in-enclave object store (reachable only from trusted code) -----------

    def trusted_put(self, key: str, value: Any, nbytes: Optional[int] = None) -> None:
        """Store a secret inside the enclave (trusted-code use only)."""
        alloc_name = f"data/{key}"
        if key in self._storage:
            self.epc.resize(alloc_name, nbytes if nbytes is not None else 4096)
        else:
            self.epc.alloc(alloc_name, nbytes if nbytes is not None else 4096)
        self._storage[key] = value

    def trusted_get(self, key: str) -> Any:
        """Read a secret inside the enclave (trusted-code use only)."""
        return self._storage[key]

    def trusted_has(self, key: str) -> bool:
        return key in self._storage

    def trusted_delete(self, key: str) -> None:
        if key in self._storage:
            del self._storage[key]
            self.epc.free(f"data/{key}")

    # -- attestation -----------------------------------------------------------

    def quote(self, report_data: bytes = b"") -> Quote:
        """Produce an attestation quote for this enclave (EREPORT + QE)."""
        self._require_state(EnclaveState.INITIALIZED, "quote")
        body = self._measurement + report_data
        signature = hmac_sha256(
            self.platform.platform_key, b"sgx-quote", body
        )
        return Quote(
            platform_id=self.platform.platform_id,
            mrenclave=self._measurement,
            report_data=report_data,
            signature=signature,
        )
