"""A tamper-evident audit log of pipeline events.

Model accountability is only as strong as the record of what the pipeline
did: which participants registered, how many records each stage accepted
or rejected, which partition was active when. :class:`AuditLog` is a
hash-chained, append-only event log the training enclave maintains and can
seal to its identity; any retroactive edit breaks the chain.

The chain math itself lives in :class:`repro.core.chain.HashChain` and is
shared with the governance event log; this class keeps the in-memory
event model and the canonical-JSON persistence format (unchanged on disk
since the serving plane first sealed one).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.core.chain import HashChain
from repro.errors import LinkageError
from repro.utils.serialization import canonical_json

__all__ = ["AuditEvent", "AuditLog"]


@dataclass(frozen=True)
class AuditEvent:
    """One event: a sequence number, a kind, details, and the chain hash."""

    sequence: int
    kind: str
    details: Dict[str, Any]
    chain_hash: bytes

    @property
    def payload(self) -> Dict[str, Any]:
        """The chained portion (everything except the hash itself)."""
        return {"seq": self.sequence, "kind": self.kind,
                "details": self.details}


class AuditLog:
    """Append-only, hash-chained event log."""

    _CHAIN = HashChain(b"caltrain-audit-genesis")

    def __init__(self) -> None:
        self._events: List[AuditEvent] = []

    def __len__(self) -> int:
        return len(self._events)

    @property
    def head(self) -> bytes:
        """The chain head (commits to every event so far)."""
        return self._events[-1].chain_hash if self._events else \
            self._CHAIN.genesis

    def append(self, kind: str, **details: Any) -> AuditEvent:
        """Record one event; returns it with its chain hash."""
        sequence = len(self._events)
        chain_hash = self._CHAIN.entry_hash(
            self.head, {"seq": sequence, "kind": kind, "details": details}
        )
        event = AuditEvent(sequence=sequence, kind=kind, details=details,
                           chain_hash=chain_hash)
        self._events.append(event)
        return event

    def events(self, kind: Optional[str] = None) -> List[AuditEvent]:
        if kind is None:
            return list(self._events)
        return [e for e in self._events if e.kind == kind]

    def verify_chain(self) -> bool:
        """Recompute the chain; False if any event was altered."""
        return self._CHAIN.verify(
            (e.payload, e.chain_hash) for e in self._events
        )

    def verify_from(self, sequence: int, head: bytes
                    ) -> Optional[Tuple[int, bytes]]:
        """Incrementally verify events appended after a trusted mark.

        ``head`` must be the chain hash observed at ``sequence`` events
        (``genesis`` for 0). Recomputes only the suffix, so a health
        checker can re-verify a long-lived serving audit trail at every
        sweep without O(total-events) work. Returns the next mark: the
        ``(sequence, head)`` the verified suffix ends at, so events
        appended meanwhile wait for the next call. ``None`` if the suffix
        does not chain from ``head`` — including when the log shrank
        below ``sequence`` (a truncation is tampering too)."""
        if sequence < 0 or sequence > len(self._events):
            return None
        if sequence > 0 and self._events[sequence - 1].chain_hash != head:
            return None
        if sequence == 0 and head != self._CHAIN.genesis:
            return None
        suffix = self._events[sequence:]
        running = head
        for event in suffix:
            expected = self._CHAIN.entry_hash(running, event.payload)
            if event.chain_hash != expected:
                return None
            running = expected
        return sequence + len(suffix), running

    # -- persistence -----------------------------------------------------------

    def to_bytes(self) -> bytes:
        return canonical_json([
            {"seq": e.sequence, "kind": e.kind, "details": e.details,
             "chain": e.chain_hash.hex()}
            for e in self._events
        ])

    @classmethod
    def from_bytes(cls, blob: bytes) -> "AuditLog":
        log = cls()
        for entry in json.loads(blob.decode("utf-8")):
            event = AuditEvent(
                sequence=entry["seq"], kind=entry["kind"],
                details=entry["details"],
                chain_hash=bytes.fromhex(entry["chain"]),
            )
            log._events.append(event)
        if not log.verify_chain():
            raise LinkageError("audit log failed chain verification on load")
        return log
