"""Key material helpers."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.crypto.aead import NONCE_LEN
from repro.utils.rng import RngStream

__all__ = ["SymmetricKey", "random_key"]


@dataclass
class SymmetricKey:
    """A named symmetric key with a monotonically increasing nonce counter.

    Deterministic nonces (a per-key counter) make nonce reuse impossible
    within one key's lifetime, which AEAD security requires.
    """

    key_id: str
    material: bytes
    _counter: int = field(default=0, repr=False)

    def next_nonce(self) -> bytes:
        """Return a fresh, never-repeating nonce for this key."""
        self._counter += 1
        return self._counter.to_bytes(NONCE_LEN, "big")

    def advance_past(self, nonce: bytes) -> None:
        """Never emit ``nonce`` or anything before it again.

        A contributor resuming an interrupted upload from a fresh process
        advances its key past the highest nonce the server journaled, so
        the resumed stream cannot reuse a counter value already spent on
        acknowledged records.
        """
        self._counter = max(self._counter, int.from_bytes(nonce, "big"))


def random_key(rng: RngStream, key_id: str = "key", length: int = 16) -> SymmetricKey:
    """Generate a fresh symmetric key from an RNG stream."""
    return SymmetricKey(key_id=key_id, material=rng.randbytes(length))
