"""Sealed storage bound to enclave identity.

SGX sealing derives a key from the platform's sealing secret and the
enclave's identity (MRENCLAVE policy), so a blob sealed by an enclave can
only be unsealed by the *same* enclave code on the *same* platform. CalTrain
uses sealing for persisting the linkage database between the fingerprinting
and query stages.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.enclave.enclave import Enclave
from repro.errors import AuthenticationError, SealingError

__all__ = ["SealedBlob", "seal", "unseal"]


@dataclass(frozen=True)
class SealedBlob:
    """An opaque sealed payload plus the nonce it was sealed under."""

    nonce: bytes
    ciphertext: bytes


def seal(enclave: Enclave, plaintext: bytes,
         nonce: Optional[bytes] = None) -> SealedBlob:
    """Seal ``plaintext`` to this enclave's identity.

    ``nonce`` lets callers supply a deterministic, content-derived nonce
    (e.g. the checkpoint runtime, which must not consume the trusted
    training RNG — drawing from it would perturb the minibatch/augmentation
    stream and break bitwise resume parity). Callers providing a nonce are
    responsible for its uniqueness per plaintext.
    """
    if nonce is None:
        nonce = enclave.trusted_rng.random_bytes(12)
    elif len(nonce) != 12:
        raise SealingError("seal nonce must be 12 bytes")
    return SealedBlob(
        nonce=nonce, ciphertext=enclave.seal_cipher().seal(nonce, plaintext)
    )


def unseal(enclave: Enclave, blob: SealedBlob) -> bytes:
    """Unseal a blob; fails if identity or platform differ, or if tampered."""
    try:
        return enclave.seal_cipher().open(blob.nonce, blob.ciphertext)
    except AuthenticationError as exc:
        raise SealingError(
            "unseal failed: wrong enclave identity/platform or tampered blob"
        ) from exc
