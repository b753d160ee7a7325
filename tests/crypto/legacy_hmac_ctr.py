"""The bulk cipher this repository used before SHAKE-256 replaced it.

Kept in the tests only, to seal records the way a contributor who never
upgraded would: SHA-256 counter-mode keystream, HMAC-SHA256 tag, subkeys
under the bare labels ``enc`` / ``mac``. Every gate must refuse what it
produces (``test_aead.TestParentCommitVectors`` pins it to the bytes the
removed class sealed).
"""

import hashlib
import hmac
import struct


def seal(key, nonce, plaintext, aad=b""):
    enc_key = hmac.digest(key, b"enc", "sha256")
    mac_key = hmac.digest(key, b"mac", "sha256")
    stream = b"".join(
        hashlib.sha256(enc_key + nonce + struct.pack("<Q", counter)).digest()
        for counter in range((len(plaintext) + 31) // 32)
    )
    ciphertext = bytes(p ^ k for p, k in zip(plaintext, stream))
    tag = hmac.digest(
        mac_key, nonce + struct.pack("<Q", len(aad)) + aad + ciphertext, "sha256")
    return ciphertext + tag[:16]
