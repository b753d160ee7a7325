"""Sealed storage tests."""

import pytest

from repro.enclave.sealing import SealedBlob, seal, unseal
from repro.errors import SealingError
from repro.utils.rng import RngStream
from repro.enclave.platform import SgxPlatform


# seal(enclave "pinned" on platform RngStream(7)/"pinned", bytes(range(200)),
# nonce=bytes(range(12))) as written by the last commit with scalar AES-GCM.
PARENT_SEALED = (
    "2fe52b52e1ce0373cc7bfefa9b2c560ccea084d3143940233fa33b6b41b1c210"
    "dbf6c0ebdbbc5cc9ef34a686fb9d4b23eaf64984713f8d6c6b885624222c7a63"
    "720e8ab2e4c49f271e07a1200d7877b8864979b8e2594be752831d767d1c6a19"
    "9a2c1894b3e03acd689d85eb5816931e7c7917582abfbb973ded4651ad8300d6"
    "5921e187c5b4c99e49fffb13c294a965c6ebe933622722bda2386fb129c7cfed"
    "9aaa4edb2c63875fb7b0fbcc29a3c9fda0e4c223fef4492fb6f134fbec035d64"
    "a6142e0177681ac598635298dd0071e4eb92639da8269ec6"
)


def _enclave(platform, name="sealer", config=None):
    enclave = platform.create_enclave(name)
    enclave.add_data("config", config or {"v": 1})
    enclave.init()
    return enclave


class TestSealing:
    def test_roundtrip(self, platform):
        enclave = _enclave(platform)
        blob = seal(enclave, b"linkage database bytes")
        assert unseal(enclave, blob) == b"linkage database bytes"

    def test_same_identity_other_instance_can_unseal(self, platform):
        a = _enclave(platform, "a")
        b = _enclave(platform, "a")  # identical build => same MRENCLAVE
        assert a.mrenclave == b.mrenclave
        blob = seal(a, b"shared")
        assert unseal(b, blob) == b"shared"

    def test_different_identity_cannot_unseal(self, platform):
        a = _enclave(platform, "a", config={"v": 1})
        b = _enclave(platform, "a", config={"v": 2})
        blob = seal(a, b"private")
        with pytest.raises(SealingError):
            unseal(b, blob)

    def test_different_platform_cannot_unseal(self, platform):
        other_platform = SgxPlatform(
            rng=RngStream(999).child("other"), platform_id="other"
        )
        a = _enclave(platform)
        b = _enclave(other_platform)
        assert a.mrenclave == b.mrenclave  # same code, different machine
        blob = seal(a, b"machine-bound")
        with pytest.raises(SealingError):
            unseal(b, blob)

    def test_tampered_blob_rejected(self, platform):
        enclave = _enclave(platform)
        blob = seal(enclave, b"data")
        tampered = SealedBlob(
            nonce=blob.nonce,
            ciphertext=bytes([blob.ciphertext[0] ^ 1]) + blob.ciphertext[1:],
        )
        with pytest.raises(SealingError):
            unseal(enclave, tampered)


class TestSealCipherIsHeldPerIdentity:
    def test_built_once_per_enclave(self, platform):
        enclave = _enclave(platform)
        cipher = enclave.seal_cipher()
        blob = seal(enclave, b"first")
        seal(enclave, b"second")
        assert unseal(enclave, blob) == b"first"
        assert enclave.seal_cipher() is cipher

    def test_follows_the_measurement(self, platform):
        """Sealing before EINIT is legal; the key must still be the one of
        the measurement at the time of the call."""
        enclave = platform.create_enclave("sealer")
        early = seal(enclave, b"early")
        enclave.add_data("config", {"v": 1})
        enclave.init()
        with pytest.raises(SealingError):
            unseal(enclave, early)
        assert unseal(_enclave(platform), seal(enclave, b"late")) == b"late"

    def test_dropped_on_destroy(self, platform):
        enclave = _enclave(platform)
        enclave.seal_cipher()
        enclave.destroy()
        assert enclave._seal_cipher is None

    def test_blob_sealed_by_the_parent_commit_unseals(self):
        """A checkpoint / manifest seal written before the vectorised
        AES-GCM core: same key derivation, same bytes."""
        platform = SgxPlatform(rng=RngStream(7).child("pinned"),
                               platform_id="pinned")
        enclave = _enclave(platform, "pinned")
        blob = SealedBlob(
            nonce=bytes(range(12)),
            ciphertext=bytes.fromhex(PARENT_SEALED),
        )
        assert unseal(enclave, blob) == bytes(range(200))
        assert seal(enclave, bytes(range(200)), nonce=blob.nonce) == blob
