"""Cryptographic substrate.

Implements the primitives CalTrain's protocol layer needs:

* :mod:`repro.crypto.aead` — AES-128-GCM (from scratch) and a fast
  SHAKE-256/HMAC-SHA256 AEAD for bulk tensor payloads, behind one interface.
* :mod:`repro.crypto.hkdf` — HKDF-SHA256 key derivation.
* :mod:`repro.crypto.dh` — finite-field Diffie-Hellman (RFC 3526 group 14).
* :mod:`repro.crypto.tls` — a TLS-1.3-like secure channel used for secret
  provisioning into training enclaves after remote attestation.
"""

from repro.crypto.aead import BULK_CIPHER, AesGcm, ShakeHmacAead, new_aead
from repro.crypto.dh import DhKeyPair, DhParams, MODP_2048
from repro.crypto.hashing import hmac_sha256, sha256
from repro.crypto.hkdf import hkdf, hkdf_expand, hkdf_extract
from repro.crypto.keys import SymmetricKey, random_key
from repro.crypto.shamir import Share, reconstruct_secret, split_secret
from repro.crypto.tls import SecureChannel, TlsClient, TlsServer

__all__ = [
    "AesGcm",
    "ShakeHmacAead",
    "new_aead",
    "BULK_CIPHER",
    "DhKeyPair",
    "DhParams",
    "MODP_2048",
    "sha256",
    "hmac_sha256",
    "hkdf",
    "hkdf_extract",
    "hkdf_expand",
    "SymmetricKey",
    "Share",
    "split_secret",
    "reconstruct_secret",
    "random_key",
    "SecureChannel",
    "TlsClient",
    "TlsServer",
]
