"""Authenticated encryption with associated data (AEAD).

Two interchangeable ciphers sit behind the :class:`Aead` interface:

* :class:`AesGcm` — AES-128 in Galois/Counter Mode, implemented from
  scratch: a table-driven AES that runs all of a message's counter blocks
  through each round as one array operation, plus GHASH by per-key lookup
  tables. This is the cipher the paper names for authenticating
  training-data sources (Section IV-A). It is bit-exact AES-GCM and seals
  control messages and enclave-sealed blobs (handshake records,
  provisioned keys, checkpoints, manifests); with no AES instructions to
  call on it still trails the bulk cipher below on tensor payloads. The
  bit-serial reference it is tested against lives in
  ``tests/crypto/scalar_gcm.py``.

* :class:`ShakeHmacAead` — an encrypt-then-MAC construction (SHAKE-256
  keystream from one XOF call + HMAC-SHA256 tag) fast enough to protect
  multi-megabyte tensor payloads. It provides the same
  authenticate-then-decrypt semantics the training server relies on to
  reject forged or unregistered batches.

Both raise :class:`repro.errors.AuthenticationError` on any tag mismatch so
callers cannot accidentally use unauthenticated plaintext.
"""

from __future__ import annotations

import hashlib
import struct
from functools import reduce
from operator import getitem, xor
from typing import Optional, Tuple

import numpy as np

from repro.crypto.hashing import constant_time_equal, hmac_sha256
from repro.errors import AuthenticationError, ConfigurationError

__all__ = ["Aead", "AesGcm", "ShakeHmacAead", "new_aead", "BULK_CIPHER",
           "TAG_LEN", "NONCE_LEN"]

TAG_LEN = 16
NONCE_LEN = 12
#: Name of the bulk cipher: the default wherever records are sealed or opened.
BULK_CIPHER = "shake256-hmac"

# ---------------------------------------------------------------------------
# AES-128 block cipher
# ---------------------------------------------------------------------------

_SBOX = [
    0x63, 0x7C, 0x77, 0x7B, 0xF2, 0x6B, 0x6F, 0xC5, 0x30, 0x01, 0x67, 0x2B,
    0xFE, 0xD7, 0xAB, 0x76, 0xCA, 0x82, 0xC9, 0x7D, 0xFA, 0x59, 0x47, 0xF0,
    0xAD, 0xD4, 0xA2, 0xAF, 0x9C, 0xA4, 0x72, 0xC0, 0xB7, 0xFD, 0x93, 0x26,
    0x36, 0x3F, 0xF7, 0xCC, 0x34, 0xA5, 0xE5, 0xF1, 0x71, 0xD8, 0x31, 0x15,
    0x04, 0xC7, 0x23, 0xC3, 0x18, 0x96, 0x05, 0x9A, 0x07, 0x12, 0x80, 0xE2,
    0xEB, 0x27, 0xB2, 0x75, 0x09, 0x83, 0x2C, 0x1A, 0x1B, 0x6E, 0x5A, 0xA0,
    0x52, 0x3B, 0xD6, 0xB3, 0x29, 0xE3, 0x2F, 0x84, 0x53, 0xD1, 0x00, 0xED,
    0x20, 0xFC, 0xB1, 0x5B, 0x6A, 0xCB, 0xBE, 0x39, 0x4A, 0x4C, 0x58, 0xCF,
    0xD0, 0xEF, 0xAA, 0xFB, 0x43, 0x4D, 0x33, 0x85, 0x45, 0xF9, 0x02, 0x7F,
    0x50, 0x3C, 0x9F, 0xA8, 0x51, 0xA3, 0x40, 0x8F, 0x92, 0x9D, 0x38, 0xF5,
    0xBC, 0xB6, 0xDA, 0x21, 0x10, 0xFF, 0xF3, 0xD2, 0xCD, 0x0C, 0x13, 0xEC,
    0x5F, 0x97, 0x44, 0x17, 0xC4, 0xA7, 0x7E, 0x3D, 0x64, 0x5D, 0x19, 0x73,
    0x60, 0x81, 0x4F, 0xDC, 0x22, 0x2A, 0x90, 0x88, 0x46, 0xEE, 0xB8, 0x14,
    0xDE, 0x5E, 0x0B, 0xDB, 0xE0, 0x32, 0x3A, 0x0A, 0x49, 0x06, 0x24, 0x5C,
    0xC2, 0xD3, 0xAC, 0x62, 0x91, 0x95, 0xE4, 0x79, 0xE7, 0xC8, 0x37, 0x6D,
    0x8D, 0xD5, 0x4E, 0xA9, 0x6C, 0x56, 0xF4, 0xEA, 0x65, 0x7A, 0xAE, 0x08,
    0xBA, 0x78, 0x25, 0x2E, 0x1C, 0xA6, 0xB4, 0xC6, 0xE8, 0xDD, 0x74, 0x1F,
    0x4B, 0xBD, 0x8B, 0x8A, 0x70, 0x3E, 0xB5, 0x66, 0x48, 0x03, 0xF6, 0x0E,
    0x61, 0x35, 0x57, 0xB9, 0x86, 0xC1, 0x1D, 0x9E, 0xE1, 0xF8, 0x98, 0x11,
    0x69, 0xD9, 0x8E, 0x94, 0x9B, 0x1E, 0x87, 0xE9, 0xCE, 0x55, 0x28, 0xDF,
    0x8C, 0xA1, 0x89, 0x0D, 0xBF, 0xE6, 0x42, 0x68, 0x41, 0x99, 0x2D, 0x0F,
    0xB0, 0x54, 0xBB, 0x16,
]

_RCON = [0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0x1B, 0x36]


# Tables for running a round over a whole batch of blocks as a handful of
# array gathers. The state is column-major: byte 4c + r is row r of column c.
#
# ShiftRows is an index permutation: output column c takes its row r from
# input column (c + r) mod 4. SubBytes and MixColumns collapse into one
# 256-entry table per state row: MixColumns multiplies a column by the
# circulant (2 3 1 1), so the byte in row r contributes that circulant's
# column r times its S-box value — four bytes, held as one uint32 so that a
# column's four contributions combine with three XORs.
_S = np.array(_SBOX, dtype=np.uint8)
_S2 = (_S << 1) ^ np.where(_S & 0x80, 0x1B, 0).astype(np.uint8)  # 2 * S-box
_S3 = _S2 ^ _S
_SHIFT_ROWS = np.array([4 * ((c + r) % 4) + r for c in range(4) for r in range(4)])
_ROW_SOURCES = [_SHIFT_ROWS[r::4] for r in range(4)]
_ROUND_TABLES = [
    np.stack(contribution, axis=1).view(np.uint32).ravel()
    for contribution in [(_S2, _S, _S, _S3), (_S3, _S2, _S, _S),
                         (_S, _S3, _S2, _S), (_S, _S, _S3, _S2)]
]


class _Aes128:
    """AES-128 block cipher (encryption direction only — GCM needs no
    inverse cipher), applied to any number of blocks at once."""

    def __init__(self, key: bytes) -> None:
        if len(key) != 16:
            raise ConfigurationError("AES-128 requires a 16-byte key")
        self._round_keys = self._expand_key(key)

    @staticmethod
    def _expand_key(key: bytes) -> np.ndarray:
        words = [list(key[i : i + 4]) for i in range(0, 16, 4)]
        for i in range(4, 44):
            temp = list(words[i - 1])
            if i % 4 == 0:
                temp = temp[1:] + temp[:1]
                temp = [_SBOX[b] for b in temp]
                temp[0] ^= _RCON[i // 4 - 1]
            words.append([a ^ b for a, b in zip(words[i - 4], temp)])
        # One flat 16-byte round key per round.
        return np.array(words, dtype=np.uint8).reshape(11, 16)

    def encrypt_blocks(self, blocks: np.ndarray) -> np.ndarray:
        """Encrypt an ``(n, 16)`` uint8 array of blocks; returns the same shape."""
        state = blocks ^ self._round_keys[0]
        t0, t1, t2, t3 = _ROUND_TABLES
        r0, r1, r2, r3 = _ROW_SOURCES
        # Round keys as one uint32 per column, like the tables' entries.
        for round_words in self._round_keys.view(np.uint32)[1:10]:
            columns = (
                t0.take(state.take(r0, axis=1)) ^ t1.take(state.take(r1, axis=1))
                ^ t2.take(state.take(r2, axis=1)) ^ t3.take(state.take(r3, axis=1))
                ^ round_words
            )
            state = columns.view(np.uint8)
        # The last round has no MixColumns.
        return _S.take(state.take(_SHIFT_ROWS, axis=1)) ^ self._round_keys[10]


# ---------------------------------------------------------------------------
# GHASH (GF(2^128) with the GCM reduction polynomial)
# ---------------------------------------------------------------------------

_R = 0xE1000000000000000000000000000000
_HEX_DIGITS = "0123456789abcdef"


class _Ghash:
    """GHASH under one hash subkey ``H``.

    Multiplication by ``H`` is linear over GF(2), so ``Y * H`` is the XOR of
    one precomputed product per 4-bit digit of ``Y``: 32 tables of 16
    entries, which cost less to build than three bit-serial
    multiplications and therefore pay for themselves on the shortest
    control message. Each table is keyed by hex digit so a block's 32
    lookups read straight off its hex rendering.
    """

    def __init__(self, h: int) -> None:
        self._tables = []
        power = h  # H * x^k, for k = 0..127 in turn
        for _ in range(32):
            digit_powers = []
            for _ in range(4):
                digit_powers.append(power)
                power = (power >> 1) ^ _R if power & 1 else power >> 1
            # GCM is bit-reflected: a digit's high bit is its lowest power.
            products = [0]
            for term in reversed(digit_powers):
                products += [product ^ term for product in products]
            self._tables.append(dict(zip(_HEX_DIGITS, products)))

    def digest(self, data: bytes) -> int:
        """GHASH of ``data``, whose length is a multiple of 16 bytes."""
        tables = self._tables
        y = 0
        for i in range(0, len(data), 16):
            y ^= int.from_bytes(data[i : i + 16], "big")
            y = reduce(xor, map(getitem, tables, "%032x" % y))
        return y


def _pad16(data: bytes) -> bytes:
    rem = len(data) % 16
    return data if rem == 0 else data + b"\x00" * (16 - rem)


def _split_tag(sealed: bytes) -> Tuple[bytes, bytes]:
    if len(sealed) < TAG_LEN:
        raise AuthenticationError("sealed message shorter than the tag")
    return sealed[:-TAG_LEN], sealed[-TAG_LEN:]


# ---------------------------------------------------------------------------
# AEAD interface
# ---------------------------------------------------------------------------


class Aead:
    """Interface: authenticated encryption with associated data."""

    name = "aead"

    def seal(self, nonce: bytes, plaintext: bytes, aad: bytes = b"") -> bytes:
        """Encrypt and authenticate; returns ``ciphertext || tag``."""
        raise NotImplementedError

    def open_prefix(self, nonce: bytes, sealed: bytes, aad: bytes,
                    length: int) -> bytes:
        """Verify the *whole* message, decrypt only its first ``length`` bytes.

        The tag check is exactly :meth:`open`'s — it covers every
        ciphertext byte, the nonce and ``aad``, and raises
        :class:`AuthenticationError` on any mismatch — so the result equals
        ``open(...)[:length]``; only the keystream past ``length`` is never
        generated. For callers that must authenticate a large record but
        need just its header.
        """
        raise NotImplementedError

    def open(self, nonce: bytes, sealed: bytes, aad: bytes = b"") -> bytes:
        """Verify and decrypt; raises :class:`AuthenticationError` on failure."""
        return self.open_prefix(nonce, sealed, aad, len(sealed))


class AesGcm(Aead):
    """AES-128-GCM, from scratch. Bit-exact against NIST test vectors."""

    name = "aes-128-gcm"

    def __init__(self, key: bytes) -> None:
        self._aes = _Aes128(key)
        self._ghash_key: Optional[_Ghash] = None

    @property
    def _ghash(self) -> _Ghash:
        # H = E(0) and its tables wait for the first message: a handshake
        # derives a send and a receive key at both ends, and half of them
        # never authenticate a record.
        if self._ghash_key is None:
            h = self._aes.encrypt_blocks(np.zeros((1, 16), dtype=np.uint8))
            self._ghash_key = _Ghash(int.from_bytes(h.tobytes(), "big"))
        return self._ghash_key

    def _keystream(self, nonce: bytes, length: int) -> Tuple[int, np.ndarray]:
        """``E(J0)`` for the tag and ``length`` bytes of CTR keystream, from
        one pass of the block cipher over counters ``J0, J0+1, ...``."""
        if len(nonce) == 12:
            j0 = nonce + b"\x00\x00\x00\x01"
        else:
            # GCM's non-96-bit-nonce path: J0 = GHASH(nonce).
            j0 = self._ghash.digest(
                _pad16(nonce) + struct.pack(">QQ", 0, len(nonce) * 8)
            ).to_bytes(16, "big")
        count = 1 + (length + 15) // 16
        first = int.from_bytes(j0[12:], "big")
        blocks = np.empty((count, 16), dtype=np.uint8)
        blocks[:, :12] = np.frombuffer(j0, dtype=np.uint8, count=12)
        # inc32: only the low 32 bits count and they wrap, which is what the
        # narrowing cast to a big-endian uint32 does.
        counters = np.arange(first, first + count, dtype=np.uint64).astype(">u4")
        blocks[:, 12:] = counters.view(np.uint8).reshape(count, 4)
        stream = self._aes.encrypt_blocks(blocks)
        return int.from_bytes(stream[0].tobytes(), "big"), stream[1:].ravel()[:length]

    def _tag(self, e_j0: int, ciphertext: bytes, aad: bytes) -> bytes:
        lengths = struct.pack(">QQ", len(aad) * 8, len(ciphertext) * 8)
        s = self._ghash.digest(_pad16(aad) + _pad16(ciphertext) + lengths)
        return (s ^ e_j0).to_bytes(16, "big")

    def seal(self, nonce: bytes, plaintext: bytes, aad: bytes = b"") -> bytes:
        e_j0, stream = self._keystream(nonce, len(plaintext))
        ciphertext = (np.frombuffer(plaintext, dtype=np.uint8) ^ stream).tobytes()
        return ciphertext + self._tag(e_j0, ciphertext, aad)

    def open_prefix(self, nonce: bytes, sealed: bytes, aad: bytes,
                    length: int) -> bytes:
        ciphertext, tag = _split_tag(sealed)
        prefix = ciphertext[:length]
        # E(J0) comes out of the same cipher pass as the keystream, so the
        # keystream exists before the verdict; no plaintext does.
        e_j0, stream = self._keystream(nonce, len(prefix))
        if not constant_time_equal(tag, self._tag(e_j0, ciphertext, aad)):
            raise AuthenticationError("AES-GCM tag mismatch")
        return (np.frombuffer(prefix, dtype=np.uint8) ^ stream).tobytes()


class ShakeHmacAead(Aead):
    """Encrypt-then-MAC AEAD for bulk tensor payloads.

    The keystream is ``SHAKE256(enc_key || nonce)`` squeezed to the message
    length — one call, and an XOF's output is prefix-consistent, so a
    shorter keystream is a prefix of a longer one. A sponge absorbs its key
    ahead of the nonce with no length-extension to guard against, so the
    keystream needs no HMAC-style nesting. The tag is
    ``HMAC-SHA256(mac_key, nonce || len(aad) || aad || ciphertext)[:16]``
    and is verified before any keystream exists. Both subkeys are derived
    from the single input key under labels that carry the cipher's name, so
    a record sealed by another construction under the same key fails its
    tag instead of decrypting to noise. This trades AES fidelity for
    throughput while keeping identical authenticate-then-decrypt semantics
    — documented in DESIGN.md as the bulk-data substitution for
    hardware-accelerated AES-GCM.
    """

    name = BULK_CIPHER

    def __init__(self, key: bytes) -> None:
        if len(key) < 16:
            raise ConfigurationError(f"{self.name} requires a key of >= 16 bytes")
        label = self.name.encode()
        self._enc_key = hmac_sha256(key, label + b"/enc")
        self._mac_key = hmac_sha256(key, label + b"/mac")

    def _keystream(self, nonce: bytes, length: int) -> bytes:
        return hashlib.shake_256(self._enc_key + nonce).digest(length)

    def _xor(self, nonce: bytes, data: bytes) -> bytes:
        stream = np.frombuffer(self._keystream(nonce, len(data)), dtype=np.uint8)
        return (np.frombuffer(data, dtype=np.uint8) ^ stream).tobytes()

    def _tag(self, nonce: bytes, ciphertext: bytes, aad: bytes) -> bytes:
        return hmac_sha256(
            self._mac_key, nonce, struct.pack("<Q", len(aad)), aad, ciphertext
        )[:TAG_LEN]

    def seal(self, nonce: bytes, plaintext: bytes, aad: bytes = b"") -> bytes:
        ciphertext = self._xor(nonce, plaintext)
        return ciphertext + self._tag(nonce, ciphertext, aad)

    def open_prefix(self, nonce: bytes, sealed: bytes, aad: bytes,
                    length: int) -> bytes:
        ciphertext, tag = _split_tag(sealed)
        if not constant_time_equal(tag, self._tag(nonce, ciphertext, aad)):
            raise AuthenticationError(f"{self.name} tag mismatch")
        return self._xor(nonce, ciphertext[:length])


def new_aead(key: bytes, bulk: bool = True, cipher: Optional[str] = None) -> Aead:
    """AEAD factory.

    Args:
        key: Symmetric key material (16 bytes for AES-GCM, >=16 otherwise).
        bulk: When True (default), pick the fast bulk cipher.
        cipher: Explicit cipher name (``AesGcm.name`` or
            :data:`BULK_CIPHER`), overriding ``bulk``.
    """
    if cipher is None:
        cipher = BULK_CIPHER if bulk else AesGcm.name
    if cipher == AesGcm.name:
        return AesGcm(key)
    if cipher == BULK_CIPHER:
        return ShakeHmacAead(key)
    raise ConfigurationError(f"unknown AEAD cipher {cipher!r}")
