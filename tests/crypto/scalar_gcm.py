"""Scalar AES-128-GCM: the independent oracle for ``repro.crypto.aead``.

This is the one-block-at-a-time, one-bit-at-a-time implementation the
library used before its AES-GCM core was vectorised: a per-byte AES round
and a 128-iteration GF(2^128) multiplication, straight from FIPS-197 and
SP 800-38D. It shares nothing with ``src/`` — its own S-box, its own
multiplication — so a table or indexing slip in the fast core cannot hide
behind a matching slip here. Slow on purpose; tests only.
"""

import struct

_SBOX = bytes.fromhex(
    "637c777bf26b6fc53001672bfed7ab76ca82c97dfa5947f0add4a2af9ca472c0"
    "b7fd9326363ff7cc34a5e5f171d8311504c723c31896059a071280e2eb27b275"
    "09832c1a1b6e5aa0523bd6b329e32f8453d100ed20fcb15b6acbbe394a4c58cf"
    "d0efaafb434d338545f9027f503c9fa851a3408f929d38f5bcb6da2110fff3d2"
    "cd0c13ec5f974417c4a77e3d645d197360814fdc222a908846eeb814de5e0bdb"
    "e0323a0a4906245cc2d3ac629195e479e7c8376d8dd54ea96c56f4ea657aae08"
    "ba78252e1ca6b4c6e8dd741f4bbd8b8a703eb5664803f60e613557b986c11d9e"
    "e1f8981169d98e949b1e87e9ce5528df8ca1890dbfe6426841992d0fb054bb16"
)
_RCON = [0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0x1B, 0x36]


def _xtime(a):
    a <<= 1
    if a & 0x100:
        a ^= 0x11B
    return a & 0xFF


def _expand_key(key):
    words = [list(key[i : i + 4]) for i in range(0, 16, 4)]
    for i in range(4, 44):
        temp = list(words[i - 1])
        if i % 4 == 0:
            temp = temp[1:] + temp[:1]
            temp = [_SBOX[b] for b in temp]
            temp[0] ^= _RCON[i // 4 - 1]
        words.append([a ^ b for a, b in zip(words[i - 4], temp)])
    return [
        [b for word in words[4 * r : 4 * r + 4] for b in word]
        for r in range(11)
    ]


def _round(state, round_key, mix):
    # SubBytes + ShiftRows fused: output column c pulls row r from
    # column (c + r) mod 4 of the input state (column-major layout).
    t = [0] * 16
    for c in range(4):
        for r in range(4):
            t[4 * c + r] = _SBOX[state[4 * ((c + r) % 4) + r]]
    if mix:
        out = [0] * 16
        for c in range(4):
            a0, a1, a2, a3 = t[4 * c : 4 * c + 4]
            out[4 * c + 0] = _xtime(a0) ^ _xtime(a1) ^ a1 ^ a2 ^ a3
            out[4 * c + 1] = a0 ^ _xtime(a1) ^ _xtime(a2) ^ a2 ^ a3
            out[4 * c + 2] = a0 ^ a1 ^ _xtime(a2) ^ _xtime(a3) ^ a3
            out[4 * c + 3] = _xtime(a0) ^ a0 ^ a1 ^ a2 ^ _xtime(a3)
        t = out
    return [b ^ k for b, k in zip(t, round_key)]


def encrypt_block(key, block):
    """AES-128 of one 16-byte block."""
    round_keys = _expand_key(key)
    s = [b ^ k for b, k in zip(block, round_keys[0])]
    for rnd in range(1, 10):
        s = _round(s, round_keys[rnd], mix=True)
    return bytes(_round(s, round_keys[10], mix=False))


_R = 0xE1000000000000000000000000000000


def _gf_mul(x, y):
    """Multiply two field elements in GCM's bit-reflected GF(2^128)."""
    z = 0
    v = x
    for i in range(127, -1, -1):
        if (y >> i) & 1:
            z ^= v
        if v & 1:
            v = (v >> 1) ^ _R
        else:
            v >>= 1
    return z


def ghash(h, data):
    """GHASH of ``data`` (zero-padded to whole blocks) under subkey ``h``."""
    y = 0
    for i in range(0, len(data), 16):
        block = data[i : i + 16].ljust(16, b"\x00")
        y = _gf_mul(y ^ int.from_bytes(block, "big"), h)
    return y


def _pad16(data):
    return data + b"\x00" * (-len(data) % 16)


def seal(key, nonce, plaintext, aad=b""):
    """AES-128-GCM ``ciphertext || tag`` (SP 800-38D, any nonce length)."""
    h = int.from_bytes(encrypt_block(key, bytes(16)), "big")
    if len(nonce) == 12:
        j0 = nonce + b"\x00\x00\x00\x01"
    else:
        j0 = ghash(
            h, _pad16(nonce) + struct.pack(">QQ", 0, len(nonce) * 8)
        ).to_bytes(16, "big")

    def counter_block(offset):
        low = (int.from_bytes(j0[12:], "big") + offset) & 0xFFFFFFFF  # inc32
        return j0[:12] + low.to_bytes(4, "big")

    ciphertext = bytearray()
    for i in range(0, len(plaintext), 16):
        keystream = encrypt_block(key, counter_block(1 + i // 16))
        ciphertext.extend(
            a ^ b for a, b in zip(plaintext[i : i + 16], keystream)
        )
    lengths = struct.pack(">QQ", len(aad) * 8, len(ciphertext) * 8)
    s = ghash(h, _pad16(aad) + _pad16(bytes(ciphertext)) + lengths)
    tag = s ^ int.from_bytes(encrypt_block(key, j0), "big")
    return bytes(ciphertext) + tag.to_bytes(16, "big")
