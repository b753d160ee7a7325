"""Ablation A9 — AEAD cipher choice for bulk training data.

DESIGN.md documents the one crypto substitution in this reproduction: the
paper's hardware-accelerated AES-GCM handles bulk training data, while an
AES-GCM without AES instructions cannot keep up. This bench quantifies the
substitution: the from-scratch AES-GCM (bit-exact, table-driven and
vectorised over a message's blocks; used for control messages and enclave
seals) vs the SHAKE-256 bulk AEAD (used for tensor payloads), at the three
sizes the system actually seals — one block (a provisioned key), 11 KB (a
sealed FrontNet checkpoint) and one 28x28x3 training record — plus the
check that both reject the same forgeries.

Set ``REPRO_BENCH_SMOKE=1`` for the reduced CI configuration (fewer
repeats; the bars are the same).
"""

import os
import time

import numpy as np

from repro.crypto.aead import AesGcm, ShakeHmacAead
from repro.errors import AuthenticationError

SMOKE = os.environ.get("REPRO_BENCH_SMOKE") == "1"
REPEATS = 5 if SMOKE else 40

#: AES-GCM on the 11 KB checkpoint blob must stay above this. The
#: vectorised core measures ~5 MB/s on the reference host; the per-byte
#: Python loops it replaced measured 0.2 MB/s, so a regression to anything
#: like them fails here with a wide margin for a slow CI host.
GCM_FLOOR_MBPS = 1.0


def _mbps(fn, nbytes):
    """Best-of-three mean over ``REPEATS`` calls, in MB/s."""
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        for _ in range(REPEATS):
            fn()
        best = min(best, (time.perf_counter() - start) / REPEATS)
    return nbytes / best / 1e6


def _seal_open_mbps(cipher, payload):
    nonce = b"\x01" * 12
    sealed = cipher.seal(nonce, payload)
    return (_mbps(lambda: cipher.seal(nonce, payload), len(payload)),
            _mbps(lambda: cipher.open(nonce, sealed), len(payload)))


def test_cipher_throughput(benchmark):
    key = bytes(range(16))
    rng = np.random.default_rng(0)
    record = rng.random((28, 28, 3)).astype(np.float32).tobytes()
    payloads = [
        ("1 block (16 B)", rng.bytes(16)),
        ("checkpoint blob (11 KB)", rng.bytes(11 * 1024)),
        ("28x28x3 record (9.4 KB)", record),
    ]
    gcm = AesGcm(key)
    bulk = ShakeHmacAead(key)

    print("\nA9 - AEAD seal / open throughput, MB/s")
    print(f"  {'payload':<26}{'AES-128-GCM':>18}{'SHAKE256-HMAC':>18}{'ratio':>8}")
    rates = {}
    for name, payload in payloads:
        gcm_seal, gcm_open = _seal_open_mbps(gcm, payload)
        bulk_seal, bulk_open = _seal_open_mbps(bulk, payload)
        rates[name] = ((gcm_seal + gcm_open) / 2, (bulk_seal + bulk_open) / 2)
        print(f"  {name:<26}{gcm_seal:>9.2f} /{gcm_open:>7.2f}"
              f"{bulk_seal:>9.1f} /{bulk_open:>7.1f}"
              f"{rates[name][1] / rates[name][0]:>7.0f}x")

    # Claim 1: on a training record the bulk path is well over an order of
    # magnitude faster — the reason the substitution exists. (Measured
    # ~59x with the keystream one XOF call; the HMAC-CTR cipher it replaced,
    # one interpreter-level hash call per 32-byte block, measured ~16x, so
    # a return to a per-block loop fails here.)
    gcm_record, bulk_record = rates["28x28x3 record (9.4 KB)"]
    assert bulk_record > 20 * gcm_record

    # Claim 2: AES-GCM is fast enough for what it seals — a checkpoint
    # blob is milliseconds, not a visible share of a training pass.
    gcm_blob, _ = rates["checkpoint blob (11 KB)"]
    assert gcm_blob > GCM_FLOOR_MBPS

    # Claim 3: identical authenticate-then-decrypt semantics — the same
    # forgeries fail under both ciphers.
    nonce = b"\x02" * 12
    for cipher in (gcm, bulk):
        sealed = bytearray(cipher.seal(nonce, record[:256], b"source=p0"))
        sealed[10] ^= 0xFF
        try:
            cipher.open(nonce, bytes(sealed), b"source=p0")
            raise AssertionError("forgery accepted")
        except AuthenticationError:
            pass
        good = cipher.seal(nonce, record[:256], b"source=p0")
        try:
            cipher.open(nonce, good, b"source=p1")  # spoofed source
            raise AssertionError("source spoof accepted")
        except AuthenticationError:
            pass

    benchmark(bulk.seal, b"\x03" * 12, record)
