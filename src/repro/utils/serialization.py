"""Canonical serialization helpers.

The linkage database stores hash digests of training instances, enclave
measurement covers loaded code/data, and AEAD operates over byte strings —
all of which need a *canonical* byte representation of numpy arrays and
plain-Python structures so that hashes are stable across runs and platforms.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
import struct
from typing import Any, List, Tuple

import numpy as np

__all__ = [
    "array_to_bytes",
    "array_header",
    "array_from_bytes",
    "canonical_digest",
    "canonical_json",
    "row_digests",
]

_MAGIC = b"RPR1"
# What ``ndarray.dtype.str`` looks like; nothing else reaches ``np.dtype``,
# whose full grammar is more than a parser of untrusted bytes should accept.
_DTYPE_STR = re.compile(rb"[<>|=][A-Za-z][0-9]*(\[[A-Za-z0-9]+\])?")
# ``json.dumps`` with these arguments builds this encoder on every call.
_CANONICAL = json.JSONEncoder(sort_keys=True, separators=(",", ":"),
                              allow_nan=False)


def array_to_bytes(array: np.ndarray) -> bytes:
    """Serialize an array to a self-describing canonical byte string.

    The encoding is ``MAGIC | dtype-len | dtype-str | ndim | dims... | data``
    with little-endian, C-contiguous payload, so equal arrays always produce
    equal bytes regardless of their in-memory layout.
    """
    arr = np.ascontiguousarray(array)
    dtype_str = arr.dtype.str.encode("ascii")
    header = _MAGIC + struct.pack("<I", len(dtype_str)) + dtype_str
    header += struct.pack("<I", arr.ndim)
    header += b"".join(struct.pack("<Q", dim) for dim in arr.shape)
    return header + arr.tobytes(order="C")


def array_header(blob: bytes) -> Tuple[np.dtype, Tuple[int, ...], int]:
    """Parse the header of a serialized array: ``(dtype, shape, data_offset)``.

    ``blob`` may be a prefix of the encoding as long as it holds the whole
    header. Raises :class:`ValueError` on anything else — wrong magic, a
    header cut short, a dtype that is not a plain fixed-size one — so
    callers parsing bytes they did not write need one ``except``.
    """
    if blob[:4] != _MAGIC:
        raise ValueError("not a serialized array (bad magic)")
    try:
        (dtype_len,) = struct.unpack_from("<I", blob, 4)
        offset = 8 + dtype_len
        if not _DTYPE_STR.fullmatch(blob[8:offset]):
            raise ValueError("serialized array has a malformed dtype string")
        dtype = np.dtype(blob[8:offset].decode("ascii"))
        (ndim,) = struct.unpack_from("<I", blob, offset)
        offset += 4
        shape = struct.unpack_from(f"<{ndim}Q", blob, offset)
    except (struct.error, TypeError) as exc:
        raise ValueError(f"malformed serialized array header: {exc}") from exc
    if dtype.hasobject or dtype.itemsize == 0:
        raise ValueError(f"serialized array has unsupported dtype {dtype}")
    return dtype, shape, offset + 8 * ndim


def array_from_bytes(blob: bytes) -> np.ndarray:
    """Inverse of :func:`array_to_bytes`."""
    dtype, shape, offset = array_header(blob)
    if math.prod(shape) * dtype.itemsize != len(blob) - offset:
        raise ValueError("serialized array payload does not match its shape")
    data = np.frombuffer(blob, dtype=dtype, offset=offset)
    return data.reshape(shape).copy()


def canonical_json(value: Any) -> bytes:
    """Serialize a JSON-able value with sorted keys and no whitespace.

    Float formatting is Python's shortest round-trip ``repr`` (the only
    encoding two CPython builds agree on bit-for-bit), and non-finite
    floats are rejected outright: ``NaN``/``Infinity`` are not JSON, and
    letting them through would make a digest that other JSON stacks
    cannot reproduce.
    """
    return _CANONICAL.encode(value).encode("utf-8")


def canonical_digest(*parts: Any) -> bytes:
    """SHA-256 over a sequence of heterogeneous parts — *the* digest.

    Every content-addressed identity in the system (ledger manifests,
    checkpoint config digests, linkage-store snapshots, governance run
    keys) is defined in terms of this one function so they can never
    drift apart. Arrays are canonicalised via :func:`array_to_bytes`,
    bytes pass through, and everything else goes through
    :func:`canonical_json`. Each part is length-prefixed so
    concatenation ambiguity cannot create collisions.
    """
    hasher = hashlib.sha256()
    for part in parts:
        if isinstance(part, np.ndarray):
            encoded = array_to_bytes(part)
        elif isinstance(part, (bytes, bytearray)):
            encoded = bytes(part)
        else:
            encoded = canonical_json(part)
        hasher.update(struct.pack("<Q", len(encoded)))
        hasher.update(encoded)
    return hasher.digest()


def row_digests(matrix: np.ndarray) -> List[bytes]:
    """``[canonical_digest(row) for row in matrix]``, byte for byte: the rows
    share one encoding header, hashed once, and each row then costs one
    SHA-256 continuation over its C-order bytes."""
    rows = np.ascontiguousarray(matrix)
    blank = np.zeros(rows.shape[1:], dtype=rows.dtype)
    encoded = array_to_bytes(blank)
    prefix = hashlib.sha256(struct.pack("<Q", len(encoded))
                            + encoded[:len(encoded) - blank.nbytes])
    digests = []
    for row in rows:
        hasher = prefix.copy()
        hasher.update(row)
        digests.append(hasher.digest())
    return digests
