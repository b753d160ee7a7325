"""The encrypted provisioning format for training data.

Participants locally seal their private training data with their own
symmetric keys and submit the encrypted records to the training server
(paper, Section IV-A). Labels travel in the clear — the threat model says
participants "will release the training data labels attached to their
corresponding (encrypted) training instances" — but are *authenticated*: the
AEAD associated data binds (source id, record index, label), so relabelling
or splicing a record is detected exactly like a forged payload.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii
from typing import Iterator, List, Optional, Tuple

import numpy as np

from repro.crypto.aead import BULK_CIPHER, TAG_LEN, Aead, new_aead
from repro.crypto.keys import SymmetricKey
from repro.data.datasets import Dataset
from repro.utils.serialization import (
    array_from_bytes,
    array_header,
    array_to_bytes,
    canonical_json,
)

__all__ = [
    "EncryptedRecord",
    "EncryptedDataset",
    "encrypt_dataset",
    "iter_encrypted_records",
    "decrypt_record",
    "authenticated_shape",
    "record_aad",
    "record_json",
]


@dataclass(frozen=True)
class EncryptedRecord:
    """One encrypted training instance with its cleartext label."""

    source_id: str
    index: int
    label: int
    nonce: bytes
    sealed: bytes  # AEAD ciphertext || tag over the serialized image tensor


@dataclass
class EncryptedDataset:
    """All encrypted records from one participant."""

    source_id: str
    records: List[EncryptedRecord]

    def __len__(self) -> int:
        return len(self.records)


def record_json(source_id: str, index: int, label: int,
                nonce_hex: Optional[str] = None) -> bytes:
    """``canonical_json`` of a record's fields: its AEAD associated data,
    with ``nonce_hex`` its ledger header. Exact ``str`` / ``int`` fields are
    formatted directly (sorted keys, ``json.dumps``'s escaper); other types
    (a ``bool``, a numpy int) go through :func:`canonical_json`."""
    if (type(source_id) is str and type(index) is type(label) is int
            and (nonce_hex is None or type(nonce_hex) is str)):
        nonce = ("" if nonce_hex is None
                 else ',"nonce":' + encode_basestring_ascii(nonce_hex))
        return ('{"index":%d,"label":%d%s,"source":%s}' % (
            index, label, nonce, encode_basestring_ascii(source_id))).encode()
    fields = {"source": source_id, "index": index, "label": label}
    if nonce_hex is not None:
        fields["nonce"] = nonce_hex
    return canonical_json(fields)


def record_aad(source_id: str, index: int, label: int) -> bytes:
    """Associated data binding a record to its source, index, and label."""
    return record_json(source_id, index, label)


def iter_encrypted_records(dataset: Dataset, key: SymmetricKey, source_id: str,
                           cipher: str = BULK_CIPHER,
                           start_index: int = 0) -> Iterator[EncryptedRecord]:
    """Lazily seal ``dataset``, streaming records out as they are produced.

    Unlike :func:`encrypt_dataset`, nothing is materialised beyond one
    record: a million-record dataset streams through a chunked upload with
    O(1) memory, and pulling one record consumes exactly one nonce.

    ``start_index`` supports resuming an interrupted upload: records before
    it are skipped without being re-encrypted (the caller is responsible
    for advancing ``key`` past any already-spent nonces first — see
    :meth:`~repro.crypto.keys.SymmetricKey.advance_past`).
    """
    aead = new_aead(key.material, cipher=cipher)
    for i in range(start_index, len(dataset)):
        nonce = key.next_nonce()
        label = int(dataset.y[i])
        sealed = aead.seal(
            nonce, array_to_bytes(dataset.x[i]),
            record_aad(source_id, i, label),
        )
        yield EncryptedRecord(
            source_id=source_id, index=i, label=label, nonce=nonce,
            sealed=sealed,
        )


def encrypt_dataset(dataset: Dataset, key: SymmetricKey, source_id: str,
                    cipher: str = BULK_CIPHER) -> EncryptedDataset:
    """Seal every instance of ``dataset`` under the participant's key."""
    return EncryptedDataset(
        source_id=source_id,
        records=list(iter_encrypted_records(dataset, key, source_id,
                                            cipher=cipher)),
    )


def decrypt_record(record: EncryptedRecord, aead: Aead) -> Tuple[np.ndarray, int]:
    """Authenticate and decrypt one record; returns (image, label).

    Raises :class:`repro.errors.AuthenticationError` if the record was
    forged, tampered with, or relabelled.
    """
    aad = record_aad(record.source_id, record.index, record.label)
    plaintext = aead.open(record.nonce, record.sealed, aad)
    return array_from_bytes(plaintext), record.label


#: Plaintext bytes :func:`authenticated_shape` decrypts: the tensor header
#: of any array of up to five dimensions (magic, dtype string, ndim, dims).
_HEADER_PREFIX = 64


def authenticated_shape(record: EncryptedRecord,
                        aead: Aead) -> Optional[Tuple[int, ...]]:
    """Authenticate one record and report its tensor shape, nothing more.

    The tag is verified over the whole sealed payload (so a flipped byte
    anywhere raises :class:`repro.errors.AuthenticationError`, exactly as
    :func:`decrypt_record` would), but only the serialization header is
    decrypted: the instance itself is never materialised. Returns ``None``
    when the authenticated plaintext is not a well-formed tensor whose
    payload has exactly the size its header declares — a registered
    contributor can seal anything under a valid tag.
    """
    aad = record_aad(record.source_id, record.index, record.label)
    header = aead.open_prefix(record.nonce, record.sealed, aad, _HEADER_PREFIX)
    try:
        dtype, shape, data_offset = array_header(header)
    except ValueError:
        return None
    payload = len(record.sealed) - TAG_LEN - data_offset
    if math.prod(shape) * dtype.itemsize != payload:
        return None
    return shape
