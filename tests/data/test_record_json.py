"""The record encoders against the JSON path they replace.

:func:`record_aad` and :func:`record_header` format a record's canonical
JSON directly. Their bytes are the AEAD associated data of every sealed
record and the content identity of every ledger record, so they must equal
``json.dumps(..., sort_keys=True, separators=(",", ":"), allow_nan=False)``
of the old dicts for every input, or raise the same exception type.
"""

import json

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.data.encryption import EncryptedRecord, record_aad
from repro.ingest.ledger import record_header


def _dumps(value):
    """The old encoder, written out: the oracle the new code must match."""
    return json.dumps(value, sort_keys=True, separators=(",", ":"),
                      allow_nan=False).encode("utf-8")


def _outcome(encode, *args):
    """What ``encode`` gives: its bytes, or the type of what it raised."""
    try:
        return encode(*args)
    except Exception as exc:
        return type(exc)


def _old_aad(source, index, label):
    return _dumps({"source": source, "index": index, "label": label})


def _old_header(record):
    return _dumps({"source": record.source_id, "index": record.index,
                   "label": record.label, "nonce": record.nonce.hex()})


_NUMPY_INTS = st.sampled_from([np.int8, np.int32, np.int64, np.uint64])

#: Every source id a client could send: quotes, backslashes, control
#: characters, lone surrogates, non-BMP.
_texts = st.one_of(
    st.text(st.characters(blacklist_categories=())),
    st.sampled_from(['"', "\\", "\x00\x1f\x7f", "\U0001f600", 'c"é源',
                     "\ud800", "</script>"]),
)
#: Plus values that are not strings.
_sources = st.one_of(_texts, st.none(), st.integers(), st.binary(max_size=4))

#: Exact ints: negative, and past 2**63.
_ints = st.one_of(st.integers(), st.integers(2 ** 63 - 2, 2 ** 80),
                  st.integers(-2 ** 80, -2 ** 63))
#: Plus what is not exactly int.
_fields = st.one_of(
    _ints,
    st.booleans(),
    st.builds(lambda kind, value: kind(value), _NUMPY_INTS,
              st.integers(0, 100)),
    st.floats(), st.none(), st.text(max_size=3),
)


class TestRecordAad:
    @settings(max_examples=300, deadline=None)
    @given(source=_texts, index=_ints, label=_ints)
    def test_exact_types_equal_the_json_path(self, source, index, label):
        assert record_aad(source, index, label) == \
            _old_aad(source, index, label)

    @settings(max_examples=400, deadline=None)
    @given(source=_sources, index=_fields, label=_fields)
    @example(source="c0", index=10 ** 5000, label=1)  # past int's str limit
    @example(source="c0", index=True, label=np.int64(3))
    def test_equals_the_json_path(self, source, index, label):
        assert _outcome(record_aad, source, index, label) == \
            _outcome(_old_aad, source, index, label)

    def test_known_answer(self):
        assert record_aad('c"é源', -(2 ** 64), 2 ** 63) == (
            b'{"index":-18446744073709551616,"label":9223372036854775808,'
            b'"source":"c\\"\\u00e9\\u6e90"}')
        assert record_aad("c0", True, 1) == \
            b'{"index":true,"label":1,"source":"c0"}'


class TestRecordHeader:
    @settings(max_examples=300, deadline=None)
    @given(source=_texts, index=_ints, label=_ints,
           nonce=st.binary(min_size=12, max_size=12))
    def test_exact_types_equal_the_json_path(self, source, index, label,
                                             nonce):
        record = EncryptedRecord(source_id=source, index=index, label=label,
                                 nonce=nonce, sealed=b"")
        assert record_header(record) == _old_header(record)

    @settings(max_examples=400, deadline=None)
    @given(source=_sources, index=_fields, label=_fields,
           nonce=st.one_of(st.binary(max_size=16),
                           st.builds(bytearray, st.binary(max_size=4)),
                           st.none()))
    @example(source="c0", index=1, label=-(10 ** 5000), nonce=bytes(12))
    def test_equals_the_json_path(self, source, index, label, nonce):
        record = EncryptedRecord(source_id=source, index=index, label=label,
                                 nonce=nonce, sealed=b"")
        assert _outcome(record_header, record) == \
            _outcome(_old_header, record)
