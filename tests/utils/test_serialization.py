"""Tests for canonical serialization and stable hashing."""

import json
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.utils.serialization import (
    array_from_bytes,
    array_header,
    array_to_bytes,
    canonical_digest,
    canonical_json,
    row_digests,
)


class TestArrayRoundtrip:
    @given(
        hnp.arrays(
            dtype=st.sampled_from([np.float32, np.float64, np.int64, np.uint8]),
            shape=hnp.array_shapes(max_dims=4, max_side=6),
        )
    )
    def test_roundtrip(self, array):
        restored = array_from_bytes(array_to_bytes(array))
        assert restored.dtype == array.dtype
        assert restored.shape == array.shape
        np.testing.assert_array_equal(restored, array)

    def test_non_contiguous_equals_contiguous(self):
        base = np.arange(24, dtype=np.float32).reshape(4, 6)
        view = base[:, ::2]
        assert array_to_bytes(view) == array_to_bytes(view.copy())

    def test_bad_magic_rejected(self):
        with pytest.raises(ValueError):
            array_from_bytes(b"nope" + b"\x00" * 32)

    def test_zero_size_array(self):
        empty = np.zeros((0, 3), dtype=np.float32)
        restored = array_from_bytes(array_to_bytes(empty))
        assert restored.shape == (0, 3)


class TestArrayHeader:
    def test_header_from_a_prefix(self):
        array = np.zeros((28, 28, 3), dtype=np.float32)
        blob = array_to_bytes(array)
        dtype, shape, offset = array_header(blob[:64])
        assert (dtype, shape) == (array.dtype, array.shape)
        assert blob[offset:] == array.tobytes()

    @pytest.mark.parametrize("blob", [
        b"",
        b"nope" + bytes(32),
        b"RPR1",                                        # nothing after magic
        b"RPR1\x03\x00\x00\x00<f",                       # dtype cut short
        b"RPR1\xff\xff\xff\xff<f4",                      # absurd dtype length
        b"RPR1\x03\x00\x00\x00<f4",                      # no ndim
        b"RPR1\x03\x00\x00\x00<f4\x02\x00\x00\x00" + bytes(8),  # 1 of 2 dims
        b"RPR1\x03\x00\x00\x00<f4\xff\xff\xff\xff",    # absurd ndim
        b"RPR1\x03\x00\x00\x00zzz\x01\x00\x00\x00" + bytes(8),  # no such dtype
        b"RPR1\x03\x00\x00\x00\xff\xfe\xfd\x01\x00\x00\x00" + bytes(8),
        b"RPR1\x02\x00\x00\x00|O\x01\x00\x00\x00" + bytes(8),    # object dtype
        b"RPR1\x03\x00\x00\x00|V0\x01\x00\x00\x00" + bytes(8),   # itemsize 0
        b"RPR1\x05\x00\x00\x00i4,i4\x01\x00\x00\x00" + bytes(8),  # dtype grammar
    ])
    def test_malformed_header_is_a_value_error(self, blob):
        with pytest.raises(ValueError):
            array_header(blob)
        with pytest.raises(ValueError):
            array_from_bytes(blob)

    def test_payload_must_match_the_declared_shape(self):
        blob = array_to_bytes(np.zeros((2, 3), dtype=np.float32))
        for bad in (blob[:-4], blob[:-1], blob + bytes(4)):
            with pytest.raises(ValueError):
                array_from_bytes(bad)


#: Any JSON value: nested lists and objects over every scalar kind.
_json_values = st.recursive(
    st.none() | st.booleans() | st.integers()
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(st.characters(blacklist_categories=())),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=6), children, max_size=4),
    max_leaves=20,
)


class TestCanonicalJson:
    def test_key_order_independent(self):
        assert canonical_json({"b": 1, "a": 2}) == canonical_json({"a": 2, "b": 1})

    def test_no_whitespace(self):
        assert b" " not in canonical_json({"a": [1, 2], "b": "x y"}).replace(b'"x y"', b"")

    @given(_json_values)
    def test_equals_json_dumps(self, value):
        assert canonical_json(value) == json.dumps(
            value, sort_keys=True, separators=(",", ":"),
            allow_nan=False).encode()

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_floats_rejected_both_ways(self, bad):
        for value in (bad, [1, {"a": bad}]):
            with pytest.raises(ValueError):
                canonical_json(value)
            with pytest.raises(ValueError):
                json.dumps(value, allow_nan=False)


class TestStableHash:
    def test_deterministic(self):
        arr = np.ones((3, 3), dtype=np.float32)
        assert canonical_digest(arr, "label", 5) == canonical_digest(arr, "label", 5)

    def test_array_content_sensitivity(self):
        a = np.zeros(4, dtype=np.float32)
        b = np.zeros(4, dtype=np.float32)
        b[0] = 1e-6
        assert canonical_digest(a) != canonical_digest(b)

    def test_dtype_sensitivity(self):
        a = np.zeros(4, dtype=np.float32)
        assert canonical_digest(a) != canonical_digest(a.astype(np.float64))

    def test_length_prefixing_prevents_concat_collisions(self):
        assert canonical_digest(b"ab", b"c") != canonical_digest(b"a", b"bc")

    def test_mixed_parts(self):
        digest = canonical_digest(np.arange(3), b"raw", {"k": 1})
        assert isinstance(digest, bytes) and len(digest) == 32


class TestRowDigests:
    @given(
        hnp.arrays(dtype=st.sampled_from([np.float32, np.float64]),
                   shape=st.tuples(st.integers(0, 40), st.integers(1, 64))),
        st.sampled_from(["C", "F", "strided"]),
    )
    def test_equals_canonical_digest_of_each_row(self, matrix, layout):
        if layout == "F":
            matrix = np.asfortranarray(matrix)
        elif layout == "strided":
            matrix = np.repeat(np.repeat(matrix, 2, axis=0), 2,
                               axis=1)[::2, ::2]
        assert row_digests(matrix) == [canonical_digest(row) for row in matrix]
