"""Tests for the AEAD ciphers, including NIST AES-GCM vectors."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.aead import (BULK_CIPHER, AesGcm, ShakeHmacAead, _Aes128,
                               _Ghash, new_aead)
from repro.crypto.hashing import hmac_sha256
from repro.errors import AuthenticationError, ConfigurationError

from tests.crypto import legacy_hmac_ctr, scalar_gcm, scalar_keccak


class TestAesGcmVectors:
    """NIST GCM test vectors (McGrew & Viega test cases)."""

    def test_empty_plaintext(self):
        # Test case 1: all-zero key/IV, empty plaintext.
        cipher = AesGcm(bytes(16))
        sealed = cipher.seal(bytes(12), b"")
        assert sealed.hex() == "58e2fccefa7e3061367f1d57a4e7455a"

    def test_single_zero_block(self):
        # Test case 2.
        cipher = AesGcm(bytes(16))
        sealed = cipher.seal(bytes(12), bytes(16))
        assert sealed[:16].hex() == "0388dace60b6a392f328c2b971b2fe78"
        assert sealed[16:].hex() == "ab6e47d42cec13bdf53a67b21257bddf"

    def test_case_3_long_plaintext(self):
        key = bytes.fromhex("feffe9928665731c6d6a8f9467308308")
        iv = bytes.fromhex("cafebabefacedbaddecaf888")
        pt = bytes.fromhex(
            "d9313225f88406e5a55909c5aff5269a86a7a9531534f7da2e4c303d8a318a72"
            "1c3c0c95956809532fcf0e2449a6b525b16aedf5aa0de657ba637b391aafd255"
        )
        sealed = AesGcm(key).seal(iv, pt)
        assert sealed[-16:].hex() == "4d5c2af327cd64a62cf35abd2ba6fab4"

    def test_case_4_with_aad(self):
        key = bytes.fromhex("feffe9928665731c6d6a8f9467308308")
        iv = bytes.fromhex("cafebabefacedbaddecaf888")
        pt = bytes.fromhex(
            "d9313225f88406e5a55909c5aff5269a86a7a9531534f7da2e4c303d8a318a72"
            "1c3c0c95956809532fcf0e2449a6b525b16aedf5aa0de657ba637b39"
        )
        aad = bytes.fromhex("feedfacedeadbeeffeedfacedeadbeefabaddad2")
        sealed = AesGcm(key).seal(iv, pt, aad)
        assert sealed[-16:].hex() == "5bc94fbc3221a5db94fae95ae7121a47"

    _KEY = bytes.fromhex("feffe9928665731c6d6a8f9467308308")
    _PT60 = bytes.fromhex(
        "d9313225f88406e5a55909c5aff5269a86a7a9531534f7da2e4c303d8a318a72"
        "1c3c0c95956809532fcf0e2449a6b525b16aedf5aa0de657ba637b39"
    )
    _AAD = bytes.fromhex("feedfacedeadbeeffeedfacedeadbeefabaddad2")

    @pytest.mark.parametrize("iv, ciphertext, tag", [
        # Test case 4 (96-bit IV): the whole ciphertext, not only the tag.
        ("cafebabefacedbaddecaf888",
         "42831ec2217774244b7221b784d0d49ce3aa212f2c02a4e035c17e2329aca12e"
         "21d514b25466931c7d8f6a5aac84aa051ba30b396a0aac973d58e091",
         "5bc94fbc3221a5db94fae95ae7121a47"),
        # Test case 5 (64-bit IV) and 6 (480-bit IV): J0 = GHASH(IV).
        ("cafebabefacedbad",
         "61353b4c2806934a777ff51fa22a4755699b2a714fcdc6f83766e5f97b6c7423"
         "73806900e49f24b22b097544d4896b424989b5e1ebac0f07c23f4598",
         "3612d2e79e3b0785561be14aaca2fccb"),
        ("9313225df88406e555909c5aff5269aa6a7a9538534f7da1e4c303d2a318a728"
         "c3c0c95156809539fcf0e2429a6b525416aedbf5a0de6a57a637b39b",
         "8ce24998625615b603a033aca13fb894be9112a5c3a211a8ba262a3cca7e2ca7"
         "01e4a9a4fba43c90ccdcb281d48c7c6fd62875d2aca417034c34aee5",
         "619cc5aefffe0bfa462af43c1699d050"),
    ])
    def test_cases_4_to_6_both_directions(self, iv, ciphertext, tag):
        cipher = AesGcm(self._KEY)
        sealed = cipher.seal(bytes.fromhex(iv), self._PT60, self._AAD)
        assert sealed.hex() == ciphertext + tag
        assert cipher.open(bytes.fromhex(iv), sealed, self._AAD) == self._PT60

    def test_wrong_key_length_rejected(self):
        with pytest.raises(ConfigurationError):
            AesGcm(b"short")


_BLOCKS = st.integers(min_value=0, max_value=8)
_TAIL = st.integers(min_value=0, max_value=15)


class TestVectorisedCoreAgainstScalarOracle:
    """The table-driven AES / GHASH in ``src`` vs the bit-serial reference
    in ``tests/crypto/scalar_gcm.py`` (which shares no code with it)."""

    def test_fips197_block(self):
        key = bytes(range(16))
        block = bytes.fromhex("00112233445566778899aabbccddeeff")
        expected = "69c4e0d86a7b0430d8cdb78070b4c55a"
        assert scalar_gcm.encrypt_block(key, block).hex() == expected
        out = _Aes128(key).encrypt_blocks(
            np.frombuffer(block, dtype=np.uint8).reshape(1, 16)
        )
        assert out.tobytes().hex() == expected

    @settings(max_examples=25, deadline=None)
    @given(key=st.binary(min_size=16, max_size=16),
           data=st.binary(min_size=16, max_size=16 * 9))
    def test_block_cipher_parity(self, key, data):
        data = data[: len(data) // 16 * 16]
        blocks = np.frombuffer(data, dtype=np.uint8).reshape(-1, 16)
        expected = b"".join(
            scalar_gcm.encrypt_block(key, data[i : i + 16])
            for i in range(0, len(data), 16)
        )
        assert _Aes128(key).encrypt_blocks(blocks).tobytes() == expected

    @settings(max_examples=40, deadline=None)
    @given(h=st.integers(min_value=0, max_value=(1 << 128) - 1),
           blocks=_BLOCKS, data=st.data())
    def test_ghash_parity(self, h, blocks, data):
        message = data.draw(st.binary(min_size=16 * blocks,
                                      max_size=16 * blocks))
        assert _Ghash(h).digest(message) == scalar_gcm.ghash(h, message)

    @settings(max_examples=60, deadline=None)
    @given(key=st.binary(min_size=16, max_size=16),
           nonce=st.one_of(st.binary(min_size=12, max_size=12),
                           st.binary(min_size=0, max_size=40)),
           blocks=_BLOCKS, tail=_TAIL, aad=st.binary(max_size=40),
           data=st.data())
    def test_seal_parity(self, key, nonce, blocks, tail, aad, data):
        """Lengths 0 … 8 blocks + an odd tail, with AAD, 96-bit and
        non-96-bit nonces: byte-equal ciphertext and tag, and it opens."""
        length = 16 * blocks + tail
        plaintext = data.draw(st.binary(min_size=length, max_size=length))
        cipher = AesGcm(key)
        sealed = cipher.seal(nonce, plaintext, aad)
        assert sealed == scalar_gcm.seal(key, nonce, plaintext, aad)
        assert cipher.open(nonce, sealed, aad) == plaintext

    def test_counter_wraps_in_its_low_32_bits(self):
        """inc32 (SP 800-38D 6.2): a non-96-bit nonce can put J0's counter
        word anywhere, and it wraps without carrying into the nonce part.
        Drive the keystream from just below the wrap."""
        key = bytes(range(16))
        cipher = AesGcm(key)
        j0 = bytes(range(100, 112)) + b"\xff\xff\xff\xfe"
        cipher._ghash.digest = lambda data: int.from_bytes(j0, "big")
        _, stream = cipher._keystream(b"non-96-bit nonce", 48)
        expected = b"".join(
            scalar_gcm.encrypt_block(key, j0[:12] + low.to_bytes(4, "big"))
            for low in (0xFFFFFFFF, 0, 1)
        )
        assert stream.tobytes() == expected


# The bulk slot keeps the id its tests were first recorded under (the name of
# the cipher SHAKE replaced), so the suite's pass history reads through.
@pytest.mark.parametrize("cipher_cls", [
    AesGcm, pytest.param(ShakeHmacAead, id="HmacCtrAead")])
class TestAeadSemantics:
    def _cipher(self, cipher_cls):
        return cipher_cls(bytes(range(16)))

    def test_roundtrip(self, cipher_cls):
        cipher = self._cipher(cipher_cls)
        sealed = cipher.seal(b"\x01" * 12, b"hello world", b"aad")
        assert cipher.open(b"\x01" * 12, sealed, b"aad") == b"hello world"

    def test_ciphertext_tamper_detected(self, cipher_cls):
        cipher = self._cipher(cipher_cls)
        sealed = bytearray(cipher.seal(b"\x01" * 12, b"hello world"))
        sealed[0] ^= 0x01
        with pytest.raises(AuthenticationError):
            cipher.open(b"\x01" * 12, bytes(sealed))

    def test_tag_tamper_detected(self, cipher_cls):
        cipher = self._cipher(cipher_cls)
        sealed = bytearray(cipher.seal(b"\x01" * 12, b"hello world"))
        sealed[-1] ^= 0x01
        with pytest.raises(AuthenticationError):
            cipher.open(b"\x01" * 12, bytes(sealed))

    def test_wrong_aad_detected(self, cipher_cls):
        cipher = self._cipher(cipher_cls)
        sealed = cipher.seal(b"\x01" * 12, b"payload", b"label=3")
        with pytest.raises(AuthenticationError):
            cipher.open(b"\x01" * 12, sealed, b"label=7")

    def test_wrong_nonce_detected(self, cipher_cls):
        cipher = self._cipher(cipher_cls)
        sealed = cipher.seal(b"\x01" * 12, b"payload")
        with pytest.raises(AuthenticationError):
            cipher.open(b"\x02" * 12, sealed)

    def test_wrong_key_detected(self, cipher_cls):
        sealed = self._cipher(cipher_cls).seal(b"\x01" * 12, b"payload")
        other = cipher_cls(bytes(range(1, 17)))
        with pytest.raises(AuthenticationError):
            other.open(b"\x01" * 12, sealed)

    def test_open_prefix_is_a_prefix_of_open(self, cipher_cls):
        cipher = self._cipher(cipher_cls)
        plaintext = bytes(range(256)) * 2
        sealed = cipher.seal(b"\x01" * 12, plaintext, b"aad")
        for length in (0, 1, 15, 16, 17, 64, len(plaintext), len(plaintext) + 99):
            assert (cipher.open_prefix(b"\x01" * 12, sealed, b"aad", length)
                    == plaintext[:length])

    @pytest.mark.parametrize("position", [0, 63, 64, 300, -17, -16, -1])
    def test_open_prefix_authenticates_every_byte(self, cipher_cls, position):
        """A flipped byte inside the prefix, beyond it, at the very end of
        the ciphertext, or in the tag: the prefix is never released."""
        cipher = self._cipher(cipher_cls)
        sealed = bytearray(cipher.seal(b"\x01" * 12, bytes(512), b"aad"))
        sealed[position] ^= 0x01
        with pytest.raises(AuthenticationError):
            cipher.open_prefix(b"\x01" * 12, bytes(sealed), b"aad", 64)

    def test_open_prefix_binds_nonce_aad_and_length(self, cipher_cls):
        cipher = self._cipher(cipher_cls)
        sealed = cipher.seal(b"\x01" * 12, bytes(512), b"label=3")
        for nonce, message, aad in [
            (b"\x02" * 12, sealed, b"label=3"),       # wrong nonce
            (b"\x01" * 12, sealed, b"label=7"),       # relabelled
            (b"\x01" * 12, sealed, b""),              # AAD dropped
            (b"\x01" * 12, sealed[:64] + sealed[-16:], b"label=3"),  # cut
            (b"\x01" * 12, sealed[:10], b"label=3"),  # shorter than a tag
        ]:
            with pytest.raises(AuthenticationError):
                cipher.open_prefix(nonce, message, aad, 64)

    @settings(max_examples=25, deadline=None)
    @given(plaintext=st.binary(max_size=200), aad=st.binary(max_size=40),
           length=st.integers(min_value=0, max_value=220))
    def test_open_prefix_property(self, cipher_cls, plaintext, aad, length):
        cipher = cipher_cls(bytes(range(16)))
        sealed = cipher.seal(b"\x05" * 12, plaintext, aad)
        assert (cipher.open_prefix(b"\x05" * 12, sealed, aad, length)
                == cipher.open(b"\x05" * 12, sealed, aad)[:length])

    def test_truncated_sealed_rejected(self, cipher_cls):
        cipher = self._cipher(cipher_cls)
        with pytest.raises(AuthenticationError):
            cipher.open(b"\x01" * 12, b"short")

    @settings(max_examples=25, deadline=None)
    @given(plaintext=st.binary(max_size=200), aad=st.binary(max_size=40))
    def test_roundtrip_property(self, cipher_cls, plaintext, aad):
        cipher = cipher_cls(bytes(range(16)))
        sealed = cipher.seal(b"\x05" * 12, plaintext, aad)
        assert cipher.open(b"\x05" * 12, sealed, aad) == plaintext
        assert len(sealed) == len(plaintext) + 16


class TestHmacCtrSpecifics:
    """Bulk-cipher specifics (the class keeps its recorded name)."""

    def test_distinct_nonces_distinct_ciphertexts(self):
        cipher = ShakeHmacAead(bytes(16))
        c1 = cipher.seal(b"\x01" * 12, b"same message")
        c2 = cipher.seal(b"\x02" * 12, b"same message")
        assert c1[:-16] != c2[:-16]

    def test_large_payload(self):
        cipher = ShakeHmacAead(bytes(16))
        payload = np.arange(100_000, dtype=np.uint8).tobytes()
        sealed = cipher.seal(b"\x09" * 12, payload)
        assert cipher.open(b"\x09" * 12, sealed) == payload

    def test_short_key_rejected(self):
        with pytest.raises(ConfigurationError):
            ShakeHmacAead(b"short")


class TestFactory:
    def test_default_is_bulk(self):
        assert isinstance(new_aead(bytes(16)), ShakeHmacAead)

    def test_control_path(self):
        assert isinstance(new_aead(bytes(16), bulk=False), AesGcm)

    def test_explicit_cipher(self):
        assert isinstance(new_aead(bytes(16), cipher="aes-128-gcm"), AesGcm)
        assert isinstance(new_aead(bytes(16), cipher="shake256-hmac"),
                          ShakeHmacAead)

    def test_unknown_cipher(self):
        """Exactly two names are accepted; the removed cipher's is not one."""
        for name in ("rot13", "hmac-ctr", "shake128-hmac", ""):
            with pytest.raises(ConfigurationError):
                new_aead(bytes(16), cipher=name)

    def test_interop_within_cipher(self):
        a = new_aead(bytes(16), cipher=BULK_CIPHER)
        b = new_aead(bytes(16), cipher=BULK_CIPHER)
        assert b.open(b"\x01" * 12, a.seal(b"\x01" * 12, b"x")) == b"x"


class TestShakeKeystreamAgainstScalarOracle:
    """The keystream is SHAKE256(enc_key || nonce), and ``seal`` is that
    keystream XOR the plaintext, then the HMAC tag — checked against a
    sponge that shares nothing with ``src/`` or ``hashlib``."""

    _KEY = bytes(range(16))
    _ENC_KEY = hmac_sha256(_KEY, b"shake256-hmac/enc")
    _MAC_KEY = hmac_sha256(_KEY, b"shake256-hmac/mac")

    def test_oracle_reproduces_the_published_empty_message_digest(self):
        assert scalar_keccak.shake256(b"", 32).hex() == (
            "46b9dd2b0ba88d13233b3feb743eeb243fcd52ea62b81b82b50c27646ed5762f")

    # Both sides of the 136-byte rate, and one training record.
    @pytest.mark.parametrize("length", [0, 1, 135, 136, 137, 272, 9447])
    @settings(max_examples=3, deadline=None)
    @given(nonce=st.binary(min_size=12, max_size=12))
    def test_keystream_matches_oracle(self, length, nonce):
        cipher = ShakeHmacAead(self._KEY)
        assert cipher._keystream(nonce, length) == scalar_keccak.shake256(
            self._ENC_KEY + nonce, length)

    @settings(max_examples=10, deadline=None)
    @given(nonce=st.binary(min_size=12, max_size=12),
           plaintext=st.binary(max_size=300), aad=st.binary(max_size=40))
    def test_seal_is_oracle_keystream_xor_plaintext_then_hmac_tag(
            self, nonce, plaintext, aad):
        stream = scalar_keccak.shake256(self._ENC_KEY + nonce, len(plaintext))
        ciphertext = bytes(p ^ k for p, k in zip(plaintext, stream))
        tag = hmac_sha256(self._MAC_KEY, nonce,
                          len(aad).to_bytes(8, "little"), aad, ciphertext)[:16]
        assert ShakeHmacAead(self._KEY).seal(nonce, plaintext, aad) == (
            ciphertext + tag)


class TestHmacCtrPrefixCost:
    def test_open_prefix_generates_only_the_prefix_keystream(self, monkeypatch):
        """The point of ``open_prefix``: 64 bytes asked of the XOF for a
        9 KB record, not 9 KB."""
        cipher = ShakeHmacAead(bytes(range(16)))
        sealed = cipher.seal(b"\x01" * 12, bytes(9431))
        asked = []
        keystream = cipher._keystream
        monkeypatch.setattr(
            cipher, "_keystream",
            lambda nonce, length: asked.append(length) or keystream(nonce, length),
        )
        cipher.open_prefix(b"\x01" * 12, sealed, b"", 64)
        assert asked == [64]

    @pytest.mark.parametrize("position", [0, 5000, -17, -1])
    def test_forged_record_raises_before_the_keystream_function_is_called(
            self, monkeypatch, position):
        cipher = ShakeHmacAead(bytes(range(16)))
        sealed = bytearray(cipher.seal(b"\x01" * 12, bytes(9431), b"aad"))
        sealed[position] ^= 0x01
        monkeypatch.setattr(
            cipher, "_keystream",
            lambda nonce, length: pytest.fail("keystream for a forged record"),
        )
        with pytest.raises(AuthenticationError):
            cipher.open(b"\x01" * 12, bytes(sealed), b"aad")
        with pytest.raises(AuthenticationError):
            cipher.open_prefix(b"\x01" * 12, bytes(sealed), b"aad", 64)


class TestParentCommitVectors:
    """Bytes sealed by earlier commits. The AES-GCM vector predates the
    vectorised core and the SHAKE vector is the commit that introduced the
    cipher: they must open now, and sealing the same input must reproduce
    them. The HMAC-CTR vector was sealed by the bulk cipher SHAKE replaced,
    under the same key: it must fail its tag, not decrypt to noise."""

    _KEY = bytes(range(16))
    _NONCE = bytes(range(50, 62))
    _PLAINTEXT = bytes(range(100))
    _AAD = b"source=p0"
    _HMAC_CTR_SEALED = bytes.fromhex(
        "9af4a4a63573ecd1067121e9a86072a1327de50e3ccfa00fa9afcb8406508a57"
        "37f6815e5778a3beb2582497cf15295a3c23b795a41f9c367bd1018736a02ab2"
        "98347197d569d439e3645c16ef302948098eb5a6d4d0daaf069188983af1e859"
        "a65320b45caf95d61cb1b1facddbff5228404d95")

    @pytest.mark.parametrize("cipher_cls, sealed_hex", [
        (AesGcm,
         "b13f0dc9b8f7446d21059b01c40a1277d012ac0060fcc4e9d81dc2b5888428ea"
         "ba996d5560086fb1e836d0f1c4df92020d2b9b82c63d014335f32df2f401ea10"
         "cf5ff9d8e06de2abb672909cc9610ceed006ae3d6bb665bd56f076ea90603eca"
         "9c75ec5097ff7cf2abb520d1691811ecb0f1a556"),
        (ShakeHmacAead,
         "3c67bbd8ea63f734dc98505c77b9040b3aee1942184e2cb73fe1d4814c7c78bc"
         "c12fea80f6f1267377ae21666ecff2ef3c2a90689c46b8c5f9262b2e31b2c4da"
         "5c3e7242bfed4015bb5c3bb143d86c8cb19e06a88e21b990d87605905f2989bb"
         "7d9d46cc6b616d69f962673fe17d309b265f880a"),
    ])
    def test_roundtrip_against_parent_bytes(self, cipher_cls, sealed_hex):
        cipher = cipher_cls(self._KEY)
        sealed = bytes.fromhex(sealed_hex)
        assert cipher.seal(self._NONCE, self._PLAINTEXT, self._AAD) == sealed
        assert cipher.open(self._NONCE, sealed, self._AAD) == self._PLAINTEXT

    def test_removed_cipher_vector_fails_its_tag(self):
        assert legacy_hmac_ctr.seal(
            self._KEY, self._NONCE, self._PLAINTEXT, self._AAD
        ) == self._HMAC_CTR_SEALED
        cipher = ShakeHmacAead(self._KEY)
        with pytest.raises(AuthenticationError):
            cipher.open(self._NONCE, self._HMAC_CTR_SEALED, self._AAD)
        with pytest.raises(AuthenticationError):
            cipher.open_prefix(self._NONCE, self._HMAC_CTR_SEALED, self._AAD, 64)
