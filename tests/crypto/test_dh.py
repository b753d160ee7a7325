"""Diffie-Hellman key agreement tests."""

import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.crypto import dh
from repro.crypto.dh import MODP_2048, DhKeyPair, DhParams
from repro.data.datasets import Dataset
from repro.enclave.attestation import AttestationService
from repro.enclave.platform import SgxPlatform
from repro.errors import HandshakeError
from repro.federation.participant import TrainingParticipant
from repro.federation.provisioning import provision_key, provisioned_key
from repro.federation.server import TrainingServer
from repro.utils.rng import RngStream


class TestKeyAgreement:
    def test_shared_secret_agreement(self, rng):
        alice = DhKeyPair(rng.child("alice"))
        bob = DhKeyPair(rng.child("bob"))
        assert alice.shared_secret(bob.public) == bob.shared_secret(alice.public)

    def test_different_pairs_different_secrets(self, rng):
        alice = DhKeyPair(rng.child("alice"))
        bob = DhKeyPair(rng.child("bob"))
        eve = DhKeyPair(rng.child("eve"))
        assert alice.shared_secret(bob.public) != alice.shared_secret(eve.public)

    def test_public_in_range(self, rng):
        pair = DhKeyPair(rng.child("kp"))
        assert 2 <= pair.public <= MODP_2048.p - 2

    def test_secret_length_matches_group(self, rng):
        alice = DhKeyPair(rng.child("alice"))
        bob = DhKeyPair(rng.child("bob"))
        assert len(alice.shared_secret(bob.public)) == 256  # 2048-bit group

    def test_deterministic_from_stream(self):
        a = DhKeyPair(RngStream(3).child("x")).public
        b = DhKeyPair(RngStream(3).child("x")).public
        assert a == b


class TestDegenerateRejection:
    @pytest.mark.parametrize("bad", [0, 1])
    def test_small_values_rejected(self, rng, bad):
        pair = DhKeyPair(rng.child("kp"))
        with pytest.raises(HandshakeError):
            pair.shared_secret(bad)

    def test_p_minus_one_rejected(self, rng):
        pair = DhKeyPair(rng.child("kp"))
        with pytest.raises(HandshakeError):
            pair.shared_secret(MODP_2048.p - 1)

    def test_out_of_range_rejected(self, rng):
        pair = DhKeyPair(rng.child("kp"))
        with pytest.raises(HandshakeError):
            pair.shared_secret(MODP_2048.p + 5)

    def test_params_validation_helper(self):
        params = DhParams(p=23, g=5)
        params.validate_public(7)
        with pytest.raises(HandshakeError):
            params.validate_public(22)


class TestFixedBase:
    """Key generation reads a fixed-base table; every value equals ``pow``."""

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=0, max_value=2**256 - 1))
    @example(0)
    @example(1)
    @example(2**256 - 1)
    def test_matches_pow_over_256_bit_exponents(self, x):
        assert dh._fixed_base_pow(MODP_2048, x) == pow(MODP_2048.g, x, MODP_2048.p)

    @pytest.mark.parametrize("x", [2**256, 2**256 + 12345, 2**512 - 1, -1, -(2**40)])
    def test_uncovered_exponents_fall_back_to_pow(self, x):
        dh._fixed_base_table.cache_clear()
        assert dh._fixed_base_pow(MODP_2048, x) == pow(MODP_2048.g, x, MODP_2048.p)
        assert dh._fixed_base_table.cache_info().misses == 0  # table not read

    def test_small_group(self):
        small = DhParams(p=23, g=5)
        for x in list(range(600)) + [2**256 - 1, 2**256 + 7]:
            assert dh._fixed_base_pow(small, x) == pow(5, x, 23)
        pair = DhKeyPair(RngStream(5).child("small"), small)
        assert pair.public == pow(5, pair._private, 23)
        rebuilt = DhKeyPair.from_private(pair._private, small)
        assert rebuilt.public == pair.public

    def test_table_built_once_per_group_and_bounded(self):
        dh._fixed_base_table.cache_clear()
        for name in ("a", "b", "c"):
            DhKeyPair(RngStream(9).child(name))
        DhKeyPair.from_private(12345)
        info = dh._fixed_base_table.cache_info()
        assert (info.misses, info.hits) == (1, 3)
        DhKeyPair(RngStream(9).child("d"), DhParams(p=23, g=5))
        assert dh._fixed_base_table.cache_info().misses == 2
        table = dh._fixed_base_table(MODP_2048)
        assert len(table) == 64
        size = sys.getsizeof(table) + sum(sys.getsizeof(v) for v in table)
        assert size <= 100_000
        assert dh._fixed_base_table.cache_info().maxsize is not None


def _provision(seed):
    """One seeded attested provisioning; the key and handshake transcript
    the enclave ends up holding."""
    rng = RngStream(seed, name="provision")
    platform = SgxPlatform(rng=rng.child("platform"))
    service = AttestationService()
    service.register_platform(platform.platform_id, platform.platform_key)
    server = TrainingServer(platform, service, rng.child("server"))
    server.build_training_enclave("[net]\ninput = 2,2,1\n[softmax]\n[cost]\n")
    gen = rng.child("data").generator
    dataset = Dataset(x=gen.random((3, 2, 2, 1)).astype(np.float32),
                      y=gen.integers(0, 3, size=3))
    participant = TrainingParticipant("p0", dataset, rng.child("p0"))
    provision_key(participant, server.enclave, service,
                  expected_mrenclave=server.enclave.mrenclave)
    session = server.enclave.trusted_get("tls-session/p0")
    return provisioned_key(server.enclave, "p0"), session.dh_public, session._transcript


@pytest.mark.parametrize("seed", [1, 2])
def test_provisioning_identical_to_plain_pow(seed, monkeypatch):
    fixed_base = _provision(seed)
    monkeypatch.setattr(dh, "_fixed_base_pow",
                        lambda params, x: pow(params.g, x, params.p))
    assert _provision(seed) == fixed_base
