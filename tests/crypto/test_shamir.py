"""Shamir secret sharing tests."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.shamir import Share, reconstruct_secret, split_secret
from repro.errors import CryptoError
from repro.utils.rng import RngStream


class TestSplitReconstruct:
    def test_threshold_reconstructs(self, rng):
        secret = b"a 32 byte secret value.........."
        shares = split_secret(secret, threshold=3, num_shares=5,
                              rng=rng.child("s"))
        assert reconstruct_secret(shares[:3], 32) == secret
        assert reconstruct_secret(shares[2:], 32) == secret
        assert reconstruct_secret([shares[0], shares[2], shares[4]], 32) == secret

    def test_more_than_threshold_also_works(self, rng):
        secret = b"\x01" * 16
        shares = split_secret(secret, threshold=2, num_shares=4,
                              rng=rng.child("s"))
        assert reconstruct_secret(shares, 16) == secret

    def test_below_threshold_reveals_nothing(self, rng):
        """With t-1 shares every candidate secret is equally consistent;
        operationally: interpolating t-1 shares yields garbage (a random
        field element, usually too large to even fit the secret length)."""
        secret = b"\x07" * 32
        shares = split_secret(secret, threshold=3, num_shares=5,
                              rng=rng.child("s"))
        try:
            assert reconstruct_secret(shares[:2], 32) != secret
        except CryptoError:
            pass  # equally acceptable: the garbage didn't fit 32 bytes

    def test_threshold_one_is_replication(self, rng):
        secret = b"replicated"
        shares = split_secret(secret, threshold=1, num_shares=3,
                              rng=rng.child("s"))
        for share in shares:
            assert reconstruct_secret([share], len(secret)) == secret

    def test_invalid_threshold(self, rng):
        with pytest.raises(CryptoError):
            split_secret(b"x", threshold=0, num_shares=3, rng=rng.child("s"))
        with pytest.raises(CryptoError):
            split_secret(b"x", threshold=4, num_shares=3, rng=rng.child("s"))

    def test_oversized_secret_rejected(self, rng):
        with pytest.raises(CryptoError):
            split_secret(b"\xff" * 66, threshold=2, num_shares=3,
                         rng=rng.child("s"))

    def test_duplicate_points_rejected(self, rng):
        shares = split_secret(b"x" * 8, threshold=2, num_shares=3,
                              rng=rng.child("s"))
        with pytest.raises(CryptoError):
            reconstruct_secret([shares[0], shares[0]], 8)

    def test_no_shares_rejected(self):
        with pytest.raises(CryptoError):
            reconstruct_secret([], 8)

    @settings(max_examples=20, deadline=None)
    @given(secret=st.binary(min_size=1, max_size=64),
           threshold=st.integers(1, 4), extra=st.integers(0, 3),
           seed=st.integers(0, 2**32))
    def test_roundtrip_property(self, secret, threshold, extra, seed):
        num_shares = threshold + extra
        shares = split_secret(secret, threshold, num_shares,
                              rng=RngStream(seed).child("h"))
        assert reconstruct_secret(shares[:threshold], len(secret)) == secret


class TestDropoutRecovery:
    def test_dropped_client_mask_cancelled(self, rng, generator):
        """The full Bonawitz flow: a client uploads, drops, and survivors'
        shares let the server cancel its orphaned masks exactly."""
        import numpy as np

        from repro.federation.secure_agg import (
            SecureAggregationClient,
            aggregate_with_dropouts,
            recover_dropout,
        )

        vectors = [generator.normal(size=30) for _ in range(4)]
        clients = [SecureAggregationClient(i, rng.child("sa"))
                   for i in range(4)]
        directory = {c.client_id: c.public_key for c in clients}
        for client in clients:
            client.establish_pairs(directory)
        # Every client escrows its key, 2-of-3 among the others.
        escrow = {c.client_id: c.escrow_private_key(2, 3) for c in clients}
        uploads = {c.client_id: c.masked_update(v)
                   for c, v in zip(clients, vectors)}

        # Client 2 uploads and then drops: the server has all 4 uploads,
        # so the masks already cancel without any reconstruction.
        np.testing.assert_allclose(aggregate_with_dropouts(uploads, directory),
                                   sum(vectors), atol=1e-6)

        # The harder case: client 2's upload never arrived. The survivors'
        # sum carries the masks client 2 would have cancelled; adding its
        # reconstructed mask fixes it.
        survivors = {i: u for i, u in uploads.items() if i != 2}
        mask = recover_dropout(2, escrow[2][:2], directory,
                               vector_shape=(30,))
        expected = sum(v for i, v in enumerate(vectors) if i != 2)
        np.testing.assert_allclose(
            sum(survivors.values()) + mask, expected, atol=1e-6
        )
        np.testing.assert_allclose(
            aggregate_with_dropouts(survivors, directory, dropped=[2],
                                    shares={2: escrow[2][:2]}, threshold=2,
                                    vector_shape=(30,)),
            expected, atol=1e-6,
        )

    def test_bad_shares_detected(self, rng):
        from repro.federation.secure_agg import (
            SecureAggregationClient,
            recover_dropout,
        )

        clients = [SecureAggregationClient(i, rng.child("sa"))
                   for i in range(3)]
        directory = {c.client_id: c.public_key for c in clients}
        for client in clients:
            client.establish_pairs(directory)
        # Shares of client 0's key cannot recover client 1.
        shares = clients[0].escrow_private_key(2, 3)
        with pytest.raises(CryptoError):
            recover_dropout(1, shares[:2], directory, vector_shape=(4,))
