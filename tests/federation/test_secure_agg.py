"""Secure aggregation tests."""

import numpy as np
import pytest

from repro.errors import AggregationError, ConfigurationError
from repro.federation.secure_agg import (
    SecureAggregationClient,
    aggregate_with_dropouts,
)


def _paired(rng, n):
    """``n`` clients that established pairs, and their directory."""
    clients = [SecureAggregationClient(i, rng.child("sa")) for i in range(n)]
    directory = {c.client_id: c.public_key for c in clients}
    for client in clients:
        client.establish_pairs(directory)
    return clients, directory


def _sum(clients, directory, vectors):
    """Every client uploads; the server sums with nobody dropped."""
    uploads = {c.client_id: c.masked_update(v)
               for c, v in zip(clients, vectors)}
    return aggregate_with_dropouts(uploads, directory)


class TestSecureAggregation:
    def test_masks_cancel_exactly(self, rng, generator):
        vectors = [generator.normal(size=50) for _ in range(4)]
        total = _sum(*_paired(rng, 4), vectors)
        np.testing.assert_allclose(total, sum(vectors), atol=1e-6)

    def test_individual_uploads_are_masked(self, rng, generator):
        """The server sees uploads that reveal nothing about the vectors:
        each upload differs from its plaintext by a large-mask amount."""
        vectors = [generator.normal(size=100) * 0.01 for _ in range(3)]
        clients, directory = _paired(rng, 3)
        uploads = {c.client_id: c.masked_update(v)
                   for c, v in zip(clients, vectors)}
        for upload, vector in zip(uploads.values(), vectors):
            # Mask magnitude dwarfs the signal.
            assert np.abs(upload - vector).mean() > 10 * np.abs(vector).mean()
        np.testing.assert_allclose(aggregate_with_dropouts(uploads, directory),
                                   sum(vectors), atol=1e-6)

    def test_pairwise_seeds_agree(self, rng):
        a = SecureAggregationClient(0, rng.child("sa"))
        b = SecureAggregationClient(1, rng.child("sa"))
        directory = {0: a.public_key, 1: b.public_key}
        a.establish_pairs(directory)
        b.establish_pairs(directory)
        assert a._pair_seeds[1] == b._pair_seeds[0]

    def test_matrix_shapes_preserved(self, rng, generator):
        vectors = [generator.normal(size=(4, 5)) for _ in range(2)]
        total = _sum(*_paired(rng, 2), vectors)
        assert total.shape == (4, 5)
        np.testing.assert_allclose(total, vectors[0] + vectors[1], atol=1e-6)

    def test_needs_two_clients(self, rng, generator):
        """A lone client has no pair to mask with, so it cannot upload."""
        (client,), _ = _paired(rng, 1)
        with pytest.raises(ConfigurationError):
            client.masked_update(generator.normal(size=3))

    def test_upload_before_pairing_rejected(self, rng):
        client = SecureAggregationClient(0, rng.child("sa"))
        with pytest.raises(ConfigurationError):
            client.masked_update(np.zeros(4))

    def test_empty_aggregate_rejected(self):
        with pytest.raises(AggregationError, match="no surviving uploads"):
            aggregate_with_dropouts({}, {})

    def test_unattributable_poisoning(self, rng, generator):
        """The accountability gap CalTrain fills: a poisoned update hides
        inside the aggregate — the server cannot tell which client sent it."""
        honest = [generator.normal(size=20) * 0.1 for _ in range(3)]
        poisoned = generator.normal(size=20) * 0.1 + 5.0  # a huge shift
        vectors = honest + [poisoned]
        clients, directory = _paired(rng, 4)
        uploads = {c.client_id: c.masked_update(v)
                   for c, v in zip(clients, vectors)}
        # The aggregate clearly shifted...
        assert aggregate_with_dropouts(uploads, directory).mean() > 3.0
        # ...but no single upload stands out: the masked poisoned upload is
        # statistically indistinguishable from the honest ones.
        deviations = [float(np.abs(u).mean()) for u in uploads.values()]
        assert max(deviations) < 3 * min(deviations)


def _cohort(rng, generator, n, size=40):
    """A paired cohort with escrowed keys and plaintext vectors."""
    vectors = [generator.normal(size=size) * 0.1 for _ in range(n)]
    clients, directory = _paired(rng, n)
    threshold = 1 if n <= 2 else n // 2 + 1
    escrow = {c.client_id: c.escrow_private_key(threshold, n) for c in clients}
    return vectors, clients, directory, escrow, threshold


class TestAggregateWithDropouts:
    def test_no_dropouts_matches_plain_aggregate(self, rng, generator):
        vectors, clients, directory, _, _ = _cohort(rng, generator, 4)
        uploads = {c.client_id: c.masked_update(v)
                   for c, v in zip(clients, vectors)}
        total = aggregate_with_dropouts(uploads, directory)
        np.testing.assert_allclose(total, sum(vectors), atol=1e-6)

    def test_dropout_with_shares_is_exact(self, rng, generator):
        """A paired-but-silent client's orphaned masks are reconstructed
        from its escrowed shares; the survivors' sum comes out exact."""
        vectors, clients, directory, escrow, threshold = _cohort(
            rng, generator, 4
        )
        uploads = {c.client_id: c.masked_update(v)
                   for c, v in zip(clients, vectors) if c.client_id != 2}
        total = aggregate_with_dropouts(
            uploads, directory, dropped=[2],
            shares={2: escrow[2][:threshold]}, threshold=threshold,
            vector_shape=(40,),
        )
        expected = sum(v for c, v in zip(clients, vectors)
                       if c.client_id != 2)
        np.testing.assert_allclose(total, expected, atol=1e-6)

    def test_multiple_dropouts_cross_terms_cancel(self, rng, generator):
        """Two dropped clients' pairwise masks with *each other* cancel in
        the reconstruction; only survivor-facing masks matter."""
        vectors, clients, directory, escrow, threshold = _cohort(
            rng, generator, 5
        )
        alive = [0, 2, 4]
        uploads = {c.client_id: c.masked_update(v)
                   for c, v in zip(clients, vectors) if c.client_id in alive}
        total = aggregate_with_dropouts(
            uploads, directory, dropped=[1, 3],
            shares={1: escrow[1][:threshold], 3: escrow[3][:threshold]},
            threshold=threshold, vector_shape=(40,),
        )
        np.testing.assert_allclose(
            total, sum(vectors[i] for i in alive), atol=1e-6
        )

    def test_dropout_without_shares_fails_closed(self, rng, generator):
        """The historical bug: silently returning the still-masked sum. A
        dropout with no escrowed shares must be a typed error, never a
        biased aggregate."""
        vectors, clients, directory, _, _ = _cohort(rng, generator, 3)
        uploads = {c.client_id: c.masked_update(v)
                   for c, v in zip(clients, vectors) if c.client_id != 1}
        with pytest.raises(AggregationError, match="escrowed shares"):
            aggregate_with_dropouts(uploads, directory, dropped=[1],
                                    vector_shape=(40,))

    def test_insufficient_shares_fail_closed(self, rng, generator):
        vectors, clients, directory, escrow, threshold = _cohort(
            rng, generator, 5
        )
        uploads = {c.client_id: c.masked_update(v)
                   for c, v in zip(clients, vectors) if c.client_id != 1}
        with pytest.raises(AggregationError, match="shares"):
            aggregate_with_dropouts(
                uploads, directory, dropped=[1],
                shares={1: escrow[1][:threshold - 1]}, threshold=threshold,
                vector_shape=(40,),
            )

    def test_unaccounted_member_fails_closed(self, rng, generator):
        """Every directory member must be either an upload or a declared
        dropout — a silently missing client would bias the sum."""
        vectors, clients, directory, _, _ = _cohort(rng, generator, 3)
        uploads = {c.client_id: c.masked_update(v)
                   for c, v in zip(clients, vectors) if c.client_id != 1}
        with pytest.raises(AggregationError, match="neither uploaded"):
            aggregate_with_dropouts(uploads, directory)

    def test_upload_from_declared_dropout_rejected(self, rng, generator):
        vectors, clients, directory, escrow, threshold = _cohort(
            rng, generator, 3
        )
        uploads = {c.client_id: c.masked_update(v)
                   for c, v in zip(clients, vectors)}
        with pytest.raises(AggregationError, match="both uploaded"):
            aggregate_with_dropouts(
                uploads, directory, dropped=[1],
                shares={1: escrow[1][:threshold]}, threshold=threshold,
                vector_shape=(40,),
            )

    def test_unknown_uploader_rejected(self, rng, generator):
        vectors, clients, directory, _, _ = _cohort(rng, generator, 3)
        uploads = {c.client_id: c.masked_update(v)
                   for c, v in zip(clients, vectors)}
        uploads[99] = np.zeros(40)
        with pytest.raises(AggregationError, match="not in the cohort"):
            aggregate_with_dropouts(uploads, directory)

    def test_empty_uploads_rejected(self, rng, generator):
        _, _, directory, _, _ = _cohort(rng, generator, 3)
        with pytest.raises(AggregationError, match="no surviving uploads"):
            aggregate_with_dropouts({}, directory, dropped=[0, 1, 2])

    def test_bad_shares_fail_closed(self, rng, generator):
        """Shares that reconstruct the wrong key must not silently produce
        a garbage mask."""
        vectors, clients, directory, escrow, threshold = _cohort(
            rng, generator, 3
        )
        uploads = {c.client_id: c.masked_update(v)
                   for c, v in zip(clients, vectors) if c.client_id != 1}
        wrong = escrow[0][:threshold]  # client 0's shares, claimed for 1
        with pytest.raises(AggregationError):
            aggregate_with_dropouts(
                uploads, directory, dropped=[1], shares={1: wrong},
                threshold=threshold, vector_shape=(40,),
            )


class TestShareSealing:
    """Shares transit the untrusted relay sealed under pairwise keys."""

    def test_roundtrip_between_paired_clients(self, rng):
        _, clients, _, escrow, threshold = _cohort(
            rng, np.random.default_rng(3), 3
        )
        share = escrow[0][1]  # client 0's share for holder 1
        record = clients[0].encrypt_share_for(1, share)
        assert clients[1].decrypt_share_from(0, record) == share

    def test_record_is_not_the_plaintext_share(self, rng):
        from repro.crypto.shamir import encode_share

        _, clients, _, escrow, _ = _cohort(rng, np.random.default_rng(3), 2)
        share = escrow[0][1]
        record = clients[0].encrypt_share_for(1, share)
        assert encode_share(share) not in record

    def test_tampered_record_rejected(self, rng):
        from repro.errors import AuthenticationError

        _, clients, _, escrow, _ = _cohort(rng, np.random.default_rng(3), 2)
        record = bytearray(clients[0].encrypt_share_for(1, escrow[0][1]))
        record[len(record) // 2] ^= 0x01
        with pytest.raises(AuthenticationError):
            clients[1].decrypt_share_from(0, bytes(record))

    def test_rerouted_record_rejected(self, rng):
        """The relay cannot claim client 0's record came from client 2:
        the (owner, holder) pair is bound as AEAD associated data."""
        from repro.errors import AuthenticationError

        _, clients, _, escrow, _ = _cohort(rng, np.random.default_rng(3), 3)
        record = clients[0].encrypt_share_for(1, escrow[0][1])
        with pytest.raises(AuthenticationError):
            clients[1].decrypt_share_from(2, record)

    def test_sealing_requires_established_pairs(self, rng):
        client = SecureAggregationClient(0, rng.child("sa"))
        with pytest.raises(ConfigurationError, match="establish_pairs"):
            client.encrypt_share_for(1, None)
