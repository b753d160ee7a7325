"""Secure aggregation (Bonawitz et al., CCS 2017), simplified.

The paper's related work cites secure aggregation as the cryptographic
alternative for protecting federated updates: the server learns only the
*sum* of the clients' vectors, never an individual contribution. This
module implements the pairwise-masking protocol with t-of-n dropout
recovery:

* every client pair ``(i, j)`` agrees on a seed via Diffie-Hellman;
* client ``i`` uploads ``x_i + sum_{j>i} PRG(s_ij) - sum_{j<i} PRG(s_ij)``;
* summing all uploads cancels every mask, yielding ``sum_i x_i`` exactly;
* a client that paired but never uploaded has its orphaned masks rebuilt
  from Shamir-escrowed key shares (:func:`aggregate_with_dropouts`, the one
  server-side sum, which fails closed instead of returning a biased one).

The multi-enclave training path masks its FrontNet updates with it. It is
also the baseline for the accountability argument: even with secure
aggregation, the server cannot attribute a poisoned update — the masking
that protects honest clients also hides the malicious one, which is
precisely the confidentiality/accountability conflict CalTrain resolves.
"""

from __future__ import annotations

import struct
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.crypto.aead import NONCE_LEN, AesGcm
from repro.crypto.dh import DhKeyPair
from repro.crypto.hkdf import hkdf
from repro.crypto.shamir import (Share, decode_share, encode_share,
                                 reconstruct_secret, split_secret)
from repro.errors import AggregationError, ConfigurationError, CryptoError
from repro.utils.rng import RngStream

__all__ = [
    "SecureAggregationClient",
    "aggregate_with_dropouts",
    "recover_dropout",
]


#: Mask amplitude. Bonawitz et al. mask uniformly over a large modular
#: field; with float64 vectors the analogue is an amplitude that dwarfs any
#: plausible update magnitude while staying far from the 2^53 precision
#: limit, so the pairwise sums still cancel exactly.
_MASK_SCALE = 1.0e6


def _mask_from_seed(seed: bytes, size: int) -> np.ndarray:
    """Expand a shared seed into a deterministic mask vector."""
    generator = np.random.Generator(
        np.random.PCG64(int.from_bytes(hkdf(seed, info=b"secagg-prg")[:8], "big"))
    )
    return generator.standard_normal(size).astype(np.float64) * _MASK_SCALE


class SecureAggregationClient:
    """One client in the pairwise-masking protocol.

    Clients optionally Shamir-share their pairwise seeds among the cohort
    (``share_seeds``) so that a client who drops out *after* uploading can
    have its masks reconstructed and cancelled by any ``threshold``
    survivors — the dropout-recovery half of Bonawitz et al.
    """

    def __init__(self, client_id: int, rng: RngStream) -> None:
        self.client_id = client_id
        self._rng = rng.child(f"secagg-shamir/{client_id}")
        self._keypair = DhKeyPair(rng.child(f"secagg/{client_id}"))
        self._pair_seeds: Dict[int, bytes] = {}
        #: Shares of *other* clients' seed bundles held by this client:
        #: owner_id -> its share of that owner's serialized seeds.
        self.held_shares: Dict[int, Share] = {}

    @property
    def public_key(self) -> int:
        return self._keypair.public

    def establish_pairs(self, peers: Dict[int, int]) -> None:
        """Derive a pairwise seed with every other client's public key."""
        for peer_id, peer_public in peers.items():
            if peer_id == self.client_id:
                continue
            shared = self._keypair.shared_secret(peer_public)
            self._pair_seeds[peer_id] = hkdf(shared, info=b"secagg-seed")

    def masked_update(self, vector: np.ndarray) -> np.ndarray:
        """The client's upload: its vector plus the pairwise masks."""
        if not self._pair_seeds:
            raise ConfigurationError("establish_pairs() must run first")
        masked = vector.astype(np.float64).copy()
        for peer_id, seed in self._pair_seeds.items():
            mask = _mask_from_seed(seed, vector.size).reshape(vector.shape)
            if peer_id > self.client_id:
                masked += mask
            else:
                masked -= mask
        return masked


    # -- dropout recovery (the Bonawitz t-of-n escrow) -----------------------

    def escrow_private_key(self, threshold: int,
                           num_shares: int) -> List[Share]:
        """Shamir-share this client's DH private key among the cohort.

        If this client drops after uploading, any ``threshold`` survivors
        hand their shares to the server, which reconstructs the key,
        re-derives the pairwise seeds, and cancels the orphaned masks.
        """
        return split_secret(self._keypair.private_bytes(), threshold,
                            num_shares, self._rng)

    # -- share sealing (Bonawitz: shares transit the server encrypted) -------

    def _share_aead(self, peer_id: int) -> AesGcm:
        if peer_id not in self._pair_seeds:
            raise ConfigurationError(
                f"no pairwise seed with client {peer_id}; "
                "establish_pairs() must run first"
            )
        return AesGcm(
            hkdf(self._pair_seeds[peer_id], info=b"secagg-share-key",
                 length=16)
        )

    @staticmethod
    def _share_aad(owner_id: int, holder_id: int) -> bytes:
        return struct.pack("<II", owner_id, holder_id)

    def encrypt_share_for(self, peer_id: int, share: Share) -> bytes:
        """Seal one escrowed share of *this* client's key for ``peer_id``.

        The record is AEAD-encrypted under a key derived from the pairwise
        DH seed, with the (owner, holder) pair bound as associated data —
        the untrusted relay can neither read a share nor re-route it to a
        different holder or claim it for a different owner.
        """
        nonce = self._rng.randbytes(NONCE_LEN)
        sealed = self._share_aead(peer_id).seal(
            nonce, encode_share(share),
            self._share_aad(self.client_id, peer_id),
        )
        return nonce + sealed

    def decrypt_share_from(self, owner_id: int, record: bytes) -> Share:
        """Open a share record sealed by ``owner_id`` for this client.

        Raises :class:`~repro.errors.AuthenticationError` when the record
        was tampered with or re-routed, :class:`~repro.errors.CryptoError`
        when the opened payload is not a well-formed share.
        """
        nonce, sealed = record[:NONCE_LEN], record[NONCE_LEN:]
        plaintext = self._share_aead(owner_id).open(
            nonce, sealed, self._share_aad(owner_id, self.client_id)
        )
        return decode_share(plaintext)


def recover_dropout(dropped_id: int, shares: Sequence[Share],
                    directory: Dict[int, int],
                    vector_shape: Tuple[int, ...]) -> np.ndarray:
    """Reconstruct a dropped client's total mask from escrowed shares.

    Args:
        dropped_id: The client that uploaded and then vanished.
        shares: At least ``threshold`` of its escrowed key shares.
        directory: client_id -> DH public key, for every registered client.
        vector_shape: Shape of the update vectors.

    Returns:
        The mask vector the dropped client added to its upload; subtracting
        it from the naive aggregate restores correctness.
    """
    private = int.from_bytes(reconstruct_secret(shares, 32), "big")
    keypair = DhKeyPair.from_private(private)
    if dropped_id not in directory:
        raise CryptoError(f"client {dropped_id} is not in the directory")
    if keypair.public != directory[dropped_id]:
        raise CryptoError(
            "reconstructed key does not match the directory (bad shares?)"
        )
    size = int(np.prod(vector_shape))
    total_mask = np.zeros(size, dtype=np.float64)
    for peer_id, peer_public in directory.items():
        if peer_id == dropped_id:
            continue
        seed = hkdf(keypair.shared_secret(peer_public), info=b"secagg-seed")
        mask = _mask_from_seed(seed, size)
        if peer_id > dropped_id:
            total_mask += mask
        else:
            total_mask -= mask
    return total_mask.reshape(vector_shape)


def aggregate_with_dropouts(
    uploads: Dict[int, np.ndarray],
    directory: Dict[int, int],
    dropped: Sequence[int] = (),
    shares: Optional[Dict[int, Sequence[Share]]] = None,
    threshold: int = 1,
    vector_shape: Optional[Tuple[int, ...]] = None,
) -> np.ndarray:
    """Dropout-aware aggregation: exact sum of the survivors' vectors.

    A client that established pairs but never uploaded leaves its pairwise
    masks orphaned in the survivors' sum: survivor ``i`` carries an
    uncancelled ``±PRG(s_id)`` term for the dropped client ``d``. The sum
    of those orphaned terms is exactly ``-recover_dropout(d)``, so adding
    each dropped client's reconstructed total mask restores the exact sum
    of the surviving uploads (cross-terms between two dropped clients
    cancel pairwise when both totals are added).

    Fail-closed contract — any of the following raises
    :class:`~repro.errors.AggregationError` instead of returning a
    silently biased sum:

    * a directory member neither uploaded nor was declared dropped;
    * a client was declared both uploaded and dropped, or is unknown;
    * a dropped client has fewer than ``threshold`` escrowed shares;
    * the shares reconstruct to a key that contradicts the directory.

    Args:
        uploads: client_id -> masked upload, for every survivor.
        directory: client_id -> DH public key for the whole cohort that
            established pairs this round.
        dropped: Clients that established pairs but did not upload.
        shares: dropped client_id -> its escrowed key shares (from
            :meth:`SecureAggregationClient.escrow_private_key`).
        threshold: The Shamir threshold the cohort escrowed with.
        vector_shape: Shape of the update vectors; inferred from the
            first upload when omitted.
    """
    shares = shares or {}
    dropped_set = set(dropped)
    if not uploads:
        raise AggregationError("no surviving uploads to aggregate")
    both = dropped_set & set(uploads)
    if both:
        raise AggregationError(
            f"clients {sorted(both)} are declared both uploaded and dropped"
        )
    accounted = set(uploads) | dropped_set
    unknown = accounted - set(directory)
    if unknown:
        raise AggregationError(
            f"clients {sorted(unknown)} are not in the cohort directory"
        )
    missing = set(directory) - accounted
    if missing:
        raise AggregationError(
            f"clients {sorted(missing)} neither uploaded nor were declared "
            "dropped; their unresolved masks would bias the aggregate"
        )
    total = np.zeros_like(next(iter(uploads.values())), dtype=np.float64)
    for client_id in sorted(uploads):
        total = total + uploads[client_id]
    shape = vector_shape if vector_shape is not None else total.shape
    for dropped_id in sorted(dropped_set):
        escrowed = list(shares.get(dropped_id, ()))
        if len(escrowed) < threshold:
            raise AggregationError(
                f"dropout {dropped_id}: {len(escrowed)} escrowed shares "
                f"available, threshold is {threshold}; refusing to publish "
                "a biased sum"
            )
        try:
            mask = recover_dropout(dropped_id, escrowed, directory, shape)
        except CryptoError as exc:
            raise AggregationError(
                f"dropout {dropped_id}: mask reconstruction failed: {exc}"
            ) from exc
        total = total + mask.reshape(total.shape)
    return total

