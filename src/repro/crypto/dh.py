"""Finite-field Diffie-Hellman key agreement.

Uses the RFC 3526 2048-bit MODP group (group 14). Each side contributes an
ephemeral key pair; the shared secret feeds HKDF in the TLS-like handshake
(:mod:`repro.crypto.tls`). Public values are validated to reject the
degenerate subgroup elements (0, 1, p-1) that would let an active attacker
force a predictable secret.

Key generation computes ``g^x`` with the fixed generator, so it reads a
precomputed table of ``g^(2^(4j))`` (BGMW: Brickell, Gordon, McCurley and
Wilson, "Fast exponentiation with precomputation", EUROCRYPT 1992) instead
of calling ``pow``: about 75 modular multiplications in place of about 300.
The table is public, built once per group per process, and gives the same
values as ``pow``. Neither path is constant-time; CPython's ``pow`` is not
either.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from repro.errors import HandshakeError
from repro.utils.rng import RngStream

__all__ = ["DhParams", "DhKeyPair", "MODP_2048"]

_MODP_2048_PRIME = int(
    "FFFFFFFFFFFFFFFFC90FDAA22168C234C4C6628B80DC1CD1"
    "29024E088A67CC74020BBEA63B139B22514A08798E3404DD"
    "EF9519B3CD3A431B302B0A6DF25F14374FE1356D6D51C245"
    "E485B576625E7EC6F44C42E9A637ED6B0BFF5CB6F406B7ED"
    "EE386BFB5A899FA5AE9F24117C4B1FE649286651ECE45B3D"
    "C2007CB8A163BF0598DA48361C55D39A69163FA8FD24CF5F"
    "83655D23DCA3AD961C62F356208552BB9ED529077096966D"
    "670C354E4ABC9804F1746C08CA18217C32905E462E36CE3B"
    "E39E772C180E86039B2783A2EC07A28FB5C55DF06F4C52C9"
    "DE2BCBF6955817183995497CEA956AE515D2261898FA0510"
    "15728E5A8AACAA68FFFFFFFFFFFFFFFF",
    16,
)


@dataclass(frozen=True)
class DhParams:
    """A Diffie-Hellman group (safe prime ``p`` and generator ``g``)."""

    p: int
    g: int

    def validate_public(self, public: int) -> None:
        """Reject degenerate public values that collapse the shared secret."""
        if not 2 <= public <= self.p - 2:
            raise HandshakeError("invalid DH public value")


MODP_2048 = DhParams(p=_MODP_2048_PRIME, g=2)

# Digit width of the fixed-base table and the exponent width it covers: 64
# entries of 4 bits cover the 256-bit private exponents below. w = 4 needs
# the fewest multiplications per key at this width (about 75, against about
# 81 for w = 3 or w = 5); the table is 64 group elements, 18 KB for MODP_2048.
_WINDOW = 4
_TABLE_BITS = 256


@functools.lru_cache(maxsize=4)
def _fixed_base_table(params: DhParams) -> tuple:
    """``g^(2^(_WINDOW·j)) mod p`` for every window ``j`` of a
    ``_TABLE_BITS``-bit exponent; one exponentiation's worth of squarings."""
    table = [params.g % params.p]
    for _ in range(_TABLE_BITS // _WINDOW - 1):
        table.append(pow(table[-1], 1 << _WINDOW, params.p))
    return tuple(table)


def _fixed_base_pow(params: DhParams, exponent: int) -> int:
    """``pow(params.g, exponent, params.p)`` from the fixed-base table.

    With base-2^w digits ``d_j`` of the exponent, ``g^x`` is the product
    over ``d`` of ``(prod of table[j] with d_j >= d)``: one multiplication
    per nonzero digit plus one per digit value. An exponent the table does
    not cover (negative, or wider than ``_TABLE_BITS``) goes to ``pow``.
    """
    if exponent < 0 or exponent.bit_length() > _TABLE_BITS:
        return pow(params.g, exponent, params.p)
    table = _fixed_base_table(params)
    p = params.p
    mask = (1 << _WINDOW) - 1
    by_digit = [[] for _ in range(mask + 1)]
    j = 0
    while exponent:
        by_digit[exponent & mask].append(table[j])
        exponent >>= _WINDOW
        j += 1
    result = running = 1
    for digit in range(mask, 0, -1):
        for power in by_digit[digit]:
            running = running * power % p
        result = result * running % p
    return result


class DhKeyPair:
    """An ephemeral DH key pair over a given group."""

    def __init__(self, rng: RngStream, params: DhParams = MODP_2048) -> None:
        self.params = params
        # 256-bit exponents give ~128-bit security in this group and keep
        # modular exponentiation fast.
        self._private = int.from_bytes(rng.randbytes(32), "big") | 1
        self.public = _fixed_base_pow(params, self._private)

    @classmethod
    def from_private(cls, private: int,
                     params: DhParams = MODP_2048) -> "DhKeyPair":
        """Rebuild a key pair from a known private exponent (used by
        secure aggregation's dropout recovery, where survivors reconstruct
        a dropped client's key from its Shamir shares)."""
        pair = cls.__new__(cls)
        pair.params = params
        pair._private = private
        pair.public = _fixed_base_pow(params, private)
        return pair

    def private_bytes(self) -> bytes:
        """The private exponent (for escrow via secret sharing only)."""
        return self._private.to_bytes(32, "big")

    def shared_secret(self, peer_public: int) -> bytes:
        """Compute the shared secret with a peer's public value."""
        self.params.validate_public(peer_public)
        secret = pow(peer_public, self._private, self.params.p)
        byte_len = (self.params.p.bit_length() + 7) // 8
        return secret.to_bytes(byte_len, "big")
