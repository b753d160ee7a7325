"""The aggregator enclave: secure FrontNet-update aggregation.

The Citadel-style trust split: N training enclaves each hold a model
replica and a data shard; their per-round FrontNet updates are pairwise
masked (:mod:`repro.federation.secure_agg`) and shipped over attested
channels into *this* enclave, which is the only place individual updates
ever exist in the clear. The untrusted coordinator relays opaque records;
what it can observe is masked uploads, cohort membership, and timing —
never a worker's plaintext update, and (with >= 2 participants) not even
which worker contributed what to the sum.

All aggregation work happens inside ECALLs: unmasking, dropout-mask
reconstruction from escrowed Shamir shares, weighted normalisation, and
the broadcast of the agreed update back over each worker's channel. A
hash-chained :class:`~repro.core.audit.AuditLog` records one event per
round, so the aggregation history is tamper-evident.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

from repro.core.audit import AuditLog
from repro.crypto.hashing import sha256
from repro.crypto.shamir import Share, decode_share
from repro.crypto.tls import ClientHello, Finished, SecureChannel, TlsServer
from repro.distributed.channels import decode_vector, encode_vector
from repro.enclave.attestation import AttestationService
from repro.enclave.enclave import Enclave
from repro.enclave.platform import SgxPlatform
from repro.errors import AggregationError, AuthenticationError, CryptoError
from repro.federation.secure_agg import aggregate_with_dropouts
from repro.utils.logging import get_logger
from repro.utils.rng import RngStream

__all__ = ["AggregatorEnclave"]

_LOG = get_logger("distributed.aggregator")

_SESSION_PREFIX = "agg-session/"
_CHANNEL_PREFIX = "agg-channel/"
_HANDSHAKE_COUNT_PREFIX = "agg-handshakes/"
_UPLOAD_PREFIX = "agg-upload/"
_RESULT_KEY = "agg-result"


# -- trusted (in-enclave) functions -----------------------------------------


def _ecall_agg_start_handshake(enclave: Enclave, peer_id: str,
                               hello_c: ClientHello):
    """Trusted: answer a worker's ClientHello with a bound quote.

    The handshake RNG is salted with a per-peer attempt counter kept in
    enclave memory: ``RngStream.child`` is seed-derived, so an unsalted
    re-handshake would hand the replacement session the exact same DH key,
    nonce, and record keys with sequence counters reset — letting the
    untrusted host replay captured records onto the new channel (and
    reusing AEAD key+nonce pairs). The worker salts its side the same way.
    """
    count_key = _HANDSHAKE_COUNT_PREFIX + peer_id
    attempt = (enclave.trusted_get(count_key) + 1
               if enclave.trusted_has(count_key) else 1)
    enclave.trusted_put(count_key, attempt)
    server = TlsServer(
        rng=enclave.trusted_rng.stream.child(f"agg-tls/{peer_id}/{attempt}")
    )
    report_data = sha256(server.dh_public.to_bytes(256, "big"))
    server.bind_report_data(report_data)
    hello_s = server.process_client_hello(hello_c)
    enclave.trusted_put(_SESSION_PREFIX + peer_id, server)
    return hello_s, enclave.quote(report_data=report_data)


def _ecall_agg_finish_handshake(enclave: Enclave, peer_id: str,
                                finished: Finished) -> None:
    """Trusted: verify the worker Finished; open its record channel."""
    server: TlsServer = enclave.trusted_get(_SESSION_PREFIX + peer_id)
    server.process_finished(finished)
    enclave.trusted_put(_CHANNEL_PREFIX + peer_id, server.channel())
    enclave.trusted_delete(_SESSION_PREFIX + peer_id)


def _ecall_agg_submit(enclave: Enclave, peer_id: str, record: bytes) -> int:
    """Trusted: open one masked-update record and stage it for the round.

    Raises :class:`~repro.errors.AuthenticationError` when the AEAD tag
    fails (record tampered in the coordinator's hands) and
    :class:`~repro.errors.ChannelIntegrityError` when the boundary
    checksum inside the plaintext fails — either way nothing is staged.
    """
    channel: SecureChannel = enclave.trusted_get(_CHANNEL_PREFIX + peer_id)
    vector = decode_vector(channel.receive(record))
    enclave.trusted_put(_UPLOAD_PREFIX + peer_id, vector,
                        nbytes=vector.nbytes)
    return int(vector.size)


def _ecall_agg_reduce(enclave: Enclave, round_index: int,
                      participating: Dict[str, int],
                      weights: Dict[str, float],
                      dropped: Dict[str, int],
                      share_records: Dict[int, List[Tuple[str, bytes]]],
                      directory: Dict[int, int],
                      threshold: int,
                      vector_shape: Tuple[int, ...]) -> Dict[str, object]:
    """Trusted: unmask, recover dropouts, normalise; stage the broadcast.

    ``participating``/``dropped`` map worker ids to their per-round
    secure-aggregation client ids; ``weights`` carries each participating
    worker's shard size (uploads are pre-scaled by it, so the normalised
    result is the examples-weighted mean update of the participants).
    ``share_records`` carries the survivors' revealed shares for each
    dropped client as ``(holder worker id, AEAD record)`` pairs still
    sealed for the holders' attested channels — the relaying coordinator
    never sees a share in the clear; they are opened only here.
    """
    uploads: Dict[int, np.ndarray] = {}
    for peer_id, secagg_id in participating.items():
        key = _UPLOAD_PREFIX + peer_id
        if not enclave.trusted_has(key):
            raise AggregationError(
                f"worker {peer_id!r} is declared participating in round "
                f"{round_index} but uploaded nothing"
            )
        uploads[secagg_id] = enclave.trusted_get(key)
    shares: Dict[int, List[Share]] = {}
    for secagg_id, records in share_records.items():
        opened: List[Share] = []
        for holder_id, record in records:
            channel: SecureChannel = enclave.trusted_get(
                _CHANNEL_PREFIX + holder_id
            )
            try:
                opened.append(decode_share(channel.receive(record)))
            except (AuthenticationError, CryptoError) as exc:
                raise AggregationError(
                    f"round {round_index}: share revealed by {holder_id!r} "
                    f"for dropout {secagg_id} failed channel "
                    f"authentication: {exc}"
                ) from exc
        shares[secagg_id] = opened
    if directory:
        total = aggregate_with_dropouts(
            uploads, directory, dropped=list(dropped.values()),
            shares=shares, threshold=threshold,
            vector_shape=(int(np.prod(vector_shape)),),
        )
    else:
        # Degenerate single-worker cohort: masking is pointless (the
        # aggregate reveals the lone update regardless) and was skipped.
        if len(uploads) != 1 or dropped:
            raise AggregationError(
                "an unmasked round must have exactly one participant"
            )
        total = next(iter(uploads.values()))
    weight_total = float(sum(weights[peer_id] for peer_id in participating))
    if weight_total <= 0:
        raise AggregationError("participating shard weights sum to zero")
    result = (total / weight_total).reshape(vector_shape)
    enclave.trusted_put(_RESULT_KEY, result, nbytes=result.nbytes)
    for peer_id in participating:
        enclave.trusted_delete(_UPLOAD_PREFIX + peer_id)
    # Charge the in-enclave reduction arithmetic to the simulated clock:
    # one pass over every upload plus one PRG mask expansion per dropped
    # client per cohort member.
    flops = float(result.size) * (
        len(participating) + len(dropped) * max(len(directory), 1)
    )
    platform = enclave.platform
    platform.clock.advance(
        platform.cost_model.compute_seconds(flops, in_enclave=True)
    )
    return {
        "round": round_index,
        "participants": sorted(participating),
        "dropped": sorted(dropped),
        "recovered_masks": len(dropped),
        "weight_total": weight_total,
        "digest": sha256(result.tobytes()).hex(),
    }


def _ecall_agg_broadcast(enclave: Enclave, peer_id: str) -> bytes:
    """Trusted: protect the agreed update for one worker's channel."""
    channel: SecureChannel = enclave.trusted_get(_CHANNEL_PREFIX + peer_id)
    result: np.ndarray = enclave.trusted_get(_RESULT_KEY)
    return channel.send(encode_vector(result))


# -- the untrusted-host wrapper ----------------------------------------------


class AggregatorEnclave:
    """Hosts the aggregation enclave and its hash-chained audit trail."""

    def __init__(self, rng: RngStream,
                 attestation_service: AttestationService,
                 platform_id: str = "sgx-aggregator") -> None:
        self.platform = SgxPlatform(rng=rng.child("platform"),
                                    platform_id=platform_id)
        attestation_service.register_platform(
            self.platform.platform_id, self.platform.platform_key
        )
        enclave = self.platform.create_enclave("aggregator-enclave")
        enclave.add_code("agg_start_handshake", _ecall_agg_start_handshake)
        enclave.add_code("agg_finish_handshake", _ecall_agg_finish_handshake)
        enclave.add_code("agg_submit", _ecall_agg_submit)
        enclave.add_code("agg_reduce", _ecall_agg_reduce)
        enclave.add_code("agg_broadcast", _ecall_agg_broadcast)
        enclave.add_data("role", "secure-aggregator")
        enclave.init()
        self.enclave = enclave
        #: Tamper-evident per-round aggregation history (the audit trail
        #: the example and CLI print).
        self.audit = AuditLog()

    @property
    def mrenclave(self) -> bytes:
        """The measurement workers agree on before trusting a channel."""
        return self.enclave.mrenclave

    def start_handshake(self, peer_id: str, hello_c: ClientHello):
        return self.enclave.ecall("agg_start_handshake", peer_id, hello_c,
                                  payload_bytes=512)

    def finish_handshake(self, peer_id: str, finished: Finished) -> None:
        self.enclave.ecall("agg_finish_handshake", peer_id, finished,
                           payload_bytes=64)

    def submit(self, peer_id: str, record: bytes) -> int:
        """Relay one opaque masked-update record into the enclave."""
        return self.enclave.ecall("agg_submit", peer_id, record,
                                  payload_bytes=len(record))

    def reduce(self, round_index: int, participating: Dict[str, int],
               weights: Dict[str, float], dropped: Dict[str, int],
               share_records: Dict[int, List[Tuple[str, bytes]]],
               directory: Dict[int, int], threshold: int,
               vector_shape: Tuple[int, ...]) -> Dict[str, object]:
        """Run the round's in-enclave reduction; append the audit event.

        ``share_records`` are the survivors' revealed shares, still sealed
        for their attested channels — opaque to this untrusted wrapper.
        """
        summary = self.enclave.ecall(
            "agg_reduce", round_index, participating, weights, dropped,
            share_records, directory, threshold, vector_shape,
            payload_bytes=sum(
                len(record) for records in share_records.values()
                for _, record in records
            ),
        )
        self.audit.append("aggregation", **summary)
        _LOG.info(
            "round %d aggregated: %d participants, %d dropped",
            round_index, len(participating), len(dropped),
        )
        return summary

    def broadcast_record(self, peer_id: str) -> bytes:
        """The agreed update, protected for one worker's channel."""
        return self.enclave.ecall("agg_broadcast", peer_id,
                                  payload_bytes=64)
