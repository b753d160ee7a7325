"""Secret provisioning: attested TLS key delivery into the training enclave.

The flow (paper, Section IV-A):

1. the participant sends a ClientHello to the enclave;
2. the enclave answers with a ServerHello whose DH share is *bound* to an
   attestation quote — the quote's ``report_data`` is the hash of the
   server's DH public value;
3. the participant verifies the quote against the attestation service and
   the agreed MRENCLAVE, checks the binding, and finishes the handshake;
4. the participant sends its symmetric data key over the established
   channel; the trusted provisioning ECALL stores it in enclave memory.

Only after all of this does any key material exist server-side — and only
inside the enclave.
"""

from __future__ import annotations

from repro.crypto.hashing import constant_time_equal, sha256
from repro.crypto.tls import ClientHello, Finished, SecureChannel, TlsServer
from repro.enclave.attestation import AttestationService, Quote
from repro.enclave.enclave import Enclave
from repro.errors import AttestationError, ProvisioningError
from repro.federation.participant import TrainingParticipant

__all__ = ["install_provisioning_ecalls", "provision_key"]

_SESSION_PREFIX = "tls-session/"
_KEY_PREFIX = "participant-key/"


# -- trusted (in-enclave) functions -----------------------------------------


def _ecall_start_handshake(enclave: Enclave, participant_id: str,
                           hello_c: ClientHello):
    """Trusted: answer a ClientHello and emit a bound attestation quote."""
    server = TlsServer(rng=enclave.trusted_rng.stream.child(f"tls/{participant_id}"))
    # Bind the quote to this handshake: report_data = H(server DH public).
    report_data = sha256(server.dh_public.to_bytes(256, "big"))
    server.bind_report_data(report_data)
    hello_s = server.process_client_hello(hello_c)
    enclave.trusted_put(_SESSION_PREFIX + participant_id, server)
    quote = enclave.quote(report_data=report_data)
    return hello_s, quote


def _ecall_finish_handshake(enclave: Enclave, participant_id: str,
                            finished: Finished) -> None:
    """Trusted: verify the client Finished and open the record channel."""
    server: TlsServer = enclave.trusted_get(_SESSION_PREFIX + participant_id)
    server.process_finished(finished)
    enclave.trusted_put(
        _SESSION_PREFIX + participant_id + "/channel", server.channel()
    )


def _ecall_provision_key(enclave: Enclave, participant_id: str,
                         record: bytes) -> None:
    """Trusted: receive one protected record carrying the data key."""
    channel: SecureChannel = enclave.trusted_get(
        _SESSION_PREFIX + participant_id + "/channel"
    )
    key_material = channel.receive(record)
    enclave.trusted_put(_KEY_PREFIX + participant_id, key_material,
                        nbytes=len(key_material))


def install_provisioning_ecalls(enclave: Enclave) -> None:
    """Register the provisioning ECALLs (call during enclave build)."""
    enclave.add_code("start_handshake", _ecall_start_handshake)
    enclave.add_code("finish_handshake", _ecall_finish_handshake)
    enclave.add_code("provision_key", _ecall_provision_key)


# -- untrusted orchestration + participant side --------------------------------


def provision_key(participant: TrainingParticipant, enclave: Enclave,
                  attestation_service: AttestationService,
                  expected_mrenclave: bytes) -> None:
    """Run the full attested provisioning flow for one participant.

    Raises:
        AttestationError: quote invalid, wrong MRENCLAVE, or broken binding.
        ProvisioningError: handshake/record failures.
    """
    from repro.crypto.tls import TlsClient

    client = TlsClient(rng=participant.rng.child("tls-client"))
    hello_c = client.client_hello()
    hello_s, quote = enclave.ecall(
        "start_handshake", participant.participant_id, hello_c, payload_bytes=512
    )

    _verify_binding(quote, hello_s.dh_public, attestation_service, expected_mrenclave)

    finished = client.process_server_hello(hello_s)
    enclave.ecall(
        "finish_handshake", participant.participant_id, finished, payload_bytes=64
    )
    channel = client.channel()
    record = channel.send(participant.key.material)
    enclave.ecall(
        "provision_key", participant.participant_id, record,
        payload_bytes=len(record),
    )
    if not enclave.trusted_has(_KEY_PREFIX + participant.participant_id):
        raise ProvisioningError(
            f"enclave did not record a key for {participant.participant_id}"
        )


def _verify_binding(quote: Quote, server_dh_public: int,
                    attestation_service: AttestationService,
                    expected_mrenclave: bytes) -> None:
    attestation_service.verify(quote, expected_mrenclave=expected_mrenclave)
    expected_binding = sha256(server_dh_public.to_bytes(256, "big"))
    if not constant_time_equal(quote.report_data, expected_binding):
        raise AttestationError(
            "quote is not bound to this TLS handshake (possible MITM)"
        )


def provisioned_key(enclave: Enclave, participant_id: str) -> bytes:
    """Trusted-code helper: fetch a provisioned key from enclave storage."""
    key_name = _KEY_PREFIX + participant_id
    if not enclave.trusted_has(key_name):
        raise ProvisioningError(f"no key provisioned for {participant_id!r}")
    return enclave.trusted_get(key_name)
