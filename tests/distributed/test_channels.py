"""Attested-channel and record-integrity failure-mode tests.

The satellite's contract: mid-round corruption of a masked upload is
detected (AEAD tag or boundary checksum), classified as a *worker* fault,
and the round completes by partial aggregation — the coordinator never
crashes over a bad record.
"""

import numpy as np
import pytest

from repro.distributed import decode_vector, encode_vector
from repro.distributed.channels import open_attested_channel
from repro.errors import (AttestationError, AuthenticationError,
                          ChannelIntegrityError, RoundAborted)

from tests.distributed.worlds import (assert_same_weights, make_coordinator,
                                      run_faulted, worker_fault)


class TestVectorRecords:
    def test_roundtrip(self, generator):
        vector = generator.normal(size=257)
        np.testing.assert_array_equal(
            decode_vector(encode_vector(vector)), vector.astype(np.float64)
        )

    def test_roundtrip_with_shape(self, generator):
        vector = generator.normal(size=12)
        out = decode_vector(encode_vector(vector), shape=(3, 4))
        assert out.shape == (3, 4)

    def test_truncated_record_fails_closed(self):
        with pytest.raises(ChannelIntegrityError, match="truncated"):
            decode_vector(b"\x01\x02")

    def test_length_mismatch_fails_closed(self, generator):
        blob = encode_vector(generator.normal(size=8))
        with pytest.raises(ChannelIntegrityError, match="payload bytes"):
            decode_vector(blob[:-8])

    def test_bitflip_fails_boundary_checksum(self, generator):
        blob = bytearray(encode_vector(generator.normal(size=8)))
        blob[20] ^= 0x40
        with pytest.raises(ChannelIntegrityError, match="checksum"):
            decode_vector(bytes(blob))


class TestAttestedChannel:
    def test_handshake_requires_agreed_measurement(self, tmp_path):
        """A worker refuses a channel to an aggregator whose quote does
        not carry the agreed MRENCLAVE."""
        coordinator, rng = make_coordinator(tmp_path, num_workers=2)
        with pytest.raises(AttestationError):
            open_attested_channel(
                rng=rng.child("probe"),
                aggregator=coordinator.aggregator,
                peer_id="probe",
                attestation_service=coordinator.workers[0].attestation_service,
                expected_mrenclave=b"\x00" * 32,
            )

    def test_channel_records_are_sequence_bound(self, tmp_path):
        """Replaying a worker's previous record into the aggregator fails
        the AEAD sequence check — records cannot be reordered/replayed."""
        coordinator, _ = make_coordinator(tmp_path, num_workers=2)
        coordinator.run(1)
        worker = coordinator.workers[0]
        record = worker.upload_record(masked=False)
        coordinator.aggregator.submit(worker.worker_id, record)
        with pytest.raises(AuthenticationError):
            coordinator.aggregator.submit(worker.worker_id, record)

    def test_rehandshake_derives_fresh_server_keys(self, tmp_path):
        """Successive handshakes for the same peer must not reproduce the
        aggregator's DH share or nonce: seed-derived reuse would rebuild
        the previous session's record keys with sequence counters reset."""
        from repro.crypto.tls import TlsClient

        coordinator, rng = make_coordinator(tmp_path, num_workers=2)
        hello_1 = TlsClient(rng=rng.child("probe-1")).client_hello()
        hello_2 = TlsClient(rng=rng.child("probe-2")).client_hello()
        hello_s1, _ = coordinator.aggregator.start_handshake("probe", hello_1)
        hello_s2, _ = coordinator.aggregator.start_handshake("probe", hello_2)
        assert hello_s1.dh_public != hello_s2.dh_public
        assert hello_s1.nonce != hello_s2.nonce

    def test_stale_record_rejected_after_rehandshake(self, tmp_path):
        """The replay attack a re-handshake must shut out: the coordinator
        corrupts one upload to force a channel reset, then replays a
        record captured from the old session onto the 'fresh' channel. If
        either side re-derived the same handshake keys, the stale record
        would re-authenticate at sequence 0 and silently bias the round."""
        coordinator, _ = make_coordinator(tmp_path, num_workers=2)
        coordinator.run(1)
        worker = coordinator.workers[0]
        worker.open_channel(coordinator.aggregator)   # session A (reset)
        stale = worker.upload_record(masked=False)    # sequence 0 on A
        worker.open_channel(coordinator.aggregator)   # session B (fresh)
        with pytest.raises(AuthenticationError):
            coordinator.aggregator.submit(worker.worker_id, stale)


class TestMidRoundCorruption:
    def test_corruption_is_a_worker_fault_not_a_coordinator_crash(
            self, tmp_path):
        """The headline failure mode: one flipped byte in the relay path
        drops that worker from the round; everyone else aggregates."""
        coordinator, _ = make_coordinator(tmp_path, num_workers=3)
        report = run_faulted(
            coordinator, 1,
            worker_fault("corrupt", "w1", 0),
        )[0]  # must not raise
        assert report.corrupted == ["w1"]
        assert sorted(report.participating) == ["w0", "w2"]
        assert report.recovered_masks == 1
        assert coordinator.telemetry.counter("channel_corruptions") == 1
        assert coordinator.telemetry.counter("worker_faults") == 1

    def test_corrupted_worker_converges_at_broadcast(self, tmp_path):
        coordinator, _ = make_coordinator(tmp_path, num_workers=3)
        run_faulted(coordinator, 1, worker_fault("corrupt", "w2", 0))
        reference = coordinator.workers[0].replica_weights()
        assert_same_weights(coordinator.workers[2].replica_weights(),
                            reference)

    def test_corrupted_worker_rejoins_next_round(self, tmp_path):
        coordinator, _ = make_coordinator(tmp_path, num_workers=2)
        reports = run_faulted(coordinator, 2, worker_fault("corrupt", "w0", 0))
        assert reports[0].corrupted == ["w0"]
        assert sorted(reports[1].participating) == ["w0", "w1"]

    def test_every_upload_corrupted_aborts_fail_closed(self, tmp_path):
        coordinator, _ = make_coordinator(tmp_path, num_workers=2)
        with pytest.raises(RoundAborted, match="no upload survived"):
            run_faulted(
                coordinator, 1,
                worker_fault("corrupt", "w0", 0),
                worker_fault("corrupt", "w1", 0),
            )

    def test_aggregator_audit_names_the_dropout(self, tmp_path):
        coordinator, _ = make_coordinator(tmp_path, num_workers=3)
        run_faulted(coordinator, 1, worker_fault("corrupt", "w1", 0))
        event = coordinator.audit.events("aggregation")[0]
        assert event.details["dropped"] == ["w1"]
        assert coordinator.audit.verify_chain()
