"""Chunked-transfer tests: journal durability, resume, replay discipline."""

import dataclasses
import json

import pytest

from repro.data.encryption import EncryptedRecord, iter_encrypted_records
from repro.errors import TransferError
from repro.ingest import UploadTransfer, chunk_stream
from repro.ingest.ledger import record_digest, record_header
from tests.ingest.conftest import flip_chunk_byte, rewrite_chunk_headers


@pytest.fixture
def records(contributors):
    return list(iter_encrypted_records(contributors[0].dataset,
                                       contributors[0].key,
                                       contributors[0].participant_id))


class TestChunkStream:
    def test_bounds_chunks(self, records):
        chunks = list(chunk_stream(iter(records), 5))
        assert [len(c) for c in chunks] == [5, 5, 2]
        assert [r for c in chunks for r in c] == records

    def test_bad_bound_rejected(self, records):
        with pytest.raises(TransferError):
            list(chunk_stream(iter(records), 0))


class TestAppend:
    def test_ack_sequence(self, tmp_path, records):
        transfer = UploadTransfer.create(tmp_path / "t")
        r0 = transfer.append_chunk(records[:4])
        r1 = transfer.append_chunk(records[4:8])
        assert (r0.seq, r1.seq) == (0, 1)
        assert transfer.next_seq == 2
        assert transfer.acked_records == 8
        assert transfer.finalize()[0] == records[:8]

    def test_empty_chunk_rejected(self, tmp_path):
        transfer = UploadTransfer.create(tmp_path / "t")
        with pytest.raises(TransferError):
            transfer.append_chunk([])

    def test_replayed_chunk_idempotent(self, tmp_path, records):
        """Same nonce, same ciphertext: ack again, never double-commit."""
        transfer = UploadTransfer.create(tmp_path / "t")
        transfer.append_chunk(records[:4])
        receipt = transfer.append_chunk(records[:4])
        assert receipt.replayed and receipt.seq == 0
        assert transfer.acked_records == 4
        assert transfer.finalize()[0] == records[:4]

    def test_nonce_replay_under_new_seq_rejected(self, tmp_path, records):
        """Old records smuggled into a fresh chunk are a protocol breach."""
        transfer = UploadTransfer.create(tmp_path / "t")
        transfer.append_chunk(records[:4])
        with pytest.raises(TransferError):
            transfer.append_chunk([records[0]] + records[4:6])

    def test_duplicate_nonces_within_chunk_rejected(self, tmp_path, records):
        transfer = UploadTransfer.create(tmp_path / "t")
        with pytest.raises(TransferError):
            transfer.append_chunk([records[0], records[0]])

    @pytest.mark.parametrize("field", ["sealed", "nonce"])
    def test_mutable_bytes_rejected(self, tmp_path, records, field):
        """The journaled records are what ``finalize`` hands over, so a
        buffer the caller could mutate after the ack is refused before
        anything is journaled."""
        transfer = UploadTransfer.create(tmp_path / "t")
        mutable = dataclasses.replace(
            records[1], **{field: bytearray(getattr(records[1], field))})
        with pytest.raises(TransferError, match="send bytes"):
            transfer.append_chunk([records[0], mutable])
        assert transfer.next_seq == 0
        assert not list((tmp_path / "t").glob("chunk-*.bin"))
        assert (tmp_path / "t" / "journal.jsonl").read_text() == ""


class TestResume:
    def test_resume_reports_journal_head(self, tmp_path, records):
        transfer = UploadTransfer.create(tmp_path / "t")
        transfer.append_chunk(records[:4])
        transfer.append_chunk(records[4:8])
        resumed = UploadTransfer.resume(tmp_path / "t")
        assert resumed.next_seq == 2
        assert resumed.acked_records == 8
        assert resumed.max_nonce() == max(r.nonce for r in records[:8])
        resumed.append_chunk(records[8:])
        assert resumed.finalize() == (records,
                                      [record_header(r) for r in records],
                                      [record_digest(r) for r in records])

    def test_torn_unjournaled_chunk_discarded(self, tmp_path, records):
        """A chunk file written but never journaled (the crash window) is
        deleted on resume so the client re-sends it."""
        transfer = UploadTransfer.create(tmp_path / "t")
        transfer.append_chunk(records[:4])
        (tmp_path / "t" / "chunk-000001.bin").write_bytes(b"half-written")
        resumed = UploadTransfer.resume(tmp_path / "t")
        assert resumed.next_seq == 1
        assert not (tmp_path / "t" / "chunk-000001.bin").exists()

    def test_torn_chunk_write_discarded(self, tmp_path, records):
        """A crash inside the chunk write leaves only its temporary file,
        never a torn chunk under the final name; resume removes it."""
        transfer = UploadTransfer.create(tmp_path / "t")
        transfer.append_chunk(records[:4])
        (tmp_path / "t" / "chunk-000001.bin.tmp").write_bytes(b"half")
        resumed = UploadTransfer.resume(tmp_path / "t")
        assert resumed.next_seq == 1
        assert sorted(p.name for p in (tmp_path / "t").iterdir()) == [
            "chunk-000000.bin", "journal.jsonl"]

    def test_corrupted_acked_chunk_fails_closed(self, tmp_path, records):
        """A failed chunk *behind* the journal head was acknowledged —
        corruption after the fact, never a crash window — so resume
        refuses rather than silently dropping committed data."""
        transfer = UploadTransfer.create(tmp_path / "t")
        transfer.append_chunk(records[:4])
        transfer.append_chunk(records[4:8])
        flip_chunk_byte(tmp_path / "t", 0)
        with pytest.raises(TransferError):
            UploadTransfer.resume(tmp_path / "t")

    def test_non_canonical_chunk_fails_closed(self, tmp_path, records):
        """A chunk whose headers carry the same fields in other bytes,
        with its journal line rewritten to match, is no crash window: even
        at the tail, resume refuses it instead of handing the re-encoded
        headers on as record identities."""
        transfer = UploadTransfer.create(tmp_path / "t")
        transfer.append_chunk(records[:4])
        rewrite_chunk_headers(tmp_path / "t", 0)
        with pytest.raises(TransferError, match="not canonically packed"):
            UploadTransfer.resume(tmp_path / "t")

    def test_missing_acked_chunk_fails_closed(self, tmp_path, records):
        transfer = UploadTransfer.create(tmp_path / "t")
        transfer.append_chunk(records[:4])
        transfer.append_chunk(records[4:8])
        (tmp_path / "t" / "chunk-000000.bin").unlink()
        with pytest.raises(TransferError):
            UploadTransfer.resume(tmp_path / "t")

    def test_torn_tail_chunk_truncates_journal(self, tmp_path, records):
        """A journal line whose chunk never became durable (power loss
        between the chunk fsync and the journal fsync being observed by
        the client) was never acknowledged: resume truncates back to the
        last consistent entry instead of failing the session forever."""
        transfer = UploadTransfer.create(tmp_path / "t")
        transfer.append_chunk(records[:4])
        transfer.append_chunk(records[4:8])
        flip_chunk_byte(tmp_path / "t", 1)
        chunk = tmp_path / "t" / "chunk-000001.bin"
        resumed = UploadTransfer.resume(tmp_path / "t")
        assert resumed.next_seq == 1
        assert resumed.acked_records == 4
        assert not chunk.exists()
        journal = (tmp_path / "t" / "journal.jsonl").read_text().splitlines()
        assert len(journal) == 1
        # The client re-sends the dropped chunk and the stream continues.
        resumed.append_chunk(records[4:8])
        resumed.append_chunk(records[8:])
        assert resumed.finalize()[0] == records

    def test_missing_tail_chunk_truncates_journal(self, tmp_path, records):
        transfer = UploadTransfer.create(tmp_path / "t")
        transfer.append_chunk(records[:4])
        transfer.append_chunk(records[4:8])
        (tmp_path / "t" / "chunk-000001.bin").unlink()
        resumed = UploadTransfer.resume(tmp_path / "t")
        assert resumed.next_seq == 1
        assert resumed.max_nonce() == max(r.nonce for r in records[:4])

    def test_torn_journal_tail_truncates(self, tmp_path, records):
        """A crash during the journal append leaves the last line cut
        mid-JSON: that chunk was never acknowledged, so resume drops the
        line (and its chunk file) and the session stays resumable."""
        transfer = UploadTransfer.create(tmp_path / "t")
        transfer.append_chunk(records[:4])
        transfer.append_chunk(records[4:8])
        journal = tmp_path / "t" / "journal.jsonl"
        lines = journal.read_text().splitlines()
        journal.write_text(lines[0] + "\n" + lines[1][: len(lines[1]) // 2])
        resumed = UploadTransfer.resume(tmp_path / "t")
        assert resumed.next_seq == 1 and resumed.acked_records == 4
        assert journal.read_text() == lines[0] + "\n"
        assert not (tmp_path / "t" / "chunk-000001.bin").exists()
        resumed.append_chunk(records[4:8])
        resumed.append_chunk(records[8:])
        assert resumed.finalize()[0] == records

    def test_unterminated_journal_tail_kept_and_terminated(self, tmp_path,
                                                           records):
        """A whole last line that lost only its newline is a journaled
        chunk; resume keeps it and terminates the line, so the next
        append does not run into it."""
        transfer = UploadTransfer.create(tmp_path / "t")
        transfer.append_chunk(records[:4])
        journal = tmp_path / "t" / "journal.jsonl"
        journal.write_text(journal.read_text().rstrip("\n"))
        resumed = UploadTransfer.resume(tmp_path / "t")
        assert resumed.next_seq == 1
        resumed.append_chunk(records[4:8])
        assert UploadTransfer.resume(tmp_path / "t").next_seq == 2

    def test_malformed_journal_line_behind_head_fails_closed(self, tmp_path,
                                                             records):
        transfer = UploadTransfer.create(tmp_path / "t")
        transfer.append_chunk(records[:4])
        transfer.append_chunk(records[4:8])
        journal = tmp_path / "t" / "journal.jsonl"
        lines = journal.read_text().splitlines()
        journal.write_text(lines[0][:-3] + "\n" + lines[1] + "\n")
        with pytest.raises(TransferError, match="malformed"):
            UploadTransfer.resume(tmp_path / "t")

    def test_every_byte_flip_behind_head_is_refused(self, tmp_path):
        """The chunk digest is over the record digests, which cover each
        frame, and the count, which covers the framing: flipping any
        single byte of an acknowledged chunk fails resume closed, as it
        did when the digest ran over the packed payload."""
        pool = [EncryptedRecord(source_id="c0", index=i, label=i % 3,
                                nonce=bytes([i]) * 12,
                                sealed=bytes([i, 255 - i]) * 20)
                for i in range(4)]
        transfer = UploadTransfer.create(tmp_path / "t")
        transfer.append_chunk(pool[:2])
        transfer.append_chunk(pool[2:])
        chunk = tmp_path / "t" / "chunk-000000.bin"
        original = chunk.read_bytes()
        for offset in range(len(original)):
            flipped = bytearray(original)
            flipped[offset] ^= 0xFF
            chunk.write_bytes(bytes(flipped))
            with pytest.raises(TransferError):
                UploadTransfer.resume(tmp_path / "t")
        chunk.write_bytes(original)
        assert UploadTransfer.resume(tmp_path / "t").finalize()[0] == pool

    def test_journal_tracks_bytes(self, tmp_path, records):
        transfer = UploadTransfer.create(tmp_path / "t")
        transfer.append_chunk(records[:4])
        assert transfer.acked_bytes == sum(len(r.sealed) for r in records[:4])
        resumed = UploadTransfer.resume(tmp_path / "t")
        assert resumed.acked_bytes == transfer.acked_bytes

    def test_resume_without_journal_rejected(self, tmp_path):
        with pytest.raises(TransferError):
            UploadTransfer.resume(tmp_path / "nothing")

    def test_journal_records_nonces(self, tmp_path, records):
        transfer = UploadTransfer.create(tmp_path / "t")
        transfer.append_chunk(records[:4])
        line = json.loads(
            (tmp_path / "t" / "journal.jsonl").read_text().splitlines()[0]
        )
        assert line["nonces"] == [r.nonce.hex() for r in records[:4]]


class TestFinalize:
    def test_finalize_closes_transfer(self, tmp_path, records):
        transfer = UploadTransfer.create(tmp_path / "t")
        transfer.append_chunk(records[:4])
        finalized, headers, digests = transfer.finalize()
        assert finalized == records[:4]
        assert headers == [record_header(r) for r in records[:4]]
        assert digests == [record_digest(r) for r in records[:4]]
        with pytest.raises(TransferError):
            transfer.append_chunk(records[4:8])
        with pytest.raises(TransferError):
            transfer.finalize()

    def test_discard_removes_spool(self, tmp_path, records):
        transfer = UploadTransfer.create(tmp_path / "t")
        transfer.append_chunk(records[:4])
        transfer.discard()
        assert not (tmp_path / "t").exists()
