"""Nonce-discipline regressions (satellite of the ingestion plane).

The AEAD security of the whole pipeline rests on one invariant: a key
never seals two different payloads under the same nonce. These tests pin
the two places an interrupted upload could break it — the client's
counter after a crash, and the server's journal on a replay.
"""

import pytest

from repro.crypto.keys import SymmetricKey
from repro.data.encryption import iter_encrypted_records
from repro.errors import TransferError
from repro.ingest import UploadTransfer


@pytest.fixture
def contributor(contributors):
    return contributors[0]


class TestCounterDiscipline:
    def test_next_nonce_never_repeats(self, contributor):
        key = SymmetricKey("k", contributor.key.material)
        nonces = [key.next_nonce() for _ in range(64)]
        assert len(set(nonces)) == len(nonces)
        assert nonces == sorted(nonces)

    def test_advance_past_never_rewinds(self, contributor):
        key = SymmetricKey("k", contributor.key.material)
        high = key.next_nonce()
        for _ in range(5):
            high = key.next_nonce()
        fresh = SymmetricKey("k", contributor.key.material)
        fresh.advance_past(high)
        assert fresh.next_nonce() > high
        # advancing past an *older* nonce must not rewind the counter
        fresh.advance_past((1).to_bytes(len(high), "big"))
        assert fresh.next_nonce() > high

    def test_interrupted_and_resumed_upload_never_reuses_a_nonce(
            self, contributor, tmp_path):
        """The crash-resume path: a fresh process re-derives the key from
        its material, advances past the highest journaled nonce, and the
        resumed stream's nonces are disjoint from the acked ones."""
        key = SymmetricKey("c0/data-key", contributor.key.material)
        stream = iter_encrypted_records(contributor.dataset, key, "c0")
        transfer = UploadTransfer.create(tmp_path / "t")
        acked = []
        for _ in range(2):  # 8 of 12 records journaled, then the crash
            chunk = [next(stream) for _ in range(4)]
            transfer.append_chunk(chunk)
            acked.extend(chunk)
        del key, stream

        resumed = UploadTransfer.resume(tmp_path / "t")
        fresh_key = SymmetricKey("c0/data-key", contributor.key.material)
        fresh_key.advance_past(resumed.max_nonce())
        rest = list(iter_encrypted_records(
            contributor.dataset, fresh_key, "c0",
            start_index=resumed.acked_records,
        ))
        resumed.append_chunk(rest)

        all_nonces = [r.nonce for r in acked] + [r.nonce for r in rest]
        assert len(set(all_nonces)) == len(all_nonces)

    def test_resumed_stream_is_byte_identical(self, contributor):
        """Deterministic counter nonces make the resumed suffix equal the
        suffix of an uninterrupted upload — the property the ledger's
        manifest-digest parity check depends on."""
        key_a = SymmetricKey("c0/data-key", contributor.key.material)
        uninterrupted = list(iter_encrypted_records(
            contributor.dataset, key_a, "c0"
        ))
        key_b = SymmetricKey("c0/data-key", contributor.key.material)
        head = [
            r for _, r in zip(range(8), iter_encrypted_records(
                contributor.dataset, key_b, "c0"))
        ]
        key_c = SymmetricKey("c0/data-key", contributor.key.material)
        key_c.advance_past(max(r.nonce for r in head))
        tail = list(iter_encrypted_records(
            contributor.dataset, key_c, "c0", start_index=8
        ))
        assert head + tail == uninterrupted


class TestJournalDiscipline:
    def test_replayed_chunk_not_double_committed(self, contributor, tmp_path):
        """Same nonce, same ciphertext — the client's retry after a lost
        ack — is detected by the journal digest and acked idempotently."""
        records = list(iter_encrypted_records(
            contributor.dataset,
            SymmetricKey("c0/data-key", contributor.key.material), "c0"
        ))
        transfer = UploadTransfer.create(tmp_path / "t")
        transfer.append_chunk(records[:4])
        receipt = transfer.append_chunk(records[:4])
        assert receipt.replayed
        assert transfer.acked_records == 4
        assert [r.nonce for r in transfer.finalize()[0]] == \
            [r.nonce for r in records[:4]]

    def test_replay_survives_the_crash_window(self, contributor, tmp_path):
        """The journal (not in-memory state) carries the replay barrier:
        after a resume, both the idempotent re-ack and the new-seq nonce
        reuse rejection still hold."""
        records = list(iter_encrypted_records(
            contributor.dataset,
            SymmetricKey("c0/data-key", contributor.key.material), "c0"
        ))
        transfer = UploadTransfer.create(tmp_path / "t")
        transfer.append_chunk(records[:4])
        resumed = UploadTransfer.resume(tmp_path / "t")
        assert resumed.append_chunk(records[:4]).replayed
        with pytest.raises(TransferError):
            resumed.append_chunk([records[0]] + records[4:6])
