"""Contribution-ledger tests: lanes, content addressing, sealing."""

import hashlib
import json
import os
import struct
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.aead import ShakeHmacAead
from repro.data.encryption import (EncryptedRecord, iter_encrypted_records,
                                   record_aad)
from repro.errors import LedgerError
from repro.ingest import ContributionLedger, record_digest
from repro.ingest.ledger import (header_digest, iter_packed, record_header,
                                 record_identities, unpack_headed)
from repro.ingest.transfer import UploadTransfer
from repro.utils.fileio import atomic_write_bytes
from repro.utils.serialization import canonical_digest


def _records(contributor, n=None):
    records = list(iter_encrypted_records(contributor.dataset,
                                          contributor.key,
                                          contributor.participant_id))
    return records if n is None else records[:n]


class TestPacking:
    def test_roundtrip(self, contributors):
        records = _records(contributors[0], 5)
        assert unpack_headed(b"".join(iter_packed(records)))[0] == records

    def test_canonical(self, contributors):
        records = _records(contributors[0], 5)
        assert (b"".join(iter_packed(records))
                == b"".join(iter_packed(list(records))))

    def test_trailing_bytes_rejected(self, contributors):
        blob = b"".join(iter_packed(_records(contributors[0], 2)))
        with pytest.raises(LedgerError):
            unpack_headed(blob + b"x")


class TestLanes:
    def test_append_and_iterate(self, ledger, contributors):
        records = _records(contributors[0])
        info = ledger.append(records, "c0")
        assert info.records == len(records)
        assert list(ledger.iter_records()) == records
        assert len(ledger) == len(records)
        assert ledger.contributors() == ["c0"]

    def test_quarantine_never_reaches_committed_lane(self, ledger,
                                                     contributors):
        good = _records(contributors[0], 6)
        bad = _records(contributors[1], 3)
        ledger.append(good, "c0")
        ledger.quarantine(bad, "c1", reason="tampered")
        assert list(ledger.iter_records()) == good
        assert list(ledger.iter_records(lane="quarantine")) == bad
        assert ledger.quarantined_records == 3
        assert ledger.quarantined[0].reason == "tampered"

    def test_known_ciphertexts_commits_only(self, ledger, contributors):
        good = _records(contributors[0], 3)
        bad = _records(contributors[1], 2)
        ledger.append(good, "c0")
        ledger.quarantine(bad, "c1", reason="duplicate")
        good_digest, bad_digest = record_digest(good[0]), record_digest(bad[0])
        assert ledger.known_ciphertexts([good_digest, bad_digest]) == {
            good_digest}

    def test_empty_segment_rejected(self, ledger):
        with pytest.raises(LedgerError):
            ledger.append([], "c0")


class TestCommitDeduplicated:
    def test_partitions_fresh_from_committed(self, ledger, contributors):
        records = _records(contributors[0], 6)
        ledger.append(records[:3], "c0")
        segment, duplicates = ledger.commit_deduplicated(records, "c0")
        assert segment is not None and segment.records == 3
        assert duplicates == records[:3]
        assert list(ledger.iter_records()) == records

    def test_catches_duplicates_within_the_batch(self, ledger, contributors):
        records = _records(contributors[0], 3)
        segment, duplicates = ledger.commit_deduplicated(
            records + [records[0]], "c0"
        )
        assert segment.records == 3
        assert duplicates == [records[0]]

    def test_all_duplicates_commits_nothing(self, ledger, contributors):
        records = _records(contributors[0], 3)
        ledger.append(records, "c0")
        segment, duplicates = ledger.commit_deduplicated(records, "c0")
        assert segment is None and duplicates == records
        assert len(ledger) == 3

    def test_racing_commits_admit_exactly_one_copy(self, ledger,
                                                   contributors):
        """Two sessions committing the same ciphertexts concurrently must
        not both pass a check-then-commit window: one wins, the loser
        gets every record back as a duplicate."""
        records = _records(contributors[0])
        with ThreadPoolExecutor(max_workers=2) as pool:
            outcomes = list(pool.map(
                lambda name: ledger.commit_deduplicated(records, name),
                ["c0", "c1"],
            ))
        committed = [seg for seg, _ in outcomes if seg is not None]
        assert len(committed) == 1 and committed[0].records == len(records)
        refused = [dups for _, dups in outcomes if dups]
        assert refused == [records]
        assert len(ledger) == len(records)
        assert ledger.verify()


def _oracle_digest(record):
    """The content digest, assembled by hand: SHA-256 over length-prefixed
    canonical JSON (sorted keys, no whitespace) then the length-prefixed
    sealed bytes. Shares no code with ``repro``: if the identity's bytes
    ever drift, this is the side that does not move."""
    meta = ('{"index":%d,"label":%d,"nonce":"%s","source":"%s"}' % (
        record.index, record.label, record.nonce.hex(), record.source_id,
    )).encode("ascii")
    return hashlib.sha256(
        struct.pack("<Q", len(meta)) + meta
        + struct.pack("<Q", len(record.sealed)) + record.sealed
    ).digest()


def _oracle_digest_any(record):
    """:func:`_oracle_digest` for any source id: the header through the
    stdlib encoder (sorted keys, no whitespace, ASCII escapes)."""
    meta = json.dumps({"index": record.index, "label": record.label,
                       "nonce": record.nonce.hex(),
                       "source": record.source_id},
                      separators=(",", ":")).encode("ascii")
    return hashlib.sha256(
        struct.pack("<Q", len(meta)) + meta
        + struct.pack("<Q", len(record.sealed)) + record.sealed
    ).digest()


#: Twelve distinct synthetic records from three contributors; sessions
#: draw from this pool with repeats.
_POOL = [
    EncryptedRecord(source_id=f"c{i % 3}", index=i, label=i % 4,
                    nonce=bytes([i]) * 12, sealed=bytes([i, 255 - i]) * 24)
    for i in range(12)
]

_sessions = st.lists(
    st.tuples(st.sampled_from(["c0", "c1", "c2"]),
              st.lists(st.integers(0, len(_POOL) - 1), max_size=10),
              st.booleans()),
    min_size=1, max_size=5,
)


class TestDedupModel:
    def test_oracle_agrees_with_record_digest_today(self, contributors):
        for record in _records(contributors[0], 3) + _POOL:
            assert record_digest(record) == _oracle_digest(record)

    @settings(max_examples=40, deadline=None)
    @given(sessions=_sessions)
    def test_committed_lane_is_first_occurrences(self, sessions):
        """Any sequence of sessions, any contributors, any repeats: the
        committed lane is each record's first occurrence in arrival
        order, ``duplicates`` is everything else, and every sidecar
        digest is the oracle's — whether the caller carried digests
        beside the records or handed the ledger bare ones."""
        with tempfile.TemporaryDirectory() as root:
            ledger = ContributionLedger.create(Path(root) / "ledger")
            committed, seen = [], set()
            for contributor, picks, carried in sessions:
                records = [_POOL[i] for i in picks]
                fresh, repeats = [], []
                for i in picks:
                    (repeats if i in seen else fresh).append(_POOL[i])
                    seen.add(i)
                segment, duplicates = ledger.commit_deduplicated(
                    records, contributor,
                    [_oracle_digest(r) for r in records] if carried else None,
                )
                assert duplicates == repeats
                assert (segment.records if segment else 0) == len(fresh)
                if segment is not None:
                    sidecar = json.loads(
                        (ledger.path / f"{segment.name}.meta.json").read_text())
                    assert sidecar["digests"] == [
                        _oracle_digest(r).hex() for r in fresh]
                committed.extend(fresh)
            assert list(ledger.iter_records()) == committed
            reopened = ContributionLedger.open(ledger.path)
            assert reopened.manifest_digest() == ledger.manifest_digest()
            assert reopened.known_ciphertexts(
                _oracle_digest(record) for record in _POOL) == {
                _oracle_digest(record) for record in committed}

    def test_carried_digests_must_pair_with_the_records(self, ledger):
        with pytest.raises(LedgerError, match="digests carried beside"):
            ledger.append(_POOL[:3], "c0", [_oracle_digest(_POOL[0])])


_spooled_sessions = st.lists(
    st.tuples(
        st.sampled_from(["c0", "c1", "c2"]),
        st.lists(  # the session's spool chunks: (pool pick, verdict) each
            st.lists(st.tuples(st.integers(0, len(_POOL) - 1),
                               st.sampled_from(("ok", "ok", "ok", "tampered",
                                                "shape", "duplicate"))),
                     min_size=1, max_size=4),
            min_size=1, max_size=5)),
    min_size=1, max_size=3,
)


class TestCommitByReference:
    """A session committed by linking its spool chunks in as parts holds
    what the same session committed by value holds, and every byte of
    its parts and sidecars is covered by :meth:`verify`."""

    @settings(max_examples=40, deadline=None)
    @given(sessions=_spooled_sessions, data=st.data())
    def test_linked_parts_hold_what_values_hold(self, sessions, data):
        with tempfile.TemporaryDirectory() as root:
            root = Path(root)
            linked = ContributionLedger.create(root / "linked")
            held = ContributionLedger.create(root / "held")
            for number, (contributor, chunks) in enumerate(sessions):
                records, verdicts, spool = [], [], []
                for seq, chunk in enumerate(chunks):
                    chunk_records = [_POOL[i] for i, _ in chunk]
                    path = root / "spool" / str(number) / f"chunk-{seq}.bin"
                    path.parent.mkdir(parents=True, exist_ok=True)
                    atomic_write_bytes(path, iter_packed(chunk_records))
                    spool.append((path, len(chunk)))
                    records += chunk_records
                    verdicts += [verdict for _, verdict in chunk]
                digests, headers = record_identities(records)
                by_link = linked.commit_session(contributor, records, digests,
                                                headers, verdicts, spool)
                by_value = held.commit_session(contributor, records, digests,
                                               headers, verdicts)
                assert by_link.duplicates == by_value.duplicates
                assert by_link.parts == {"linked": len(chunks)}
                assert set(by_value.parts) == {"no-spool"}
            for lane in ("committed", "quarantine"):
                assert [record_digest(r) for r in linked.iter_records(lane)] \
                    == [record_digest(r) for r in held.iter_records(lane)]
            assert [(s.contributor, s.reason, s.records)
                    for s in linked.segments + linked.quarantined] == \
                [(s.contributor, s.reason, s.records)
                 for s in held.segments + held.quarantined]
            assert linked.verified_records() == held.verified_records()
            assert list(linked.iter_records("quarantine")) == \
                list(held.iter_records("quarantine"))
            assert linked.data_digest() == held.data_digest()

            files = sorted(path for path in linked.path.iterdir()
                           if path.name != "manifest.json")
            target = data.draw(st.sampled_from(files))
            original = target.read_bytes()
            offset = data.draw(st.integers(0, len(original) - 1))
            flipped = bytearray(original)
            flipped[offset] ^= 0xFF
            target.write_bytes(bytes(flipped))
            with pytest.raises(LedgerError):
                linked.verify()
            target.write_bytes(original)
            assert ContributionLedger.open(linked.path).verify()


_hostile_records = st.lists(
    st.builds(
        EncryptedRecord,
        source_id=st.one_of(st.text(max_size=12),
                            st.sampled_from(['"', 'c"0', "é\\'\"", "源-7"])),
        index=st.integers(0, 2 ** 40),
        label=st.integers(-2 ** 31, 2 ** 31),
        nonce=st.binary(min_size=12, max_size=12),
        sealed=st.one_of(st.binary(max_size=64),
                         st.binary(min_size=1, max_size=20_480)),
    ),
    min_size=1, max_size=6,
)


class TestHeaderIdentity:
    """The journal's canonical header stands in for the JSON path: the
    digest derived from it is :func:`record_digest` and the segment payload
    re-packed from it is :func:`iter_packed`'s, byte for byte."""

    @settings(max_examples=60, deadline=None)
    @given(records=_hostile_records)
    def test_header_path_is_the_json_path(self, records):
        blob = b"".join(iter_packed(records))
        unpacked, headers = unpack_headed(blob)
        assert unpacked == records
        assert headers == [record_header(r) for r in records]
        assert [header_digest(h, r.sealed)
                for h, r in zip(headers, unpacked)] == \
            [record_digest(r) for r in records] == \
            [_oracle_digest_any(r) for r in records]
        assert b"".join(iter_packed(unpacked, headers)) == blob

    def test_known_answer(self, tmp_path):
        record = EncryptedRecord(source_id='c"é源', index=2 ** 40, label=7,
                                 nonce=bytes(range(12)),
                                 sealed=bytes(range(256)) * 3)
        blob = b"".join(iter_packed([record]))
        _, headers = unpack_headed(blob)
        assert headers == [
            b'{"index":1099511627776,"label":7,'
            b'"nonce":"000102030405060708090a0b",'
            b'"source":"c\\"\\u00e9\\u6e90"}']
        assert header_digest(headers[0], record.sealed).hex() == (
            "290bf498085deb90b09cce575f7b095a"
            "10259ac828c45647e121f7e2c8ed8e66")
        ledger = ContributionLedger.create(tmp_path / "kat")
        segment, _ = ledger.commit_deduplicated([record], "c0",
                                                headers=headers)
        payload = (ledger.path / f"{segment.name}.bin").read_bytes()
        assert hashlib.sha256(payload).hexdigest() == (
            "ab650f80199066f128f5a8a3178ba363"
            "1c38f3768db813562def8a154a376e82")

    def test_aad_known_answer(self):
        """The associated data every record was sealed under: a drift in
        its bytes would pass every seal/open round trip while every record
        sealed earlier fails its tag."""
        aad = record_aad('c"é源', 2 ** 40, 7)
        assert aad == (b'{"index":1099511627776,"label":7,'
                       b'"source":"c\\"\\u00e9\\u6e90"}')
        sealed = ShakeHmacAead(bytes(range(32))).seal(
            bytes(range(12)), b"caltrain record payload", aad)
        assert sealed.hex() == (
            "28f1342a7a291a9006363eaf20b59a9e2248f5dfd59395"
            "f2205d76a17966e0cf900400fd0d3d48")


class TestRecordIdentity:
    """The record digest is the one pass over a record's bytes; every
    identity above it is derived from it, so it must never move."""

    def test_record_digest_pinned(self):
        record = EncryptedRecord(source_id="c1", index=7, label=3,
                                 nonce=bytes(range(12)),
                                 sealed=bytes(range(200)))
        assert record_digest(record).hex() == (
            "03b4a6cdf015624d6d53383ba62f130c"
            "6d16dcd550e27a497921c03bddaa8c35")

    @settings(max_examples=80, deadline=None)
    @given(header=st.binary(max_size=300),
           sealed=st.binary(max_size=20_000))
    def test_header_digest_is_canonical_digest(self, header, sealed):
        expected = canonical_digest(header, sealed)
        assert header_digest(header, sealed) == expected
        # Frames of a payload are hashed in place, as views.
        assert header_digest(memoryview(header), memoryview(sealed)) == \
            expected


class TestLocateRecords:
    def _old_locate(self, ledger, pair):
        """The evidence as the record-decoding walk built it."""
        for lane, segments in (("committed", ledger.segments),
                               ("quarantine", ledger.quarantined)):
            for segment in segments:
                blob = (ledger.path / f"{segment.name}.bin").read_bytes()
                for record in unpack_headed(blob)[0]:
                    if (record.source_id, record.index) == pair:
                        return {
                            "lane": lane, "segment": segment.name,
                            "segment_digest": segment.digest,
                            "contributor": segment.contributor,
                            "reason": segment.reason,
                            "record_digest": record_digest(record).hex(),
                            "label": record.label,
                        }

    def test_hashes_the_stored_frames(self, ledger, monkeypatch):
        from repro.ingest import ledger as ledger_module

        ledger.append(_POOL[:6], "c0")
        ledger.quarantine(_POOL[6:9], "c1", reason="tampered")
        pairs = [(r.source_id, r.index) for r in _POOL[:9]][::-1]
        expected = [self._old_locate(ledger, pair) for pair in pairs]
        real, calls = ledger_module.record_header, []
        monkeypatch.setattr(ledger_module, "record_header",
                            lambda record: calls.append(record)
                            or real(record))
        assert ledger.locate_records(pairs) == expected
        assert calls == []


class TestConcurrency:
    def test_concurrent_appends_keep_ledger_consistent(self, ledger,
                                                       contributors):
        """Parallel session commits must never reuse a segment name or
        leave manifest digests out of sync with disk (the gateway allows
        up to max_open_sessions completions in flight)."""
        batches = [
            [r] for r in _records(contributors[0]) + _records(contributors[1])
        ]
        with ThreadPoolExecutor(max_workers=8) as pool:
            infos = list(pool.map(
                lambda batch: ledger.append(batch, batch[0].source_id),
                batches,
            ))
        assert len({info.name for info in infos}) == len(batches)
        assert len(ledger) == len(batches)
        assert ledger.verify()
        reopened = ContributionLedger.open(ledger.path)
        assert reopened.manifest_digest() == ledger.manifest_digest()


class TestDurability:
    def test_segment_is_durable_before_the_manifest_names_it(
            self, gateway, ledger, contributors, monkeypatch):
        """Crash window: once the manifest names a segment the spool is
        discarded, so its part and sidecar must already be on disk before
        the manifest's own replace, and ``discard()`` comes last. The part
        is the spool chunk's inode, fsynced at the ack, linked in and the
        link made durable by a directory fsync; the sidecar is fsynced,
        renamed into place, the rename itself fsynced."""
        events = []
        real_fsync, real_replace = os.fsync, os.replace
        real_link, real_discard = os.link, UploadTransfer.discard

        def fsync(fd):
            events.append(("fsync", os.fstat(fd).st_ino))
            real_fsync(fd)

        def replace(src, dst):
            events.append(("replace", Path(dst).name))
            real_replace(src, dst)

        def link(src, dst):
            events.append(("link", Path(dst).name))
            real_link(src, dst)

        def discard(transfer):
            events.append(("discard",))
            real_discard(transfer)

        monkeypatch.setattr(os, "fsync", fsync)
        monkeypatch.setattr(os, "replace", replace)
        monkeypatch.setattr(os, "link", link)
        monkeypatch.setattr(UploadTransfer, "discard", discard)
        session = gateway.open_session("c0")
        session.send_chunk(_records(contributors[0], 4))
        segment = session.complete().segment
        monkeypatch.undo()

        directory = os.stat(ledger.path).st_ino
        named = events.index(("replace", "manifest.json"))
        part = f"{segment.name}.bin"
        acked = events.index(("fsync", os.stat(ledger.path / part).st_ino))
        linked = events.index(("link", part))
        assert acked < linked < named
        assert ("fsync", directory) in events[linked:named]
        sidecar = f"{segment.name}.meta.json"
        synced = events.index(
            ("fsync", os.stat(ledger.path / sidecar).st_ino))
        renamed = events.index(("replace", sidecar))
        assert linked < synced < renamed < named
        assert ("fsync", directory) in events[renamed:named]
        assert ("fsync", directory) in events[named:]
        assert events[-1] == ("discard",)
        assert events.count(("replace", "manifest.json")) == 1

    def test_reopen_preserves_state(self, ledger, contributors, tmp_path):
        records = _records(contributors[0])
        ledger.append(records, "c0")
        digest = ledger.manifest_digest()
        reopened = ContributionLedger.open(tmp_path / "ledger")
        assert list(reopened.iter_records()) == records
        assert reopened.manifest_digest() == digest
        digest = record_digest(records[0])
        assert reopened.known_ciphertexts([digest]) == {digest}

    def test_create_over_existing_rejected(self, ledger, tmp_path):
        with pytest.raises(LedgerError):
            ContributionLedger.create(tmp_path / "ledger")

    def test_tampered_segment_fails_closed(self, ledger, contributors,
                                           tmp_path):
        ledger.append(_records(contributors[0]), "c0")
        target = next((tmp_path / "ledger").glob("segment-*.bin"))
        blob = bytearray(target.read_bytes())
        blob[10] ^= 0xFF
        target.write_bytes(bytes(blob))
        with pytest.raises(LedgerError):
            ContributionLedger.open(tmp_path / "ledger")

    def test_every_byte_flip_is_refused(self, ledger):
        """The segment digest covers the sidecar and the sidecar's record
        digests cover the payload: flipping any single byte of either
        file is refused, as it was when the digest ran over both."""
        segment = ledger.append(_POOL[:2], "c0")
        for suffix in (".bin", ".meta.json"):
            target = ledger.path / f"{segment.name}{suffix}"
            original = target.read_bytes()
            for offset in range(len(original)):
                flipped = bytearray(original)
                flipped[offset] ^= 0xFF
                target.write_bytes(bytes(flipped))
                with pytest.raises(LedgerError):
                    ledger.verify()
                with pytest.raises(LedgerError):
                    ContributionLedger.open(ledger.path)
            target.write_bytes(original)
        assert ContributionLedger.open(ledger.path).verify()

    def test_older_format_refused(self, ledger, contributors):
        ledger.append(_records(contributors[0], 2), "c0")
        manifest = json.loads((ledger.path / "manifest.json").read_text())
        manifest["format"] = 1
        (ledger.path / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(LedgerError, match="unsupported ledger format 1"):
            ContributionLedger.open(ledger.path)

    def test_missing_segment_fails_closed(self, ledger, contributors,
                                          tmp_path):
        ledger.append(_records(contributors[0]), "c0")
        next((tmp_path / "ledger").glob("segment-*.bin")).unlink()
        with pytest.raises(LedgerError):
            ContributionLedger.open(tmp_path / "ledger")


class TestManifestDigest:
    def test_commits_to_both_lanes(self, ledger, contributors):
        before = ledger.manifest_digest()
        ledger.append(_records(contributors[0], 4), "c0")
        mid = ledger.manifest_digest()
        assert mid != before
        ledger.quarantine(_records(contributors[1], 2), "c1", "tampered")
        assert ledger.manifest_digest() != mid

    def test_seal_and_verify(self, ledger, contributors, server):
        ledger.append(_records(contributors[0]), "c0")
        sealed = ledger.seal_manifest(server.enclave)
        assert ledger.verify_sealed_manifest(server.enclave, sealed)
        ledger.append(_records(contributors[1]), "c1")
        assert not ledger.verify_sealed_manifest(server.enclave, sealed)

    def test_status(self, ledger, contributors):
        ledger.append(_records(contributors[0], 4), "c0")
        status = ledger.status()
        assert status["committed_records"] == 4
        assert status["quarantine_records"] == 0
        assert status["contributors"] == ["c0"]
