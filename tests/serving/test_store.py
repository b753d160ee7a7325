"""Persistent linkage store tests: round-trips, integrity, sealing."""

import os
from pathlib import Path

import numpy as np
import pytest

from repro.core.linkage import LinkageTable
from repro.errors import StoreError
from repro.serving import LinkageStore

from tests.serving.conftest import clustered_corpus, fill_store


class TestLifecycle:
    def test_create_then_open_empty(self, store_path):
        LinkageStore.create(store_path)
        store = LinkageStore.open(store_path)
        assert len(store) == 0
        assert store.version == 0
        assert store.dimension is None

    def test_create_twice_rejected(self, store_path):
        LinkageStore.create(store_path)
        with pytest.raises(StoreError):
            LinkageStore.create(store_path)

    def test_open_missing_rejected(self, tmp_path):
        with pytest.raises(StoreError):
            LinkageStore.open(tmp_path / "nope")

    def test_append_bumps_version(self, small_store):
        store, fingerprints, labels = small_store
        assert store.version == 3  # 600 records / 250 per segment
        before = store.version
        store.append(fingerprints[:10], labels[:10].tolist(),
                     ["p0"] * 10, [b"h" * 32] * 10)
        assert store.version == before + 1


class TestRoundTrip:
    def test_reopened_mmap_store_is_lossless(self, store_path, small_store):
        store, fingerprints, labels = small_store
        reopened = LinkageStore.open(store_path)
        assert len(reopened) == len(store) == 600
        for index in (0, 249, 250, 599):  # segment interiors and boundaries
            record = reopened.record(index)
            np.testing.assert_array_equal(record.fingerprint,
                                          fingerprints[index])
            assert record.label == int(labels[index])
            assert record.source == f"p{index % 3}"
            assert record.digest == bytes([index % 256]) * 32
            assert record.source_index == index
            assert record.kind == ("poisoned" if index % 7 == 0 else "normal")

    def test_by_label_matches_database_semantics(self, store_path,
                                                 small_store):
        store, fingerprints, labels = small_store
        reopened = LinkageStore.open(store_path)
        assert reopened.labels() == sorted(set(labels.tolist()))
        for label in reopened.labels():
            rows = np.flatnonzero(labels == label)
            store_matrix, store_indices = reopened.by_label(label)
            np.testing.assert_array_equal(store_matrix, fingerprints[rows])
            assert store_indices == rows.tolist()
            assert reopened.count(label) == rows.size

    def test_from_database_and_back(self, tmp_path, generator):
        fingerprints, labels = clustered_corpus(generator, 120)
        table = LinkageTable(
            fingerprints, labels, [f"p{i % 3}" for i in range(120)],
            [bytes([i]) * 32 for i in range(120)],
            source_indices=range(100, 220),
            kinds=["poisoned" if i % 5 == 0 else "normal"
                   for i in range(120)],
        )
        store = LinkageStore.from_database(tmp_path / "s", table,
                                           segment_records=50)
        assert len(store.segments) == 3
        for i in range(120):
            record = store.record(i)
            np.testing.assert_array_equal(record.fingerprint,
                                          table.fingerprints[i])
            assert (record.label, record.source, record.digest,
                    record.source_index, record.kind) == (
                table.labels[i], table.sources[i], table.digests[i],
                table.source_indices[i], table.kinds[i])

    def test_dimension_mismatch_rejected(self, small_store):
        store, _, _ = small_store
        with pytest.raises(StoreError):
            store.append(np.zeros((2, 3), dtype=np.float32), [0, 0],
                         ["p", "p"], [b"h" * 32] * 2)

    def test_mismatched_optional_columns_rejected(self, small_store):
        store, fingerprints, labels = small_store
        before = (len(store), store.version)
        with pytest.raises(StoreError):
            store.append(fingerprints[:4], labels[:4].tolist(), ["p0"] * 4,
                         [b"h" * 32] * 4, source_indices=[0, 1])
        with pytest.raises(StoreError):
            store.append(fingerprints[:4], labels[:4].tolist(), ["p0"] * 4,
                         [b"h" * 32] * 4, kinds=["normal"])
        # Nothing was written or sealed into the manifest.
        assert (len(store), store.version) == before
        assert store.verify()


def _per_row_index(store):
    """The former label index, as an oracle: one (segment, row) entry per
    record in commit order, fingerprints gathered row by row."""
    by_label = {}
    for pos in range(store.segment_count):
        matrix, labels, indices, _ = store.segment_slice(pos, pos + 1)
        for row, label in enumerate(labels.tolist()):
            by_label.setdefault(label, []).append((matrix[row],
                                                   int(indices[row])))
    return by_label


class TestLabelIndex:
    """Per-segment label arrays and per-label counts answer ``labels``,
    ``count`` and ``by_label`` exactly as the per-row index did."""

    @staticmethod
    def _assert_matches_oracle(store):
        oracle = _per_row_index(store)
        assert store.labels() == sorted(oracle)
        for label, entries in oracle.items():
            matrix, indices = store.by_label(label)
            assert store.count(label) == len(entries)
            assert indices == [index for _, index in entries]
            np.testing.assert_array_equal(
                matrix, np.stack([row for row, _ in entries]))
        matrix, indices = store.by_label(max(oracle) + 1)
        assert matrix.shape == (0, store.dimension) and indices == []
        assert store.count(max(oracle) + 1) == 0

    @pytest.mark.parametrize("sizes", [[600], [250, 250, 100],
                                       [1, 7, 33, 1, 90]])
    def test_multi_segment_multi_label(self, store_path, generator, sizes):
        store = LinkageStore.create(store_path)
        start = 0
        for i, size in enumerate(sizes):
            fingerprints, _ = clustered_corpus(generator, size)
            # Each segment draws from a different label subset, so some
            # labels are absent from some segments.
            labels = generator.integers(i % 3, i % 3 + 4, size=size)
            store.append(fingerprints, labels.tolist(), ["p0"] * size,
                         [bytes([j % 256]) * 32
                          for j in range(start, start + size)])
            start += size
            self._assert_matches_oracle(store)
        self._assert_matches_oracle(LinkageStore.open(store_path))


class TestDurability:
    def test_segment_is_durable_before_the_manifest_names_it(
            self, small_store, store_path, monkeypatch):
        """Crash window: once the manifest names a segment, open() insists
        on both of its files — so matrix and sidecar must already be
        fsynced and renamed into place, the rename itself fsynced, before
        the manifest's own replace."""
        store, fingerprints, labels = small_store
        events = []
        real_fsync, real_replace = os.fsync, os.replace

        def fsync(fd):
            events.append(("fsync", os.fstat(fd).st_ino))
            real_fsync(fd)

        def replace(src, dst):
            events.append(("replace", Path(dst).name))
            real_replace(src, dst)

        monkeypatch.setattr(os, "fsync", fsync)
        monkeypatch.setattr(os, "replace", replace)
        info = store.append(fingerprints[:5], labels[:5].tolist(),
                            ["p0"] * 5, [b"h" * 32] * 5)
        monkeypatch.undo()

        directory = os.stat(store_path).st_ino
        named = events.index(("replace", "manifest.json"))
        for name in (f"{info.name}.npy", f"{info.name}.meta.json"):
            inode = os.stat(store_path / name).st_ino
            synced = events.index(("fsync", inode))
            renamed = events.index(("replace", name))
            assert synced < renamed < named
            assert ("fsync", directory) in events[renamed:named]
        assert events.count(("replace", "manifest.json")) == 1


class TestIntegrity:
    def test_verify_passes_untouched(self, store_path, small_store):
        assert LinkageStore.open(store_path).verify()

    def test_tampered_matrix_fails_closed(self, store_path, small_store):
        matrix_file = store_path / "segment-000001.npy"
        matrix = np.load(matrix_file)
        matrix[0, 0] += 1.0
        np.save(matrix_file, matrix)
        with pytest.raises(StoreError):
            LinkageStore.open(store_path)  # verify=True is the default

    def test_tampered_metadata_fails_closed(self, store_path, small_store):
        meta_file = store_path / "segment-000000.meta.json"
        meta_file.write_text(meta_file.read_text().replace("p0", "pX", 1))
        with pytest.raises(StoreError):
            LinkageStore.open(store_path)

    def test_manifest_digest_commits_to_content(self, store_path,
                                                small_store):
        store, fingerprints, labels = small_store
        digest = store.manifest_digest()
        assert LinkageStore.open(store_path).manifest_digest() == digest
        store.append(fingerprints[:5], labels[:5].tolist(), ["p0"] * 5,
                     [b"h" * 32] * 5)
        assert store.manifest_digest() != digest


class TestSealing:
    def _enclave(self, platform, name="fingerprinting"):
        enclave = platform.create_enclave(name)
        enclave.init()
        return enclave

    def test_sealed_manifest_roundtrip(self, platform, small_store):
        store, _, _ = small_store
        enclave = self._enclave(platform)
        blob = store.seal_manifest(enclave)
        assert store.verify_sealed_manifest(enclave, blob)

    def test_sealed_manifest_detects_growth(self, platform, small_store):
        store, fingerprints, labels = small_store
        enclave = self._enclave(platform)
        blob = store.seal_manifest(enclave)
        store.append(fingerprints[:5], labels[:5].tolist(), ["p0"] * 5,
                     [b"h" * 32] * 5)
        assert not store.verify_sealed_manifest(enclave, blob)

    def test_wrong_enclave_identity_cannot_verify(self, platform,
                                                  small_store):
        store, _, _ = small_store
        sealer = self._enclave(platform, "fingerprinting")
        other = platform.create_enclave("other")
        other.add_data("x", 1)  # different build => different MRENCLAVE
        other.init()
        blob = store.seal_manifest(sealer)
        assert not store.verify_sealed_manifest(other, blob)
