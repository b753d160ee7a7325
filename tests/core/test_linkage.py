"""Linkage structure Omega = [F, Y, S, H]: the table and its one store."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.linkage import LinkageTable, instance_digest, segment_digest
from repro.errors import LinkageError
from repro.serving import LinkageStore


def _table(labels, dim=4, kinds=None, sources=None):
    """A table over random 2x2 images; returns (table, images)."""
    gen = np.random.default_rng(len(labels))
    images = gen.random((len(labels), 2, 2, 1)).astype(np.float32)
    table = LinkageTable(
        gen.normal(size=(len(labels), dim)), labels,
        sources or [f"p{i % 3}" for i in range(len(labels))],
        [instance_digest(image) for image in images],
        source_indices=range(len(labels)), kinds=kinds,
    )
    return table, images


class TestDatabase:
    def test_add_and_count(self):
        table, _ = _table([0])
        assert len(table) == 1
        assert table.dimension == 4
        assert table.fingerprints.dtype == np.float32
        assert table.kinds == ("normal",)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(LinkageError):
            LinkageTable(np.zeros(4), [0], ["p0"], [b"h"])

    def test_by_label_index(self, tmp_path):
        table, _ = _table([0, 1, 0, 2, 0])
        store = LinkageStore.from_database(tmp_path / "s", table)
        matrix, indices = store.by_label(0)
        assert matrix.shape == (3, 4)
        assert indices == [0, 2, 4]
        np.testing.assert_array_equal(matrix, table.fingerprints[[0, 2, 4]])
        assert store.labels() == [0, 1, 2]

    def test_by_label_missing(self, tmp_path):
        table, _ = _table([0])
        store = LinkageStore.from_database(tmp_path / "s", table)
        matrix, indices = store.by_label(9)
        assert matrix.shape[0] == 0 and indices == []

    def test_add_batch_validates_lengths(self):
        with pytest.raises(LinkageError):
            LinkageTable(np.zeros((2, 4)), [0], ["p0"], [b"h"])
        with pytest.raises(LinkageError):
            LinkageTable(np.zeros((2, 4)), [0, 0], ["p0"] * 2, [b"h"] * 2,
                         kinds=["normal"])

    def test_verify_instance(self):
        table, images = _table([0])
        assert instance_digest(images[0]) == table.digests[0]
        assert instance_digest(images[0] + 1e-3) != table.digests[0]


class TestSerialization:
    def test_roundtrip(self, tmp_path):
        table, _ = _table([0, 1, 0, 1, 0],
                          kinds=["poisoned" if i == 3 else "normal"
                                 for i in range(5)])
        LinkageStore.from_database(tmp_path / "s", table)
        restored = LinkageStore.open(tmp_path / "s")
        assert len(restored) == 5
        for i in range(5):
            back = restored.record(i)
            np.testing.assert_array_equal(back.fingerprint,
                                          table.fingerprints[i])
            assert (back.label, back.source, back.digest, back.source_index,
                    back.kind) == (table.labels[i], table.sources[i],
                                   table.digests[i], table.source_indices[i],
                                   table.kinds[i])

    def test_empty_roundtrip(self, tmp_path):
        table = LinkageTable(np.zeros((0, 4)), [], [], [])
        store = LinkageStore.from_database(tmp_path / "s", table)
        assert len(LinkageStore.open(tmp_path / "s")) == len(store) == 0

    def test_sealable_in_enclave(self, platform, tmp_path):
        """The table's commitment survives seal/unseal in the fingerprinting
        enclave and still names the store built from it."""
        from repro.enclave.sealing import seal, unseal

        enclave = platform.create_enclave("fp")
        enclave.init()
        table, _ = _table([0, 1])
        commitment = segment_digest(table.fingerprints, table.metadata())
        blob = seal(enclave, commitment.encode())
        store = LinkageStore.from_database(tmp_path / "s", table)
        assert store.segment_digests() == [unseal(enclave, blob).decode()]

    @settings(max_examples=10, deadline=None)
    @given(labels=st.lists(st.integers(min_value=0, max_value=3),
                           min_size=1, max_size=12))
    def test_label_index_partition_property(self, labels):
        """Every record appears in exactly one label bucket."""
        import tempfile

        table, _ = _table(labels)
        with tempfile.TemporaryDirectory() as root:
            store = LinkageStore.from_database(f"{root}/s", table)
            buckets = [store.by_label(lab)[1] for lab in store.labels()]
        assert sorted(i for bucket in buckets for i in bucket) == \
            list(range(len(labels)))


class TestInstanceDigest:
    def test_content_sensitive(self, generator):
        image = generator.random((4, 4, 3)).astype(np.float32)
        assert instance_digest(image) != instance_digest(image * 0.999)

    def test_deterministic(self, generator):
        image = generator.random((4, 4, 3)).astype(np.float32)
        assert instance_digest(image) == instance_digest(image.copy())
