"""Crash-safe write tests."""

import pytest

from repro.utils.fileio import atomic_write_bytes, atomic_write_text


class TestAtomicWrite:
    def test_writes_payload(self, tmp_path):
        target = tmp_path / "artifact.bin"
        atomic_write_bytes(target, b"payload")
        assert target.read_bytes() == b"payload"

    def test_replaces_existing_file(self, tmp_path):
        target = tmp_path / "artifact.bin"
        target.write_bytes(b"old")
        atomic_write_bytes(target, b"new")
        assert target.read_bytes() == b"new"

    def test_no_temp_file_left_behind(self, tmp_path):
        atomic_write_bytes(tmp_path / "artifact.bin", b"x" * 4096)
        assert [p.name for p in tmp_path.iterdir()] == ["artifact.bin"]

    def test_failed_write_preserves_old_file(self, tmp_path, monkeypatch):
        """A crash mid-write must leave the previous version intact."""
        import os

        target = tmp_path / "artifact.bin"
        atomic_write_bytes(target, b"stable")

        def crash(src, dst):
            raise OSError("simulated crash during rename")

        monkeypatch.setattr(os, "replace", crash)
        with pytest.raises(OSError):
            atomic_write_bytes(target, b"torn")
        assert target.read_bytes() == b"stable"
        assert [p.name for p in tmp_path.iterdir()] == ["artifact.bin"]

    def test_writes_buffers_in_turn(self, tmp_path):
        target = tmp_path / "artifact.bin"
        atomic_write_bytes(target, (part for part in (b"a", b"bc", b"")))
        assert target.read_bytes() == b"abc"

    def test_failed_stream_preserves_old_file(self, tmp_path):
        """A payload whose producer fails part-way never lands."""
        target = tmp_path / "artifact.bin"
        atomic_write_bytes(target, b"stable")

        def parts():
            yield b"half"
            raise RuntimeError("producer failed")

        with pytest.raises(RuntimeError):
            atomic_write_bytes(target, parts())
        assert target.read_bytes() == b"stable"
        assert [p.name for p in tmp_path.iterdir()] == ["artifact.bin"]

    def test_text_wrapper_utf8(self, tmp_path):
        target = tmp_path / "manifest.json"
        atomic_write_text(target, "{\"ünïcode\": true}")
        assert target.read_text() == "{\"ünïcode\": true}"
