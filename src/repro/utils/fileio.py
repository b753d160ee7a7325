"""Crash-safe file writes.

A process can die at any byte of a ``write()`` — a torn model file or
checkpoint manifest must never be mistaken for a valid one. Every durable
artifact in the reproduction therefore goes through the same discipline:
write the full payload to a temporary sibling, fsync it, atomically
``os.replace`` it over the destination, then fsync the directory so the
rename itself is durable. Readers either see the complete old file or the
complete new file, never a prefix.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Iterable, Union

__all__ = ["fsync_dir", "atomic_write_bytes", "atomic_write_text"]

_WRITE_BUFFER = 1 << 20


def fsync_dir(path: Union[str, os.PathLike]) -> None:
    """Make a directory entry (a new or replaced file name) durable."""
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    except OSError:  # pragma: no cover - fs without directory fsync
        pass
    finally:
        os.close(fd)


def atomic_write_bytes(path: Union[str, os.PathLike],
                       data: Union[bytes, Iterable[bytes]]) -> None:
    """Write ``data`` to ``path`` so a crash never leaves a torn file.

    ``data`` is one buffer, or an iterable of buffers written in turn —
    a large payload then never exists joined in memory.
    """
    if isinstance(data, (bytes, bytearray, memoryview)):
        data = (data,)
    target = Path(path)
    tmp = target.with_name(target.name + ".tmp")
    try:
        # A buffer this size turns many small parts into few large writes.
        with open(tmp, "wb", buffering=_WRITE_BUFFER) as handle:
            handle.writelines(data)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, target)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    fsync_dir(target.parent)


def atomic_write_text(path: Union[str, os.PathLike], text: str) -> None:
    """Text-mode convenience wrapper over :func:`atomic_write_bytes`."""
    atomic_write_bytes(path, text.encode("utf-8"))
