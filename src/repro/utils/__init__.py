"""Shared utilities: logging, deterministic RNG streams, serialization."""

from repro.utils.fileio import atomic_write_bytes, atomic_write_text, fsync_dir
from repro.utils.logging import get_logger
from repro.utils.rng import (
    RngStream,
    derive_seed,
    get_generator_state,
    set_generator_state,
)
from repro.utils.serialization import (
    array_from_bytes,
    array_to_bytes,
    canonical_digest,
    canonical_json,
)

__all__ = [
    "get_logger",
    "RngStream",
    "derive_seed",
    "get_generator_state",
    "set_generator_state",
    "atomic_write_bytes",
    "atomic_write_text",
    "fsync_dir",
    "array_from_bytes",
    "array_to_bytes",
    "canonical_digest",
    "canonical_json",
]
