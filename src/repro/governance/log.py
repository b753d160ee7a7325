"""The append-only, hash-chained governance event log.

One durable timeline for the whole deployment: ingest commits, training
starts/resumes/completions, checkpoints, promotions, and attribution
reports all land here, each entry cross-referencing the per-subsystem
audit chain it summarises. The chain math is the shared
:class:`~repro.core.chain.HashChain` under its own genesis label, so a
verified prefix of a subsystem audit log can never be spliced in as
governance history.

Durability and tamper detection are both fail-closed:

* every append is one canonical-JSON line in ``events.jsonl``, flushed
  and fsynced before the call returns;
* ``head.json`` is an atomically-replaced sidecar holding the latest
  ``(seq, chain)`` — a *separate* commitment to log length, so plain
  truncation (which would otherwise leave a perfectly valid shorter
  chain) is detected;
* :meth:`open` re-verifies the full chain against the sidecar and raises
  :class:`~repro.errors.GovernanceLogError` on any bit flip, splice, or
  truncation. The only states it repairs are the two benign crash
  windows of the append protocol itself: a torn (unparseable) final line
  the head never acknowledged, and a fully-written final line the crash
  kept from being acknowledged.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Any, Dict, List, Optional

from repro.core.chain import HashChain
from repro.errors import GovernanceLogError
from repro.utils.fileio import atomic_write_text, fsync_dir
from repro.utils.logging import get_logger
from repro.utils.serialization import canonical_json

__all__ = ["GovernanceLog"]

_LOG = get_logger("governance.log")

_EVENTS_FILE = "events.jsonl"
_HEAD_FILE = "head.json"

#: Event kinds the control plane emits (informative, not enforced —
#: deployments may chain their own kinds into the same timeline).
EVENT_KINDS = (
    "ingest-commit",
    "train-start",
    "train-resume",
    "train-complete",
    "checkpoint",
    "promotion",
    "attribution",
    "disclosure",
)


class GovernanceLog:
    """Durable hash-chained JSONL event log with a truncation-proof head."""

    _CHAIN = HashChain(b"caltrain-governance-genesis")

    def __init__(self, path: Path, entries: List[Dict[str, Any]]) -> None:
        self.path = path
        self._entries = entries
        self._handle = open(path / _EVENTS_FILE, "a", encoding="utf-8")

    # -- lifecycle ---------------------------------------------------------------

    @classmethod
    def create(cls, path: os.PathLike) -> "GovernanceLog":
        """Initialise an empty log at ``path`` (created if missing)."""
        root = Path(path)
        root.mkdir(parents=True, exist_ok=True)
        events = root / _EVENTS_FILE
        if events.exists():
            raise GovernanceLogError(
                f"a governance log already exists at {root}"
            )
        events.write_bytes(b"")
        log = cls(root, [])
        log._write_head()
        return log

    @classmethod
    def open(cls, path: os.PathLike) -> "GovernanceLog":
        """Load and fully verify an existing log; fail-closed."""
        root = Path(path)
        events_path = root / _EVENTS_FILE
        head_path = root / _HEAD_FILE
        if not events_path.exists():
            raise GovernanceLogError(f"no governance log at {root}")
        if not head_path.exists():
            raise GovernanceLogError(
                f"governance log at {root} has no head sidecar "
                "(removed or never committed) — refusing to trust it"
            )
        entries, torn_tail = cls._parse_lines(events_path.read_bytes())
        try:
            head = json.loads(head_path.read_text())
            head_seq, head_chain = int(head["seq"]), str(head["chain"])
        except (ValueError, KeyError, TypeError) as exc:
            raise GovernanceLogError(
                f"governance head sidecar at {root} is malformed: {exc}"
            ) from exc

        log = cls(root, entries)
        if not log._verify_entries():
            log.close()
            raise GovernanceLogError(
                f"governance log at {root} failed chain verification "
                "(an entry was altered or spliced)"
            )
        last_seq = entries[-1]["seq"] if entries else -1
        if head_seq > last_seq:
            log.close()
            raise GovernanceLogError(
                f"governance log at {root} is shorter than its committed "
                f"head (head seq {head_seq}, last entry {last_seq}) — "
                "the log was truncated"
            )
        if head_seq == last_seq:
            expected = entries[-1]["chain"] if entries else \
                log._CHAIN.genesis.hex()
            if head_chain != expected:
                log.close()
                raise GovernanceLogError(
                    f"governance log at {root}: head hash disagrees with "
                    "the entries on disk (log or head was tampered with)"
                )
            if torn_tail:
                # Crash window 1: the final line tore mid-write and the
                # head never acknowledged it. The acknowledged prefix is
                # intact; drop the tail.
                _LOG.warning(
                    "governance log %s: dropping torn unacknowledged tail",
                    root,
                )
                log._rewrite_entries()
        elif head_seq == last_seq - 1 and not torn_tail:
            # Crash window 2: the final append hit disk but the crash
            # preceded the head update. The entry verifies as part of the
            # chain (checked above); adopt it and advance the head.
            _LOG.warning(
                "governance log %s: adopting un-acknowledged final entry "
                "seq %d", root, last_seq,
            )
            log._write_head()
        else:
            log.close()
            raise GovernanceLogError(
                f"governance log at {root}: head (seq {head_seq}) and "
                f"entries (last seq {last_seq}) disagree beyond the "
                "single-append crash window — refusing to trust it"
            )
        return log

    def close(self) -> None:
        if not self._handle.closed:
            self._handle.close()

    # -- parsing / verification ---------------------------------------------------

    @staticmethod
    def _parse_lines(blob: bytes) -> "tuple[List[Dict[str, Any]], bool]":
        """Parse JSONL entries; returns ``(entries, torn_tail)``.

        Only the *final* line may fail to parse (a torn append); a bad
        line with valid lines after it is corruption, not a crash.
        """
        entries: List[Dict[str, Any]] = []
        lines = blob.split(b"\n")
        if lines and lines[-1] == b"":
            lines.pop()
        for position, line in enumerate(lines):
            try:
                entry = json.loads(line.decode("utf-8"))
                if not all(k in entry for k in
                           ("seq", "kind", "details", "chain")):
                    raise ValueError("missing entry fields")
            except (ValueError, UnicodeDecodeError) as exc:
                if position == len(lines) - 1:
                    return entries, True
                raise GovernanceLogError(
                    f"governance log line {position} is unparseable with "
                    f"valid entries after it (corruption): {exc}"
                ) from exc
            entries.append(entry)
        return entries, False

    def _verify_entries(self) -> bool:
        return self._CHAIN.verify(
            ({"seq": e["seq"], "kind": e["kind"], "details": e["details"]},
             bytes.fromhex(e["chain"]))
            for e in self._entries
        )

    def verify(self) -> bool:
        """Re-verify the in-memory chain against the durable head; raises."""
        if not self._verify_entries():
            raise GovernanceLogError(
                f"governance log at {self.path} failed chain verification"
            )
        head_path = self.path / _HEAD_FILE
        try:
            head = json.loads(head_path.read_text())
        except (OSError, ValueError) as exc:
            raise GovernanceLogError(
                f"governance head sidecar unreadable: {exc}"
            ) from exc
        if head.get("seq") != len(self._entries) - 1 or \
                head.get("chain") != self.head.hex():
            raise GovernanceLogError(
                "governance head sidecar disagrees with the log"
            )
        return True

    # -- the append protocol ------------------------------------------------------

    @property
    def head(self) -> bytes:
        return (bytes.fromhex(self._entries[-1]["chain"]) if self._entries
                else self._CHAIN.genesis)

    def __len__(self) -> int:
        return len(self._entries)

    def append(self, kind: str, **details: Any) -> Dict[str, Any]:
        """Durably record one event; returns the chained entry.

        Write order is the crash-consistency contract :meth:`open` leans
        on: the line is flushed and fsynced *before* the head sidecar is
        replaced, so a crash leaves either a torn unacknowledged line or
        a full unacknowledged line — never an acknowledged entry that is
        not on disk.
        """
        seq = len(self._entries)
        payload = {"seq": seq, "kind": kind, "details": details}
        chain = self._CHAIN.entry_hash(self.head, payload)
        entry = dict(payload, chain=chain.hex())
        self._handle.write(canonical_json(entry).decode("utf-8") + "\n")
        self._handle.flush()
        os.fsync(self._handle.fileno())
        self._entries.append(entry)
        self._write_head()
        return entry

    def _write_head(self) -> None:
        atomic_write_text(
            self.path / _HEAD_FILE,
            json.dumps({"seq": len(self._entries) - 1,
                        "chain": self.head.hex()}),
        )
        fsync_dir(self.path)

    def _rewrite_entries(self) -> None:
        """Drop a torn tail by rewriting the acknowledged prefix."""
        self.close()
        atomic_write_text(
            self.path / _EVENTS_FILE,
            "".join(canonical_json(e).decode("utf-8") + "\n"
                    for e in self._entries),
        )
        self._handle = open(self.path / _EVENTS_FILE, "a", encoding="utf-8")

    # -- queries -----------------------------------------------------------------

    def events(self, kind: Optional[str] = None) -> List[Dict[str, Any]]:
        if kind is None:
            return list(self._entries)
        return [e for e in self._entries if e["kind"] == kind]

    def find_run(self, run_key: str, kind: str = "train-complete",
                 ) -> Optional[Dict[str, Any]]:
        """The newest event of ``kind`` for a run key (dedup probe).

        ``CalTrain.train`` consults this before starting: a
        ``train-complete`` event for the same run key means an identical
        run (same config, data, and code) already produced the model.
        """
        for entry in reversed(self._entries):
            if entry["kind"] == kind and \
                    entry["details"].get("run_key") == run_key:
                return entry
        return None
