"""Sealed, atomic, versioned training checkpoints.

A checkpoint captures everything needed to continue partitioned training
*bitwise-identically*: both halves of the model, the optimizer's moment
buffers, the trusted and minibatch RNG states, the per-epoch report
history, the audit-log chain, and — for mid-epoch checkpoints — the
per-batch losses already banked this epoch.

Confidentiality follows the FrontNet/BackNet boundary: the FrontNet
weights and the trusted-RNG states never touch disk in plaintext. They
are sealed to the training enclave's identity
(:func:`repro.enclave.sealing.seal`), so only the *same enclave code on
the same platform* can resume from them. The seal nonce is derived from
the checkpoint content rather than drawn from the trusted RNG —
checkpointing must not consume the RNG stream that drives augmentation
and dropout, or the no-fault run would diverge from the checkpointed one.

Durability follows write-ahead discipline: every file is written via
temp-file + fsync + rename, and the manifest — whose digests cover every
other file — is written *last*. A crash at any point leaves either a
fully valid checkpoint or a torn directory that
:meth:`CheckpointManager.checkpoints` detects and skips, so recovery
always lands on the latest *valid* checkpoint.
"""

from __future__ import annotations

import dataclasses
import hashlib
import io
import json
import re
import shutil
import struct
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional

import numpy as np

from repro.core.partitioned_training import ConfidentialTrainer, EpochReport
from repro.enclave.enclave import Enclave
from repro.enclave.sealing import SealedBlob, seal, unseal
from repro.errors import CheckpointError, SealingError
from repro.utils.fileio import atomic_write_bytes, atomic_write_text
from repro.utils.logging import get_logger
from repro.utils.rng import get_generator_state, set_generator_state
from repro.utils.serialization import canonical_digest, canonical_json

__all__ = ["TrainingState", "CheckpointInfo", "CheckpointManager",
           "capture_state", "restore_state"]

_LOG = get_logger("resilience.checkpoint")

_FORMAT_VERSION = 3
_DIR_RE = re.compile(r"^ckpt-(\d{6})-e(\d{4})-b(\d{4})$")
_FRONTNET_FILE = "frontnet.sealed"
_STATE_FILE = "state.npz"
_MANIFEST_FILE = "manifest.json"


@dataclass
class TrainingState:
    """A full snapshot of the training stage at one instant.

    ``epoch``/``batch`` name the *next* work item: ``batch == 0`` means
    "epoch boundary, about to start ``epoch``"; ``batch == k > 0`` means
    "mid-epoch, ``k`` batches of ``epoch`` already applied".
    ``batch_rng_state`` is always the state to install *before* the epoch's
    shuffle permutation is drawn, so a mid-epoch resume replays the
    identical order and skips the first ``batch`` batches.
    """

    epoch: int
    batch: int
    batch_size: int
    partition: int
    network_weights: List[Dict[str, np.ndarray]]
    optimizer_state: Dict[str, Any]
    batch_rng_state: Dict[str, Any]
    trusted_rng_state: Dict[str, Any]
    reports: List[EpochReport] = field(default_factory=list)
    carried_losses: List[float] = field(default_factory=list)
    audit_bytes: bytes = b""
    clock_now: float = 0.0


@dataclass(frozen=True)
class CheckpointInfo:
    """One valid on-disk checkpoint (manifest successfully parsed)."""

    seq: int
    epoch: int
    batch: int
    batch_size: int
    partition: int
    path: Path
    manifest: Dict[str, Any]


def capture_state(trainer: ConfidentialTrainer, epoch: int, batch: int,
                  batch_rng_state: Optional[Dict[str, Any]] = None,
                  carried_losses: Optional[List[float]] = None,
                  audit_bytes: bytes = b"") -> TrainingState:
    """Snapshot a trainer into a :class:`TrainingState`.

    ``batch_rng_state`` must be the epoch-start state when ``batch > 0``
    (the caller captured it before the epoch's permutation was drawn);
    when omitted the batch RNG's *current* state is used, which is only
    correct at an epoch boundary.
    """
    if batch > 0 and batch_rng_state is None:
        raise CheckpointError(
            "mid-epoch capture needs the epoch-start batch RNG state"
        )
    partitioned = trainer.partitioned
    enclave = partitioned.enclave
    if enclave is None:
        raise CheckpointError(
            "checkpointing requires an enclave-backed partitioned network"
        )
    return TrainingState(
        epoch=epoch,
        batch=batch,
        batch_size=trainer.batch_size,
        partition=partitioned.partition,
        network_weights=partitioned.network.get_weights(),
        optimizer_state=trainer.optimizer.state_dict(),
        batch_rng_state=(batch_rng_state if batch_rng_state is not None
                         else get_generator_state(trainer.batch_rng)),
        trusted_rng_state=enclave.trusted_rng.stream.get_state(),
        reports=list(trainer.reports),
        carried_losses=list(carried_losses or []),
        audit_bytes=audit_bytes,
        clock_now=(enclave.platform.clock.now),
    )


def restore_state(trainer: ConfidentialTrainer, state: TrainingState) -> None:
    """Install a :class:`TrainingState` into a live trainer.

    The trainer's enclave must already be attested and bound
    (:meth:`PartitionedNetwork.rebind_enclave` after a rebuild); this
    restores partition, weights, optimizer buffers, RNG states and report
    history. The simulated clock is
    advanced (never rewound) to at least the checkpoint's timestamp.
    """
    partitioned = trainer.partitioned
    enclave = partitioned.enclave
    if enclave is None:
        raise CheckpointError("restore requires an enclave-backed network")
    if partitioned.partition != state.partition:
        partitioned.set_partition(state.partition)
    partitioned.network.set_weights(state.network_weights)
    # A fault can strike between backward and step, leaving partially
    # accumulated gradients behind; a restored state starts pristine.
    partitioned.network.zero_grads()
    trainer.optimizer.load_state_dict(state.optimizer_state)
    trainer.batch_size = state.batch_size
    set_generator_state(trainer.batch_rng, state.batch_rng_state)
    enclave.trusted_rng.stream.set_state(state.trusted_rng_state)
    trainer.reports = list(state.reports)
    clock = enclave.platform.clock
    if state.clock_now > clock.now:
        clock.advance(state.clock_now - clock.now)


# -- array (de)marshalling ----------------------------------------------------


def _npz_bytes(arrays: Dict[str, np.ndarray]) -> bytes:
    buffer = io.BytesIO()
    np.savez(buffer, **arrays)
    return buffer.getvalue()


def _npz_load(blob: bytes) -> Dict[str, np.ndarray]:
    with np.load(io.BytesIO(blob)) as data:
        return {key: data[key] for key in data.files}


def _split_weights(weights: List[Dict[str, np.ndarray]], partition: int,
                   ) -> "tuple[Dict[str, np.ndarray], Dict[str, np.ndarray]]":
    front: Dict[str, np.ndarray] = {}
    back: Dict[str, np.ndarray] = {}
    for i, layer_weights in enumerate(weights):
        side, prefix = (front, "front") if i < partition else (back, "back")
        for name, arr in layer_weights.items():
            side[f"{prefix}/layer{i}/{name}"] = arr
    return front, back


def _merge_weights(n_layers: int, *groups: Dict[str, np.ndarray],
                   ) -> List[Dict[str, np.ndarray]]:
    weights: List[Dict[str, np.ndarray]] = [{} for _ in range(n_layers)]
    for group in groups:
        for key, arr in group.items():
            _, layer_part, name = key.split("/", 2)
            weights[int(layer_part[len("layer"):])][name] = arr
    return weights


def _arch_digest(weights: List[Dict[str, np.ndarray]]) -> str:
    signature = [
        sorted((name, list(arr.shape), arr.dtype.str)
               for name, arr in layer.items())
        for layer in weights
    ]
    return canonical_digest(signature).hex()


# -- the manager ---------------------------------------------------------------


class CheckpointManager:
    """Atomic, versioned checkpoints under one directory.

    Layout: ``ckpt-{seq:06d}-e{epoch:04d}-b{batch:04d}/`` holding
    ``frontnet.sealed`` (12-byte nonce || ciphertext over the FrontNet
    weights and RNG states), ``state.npz`` (everything non-secret), and
    ``manifest.json`` (identity, digests over both files; written last).
    ``seq`` increases monotonically, so "latest" is well defined even
    when training restores to an earlier epoch and re-checkpoints it.

    Args:
        directory: Checkpoint root; created if missing.
        config_digest: Optional deployment digest (architecture config +
            hyperparameters); recorded in every manifest and verified on
            load, so a checkpoint can never restore into a different
            training agreement.
    """

    def __init__(self, directory, config_digest: Optional[bytes] = None,
                 run_key: Optional[str] = None) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.config_digest = config_digest
        #: Hex semantic run identity (:mod:`repro.governance.identity`);
        #: recorded in every manifest so the promotion gate can bind a
        #: checkpoint chain to the training run that produced it.
        self.run_key = run_key
        #: Optional :class:`~repro.observability.MetricsRegistry`; when set,
        #: save/load publish ``repro_checkpoint_*`` histograms and counters.
        self.metrics = None
        self._next_seq = self._scan_next_seq()

    def _scan_next_seq(self) -> int:
        highest = -1
        for entry in self.directory.iterdir():
            match = _DIR_RE.match(entry.name)
            if match:
                highest = max(highest, int(match.group(1)))
        return highest + 1

    # -- save -------------------------------------------------------------------

    def save(self, state: TrainingState, enclave: Enclave) -> Path:
        """Write one checkpoint; returns its directory.

        Crash-consistent: the manifest is written last, after both data
        files are durably in place, so a torn write never yields a
        checkpoint that :meth:`checkpoints` would accept.
        """
        started = time.perf_counter()
        seq = self._next_seq
        name = f"ckpt-{seq:06d}-e{state.epoch:04d}-b{state.batch:04d}"
        path = self.directory / name
        path.mkdir(exist_ok=True)
        # The sequence number is burned even if this write crashes: a torn
        # directory must never share a seq with a later valid checkpoint.
        self._next_seq = seq + 1

        sealed_bytes = self._seal_frontnet(state, enclave, seq)
        state_bytes, optimizer_meta = self._plain_state_bytes(state)
        atomic_write_bytes(path / _FRONTNET_FILE, sealed_bytes)
        atomic_write_bytes(path / _STATE_FILE, state_bytes)

        manifest = {
            "format": _FORMAT_VERSION,
            "seq": seq,
            "epoch": state.epoch,
            "batch": state.batch,
            "batch_size": state.batch_size,
            "partition": state.partition,
            "mrenclave": enclave.mrenclave.hex(),
            "config_digest": (self.config_digest.hex()
                              if self.config_digest else None),
            "run_key": self.run_key,
            "arch_digest": _arch_digest(state.network_weights),
            "digests": {
                _FRONTNET_FILE: hashlib.sha256(sealed_bytes).hexdigest(),
                _STATE_FILE: hashlib.sha256(state_bytes).hexdigest(),
            },
            "meta": {
                "optimizer": optimizer_meta,
                "reports": [dataclasses.asdict(r) for r in state.reports],
                "carried_losses": list(state.carried_losses),
                "clock_now": state.clock_now,
            },
        }
        atomic_write_text(
            path / _MANIFEST_FILE,
            json.dumps(manifest, sort_keys=True, indent=1),
        )
        _LOG.info("checkpoint %s written (epoch %d batch %d)",
                  name, state.epoch, state.batch)
        if self.metrics is not None:
            self.metrics.observe("repro_checkpoint_save_seconds",
                                 time.perf_counter() - started)
            self.metrics.inc("repro_checkpoint_writes_total")
            self.metrics.inc("repro_checkpoint_bytes_total",
                             len(sealed_bytes) + len(state_bytes))
        return path

    def _seal_frontnet(self, state: TrainingState, enclave: Enclave,
                       seq: int) -> bytes:
        front, _ = _split_weights(state.network_weights, state.partition)
        secret_meta = canonical_json({
            "trusted_rng": state.trusted_rng_state,
            "batch_rng": state.batch_rng_state,
        })
        payload = (struct.pack("<Q", len(secret_meta)) + secret_meta
                   + _npz_bytes(front))
        # Content-derived nonce: deterministic, unique per (seq, content),
        # and — critically — drawn from *no* RNG, so writing a checkpoint
        # never perturbs the training streams.
        nonce = canonical_digest(b"ckpt-nonce", seq, payload)[:12]
        blob = seal(enclave, payload, nonce=nonce)
        return blob.nonce + blob.ciphertext

    def _plain_state_bytes(self, state: TrainingState,
                           ) -> "tuple[bytes, Dict[str, Any]]":
        """Marshal the non-secret side; returns (npz bytes, JSON-able
        optimizer remainder for the manifest)."""
        _, back = _split_weights(state.network_weights, state.partition)
        arrays = dict(back)
        optimizer_meta: Dict[str, Any] = {}
        for key, value in state.optimizer_state.items():
            if isinstance(value, np.ndarray):
                arrays[f"opt/{key}"] = value
            elif isinstance(value, dict) and any(
                isinstance(entry, np.ndarray) for entry in value.values()
            ):
                for subkey, arr in value.items():
                    arrays[f"opt/{key}/{subkey}"] = arr
            else:
                optimizer_meta[key] = value
        arrays["audit"] = np.frombuffer(state.audit_bytes, dtype=np.uint8)
        arrays["layer_count"] = np.asarray([len(state.network_weights)])
        return _npz_bytes(arrays), optimizer_meta

    # -- enumerate --------------------------------------------------------------

    def checkpoints(self) -> List[CheckpointInfo]:
        """All *valid* checkpoints, oldest first.

        A checkpoint is valid when its directory name parses, its
        manifest parses and names this format, and both data files hash
        to the manifest's digests. Torn, tampered or other-format
        directories are skipped with a warning — fail-closed, recovery
        falls back to the previous valid one.
        """
        found: List[CheckpointInfo] = []
        for entry in sorted(self.directory.iterdir()):
            match = _DIR_RE.match(entry.name)
            if not match or not entry.is_dir():
                continue
            info = self._validate(entry, int(match.group(1)))
            if info is not None:
                found.append(info)
        found.sort(key=lambda info: info.seq)
        return found

    def _validate(self, path: Path, seq: int) -> Optional[CheckpointInfo]:
        manifest_path = path / _MANIFEST_FILE
        try:
            manifest = json.loads(manifest_path.read_text())
        except (OSError, ValueError):
            _LOG.warning("skipping torn checkpoint %s (no valid manifest)",
                         path.name)
            return None
        try:
            if manifest["format"] != _FORMAT_VERSION:
                _LOG.warning("skipping checkpoint %s (format %r, expected %d)",
                             path.name, manifest["format"], _FORMAT_VERSION)
                return None
            for filename, expected in manifest["digests"].items():
                actual = hashlib.sha256(
                    (path / filename).read_bytes()
                ).hexdigest()
                if actual != expected:
                    _LOG.warning("skipping checkpoint %s (%s digest mismatch)",
                                 path.name, filename)
                    return None
            return CheckpointInfo(
                seq=seq,
                epoch=int(manifest["epoch"]),
                batch=int(manifest["batch"]),
                batch_size=int(manifest["batch_size"]),
                partition=int(manifest["partition"]),
                path=path,
                manifest=manifest,
            )
        except (OSError, KeyError, TypeError, ValueError):
            _LOG.warning("skipping malformed checkpoint %s", path.name)
            return None

    def latest(self, predicate: Optional[Callable[[CheckpointInfo], bool]] = None,
               ) -> Optional[CheckpointInfo]:
        """The newest valid checkpoint (optionally filtered)."""
        for info in reversed(self.checkpoints()):
            if predicate is None or predicate(info):
                return info
        return None

    def latest_manifest_digest(self) -> Optional[bytes]:
        """Content address of the newest checkpoint — a cheap accessor.

        Hashes the canonical form of the newest parseable manifest only:
        the manifest already commits to both data files via their
        recorded SHA-256 digests, so hashing it commits to the entire
        checkpoint without re-reading megabytes of weights. The promotion
        gate pairs this with a full :meth:`checkpoints` validation at
        promotion time; this accessor is for the cheap per-event path
        (governance log entries, dedup probes). Returns ``None`` when no
        checkpoint manifest parses.
        """
        for entry in sorted(self.directory.iterdir(), reverse=True):
            if not _DIR_RE.match(entry.name) or not entry.is_dir():
                continue
            try:
                manifest = json.loads((entry / _MANIFEST_FILE).read_text())
            except (OSError, ValueError):
                continue  # torn write; fall back to the previous seq
            return canonical_digest(manifest)
        return None

    # -- load -------------------------------------------------------------------

    def load(self, info: CheckpointInfo, enclave: Enclave) -> TrainingState:
        """Reconstruct the :class:`TrainingState` of a valid checkpoint.

        Fail-closed gates, in order: the manifest's deployment digest must
        match this manager's (when configured), the manifest's MRENCLAVE
        must match the live enclave's measurement *before* any unseal is
        attempted, and the sealed blob must authenticate. A mismatch at
        any gate raises :class:`CheckpointError`.
        """
        started = time.perf_counter()
        manifest = info.manifest
        if (self.config_digest is not None
                and manifest.get("config_digest") != self.config_digest.hex()):
            raise CheckpointError(
                f"checkpoint {info.path.name} belongs to a different "
                "deployment (config digest mismatch)"
            )
        if manifest["mrenclave"] != enclave.mrenclave.hex():
            raise CheckpointError(
                f"checkpoint {info.path.name} was sealed by a different "
                "enclave (MRENCLAVE mismatch); refusing to unseal"
            )
        sealed = (info.path / _FRONTNET_FILE).read_bytes()
        try:
            payload = unseal(
                enclave, SealedBlob(nonce=sealed[:12], ciphertext=sealed[12:])
            )
        except SealingError as exc:
            raise CheckpointError(
                f"checkpoint {info.path.name} failed to unseal: {exc}"
            ) from exc
        (meta_len,) = struct.unpack_from("<Q", payload, 0)
        secret_meta = json.loads(payload[8:8 + meta_len].decode("utf-8"))
        front = _npz_load(payload[8 + meta_len:])

        plain = _npz_load((info.path / _STATE_FILE).read_bytes())
        n_layers = int(plain.pop("layer_count")[0])
        audit_bytes = plain.pop("audit").tobytes()
        optimizer_state: Dict[str, Any] = dict(manifest["meta"]["optimizer"])
        back: Dict[str, np.ndarray] = {}
        for key, arr in plain.items():
            if key.startswith("opt/"):
                rest = key[len("opt/"):]
                if "/" in rest:
                    group, subkey = rest.split("/", 1)
                    optimizer_state.setdefault(group, {})[subkey] = arr
                else:
                    optimizer_state[rest] = arr
            else:
                back[key] = arr
        weights = _merge_weights(n_layers, front, back)
        meta = manifest["meta"]
        if self.metrics is not None:
            self.metrics.observe("repro_checkpoint_restore_seconds",
                                 time.perf_counter() - started)
            self.metrics.inc("repro_checkpoint_restores_total")
        return TrainingState(
            epoch=info.epoch,
            batch=info.batch,
            batch_size=info.batch_size,
            partition=info.partition,
            network_weights=weights,
            optimizer_state=optimizer_state,
            batch_rng_state=secret_meta["batch_rng"],
            trusted_rng_state=secret_meta["trusted_rng"],
            reports=[EpochReport(**entry) for entry in meta["reports"]],
            carried_losses=list(meta["carried_losses"]),
            audit_bytes=audit_bytes,
            clock_now=float(meta["clock_now"]),
        )

    # -- retention --------------------------------------------------------------

    def prune(self, keep_last: int = 3) -> int:
        """Drop torn directories and all but the ``keep_last`` newest valid
        checkpoints; returns how many directories were removed."""
        if keep_last < 1:
            raise CheckpointError("keep_last must be >= 1")
        valid = {info.path.name for info in self.checkpoints()[-keep_last:]}
        removed = 0
        for entry in sorted(self.directory.iterdir()):
            if _DIR_RE.match(entry.name) and entry.is_dir() \
                    and entry.name not in valid:
                shutil.rmtree(entry)
                removed += 1
        return removed
