"""The fail-closed promotion gate.

A model may serve only after its entire lineage verifies end-to-end:

1. **ledger** — every committed and quarantined segment re-hashes to its
   manifest digest (no contribution was altered after validation), and,
   given the agreed config digest, the ``run_key`` is the one that config
   and the ledger's data digest give (the run trained on these records);
2. **checkpoint** — the newest valid checkpoint's data files hash to its
   manifest, and that manifest names the same MRENCLAVE, config digest,
   and ``run_key`` being promoted (the weights really came from this
   run, inside the agreed enclave);
3. **linkage store** — every fingerprint segment re-hashes to its
   manifest digest (the serving index answers from exactly what the
   fingerprint stage produced);
4. **governance log** — the event timeline itself verifies.

A walk that passes yields a signed :class:`PromotionRecord`. The
signature is an HMAC under a key derived from the *platform secret and
the enclave measurement* (the same derivation family as SGX sealing), so
the untrusted host — which can read every artifact — cannot mint a
record for a tampered lineage: it never holds the key. Anything that
fails raises :class:`~repro.errors.PromotionError`; there is no advisory
mode.

:meth:`PromotionGate.serving_verifier` packages the same walk as a guard
:class:`~repro.serving.engine.ServingEngine` runs at :meth:`start`, so a
lineage that was tampered with *after* promotion (a swapped ledger
segment, a re-sealed checkpoint, a truncated governance log) still
refuses to serve.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, asdict
from typing import Any, Callable, Dict, Optional

from repro.crypto.hashing import constant_time_equal, hmac_sha256
from repro.crypto.hkdf import hkdf
from repro.enclave.enclave import Enclave
from repro.errors import (GovernanceLogError, LedgerError, PromotionError,
                          StoreError)
from repro.governance.identity import compute_run_key
from repro.governance.log import GovernanceLog
from repro.utils.logging import get_logger
from repro.utils.serialization import canonical_digest, canonical_json

__all__ = ["PromotionRecord", "PromotionGate"]

_LOG = get_logger("governance.gate")


@dataclass(frozen=True)
class PromotionRecord:
    """A signed attestation that one run's lineage verified end-to-end.

    All digests are hex. ``checkpoint_digest`` is ``None`` for runs that
    trained without a checkpoint directory (nothing to bind); the other
    links are mandatory.
    """

    run_key: str
    config_digest: str
    ledger_digest: str
    store_digest: str
    checkpoint_digest: Optional[str]
    mrenclave: str
    governance_head: str
    signature: str = ""

    def payload(self) -> Dict[str, Any]:
        """The signed portion (everything except the signature)."""
        fields = asdict(self)
        fields.pop("signature")
        return fields

    def to_json(self) -> bytes:
        return canonical_json(asdict(self))

    @classmethod
    def from_json(cls, blob: bytes) -> "PromotionRecord":
        import json

        try:
            fields = json.loads(blob.decode("utf-8"))
            return cls(**fields)
        except (ValueError, TypeError) as exc:
            raise PromotionError(
                f"promotion record is malformed: {exc}"
            ) from exc


class PromotionGate:
    """Walks a run's lineage and signs (or refuses) its promotion.

    Args:
        enclave: The training enclave whose identity anchors the
            signing key and whose measurement checkpoints must match.
        log: The governance event log; every verify/promote chains into
            it and its own integrity is part of the walk.
        ledger: The committed contribution ledger training consumed.
        checkpoints: Optional :class:`CheckpointManager` of the run.
        store: The :class:`LinkageStore` the serving index answers from.
        telemetry: Optional ``SubsystemTelemetry("governance")``.
    """

    def __init__(self, enclave: Enclave, log: GovernanceLog, *,
                 ledger=None, checkpoints=None, store=None,
                 telemetry=None) -> None:
        self.enclave = enclave
        self.log = log
        self.ledger = ledger
        self.checkpoints = checkpoints
        self.store = store
        self.telemetry = telemetry

    # -- the signing boundary -----------------------------------------------------

    def _signing_key(self) -> bytes:
        # Same derivation family as SGX sealing: platform secret keyed by
        # the enclave measurement. The untrusted host holds neither.
        return hkdf(
            ikm=self.enclave.platform.platform_key,
            salt=self.enclave.mrenclave,
            info=b"caltrain-promotion",
            length=32,
        )

    def _sign(self, record: PromotionRecord) -> PromotionRecord:
        signature = hmac_sha256(
            self._signing_key(), canonical_json(record.payload())
        )
        return PromotionRecord(**dict(record.payload(),
                                      signature=signature.hex()))

    def check_signature(self, record: PromotionRecord) -> None:
        """Authenticate a record; raises :class:`PromotionError`."""
        if not record.signature:
            raise PromotionError("promotion record is unsigned")
        expected = hmac_sha256(
            self._signing_key(), canonical_json(record.payload())
        )
        if not constant_time_equal(expected,
                                   bytes.fromhex(record.signature)):
            raise PromotionError(
                "promotion record signature does not verify — forged "
                "record or altered fields"
            )

    # -- the lineage walk ---------------------------------------------------------

    def verify(self, run_key: str,
               config_digest: Optional[bytes] = None) -> Dict[str, Any]:
        """Walk ledger → checkpoint chain → store; fail-closed.

        Returns the verified lineage digests (the fields a
        :class:`PromotionRecord` signs). Raises
        :class:`~repro.errors.PromotionError` naming the first link that
        failed.
        """
        started = time.perf_counter()
        try:
            lineage = self._walk(run_key, config_digest)
        except PromotionError:
            if self.telemetry is not None:
                self.telemetry.count("verifications_refused")
            raise
        if self.telemetry is not None:
            self.telemetry.count("verifications")
            self.telemetry.observe("gate_verify",
                                   time.perf_counter() - started)
        return lineage

    def _walk(self, run_key: str,
              config_digest: Optional[bytes]) -> Dict[str, Any]:
        try:
            self.log.verify()
        except GovernanceLogError as exc:
            raise PromotionError(
                f"governance log failed verification: {exc}"
            ) from exc

        if self.ledger is None:
            raise PromotionError(
                "no contribution ledger bound — a run without a committed "
                "ledger has no verifiable data lineage"
            )
        try:
            self.ledger.verify()
        except LedgerError as exc:
            raise PromotionError(
                f"ledger lineage failed verification: {exc}"
            ) from exc
        ledger_digest = self.ledger.manifest_digest().hex()

        checkpoint_digest: Optional[str] = None
        if self.checkpoints is not None:
            info = self.checkpoints.latest()
            if info is None:
                raise PromotionError(
                    "checkpoint lineage failed verification: no valid "
                    "checkpoint survives digest checks"
                )
            manifest = info.manifest
            if manifest.get("run_key") != run_key:
                raise PromotionError(
                    f"checkpoint {info.path.name} belongs to run "
                    f"{manifest.get('run_key')!r}, not the run being "
                    f"promoted"
                )
            if manifest.get("mrenclave") != self.enclave.mrenclave.hex():
                raise PromotionError(
                    f"checkpoint {info.path.name} was sealed by a "
                    "different enclave (MRENCLAVE mismatch)"
                )
            if config_digest is not None and \
                    manifest.get("config_digest") != config_digest.hex():
                raise PromotionError(
                    f"checkpoint {info.path.name} belongs to a different "
                    "training agreement (config digest mismatch)"
                )
            checkpoint_digest = canonical_digest(manifest).hex()

        if config_digest is not None and run_key != compute_run_key(
                config_digest, self.ledger.data_digest()):
            raise PromotionError(
                "run key is not the one the agreed config and the ledger's "
                "data give — the run did not train on this ledger's records"
            )

        if self.store is None:
            raise PromotionError(
                "no linkage store bound — a model without a fingerprint "
                "snapshot cannot answer accountability queries"
            )
        try:
            self.store.verify()
        except StoreError as exc:
            raise PromotionError(
                f"linkage-store lineage failed verification: {exc}"
            ) from exc

        return {
            "run_key": run_key,
            "config_digest": (config_digest.hex() if config_digest
                              else None),
            "ledger_digest": ledger_digest,
            "checkpoint_digest": checkpoint_digest,
            "store_digest": self.store.manifest_digest().hex(),
            "mrenclave": self.enclave.mrenclave.hex(),
        }

    # -- promotion ---------------------------------------------------------------

    def promote(self, run_key: str,
                config_digest: Optional[bytes] = None) -> PromotionRecord:
        """Verify the lineage and issue the signed promotion record.

        The record is chained into the governance log (kind
        ``"promotion"``) with its content digest, so a later verifier
        can prove both that the promotion happened and exactly which
        lineage it attested.
        """
        lineage = self.verify(run_key, config_digest)
        record = self._sign(PromotionRecord(
            run_key=run_key,
            config_digest=lineage["config_digest"] or "",
            ledger_digest=lineage["ledger_digest"],
            store_digest=lineage["store_digest"],
            checkpoint_digest=lineage["checkpoint_digest"],
            mrenclave=lineage["mrenclave"],
            governance_head=self.log.head.hex(),
        ))
        self.log.append(
            "promotion",
            run_key=run_key,
            record_digest=canonical_digest(record.to_json()).hex(),
            ledger_digest=record.ledger_digest,
            store_digest=record.store_digest,
            checkpoint_digest=record.checkpoint_digest,
            mrenclave=record.mrenclave,
        )
        if self.telemetry is not None:
            self.telemetry.count("promotions")
        _LOG.info("run %s promoted (ledger %s..., store %s...)",
                  run_key[:16], record.ledger_digest[:12],
                  record.store_digest[:12])
        return record

    def verify_record(self, record: Optional[PromotionRecord]) -> None:
        """Re-verify a promotion against the *current* artifacts.

        This is the serving-load walk: signature first (an unsigned or
        forged record never triggers I/O), then the full lineage walk,
        then digest equality between what the record attests and what is
        on disk *now* — a ledger segment swapped after promotion, a
        checkpoint re-sealed, or a store regenerated all surface here as
        typed :class:`~repro.errors.PromotionError`.
        """
        if record is None:
            raise PromotionError(
                "no promotion record — this model was never promoted and "
                "must not serve"
            )
        self.check_signature(record)
        lineage = self.verify(
            record.run_key,
            bytes.fromhex(record.config_digest)
            if record.config_digest else None,
        )
        for link in ("ledger_digest", "store_digest", "checkpoint_digest"):
            attested = getattr(record, link)
            current = lineage[link]
            if attested != current:
                raise PromotionError(
                    f"{link.replace('_', ' ')} changed after promotion "
                    f"(attested {attested!r}, found {current!r}) — the "
                    "artifacts no longer match the promoted lineage"
                )

    def serving_verifier(self) -> Callable[[Optional[PromotionRecord]], None]:
        """The guard :class:`ServingEngine` runs before accepting traffic."""
        def _guard(record: Optional[PromotionRecord]) -> None:
            try:
                self.verify_record(record)
            except PromotionError:
                if self.telemetry is not None:
                    self.telemetry.count("serving_refusals")
                raise
        return _guard
