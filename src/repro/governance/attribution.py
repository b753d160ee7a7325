"""Contributor attribution reports with a complete evidence chain.

The paper's accountability story, made auditable end to end: a model
user flags a prediction, the serving plane finds the training instances
whose fingerprints sit closest to the flagged input, and *this* module
walks each hit all the way back — linkage record → committed ledger
segment → contributor — and assembles a JSON report carrying every link:

1. the **query audit entry** the serving engine chained for the flagged
   query, checked against the answer's digest (so the answer itself is
   tamper-evident),
2. the **linkage hits** (store indices, distances, record digests),
3. the **ledger evidence** per hit (segment name, segment digest, lane,
   contributor, record content digest),
4. the **governance events** for the run (train-start/complete,
   promotion), and
5. the contributor ranking with the implicated set (hit-share
   threshold).

:meth:`Attributor.disclose` then runs the paper's summon-and-verify step
(§IV-C): only the report's hit instances are demanded from their
contributors, and each must hash to the ``H`` the store committed before
the verified indices are chained into the log as a ``disclosure`` event —
minimum data exposure, checkable by a party that produced none of it.

The walk is fail-closed (:class:`~repro.errors.AttributionError`): a
governance log that does not verify, a promotion that no longer matches
the artifacts, a hit that resolves to no ledger record, or a hit that
resolves into the *quarantine* lane all refuse rather than emit a report
that names contributors on unverifiable evidence. The finished report is
itself chained into the governance log, so reports can never be
retroactively rewritten either.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Mapping

import numpy as np

from repro.core.linkage import instance_digest
from repro.errors import (AttributionError, GovernanceLogError, LedgerError,
                          PromotionError, QueryError)
from repro.governance.log import GovernanceLog
from repro.serving.engine import answer_digest
from repro.utils.logging import get_logger
from repro.utils.serialization import canonical_digest, canonical_json

__all__ = ["AttributionReport", "Attributor"]

_LOG = get_logger("governance.attribution")


@dataclass(frozen=True)
class AttributionReport:
    """One flagged prediction, attributed, with its evidence chain."""

    run_key: str
    label: int
    query_digest: str
    query_audit: Dict[str, Any]
    hits: List[Dict[str, Any]]
    contributors: List[Dict[str, Any]]
    implicated: List[str]
    governance_events: List[Dict[str, Any]]
    report_digest: str
    governance_entry: Dict[str, Any]

    def to_json(self) -> bytes:
        return canonical_json({
            "run_key": self.run_key,
            "label": self.label,
            "query_digest": self.query_digest,
            "query_audit": self.query_audit,
            "hits": self.hits,
            "contributors": self.contributors,
            "implicated": self.implicated,
            "governance_events": self.governance_events,
            "report_digest": self.report_digest,
            "governance_entry": self.governance_entry,
        })


class Attributor:
    """Resolves flagged predictions to contributors, fail-closed.

    Args:
        engine: A started :class:`~repro.serving.engine.ServingEngine`
            (its audit chain becomes part of the evidence).
        store: The :class:`LinkageStore` behind the engine's index.
        ledger: The :class:`ContributionLedger` training consumed.
        log: The governance event log.
        gate: Optional :class:`PromotionGate`; with ``promotion`` set,
            the promoted lineage is re-verified before any evidence is
            trusted.
        promotion: The :class:`PromotionRecord` the serving plane runs
            under.
        source_share_threshold: A contributor owning at least this share
            of the evidence hits is implicated.
    """

    def __init__(self, engine, store, ledger, log: GovernanceLog, *,
                 gate=None, promotion=None, telemetry=None,
                 source_share_threshold: float = 0.25) -> None:
        self.engine = engine
        self.store = store
        self.ledger = ledger
        self.log = log
        self.gate = gate
        self.promotion = promotion
        self.telemetry = telemetry
        self.source_share_threshold = source_share_threshold

    # -- the evidence walk --------------------------------------------------------

    def _verify_planes(self) -> None:
        try:
            self.log.verify()
        except GovernanceLogError as exc:
            raise AttributionError(
                f"governance log failed verification: {exc}"
            ) from exc
        if self.gate is not None and self.promotion is not None:
            try:
                self.gate.verify_record(self.promotion)
            except PromotionError as exc:
                raise AttributionError(
                    f"promoted lineage no longer verifies: {exc}"
                ) from exc
        if not self.engine.verify_audit_chain():
            raise AttributionError(
                "serving query audit chain failed verification"
            )

    def _counted(self, counter: str, step, *args):
        try:
            result = step(*args)
        except AttributionError:
            if self.telemetry is not None:
                self.telemetry.count("attributions_refused")
            raise
        if self.telemetry is not None:
            self.telemetry.count(counter)
        return result

    def attribute(self, fingerprint: np.ndarray, label: int,
                  k: int = 9) -> AttributionReport:
        """Attribute one flagged prediction; returns the chained report."""
        return self._counted("attributions", self._attribute, fingerprint,
                             label, k)

    def disclose(self, report: AttributionReport,
                 participants: Mapping[str, Any]) -> List[int]:
        """Summon the report's hit instances and check each against H.

        ``participants`` maps contributor ids to objects with
        ``disclose_instance(source_index)``. Only the hit rows are
        demanded. A contributor that is absent, cannot produce the
        instance, or turns in anything whose digest differs from the
        store's ``H`` refuses the disclosure and leaves the log unchanged;
        otherwise one ``disclosure`` event is chained and the verified
        store indices are returned.
        """
        return self._counted("disclosures", self._disclose, report,
                             participants)

    def _disclose(self, report: AttributionReport,
                  participants: Mapping[str, Any]) -> List[int]:
        verified: List[int] = []
        for hit in report.hits:
            index = int(hit["store_index"])
            record = self.store.record(index)
            participant = participants.get(record.source)
            if participant is None:
                raise AttributionError(
                    f"contributor {record.source!r} of store index {index} "
                    "was not summoned — its instance cannot be verified"
                )
            try:
                instance = participant.disclose_instance(record.source_index)
            except QueryError as exc:
                raise AttributionError(
                    f"contributor {record.source!r} could not disclose "
                    f"store index {index}: {exc}"
                ) from exc
            if instance_digest(instance) != record.digest:
                raise AttributionError(
                    f"the instance {record.source!r} disclosed for store "
                    f"index {index} does not match the committed digest H"
                )
            verified.append(index)
        self.log.append(
            "disclosure",
            run_key=report.run_key,
            report_digest=report.report_digest,
            verified=verified,
        )
        _LOG.info("disclosure for report %s: %d instances verified",
                  report.report_digest[:16], len(verified))
        return verified

    def _attribute(self, fingerprint: np.ndarray, label: int,
                   k: int) -> AttributionReport:
        self._verify_planes()

        hits = self.engine.submit(fingerprint, label, k=k).result()
        if not self.engine.verify_audit_chain():
            raise AttributionError(
                "serving query audit chain failed verification after the "
                "flagged query"
            )
        # Anchor to the newest event committing *this* query — other
        # callers' answers may have been chained since it was answered.
        digest = canonical_digest(
            np.asarray(fingerprint, np.float32).ravel()).hex()
        for audit_event in reversed(self.engine.audit.events("serving-query")):
            details = audit_event.details
            if (details["label"] == label and details["k"] == k
                    and digest in details["query_digests"]):
                break
        else:
            raise AttributionError(
                "the flagged query left no audit entry — refusing to build "
                "an unanchored report"
            )
        position = details["query_digests"].index(digest)
        if details["results"][position] != answer_digest(hits):
            raise AttributionError(
                "the flagged query's answer does not match the digest its "
                "audit entry committed"
            )
        query_audit = dict(audit_event.payload, position=position,
                           chain=audit_event.chain_hash.hex())

        records = [self.store.record(hit.index) for hit in hits]
        try:
            # One ledger walk for the whole report, not one per hit.
            located = self.ledger.locate_records(
                [(record.source, record.source_index) for record in records]
            )
        except LedgerError as exc:
            raise AttributionError(
                f"a linkage hit has no ledger backing: {exc}"
            ) from exc
        evidence: List[Dict[str, Any]] = []
        for hit, record, ledger_evidence in zip(hits, records, located):
            if ledger_evidence["lane"] != "committed":
                raise AttributionError(
                    f"linkage hit (store index {hit.index}) resolves to the "
                    f"quarantine lane of contributor "
                    f"{ledger_evidence['contributor']!r} "
                    f"(reason: {ledger_evidence['reason']!r}) — a "
                    "quarantined record can never be training evidence"
                )
            evidence.append({
                "store_index": int(hit.index),
                "distance": float(hit.distance),
                "source": record.source,
                "source_index": int(record.source_index),
                "fingerprint_digest": record.digest.hex(),
                "ledger": ledger_evidence,
            })

        counts: Dict[str, int] = {}
        for item in evidence:
            counts[item["source"]] = counts.get(item["source"], 0) + 1
        total = len(evidence)
        contributors = [
            {"contributor": source, "hits": count,
             "share": count / total}
            for source, count in sorted(counts.items(),
                                        key=lambda kv: (-kv[1], kv[0]))
        ]
        implicated = [c["contributor"] for c in contributors
                      if c["share"] >= self.source_share_threshold]

        run_key = (self.promotion.run_key if self.promotion is not None
                   else "")
        governance_events = [
            e for e in self.log.events()
            if e["kind"] in ("train-start", "train-complete", "promotion")
            and (not run_key or e["details"].get("run_key") == run_key)
        ]

        body = {
            "run_key": run_key,
            "label": int(label),
            "query_digest": digest,
            "query_audit": query_audit,
            "hits": evidence,
            "contributors": contributors,
            "implicated": implicated,
            "governance_events": governance_events,
        }
        report_digest = canonical_digest(body).hex()
        entry = self.log.append(
            "attribution",
            run_key=run_key,
            label=int(label),
            query_digest=body["query_digest"],
            report_digest=report_digest,
            implicated=implicated,
        )
        _LOG.info("attribution for label %d: %d hits, implicated %s",
                  label, total, implicated)
        return AttributionReport(
            run_key=run_key,
            label=int(label),
            query_digest=body["query_digest"],
            query_audit=query_audit,
            hits=evidence,
            contributors=contributors,
            implicated=implicated,
            governance_events=governance_events,
            report_digest=report_digest,
            governance_entry=entry,
        )
