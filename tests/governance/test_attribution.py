"""Attributor: evidence-chained reports, and every refusal path.

The conftest world is adversarial by construction: the linkage store
holds one fingerprint that resolves into the ledger's *quarantine* lane
(at :data:`QUARANTINE_OFFSET`, far from every committed cluster). An
attribution that only ever queries honest space never sees it; a query
aimed at it must refuse, not report.
"""

from concurrent.futures import Future

import numpy as np
import pytest

from repro.errors import AttributionError, LedgerError
from repro.governance import Attributor
from repro.observability import SubsystemTelemetry
from repro.serving import (EngineConfig, IndexHit, ServingEngine,
                           ShardedAnnIndex)
from repro.utils.serialization import canonical_digest

from tests.governance.conftest import DIM, QUARANTINE_OFFSET, make_records


@pytest.fixture
def engine(store):
    engine = ServingEngine(
        ShardedAnnIndex(store, shard_threshold=1024, seed=5).build(),
        EngineConfig(workers=2),
    )
    engine.start()
    yield engine
    engine.stop()


@pytest.fixture
def attributor(engine, store, ledger, log):
    return Attributor(engine, store, ledger, log)


def _query_near(store, index, scale=0.05, seed=3):
    record = store.record(index)
    noise = np.random.default_rng(seed).standard_normal(DIM)
    return record.fingerprint + noise.astype(np.float32) * scale, record.label


class TestReports:
    def test_report_carries_the_full_chain(self, attributor, store, log):
        fingerprint, label = _query_near(store, 0)
        report = attributor.attribute(fingerprint, label, k=5)

        assert report.label == label
        assert len(report.hits) == 5
        for hit in report.hits:
            assert hit["ledger"]["lane"] == "committed"
            assert hit["ledger"]["contributor"] == hit["source"]
            assert len(hit["ledger"]["segment_digest"]) == 64
        shares = [c["share"] for c in report.contributors]
        assert abs(sum(shares) - 1.0) < 1e-9
        assert report.implicated  # someone owns >= 25% of 5 hits
        assert set(report.implicated) <= {"c0", "c1"}
        assert report.query_audit["chain"]  # anchored in the serving audit

        # The report itself is chained into the governance timeline.
        entry = log.events("attribution")[-1]
        assert entry["details"]["report_digest"] == report.report_digest
        assert entry["details"]["implicated"] == report.implicated
        assert entry == report.governance_entry
        assert log.verify()

    def test_report_anchors_to_its_own_answer(self, attributor, engine,
                                              store):
        # Another caller's answer is chained after the flagged query's and
        # before the report reads the audit: the report must still cite
        # the flagged query's own event, not the newest one.
        fingerprint, label = _query_near(store, 0)
        other, other_label = _query_near(store, 1, seed=4)
        submit = engine.submit

        def racing(block, flagged_label, k=9):
            future = submit(block, flagged_label, k)
            future.result()
            submit(other, other_label, k).result()
            return future

        engine.submit = racing
        report = attributor.attribute(fingerprint, label, k=3)
        digest = canonical_digest(np.asarray(fingerprint, np.float32)).hex()
        assert report.query_digest == digest
        audit = report.query_audit
        assert audit["details"]["query_digests"][audit["position"]] == digest
        newest = engine.audit.events("serving-query")[-1]
        assert digest not in newest.details["query_digests"]

    def test_nearest_contributor_dominates(self, attributor, store):
        fingerprint, label = _query_near(store, 0, scale=0.01)
        report = attributor.attribute(fingerprint, label, k=1)
        assert report.hits[0]["store_index"] == 0
        assert report.contributors[0]["contributor"] == \
            store.record(0).source
        assert report.contributors[0]["share"] == 1.0

    def test_refusals_do_not_pollute_the_log(self, attributor, store, log):
        before = len(log)
        with pytest.raises(AttributionError):
            attributor.attribute(
                np.full(DIM, QUARANTINE_OFFSET, dtype=np.float32),
                label=0, k=1,
            )
        assert len(log) == before  # refused reports are never chained


class TestRefusals:
    def test_quarantine_lane_hit_refused(self, attributor):
        # The poisoned fingerprint is the nearest neighbour of a query
        # aimed straight at it; the ledger walk exposes its lane.
        with pytest.raises(AttributionError, match="quarantine lane"):
            attributor.attribute(
                np.full(DIM, QUARANTINE_OFFSET, dtype=np.float32),
                label=0, k=1,
            )

    def test_answer_unlike_its_audit_entry_refused(self, attributor, engine,
                                                  store, log):
        # The caller is handed an answer other than the one the chain
        # committed: the report would rest on an unaudited answer.
        submit = engine.submit

        def forging(block, label, k=9):
            answer = submit(block, label, k).result()
            forged = Future()
            forged.set_result(tuple(IndexHit(hit.index, hit.distance + 1.0)
                                    for hit in answer))
            return forged

        engine.submit = forging
        before = len(log)
        with pytest.raises(AttributionError, match="does not match the digest"):
            attributor.attribute(*_query_near(store, 0), k=3)
        assert len(log) == before

    def test_broken_governance_log_refused(self, attributor, store,
                                           tmp_path):
        (tmp_path / "governance" / "head.json").write_text(
            '{"seq": 0, "chain": "' + "00" * 32 + '"}'
        )
        fingerprint, label = _query_near(store, 0)
        with pytest.raises(AttributionError, match="governance log"):
            attributor.attribute(fingerprint, label)

    def test_hit_without_ledger_backing_refused(self, store, ledger, log):
        # A store record whose (source, index) no ledger lane contains:
        # evidence that cannot be walked back is not evidence.
        store.append(
            np.full((1, DIM), -QUARANTINE_OFFSET, dtype=np.float32),
            [1], ["ghost"], [b"g" * 32], source_indices=[999],
        )
        engine = ServingEngine(
            ShardedAnnIndex(store, shard_threshold=1024, seed=5).build(),
            EngineConfig(workers=2),
        )
        engine.start()
        try:
            attributor = Attributor(engine, store, ledger, log)
            with pytest.raises(AttributionError, match="no ledger backing"):
                attributor.attribute(
                    np.full(DIM, -QUARANTINE_OFFSET, dtype=np.float32),
                    label=1, k=1,
                )
        finally:
            engine.stop()

    def test_stale_promotion_refused(self, engine, store, ledger, log,
                                     gate, run_key, tmp_path):
        record = gate.promote(run_key)
        victim = sorted((tmp_path / "ledger").glob("segment-*.bin"))[0]
        blob = bytearray(victim.read_bytes())
        blob[len(blob) // 2] ^= 0x01
        victim.write_bytes(bytes(blob))

        attributor = Attributor(engine, store, ledger, log,
                                gate=gate, promotion=record)
        fingerprint, label = _query_near(store, 0)
        with pytest.raises(AttributionError,
                           match="promoted lineage no longer verifies"):
            attributor.attribute(fingerprint, label)


class TestDisclosure:
    """The paper's summon-and-verify step: only the hit instances are
    demanded, and each must hash to the H the store committed."""

    def _report(self, attributor, store):
        fingerprint, label = _query_near(store, 0)
        return attributor.attribute(fingerprint, label, k=5)

    def test_honest_disclosure_verifies_every_hit(self, attributor, store,
                                                  log, participants):
        report = self._report(attributor, store)
        before = len(log)
        verified = attributor.disclose(report, participants)
        assert verified == [hit["store_index"] for hit in report.hits]
        assert len(log) == before + 1
        entry = log.events()[-1]
        assert entry["kind"] == "disclosure"
        assert entry["details"]["report_digest"] == report.report_digest
        assert entry["details"]["verified"] == verified
        assert log.verify()

    def test_one_altered_pixel_refuses(self, attributor, store, log,
                                       participants):
        report = self._report(attributor, store)
        first = store.record(report.hits[0]["store_index"])
        participants[first.source].dataset.x[first.source_index, 0, 0, 0] \
            += 1e-3
        before = len(log)
        with pytest.raises(AttributionError, match="committed digest H"):
            attributor.disclose(report, participants)
        assert len(log) == before

    def test_absent_contributor_refuses(self, attributor, store, log,
                                        participants):
        report = self._report(attributor, store)
        absent = store.record(report.hits[0]["store_index"]).source
        present = {name: p for name, p in participants.items()
                   if name != absent}
        before = len(log)
        with pytest.raises(AttributionError, match="was not summoned"):
            attributor.disclose(report, present)
        assert len(log) == before

    def test_refusal_is_counted(self, engine, store, ledger, log,
                                participants):
        telemetry = SubsystemTelemetry("governance")
        attributor = Attributor(engine, store, ledger, log,
                                telemetry=telemetry)
        report = self._report(attributor, store)
        attributor.disclose(report, participants)
        with pytest.raises(AttributionError):
            attributor.disclose(report, {})
        assert telemetry.counter("disclosures") == 1
        assert telemetry.counter("attributions_refused") == 1


class TestOneLedgerWalk:
    """A report's hits resolve in one walk over the ledger's segments,
    with the evidence the one-pair lookup gives for each."""

    @pytest.fixture
    def wide(self, store, ledger, rng):
        """A third committed segment, its records in the store, and an
        engine over an index that covers them: label 0 now has three
        records in each of three segments, plus the quarantined one."""
        generator = rng.child("wide").generator
        extra = make_records(generator, 12, "c2")
        ledger.append(extra, contributor="c2")
        store.append(
            generator.standard_normal((12, DIM)).astype(np.float32),
            [r.label for r in extra], ["c2"] * 12, [b"h" * 32] * 12,
            source_indices=[r.index for r in extra],
        )
        engine = ServingEngine(
            ShardedAnnIndex(store, shard_threshold=1024, seed=5).build(),
            EngineConfig(workers=2),
        )
        engine.start()
        yield engine
        engine.stop()

    def _count_segment_walks(self, monkeypatch):
        from repro.ingest import ledger as ledger_module

        real, calls = ledger_module.packed_frames, []
        monkeypatch.setattr(
            ledger_module, "packed_frames",
            lambda blob: calls.append(len(blob)) or real(blob))
        return calls

    def test_hits_over_three_segments_resolve_in_one_walk(
            self, wide, store, ledger, log, monkeypatch):
        attributor = Attributor(wide, store, ledger, log)
        calls = self._count_segment_walks(monkeypatch)
        report = attributor.attribute(np.zeros(DIM, dtype=np.float32),
                                      label=0, k=9)
        assert len(calls) == 3  # one per committed segment, not one per hit
        assert {hit["ledger"]["segment"] for hit in report.hits} == {
            "segment-000000", "segment-000001", "segment-000002"}
        for hit in report.hits:
            assert hit["ledger"] == ledger.locate_records(
                [(hit["source"], hit["source_index"])])[0]
            assert hit["ledger"]["contributor"] == hit["source"]

    def test_a_quarantined_hit_among_committed_ones_refuses_the_report(
            self, wide, store, ledger, log, monkeypatch):
        attributor = Attributor(wide, store, ledger, log)
        calls = self._count_segment_walks(monkeypatch)
        with pytest.raises(AttributionError, match="quarantine lane"):
            attributor.attribute(np.zeros(DIM, dtype=np.float32),
                                 label=0, k=10)
        assert len(calls) == 4  # three committed segments + the quarantine

    def test_locate_records_matches_the_one_pair_lookup(self, ledger):
        pairs = [("c1", 7), ("evil", 1), ("c0", 0), ("c1", 7), ("c0", 11)]
        located = ledger.locate_records(pairs)
        assert located == [ledger.locate_records([pair])[0]
                           for pair in pairs]
        assert [e["lane"] for e in located] == [
            "committed", "quarantine", "committed", "committed", "committed"]
        assert located[1]["reason"] == "tampered"
        assert ledger.locate_records([]) == []
        with pytest.raises(LedgerError,
                           match="no ledger record for source 'c0' index 99"):
            ledger.locate_records([("c1", 3), ("c0", 99), ("ghost", 1)])
