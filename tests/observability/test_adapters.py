"""Adapter tests: one telemetry type over the shared registry."""

from collections import defaultdict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.observability.adapter import SubsystemTelemetry
from repro.observability.metrics import MetricsRegistry, parse_prometheus


def _ratio(numerator, denominator):
    return numerator / denominator if denominator else 0.0


def _faults(c):
    return sum(value for name, value in c.items() if name.startswith("fault_"))


# Each plane's counters, and an oracle for its derived values written out
# by hand from the old per-plane classes, independent of the adapter's
# table.
COUNTERS = {
    "serving": ("queries", "cache_hits", "cache_misses", "batches",
                "batched_queries", "candidates_scanned",
                "brute_equivalent_rows"),
    "serving_cluster": ("queries", "queries_ok", "queries_failed",
                        "degraded_answers", "hedges_launched", "hedges_won",
                        "evictions", "replica_refreshes"),
    "ingest": ("chunks", "chunk_records", "records_accepted",
               "records_quarantined", "sessions_opened"),
    "governance": ("events", "verifications", "verifications_refused",
                   "promotions"),
    "resilience": ("fault_enclave", "fault_epc", "retries", "restores"),
    "distributed": ("fault_EnclaveAbort", "fault_TimeoutError", "rounds",
                    "stragglers"),
    "repro": ("events", "fault_x"),
}
ORACLES = {
    "serving": lambda c: {
        "cache_hit_rate": _ratio(c["cache_hits"],
                                 c["cache_hits"] + c["cache_misses"]),
        "mean_batch_size": _ratio(c["batched_queries"], c["batches"]),
        "scan_fraction": _ratio(c["candidates_scanned"],
                                c["brute_equivalent_rows"]),
    },
    "serving_cluster": lambda c: {
        "success_rate": _ratio(c["queries_ok"],
                               c["queries_ok"] + c["queries_failed"]),
        "degraded_fraction": _ratio(c["degraded_answers"], c["queries_ok"]),
        "hedge_win_rate": _ratio(c["hedges_won"], c["hedges_launched"]),
    },
    "ingest": lambda c: {
        "quarantine_rate": _ratio(
            c["records_quarantined"],
            c["records_accepted"] + c["records_quarantined"]),
        "mean_chunk_records": _ratio(c["chunk_records"], c["chunks"]),
    },
    "governance": lambda c: {
        "refusal_rate": _ratio(
            c["verifications_refused"],
            c["verifications"] + c["verifications_refused"]),
    },
    "resilience": lambda c: {"fault_count": _faults(c)},
    "distributed": lambda c: {"fault_count": _faults(c)},
    "repro": lambda c: {},
}
SUBSYSTEMS = sorted(COUNTERS)


class TestNameMapping:
    def test_counter_names_follow_scheme(self):
        telemetry = SubsystemTelemetry("serving")
        assert telemetry.counter_metric_name("cache_hits") == \
            "repro_serving_cache_hits_total"
        assert telemetry.counter_metric_name("bad-name.x") == \
            "repro_serving_bad_name_x_total"

    def test_stage_names_carry_seconds_unit(self):
        telemetry = SubsystemTelemetry("ingest")
        assert telemetry.stage_metric_name("validate") == \
            "repro_ingest_stage_validate_seconds"

    def test_occupancy_stages_stay_unitless(self):
        telemetry = SubsystemTelemetry("serving")
        assert telemetry.stage_metric_name("queue_occupancy") == \
            "repro_serving_stage_queue_occupancy"


class TestAdapterSurface:
    def test_counters_land_in_registry(self):
        registry = MetricsRegistry()
        telemetry = SubsystemTelemetry("serving", registry=registry)
        telemetry.count("queries", 7)
        assert telemetry.counter("queries") == 7
        assert registry.counter("repro_serving_queries_total").value == 7

    def test_unknown_counter_and_stage(self):
        telemetry = SubsystemTelemetry("serving")
        assert telemetry.counter("never_written") == 0
        assert "never_observed" not in telemetry.snapshot()["stages"]

    def test_negative_counts_supported(self):
        # quarantine_at_commit retroactively un-counts accepted records.
        telemetry = SubsystemTelemetry("ingest")
        telemetry.count("records_accepted", 10)
        telemetry.count("records_accepted", -1)
        assert telemetry.counter("records_accepted") == 9

    def test_stage_returns_point_in_time_copy(self):
        telemetry = SubsystemTelemetry("serving")
        telemetry.observe("search", 0.010)
        first = telemetry.snapshot()["stages"]["search"]
        telemetry.observe("search", 0.030)
        second = telemetry.snapshot()["stages"]["search"]
        # A reader's stage dict never changes under it.
        assert first["count"] == 1 and first["sum"] == pytest.approx(0.010)
        assert second["count"] == 2 and second["sum"] == pytest.approx(0.040)

    def test_stage_dict_fields(self):
        telemetry = SubsystemTelemetry("resilience")
        telemetry.observe("checkpoint_save", 0.5)
        telemetry.observe("checkpoint_save", 1.5)
        stage = telemetry.snapshot()["stages"]["checkpoint_save"]
        assert (stage["count"], stage["sum"], stage["mean"]) == (2, 2.0, 1.0)
        assert (stage["min"], stage["max"]) == (0.5, 1.5)
        for q in ("p50", "p95", "p99"):
            assert 0.5 <= stage[q] <= 1.5

    def test_empty_stage_mean_is_zero(self):
        telemetry = SubsystemTelemetry("serving")
        telemetry.observe_many("idle", [])
        stage = telemetry.snapshot()["stages"]["idle"]
        assert (stage["count"], stage["mean"], stage["max"]) == (0, 0.0, 0.0)

    def test_concurrent_readers_never_tear(self):
        # Deterministic form of "a writer lands between two of the
        # reader's lock acquisitions": the histogram's lock is swapped
        # for a proxy that performs one observe() right after the
        # reader's first release. A reader that takes the lock once per
        # field pairs the old count with the new sum; a stage dict built
        # from one Histogram.summary() has no second acquisition to
        # interleave.
        telemetry = SubsystemTelemetry("serving")
        telemetry.observe("total", 0.002)
        histogram = telemetry.registry.histogram(
            telemetry.stage_metric_name("total"))
        real = histogram._lock

        class InterleavingLock:
            releases = 0

            def __enter__(self):
                real.acquire()

            def __exit__(self, *exc_info):
                real.release()
                self.releases += 1
                if self.releases == 1:
                    histogram.observe(0.002)  # the concurrent writer

        histogram._lock = proxy = InterleavingLock()
        stats = telemetry.snapshot()["stages"]["total"]
        assert proxy.releases >= 2  # the reader's read + the writer
        assert stats["sum"] == pytest.approx(stats["count"] * 0.002)
        assert stats["mean"] == pytest.approx(0.002)
        # Same rule for the Prometheus scrape: the bucket series, _sum
        # and _count of one histogram come from one summary.
        proxy.releases = 0
        rendered = parse_prometheus(telemetry.registry.render_prometheus())
        samples = rendered[histogram.name]["samples"]
        assert samples['_bucket{le="+Inf"}'] == samples["_count"]
        assert samples["_sum"] == pytest.approx(samples["_count"] * 0.002)

    def test_snapshot_parity_with_stage(self):
        telemetry = SubsystemTelemetry("resilience")
        telemetry.count("retries", 2)
        telemetry.observe("checkpoint_save", 0.5)
        telemetry.observe("checkpoint_save", 1.5)
        snapshot = telemetry.snapshot()
        assert snapshot["counters"]["retries"] == 2
        histogram = telemetry.registry.histogram(
            telemetry.stage_metric_name("checkpoint_save"))
        assert snapshot["stages"]["checkpoint_save"] == histogram.as_dict()


class TestLegacyBehaviour:
    def test_serving_derived_rates(self):
        telemetry = SubsystemTelemetry("serving")
        telemetry.count("queries", 10)
        telemetry.count("cache_hits", 4)
        telemetry.count("cache_misses", 6)
        telemetry.count("batches", 2)
        telemetry.count("batched_queries", 6)
        snapshot = telemetry.snapshot()
        assert snapshot["cache_hit_rate"] == pytest.approx(0.4)
        assert snapshot["mean_batch_size"] == pytest.approx(3.0)
        assert snapshot["scan_fraction"] == 0.0  # empty denominator

    def test_ingest_quarantine_rate(self):
        telemetry = SubsystemTelemetry("ingest")
        telemetry.count("records_accepted", 8)
        telemetry.count("records_quarantined", 2)
        assert telemetry.snapshot()["quarantine_rate"] == pytest.approx(0.2)

    def test_resilience_fault_count_sums_kinds(self):
        telemetry = SubsystemTelemetry("resilience")
        telemetry.count("fault_enclave", 2)
        telemetry.count("fault_epc")
        telemetry.count("retries", 3)  # not a fault counter
        assert telemetry.snapshot()["fault_count"] == 3

    def test_distributed_fault_count_sums_exception_kinds(self):
        telemetry = SubsystemTelemetry("distributed")
        telemetry.count("fault_EnclaveAbort")
        telemetry.count("fault_TimeoutError", 2)
        telemetry.count("worker_faults", 3)
        assert telemetry.snapshot()["fault_count"] == 3
        assert "fault_count" in telemetry.render()

    def test_render_is_textual(self):
        for subsystem in ("serving", "ingest", "resilience"):
            telemetry = SubsystemTelemetry(subsystem)
            telemetry.count("events", 1)
            telemetry.observe("work", 0.001)
            text = telemetry.render()
            assert text.startswith(f"{subsystem} telemetry")
            assert "events" in text and "stage work" in text


class TestDerivedTable:
    """Every derived value equals its oracle; render prints all of it."""

    @staticmethod
    def _drive(data, subsystem):
        telemetry = SubsystemTelemetry(subsystem)
        expected = defaultdict(int)
        counts = data.draw(st.lists(
            st.tuples(st.sampled_from(COUNTERS[subsystem]),
                      st.integers(0, 50)), max_size=20))
        for name, n in counts:
            telemetry.count(name, n)
            expected[name] += n
        stages = data.draw(st.lists(
            st.tuples(st.sampled_from(("search", "queue_occupancy", "commit")),
                      st.floats(0.0, 1.0)), max_size=10))
        for stage, value in stages:
            telemetry.observe(stage, value)
        return telemetry, expected, {stage for stage, _ in stages}

    @pytest.mark.parametrize("subsystem", SUBSYSTEMS)
    @settings(max_examples=50, deadline=None)
    @given(data=st.data())
    def test_snapshot_matches_oracle(self, data, subsystem):
        telemetry, expected, stages = self._drive(data, subsystem)
        snapshot = telemetry.snapshot()
        assert snapshot["counters"] == dict(expected)
        assert set(snapshot["stages"]) == stages
        derived = ORACLES[subsystem](defaultdict(int, expected))
        assert set(snapshot) - {"counters", "stages"} == set(derived)
        for name, value in derived.items():
            assert snapshot[name] == value, name
            assert type(snapshot[name]) is type(value), name

    @pytest.mark.parametrize("subsystem", SUBSYSTEMS)
    @settings(max_examples=50, deadline=None)
    @given(data=st.data())
    def test_render_prints_every_value(self, data, subsystem):
        telemetry, expected, stages = self._drive(data, subsystem)
        lines = telemetry.render().splitlines()
        assert lines[0] == f"{subsystem} telemetry"
        printed = {line.split()[0]: line.split()[1] for line in lines[1:]
                   if not line.lstrip().startswith("stage ")}
        for name, value in expected.items():
            assert int(printed[name]) == value, name
        derived = ORACLES[subsystem](defaultdict(int, expected))
        for name, value in derived.items():
            assert float(printed[name]) == pytest.approx(value, abs=1e-4)
        rendered_stages = {line.split()[1] for line in lines
                           if line.lstrip().startswith("stage ")}
        assert rendered_stages == stages

    @pytest.mark.parametrize("subsystem", SUBSYSTEMS)
    def test_empty_denominators_read_zero(self, subsystem):
        snapshot = SubsystemTelemetry(subsystem).snapshot()
        assert {name: value for name, value in snapshot.items()
                if name not in ("counters", "stages")} == \
            ORACLES[subsystem](defaultdict(int))


class TestSharedRegistry:
    def test_subsystems_aggregate_into_one_registry(self):
        registry = MetricsRegistry()
        serving = SubsystemTelemetry("serving", registry=registry)
        ingest = SubsystemTelemetry("ingest", registry=registry)
        run = SubsystemTelemetry("resilience", registry=registry)
        serving.count("queries", 5)
        ingest.count("chunks", 3)
        run.count("retries", 1)
        names = set(registry.snapshot()["counters"])
        assert names == {
            "repro_serving_queries_total",
            "repro_ingest_chunks_total",
            "repro_resilience_retries_total",
        }

    def test_namespaces_do_not_collide(self):
        registry = MetricsRegistry()
        serving = SubsystemTelemetry("serving", registry=registry)
        ingest = SubsystemTelemetry("ingest", registry=registry)
        serving.count("errors", 2)
        ingest.count("errors", 5)
        assert serving.counter("errors") == 2
        assert ingest.counter("errors") == 5

    def test_private_registries_by_default(self):
        a = SubsystemTelemetry("serving")
        b = SubsystemTelemetry("serving")
        a.count("queries")
        assert b.counter("queries") == 0
        assert a.registry is not b.registry

    def test_base_class_namespace(self):
        telemetry = SubsystemTelemetry("repro")
        assert telemetry.counter_metric_name("x") == "repro_repro_x_total"
