"""Adapter tests: the legacy telemetry surface over the shared registry."""

import pytest

from repro.ingest.telemetry import IngestTelemetry
from repro.observability.adapter import StageStats, SubsystemTelemetry
from repro.observability.metrics import MetricsRegistry, parse_prometheus
from repro.resilience.telemetry import RunTelemetry
from repro.serving.telemetry import ServingTelemetry


class TestStageStats:
    def test_immutable(self):
        stats = StageStats(count=2, total=1.0, maximum=0.7)
        with pytest.raises(AttributeError):
            stats.count = 99

    def test_mean_and_as_dict(self):
        stats = StageStats(count=4, total=2.0, maximum=0.9,
                           p50=0.4, p95=0.8, p99=0.9)
        assert stats.mean == 0.5
        assert stats.as_dict() == {
            "count": 4, "mean": 0.5, "max": 0.9, "total": 2.0,
            "p50": 0.4, "p95": 0.8, "p99": 0.9,
        }

    def test_empty_mean(self):
        assert StageStats(count=0, total=0.0, maximum=0.0).mean == 0.0


class TestNameMapping:
    def test_counter_names_follow_scheme(self):
        telemetry = ServingTelemetry()
        assert telemetry.counter_metric_name("cache_hits") == \
            "repro_serving_cache_hits_total"
        assert telemetry.counter_metric_name("bad-name.x") == \
            "repro_serving_bad_name_x_total"

    def test_stage_names_carry_seconds_unit(self):
        telemetry = IngestTelemetry()
        assert telemetry.stage_metric_name("validate") == \
            "repro_ingest_stage_validate_seconds"

    def test_occupancy_stages_stay_unitless(self):
        telemetry = ServingTelemetry()
        assert telemetry.stage_metric_name("queue_occupancy") == \
            "repro_serving_stage_queue_occupancy"


class TestAdapterSurface:
    def test_counters_land_in_registry(self):
        registry = MetricsRegistry()
        telemetry = ServingTelemetry(registry=registry)
        telemetry.count("queries", 7)
        assert telemetry.counter("queries") == 7
        assert registry.counter("repro_serving_queries_total").value == 7

    def test_unknown_counter_and_stage(self):
        telemetry = ServingTelemetry()
        assert telemetry.counter("never_written") == 0
        assert telemetry.stage("never_observed") is None

    def test_negative_counts_supported(self):
        # quarantine_at_commit retroactively un-counts accepted records.
        telemetry = IngestTelemetry()
        telemetry.count("records_accepted", 10)
        telemetry.count("records_accepted", -1)
        assert telemetry.counter("records_accepted") == 9

    def test_stage_returns_point_in_time_copy(self):
        telemetry = ServingTelemetry()
        telemetry.observe("search", 0.010)
        first = telemetry.stage("search")
        telemetry.observe("search", 0.030)
        second = telemetry.stage("search")
        # Regression: stage() used to hand out the live mutable object, so
        # a reader's snapshot changed under it (and could tear mid-update).
        assert first.count == 1 and first.total == pytest.approx(0.010)
        assert second.count == 2 and second.total == pytest.approx(0.040)

    def test_concurrent_readers_never_tear(self):
        # Deterministic form of "a writer lands between two of the
        # reader's lock acquisitions": the histogram's lock is swapped
        # for a proxy that performs one observe() right after the
        # reader's first release. A reader that takes the lock once per
        # field pairs the old count with the new sum; a reader built on
        # Histogram.summary() has no second acquisition to interleave.
        telemetry = ServingTelemetry()
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
        stats = telemetry.stage("total")
        assert proxy.releases >= 2  # the reader's read + the writer
        assert stats.total == pytest.approx(stats.count * 0.002)
        assert stats.mean == pytest.approx(0.002)
        # Same rule for the Prometheus scrape: the bucket series, _sum
        # and _count of one histogram come from one summary.
        proxy.releases = 0
        rendered = parse_prometheus(telemetry.registry.render_prometheus())
        samples = rendered[histogram.name]["samples"]
        assert samples['_bucket{le="+Inf"}'] == samples["_count"]
        assert samples["_sum"] == pytest.approx(samples["_count"] * 0.002)

    def test_snapshot_parity_with_stage(self):
        telemetry = RunTelemetry()
        telemetry.count("retries", 2)
        telemetry.observe("checkpoint_save", 0.5)
        telemetry.observe("checkpoint_save", 1.5)
        snapshot = telemetry.snapshot()
        assert snapshot["counters"]["retries"] == 2
        stage = telemetry.stage("checkpoint_save")
        assert snapshot["stages"]["checkpoint_save"] == stage.as_dict()


class TestLegacyBehaviour:
    def test_serving_derived_rates(self):
        telemetry = ServingTelemetry()
        telemetry.count("queries", 10)
        telemetry.count("cache_hits", 4)
        telemetry.count("cache_misses", 6)
        telemetry.count("batches", 2)
        telemetry.count("batched_queries", 6)
        assert telemetry.cache_hit_rate == pytest.approx(0.4)
        assert telemetry.mean_batch_size == pytest.approx(3.0)

    def test_ingest_quarantine_rate(self):
        telemetry = IngestTelemetry()
        telemetry.count("records_accepted", 8)
        telemetry.count("records_quarantined", 2)
        assert telemetry.quarantine_rate == pytest.approx(0.2)

    def test_resilience_fault_count_sums_kinds(self):
        telemetry = RunTelemetry()
        telemetry.count("fault_enclave", 2)
        telemetry.count("fault_epc")
        telemetry.count("retries", 3)  # not a fault counter
        assert telemetry.fault_count == 3
        assert telemetry.snapshot()["fault_count"] == 3

    def test_render_is_textual(self):
        for telemetry, header in ((ServingTelemetry(), "serving telemetry"),
                                  (IngestTelemetry(), "ingest telemetry"),
                                  (RunTelemetry(), "resilience telemetry")):
            telemetry.count("events", 1)
            telemetry.observe("work", 0.001)
            text = telemetry.render()
            assert text.startswith(header)
            assert "events" in text and "stage work" in text


class TestSharedRegistry:
    def test_subsystems_aggregate_into_one_registry(self):
        registry = MetricsRegistry()
        serving = ServingTelemetry(registry=registry)
        ingest = IngestTelemetry(registry=registry)
        run = RunTelemetry(registry=registry)
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
        serving = ServingTelemetry(registry=registry)
        ingest = IngestTelemetry(registry=registry)
        serving.count("errors", 2)
        ingest.count("errors", 5)
        assert serving.counter("errors") == 2
        assert ingest.counter("errors") == 5

    def test_private_registries_by_default(self):
        a = ServingTelemetry()
        b = ServingTelemetry()
        a.count("queries")
        assert b.counter("queries") == 0
        assert a.registry is not b.registry

    def test_base_class_namespace(self):
        telemetry = SubsystemTelemetry()
        assert telemetry.counter_metric_name("x") == "repro_repro_x_total"
