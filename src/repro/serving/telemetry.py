"""Per-stage counters for the serving plane.

A serving system is only operable if you can see it: how many queries
arrived, how many the cache absorbed, how many the backpressure bound
rejected, how big the coalesced batches run, how long each stage takes
(now with p50/p95/p99, not just mean/max), and what fraction of each
shard the ANN index actually scanned.

:class:`ServingTelemetry` is a thin adapter over the shared
:class:`~repro.observability.MetricsRegistry` (metric namespace
``repro_serving_*``); pass an existing registry to aggregate serving
metrics with other subsystems into one export. :meth:`snapshot` returns
a plain dict, :meth:`render` a human-readable table for the CLI, and
:meth:`ServingTelemetry.stage` an *immutable* statistics snapshot —
never the live object, so readers can no longer race worker
``observe()`` calls into torn count/total pairs.
"""

from __future__ import annotations

from typing import Dict

from repro.observability.adapter import StageStats, SubsystemTelemetry

__all__ = ["StageStats", "ServingTelemetry", "ClusterTelemetry"]


class ServingTelemetry(SubsystemTelemetry):
    """Counters + per-stage latency for the query engine."""

    subsystem = "serving"

    # -- derived rates -----------------------------------------------------------

    @property
    def cache_hit_rate(self) -> float:
        hits = self.counter("cache_hits")
        misses = self.counter("cache_misses")
        total = hits + misses
        return hits / total if total else 0.0

    @property
    def mean_batch_size(self) -> float:
        batches = self.counter("batches")
        batched = self.counter("batched_queries")
        return batched / batches if batches else 0.0

    @property
    def scan_fraction(self) -> float:
        """Candidate rows actually scanned vs. a full brute-force scan."""
        scanned = self.counter("candidates_scanned")
        full = self.counter("brute_equivalent_rows")
        return scanned / full if full else 0.0

    def snapshot(self) -> Dict[str, object]:
        snapshot = super().snapshot()
        snapshot["cache_hit_rate"] = self.cache_hit_rate
        snapshot["mean_batch_size"] = self.mean_batch_size
        snapshot["scan_fraction"] = self.scan_fraction
        return snapshot

    def render(self) -> str:
        snapshot = self.snapshot()
        lines = ["serving telemetry"]
        for name in sorted(snapshot["counters"]):
            lines.append(f"  {name:<24} {snapshot['counters'][name]:>10}")
        lines.append(f"  {'cache_hit_rate':<24} {snapshot['cache_hit_rate']:>10.2%}")
        lines.append(f"  {'mean_batch_size':<24} {snapshot['mean_batch_size']:>10.2f}")
        lines.append(f"  {'scan_fraction':<24} {snapshot['scan_fraction']:>10.2%}")
        lines.extend(self._render_stage_lines(snapshot["stages"], width=16))
        return "\n".join(lines)


class ClusterTelemetry(SubsystemTelemetry):
    """Counters + stage latency for the replicated serving cluster.

    Metric namespace ``repro_serving_cluster_*``. Counters cover every
    routing outcome the availability story depends on: successes and
    failures, retries, hedges (launched and won), failovers, degraded
    answers, shed load, breaker trips, evictions, revivals, hit
    verifications (with failures), and — since the incremental-index
    work — benign-growth handling: ``benign_stale``, ``replica_refreshes``,
    ``refresh_failures``, and ``snapshot_verifications``/
    ``snapshot_failures`` for the cached per-answer lineage walks. Pass the cluster's registry into each
    replica's :class:`ServingTelemetry` to export one combined surface.
    """

    subsystem = "serving_cluster"

    @property
    def success_rate(self) -> float:
        ok = self.counter("queries_ok")
        failed = self.counter("queries_failed")
        total = ok + failed
        return ok / total if total else 0.0

    @property
    def refresh_eviction_ratio(self) -> float:
        """Refreshes per eviction — the headline number for this PR's
        contract: benign growth should drive this toward infinity (all
        refreshes, no evictions); return 0.0 when neither happened."""
        refreshes = self.counter("replica_refreshes")
        evictions = self.counter("evictions")
        if not refreshes:
            return 0.0
        return refreshes / evictions if evictions else float("inf")

    @property
    def degraded_fraction(self) -> float:
        ok = self.counter("queries_ok")
        return self.counter("degraded_answers") / ok if ok else 0.0

    @property
    def hedge_win_rate(self) -> float:
        launched = self.counter("hedges_launched")
        return self.counter("hedges_won") / launched if launched else 0.0

    def snapshot(self) -> Dict[str, object]:
        snapshot = super().snapshot()
        snapshot["success_rate"] = self.success_rate
        snapshot["degraded_fraction"] = self.degraded_fraction
        snapshot["hedge_win_rate"] = self.hedge_win_rate
        snapshot["refresh_eviction_ratio"] = self.refresh_eviction_ratio
        return snapshot

    def render(self) -> str:
        snapshot = self.snapshot()
        lines = ["serving cluster telemetry"]
        for name in sorted(snapshot["counters"]):
            lines.append(f"  {name:<24} {snapshot['counters'][name]:>10}")
        lines.append(f"  {'success_rate':<24} {snapshot['success_rate']:>10.2%}")
        lines.append(
            f"  {'degraded_fraction':<24} {snapshot['degraded_fraction']:>10.2%}")
        lines.append(
            f"  {'hedge_win_rate':<24} {snapshot['hedge_win_rate']:>10.2%}")
        lines.extend(self._render_stage_lines(snapshot["stages"], width=16))
        return "\n".join(lines)
