"""One telemetry type for every plane, over the shared registry.

:class:`SubsystemTelemetry` keeps short-named counters and per-stage
histograms in a :class:`~repro.observability.metrics.MetricsRegistry`
under the ``repro_<subsystem>_*`` naming scheme, so one registry can
aggregate serving, ingest, training and governance metrics and export
them together. What differs between planes is data, not code:
:data:`DERIVED` names each subsystem's derived values, which
:meth:`SubsystemTelemetry.snapshot` computes from one read of the
counters and :meth:`SubsystemTelemetry.render` prints.
"""

from __future__ import annotations

import threading
from typing import Dict, Optional, Tuple

from repro.observability.metrics import MetricsRegistry

__all__ = ["SubsystemTelemetry"]

# The total faults observed across kinds: every ``fault_*`` counter.
_FAULT_COUNT = ("fault_count", "fault_", None)

# Derived values per subsystem, as ``(name, numerator, denominators)``:
# the numerator counter over the sum of the denominator counters, 0.0
# when that sum is 0. ``denominators`` None instead sums every counter
# whose name starts with ``numerator``.
DERIVED: Dict[str, Tuple[Tuple[str, str, Optional[Tuple[str, ...]]], ...]] = {
    "serving": (
        ("cache_hit_rate", "cache_hits", ("cache_hits", "cache_misses")),
        ("mean_batch_size", "batched_queries", ("batches",)),
        # Candidate rows actually scanned vs. a full brute-force scan.
        ("scan_fraction", "candidates_scanned", ("brute_equivalent_rows",)),
    ),
    "serving_cluster": (
        ("success_rate", "queries_ok", ("queries_ok", "queries_failed")),
        ("degraded_fraction", "degraded_answers", ("queries_ok",)),
        ("hedge_win_rate", "hedges_won", ("hedges_launched",)),
    ),
    "ingest": (
        ("quarantine_rate", "records_quarantined",
         ("records_accepted", "records_quarantined")),
        ("mean_chunk_records", "chunk_records", ("chunks",)),
    ),
    "governance": (
        ("refusal_rate", "verifications_refused",
         ("verifications", "verifications_refused")),
    ),
    "resilience": (_FAULT_COUNT,),
    "distributed": (_FAULT_COUNT,),
}


def _sanitize(name: str) -> str:
    return name.replace("-", "_").replace("/", "_").replace(".", "_")


def _derive(counters: Dict[str, int], numerator: str,
            denominators: Optional[Tuple[str, ...]]):
    if denominators is None:
        return sum(value for name, value in counters.items()
                   if name.startswith(numerator))
    total = sum(counters.get(name, 0) for name in denominators)
    return counters.get(numerator, 0) / total if total else 0.0


class SubsystemTelemetry:
    """Counters + per-stage latency for one subsystem over a registry.

    ``subsystem`` is the metric-name namespace and picks the plane's
    :data:`DERIVED` entries. Passing an existing ``registry`` shares one
    export surface across subsystems; by default each instance gets a
    private registry.
    """

    def __init__(self, subsystem: str,
                 registry: Optional[MetricsRegistry] = None) -> None:
        self.subsystem = subsystem
        self.registry = registry if registry is not None else MetricsRegistry()
        self._names_lock = threading.Lock()
        self._counter_names: Dict[str, str] = {}
        self._stage_names: Dict[str, str] = {}
        # Instrument caches: the write hot path must not take the
        # registry-wide lock per call — with several subsystems sharing
        # one registry (e.g. N serving replicas exporting together) that
        # lock becomes a cross-thread contention point. Plain dicts are
        # safe here: reads/writes are atomic under the GIL and the worst
        # race re-fetches an instrument from the (locking) registry.
        self._counter_cache: Dict[str, object] = {}
        self._stage_cache: Dict[str, object] = {}

    # -- name mapping (short name <-> registry metric name) -------------------

    def counter_metric_name(self, name: str) -> str:
        return f"repro_{self.subsystem}_{_sanitize(name)}_total"

    def stage_metric_name(self, stage: str) -> str:
        # Latency stages carry the _seconds unit; dimensionless stages
        # (queue occupancy observed in entries, not time) stay unitless.
        unit = "" if stage.endswith("occupancy") else "_seconds"
        return f"repro_{self.subsystem}_stage_{_sanitize(stage)}{unit}"

    # -- the write/read surface ------------------------------------------------

    def _counter_instrument(self, name: str):
        instrument = self._counter_cache.get(name)
        if instrument is None:
            metric = self.counter_metric_name(name)
            with self._names_lock:
                self._counter_names.setdefault(name, metric)
            instrument = self.registry.counter(metric)
            self._counter_cache[name] = instrument
        return instrument

    def _stage_instrument(self, stage: str):
        instrument = self._stage_cache.get(stage)
        if instrument is None:
            metric = self.stage_metric_name(stage)
            with self._names_lock:
                self._stage_names.setdefault(stage, metric)
            instrument = self.registry.histogram(metric)
            self._stage_cache[stage] = instrument
        return instrument

    def count(self, name: str, n: int = 1) -> None:
        self._counter_instrument(name).inc(n)

    def observe(self, stage: str, value: float) -> None:
        self._stage_instrument(stage).observe(value)

    def observe_many(self, stage: str, values) -> None:
        self._stage_instrument(stage).observe_many(values)

    def counter(self, name: str) -> int:
        with self._names_lock:
            metric = self._counter_names.get(name)
        if metric is None:
            return 0
        return self.registry.counter(metric).value

    # -- snapshot and render ---------------------------------------------------

    def snapshot(self) -> Dict[str, object]:
        """Short-named counters, one ``Histogram.as_dict()`` per stage (a
        single summary each, so no stage tears), and the derived values."""
        with self._names_lock:
            counter_names = dict(self._counter_names)
            stage_names = dict(self._stage_names)
        counters = {
            short: self.registry.counter(metric).value
            for short, metric in counter_names.items()
        }
        stages = {
            short: self.registry.histogram(metric).as_dict()
            for short, metric in stage_names.items()
        }
        snapshot: Dict[str, object] = {"counters": counters, "stages": stages}
        for name, numerator, denominators in DERIVED.get(self.subsystem, ()):
            snapshot[name] = _derive(counters, numerator, denominators)
        return snapshot

    def render(self) -> str:
        snapshot = self.snapshot()
        counters = snapshot["counters"]
        lines = [f"{self.subsystem} telemetry"]
        for name in sorted(counters):
            lines.append(f"  {name:<26} {counters[name]:>10}")
        for name, _, _ in DERIVED.get(self.subsystem, ()):
            value = snapshot[name]
            spec = ">10.4f" if isinstance(value, float) else ">10"
            lines.append(f"  {name:<26} {value:{spec}}")
        stages = snapshot["stages"]
        for name in sorted(stages):
            stage = stages[name]
            if name.endswith("occupancy"):
                lines.append(
                    f"  stage {name:<18} n={stage['count']:<7} "
                    f"mean={stage['mean']:8.1f}   max={stage['max']:8.1f}"
                )
            else:
                lines.append(
                    f"  stage {name:<18} n={stage['count']:<7} "
                    f"mean={stage['mean'] * 1e3:8.3f}ms "
                    f"p95={stage['p95'] * 1e3:8.3f}ms "
                    f"max={stage['max'] * 1e3:8.3f}ms"
                )
        return "\n".join(lines)
