"""Legacy telemetry API re-implemented over the shared registry.

``ServingTelemetry``, ``IngestTelemetry``, and ``RunTelemetry`` each
used to carry a private copy of the same counters + ``StageStats``
implementation. :class:`SubsystemTelemetry` is the one shared base: the
legacy surface (``count``/``observe``/``counter``/``stage``/
``snapshot``/``render``) is preserved verbatim, but every write lands in
a :class:`~repro.observability.metrics.MetricsRegistry` under the
``repro_<subsystem>_*`` naming scheme — so one registry can aggregate
serving, ingest, and training metrics and export them together.

:class:`StageStats` is now an *immutable point-in-time snapshot* (the
old mutable live object could be observed mid-update by a concurrent
reader and yield torn count/total pairs); it keeps the legacy
``count``/``total``/``maximum``/``mean``/``as_dict`` surface and gains
bucket-derived p50/p95/p99.
"""

from __future__ import annotations

import threading
from typing import Dict, Optional

from repro.observability.metrics import Histogram, MetricsRegistry

__all__ = ["StageStats", "SubsystemTelemetry"]


class StageStats:
    """Immutable latency statistics for one pipeline stage.

    A frozen copy taken from the backing histogram under its lock; safe
    to read from any thread, impossible to tear.
    """

    __slots__ = ("count", "total", "maximum", "p50", "p95", "p99")

    def __init__(self, count: int, total: float, maximum: float,
                 p50: float = 0.0, p95: float = 0.0, p99: float = 0.0) -> None:
        object.__setattr__(self, "count", count)
        object.__setattr__(self, "total", total)
        object.__setattr__(self, "maximum", maximum)
        object.__setattr__(self, "p50", p50)
        object.__setattr__(self, "p95", p95)
        object.__setattr__(self, "p99", p99)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("StageStats snapshots are immutable")

    @classmethod
    def from_histogram(cls, histogram: Histogram) -> "StageStats":
        summary = histogram.summary()
        return cls(count=summary.count, total=summary.sum,
                   maximum=summary.maximum, p50=summary.percentile(50),
                   p95=summary.percentile(95), p99=summary.percentile(99))

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def as_dict(self) -> Dict[str, float]:
        return {"count": self.count, "mean": self.mean,
                "max": self.maximum, "total": self.total,
                "p50": self.p50, "p95": self.p95, "p99": self.p99}


def _sanitize(name: str) -> str:
    return name.replace("-", "_").replace("/", "_").replace(".", "_")


class SubsystemTelemetry:
    """Shared counters + per-stage latency over a metrics registry.

    Subclasses set :attr:`subsystem` (the metric-name namespace) and add
    their derived rates and ``render``. Passing an existing ``registry``
    shares one export surface across subsystems; by default each
    instance gets a private registry, matching the legacy behaviour of
    independent telemetry objects.
    """

    subsystem = "repro"

    def __init__(self, registry: Optional[MetricsRegistry] = None) -> None:
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

    # -- name mapping (legacy short name <-> registry metric name) ---------------

    def counter_metric_name(self, name: str) -> str:
        return f"repro_{self.subsystem}_{_sanitize(name)}_total"

    def stage_metric_name(self, stage: str) -> str:
        # Latency stages carry the _seconds unit; dimensionless stages
        # (queue occupancy observed in entries, not time) stay unitless.
        unit = "" if stage.endswith("occupancy") else "_seconds"
        return f"repro_{self.subsystem}_stage_{_sanitize(stage)}{unit}"

    # -- the legacy write/read surface -------------------------------------------

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

    def stage(self, name: str) -> Optional[StageStats]:
        """An immutable snapshot of one stage's statistics, or ``None``."""
        with self._names_lock:
            metric = self._stage_names.get(name)
        if metric is None:
            return None
        return StageStats.from_histogram(self.registry.histogram(metric))

    # -- snapshots ----------------------------------------------------------------

    def snapshot(self) -> Dict[str, object]:
        """Legacy-shaped snapshot: short-named counters and stage dicts."""
        with self._names_lock:
            counter_names = dict(self._counter_names)
            stage_names = dict(self._stage_names)
        counters = {
            short: self.registry.counter(metric).value
            for short, metric in counter_names.items()
        }
        stages = {
            short: StageStats.from_histogram(
                self.registry.histogram(metric)
            ).as_dict()
            for short, metric in stage_names.items()
        }
        return {"counters": counters, "stages": stages}

    def _render_stage_lines(self, stages: Dict[str, Dict[str, float]],
                            width: int = 16) -> list:
        lines = []
        for name in sorted(stages):
            stage = stages[name]
            if name.endswith("occupancy"):
                lines.append(
                    f"  stage {name:<{width}} n={stage['count']:<7} "
                    f"mean={stage['mean']:8.1f}   max={stage['max']:8.1f}"
                )
            else:
                lines.append(
                    f"  stage {name:<{width}} n={stage['count']:<7} "
                    f"mean={stage['mean'] * 1e3:8.3f}ms "
                    f"p95={stage['p95'] * 1e3:8.3f}ms "
                    f"max={stage['max'] * 1e3:8.3f}ms"
                )
        return lines
