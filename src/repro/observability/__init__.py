"""Unified observability: metrics, tracing, and telemetry adapters.

The shared substrate under every subsystem's telemetry:

* :mod:`repro.observability.metrics` — thread-safe
  :class:`MetricsRegistry` of counters, gauges, and log-bucket
  histograms (p50/p95/p99), with Prometheus text exposition and JSON
  snapshots;
* :mod:`repro.observability.tracing` — :class:`Tracer` producing nested
  spans with explicit enclave-boundary kinds (``enclave`` /
  ``untrusted`` / ``boundary-crossing``) on an injectable clock;
* :mod:`repro.observability.adapter` — :class:`SubsystemTelemetry`,
  the one telemetry type every plane constructs with its subsystem
  name (``SubsystemTelemetry("serving")``, ``"ingest"``, ...); each
  plane's derived rates are rows of the adapter's ``DERIVED`` table,
  not code.

Metric naming scheme: ``repro_<subsystem>_<what>[_unit]`` — counters end
``_total``, latency histograms ``_seconds``, stage histograms are
``repro_<subsystem>_stage_<stage>_seconds``.
"""

from repro.observability.adapter import SubsystemTelemetry
from repro.observability.metrics import (Counter, Gauge, Histogram,
                                         MetricsRegistry,
                                         default_latency_buckets,
                                         parse_prometheus)
from repro.observability.tracing import SPAN_KINDS, Span, Tracer

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "default_latency_buckets",
    "parse_prometheus",
    "SPAN_KINDS",
    "Span",
    "Tracer",
    "SubsystemTelemetry",
]
