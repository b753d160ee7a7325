"""The shared metrics substrate (counters, gauges, histograms).

Every subsystem used to carry its own copy-pasted telemetry class with
mean/max-only latency tracking. :class:`MetricsRegistry` replaces those
with one thread-safe registry of named instruments:

* **counters** — monotonically increasing totals (queries served, bytes
  paged, faults observed);
* **gauges** — point-in-time values (EPC resident bytes, queue depth);
* **histograms** — latency/size distributions over *fixed log-spaced
  buckets*, so p50/p95/p99 are available without storing samples. Exact
  count/sum/min/max ride along, so means stay exact — only the
  percentiles are bucket-quantized.

Two export surfaces: :meth:`MetricsRegistry.render_prometheus` produces
the Prometheus text exposition format (``name{le="..."}`` bucket series
for histograms) and :meth:`MetricsRegistry.snapshot` a plain JSON-able
dict. :func:`parse_prometheus` round-trips the text format for smoke
tests and the CLI.

Metric naming scheme (enforced): ``repro_<subsystem>_<what>[_unit]``,
counters end in ``_total``, latency histograms in ``_seconds``. Names
must match ``[a-zA-Z_][a-zA-Z0-9_]*``.
"""

from __future__ import annotations

import math
import re
import threading
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import ConfigurationError

__all__ = ["Counter", "Gauge", "Histogram", "MetricsRegistry",
           "default_latency_buckets", "parse_prometheus"]

_NAME_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")


def default_latency_buckets() -> Tuple[float, ...]:
    """Fixed log-spaced bucket bounds: 4 per decade, 100 ns to 1000 s.

    The ratio between adjacent bounds is ``10**0.25`` (~1.78), so a
    bucket-interpolated percentile is always within one such factor of
    the exact sample percentile — tight enough to tell a 1 ms stage from
    a 2 ms one, which is the resolution the paper's overhead figures
    need.
    """
    return tuple(10.0 ** (exp / 4.0) for exp in range(-28, 13))


class Counter:
    """A monotonically increasing total."""

    __slots__ = ("name", "_lock", "_value")

    def __init__(self, name: str) -> None:
        self.name = name
        self._lock = threading.Lock()
        self._value = 0

    def inc(self, n: int = 1) -> None:
        with self._lock:
            self._value += n

    @property
    def value(self) -> int:
        with self._lock:
            return self._value


class Gauge:
    """A point-in-time value that can move both ways."""

    __slots__ = ("name", "_lock", "_value")

    def __init__(self, name: str) -> None:
        self.name = name
        self._lock = threading.Lock()
        self._value = 0.0

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def add(self, delta: float) -> None:
        with self._lock:
            self._value += float(delta)

    @property
    def value(self) -> float:
        with self._lock:
            return self._value


class Histogram:
    """Fixed-bucket distribution with exact count/sum/min/max.

    Bucket counts are cumulative-on-read (Prometheus ``le`` semantics);
    internally each slot counts observations landing in
    ``(bounds[i-1], bounds[i]]``, with a final overflow slot above the
    last bound.
    """

    __slots__ = ("name", "_lock", "_bounds", "_counts", "_count", "_sum",
                 "_min", "_max")

    def __init__(self, name: str,
                 buckets: Optional[Sequence[float]] = None) -> None:
        self.name = name
        bounds = tuple(buckets) if buckets is not None else default_latency_buckets()
        if not bounds or list(bounds) != sorted(bounds):
            raise ConfigurationError(
                f"histogram {name!r} buckets must be a sorted non-empty sequence"
            )
        self._lock = threading.Lock()
        self._bounds = bounds
        self._counts = [0] * (len(bounds) + 1)
        self._count = 0
        self._sum = 0.0
        self._min = math.inf
        self._max = -math.inf

    @property
    def bounds(self) -> Tuple[float, ...]:
        return self._bounds

    def _slot(self, value: float) -> int:
        lo, hi = 0, len(self._bounds)
        while lo < hi:
            mid = (lo + hi) // 2
            if value <= self._bounds[mid]:
                hi = mid
            else:
                lo = mid + 1
        return lo

    def observe(self, value: float) -> None:
        value = float(value)
        slot = self._slot(value)
        with self._lock:
            self._counts[slot] += 1
            self._count += 1
            self._sum += value
            if value < self._min:
                self._min = value
            if value > self._max:
                self._max = value

    def observe_many(self, values: Sequence[float]) -> None:
        """Record a batch under one lock acquisition (hot-path helper)."""
        if not values:
            return
        floats = [float(v) for v in values]
        slots = [self._slot(v) for v in floats]
        with self._lock:
            for slot in slots:
                self._counts[slot] += 1
            self._count += len(floats)
            self._sum += sum(floats)
            lo, hi = min(floats), max(floats)
            if lo < self._min:
                self._min = lo
            if hi > self._max:
                self._max = hi

    # -- derived views -------------------------------------------------------

    def summary(self) -> "Histogram":
        """A detached copy of every field, taken under **one** acquisition.

        Each view below is consistent on its own; a reader that combines
        two of them (a count next to a sum, a percentile next to a count)
        must read both off one summary, or a concurrent ``observe`` can
        land between the reads. Nothing writes to the copy.
        """
        copy = Histogram(self.name, self._bounds)
        with self._lock:
            copy._counts = list(self._counts)
            copy._count, copy._sum = self._count, self._sum
            copy._min, copy._max = self._min, self._max
        return copy

    @property
    def count(self) -> int:
        with self._lock:
            return self._count

    @property
    def sum(self) -> float:
        with self._lock:
            return self._sum

    @property
    def mean(self) -> float:
        with self._lock:
            return self._sum / self._count if self._count else 0.0

    @property
    def minimum(self) -> float:
        with self._lock:
            return self._min if self._count else 0.0

    @property
    def maximum(self) -> float:
        with self._lock:
            return self._max if self._count else 0.0

    def percentile(self, q: float) -> float:
        """Bucket-interpolated ``q``-th percentile (``0 < q <= 100``).

        The answer is linearly interpolated inside the bucket holding the
        ``q``-th sample, clamped to the exact observed min/max, so it is
        never off by more than one bucket width.
        """
        if not 0.0 < q <= 100.0:
            raise ConfigurationError(f"percentile q must be in (0, 100], got {q}")
        with self._lock:
            if self._count == 0:
                return 0.0
            target = q / 100.0 * self._count
            cumulative = 0
            for slot, bucket_count in enumerate(self._counts):
                cumulative += bucket_count
                if cumulative >= target:
                    if slot == 0:
                        lower = self._min
                    else:
                        lower = self._bounds[slot - 1]
                    if slot < len(self._bounds):
                        upper = self._bounds[slot]
                    else:
                        upper = self._max
                    fraction = (
                        (target - (cumulative - bucket_count)) / bucket_count
                    )
                    estimate = lower + (upper - lower) * fraction
                    return min(max(estimate, self._min), self._max)
            return self._max

    def cumulative_buckets(self) -> List[Tuple[float, int]]:
        """``(le, cumulative_count)`` pairs, ending with ``(inf, count)``."""
        with self._lock:
            out: List[Tuple[float, int]] = []
            running = 0
            for bound, bucket_count in zip(self._bounds, self._counts):
                running += bucket_count
                out.append((bound, running))
            out.append((math.inf, self._count))
            return out

    def as_dict(self) -> Dict[str, float]:
        frozen = self.summary()
        return {
            "count": frozen.count,
            "sum": frozen.sum,
            "mean": frozen.mean,
            "min": frozen.minimum,
            "max": frozen.maximum,
            "p50": frozen.percentile(50),
            "p95": frozen.percentile(95),
            "p99": frozen.percentile(99),
        }


class MetricsRegistry:
    """Thread-safe name -> instrument registry shared across subsystems.

    Instruments are created on first use and re-registering a name with a
    different instrument type raises — one name, one meaning, for the
    lifetime of the registry.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}

    def _check_name(self, name: str) -> None:
        if not _NAME_RE.match(name):
            raise ConfigurationError(f"invalid metric name {name!r}")
        taken = (name in self._counters, name in self._gauges,
                 name in self._histograms)
        if sum(taken) > 1:  # pragma: no cover — internal invariant
            raise ConfigurationError(f"metric {name!r} registered twice")

    def _conflict(self, name: str, kind: str) -> ConfigurationError:
        return ConfigurationError(
            f"metric {name!r} already registered as a different type "
            f"(wanted {kind})"
        )

    # -- instrument accessors ----------------------------------------------------

    def counter(self, name: str) -> Counter:
        with self._lock:
            instrument = self._counters.get(name)
            if instrument is None:
                self._check_name(name)
                if name in self._gauges or name in self._histograms:
                    raise self._conflict(name, "counter")
                instrument = self._counters[name] = Counter(name)
            return instrument

    def gauge(self, name: str) -> Gauge:
        with self._lock:
            instrument = self._gauges.get(name)
            if instrument is None:
                self._check_name(name)
                if name in self._counters or name in self._histograms:
                    raise self._conflict(name, "gauge")
                instrument = self._gauges[name] = Gauge(name)
            return instrument

    def histogram(self, name: str,
                  buckets: Optional[Sequence[float]] = None) -> Histogram:
        with self._lock:
            instrument = self._histograms.get(name)
            if instrument is None:
                self._check_name(name)
                if name in self._counters or name in self._gauges:
                    raise self._conflict(name, "histogram")
                instrument = self._histograms[name] = Histogram(name, buckets)
            return instrument

    # -- convenience write paths ---------------------------------------------------

    def inc(self, name: str, n: int = 1) -> None:
        self.counter(name).inc(n)

    def set_gauge(self, name: str, value: float) -> None:
        self.gauge(name).set(value)

    def observe(self, name: str, value: float) -> None:
        self.histogram(name).observe(value)

    def observe_many(self, name: str, values: Sequence[float]) -> None:
        self.histogram(name).observe_many(values)

    # -- export ----------------------------------------------------------------------

    def snapshot(self) -> Dict[str, Dict[str, object]]:
        """A JSON-able snapshot of every registered instrument."""
        with self._lock:
            counters = dict(self._counters)
            gauges = dict(self._gauges)
            histograms = dict(self._histograms)
        return {
            "counters": {name: c.value for name, c in sorted(counters.items())},
            "gauges": {name: g.value for name, g in sorted(gauges.items())},
            "histograms": {name: h.as_dict()
                           for name, h in sorted(histograms.items())},
        }

    def render_prometheus(self) -> str:
        """Prometheus text exposition over every registered instrument."""
        with self._lock:
            counters = sorted(self._counters.items())
            gauges = sorted(self._gauges.items())
            histograms = sorted(self._histograms.items())
        lines: List[str] = []
        for name, counter in counters:
            lines.append(f"# TYPE {name} counter")
            lines.append(f"{name} {counter.value}")
        for name, gauge in gauges:
            lines.append(f"# TYPE {name} gauge")
            lines.append(f"{name} {_format_value(gauge.value)}")
        for name, histogram in histograms:
            lines.append(f"# TYPE {name} histogram")
            # One summary per histogram: the bucket series, _sum, _count
            # and the quantiles of one scrape describe the same samples.
            frozen = histogram.summary()
            for le, cumulative in frozen.cumulative_buckets():
                le_text = "+Inf" if math.isinf(le) else _format_value(le)
                lines.append(f'{name}_bucket{{le="{le_text}"}} {cumulative}')
            lines.append(f"{name}_sum {_format_value(frozen.sum)}")
            lines.append(f"{name}_count {frozen.count}")
            for q in (50, 95, 99):
                lines.append(
                    f'{name}{{quantile="0.{q}"}} '
                    f"{_format_value(frozen.percentile(q))}"
                )
        return "\n".join(lines) + "\n"


def _format_value(value: float) -> str:
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


_SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_][a-zA-Z0-9_]*)"
    r"(?:\{(?P<labels>[^}]*)\})?\s+(?P<value>\S+)$"
)


def parse_prometheus(text: str) -> Dict[str, Dict[str, object]]:
    """Parse a text exposition back into ``{metric: {type, samples}}``.

    ``samples`` maps a label string (``""`` for the bare sample) to the
    parsed float value. Used by the smoke tests and the CLI to prove the
    export is well-formed; raises ``ValueError`` on any malformed line.
    """
    metrics: Dict[str, Dict[str, object]] = {}
    declared: Dict[str, str] = {}
    for raw in text.splitlines():
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            parts = line.split()
            if len(parts) >= 4 and parts[1] == "TYPE":
                declared[parts[2]] = parts[3]
            continue
        match = _SAMPLE_RE.match(line)
        if match is None:
            raise ValueError(f"malformed exposition line: {raw!r}")
        name = match.group("name")
        base = name
        for suffix in ("_bucket", "_sum", "_count"):
            if name.endswith(suffix) and name[: -len(suffix)] in declared:
                base = name[: -len(suffix)]
                break
        entry = metrics.setdefault(
            base, {"type": declared.get(base, "untyped"), "samples": {}}
        )
        value_text = match.group("value")
        value = math.inf if value_text == "+Inf" else float(value_text)
        key = name[len(base):] or ""
        labels = match.group("labels") or ""
        entry["samples"][f"{key}{{{labels}}}" if labels else key or ""] = value
    return metrics
