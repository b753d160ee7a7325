"""Nested spans with explicit enclave-boundary attribution.

The paper's performance story (Figs. 6 and the Table I/II overhead
discussion) is about *where* a partitioned training step spends its
time: FrontNet FLOPs inside the enclave, BackNet FLOPs outside, and the
IR/delta copies crossing the boundary. A :class:`Tracer` records that
decomposition as a tree of :class:`Span` objects, each tagged with a
span kind:

* ``enclave`` — trusted execution inside the TEE;
* ``untrusted`` — execution outside the enclave;
* ``boundary-crossing`` — ECALL/OCALL transitions and IR/delta copies;
* ``internal`` — orchestration that belongs to neither side.

The clock is injectable: pass ``clock=lambda: platform.clock.now`` to
measure *simulated* seconds (deterministic, testable), or leave the
default ``time.perf_counter`` for wall time. Span entry/exit is
re-entrant per thread (a :class:`threading.local` stack), so worker
pools can trace concurrently; finished root spans accumulate on the
tracer for rendering/export.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Callable, Dict, List, Optional

from repro.errors import ConfigurationError

__all__ = ["SPAN_KINDS", "Span", "Tracer"]

SPAN_KINDS = ("internal", "enclave", "untrusted", "boundary-crossing")


class Span:
    """One timed region; closed spans know their duration and children."""

    __slots__ = ("name", "kind", "start", "end", "children", "attributes")

    def __init__(self, name: str, kind: str,
                 start: float, attributes: Dict[str, Any]) -> None:
        self.name = name
        self.kind = kind
        self.start = start
        self.end: Optional[float] = None
        self.children: List["Span"] = []
        self.attributes = attributes

    @property
    def duration(self) -> float:
        if self.end is None:
            return 0.0
        return self.end - self.start

    @property
    def self_time(self) -> float:
        """Duration minus time attributed to child spans."""
        return self.duration - sum(child.duration for child in self.children)

    def to_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {
            "name": self.name,
            "kind": self.kind,
            "start": self.start,
            "duration": self.duration,
        }
        if self.attributes:
            out["attributes"] = dict(self.attributes)
        if self.children:
            out["children"] = [child.to_dict() for child in self.children]
        return out


class _SpanContext:
    __slots__ = ("_tracer", "_span")

    def __init__(self, tracer: "Tracer", span: Span) -> None:
        self._tracer = tracer
        self._span = span

    def __enter__(self) -> Span:
        return self._span

    def __exit__(self, *exc_info) -> None:
        self._tracer._finish(self._span)


class Tracer:
    """Collects span trees; one instance per traced run.

    Spans nest by lexical scope::

        with tracer.span("train-batch"):
            with tracer.span("frontnet.forward", kind="enclave"):
                ...

    Nesting is tracked per thread, so concurrently traced worker threads
    produce independent root spans rather than interleaving.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self._local = threading.local()
        self._lock = threading.Lock()
        self.roots: List[Span] = []

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name: str, kind: str = "internal",
             **attributes: Any) -> _SpanContext:
        """Open a span; use as a context manager."""
        if kind not in SPAN_KINDS:
            raise ConfigurationError(
                f"unknown span kind {kind!r}; expected one of {SPAN_KINDS}"
            )
        span = Span(name, kind, self.clock(), attributes)
        stack = self._stack()
        if stack:
            stack[-1].children.append(span)
        stack.append(span)
        return _SpanContext(self, span)

    def _finish(self, span: Span) -> None:
        span.end = self.clock()
        stack = self._stack()
        # Close any dangling descendants first (exception unwound past them).
        while stack and stack[-1] is not span:
            dangling = stack.pop()
            if dangling.end is None:
                dangling.end = span.end
        if stack and stack[-1] is span:
            stack.pop()
        if not stack:
            with self._lock:
                self.roots.append(span)

    # -- aggregation ---------------------------------------------------------

    def kind_totals(self) -> Dict[str, float]:
        """Self-time attributed to each span kind across all root trees.

        Self time (not duration) is summed, so a parent never double
        counts its children and the totals partition the traced time:
        ``sum(kind_totals().values()) == sum(root durations)``.
        """
        totals = {kind: 0.0 for kind in SPAN_KINDS}

        def visit(span: Span) -> None:
            totals[span.kind] += span.self_time
            for child in span.children:
                visit(child)

        with self._lock:
            for root in self.roots:
                visit(root)
        return totals

    def to_dict(self) -> List[Dict[str, Any]]:
        with self._lock:
            return [root.to_dict() for root in self.roots]

    def render(self, time_unit: str = "s") -> str:
        """Human-readable span tree with per-kind attribution totals."""
        lines: List[str] = ["trace"]

        def visit(span: Span, depth: int) -> None:
            indent = "  " * (depth + 1)
            attrs = ""
            if span.attributes:
                attrs = "  " + " ".join(
                    f"{key}={value}" for key, value in sorted(span.attributes.items())
                )
            lines.append(
                f"{indent}{span.name:<{max(1, 30 - 2 * depth)}} "
                f"[{span.kind}] {span.duration:.6f}{time_unit}{attrs}"
            )
            for child in span.children:
                visit(child, depth + 1)

        with self._lock:
            roots = list(self.roots)
        for root in roots:
            visit(root, 0)
        totals = self.kind_totals()
        lines.append("  -- attribution (self time) --")
        for kind in SPAN_KINDS:
            if totals[kind] > 0.0:
                lines.append(f"  {kind:<20} {totals[kind]:.6f}{time_unit}")
        return "\n".join(lines)
