"""Tracer tests: nesting, kinds, deterministic clock, attribution."""

import threading

import pytest

from repro.errors import ConfigurationError
from repro.observability.tracing import SPAN_KINDS, Span, Tracer


class SteppedClock:
    """A deterministic clock: advances only when the test says so."""

    def __init__(self) -> None:
        self.now = 0.0

    def advance(self, seconds: float) -> None:
        self.now += seconds

    def __call__(self) -> float:
        return self.now


class TestSpans:
    def test_nesting_by_lexical_scope(self):
        clock = SteppedClock()
        tracer = Tracer(clock=clock)
        with tracer.span("outer"):
            clock.advance(1.0)
            with tracer.span("inner", kind="enclave"):
                clock.advance(2.0)
            clock.advance(0.5)
        assert len(tracer.roots) == 1
        outer = tracer.roots[0]
        assert outer.name == "outer" and outer.duration == 3.5
        (inner,) = outer.children
        assert inner.kind == "enclave" and inner.duration == 2.0
        assert outer.self_time == pytest.approx(1.5)

    def test_unknown_kind_rejected(self):
        tracer = Tracer()
        with pytest.raises(ConfigurationError):
            tracer.span("x", kind="gpu")
        assert SPAN_KINDS == ("internal", "enclave", "untrusted",
                              "boundary-crossing")

    def test_attributes_recorded(self):
        tracer = Tracer(clock=SteppedClock())
        with tracer.span("transfer", kind="boundary-crossing", bytes=1024):
            pass
        assert tracer.roots[0].attributes == {"bytes": 1024}

    def test_sibling_spans(self):
        clock = SteppedClock()
        tracer = Tracer(clock=clock)
        with tracer.span("parent"):
            for name in ("a", "b"):
                with tracer.span(name):
                    clock.advance(1.0)
        assert [c.name for c in tracer.roots[0].children] == ["a", "b"]
        assert tracer.roots[0].self_time == 0.0

    def test_exception_unwinds_and_closes(self):
        clock = SteppedClock()
        tracer = Tracer(clock=clock)
        with pytest.raises(RuntimeError):
            with tracer.span("outer"):
                with tracer.span("inner"):
                    clock.advance(1.0)
                    raise RuntimeError("boom")
        # Both spans closed; the tree is complete despite the unwind.
        assert len(tracer.roots) == 1
        assert tracer.roots[0].end is not None
        assert tracer.roots[0].children[0].end is not None

    def test_to_dict_shape(self):
        clock = SteppedClock()
        tracer = Tracer(clock=clock)
        with tracer.span("epoch", epoch=0):
            with tracer.span("fwd", kind="enclave"):
                clock.advance(1.0)
        (root,) = tracer.to_dict()
        assert root["name"] == "epoch"
        assert root["attributes"] == {"epoch": 0}
        assert root["children"][0]["kind"] == "enclave"
        assert root["children"][0]["duration"] == 1.0

    def test_open_span_duration_is_zero(self):
        span = Span("open", "internal", 0.0, {})
        assert span.duration == 0.0


class TestAttribution:
    def test_kind_totals_partition_traced_time(self):
        clock = SteppedClock()
        tracer = Tracer(clock=clock)
        with tracer.span("batch"):
            with tracer.span("front", kind="enclave"):
                clock.advance(3.0)
            with tracer.span("ir", kind="boundary-crossing"):
                clock.advance(1.0)
            with tracer.span("back", kind="untrusted"):
                clock.advance(2.0)
        totals = tracer.kind_totals()
        assert totals["enclave"] == 3.0
        assert totals["boundary-crossing"] == 1.0
        assert totals["untrusted"] == 2.0
        assert totals["internal"] == 0.0  # batch span is pure container
        assert sum(totals.values()) == tracer.roots[0].duration

    def test_render_contains_tree_and_totals(self):
        clock = SteppedClock()
        tracer = Tracer(clock=clock)
        with tracer.span("epoch-0"):
            with tracer.span("fwd", kind="enclave", batch=8):
                clock.advance(0.25)
        text = tracer.render()
        assert "epoch-0" in text
        assert "[enclave] 0.250000s" in text
        assert "batch=8" in text
        assert "-- attribution (self time) --" in text

    def test_concurrent_threads_get_independent_roots(self):
        tracer = Tracer()
        barrier = threading.Barrier(4)

        def traced(i):
            barrier.wait()
            with tracer.span(f"worker-{i}", kind="untrusted"):
                with tracer.span("step"):
                    pass

        workers = [threading.Thread(target=traced, args=(i,))
                   for i in range(4)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join()
        # Four independent trees, never interleaved into one stack.
        assert sorted(root.name for root in tracer.roots) == [
            "worker-0", "worker-1", "worker-2", "worker-3"
        ]
        assert all(len(root.children) == 1 for root in tracer.roots)
