"""Tracer behavior: nesting, determinism, bounds, errors.

The zero-cost-when-disabled wall-clock check lives in EXT-P
(``benchmarks/test_bench_telemetry.py``): it measures host load.
"""

import threading

import pytest

from repro import telemetry
from repro.errors import TelemetryError
from repro.telemetry import (
    MAX_SPAN_EVENTS,
    NULL_SPAN,
    ManualClock,
    Tracer,
)


class TestNesting:
    def test_nested_spans_record_parentage_and_depth(self):
        tracer = Tracer(clock=ManualClock())
        with tracer.span("outer") as outer:
            with tracer.span("middle") as middle:
                with tracer.span("inner") as inner:
                    pass
            with tracer.span("sibling") as sibling:
                pass
        assert outer.parent_id is None and outer.depth == 0
        assert middle.parent_id == outer.span_id and middle.depth == 1
        assert inner.parent_id == middle.span_id and inner.depth == 2
        assert sibling.parent_id == outer.span_id and sibling.depth == 1
        assert tracer.max_depth() == 3
        # Completion order: children finish before parents.
        assert [s.name for s in tracer.finished] == [
            "inner", "middle", "sibling", "outer"]

    def test_span_tree_groups_children_under_parents(self):
        tracer = Tracer(clock=ManualClock())
        with tracer.span("a"):
            with tracer.span("b"):
                pass
        with tracer.span("c"):
            pass
        roots = tracer.span_tree()
        assert [r.name for r, _ in roots] == ["a", "c"]
        (_, children), _ = roots
        assert [r.name for r, _ in children] == ["b"]

    def test_current_span_restored_on_exit(self):
        tracer = Tracer(clock=ManualClock())
        assert tracer.current_span() is None
        with tracer.span("outer") as outer:
            assert tracer.current_span() is outer
            with tracer.span("inner") as inner:
                assert tracer.current_span() is inner
            assert tracer.current_span() is outer
        assert tracer.current_span() is None


class TestDeterminism:
    def test_manual_clock_makes_renders_reproducible(self):
        def run() -> str:
            tracer = Tracer(clock=ManualClock(tick=0.001))
            with tracer.span("root", seed=7):
                with tracer.span("child"):
                    pass
            return tracer.render_tree()

        assert run() == run()

    def test_manual_clock_tick_arithmetic(self):
        tracer = Tracer(clock=ManualClock(start=10.0, tick=0.5))
        with tracer.span("only"):
            pass
        (record,) = tracer.finished
        # Reads: start_wall (10.0), end_wall (10.5) — one tick apart.
        assert record.start_wall == pytest.approx(10.0)
        assert record.wall_seconds == pytest.approx(0.5)

    def test_negative_tick_rejected(self):
        with pytest.raises(TelemetryError):
            ManualClock(tick=-1.0)


class TestBounds:
    def test_ring_buffer_drops_oldest(self):
        tracer = Tracer(clock=ManualClock(), max_spans=3)
        for i in range(5):
            with tracer.span(f"s{i}"):
                pass
        assert [s.name for s in tracer.finished] == ["s2", "s3", "s4"]
        assert tracer.dropped_spans == 2
        assert "2 dropped" in tracer.render_tree()

    def test_orphaned_span_promoted_to_root(self):
        tracer = Tracer(clock=ManualClock(), max_spans=1)
        with tracer.span("parent"):
            with tracer.span("child"):
                pass
        # Only the parent survives in a 1-slot buffer (child was evicted
        # when the parent finished); the tree still renders every span.
        roots = tracer.span_tree()
        assert [r.name for r, _ in roots] == ["parent"]

    def test_invalid_max_spans_rejected(self):
        with pytest.raises(TelemetryError):
            Tracer(max_spans=0)

    def test_event_cap_counts_drops(self):
        tracer = Tracer(clock=ManualClock())
        with tracer.span("busy") as sp:
            for i in range(MAX_SPAN_EVENTS + 5):
                tracer.event("tick", i=i)
        assert len(sp.events) == MAX_SPAN_EVENTS
        assert sp.dropped_events == 5


class TestErrors:
    def test_error_captured_and_propagated(self):
        tracer = Tracer(clock=ManualClock())
        with pytest.raises(ValueError, match="boom"):
            with tracer.span("risky"):
                raise ValueError("boom")
        (record,) = tracer.finished
        assert record.status == "error"
        assert record.error == "ValueError: boom"
        assert not record.ok
        assert "!ERROR ValueError: boom" in tracer.render_tree()


class TestActivation:
    def test_disabled_by_default_returns_null_span(self):
        assert telemetry.active() is None
        assert not telemetry.enabled()
        sp = telemetry.span("anything", k=1)
        assert sp is NULL_SPAN
        with sp as inner:
            inner.set_attribute("ignored", 1)
            inner.add_event("ignored")
        telemetry.event("ignored")  # no-op, must not raise

    def test_session_installs_and_restores(self):
        outer = telemetry.activate()
        try:
            with telemetry.session() as inner:
                assert telemetry.active() is inner
                assert inner is not outer
            assert telemetry.active() is outer
        finally:
            telemetry.deactivate()
        assert telemetry.active() is None

    def test_module_span_records_on_active_tracer(self):
        with telemetry.session(clock=ManualClock()) as tracer:
            with telemetry.span("via-module", tag="x"):
                telemetry.event("ping")
        (record,) = tracer.finished
        assert record.name == "via-module"
        assert record.attributes == {"tag": "x"}
        assert record.events[0]["name"] == "ping"


class TestThreadSafety:
    def test_threads_nest_independently(self):
        tracer = Tracer(clock=ManualClock())
        barrier = threading.Barrier(2)
        errors = []

        def worker(label: str) -> None:
            try:
                with tracer.span(f"root-{label}") as root:
                    barrier.wait(timeout=5)
                    with tracer.span(f"child-{label}") as child:
                        assert child.parent_id == root.span_id
                    barrier.wait(timeout=5)
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(c,)) for c in "ab"]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        by_name = {s.name: s for s in tracer.finished}
        assert len(by_name) == 4
        for label in "ab":
            assert (by_name[f"child-{label}"].parent_id
                    == by_name[f"root-{label}"].span_id)

