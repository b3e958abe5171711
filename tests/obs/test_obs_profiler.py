"""Sampling profiler, slow-op capture, and critical-path analysis."""

import threading
import time

from repro.obs.critical_path import (
    attribute_executed_reused,
    build_trace_tree,
    critical_path,
    render_critical_path,
)
from repro.obs.profiler import SamplingProfiler, snapshot_stacks
from repro.obs.slowops import SlowOpCapture
from repro.obs.trace import Tracer
from repro.remote.protocol import OPS


def busy_wait(seconds):
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        sum(range(100))


class TestSnapshotStacks:
    def test_sees_every_live_thread(self):
        ready = threading.Event()
        done = threading.Event()

        def parked():
            ready.set()
            done.wait(timeout=10)

        thread = threading.Thread(target=parked, name="parked-thread")
        thread.start()
        try:
            ready.wait(timeout=10)
            stacks = snapshot_stacks()
        finally:
            done.set()
            thread.join(timeout=10)
        label = next(k for k in stacks if k.startswith("parked-thread"))
        assert any("parked" in frame for frame in stacks[label])
        # Frames render as file:line function.
        assert all(":" in frame for frame in stacks[label])


class TestSamplingProfiler:
    def test_collects_folded_stacks(self):
        profiler = SamplingProfiler(interval=0.002)
        profiler.start()
        busy_wait(0.15)
        profiler.stop()
        snapshot = profiler.snapshot()
        assert snapshot["samples"] > 0
        assert snapshot["unique_stacks"] > 0
        assert snapshot["running"] is False
        folded = profiler.folded()
        assert folded
        for line in folded.splitlines():
            stack, count = line.rsplit(" ", 1)
            assert int(count) >= 1
            assert ";" in stack or ":" in stack
        assert any("busy_wait" in line for line in folded.splitlines())

    def test_folded_sorted_heaviest_first(self):
        profiler = SamplingProfiler(interval=0.002)
        profiler.start()
        busy_wait(0.1)
        profiler.stop()
        counts = [
            int(line.rsplit(" ", 1)[1])
            for line in profiler.folded().splitlines()
        ]
        assert counts == sorted(counts, reverse=True)

    def test_start_stop_idempotent_and_reset(self):
        profiler = SamplingProfiler(interval=0.002)
        assert profiler.start() is profiler.start()
        assert profiler.running
        profiler.stop()
        profiler.stop()
        assert not profiler.running
        profiler.reset()
        assert profiler.snapshot()["samples"] == 0
        assert profiler.folded() == ""

    def test_max_stacks_bounds_table(self):
        profiler = SamplingProfiler(interval=0.002, max_stacks=1)
        profiler.start()
        busy_wait(0.1)
        profiler.stop()
        assert profiler.snapshot()["unique_stacks"] <= 1


class TestSlowOpCapture:
    def test_under_budget_not_captured(self):
        capture = SlowOpCapture(threshold_seconds=1.0)
        assert capture.observe("manifest", 0.01) is None
        snapshot = capture.snapshot()
        assert snapshot["observed"] == 1
        assert snapshot["captured"] == 0

    def test_over_budget_captured_with_stacks(self):
        capture = SlowOpCapture(threshold_seconds=0.001)
        record = capture.observe("manifest", 0.5, tenant="team0")
        assert record is not None
        assert record["op"] == "manifest"
        assert record["seconds"] == 0.5
        assert record["threshold"] == 0.001
        assert record["tenant"] == "team0"
        assert record["stacks"]  # live thread stacks snapshotted
        assert capture.captures() == [record]

    def test_capture_snapshots_the_request_trace(self):
        tracer = Tracer()
        with tracer.span("server.push") as span:
            with tracer.span("lock.write"):
                pass
        other_tracer_noise = tracer.span("unrelated")
        with other_tracer_noise:
            pass
        capture = SlowOpCapture(threshold_seconds=0.001)
        record = capture.observe(
            "push", 0.5, tracer=tracer, trace_id=span.trace_id
        )
        names = {s["name"] for s in record["spans"]}
        assert names == {"server.push", "lock.write"}
        assert all(s["trace_id"] == span.trace_id for s in record["spans"])

    def test_budgets_come_from_the_op_table(self):
        capture = SlowOpCapture()
        for op, spec in OPS.items():
            assert capture.threshold_for(op) == spec.budget_s
            assert capture.observe(op, spec.budget_s * 0.9) is None
            assert capture.observe(op, spec.budget_s) is not None

    def test_uniform_threshold_overrides_every_budget(self):
        capture = SlowOpCapture(threshold_seconds=0.25)
        assert {capture.threshold_for(op) for op in OPS} == {0.25}
        assert capture.snapshot()["threshold_seconds"] == 0.25

    def test_op_outside_the_table_has_no_budget(self):
        capture = SlowOpCapture()
        assert capture.observe("weird_op", 9999.0) is None
        # Table ops still have their budget.
        assert capture.observe("fetch", 9999.0) is not None

    def test_ring_is_bounded_newest_kept(self):
        capture = SlowOpCapture(threshold_seconds=0.0, max_captures=2)
        for idx in range(4):
            capture.observe("op", 1.0 + idx)
        kept = [c["seconds"] for c in capture.captures()]
        assert kept == [3.0, 4.0]
        assert capture.snapshot()["captured"] == 4
        assert capture.snapshot()["retained"] == 2


def make_span(span_id, parent_id, name, start, seconds, **attrs):
    return {
        "trace_id": "f" * 16,
        "span_id": span_id,
        "parent_id": parent_id,
        "name": name,
        "start": start,
        "seconds": seconds,
        "status": "ok",
        "sampled": True,
        "attrs": attrs,
    }


class TestCriticalPath:
    def test_tree_built_from_parent_links(self):
        spans = [
            make_span("root", None, "hub.request", 0.0, 1.0),
            make_span("b", "root", "server.push", 0.4, 0.5),
            make_span("a", "root", "hub.admission", 0.0, 0.1),
        ]
        (tree,) = build_trace_tree(spans)
        assert tree["span"]["name"] == "hub.request"
        # Children ordered by start time, not input order.
        assert [c["span"]["name"] for c in tree["children"]] == [
            "hub.admission",
            "server.push",
        ]

    def test_orphan_parent_roots_its_subtree(self):
        # The server half of a cross-wire trace: the parent span lives
        # in the client process, so the server span roots a tree here.
        spans = [make_span("srv", "client-side", "hub.request", 0.0, 1.0)]
        (tree,) = build_trace_tree(spans)
        assert tree["span"]["parent_id"] == "client-side"

    def test_path_follows_latest_ending_child(self):
        spans = [
            make_span("root", None, "hub.request", 0.0, 1.0),
            make_span("early", "root", "hub.admission", 0.0, 0.2),
            make_span("late", "root", "server.push", 0.3, 0.7),
            make_span("leaf", "late", "storage.import", 0.5, 0.4),
        ]
        result = critical_path(spans)
        assert [e["name"] for e in result["path"]] == [
            "hub.request",
            "server.push",
            "storage.import",
        ]
        assert result["trace_id"] == "f" * 16
        assert result["spans"] == 4
        assert result["total_seconds"] == 1.0

    def test_self_time_excludes_children(self):
        spans = [
            make_span("root", None, "hub.request", 0.0, 1.0),
            make_span("child", "root", "server.push", 0.0, 0.8),
        ]
        result = critical_path(spans)
        root_entry = result["path"][0]
        assert abs(root_entry["self_seconds"] - 0.2) < 1e-9
        assert result["bounded_by"] == "server.push"

    def test_empty_input(self):
        result = critical_path([])
        assert result["path"] == []
        assert result["trace_id"] is None
        assert result["bounded_by"] is None

    def test_attribution_joins_lineage_records(self):
        records = [
            {"via": "executed", "wall_seconds": 2.0},
            {"via": "executed", "wall_seconds": 1.0},
            {"via": "reused", "wall_seconds": 0.5},
        ]
        attribution = attribute_executed_reused(records)
        assert attribution == {
            "executed": 2,
            "reused": 1,
            "executed_seconds": 3.0,
            "reused_seconds": 0.5,
        }
        spans = [make_span("root", None, "merge", 0.0, 3.5)]
        result = critical_path(spans, lineage_records=records)
        assert result["attribution"]["executed"] == 2

    def test_render_is_one_line_per_step(self):
        spans = [
            make_span("root", None, "hub.request", 0.0, 1.0),
            make_span("child", "root", "server.push", 0.0, 0.8),
        ]
        text = render_critical_path(critical_path(spans))
        lines = text.splitlines()
        assert "bounded by server.push" in lines[0]
        assert lines[1].startswith("hub.request")
        assert lines[2].startswith("  server.push")
