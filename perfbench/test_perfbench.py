"""Tests of the benchmark's own machinery.

Run from the repository root with ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
for path in (HERE, HERE.parent / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import layers  # noqa: E402
import percentiles  # noqa: E402
import scenarios  # noqa: E402
from reference import REFERENCE_MS  # noqa: E402
from spans import (  # noqa: E402
    CLIENT_CALL_LAYER,
    OP_LAYER,
    Span,
    SpanRecorder,
    attach_remote_spans,
    self_times,
    union_length,
)


# ------------------------------------------------------------ percentiles
def test_percentile_is_nearest_rank_with_count_beyond():
    samples = list(range(1, 101))  # 1..100
    assert percentiles.percentile(samples, 50) == (50, 50)
    assert percentiles.percentile(samples, 90) == (90, 10)
    assert percentiles.percentile(samples, 99) == (99, 1)
    assert percentiles.percentile([7.0], 99) == (7.0, 0)


def test_tail_percentile_picks_highest_rung_with_ten_beyond():
    assert percentiles.tail_percentile(list(range(100))) == (90.0, 89, 10)
    p, value, beyond = percentiles.tail_percentile(list(range(1000)))
    assert (p, beyond) == (99.0, 10)
    assert value == 989
    # 19 samples: p50 leaves 9 beyond, so the median is reported with its count.
    assert percentiles.tail_percentile(list(range(19))) == (50.0, 9, 9)


# ------------------------------------------------------------- self time
def _span(sid, start, end, parent=None, layer="x", kind="k", op=None, **attrs):
    return Span(sid=sid, layer=layer, kind=kind, start=start, end=end,
                parent=parent, op=op, attrs=dict(attrs))


def test_union_length_merges_overlaps():
    assert union_length([(0, 2), (1, 3), (5, 6)]) == 4
    assert union_length([]) == 0


def test_self_time_subtracts_union_of_children():
    spans = [
        _span(1, 0.0, 10.0),
        _span(2, 1.0, 4.0, parent=1),
        _span(3, 3.0, 6.0, parent=1),  # overlaps 2: union 1..6
        _span(4, 9.0, 12.0, parent=1),  # clipped to the parent at 10
        _span(5, 2.0, 3.0, parent=2),
    ]
    own = self_times(spans)
    assert own[1] == pytest.approx(10.0 - 5.0 - 1.0)
    assert own[2] == pytest.approx(2.0)
    assert own[3] == pytest.approx(3.0)
    assert own[5] == pytest.approx(1.0)


def test_server_span_parents_to_client_call_on_same_connection():
    op = _span(1, 0.0, 10.0, layer=OP_LAYER, kind="manifest", op=1)
    call_a = _span(2, 1.0, 5.0, parent=1, layer=CLIENT_CALL_LAYER, op=1, port=4001)
    other_op = _span(3, 0.0, 10.0, layer=OP_LAYER, kind="fetch", op=3)
    call_b = _span(4, 1.5, 6.0, parent=3, layer=CLIENT_CALL_LAYER, op=3, port=4002)
    server = _span(5, 2.0, 4.0, layer="hub.hub", peer=4002)  # inside both calls
    nested = _span(6, 2.5, 3.0, parent=5, layer="remote.server")
    stray = _span(7, 7.0, 8.0, layer="hub.hub", peer=4001)  # outside every call
    spans = [op, call_a, other_op, call_b, server, nested, stray]
    assert attach_remote_spans(spans) == 1
    assert server.parent == call_b.sid and server.op == 3
    assert nested.op == 3
    assert stray.parent is None and stray.op is None
    own = self_times(spans)
    # The client call's self time is the HTTP framing around the server span.
    assert own[call_b.sid] == pytest.approx(4.5 - 2.0)
    assert own[call_a.sid] == pytest.approx(4.0)


def test_recorder_nests_spans_and_marks_server_threads():
    ticks = iter(range(100))
    recorder = SpanRecorder(clock=lambda: float(next(ticks)))
    assert recorder.begin("a", "b") is None  # not recording: nothing kept
    recorder.recording = True
    root = recorder.begin(OP_LAYER, "push")
    child = recorder.begin("remote.client", "push")
    recorder.finish(child)
    recorder.finish(root)
    recorder.set_peer(5555)
    server = recorder.begin("hub.hub", "request")
    recorder.finish(server)
    assert child.parent == root.sid and child.op == root.sid == root.op
    assert server.parent is None and server.attrs["peer"] == 5555
    assert len(recorder.take()) == 3


def test_layer_metrics_report_unattributed_time_per_op():
    spans = [
        _span(1, 0.0, 10.0, layer=OP_LAYER, kind="commit", op=1),
        _span(2, 1.0, 7.0, parent=1, layer="core.executor", kind="run", op=1,
              executed=2, reused=3),
        _span(3, 2.0, 5.0, parent=2, layer="core.component", kind="compute", op=1),
        _span(4, 8.0, 9.0, layer="storage.hashing", kind="sha256", bytes=64),  # no op
    ]
    metrics = layers.layer_metrics(spans)
    assert metrics["unattributed.commit_s"] == pytest.approx(4.0)
    assert metrics["attributed_share.commit"] == pytest.approx(0.6)
    assert metrics["core.executor.self_s"] == pytest.approx(3.0)
    assert metrics["core.component.compute_s"] == pytest.approx(3.0)
    assert metrics["core.executor.reuse_ratio"] == pytest.approx(0.6)
    assert metrics["storage.hashing.bytes"] == 0  # outside every op


# --------------------------------------------------------------- op mix
def test_op_sequence_is_seeded():
    first = scenarios.op_sequence(7, 500)
    assert first == scenarios.op_sequence(7, 500)
    assert first != scenarios.op_sequence(8, 500)
    ops = {op for op, _ in first}
    assert ops <= {op for op, _ in scenarios.READ_OP_MIX}
    assert all(0 <= rank < scenarios.READ_REPOS for _, rank in first)
    manifests = sum(1 for op, _ in first if op == "manifest")
    assert 0.7 < manifests / len(first) < 0.9
    hot = sum(1 for _, rank in first if rank == 0)
    cold = sum(1 for _, rank in first if rank == scenarios.READ_REPOS - 1)
    assert hot > 3 * cold  # Zipf-skewed


# ---------------------------------------------------- wrapper transparency
class Boom(Exception):
    pass


def _double(x, *, extra=0):
    return 2 * x + extra


def _explode(error):
    raise error


def test_wrapper_returns_the_same_value_and_reraises_the_same_exception():
    recorder = SpanRecorder()
    recorder.recording = True
    wrapped = layers.traced(recorder, "core.component", "compute", _double)
    assert wrapped(4, extra=1) == _double(4, extra=1)
    error = Boom("x")
    with pytest.raises(Boom) as caught:
        layers.traced(recorder, "core.component", "compute", _explode)(error)
    assert caught.value is error
    spans = recorder.take()
    assert [s.attrs.get("error") for s in spans] == [None, True]
    assert recorder.current() is None  # the stack unwound on the error path


def test_tracer_installs_and_restores_every_binding():
    import repro.core.checkpoint as checkpoint
    import repro.remote.transport as transport

    original_encode = checkpoint.payload_to_bytes
    assert "call" not in transport.HttpTransport.__dict__
    recorder = SpanRecorder()
    with layers.LayerTracer(recorder):
        assert checkpoint.payload_to_bytes is not original_encode
        assert "call" in transport.HttpTransport.__dict__
        recorder.recording = True
        import numpy as np

        value = {"a": np.arange(5)}
        data = checkpoint.payload_to_bytes(value)
        assert data == original_encode(value)
    assert checkpoint.payload_to_bytes is original_encode
    assert "call" not in transport.HttpTransport.__dict__
    assert [s.layer for s in recorder.take()] == ["data.serialize"]


# ------------------------------------------------------------- reporting
def test_named_metrics_are_aliases_of_the_end_to_end_ones():
    import run

    names = ("raw_op_p50_ms", "raw_op_tail_ms", "raw_second_op_p50_ms", "ops_per_s",
             "storage_ratio", "raw_setup_s", "peak_rss_mb", "ok_op_ratio", "host_ref_ms")
    metrics = {name: {"value": float(i + 1), "unit": "u", "n": 10 + i}
               for i, name in enumerate(names)}
    metrics["ok_op_ratio"] = {"value": 0.75, "unit": "ratio", "n": 8}
    rows = {name: (value, n) for name, value, _, n in run.named_metrics("local", metrics)}
    assert rows["commit_p50_ms"] == (1.0, 10)
    assert rows["commit_p90_ms"] == (2.0, 11)
    assert rows["merge_p50_ms"] == (3.0, 12)
    assert rows["failed_op_ratio"] == (0.25, 8)
    read = {name for name, *_ in run.named_metrics("read", metrics)}
    assert {"read_p50_ms", "read_p99_ms", "clone_p50_ms", "read_ops_per_s"} <= read


def test_merge_signatures_are_compared_only_within_the_same_code(tmp_path, monkeypatch):
    import run

    monkeypatch.setattr(run, "OUT_DIR", tmp_path)
    digest = ["a" * 16]
    monkeypatch.setattr(run, "code_digest", lambda: digest[0])

    def result(signature):
        return scenarios.WorkloadResult("local", signatures={"7": signature})

    assert run.check_signatures(result([1, 2])) == []
    assert run.check_signatures(result([1, 2])) == []
    changed = result([1, 3])
    assert run.check_signatures(changed) and changed.log.failed["merge"] == 1
    digest[0] = "b" * 16  # other code: its figures may differ
    assert run.check_signatures(result([1, 3])) == []


def test_result_line_carries_exactly_the_metrics_of_benchmark_json():
    import run

    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(run.GATED)
    layered = [f"{name}.{metric}" for name in run.WORKLOADS
               for metric in run.LAYER_METRICS[name]]
    assert [m["name"] for m in spec["per_layer"]] == layered


def test_push_figures_read_cpu_time_scaled_to_the_reference_speed():
    import run

    result = scenarios.WorkloadResult("push", setup_seconds=[3.0], setup_cpu=[1.0],
                                      loop_seconds=1.0, physical_bytes=1, logical_bytes=2)
    result.probe.tasks, result.probe.seconds = 4, 4 * REFERENCE_MS / 2e3  # twice as fast
    for i in range(1, 22):
        result.log.attempted["push"] += 1
        result.log.samples["push"].append(i * 0.002)
        result.log.cpu["push"].append(i * 0.001)
        result.log.samples["commit"].append(0.004)
        result.log.cpu["commit"].append(0.003)
    figures = run.end_to_end(result, 10.0)
    assert figures["raw_op_p50_ms"]["value"] == pytest.approx(11.0)
    assert figures["op_wall_p50_ms"]["value"] == pytest.approx(22.0)
    assert figures["raw_second_op_p50_ms"]["value"] == pytest.approx(3.0)
    # gated times read as on a host where the reference task takes REFERENCE_MS
    assert figures["op_p50_ms"]["value"] == pytest.approx(22.0)
    assert figures["setup_s"]["value"] == pytest.approx(2.0)
    assert set(run.GATED) <= set(figures)
