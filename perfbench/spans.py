"""In-memory spans for the traced benchmark run.

A span is one timed call across a layer boundary: layer name, the call
kind within the layer, start and end on one clock, the span that caused
it, and the benchmark operation it belongs to. Spans are kept in memory
while the run lasts and only summarized (or written out) once it ends.

Client and hub run in one process, but a hub request executes on the
HTTP server's connection thread, where no client span is on the stack.
:func:`attach_remote_spans` parents each such server-side root span to
the client ``HttpTransport.call`` on the same connection (matched by
the client's local port) whose interval contains it.
"""

from __future__ import annotations

import itertools
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field

#: Layer name of the spans the benchmark opens around its own operations.
OP_LAYER = "op"
#: Layer whose spans are the client side of an RPC.
CLIENT_CALL_LAYER = "remote.transport"


@dataclass
class Span:
    sid: int
    layer: str
    kind: str
    start: float
    end: float = 0.0
    parent: int | None = None
    op: int | None = None
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class SpanRecorder:
    """Thread-safe span sink with a per-thread stack for parenting.

    ``recording`` gates everything: while it is false :meth:`begin`
    returns ``None`` and nothing is kept, so set-up and output checks
    stay out of the per-layer figures.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.recording = False
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> Span | None:
        stack = self._stack()
        return stack[-1] if stack else None

    def begin(self, layer: str, kind: str, **attrs) -> Span | None:
        if not self.recording:
            return None
        parent = self.current()
        span = Span(
            sid=next(self._ids),
            layer=layer,
            kind=kind,
            start=0.0,
            parent=parent.sid if parent is not None else None,
            op=parent.op if parent is not None else None,
            attrs=attrs,
        )
        if layer == OP_LAYER:
            span.op = span.sid
        peer = getattr(self._local, "peer", None)
        if parent is None and peer is not None:
            span.attrs["peer"] = peer
        self._stack().append(span)
        span.start = self.clock()
        return span

    def finish(self, span: Span | None) -> None:
        if span is None:
            return
        span.end = self.clock()
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        with self._lock:
            self.spans.append(span)

    def set_peer(self, port) -> None:
        """Mark this thread as serving the connection from ``port``."""
        self._local.peer = port

    def take(self) -> list[Span]:
        """All finished spans, with remote parents attached."""
        with self._lock:
            spans = list(self.spans)
        attach_remote_spans(spans)
        return spans


def union_length(intervals) -> float:
    """Total length covered by ``(start, end)`` intervals."""
    total = 0.0
    cursor = None
    for start, end in sorted(intervals):
        if cursor is None or start > cursor:
            total += end - start
            cursor = end
        elif end > cursor:
            total += end - cursor
            cursor = end
    return total


def self_times(spans) -> dict[int, float]:
    """Each span's duration minus the union of its children's intervals.

    Children are clipped to the parent's interval, so a child that
    outlives its parent (clock skew between threads cannot happen here,
    but a mis-parented span could) never drives self time negative.
    """
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    by_id = {s.sid: s for s in spans}
    for span in spans:
        parent = by_id.get(span.parent) if span.parent is not None else None
        if parent is not None:
            start = max(span.start, parent.start)
            end = min(span.end, parent.end)
            if end > start:
                children[parent.sid].append((start, end))
    return {
        s.sid: max(0.0, s.duration - union_length(children.get(s.sid, ())))
        for s in spans
    }


def attach_remote_spans(spans) -> int:
    """Parent server-side root spans to the client call that carried them.

    A root span recorded on a server connection thread carries the
    client's port as ``peer``; its parent is the client call span on
    that port whose interval contains it. Op ids are then propagated
    down every chain. Returns how many spans were attached.
    """
    calls: dict[object, list[Span]] = defaultdict(list)
    for span in spans:
        if span.layer == CLIENT_CALL_LAYER and span.attrs.get("port") is not None:
            calls[span.attrs["port"]].append(span)
    attached = 0
    for span in spans:
        if span.parent is not None or "peer" not in span.attrs:
            continue
        for call in calls.get(span.attrs["peer"], ()):
            if call.start <= span.start and span.end <= call.end:
                span.parent = call.sid
                attached += 1
                break
    by_id = {s.sid: s for s in spans}

    def op_of(span: Span, seen: int = 0) -> int | None:
        if span.op is not None or span.parent is None or seen > len(by_id):
            return span.op
        parent = by_id.get(span.parent)
        span.op = op_of(parent, seen + 1) if parent is not None else None
        return span.op

    for span in spans:
        op_of(span)
    return attached
