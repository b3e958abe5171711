"""Per-layer attribution: span wrappers around each module's public calls.

:data:`LAYER_CALLS` is the one table of what is timed. Each entry names a
layer (the module, as ``<package>.<module>``), the kind of call within
it, where the callable is looked up at call time, and an optional note
that records a count (bytes, chunks, hits) once the call has returned,
outside the timed interval. :class:`LayerTracer` swaps wrappers in for
the duration of a traced run and restores the originals afterwards.

Functions imported by name into other modules are patched at every
binding the program calls them through (``write_json_atomic`` as bound
in ``repro.hub.hub``, ``sha256_hex`` in the chunk and object stores).
Methods are patched on the class that defines them.

:func:`layer_metrics` turns the spans of one workload into the
per-layer figures: busy time is self time (duration minus the union of
child spans), and whatever an op's own span keeps for itself is the
op's ``unattributed`` time.
"""

from __future__ import annotations

import functools
import importlib
import os
import threading
from collections import defaultdict
from dataclasses import dataclass

from spans import CLIENT_CALL_LAYER, OP_LAYER, SpanRecorder, self_times


# --------------------------------------------------------------- notes
def _len_result(key):
    def note(span, args, kwargs, result, before):
        span.attrs[key] = len(result)
    return note


def _len_arg(key, index=0):
    def note(span, args, kwargs, result, before):
        span.attrs[key] = len(args[index])
    return note


def _note_run_report(span, args, kwargs, result, before):
    span.attrs["executed"] = sum(1 for r in result.stage_reports if r.executed)
    span.attrs["reused"] = sum(1 for r in result.stage_reports if r.reused)


def _before_put(args, kwargs):
    store = args[0]
    return store.stats.physical_bytes


def _note_put(span, args, kwargs, result, before):
    store, data = args[0], args[1]
    span.attrs["offered"] = len(data)
    span.attrs["new"] = store.stats.physical_bytes - before


def _note_import(span, args, kwargs, result, before):
    data = args[2]
    span.attrs["offered"] = len(data)
    span.attrs["new"] = len(data) if result else 0


def _note_lookup(span, args, kwargs, result, before):
    span.attrs["hit"] = result is not None


def _note_merge(span, args, kwargs, result, before):
    span.attrs["total"] = result.candidates_total
    span.attrs["pruned"] = result.candidates_pruned_incompatible
    span.attrs["evaluated"] = result.candidates_evaluated


def _note_rows(span, args, kwargs, result, before):
    span.attrs["rows"] = result if isinstance(result, int) else len(result)


def _note_file_size(span, args, kwargs, result, before):
    span.attrs["bytes"] = os.path.getsize(args[0])


def _connection_port(transport):
    connection = getattr(transport, "_connection", None)
    sock = getattr(connection, "sock", None) if connection is not None else None
    if sock is None:
        return None
    try:
        return sock.getsockname()[1]
    except OSError:
        return None


def _before_call(args, kwargs):
    return _connection_port(args[0])


def _note_call(span, args, kwargs, result, before):
    # A fresh connection is opened inside the first call, so the port is
    # read afterwards unless the call found one already open.
    span.attrs["port"] = before if before is not None else _connection_port(args[0])


@dataclass(frozen=True)
class LayerCall:
    layer: str
    kind: str
    modules: tuple[str, ...]
    attr: str
    note: object = None
    before: object = None


def _call(layer, kind, modules, attr, note=None, before=None) -> LayerCall:
    if isinstance(modules, str):
        modules = (modules,)
    return LayerCall(layer, kind, tuple(modules), attr, note, before)


#: Every call the traced run times, grouped by layer: the public calls, plus
#: the hub's whole metadata rewrite and cold load as ``core.persistence``.
LAYER_CALLS = (
    _call("core.component", "compute", "repro.core.component", "LibraryComponent.run"),
    _call("core.component", "compute", "repro.core.component", "DatasetComponent.materialize"),
    _call("core.executor", "run", "repro.core.executor", "Executor.run", _note_run_report),
    _call("data.serialize", "encode", "repro.core.checkpoint", "payload_to_bytes",
          _len_result("bytes")),
    _call("data.serialize", "decode", "repro.core.checkpoint", "payload_from_bytes",
          _len_arg("bytes")),
    _call("storage.chunking", "split", "repro.storage.chunking",
          "ContentDefinedChunker.split", _len_result("chunks")),
    _call("storage.hashing", "sha256",
          ("repro.storage.hashing", "repro.storage.chunk_store", "repro.storage.object_store"),
          "sha256_hex", _len_arg("bytes")),
    _call("storage.chunk_store", "put", "repro.storage.chunk_store", "ChunkStore.put",
          _note_put, _before_put),
    _call("storage.chunk_store", "get", "repro.storage.chunk_store", "ChunkStore.get"),
    _call("storage.chunk_store", "import", "repro.storage.chunk_store",
          "ChunkStore.import_chunk", _note_import),
    _call("storage.chunk_store", "missing", "repro.storage.chunk_store", "ChunkStore.missing"),
    _call("core.checkpoint", "lookup", "repro.core.checkpoint", "CheckpointStore.lookup",
          _note_lookup),
    _call("core.checkpoint", "save", "repro.core.checkpoint", "CheckpointStore.save"),
    _call("core.checkpoint", "load", "repro.core.checkpoint", "CheckpointStore.load"),
    _call("core.merge", "merge", "repro.core.merge.metric_merge", "metric_driven_merge",
          _note_merge),
    _call("provenance.ledger", "record", "repro.provenance.ledger",
          "LineageLedger.record_run", _note_rows),
    _call("provenance.ledger", "import", "repro.provenance.ledger",
          "LineageLedger.import_entries", _note_rows),
    # The metadata rewrite as a whole: its files' writes nest inside, and
    # the to-dict conversions the hub builds their payloads with stay here.
    _call("core.persistence", "persist", "repro.hub.hub", "RepositoryHub._persist_hosted"),
    _call("core.persistence", "write", "repro.hub.hub", "write_json_atomic", _note_file_size),
    _call("core.persistence", "state", "repro.hub.hub", "repository_state"),
    # A cold load as a whole: the JSON parsing around load_repository too.
    _call("core.persistence", "load", "repro.hub.hub", "RepositoryHub._load_repo"),
    _call("core.persistence", "load", "repro.hub.hub", "load_repository"),
    _call("remote.protocol", "encode",
          ("repro.remote.protocol", "repro.remote.client", "repro.remote.server"),
          "encode_message", _len_result("bytes")),
    _call("remote.protocol", "decode",
          ("repro.remote.client", "repro.remote.server", "repro.hub.hub"),
          "decode_message", _len_arg("bytes")),
    _call(CLIENT_CALL_LAYER, "call", "repro.remote.transport", "HttpTransport.call",
          _note_call, _before_call),
    _call("remote.client", "push", "repro.remote.client", "Remote.push"),
    _call("remote.client", "fetch", "repro.remote.client", "Remote.fetch"),
    _call("remote.client", "manifest", "repro.remote.client", "Remote.manifest"),
    _call("remote.client", "clone", "repro.remote.client", "clone_repository"),
    _call("hub.hub", "request", "repro.hub.hub", "RepositoryHub.handle_request"),
    _call("remote.server", "handle", "repro.remote.server", "RepositoryServer.handle_bytes"),
    _call("remote.server", "cache", "repro.remote.server", "ResponseCache.get", _note_lookup),
)

#: Lock acquisitions timed as ``remote.server`` ``lock_wait`` spans.
LOCK_CALLS = (
    ("repro.remote.server", "RWLock.read_locked"),
    ("repro.remote.server", "RWLock.write_locked"),
)


def _resolve(module_name: str, attr: str):
    """``(owner, name)`` for a dotted attribute inside a module."""
    owner = importlib.import_module(module_name)
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name


def traced(recorder: SpanRecorder, layer: str, kind: str, fn, note=None, before=None):
    """Wrap ``fn`` so each call is one span; value and exceptions pass through."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        state = before(args, kwargs) if before is not None and recorder.recording else None
        span = recorder.begin(layer, kind)
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            if span is not None:
                span.attrs["error"] = True
            raise
        finally:
            recorder.finish(span)
        if span is not None and note is not None:
            note(span, args, kwargs, result, state)
        return result

    return wrapper


class _TimedAcquire:
    """Context manager timing only the ``__enter__`` of another one."""

    __slots__ = ("recorder", "inner")

    def __init__(self, recorder, inner):
        self.recorder = recorder
        self.inner = inner

    def __enter__(self):
        span = self.recorder.begin("remote.server", "lock_wait")
        try:
            return self.inner.__enter__()
        finally:
            self.recorder.finish(span)

    def __exit__(self, *exc):
        return self.inner.__exit__(*exc)


def timed_acquire(recorder: SpanRecorder, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        return _TimedAcquire(recorder, fn(*args, **kwargs))

    return wrapper


def peer_marking(recorder: SpanRecorder, fn):
    """Wrap a request handler method so its thread knows its client port."""

    @functools.wraps(fn)
    def wrapper(handler, *args, **kwargs):
        recorder.set_peer(handler.client_address[1])
        return fn(handler, *args, **kwargs)

    return wrapper


class LayerTracer:
    """Installs the span wrappers of :data:`LAYER_CALLS`; a context manager."""

    def __init__(self, recorder: SpanRecorder):
        self.recorder = recorder
        self.overload_errors = 0
        self._overload_lock = threading.Lock()
        self._patches: list[tuple[object, str, object]] = []

    def _patch(self, owner, name, replacement) -> None:
        # An inherited method (HttpTransport.call lives on Transport) is
        # shadowed on the subclass only and removed again on uninstall.
        self._patches.append((owner, name, owner.__dict__.get(name)))
        setattr(owner, name, replacement)

    def install(self) -> "LayerTracer":
        for call in LAYER_CALLS:
            for module_name in call.modules:
                owner, name = _resolve(module_name, call.attr)
                original = getattr(owner, name)
                self._patch(
                    owner,
                    name,
                    traced(self.recorder, call.layer, call.kind, original,
                           call.note, call.before),
                )
        for module_name, attr in LOCK_CALLS:
            owner, name = _resolve(module_name, attr)
            self._patch(owner, name, timed_acquire(self.recorder, getattr(owner, name)))
        owner, name = _resolve("repro.remote.server", "BaseRPCHandler.do_POST")
        self._patch(owner, name, peer_marking(self.recorder, getattr(owner, name)))
        owner, name = _resolve("repro.remote.client", "raise_remote_error")
        self._patch(owner, name, self._counting_overloads(getattr(owner, name)))
        return self

    def _counting_overloads(self, fn):
        from repro.errors import ServerOverloadedError

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                return fn(*args, **kwargs)
            except ServerOverloadedError:
                if self.recorder.recording:
                    with self._overload_lock:
                        self.overload_errors += 1
                raise

        return wrapper

    def uninstall(self) -> None:
        while self._patches:
            owner, name, original = self._patches.pop()
            if original is None:
                delattr(owner, name)
            else:
                setattr(owner, name, original)

    def __enter__(self) -> "LayerTracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()


# ------------------------------------------------------------- summaries
def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(spans, pushes: int = 0, overload_retries: int = 0) -> dict:
    """Per-layer figures over the spans that belong to a benchmark op.

    Times are seconds of self time summed over the run; ``calls`` and
    other counts skip a span nested directly in a span of the same layer
    and kind (a subclass calling its base), so one logical call counts
    once. Also returns, per op kind, its ``unattributed`` self time and
    the share of its total time that some layer claimed.
    """
    spans = [s for s in spans if s.op is not None]
    own = self_times(spans)
    by_id = {s.sid: s for s in spans}
    busy: dict[tuple[str, str], float] = defaultdict(float)
    calls: dict[tuple[str, str], int] = defaultdict(int)
    sums: dict[tuple[str, str, str], float] = defaultdict(float)
    op_total: dict[str, float] = defaultdict(float)
    op_count: dict[str, int] = defaultdict(int)
    op_kind = {s.sid: s.kind for s in spans if s.layer == OP_LAYER}
    push_rpcs = 0
    call_seconds = 0.0
    for span in spans:
        key = (span.layer, span.kind)
        busy[key] += own[span.sid]
        if span.layer == OP_LAYER:
            op_total[span.kind] += span.duration
            op_count[span.kind] += 1
            continue
        parent = by_id.get(span.parent)
        if parent is not None and (parent.layer, parent.kind) == key:
            continue
        calls[key] += 1
        for name, value in span.attrs.items():
            if isinstance(value, (int, float)) and name not in ("port", "peer"):
                sums[(span.layer, span.kind, name)] += float(value)
        if span.layer == CLIENT_CALL_LAYER:
            call_seconds += span.duration
            if op_kind.get(span.op) == "push":
                push_rpcs += 1

    def layer_busy(layer, exclude=()):
        return sum(
            seconds for (name, kind), seconds in busy.items()
            if name == layer and kind not in exclude
        )

    put_offered = sums[("storage.chunk_store", "put", "offered")] + sums[
        ("storage.chunk_store", "import", "offered")
    ]
    put_new = sums[("storage.chunk_store", "put", "new")] + sums[
        ("storage.chunk_store", "import", "new")
    ]
    executed = sums[("core.executor", "run", "executed")]
    reused = sums[("core.executor", "run", "reused")]
    lookups = calls[("core.checkpoint", "lookup")]
    cache = calls[("remote.server", "cache")]
    bytes_written = sums[("core.persistence", "write", "bytes")]
    metrics = {
        "core.component.compute_s": layer_busy("core.component"),
        "core.component.calls": calls[("core.component", "compute")],
        "core.executor.self_s": layer_busy("core.executor"),
        "core.executor.stages_executed": int(executed),
        "core.executor.stages_reused": int(reused),
        "core.executor.reuse_ratio": _ratio(reused, executed + reused),
        "data.serialize.encode_s": busy[("data.serialize", "encode")],
        "data.serialize.decode_s": busy[("data.serialize", "decode")],
        "data.serialize.bytes": int(
            sums[("data.serialize", "encode", "bytes")]
            + sums[("data.serialize", "decode", "bytes")]
        ),
        "storage.chunking.split_s": busy[("storage.chunking", "split")],
        "storage.chunking.chunks": int(sums[("storage.chunking", "split", "chunks")]),
        "storage.hashing.sha256_s": busy[("storage.hashing", "sha256")],
        "storage.hashing.bytes": int(sums[("storage.hashing", "sha256", "bytes")]),
        "storage.chunk_store.put_s": busy[("storage.chunk_store", "put")],
        "storage.chunk_store.get_s": busy[("storage.chunk_store", "get")],
        "storage.chunk_store.import_s": busy[("storage.chunk_store", "import")],
        "storage.chunk_store.physical_bytes": int(put_new),
        "storage.chunk_store.dedup_ratio": _ratio(put_offered - put_new, put_offered),
        "core.checkpoint.lookup_s": busy[("core.checkpoint", "lookup")],
        "core.checkpoint.lookups": lookups,
        "core.checkpoint.hit_ratio": _ratio(
            sums[("core.checkpoint", "lookup", "hit")], lookups
        ),
        "core.checkpoint.save_s": busy[("core.checkpoint", "save")],
        "core.checkpoint.load_s": busy[("core.checkpoint", "load")],
        "core.merge.self_s": busy[("core.merge", "merge")],
        "core.merge.candidates_total": int(sums[("core.merge", "merge", "total")]),
        "core.merge.candidates_pruned": int(sums[("core.merge", "merge", "pruned")]),
        "core.merge.candidates_evaluated": int(sums[("core.merge", "merge", "evaluated")]),
        "provenance.ledger.record_s": busy[("provenance.ledger", "record")],
        "provenance.ledger.import_s": busy[("provenance.ledger", "import")],
        "provenance.ledger.rows": int(
            sums[("provenance.ledger", "record", "rows")]
            + sums[("provenance.ledger", "import", "rows")]
        ),
        "core.persistence.write_s": layer_busy("core.persistence", exclude=("load",)),
        "core.persistence.bytes_written": int(bytes_written),
        "core.persistence.bytes_written_per_push": _ratio(bytes_written, pushes),
        "core.persistence.load_s": busy[("core.persistence", "load")],
        "remote.protocol.encode_s": busy[("remote.protocol", "encode")],
        "remote.protocol.decode_s": busy[("remote.protocol", "decode")],
        "remote.protocol.bytes": int(
            sums[("remote.protocol", "encode", "bytes")]
            + sums[("remote.protocol", "decode", "bytes")]
        ),
        "remote.transport.call_s": call_seconds,
        "remote.transport.calls": calls[(CLIENT_CALL_LAYER, "call")],
        "remote.transport.http_framing_s": busy[(CLIENT_CALL_LAYER, "call")],
        "remote.client.self_s": layer_busy("remote.client"),
        "remote.client.rpcs_per_push": _ratio(push_rpcs, pushes),
        "remote.client.overload_retries": overload_retries,
        "hub.hub.admission_s": layer_busy("hub.hub"),
        "remote.server.handle_s": layer_busy("remote.server", exclude=("lock_wait",)),
        "remote.server.cache_hit_ratio": _ratio(
            sums[("remote.server", "cache", "hit")], cache
        ),
        "remote.server.lock_wait_s": busy[("remote.server", "lock_wait")],
    }
    for kind, total in op_total.items():
        unattributed = busy[(OP_LAYER, kind)]
        metrics[f"unattributed.{kind}_s"] = unattributed
        metrics[f"attributed_share.{kind}"] = _ratio(total - unattributed, total)
        metrics[f"ops.{kind}"] = op_count[kind]
    return metrics
