"""Wire format for the remote-sync protocol: framed JSON + raw chunks.

Every request and response is one *message*: a JSON header (the ``meta``
dict) followed by zero or more opaque binary blobs — chunk payloads
travelling to or from a peer's content-addressed store. The framing is
deliberately git-packfile-ish: metadata is cheap structured text, content
is raw bytes concatenated after it, so measured wire bytes honestly
reflect what a transfer costs (no base64 inflation of chunk data).

Layout::

    MAGIC (4 bytes) | header length (u32 BE) | header JSON (UTF-8) | blobs...

where the header is ``{"meta": {...}, "blob_sizes": [n0, n1, ...]}`` and
the blobs follow back-to-back in declared order. Decoding is strict: bad
magic, truncated frames, or trailing garbage raise
:class:`RemoteProtocolError` rather than yielding partial messages.

The ``meta`` dict carries the operation name (requests) or results
(responses); an error response carries ``{"error": {"type", "message",
...}}`` which :func:`raise_remote_error` maps back onto the library's
exception hierarchy client-side.
"""

from __future__ import annotations

import json
import struct
from collections.abc import Callable
from dataclasses import dataclass, field
from typing import Any, NamedTuple

from ..errors import (
    AuthenticationError,
    AuthorizationError,
    HubError,
    LineageNotFoundError,
    PushRejectedError,
    QuotaExceededError,
    RateLimitedError,
    RemoteError,
    RemoteProtocolError,
    RepositoryNotFoundError,
    ServerOverloadedError,
)

MAGIC = b"MLCR"
#: v2: windowed ``get_chunks`` (``remaining`` count, server-enforced
#: ``max_pack_bytes`` bound) and the ``put_chunks`` operation. The bump is
#: deliberate: a v1 peer fetching from a windowing server would silently
#: import a truncated chunk set; a loud version error is the safe failure.
PROTOCOL_VERSION = 2


# ------------------------------------------------------------ op schema
class FieldKind(NamedTuple):
    """How request validation type-checks one meta field. A field the
    request leaves out always passes (handlers apply the default)."""

    accepts: Callable[[Any], bool]
    #: Completes "'<field>' must be ..." in the rejection message.
    expected: str


def _is_int(value) -> bool:
    """An integer that is not a ``bool`` (``True`` is no sequence number)."""
    return isinstance(value, int) and not isinstance(value, bool)


def _is_str_list(value) -> bool:
    return isinstance(value, list) and all(isinstance(v, str) for v in value)


STR_LIST = FieldKind(_is_str_list, "a list of strings")
DICT_LIST = FieldKind(
    lambda v: isinstance(v, list) and all(isinstance(e, dict) for e in v),
    "a list of dicts",
)
DICT = FieldKind(lambda v: isinstance(v, dict), "a dict")
OPT_STR = FieldKind(lambda v: v is None or isinstance(v, str), "null or a string")
OPT_POS_INT = FieldKind(
    lambda v: v is None or (_is_int(v) and v > 0), "a positive integer"
)
BOOL = FieldKind(lambda v: isinstance(v, bool), "a boolean")

#: A cross-field rule: ``check(meta, blobs)`` returns what is wrong with
#: the request, or None. Checks run after every field has its kind.
Check = Callable[[dict, list], "str | None"]


@dataclass(frozen=True)
class OpSpec:
    """One operation's entry in :data:`OPS`.

    ``mutates``: served under the exclusive lock side, invalidates the
    response cache, and is quota-checked by the hub. ``cacheable``: a
    read whose response is a pure function of repository state, served
    from the server's response cache (``lineage`` qualifies: the state
    token carries the ledger revision). ``shed_exempt``: never shed by hub
    overload admission — the probes an operator needs precisely when the
    server is overloaded. ``preflight``: a read a push performs before its
    first write, answered with empty-repo semantics by a hub repository
    that does not exist yet. ``budget_s``: the op's p99 latency budget —
    the SLO default objective, the slow-op capture threshold and the span
    exporter's keep-if-slow threshold. ``fields``/``checks``: the request
    schema :func:`repro.remote.server.validate_request` interprets.
    """

    budget_s: float
    mutates: bool = False
    cacheable: bool = False
    shed_exempt: bool = False
    preflight: bool = False
    fields: dict[str, FieldKind] = field(default_factory=dict)
    checks: tuple[Check, ...] = ()


def blobs_match(key: str) -> Check:
    """The digest list under ``key`` pairs one-to-one with the blobs."""

    def check(meta: dict, blobs: list) -> str | None:
        digests = meta.get(key, [])
        if len(digests) != len(blobs):
            return f"{len(digests)} chunk digests but {len(blobs)} blobs"
        return None

    return check


def want_shape(meta: dict, blobs: list) -> str | None:
    want = meta.get("want")
    if want is None:
        return None
    if not isinstance(want, dict):
        return "'want' must be null or {pipeline: [branch, ...]}"
    for pipeline, branches in want.items():
        if not isinstance(pipeline, str) or not _is_str_list(branches):
            return "'want' must map pipeline names to branch lists"
    return None


def commit_rows(meta: dict, blobs: list) -> str | None:
    for entry in meta.get("commits", []):
        if not isinstance(entry.get("commit_id"), str):
            return "every commit needs a string 'commit_id'"
        if not _is_int(entry.get("sequence")):
            return "every commit needs an integer 'sequence'"
    return None


def recipe_rows(meta: dict, blobs: list) -> str | None:
    for entry in meta.get("recipes", []):
        if (
            not isinstance(entry.get("blob"), str)
            or not _is_str_list(entry.get("chunks"))
            or not _is_int(entry.get("size"))
        ):
            return (
                "every recipe needs a string 'blob', a 'chunks' list of "
                "strings, and an integer 'size'"
            )
    return None


def ref_updates(meta: dict, blobs: list) -> str | None:
    for pipeline, branches in meta.get("refs", {}).items():
        if not isinstance(pipeline, str) or not isinstance(branches, dict):
            return "'refs' must be {pipeline: {branch: {old, new}}}"
        for branch, update in branches.items():
            if not isinstance(branch, str) or not isinstance(update, dict):
                return "every ref update must be a {old, new} dict"
            if not isinstance(update.get("new"), str) or not update["new"]:
                return (
                    f"ref update for {pipeline}:{branch} is missing a "
                    "non-empty 'new' head"
                )
            old = update.get("old")
            if old is not None and not isinstance(old, str):
                return (
                    f"ref update for {pipeline}:{branch} has a non-string "
                    "'old' head"
                )
    return None


#: The query forms one ``lineage`` request can carry, each with the
#: string field it needs.
LINEAGE_QUERIES = {
    "lineage": "ref",
    "consumers": "ref",
    "impact": "component",
    "trace": "trace_id",
}


def lineage_query(meta: dict, blobs: list) -> str | None:
    query = meta.get("query")
    if query not in LINEAGE_QUERIES:
        return f"'query' must be one of {tuple(LINEAGE_QUERIES)}"
    needed = LINEAGE_QUERIES[query]
    if not isinstance(meta.get(needed), str):
        return f"a {query!r} query needs a string {needed!r}"
    return None


#: The op table: everything the serving stack knows about an operation,
#: in one place. Anything not listed is a protocol error. ``stats``
#: (telemetry readout), ``lineage`` (provenance queries), ``trace``
#: (distributed-trace / slow-op readout), and ``health`` (sliding-window
#: health report, :mod:`repro.obs.health`) are schema-additive: old
#: clients never send them, and an old server answers them with a typed
#: unknown-operation error — no version bump needed. The same rule covers
#: the optional ``trace_ctx`` meta key (distributed-trace propagation,
#: :mod:`repro.obs.propagation`): an old server ignores unknown meta keys,
#: so traced clients interoperate with legacy peers.
#:
#: No per-op fact lives anywhere else (see :class:`OpSpec` for who reads
#: each field). ``repro lint`` reads this literal structurally (op names,
#: ``mutates=True``), so keep it a dict literal of ``OpSpec(...)`` calls.
OPS: dict[str, OpSpec] = {
    "manifest": OpSpec(budget_s=0.5, cacheable=True, preflight=True),
    "known_commits": OpSpec(
        budget_s=0.5, cacheable=True, preflight=True, fields={"ids": STR_LIST}
    ),
    "missing_chunks": OpSpec(
        budget_s=0.5, cacheable=True, preflight=True,
        fields={"digests": STR_LIST},
    ),
    # A read, but not cacheable: content reads are already O(1) store
    # lookups, and each response is up to a full pack window — the wrong
    # trade for a metadata cache.
    "get_chunks": OpSpec(
        budget_s=2.0, fields={"digests": STR_LIST, "max_bytes": OPT_POS_INT}
    ),
    "put_chunks": OpSpec(
        budget_s=5.0, mutates=True, fields={"digests": STR_LIST},
        checks=(blobs_match("digests"),),
    ),
    "fetch": OpSpec(
        budget_s=2.0, cacheable=True, fields={"have_commits": STR_LIST},
        checks=(want_shape,),
    ),
    "push": OpSpec(
        budget_s=5.0,
        mutates=True,
        fields={
            "commits": DICT_LIST,
            "specs": DICT,
            "recipes": DICT_LIST,
            "records": DICT_LIST,
            "lineage": DICT_LIST,
            "chunk_digests": STR_LIST,
            "refs": DICT,
        },
        checks=(commit_rows, recipe_rows, blobs_match("chunk_digests"), ref_updates),
    ),
    "stats": OpSpec(budget_s=0.5, shed_exempt=True),
    "lineage": OpSpec(
        budget_s=1.0,
        cacheable=True,
        fields={
            "ref": OPT_STR,
            "component": OPT_STR,
            "version": OPT_STR,
            "trace_id": OPT_STR,
        },
        checks=(lineage_query,),
    ),
    "trace": OpSpec(
        budget_s=1.0,
        shed_exempt=True,
        fields={"trace_id": OPT_STR, "limit": OPT_POS_INT, "slow": BOOL},
    ),
    "health": OpSpec(budget_s=0.5, shed_exempt=True),
}


def op_spec(op) -> OpSpec:
    """The table entry for a request's ``op``. Anything else is a typed
    unknown-operation error — a non-string op (a list, a dict) included,
    which a bare table lookup would turn into a ``TypeError``."""
    spec = OPS.get(op) if isinstance(op, str) else None
    if spec is None:
        raise RemoteProtocolError(f"unknown operation {op!r}")
    return spec


def encode_message(meta: dict, blobs: list[bytes] | None = None) -> bytes:
    """Frame ``meta`` plus binary ``blobs`` into one wire message."""
    blobs = blobs or []
    header = json.dumps(
        {"v": PROTOCOL_VERSION, "meta": meta, "blob_sizes": [len(b) for b in blobs]},
        separators=(",", ":"),
        sort_keys=True,
    ).encode("utf-8")
    return b"".join([MAGIC, struct.pack(">I", len(header)), header, *blobs])


def decode_message(data: bytes) -> tuple[dict, list[bytes]]:
    """Inverse of :func:`encode_message`; strict about every byte."""
    if len(data) < 8 or data[:4] != MAGIC:
        raise RemoteProtocolError("bad magic: not a remote-sync message")
    (header_len,) = struct.unpack(">I", data[4:8])
    header_end = 8 + header_len
    if len(data) < header_end:
        raise RemoteProtocolError("truncated message header")
    try:
        header = json.loads(data[8:header_end].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise RemoteProtocolError(f"unparseable header: {error}") from None
    if header.get("v") != PROTOCOL_VERSION:
        raise RemoteProtocolError(
            f"unsupported protocol version {header.get('v')!r}"
        )
    if not isinstance(header.get("meta"), dict):
        raise RemoteProtocolError("header carries no meta object")
    sizes = header.get("blob_sizes", [])
    if not isinstance(sizes, list) or any(
        not isinstance(s, int) or isinstance(s, bool) or s < 0 for s in sizes
    ):
        raise RemoteProtocolError("invalid blob_sizes in header")
    blobs = []
    cursor = header_end
    for size in sizes:
        blob = data[cursor : cursor + size]
        if len(blob) != size:
            raise RemoteProtocolError("truncated message blob")
        blobs.append(blob)
        cursor += size
    if cursor != len(data):
        raise RemoteProtocolError("trailing bytes after declared blobs")
    return header["meta"], blobs


def error_response(error: Exception) -> bytes:
    """Serialize a server-side failure into an error message."""
    payload: dict = {
        "type": type(error).__name__,
        "message": str(error),
    }
    if isinstance(error, PushRejectedError):
        payload.update(
            pipeline=error.pipeline, branch=error.branch, reason=error.reason
        )
    if isinstance(error, ServerOverloadedError):
        payload.update(retry_after=error.retry_after)
    return encode_message({"error": payload})


#: Error types that reconstruct client-side from their message alone.
#: Hub admission denials live here: a client must be able to tell an
#: auth failure from a quota denial from a rate limit programmatically,
#: not by parsing prose. ``LineageNotFoundError`` rides along so a
#: lineage query about an unrecorded ref fails typed, not generic.
TYPED_ERRORS = {
    cls.__name__: cls
    for cls in (
        AuthenticationError,
        AuthorizationError,
        HubError,
        LineageNotFoundError,
        QuotaExceededError,
        RateLimitedError,
        RepositoryNotFoundError,
    )
}


def raise_remote_error(meta: dict) -> None:
    """Re-raise a server-reported error client-side, typed when possible."""
    error = meta.get("error")
    if error is None:
        return
    if error.get("type") == "PushRejectedError":
        raise PushRejectedError(
            error.get("pipeline", "?"),
            error.get("branch", "?"),
            error.get("reason", error.get("message", "rejected")),
        )
    if error.get("type") == "RemoteProtocolError":
        raise RemoteProtocolError(
            f"remote rejected request: {error.get('message')}"
        )
    if error.get("type") == "ServerOverloadedError":
        # Special-cased (not TYPED_ERRORS) to reconstruct the backoff
        # hint: clients schedule their retry off ``retry_after``.
        raise ServerOverloadedError(
            error.get("message", "server overloaded; retry later"),
            retry_after=float(error.get("retry_after", 1.0)),
        )
    typed = TYPED_ERRORS.get(error.get("type"))
    if typed is not None:
        raise typed(error.get("message", "rejected by the remote hub"))
    raise RemoteError(f"remote error: {error.get('type')}: {error.get('message')}")
