"""Server hardening: malformed requests get typed errors, never dead threads.

Regression tests for the failure mode where a malformed push (e.g. a ref
update missing ``"new"``) escaped ``handle_bytes`` as a raw ``KeyError``,
killing the HTTP handler thread so the client saw a dropped connection.
Every request here must come back as a *typed* error response — and the
server must keep serving afterwards.
"""

import pytest

from repro.errors import (
    RemoteError,
    RemoteProtocolError,
    TransportError,
)
from repro.remote import (
    HttpTransport,
    LocalTransport,
    RepositoryServer,
    clone_repository,
    encode_message,
    serve,
)
from repro.remote.protocol import decode_message, raise_remote_error
from repro.remote.server import validate_request


def call_raw(transport, meta, blobs=None):
    """Send a hand-built request; re-raise any typed error like a client."""
    response = transport.call(encode_message(meta, blobs))
    meta_out, blobs_out = decode_message(response)
    raise_remote_error(meta_out)
    return meta_out, blobs_out


def assert_still_serving(transport):
    meta, _ = call_raw(transport, {"op": "manifest"})
    assert "refs" in meta


class TestMalformedRequests:
    def test_garbage_bytes_yield_typed_error(self, transport):
        response = transport.call(b"\x00\x01definitely not a frame")
        meta, _ = decode_message(response)
        assert meta["error"]["type"] == "RemoteProtocolError"
        assert_still_serving(transport)

    def test_truncated_frame_yields_typed_error(self, transport):
        whole = encode_message({"op": "manifest"})
        response = transport.call(whole[: len(whole) - 3])
        meta, _ = decode_message(response)
        assert meta["error"]["type"] == "RemoteProtocolError"
        assert_still_serving(transport)

    @pytest.mark.parametrize("op", ["steal_chunks", ["push"], {"push": 1}, None])
    def test_unknown_op_rejected(self, transport, op):
        # A non-string op (unhashable, even) is just another unknown op.
        with pytest.raises(RemoteProtocolError, match="unknown operation"):
            call_raw(transport, {"op": op})
        assert_still_serving(transport)

    def test_push_ref_update_missing_new_is_typed_not_keyerror(
        self, transport, server_repo, workload
    ):
        """The original bug: ``update["new"]`` raised KeyError server-side."""
        old_head = server_repo.branches.head(workload.name, "master")
        with pytest.raises(RemoteProtocolError, match="'new'"):
            call_raw(
                transport,
                {
                    "op": "push",
                    "refs": {workload.name: {"master": {"old": old_head}}},
                },
            )
        # Nothing moved, and the server still answers.
        assert server_repo.branches.head(workload.name, "master") == old_head
        assert_still_serving(transport)

    @pytest.mark.parametrize(
        "meta",
        [
            {"op": "push", "refs": ["not", "a", "dict"]},
            {"op": "push", "refs": {"p": {"master": "just-a-string"}}},
            {"op": "push", "refs": {"p": {"master": {"new": ""}}}},
            {"op": "push", "refs": {"p": {"master": {"new": "x", "old": 42}}}},
            {"op": "push", "commits": [{"sequence": 0}]},
            {"op": "push", "commits": [{"commit_id": "c", "sequence": "zero"}]},
            {"op": "push", "commits": ["not-a-dict"]},
            {"op": "push", "recipes": "nope"},
            {"op": "push", "records": [17]},
            {"op": "push", "specs": []},
            {"op": "push", "chunk_digests": [1, 2]},
            {"op": "fetch", "want": "everything"},
            {"op": "fetch", "want": {"p": "master"}},
            {"op": "fetch", "have_commits": [None]},
            {"op": "known_commits", "ids": "abc"},
            {"op": "missing_chunks", "digests": [42]},
            {"op": "get_chunks", "digests": {}},
            {"op": "get_chunks", "digests": [], "max_bytes": -5},
            {"op": "get_chunks", "digests": [], "max_bytes": True},
            {"op": "put_chunks", "digests": ["d0", "d1"]},  # no blobs
        ],
    )
    def test_bad_schema_rejected_up_front(self, transport, meta):
        with pytest.raises(RemoteProtocolError):
            call_raw(transport, meta)
        assert_still_serving(transport)

    def test_push_chunk_manifest_mismatch_is_typed(self, transport):
        with pytest.raises(RemoteProtocolError, match="digests but"):
            call_raw(
                transport,
                {"op": "push", "chunk_digests": ["d0", "d1"]},
                [b"only-one-blob"],
            )
        assert_still_serving(transport)

    def test_push_with_unbacked_recipe_rejected_before_import(
        self, transport, server_repo, workload
    ):
        """A schema-valid push whose recipe references chunks neither in
        the pack nor on the server must be rejected, or every later fetch
        of that branch would advertise unservable content."""
        old_head = server_repo.branches.head(workload.name, "master")
        with pytest.raises(RemoteProtocolError, match="neither included"):
            call_raw(
                transport,
                {
                    "op": "push",
                    "commits": [],
                    "recipes": [
                        {"blob": "b" * 64, "chunks": ["f" * 64], "size": 10}
                    ],
                    "records": [],
                    "chunk_digests": [],
                    "refs": {},
                },
            )
        # The poisoned recipe never landed: fetches stay fully servable.
        for recipe in server_repo.objects.recipes():
            for digest in recipe.chunk_digests:
                assert server_repo.objects.chunks.contains(digest)
        assert server_repo.branches.head(workload.name, "master") == old_head
        assert_still_serving(transport)

    @pytest.mark.parametrize(
        "recipe",
        [
            {"chunks": ["c" * 64], "size": 1},
            {"blob": "b" * 64, "size": 1},
            {"blob": "b" * 64, "chunks": "not-a-list", "size": 1},
            {"blob": "b" * 64, "chunks": [], "size": "big"},
        ],
    )
    def test_malformed_recipe_rejected_up_front(self, transport, recipe):
        with pytest.raises(RemoteProtocolError, match="recipe"):
            call_raw(transport, {"op": "push", "recipes": [recipe]})
        assert_still_serving(transport)

    def test_failed_integrity_push_leaves_no_orphan_commits(
        self, transport, server_repo, workload
    ):
        """Commits must not graft before their content verifies: orphans
        would let a retry fast-forward the ref onto a commit whose
        recipes/chunks the server never stored."""
        from repro.remote import clone_repository

        clone = clone_repository(transport, registry=server_repo.registry)
        commit, _ = clone.commit(
            workload.name, {"model": workload.model_version(2)}, message="new"
        )
        chunks = clone.objects.chunks._chunks
        victim = server_repo.objects.chunks.missing(list(chunks))[0]
        original = chunks[victim]
        chunks[victim] = original + b"tampered"
        with pytest.raises(RemoteError, match="integrity"):
            clone.remote("origin").push(workload.name, "master")
        # No orphan landed; the repaired retry pushes the full pack.
        assert commit.commit_id not in server_repo.graph
        chunks[victim] = original
        result = clone.remote("origin").push(workload.name, "master")
        assert result.commits_sent == 1
        assert server_repo.branches.head(workload.name, "master") == commit.commit_id
        head = server_repo.head_commit(workload.name)
        for ref in head.stage_outputs.values():
            server_repo.objects.get(ref)

    def test_unexpected_internal_error_is_contained(self, server_repo):
        server = RepositoryServer(server_repo)
        transport = LocalTransport(server)

        def explode(meta, blobs):
            raise RuntimeError("boom")

        server._op_manifest = explode
        with pytest.raises(RemoteProtocolError, match="internal server error"):
            call_raw(transport, {"op": "manifest"})
        del server._op_manifest
        assert_still_serving(transport)

    @pytest.mark.parametrize(
        "rows,message",
        [
            (
                {"commits": [{"commit_id": "c" * 64, "sequence": 0}]},
                r"commits\[0\]: KeyError: 'pipeline'",
            ),
            (
                {"records": [{"component_id": "x", "output_ref": "y"}]},
                r"records\[0\]: KeyError: 'key'",
            ),
            (
                {"lineage": [{"stage": "model"}]},
                r"lineage\[0\]: KeyError: 'checkpoint_key'",
            ),
        ],
    )
    def test_undecodable_push_row_rejected_before_any_import(self, rows, message):
        """A push whose chunk and recipe are valid but one of whose rows
        its codec cannot read used to import the content, then fail with
        an internal KeyError: a partial mutation."""
        from repro import MLCask
        from repro.storage import sha256_hex

        server = RepositoryServer(MLCask(metric="accuracy", seed=0))
        blob = b"pushed content" * 16
        digest = sha256_hex(blob)
        before = server._state_token()
        with pytest.raises(
            RemoteProtocolError, match=r"invalid push request: " + message
        ):
            call_raw(
                LocalTransport(server),
                {
                    "op": "push",
                    "chunk_digests": [digest],
                    "recipes": [
                        {"blob": "b" * 64, "chunks": [digest], "size": len(blob)}
                    ],
                    **rows,
                },
                [blob],
            )
        assert server._state_token() == before

    def test_validate_request_accepts_wellformed_push(self):
        validate_request(
            "push",
            {
                "commits": [{"commit_id": "c", "sequence": 0}],
                "specs": {},
                "recipes": [],
                "records": [],
                "chunk_digests": ["d"],
                "refs": {"p": {"master": {"old": None, "new": "c"}}},
            },
            [b"blob"],
        )


class TestHttpHardening:
    """The same containment over a real socket: HTTP status mapping and
    keep-alive connections that survive bad requests."""

    @pytest.fixture
    def http_server(self, server_repo):
        import threading

        server = serve(server_repo, host="127.0.0.1", port=0)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        yield server
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)

    def test_malformed_push_over_http_is_typed_and_connection_survives(
        self, http_server, server_repo, workload
    ):
        transport = HttpTransport(http_server.url)
        with pytest.raises(RemoteProtocolError, match="'new'"):
            call_raw(
                transport,
                {"op": "push", "refs": {workload.name: {"master": {}}}},
            )
        # Same transport, same keep-alive connection: no reconnect needed.
        assert_still_serving(transport)
        assert transport.reconnects == 0
        transport.close()

    def test_garbage_body_over_http(self, http_server):
        transport = HttpTransport(http_server.url)
        response = transport.call(b"not a frame at all")
        meta, _ = decode_message(response)
        assert meta["error"]["type"] == "RemoteProtocolError"
        assert_still_serving(transport)
        transport.close()

    def test_handler_failure_maps_to_http_500_with_detail(
        self, http_server, server_repo
    ):
        """A failure *outside* handle_bytes's containment becomes HTTP 500
        with an error body the client surfaces — not a dropped socket."""
        repository_server = http_server.repository_server
        original = repository_server.handle_bytes
        repository_server.handle_bytes = lambda payload: (_ for _ in ()).throw(
            RuntimeError("handler blew up")
        )
        transport = HttpTransport(http_server.url)
        try:
            with pytest.raises(TransportError, match="HTTP 500") as excinfo:
                transport.call(encode_message({"op": "manifest"}))
            assert "handler blew up" in str(excinfo.value)
        finally:
            repository_server.handle_bytes = original
        # The server is still alive and serving new connections.
        assert_still_serving(transport)
        transport.close()

    def test_oversized_request_rejected_with_413(self, server_repo):
        import threading

        server = serve(server_repo, host="127.0.0.1", port=0, max_request_bytes=64)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            transport = HttpTransport(server.url)
            with pytest.raises(TransportError, match="413"):
                transport.call(encode_message({"op": "manifest", "pad": "x" * 256}))
            small = HttpTransport(server.url)
            assert_still_serving(small)
            small.close()
            transport.close()
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=5)

    def test_clone_still_works_after_an_attack_burst(
        self, http_server, server_repo
    ):
        """A burst of malformed traffic must not degrade the endpoint."""
        hostile = HttpTransport(http_server.url)
        for payload in (b"", b"junk", encode_message({"op": "push", "refs": 1})):
            meta, _ = decode_message(hostile.call(payload))
            assert "error" in meta
        hostile.close()
        clone = clone_repository(
            HttpTransport(http_server.url), registry=server_repo.registry
        )
        assert len(clone.graph) == len(server_repo.graph)
