"""Repository persistence: save/load the version-control state.

What persists is the *metadata* half of MLCask — the commit graph, branch
pointers, specs, and per-commit component references. Component
*executables* are Python callables and live in workload code, so loading
re-binds commits to components through a registry the caller provides
(the same separation the paper uses: the library repository stores
executables, the pipeline repository stores references).

Two layouts are supported:

* a single JSON file (:func:`save_repository` / :func:`load_repository`)
  holding only the version-control state, written atomically. A
  repository loaded this way starts with an empty checkpoint store and
  repopulates it lazily on the next runs (every re-execution is
  deterministic, so the archive converges to the same content);
* a *repository directory* (:func:`save_repository_dir` /
  :func:`load_repository_dir`) that additionally persists the
  content-addressed store, so a reloaded repository can serve clones and
  reuse archived outputs without re-running anything. This is the
  on-disk format behind the ``repro serve/clone/push/pull`` CLI verbs,
  and a hub keeps each hosted repository in the same format (minus the
  chunk bytes, which live in its shared backend).

Directory layout (format 2)::

    <dir>/state.json            root manifest: format, metric, seed, specs,
                                heads, commit counts, sequence, and for
                                each journal [generation, committed bytes]
    <dir>/commits.<g>.jsonl     commits, parents before children
    <dir>/recipes.<g>.jsonl     blob digest -> ordered chunk digests
    <dir>/records.<g>.jsonl     checkpoint index (reuse metadata)
    <dir>/lineage.<g>.jsonl     provenance ledger rows
    <dir>/holdings.<g>.jsonl    [digest, size] of every chunk held
    <dir>/objects/ab/cdef..     chunk bytes, git-style fan-out
                                (repository directories only)

Each journal line is one entry framed as ``<crc32 hex> <json>\\n``. A
journal is only ever read up to the byte length the manifest commits
to: anything past it is the torn or uncommitted tail of a crashed save.

A save (:func:`write_repository_journal`, the one writer) goes in this
order:

1. chunk bytes (repository directories only: just the new chunks);
2. journal entries added since the last committed manifest, appended
   after truncating any uncommitted tail;
3. the manifest, via :func:`write_json_atomic` (temp file +
   ``os.replace``). **The rename is the commit point**: a process crash
   at any earlier step leaves the previous manifest, which names only
   bytes that were complete before the save began.

Compaction rule: while a store only grows, its journal only grows. A
store that changed any other way since the last save — gc sweeping
chunks or recipes, a checkpoint prune or overwrite, a ledger row
back-filled or flagged collected — is detected from its ``revision``
outrunning its length, and its journal is rewritten whole into the next
generation file; the manifest switches to it atomically, and the
superseded files (and, for a directory, unheld chunk files) are removed
after the commit point. A save that finds nothing changed writes
nothing at all.

Guarantee: consistency across a *process* crash. Nothing is fsynced, so
surviving power loss is out of scope. A directory in an older format is
rejected with a :class:`RepositoryError` naming its format; no reader
for, or migration from, format 1 is kept.

The per-object dict codecs (:func:`commit_to_dict` & friends) are shared
with the remote-sync wire protocol: a pack travelling over a transport
and a state file resting on disk serialize commits identically.
"""

from __future__ import annotations

import json
import os
import zlib
from dataclasses import dataclass

from ..errors import RepositoryError
from ..provenance.ledger import lineage_record_from_dict, lineage_record_to_dict
from ..storage.chunk_store import ChunkStore, FileChunkStore
from ..storage.object_store import ObjectStore, Recipe
from .checkpoint import CheckpointRecord
from .commit import PipelineCommit
from .pipeline import PipelineSpec
from .semver import SemVer

#: Format of the single-file snapshot (:func:`save_repository`).
FORMAT_VERSION = 1
#: Format of a repository directory's root manifest.
DIR_FORMAT_VERSION = 2

STATE_FILE = "state.json"
OBJECTS_DIR = "objects"
JOURNALS = ("commits", "recipes", "records", "lineage", "holdings")
JOURNAL_SUFFIX = ".jsonl"


def write_json_atomic(path: str, payload: dict, **dump_kwargs) -> None:
    """Write-to-temp + rename, like the chunk store's object files: a
    crashed writer must never leave a truncated metadata file under its
    real name — loaders would fail on it and the repository (or a whole
    hub) would be unreadable until repaired by hand."""
    tmp = path + ".tmp"
    with open(tmp, "w") as fh:
        json.dump(payload, fh, **dump_kwargs)
    os.replace(tmp, path)


# ------------------------------------------------------------- dict codecs
def commit_to_dict(commit: PipelineCommit) -> dict:
    return {
        "commit_id": commit.commit_id,
        "pipeline": commit.pipeline,
        "version": commit.version.dotted,
        "branch": commit.branch,
        "parents": list(commit.parents),
        "component_versions": dict(commit.component_versions),
        "component_fingerprints": dict(commit.component_fingerprints),
        "stage_outputs": dict(commit.stage_outputs),
        "metrics": dict(commit.metrics),
        "score": commit.score,
        "message": commit.message,
        "author": commit.author,
        "sequence": commit.sequence,
    }


def commit_from_dict(entry: dict) -> PipelineCommit:
    return PipelineCommit(
        commit_id=entry["commit_id"],
        pipeline=entry["pipeline"],
        version=SemVer.parse_dotted(entry["version"]),
        branch=entry["branch"],
        parents=tuple(entry["parents"]),
        component_versions=entry["component_versions"],
        component_fingerprints=entry["component_fingerprints"],
        stage_outputs=entry["stage_outputs"],
        metrics=entry["metrics"],
        score=entry["score"],
        message=entry["message"],
        author=entry["author"],
        sequence=entry["sequence"],
    )


def spec_to_dict(spec: PipelineSpec) -> dict:
    return {
        "stages": list(spec.stages),
        "edges": [list(edge) for edge in spec.edges],
    }


def spec_from_dict(name: str, entry: dict) -> PipelineSpec:
    return PipelineSpec(
        name=name,
        stages=tuple(entry["stages"]),
        edges=tuple(tuple(edge) for edge in entry["edges"]),
    )


def recipe_to_dict(recipe: Recipe) -> dict:
    return {
        "blob": recipe.blob_digest,
        "chunks": list(recipe.chunk_digests),
        "size": recipe.size,
    }


def recipe_from_dict(entry: dict) -> Recipe:
    return Recipe(
        blob_digest=entry["blob"],
        chunk_digests=tuple(entry["chunks"]),
        size=entry["size"],
    )


def record_to_dict(record: CheckpointRecord) -> dict:
    return {
        "key": record.key,
        "component_id": record.component_id,
        "output_ref": record.output_ref,
        "output_bytes": record.output_bytes,
        "run_seconds": record.run_seconds,
        "metrics": dict(record.metrics),
    }


def record_from_dict(entry: dict) -> CheckpointRecord:
    return CheckpointRecord(
        key=entry["key"],
        component_id=entry["component_id"],
        output_ref=entry["output_ref"],
        output_bytes=entry["output_bytes"],
        run_seconds=entry["run_seconds"],
        metrics=dict(entry["metrics"]),
    )


# ------------------------------------------------------------- state file
def repository_state(repo) -> dict:
    """The refs half of a repository's state: everything but the history
    (commits and content). It is small, so a directory save rewrites it
    whole, inside the manifest."""
    pipelines = repo.branches.pipelines()
    return {
        "metric": repo.metric,
        "seed": repo.seed,
        "specs": {name: spec_to_dict(repo.spec(name)) for name in pipelines},
        "heads": {
            pipeline: {
                branch: repo.branches.head(pipeline, branch)
                for branch in repo.branches.branches(pipeline)
            }
            for pipeline in pipelines
        },
        "commit_counts": {
            pipeline: {
                branch: repo.branches.next_commit_count(pipeline, branch)
                for branch in repo.branches.branches(pipeline)
            }
            for pipeline in pipelines
        },
        "sequence": repo._sequence,
    }


def _apply_state(repo, state: dict) -> None:
    for name, spec_state in state["specs"].items():
        repo._specs[name] = spec_from_dict(name, spec_state)
    for pipeline, branches in state["heads"].items():
        for branch, head in branches.items():
            repo.branches.set_head(pipeline, branch, head)
    for pipeline, branches in state["commit_counts"].items():
        for branch, count in branches.items():
            for _ in range(count):
                repo.branches.note_commit(pipeline, branch)
    repo._sequence = state["sequence"]


def save_repository(repo, path: str | os.PathLike[str]) -> None:
    """Write the repository state to ``path`` as JSON, atomically."""
    state = {
        **repository_state(repo),
        "format": FORMAT_VERSION,
        "commits": [commit_to_dict(c) for c in repo.graph.all_commits()],
    }
    write_json_atomic(os.fspath(path), state, indent=2, sort_keys=True)


def load_repository(path: str | os.PathLike[str], registry=None):
    """Rebuild a repository from ``path``.

    ``registry`` (a :class:`ComponentRegistry` or any object with a
    compatible ``get``/``register``) supplies the live components the
    commits reference; commits whose components are absent still load (the
    history is intact) but cannot be re-instantiated until the components
    are registered.
    """
    from .repository import MLCask

    with open(os.fspath(path)) as fh:
        state = json.load(fh)
    if state.get("format") != FORMAT_VERSION:
        raise RepositoryError(
            f"unsupported repository format {state.get('format')!r}"
        )
    repo = MLCask(metric=state["metric"], seed=state["seed"])
    if registry is not None:
        repo.registry = registry
    for entry in state["commits"]:
        repo.graph.add(commit_from_dict(entry))
    _apply_state(repo, state)
    return repo


# ------------------------------------------------------------- journals
def journal_file(name: str, generation: int) -> str:
    return f"{name}.{generation}{JOURNAL_SUFFIX}"


def _frame(entry) -> bytes:
    body = json.dumps(entry, separators=(",", ":")).encode()
    return b"%08x %s\n" % (zlib.crc32(body), body)


def _unframe(data: bytes, path: str) -> list:
    bodies = []
    for line in data.split(b"\n")[:-1]:
        crc, _, body = line.partition(b" ")
        try:
            intact = int(crc, 16) == zlib.crc32(body)
        except ValueError:
            intact = False
        if not intact:
            raise RepositoryError(f"corrupt entry in committed journal {path}")
        bodies.append(body)
    return json.loads(b"[" + b",".join(bodies) + b"]")  # one parse, not one per line


# The journal byte seams: every journal byte goes through these two.
def _journal_write(fh, data: bytes) -> None:
    fh.write(data)


def _journal_truncate(fh, length: int) -> None:
    fh.truncate(length)


def _append_journal(path: str, committed: int, data: bytes) -> None:
    """Append after the committed length, dropping an uncommitted tail."""
    with open(path, "ab") as fh:
        end = fh.tell()
        if end < committed:
            raise RepositoryError(
                f"journal {path} holds {end} bytes, fewer than the "
                f"{committed} its manifest commits to"
            )
        if end > committed:
            _journal_truncate(fh, committed)
        _journal_write(fh, data)


def _rewrite_journal(path: str, data: bytes) -> None:
    with open(path, "wb") as fh:
        _journal_write(fh, data)


def _journal_sources(repo, chunks: ChunkStore):
    """Per journal: the store whose ``revision`` tracks it, its entries in
    arrival order, and the entry codec."""
    return (
        ("commits", repo.graph, repo.graph.commits(), commit_to_dict),
        ("recipes", repo.objects, repo.objects.recipes(), recipe_to_dict),
        ("records", repo.checkpoints, repo.checkpoints.records(), record_to_dict),
        ("lineage", repo.lineage, repo.lineage.records(), lineage_record_to_dict),
        ("holdings", chunks, chunks.digests(),
         lambda digest: [digest, chunks.size_of(digest)]),
    )


def _store_marks(repo, chunks: ChunkStore) -> dict[str, tuple[int, int]]:
    """Per journal: (entries, non-append mutations). Appends move a
    store's ``revision`` and length in step; anything else (a removal, an
    amendment, an overwrite) moves only the revision, so the difference
    counts non-append mutations."""
    return {
        name: (len(entries), store.revision - len(entries))
        for name, store, entries, _ in _journal_sources(repo, chunks)
    }


@dataclass(frozen=True)
class _Committed:
    """What a repository last committed to (or loaded from) a directory:
    the manifest, the store marks it covers, and the manifest file's
    identity, so a directory rewritten behind our back is noticed."""

    root: str
    manifest: dict
    marks: dict
    identity: tuple


def _manifest_identity(root: str) -> tuple:
    st = os.stat(os.path.join(root, STATE_FILE))
    return (st.st_ino, st.st_mtime_ns, st.st_size)


def _next_generation(root: str) -> int:
    """One past every journal generation present in ``root``, committed
    or not, so a fresh write never touches a file a manifest names."""
    generation = 0
    for name in os.listdir(root):
        parts = name.split(".")
        if name.endswith(JOURNAL_SUFFIX) and len(parts) == 3 and parts[1].isdigit():
            generation = max(generation, int(parts[1]))
    return generation + 1


def _last_commit(repo, root: str) -> _Committed | None:
    last = repo._persisted
    if last is None or last.root != root:
        return None
    try:
        if _manifest_identity(root) == last.identity:
            return last
    except OSError:
        pass
    return None


def write_repository_journal(
    repo, root: str | os.PathLike[str], chunks: ChunkStore,
    disk: FileChunkStore | None = None,
) -> None:
    """Persist ``repo`` under ``root``: the one repository writer.

    ``chunks`` is the store whose membership the holdings journal
    records; ``disk``, when given, receives the chunk bytes (a hub passes
    none — its bytes already live in the shared backend). See the module
    docstring for the write order and compaction rule.
    """
    root = os.path.abspath(os.fspath(root))
    os.makedirs(root, exist_ok=True)
    last = _last_commit(repo, root)
    fresh_generation = None if last is not None else _next_generation(root)
    journals: dict[str, list[int]] = {}
    writes = []
    marks = {}
    new_digests: list[str] = []
    holdings_rewritten = False
    for name, store, entries, codec in _journal_sources(repo, chunks):
        mark = store.revision - len(entries)
        marks[name] = (len(entries), mark)
        persisted = last.marks[name] if last is not None else None
        if persisted is not None and persisted[1] == mark:
            generation, length = last.manifest["journals"][name]
            added = entries[persisted[0]:]
            if added:
                data = b"".join(_frame(codec(e)) for e in added)
                writes.append((name, generation, length, data))
                length += len(data)
        else:
            generation = (
                fresh_generation
                if fresh_generation is not None
                else last.manifest["journals"][name][0] + 1
            )
            added = entries
            data = b"".join(_frame(codec(e)) for e in added)
            writes.append((name, generation, None, data))
            length = len(data)
            holdings_rewritten |= name == "holdings"
        journals[name] = [generation, length]
        if name == "holdings":
            new_digests = added
    manifest = {
        **repository_state(repo),
        "format": DIR_FORMAT_VERSION,
        "journals": journals,
    }
    if last is not None and manifest == last.manifest:
        return  # nothing changed since the last commit: write nothing

    # 1. chunk bytes
    if disk is not None:
        for digest in new_digests:
            if not disk.contains(digest):
                disk.import_chunk(digest, chunks.get(digest))
    # 2. journal entries
    for name, generation, committed, data in writes:
        path = os.path.join(root, journal_file(name, generation))
        if committed is None:
            _rewrite_journal(path, data)
        else:
            _append_journal(path, committed, data)
    # 3. the commit point
    write_json_atomic(os.path.join(root, STATE_FILE), manifest, sort_keys=True)
    repo._persisted = _Committed(root, manifest, marks, _manifest_identity(root))

    # Superseded generations and unheld chunks go only after the commit.
    if any(committed is None for _, _, committed, _ in writes):
        live = {journal_file(name, g) for name, (g, _) in journals.items()}
        for name in os.listdir(root):
            if name.endswith(JOURNAL_SUFFIX) and name not in live:
                _remove_quietly(os.path.join(root, name))
    if disk is not None and holdings_rewritten:
        held = set(chunks.digests())
        for digest in disk.digests():
            if digest not in held:
                disk.discard(digest)


def _remove_quietly(path: str) -> None:
    try:
        os.remove(path)
    except OSError:
        pass  # a leftover is unreferenced; the next compaction retries


@dataclass(frozen=True)
class JournalSnapshot:
    """A repository directory's committed state, as read from disk."""

    root: str
    manifest: dict
    entries: dict
    identity: tuple

    @property
    def holdings(self) -> dict[str, int]:
        return dict(self.entries["holdings"])

    def restore(self, repo, chunks: ChunkStore):
        """Load the metadata into ``repo`` (whose ``chunks`` already hold
        the snapshot's holdings) and mark it as committed here, so the
        next save appends instead of rewriting."""
        entries = self.entries
        for entry in entries["commits"]:
            repo.graph.add(commit_from_dict(entry))
        _apply_state(repo, self.manifest)
        for entry in entries["recipes"]:
            repo.objects.add_recipe(recipe_from_dict(entry))
        for entry in entries["records"]:
            repo.checkpoints.import_record(record_from_dict(entry))
        # Appended, not imported: the ledger mirrors its journal row for
        # row (import would fold repeated reuse events into one).
        for entry in entries["lineage"]:
            repo.lineage.append(lineage_record_from_dict(entry))
        repo._persisted = _Committed(
            self.root, self.manifest, _store_marks(repo, chunks), self.identity
        )
        return repo


def _read_manifest(root: str) -> dict:
    with open(os.path.join(root, STATE_FILE)) as fh:
        manifest = json.load(fh)
    fmt = manifest.get("format")
    if fmt != DIR_FORMAT_VERSION:
        raise RepositoryError(
            f"repository directory {root} is in format {fmt!r}; only format "
            f"{DIR_FORMAT_VERSION} (journaled) can be read — there is no "
            "reader for or migration from older formats"
        )
    return manifest


def _read_journal(root: str, manifest: dict, name: str) -> list:
    generation, length = manifest["journals"][name]
    if not length:
        return []
    path = os.path.join(root, journal_file(name, generation))
    with open(path, "rb") as fh:
        data = fh.read(length)  # bytes past the committed length are ignored
    if len(data) != length:
        raise RepositoryError(
            f"journal {path} holds {len(data)} bytes, fewer than the "
            f"{length} its manifest commits to"
        )
    return _unframe(data, path)


def read_repository_journal(root: str | os.PathLike[str]) -> JournalSnapshot:
    """Read a repository directory's committed manifest and journals."""
    root = os.path.abspath(os.fspath(root))
    if not is_repository_dir(root):
        raise RepositoryError(f"not a repository directory: {root}")
    identity = _manifest_identity(root)
    manifest = _read_manifest(root)
    entries = {name: _read_journal(root, manifest, name) for name in JOURNALS}
    return JournalSnapshot(root, manifest, entries, identity)


def read_holdings(root: str | os.PathLike[str]) -> dict[str, int]:
    """Just the committed holdings of a repository directory."""
    root = os.fspath(root)
    return dict(_read_journal(root, _read_manifest(root), "holdings"))


# ------------------------------------------------------ directory layout
def save_repository_dir(repo, path: str | os.PathLike[str]) -> None:
    """Persist state *and* content under a repository directory (layout
    in the module docstring)."""
    root = os.fspath(path)
    write_repository_journal(
        repo, root, repo.objects.chunks,
        disk=FileChunkStore(os.path.join(root, OBJECTS_DIR)),
    )


def is_repository_dir(path: str | os.PathLike[str]) -> bool:
    return os.path.isfile(os.path.join(os.fspath(path), STATE_FILE))


def load_repository_dir(path: str | os.PathLike[str], registry=None):
    """Rebuild a repository (state + content) from a repository directory."""
    from .repository import MLCask

    snapshot = read_repository_journal(path)
    repo = MLCask(metric=snapshot.manifest["metric"], seed=snapshot.manifest["seed"])
    if registry is not None:
        repo.registry = registry
    disk = FileChunkStore(os.path.join(snapshot.root, OBJECTS_DIR))
    for digest in snapshot.holdings:
        repo.objects.import_chunk(digest, disk.get(digest))
    return snapshot.restore(repo, repo.objects.chunks)


class _ListedChunks(ChunkStore):
    """Chunk membership and sizes without the bytes: what a directory gc
    sweeps, so its peak memory is the metadata, never the content."""

    def __init__(self, holdings: dict[str, int]):
        super().__init__()
        self._held = dict(holdings)

    def _contains(self, digest: str) -> bool:
        return digest in self._held

    def _write(self, digest: str, data: bytes) -> None:
        raise RepositoryError("a directory gc never adds chunks")

    def _read(self, digest: str) -> bytes:
        raise RepositoryError("a directory gc never reads chunk bytes")

    def _size(self, digest: str) -> int:
        return self._held[digest]

    def _delete(self, digest: str) -> None:
        del self._held[digest]

    def digests(self) -> list[str]:
        return list(self._held)


def gc_repository_dir(
    path: str | os.PathLike[str], keep_checkpoints: bool = False
) -> tuple["GCReport", int]:
    """Sweep a repository *directory* in place, without loading chunks.

    Live roots are computed from the persisted commit graph (every stage
    output a commit references); with ``keep_checkpoints`` the archived
    checkpoint records count as roots too (preserving reuse for outputs
    no commit kept, e.g. losing merge candidates). Everything else —
    chunk files, dead recipes, and (unless kept) orphaned checkpoint
    records — is removed; lineage rows for swept outputs are kept but
    flagged collected. The result is committed like any save, and the
    chunk files go only after the commit point.

    Unlike ``MLCask.load_dir() -> repo.gc() -> save_dir()``, this never
    reads chunk bytes, so peak memory is the metadata, never the
    content. Returns ``(report, pruned_records)``.
    """
    from ..storage.gc import GCReport, collect_garbage, live_digests_of_repo  # noqa: F401
    from .repository import MLCask

    snapshot = read_repository_journal(path)
    chunks = _ListedChunks(snapshot.holdings)
    repo = MLCask(
        metric=snapshot.manifest["metric"],
        seed=snapshot.manifest["seed"],
        objects=ObjectStore(chunk_store=chunks),
    )
    snapshot.restore(repo, chunks)

    live = live_digests_of_repo(repo)
    if keep_checkpoints:
        live.update(record.output_ref for record in repo.checkpoints.records())
    pruned = repo.checkpoints.prune(live)
    repo.lineage.mark_collected(live)
    report = collect_garbage(repo.objects, live)
    write_repository_journal(
        repo, snapshot.root, chunks,
        disk=FileChunkStore(os.path.join(snapshot.root, OBJECTS_DIR)),
    )
    return report, pruned
