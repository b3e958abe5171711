"""Pack assembly and import: what actually crosses the wire.

A *pack* is the unit of synchronization, in the spirit of git's packfiles
specialized to MLCask's object model. It carries, for a chosen set of
commits:

* the commit dicts themselves (metadata only — identifiers, lineage,
  metrics, content references);
* the pipeline specs those commits belong to;
* the *recipes* of every stage output the commits reference (blob digest
  -> ordered chunk digests);
* the checkpoint-index records for those outputs, so the receiver can
  *reuse* replicated outputs in its own runs and merges, not merely read
  them;
* the chunk digests the receiver still needs — negotiated beforehand via
  :meth:`ChunkStore.missing` so duplicate content never crosses the wire.

Import is the mirror image, with two invariants:

* **Sequence reassignment.** ``sequence`` is a repository-local logical
  clock (it drives common-ancestor selection and history ordering).
  Imported commits get *fresh* local sequence numbers, assigned in the
  sender's creation order — parents always precede children on both
  sides, so ancestry keeps its "ancestors sort earlier" property without
  trusting another repository's clock.
* **Integrity on receive.** Every chunk is re-hashed against its claimed
  digest before it is written (:class:`ChunkIntegrityError` otherwise).
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Iterator, Sequence
from dataclasses import replace
from typing import NamedTuple

from ..core.checkpoint import CheckpointRecord
from ..core.commit import PipelineCommit
from ..core.persistence import (
    commit_from_dict,
    commit_to_dict,
    record_from_dict,
    record_to_dict,
    recipe_from_dict,
    recipe_to_dict,
    spec_from_dict,
    spec_to_dict,
)
from ..core.pipeline import PipelineSpec
from ..errors import MLCaskError, RemoteError, RemoteProtocolError
from ..provenance.ledger import (
    LineageRecord,
    lineage_record_from_dict,
    lineage_record_to_dict,
)
from ..storage.object_store import Recipe


#: Upper bound on the chunk payload of a single wire message. Both sides
#: of the protocol honour it: the server windows ``get_chunks`` responses
#: to this many bytes (the client re-requests the remainder), and the
#: client splits an oversized push into ``put_chunks`` batches before the
#: final ref update. Bounds peak memory per request instead of letting a
#: large repository materialize its whole content set in one message.
DEFAULT_MAX_PACK_BYTES = 4 * 1024 * 1024


def iter_chunk_batches(
    fetch_chunk: Callable[[str], bytes],
    digests: Iterable[str],
    max_bytes: int,
) -> Iterator[tuple[list[str], list[bytes], bool]]:
    """Yield ``(digests, blobs, has_more)`` batches of ≤ ``max_bytes`` payload.

    Chunks are fetched lazily: peak memory is one batch plus the single
    overflow chunk that triggered the yield — consumers can act on
    ``has_more`` (True on every yield except the last) without pulling the
    next batch into memory. A chunk larger than the budget still ships
    (as a batch of one) — the window bounds batch size, it never makes
    content unsendable.
    """
    batch_digests: list[str] = []
    batch_blobs: list[bytes] = []
    batch_size = 0
    for digest in digests:
        blob = fetch_chunk(digest)
        if batch_digests and batch_size + len(blob) > max_bytes:
            yield batch_digests, batch_blobs, True
            batch_digests, batch_blobs, batch_size = [], [], 0
        batch_digests.append(digest)
        batch_blobs.append(blob)
        batch_size += len(blob)
    if batch_digests:
        yield batch_digests, batch_blobs, False


# -------------------------------------------------------------- assembly
def commits_to_send(repo, head_id: str, exclude_ids) -> list:
    """Commits reachable from ``head_id`` the receiver does not have,
    oldest first (sender creation order, so parents precede children)."""
    exclude = set(exclude_ids)
    reachable = repo.graph.ancestors(head_id)
    return sorted(
        (repo.graph.get(c) for c in reachable if c not in exclude),
        key=lambda c: c.sequence,
    )


def content_of_commits(repo, commits) -> tuple[list, list, set[str]]:
    """(recipes, checkpoint records, chunk digests) behind ``commits``.

    Only stage outputs whose recipe the sender actually holds contribute —
    a metadata-only repository (loaded from a bare state file) can still
    sync its history; the content simply is not there to ship.
    """
    blobs: set[str] = set()
    for commit in commits:
        blobs.update(commit.stage_outputs.values())
    recipes = [
        repo.objects.recipe(blob) for blob in sorted(blobs)
        if repo.objects.contains(blob)
    ]
    held = {recipe.blob_digest for recipe in recipes}
    records = [
        record
        for record in repo.checkpoints.records()
        if record.output_ref in held
    ]
    chunk_digests = repo.objects.reachable_chunks(held)
    return recipes, records, chunk_digests


def lineage_entries_for(repo, commits) -> list[dict]:
    """Ledger records back-filled with the given commits, dict-codec form.

    This is the schema-additive ``lineage`` pack key: provenance rides
    the same have/want sync as everything else, scoped to the commits
    crossing the wire (records of uncommitted runs — losing merge
    candidates, warm re-runs — stay local). Old peers simply never read
    the key.
    """
    ledger = getattr(repo, "lineage", None)
    if ledger is None:
        return []
    records = ledger.records_for_commits(c.commit_id for c in commits)
    return [lineage_record_to_dict(r) for r in records]


def pack_meta(repo, commits, recipes, records, chunk_digests) -> dict:
    """The JSON half of a pack (chunks travel as framed binary blobs)."""
    pipelines = sorted({c.pipeline for c in commits})
    return {
        "commits": [commit_to_dict(c) for c in commits],
        "specs": {
            name: spec_to_dict(repo.spec(name))
            for name in pipelines
            if name in repo._specs
        },
        "recipes": [recipe_to_dict(r) for r in recipes],
        "records": [record_to_dict(r) for r in records],
        "chunk_digests": list(chunk_digests),
        "lineage": lineage_entries_for(repo, commits),
    }


# ---------------------------------------------------------------- import
class DecodedPack(NamedTuple):
    """A pack's JSON half with every row decoded by its codec."""

    specs: list[PipelineSpec]
    commits: list[PipelineCommit]
    recipes: list[Recipe]
    records: list[CheckpointRecord]
    lineage: list[LineageRecord]


#: What a codec raises on a row it cannot read: a missing key, a wrong
#: type, an unparseable version or an inconsistent spec.
_CODEC_ERRORS = (AttributeError, KeyError, TypeError, ValueError, MLCaskError)


def _decode_rows(key: str, codec, entries) -> list:
    rows = []
    for index, entry in enumerate(entries):
        try:
            rows.append(codec(entry))
        except _CODEC_ERRORS as error:
            raise RemoteProtocolError(
                f"{key}[{index}]: {type(error).__name__}: {error}"
            ) from None
    return rows


def decode_pack(meta: dict) -> DecodedPack:
    """Decode every row of a pack before any of it imports.

    A row its codec cannot read raises :class:`RemoteProtocolError`
    naming the row (``commits[0]: KeyError: 'pipeline'``) while the
    receiving repository is still untouched; the import functions below
    then take the decoded rows, so nothing is decoded twice.
    """
    return DecodedPack(
        specs=_decode_rows(
            "specs",
            lambda item: spec_from_dict(*item),
            meta.get("specs", {}).items(),
        ),
        commits=_decode_rows("commits", commit_from_dict, meta.get("commits", [])),
        recipes=_decode_rows("recipes", recipe_from_dict, meta.get("recipes", [])),
        records=_decode_rows("records", record_from_dict, meta.get("records", [])),
        lineage=_decode_rows(
            "lineage", lineage_record_from_dict, meta.get("lineage", [])
        ),
    )


def import_specs(repo, specs: list[PipelineSpec]) -> None:
    """Adopt pipeline specs; a conflicting redefinition is an error,
    raised before any of them registers."""
    for spec in specs:
        existing = repo._specs.get(spec.name)
        if existing is not None and (
            existing.stages != spec.stages or existing.edges != spec.edges
        ):
            raise RemoteError(
                f"pipeline {spec.name!r} exists locally with a different spec"
            )
    for spec in specs:
        repo._specs.setdefault(spec.name, spec)


def import_commits(repo, commits: list[PipelineCommit]) -> list:
    """Graft new commits into the local graph; returns the commits added.

    Commits are applied in sender-sequence order and re-stamped with local
    sequence numbers; commits already present (content-derived ids match)
    are skipped, which also makes import idempotent.
    """
    added = []
    for commit in sorted(commits, key=lambda c: c.sequence):
        if commit.commit_id in repo.graph:
            continue
        commit = replace(commit, sequence=repo._next_sequence())
        repo.graph.add(commit)
        repo.branches.note_commit(commit.pipeline, commit.branch)
        added.append(commit)
    return added


def import_content(
    repo,
    recipes: list[Recipe],
    records: list[CheckpointRecord],
    chunk_digests,
    chunk_blobs,
    lineage: Sequence[LineageRecord] = (),
) -> int:
    """Adopt recipes, checkpoint records, lineage, and verified chunks.

    ``chunk_digests``/``chunk_blobs`` are parallel; each blob is re-hashed
    against its claimed digest on receipt. Chunks land *first*: if one
    fails its integrity check, the import aborts before any recipe is
    registered, so the store never ends up holding recipes that point at
    content it was never given. Lineage import is idempotent (the ledger
    dedups on record identity), so a record pushed and pulled back never
    doubles. Returns how many chunks were actually new to the local store.
    """
    if len(chunk_digests) != len(chunk_blobs):
        raise RemoteError(
            f"chunk manifest mismatch: {len(chunk_digests)} digests, "
            f"{len(chunk_blobs)} blobs"
        )
    new = 0
    for digest, blob in zip(chunk_digests, chunk_blobs):
        if repo.objects.import_chunk(digest, blob):
            new += 1
    for recipe in recipes:
        repo.objects.add_recipe(recipe)
    for record in records:
        repo.checkpoints.import_record(record)
    if lineage:
        ledger = getattr(repo, "lineage", None)
        if ledger is not None:
            ledger.import_entries(lineage)
    return new


def is_fast_forward_update(repo, old_head: str | None, new_head: str) -> bool:
    """Would moving a ref ``old_head -> new_head`` be a fast-forward?

    Called *after* the incoming commits are grafted, so reachability is
    answered by the local graph. A new branch (``old_head is None``) and a
    no-op update are both fast-forwards.
    """
    if old_head is None or old_head == new_head:
        return True
    if new_head not in repo.graph:
        return False
    return repo.graph.is_ancestor(old_head, new_head)
