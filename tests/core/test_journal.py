"""Journaled repository persistence: append-only saves, the manifest
rename as commit point, and consistency across a crash at every write
step of a hub push, a hub gc, and a ``save_dir``."""

import json
import os
import shutil
from collections import Counter

import pytest

from repro import MLCask
from repro.core import persistence
from repro.core.persistence import (
    JOURNALS,
    STATE_FILE,
    commit_to_dict,
    journal_file,
    read_repository_journal,
    recipe_to_dict,
    record_to_dict,
    repository_state,
)
from repro.errors import RepositoryError
from repro.hub import RepositoryHub
from repro.provenance import EXECUTED, LineageRecord
from repro.provenance.ledger import lineage_record_to_dict
from repro.remote import LocalTransport, RepositoryServer

from helpers import fresh_toy_repo, toy_model

TENANT, REPO, TOKEN = "ana", "proj", "tok-ana"
GARBAGE = b"7f00ba11 {\"torn\": tr"


class Crash(OSError):
    """An injected I/O failure: the writing process dies at this step."""


class Faults:
    """Fails the persistence seams — journal write, journal truncate and
    ``os.replace`` — at their ``fail_at``-th call while armed. A failing
    journal write lands half its bytes first, like a torn write."""

    def __init__(self, monkeypatch, fail_at=None):
        self.fail_at = fail_at
        self.calls = 0
        self.armed = False
        write = persistence._journal_write
        truncate = persistence._journal_truncate
        replace = os.replace

        def torn_write(fh, data):
            if self._due():
                write(fh, data[: len(data) // 2])
                raise Crash(f"journal write #{self.calls}")
            write(fh, data)

        def failing_truncate(fh, length):
            if self._due():
                raise Crash(f"journal truncate #{self.calls}")
            truncate(fh, length)

        def failing_replace(src, dst):
            if self._due():
                raise Crash(f"os.replace #{self.calls}")
            replace(src, dst)

        monkeypatch.setattr(persistence, "_journal_write", torn_write)
        monkeypatch.setattr(persistence, "_journal_truncate", failing_truncate)
        monkeypatch.setattr(os, "replace", failing_replace)

    def _due(self) -> bool:
        if not self.armed:
            return False
        self.calls += 1
        return self.calls == self.fail_at

    def arm(self, fn):
        """``fn``, counting seam calls only while it runs."""

        def armed(*args, **kwargs):
            self.armed = True
            try:
                return fn(*args, **kwargs)
            finally:
                self.armed = False

        return armed


# ----------------------------------------------------------- snapshots
def repo_state(repo, holdings: dict) -> dict:
    return {
        "refs": repository_state(repo),
        "commits": [commit_to_dict(c) for c in repo.graph.commits()],
        "recipes": [recipe_to_dict(r) for r in repo.objects.recipes()],
        "records": [record_to_dict(r) for r in repo.checkpoints.records()],
        "lineage": [lineage_record_to_dict(r) for r in repo.lineage.records()],
        "holdings": sorted(holdings.items()),
    }


def hub_state(root) -> dict:
    """Every repo a fresh hub on ``root`` serves; its backend refcounts
    must equal the persisted holdings, with every held chunk present."""
    hub = RepositoryHub(root)
    states = {}
    held = Counter()
    for tenant, name in sorted(hub._persisted_usage):
        hosted = hub._load_repo(tenant, name)
        holdings = hosted.view.holdings()
        states[(tenant, name)] = repo_state(hosted.server.repo, holdings)
        held.update(holdings.keys())
    assert {d: hub.backend.refcount(d) for d in held} == dict(held)
    assert hub.backend.chunk_count() == len(held)
    assert all(hub.backend.store.contains(d) for d in held)
    return states


def dir_state(path) -> dict:
    repo = MLCask.load_dir(path)
    chunks = repo.objects.chunks
    return repo_state(repo, {d: chunks.size_of(d) for d in chunks.digests()})


def assert_tails_trimmed(repo_dir) -> None:
    """Every committed journal file ends exactly at its committed length."""
    manifest = read_repository_journal(repo_dir).manifest
    for name, (generation, length) in manifest["journals"].items():
        path = os.path.join(repo_dir, journal_file(name, generation))
        assert os.path.getsize(path) == length, name


def add_torn_tails(repo_dir) -> None:
    """What a crashed save leaves: bytes past every committed length."""
    manifest = read_repository_journal(repo_dir).manifest
    for name, (generation, _) in manifest["journals"].items():
        with open(os.path.join(repo_dir, journal_file(name, generation)), "ab") as fh:
            fh.write(GARBAGE)


def unbound_record(output_ref="feedbeef") -> LineageRecord:
    return LineageRecord(
        checkpoint_key=f"key-{output_ref}", stage="clean", pipeline="toy",
        component_id="toy.clean@master@0.0", component_fingerprint="fp",
        component_version="master@0.0", params_digest="pd", input_refs=(),
        output_ref=output_ref, seed=0, trace_id="", span_id="", tenant="",
        via=EXECUTED,
    )


def commit_models(repo, first: int, count: int) -> None:
    for idx in range(first, first + count):
        repo.commit("toy", {"model": toy_model(idx, 0.5 + idx / 100)})


def push(local, hub, name):
    remote = local.add_remote(name, hub.local_transport(TENANT, REPO, TOKEN))
    return remote.push("toy")


# ----------------------------------------------------------- fixtures
@pytest.fixture(scope="module")
def local():
    """A toy history of two commits (pushed to the base hub), then two
    more (what the push under test sends)."""
    repo = fresh_toy_repo()
    commit_models(repo, 1, 1)
    return repo


@pytest.fixture(scope="module")
def bases(tmp_path_factory, local):
    """Pre-states on disk, built once and copied per case."""
    root = tmp_path_factory.mktemp("bases")
    hub_root = root / "hub"
    hub = RepositoryHub(hub_root)
    hub.add_tenant(TENANT, tokens=[TOKEN])
    push(local, hub, "base")
    local.save_dir(root / "dir")
    commit_models(local, 2, 2)

    # gc pre-state: a dead blob and an orphan lineage row, committed.
    gc_root = root / "hub-gc"
    shutil.copytree(hub_root, gc_root)
    hub = RepositoryHub(gc_root)
    hosted = hub._acquire(TENANT, REPO, create=False)
    hosted.server.repo.objects.put(b"dead content " * 500)
    hosted.server.repo.lineage.append(unbound_record())
    hub._persist_hosted(hosted)
    hub._release(hosted)

    dir_backfill = root / "dir-backfill"
    repo = MLCask.load_dir(root / "dir")
    repo.objects.put(b"dead content " * 500)
    repo.lineage.append(unbound_record())
    repo.save_dir(dir_backfill)

    add_torn_tails(hub_root / "tenants" / TENANT / REPO)
    add_torn_tails(root / "dir")
    return {
        "hub": hub_root, "hub-gc": gc_root,
        "dir": root / "dir", "dir-backfill": dir_backfill,
    }


# ------------------------------------------------- hub: crash at step k
def hub_push(hub, local, name):
    push(local, hub, name)


def hub_gc(hub, local, name):
    hub.gc_repo(TENANT, REPO)


HUB_CASES = {"push": ("hub", hub_push), "gc": ("hub-gc", hub_gc)}


@pytest.mark.parametrize("case", sorted(HUB_CASES))
def test_hub_crash_at_every_step_is_pre_or_post(
    case, bases, local, tmp_path, monkeypatch
):
    base, mutate = HUB_CASES[case]
    pre = hub_state(bases[base])

    clean = tmp_path / "clean"
    shutil.copytree(bases[base], clean)
    faults = Faults(monkeypatch)
    monkeypatch.setattr(
        RepositoryHub, "_persist_hosted", faults.arm(RepositoryHub._persist_hosted)
    )
    mutate(RepositoryHub(clean), local, "clean")
    post = hub_state(clean)
    assert post != pre
    steps = faults.calls
    assert steps >= 2  # at least one journal write and the manifest rename

    for k in range(1, steps + 1):
        root = tmp_path / f"k{k}"
        shutil.copytree(bases[base], root)
        faults.fail_at, faults.calls = k, 0
        hub = RepositoryHub(root)
        with pytest.raises(Exception):
            mutate(hub, local, f"k{k}")
        assert faults.calls == k
        assert hub_state(root) in (pre, post), f"crash at step {k}"

        # The surviving process commits on its next save: torn tails
        # are truncated before the append, and the result is the post.
        faults.fail_at = None
        hub._persist_hosted(hub._loaded[(TENANT, REPO)])
        assert hub_state(root) == post
        assert_tails_trimmed(root / "tenants" / TENANT / REPO)


# ------------------------------------------- save_dir: crash at step k
def dir_push(path, local, name):
    """A push into a served directory (``repro serve`` persistence)."""
    served = MLCask.load_dir(path)
    server = RepositoryServer(served, on_change=lambda repo: repo.save_dir(path))
    local.add_remote(name, LocalTransport(server)).push("toy")


def dir_backfill_gc(path, local, name):
    """Back-fill a row already on disk, then gc: two non-append changes."""
    repo = MLCask.load_dir(path)
    orphan = next(
        row for row, r in enumerate(repo.lineage.records()) if not r.commit_id
    )
    head = repo.branches.head("toy", "master")
    repo.lineage.annotate_commit(head, "master", [orphan])
    repo.gc()
    repo.save_dir(path)


DIR_CASES = {"push": ("dir", dir_push), "backfill-gc": ("dir-backfill", dir_backfill_gc)}


@pytest.mark.parametrize("case", sorted(DIR_CASES))
def test_save_dir_crash_at_every_step_is_pre_or_post(
    case, bases, local, tmp_path, monkeypatch
):
    base, mutate = DIR_CASES[case]
    pre = dir_state(bases[base])

    clean = tmp_path / "clean"
    shutil.copytree(bases[base], clean)
    faults = Faults(monkeypatch)
    monkeypatch.setattr(MLCask, "save_dir", faults.arm(MLCask.save_dir))
    mutate(clean, local, "clean")
    post = dir_state(clean)
    assert post != pre
    steps = faults.calls
    assert steps >= 2

    for k in range(1, steps + 1):
        path = tmp_path / f"k{k}"
        shutil.copytree(bases[base], path)
        faults.fail_at, faults.calls = k, 0
        with pytest.raises(Exception):
            mutate(path, local, f"k{k}")
        assert faults.calls == k
        assert dir_state(path) in (pre, post), f"crash at step {k}"

        # A restarted process loads the pre-state and saves again.
        faults.fail_at = None
        mutate(path, local, f"retry{k}")
        assert dir_state(path) == post
        assert_tails_trimmed(path)


def test_backfill_and_gc_keep_rows_flagged_on_disk(bases, local, tmp_path):
    path = tmp_path / "repo"
    shutil.copytree(bases["dir-backfill"], path)
    dir_backfill_gc(path, local, "x")
    rows = read_repository_journal(path).entries["lineage"]
    orphan = [r for r in rows if r["output_ref"] == "feedbeef"]
    assert len(orphan) == 1
    assert orphan[0]["commit_id"] and orphan[0]["collected"] is True
    # swept chunk files are gone after the commit point
    holdings = read_repository_journal(path).holdings
    on_disk = persistence.FileChunkStore(path / persistence.OBJECTS_DIR).digests()
    assert sorted(on_disk) == sorted(holdings)


# ------------------------------------------------- append, torn tails
def test_push_appends_and_gc_compacts(bases, local, tmp_path):
    root = tmp_path / "hub"
    shutil.copytree(bases["hub-gc"], root)
    repo_dir = root / "tenants" / TENANT / REPO
    before = read_repository_journal(repo_dir).manifest["journals"]
    files = {n: (repo_dir / journal_file(n, g)).read_bytes() for n, (g, _) in before.items()}

    hub_push(RepositoryHub(root), local, "append")
    after = read_repository_journal(repo_dir).manifest["journals"]
    for name in JOURNALS:
        assert after[name][0] == before[name][0]  # same generation
        data = (repo_dir / journal_file(name, after[name][0])).read_bytes()
        assert data.startswith(files[name])  # the committed prefix is kept
    assert after["commits"][1] > before["commits"][1]

    hub_gc(RepositoryHub(root), local, "gc")
    compacted = read_repository_journal(repo_dir).manifest["journals"]
    assert compacted["holdings"][0] == after["holdings"][0] + 1
    assert compacted["commits"] == after["commits"]  # untouched
    names = {p.name for p in repo_dir.iterdir()}
    assert names == {STATE_FILE} | {journal_file(n, g) for n, (g, _) in compacted.items()}


def test_garbage_past_committed_length_is_ignored_then_truncated(
    bases, local, tmp_path
):
    root = tmp_path / "hub"
    shutil.copytree(bases["hub"], root)
    repo_dir = root / "tenants" / TENANT / REPO
    pre = hub_state(root)  # loads despite a garbage tail on every journal
    assert len(pre[(TENANT, REPO)]["commits"]) == 2

    hub_push(RepositoryHub(root), local, "after-garbage")
    assert_tails_trimmed(repo_dir)
    assert len(hub_state(root)[(TENANT, REPO)]["commits"]) == 4


def test_corrupt_committed_entry_is_a_typed_error(bases, tmp_path):
    path = tmp_path / "repo"
    shutil.copytree(bases["dir"], path)
    generation, _ = read_repository_journal(path).manifest["journals"]["commits"]
    journal = path / journal_file("commits", generation)
    data = bytearray(journal.read_bytes())
    data[12] ^= 0x01
    journal.write_bytes(bytes(data))
    with pytest.raises(RepositoryError, match="corrupt"):
        MLCask.load_dir(path)


# ------------------------------------------------ a clean save is free
def file_stamps(directory) -> dict:
    return {
        str(p.relative_to(directory)): (p.read_bytes(), p.stat().st_mtime_ns)
        for p in sorted(directory.rglob("*"))
        if p.is_file()
    }


def test_evicting_an_unmodified_repo_writes_nothing(bases, local, tmp_path):
    root = tmp_path / "hub"
    shutil.copytree(bases["hub"], root)
    hub = RepositoryHub(root, max_loaded_repos=1)
    hub.add_tenant("ben", tokens=["tok-ben"])
    repo_dir = root / "tenants" / TENANT / REPO
    push(local, hub, "evict")  # loads, appends, commits
    stamps = file_stamps(repo_dir)

    ben = local.add_remote("ben", hub.local_transport("ben", REPO, "tok-ben"))
    ben.push("toy")  # evicts ana/proj, unmodified since its commit
    assert hub.loaded_repos() == [("ben", REPO)]
    assert file_stamps(repo_dir) == stamps

    # a read reloads it (evicting ben), a second read evicts it again
    local.add_remote("read", hub.local_transport(TENANT, REPO, TOKEN)).fetch("toy")
    ben.fetch("toy")
    assert hub.loaded_repos() == [("ben", REPO)]
    assert file_stamps(repo_dir) == stamps


def test_save_dir_of_an_unchanged_repo_writes_nothing(tmp_path):
    repo = fresh_toy_repo()
    repo.save_dir(tmp_path / "repo")
    stamps = file_stamps(tmp_path / "repo")
    repo.save_dir(tmp_path / "repo")
    MLCask.load_dir(tmp_path / "repo").save_dir(tmp_path / "repo")
    assert file_stamps(tmp_path / "repo") == stamps


# ----------------------------------------------------- formats, files
def test_format_1_directory_is_rejected_naming_the_format(tmp_path):
    path = tmp_path / "old"
    path.mkdir()
    (path / STATE_FILE).write_text(json.dumps({"format": 1, "commits": []}))
    with pytest.raises(RepositoryError, match="format 1"):
        MLCask.load_dir(path)
    hub_repo = tmp_path / "hub" / "tenants" / TENANT / REPO
    hub_repo.mkdir(parents=True)
    shutil.copy(path / STATE_FILE, hub_repo / STATE_FILE)
    with pytest.raises(RepositoryError, match="format 1"):
        RepositoryHub(tmp_path / "hub")


def test_single_file_save_is_atomic(tmp_path, monkeypatch):
    repo = fresh_toy_repo()
    path = tmp_path / "repo.json"
    repo.save(path)
    before = path.read_bytes()
    commit_models(repo, 1, 1)

    real_dump = json.dump

    def dump_then_fail(obj, fh, **kwargs):
        fh.write('{"format": 1, "commits": [')
        raise Crash("json.dump")

    monkeypatch.setattr(json, "dump", dump_then_fail)
    with pytest.raises(Crash):
        repo.save(path)
    assert path.read_bytes() == before
    monkeypatch.setattr(json, "dump", real_dump)
    repo.save(path)
    assert len(MLCask.load(path).graph) == 2
