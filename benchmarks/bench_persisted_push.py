"""Persisted-push cost against history length.

A disk-backed ``RepositoryHub`` keeps each hosted repository as
append-only journals plus a small root manifest
(:mod:`repro.core.persistence`), so what a push persists is its delta,
never the whole history. This bench pushes a linear history of model
updates, one commit per push, through a ``HubLocalTransport`` into a
persisted hub and measures, at two history lengths:

* the median process CPU time of one persisted push (the commit itself
  is made beforehand and not timed);
* the journal bytes each push appends (growth of the committed journal
  lengths) and the size of the manifest it rewrites.

Asserted: the median push at history 100 costs at most 1.5x the median
push at history 10 — the per-push persistence cost stays flat as the
history grows. Before the journals, a persisted push rewrote five JSON
files holding the whole history, so this ratio grew with the history.
"""

import gc
import json
import os
import statistics
import tempfile
import time

from conftest import BENCH_SEED, BENCH_SMOKE, write_bench_record, write_result

from repro.core.persistence import STATE_FILE
from repro.core.repository import MLCask
from repro.hub import RepositoryHub
from repro.workloads import ALL_WORKLOADS

HISTORIES = (10, 100)
TIMED_PUSHES = 24 if BENCH_SMOKE else 32
MAX_RATIO = 1.5
TENANT, REPO, TOKEN = "bench", "history", "bench-token"


def _journal_bytes(repo_dir: str) -> tuple[int, int]:
    """(committed journal bytes, manifest bytes) of a hosted repo."""
    path = os.path.join(repo_dir, STATE_FILE)
    with open(path) as fh:
        manifest = json.load(fh)
    journals = sum(length for _, length in manifest["journals"].values())
    return journals, os.path.getsize(path)


def measure(root: str) -> dict:
    workload = ALL_WORKLOADS["dpm"](scale=0.3, seed=BENCH_SEED)
    hub = RepositoryHub(root)
    hub.add_tenant(TENANT, tokens=[TOKEN])
    repo_dir = os.path.join(root, "tenants", TENANT, REPO)
    local = MLCask(metric=workload.metric, seed=BENCH_SEED)
    local.create_pipeline(
        workload.spec, workload.initial_components(), message="initial pipeline"
    )
    remote = local.add_remote("hub", hub.local_transport(TENANT, REPO, TOKEN))
    remote.push(workload.name)

    step = 0

    def commit_and_push() -> tuple[float, int, int]:
        nonlocal step
        step += 1
        local.commit(
            workload.name,
            {workload.model_stage: workload.model_version(step)},
            message=f"update {step}",
        )
        journals_before, _ = _journal_bytes(repo_dir)
        # The commit's garbage is collected before, not during, the push.
        gc.collect()
        gc.disable()
        try:
            start = time.process_time()
            result = remote.push(workload.name)
            cpu = time.process_time() - start
        finally:
            gc.enable()
        assert result.commits_sent == 1
        journals_after, manifest = _journal_bytes(repo_dir)
        return cpu, journals_after - journals_before, manifest

    points = {}
    for history in HISTORIES:
        while len(local.graph) < history:
            commit_and_push()
        samples = [commit_and_push() for _ in range(TIMED_PUSHES)]
        points[history] = {
            "push_cpu_ms": 1e3 * statistics.median(s[0] for s in samples),
            "journal_bytes_per_push": statistics.median(s[1] for s in samples),
            "manifest_bytes": statistics.median(s[2] for s in samples),
        }
    return points


def test_persisted_push_cost_is_flat_in_history():
    with tempfile.TemporaryDirectory(prefix="bench-persisted-push-") as root:
        points = measure(root)
    short, long = (points[h] for h in HISTORIES)
    ratio = long["push_cpu_ms"] / short["push_cpu_ms"]

    lines = [
        f"Persisted push (dpm@0.3, one commit per push, {TIMED_PUSHES} timed pushes per point)",
        f"{'history':>8} {'push CPU p50 (ms)':>18} {'journal B/push':>15} {'manifest B':>11}",
    ]
    for history in HISTORIES:
        point = points[history]
        lines.append(
            f"{history:>8} {point['push_cpu_ms']:>18.2f} "
            f"{point['journal_bytes_per_push']:>15.0f} {point['manifest_bytes']:>11.0f}"
        )
    lines.append(
        f"history {HISTORIES[1]} / history {HISTORIES[0]} push CPU ratio: "
        f"{ratio:.3f} (asserted <= {MAX_RATIO})"
    )
    write_result("persisted_push.txt", "\n".join(lines))
    write_bench_record(
        "persisted_push",
        {
            "history_ratio": ratio,
            "journal_bytes_per_push": long["journal_bytes_per_push"],
            "points": {str(h): points[h] for h in HISTORIES},
        },
    )
    assert ratio <= MAX_RATIO
