"""The benchmark's three workloads: ``local``, ``push`` and ``read``.

Every workload is a closed loop: each client waits for one reply before
it sends the next request. Work is split into *cycles*; each cycle sets
up fresh state from its own seed (derived from the run's ``--seed`` and
the cycle index), times its set-up, then runs a fixed amount of work.
The amount of work is a function of ``--seconds`` only, never of how
fast the program turns out to be, so counts repeat exactly for a given
seed and a faster program is measured on the same inputs.

* ``local`` -- one in-process MLCask repository, no hub and no wire.
  Each round forks ``dev<k>``, commits Fig. 3-shaped divergent updates
  on both sides and runs the exhaustive PC/PR metric-driven merge.
* ``push`` -- a persisted hub on loopback HTTP and one client that
  commits one update, then pushes it, until the history reaches a fixed
  length. Each push makes the hub rewrite all of the repository's
  metadata, so its cost grows with history.
* ``read`` -- the same kind of hub, holding one pushed history in more
  repositories than its 16-repository working set, read over two
  connections by a seeded mix of ``manifest``, up-to-date ``fetch``,
  ``missing_chunks`` and full clones, with the target repository chosen
  Zipf-skewed.

Each op is timed twice: wall time, and the CPU time of the whole
process (client and in-process hub threads together). The run decides
which clock a workload's figures are read from.

Every op's result is checked; a failed check or a typed error
(``RemoteError``, ``TransportError``, ``ServerOverloadedError`` after
the client's retries) counts the op as failed, never as a fast success.
"""

from __future__ import annotations

import gc
import random
import shutil
import tempfile
import threading
import time
from collections import Counter, defaultdict
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, field

import repro.remote.client as remote_client
from repro import MLCask
from repro.errors import MLCaskError
from repro.hub import RepositoryHub, serve_hub
from repro.remote import HttpTransport, Remote, protocol
from repro.storage.gc import live_digests_of_repo
from repro.workloads import ALL_WORKLOADS
from reference import HostProbe
from spans import OP_LAYER, SpanRecorder

TENANT = "team"
TOKEN = "bench-token"

#: ``local``: pipeline, scale and merge rounds per repository.
LOCAL_PIPELINE = ("sa", 0.3)
LOCAL_ROUNDS = 8
LOCAL_CYCLES_PER_SECOND = 0.6

#: ``push``: pipeline, scale and commits pushed per history.
PUSH_PIPELINE = ("dpm", 0.3)
PUSH_LENGTH = 64
PUSH_SECONDS_PER_CYCLE = 5.0
PUSH_REPO = "pipelines"

#: ``read``: pipeline, scale, history length, hosted copies, op mix.
READ_PIPELINE = ("dpm", 0.3)
READ_HISTORY = 40
READ_REPOS = 18
READ_ZIPF = 1.1
READ_CONNECTIONS = 2
READ_SECONDS_PER_CYCLE = 8.0
READ_OPS_PER_SECOND = 220
READ_OP_MIX = (
    ("manifest", 0.80),
    ("fetch", 0.095),
    ("missing_chunks", 0.095),
    ("clone", 0.01),
)


@dataclass
class OpLog:
    """Latency samples and attempted/failed counts per op kind.

    ``samples`` are wall times, ``cpu`` the process CPU time of the same ops.
    """

    samples: dict = field(default_factory=lambda: defaultdict(list))
    cpu: dict = field(default_factory=lambda: defaultdict(list))
    attempted: Counter = field(default_factory=Counter)
    failed: Counter = field(default_factory=Counter)
    errors: list = field(default_factory=list)

    def fail(self, op: str, reason: str) -> None:
        self.failed[op] += 1
        if len(self.errors) < 20:
            self.errors.append(f"{op}: {reason}")

    def absorb(self, other: "OpLog") -> None:
        for op, values in other.samples.items():
            self.samples[op].extend(values)
        for op, values in other.cpu.items():
            self.cpu[op].extend(values)
        self.attempted.update(other.attempted)
        self.failed.update(other.failed)
        self.errors.extend(other.errors[: max(0, 20 - len(self.errors))])


class OpRunner:
    """Times, checks and accounts one op at a time.

    With a recorder, each op is also an ``op`` span, the root that the
    layer spans of that op nest under.
    """

    def __init__(self, log: OpLog, recorder: SpanRecorder | None = None):
        self.log = log
        self.recorder = recorder

    def run(self, op: str, fn, *args, check=None, timed: bool = True, **kwargs):
        self.log.attempted[op] += 1
        recorder = self.recorder if timed else None
        span = recorder.begin(OP_LAYER, op) if recorder is not None else None
        start, cpu_start = clocks()
        try:
            result = fn(*args, **kwargs)
        except MLCaskError as error:
            self.log.fail(op, f"{type(error).__name__}: {error}")
            return None
        finally:
            elapsed = time.perf_counter() - start
            cpu = time.process_time() - cpu_start
            if recorder is not None:
                recorder.finish(span)
        problem = check(result) if check is not None else None
        if problem:
            self.log.fail(op, problem)
        elif timed:
            self.log.samples[op].append(elapsed)
            self.log.cpu[op].append(cpu)
        return result


@dataclass
class WorkloadResult:
    name: str
    log: OpLog = field(default_factory=OpLog)
    #: per cycle, set-up wall time and process CPU time
    setup_seconds: list = field(default_factory=list)
    setup_cpu: list = field(default_factory=list)
    loop_seconds: float = 0.0
    physical_bytes: int = 0
    logical_bytes: int = 0
    #: hub-side counters summed over cycles (loads, evictions, shed, denied)
    hub: Counter = field(default_factory=Counter)
    pushes: int = 0
    #: per-cycle merge signatures (``local`` only), keyed by cycle seed
    signatures: dict = field(default_factory=dict)
    sizes: dict = field(default_factory=dict)
    #: host speed, sampled where no op is in flight
    probe: HostProbe = field(default_factory=HostProbe)

    def set_up(self, started: tuple[float, float]) -> None:
        """Record a cycle's set-up, begun at ``started = clocks()``."""
        wall, cpu = clocks()
        self.setup_seconds.append(wall - started[0])
        self.setup_cpu.append(cpu - started[1])

    def quiet_point(self) -> None:
        """Sample host speed, leaving the probe out of ``loop_seconds``."""
        self.loop_seconds -= self.probe.sample()


def clocks() -> tuple[float, float]:
    return time.perf_counter(), time.process_time()


@contextmanager
def timed_loop(result: WorkloadResult, recorder: SpanRecorder | None):
    """Add the block's wall time to ``result.loop_seconds``; spans are
    recorded only inside it, so set-up and checks stay out of the trace.
    Garbage left by set-up or an earlier cycle is collected before timing."""
    gc.collect()
    if recorder is not None:
        recorder.recording = True
    start = time.perf_counter()
    try:
        yield
    finally:
        result.loop_seconds += time.perf_counter() - start
        if recorder is not None:
            recorder.recording = False


def cycle_seed(seed: int, cycle: int) -> int:
    return seed * 1000 + cycle


def _workload(spec, seed: int):
    name, scale = spec
    return ALL_WORKLOADS[name](scale=scale, seed=seed)


def _new_repo(workload, seed: int) -> MLCask:
    repo = MLCask(metric=workload.metric, seed=seed)
    repo.create_pipeline(workload.spec, workload.initial_components())
    return repo


class VersionMinter:
    """Fresh component versions: every call mints an unused increment."""

    def __init__(self, workload):
        self.workload = workload
        self._next = {stage: 1 for stage in workload.stage_names}

    def version(self, stage: str, out_variant: int = 0, in_variant: int = 0):
        idx = self._next[stage]
        self._next[stage] += 1
        return self.workload.stage_version(stage, idx, out_variant, in_variant)

    def linear_update(self, step: int) -> dict:
        """Step ``step`` of a linear history: a model update on two steps
        of three, a pre-processing update (cycling stages) on the third."""
        w = self.workload
        if step % 3:
            return {w.model_stage: self.version(w.model_stage)}
        stage = w.preprocessing_stages[(step // 3) % len(w.preprocessing_stages)]
        return {stage: self.version(stage)}


def _merge_problem(repo, pipeline: str, outcome, n_stages: int) -> str | None:
    if outcome.fast_forward:
        return "merge fast-forwarded; the round was built to diverge"
    if len(outcome.commit.parents) != 2:
        return f"merge commit has {len(outcome.commit.parents)} parents"
    if repo.branches.head(pipeline, "master") != outcome.commit.commit_id:
        return "master does not point at the merge commit"
    if outcome.components_executed + outcome.components_reused != (
        outcome.candidates_evaluated * n_stages
    ):
        return "executed + reused stages do not cover every evaluated candidate"
    if outcome.winner_report is None or outcome.commit.score != outcome.winner_report.score:
        return "merge commit score differs from the winning run's score"
    return None


# ----------------------------------------------------------------- local
def _local_round(repo, workload, minter: VersionMinter, runner: OpRunner, round_no: int):
    """Fork, Fig. 3-shaped commits on both sides, merge; the merge's signature."""
    name, model, schema = workload.name, workload.model_stage, workload.schema_stage
    head = repo.head_commit(name)
    variant = repo.registry.get(head.component_versions[schema]).version.schema
    dev = f"dev{round_no}"
    runner.run("fork", repo.branch, name, dev)
    steps = (
        (dev, {model: minter.version(model, 0, variant)}),
        (dev, {schema: minter.version(schema, variant + 1),
               model: minter.version(model, 0, variant + 1)}),
        ("master", {workload.clean_stage: minter.version(workload.clean_stage),
                    model: minter.version(model, 0, variant)}),
    )
    for branch, updates in steps:
        runner.run("commit", repo.commit, name, updates, branch=branch,
                   check=lambda out: None if out[1] and not out[1].failed
                   else "commit run failed")
    n_stages = len(workload.spec.stages)
    outcome = runner.run("merge", repo.merge, name, "master", dev, mode="pcpr",
                         check=lambda out: _merge_problem(repo, name, out, n_stages))
    if outcome is None:
        return None
    return [outcome.commit.score, outcome.components_executed, outcome.components_reused,
            outcome.candidates_total, outcome.candidates_pruned_incompatible,
            outcome.candidates_evaluated]


def run_local(seconds: float, seed: int, recorder: SpanRecorder | None = None) -> WorkloadResult:
    result = WorkloadResult("local")
    cycles = max(1, round(seconds * LOCAL_CYCLES_PER_SECOND))
    result.sizes = {"pipeline": LOCAL_PIPELINE[0], "scale": LOCAL_PIPELINE[1],
                    "cycles": cycles, "rounds_per_cycle": LOCAL_ROUNDS}
    runner = OpRunner(result.log, recorder)
    for cycle in range(cycles):
        sub_seed = cycle_seed(seed, cycle)
        started = clocks()
        workload = _workload(LOCAL_PIPELINE, sub_seed)
        repo = _new_repo(workload, sub_seed)
        result.set_up(started)
        minter = VersionMinter(workload)
        signature = []
        with timed_loop(result, recorder):
            for round_no in range(1, LOCAL_ROUNDS + 1):
                signature.append(_local_round(repo, workload, minter, runner, round_no))
                result.quiet_point()
        result.signatures[str(sub_seed)] = signature
        stats = repo.objects.stats
        result.physical_bytes += stats.physical_bytes
        result.logical_bytes += stats.logical_bytes
    return result


# ------------------------------------------------------------ hub helpers
def start_server(hub: RepositoryHub):
    server = serve_hub(hub)
    thread = threading.Thread(target=server.serve_forever, name="bench-hub", daemon=True)
    thread.start()
    return server, thread


def stop_server(server, thread) -> None:
    server.shutdown()
    server.server_close()
    thread.join(timeout=30)


def hub_counters(hub: RepositoryHub) -> Counter:
    denied = sum(s["value"] for s in hub.registry.series("repro_admission_denied_total"))
    return Counter(
        loads=hub.loads,
        evictions=hub.evictions,
        shed=hub.health.health()["shedding"]["total"],
        denied=int(denied),
    )


def reachable_chunks(repo) -> set[str]:
    return repo.objects.reachable_chunks(live_digests_of_repo(repo))


def new_tempdir(workdir: str) -> str:
    return tempfile.mkdtemp(prefix="hub-", dir=workdir)


# ------------------------------------------------------------------ push
def verify_restart(root: str, repo, pipeline: str) -> str | None:
    """Clone from a brand-new hub on ``root``; it must match the client."""
    hub = RepositoryHub(root=root)
    clone = remote_client.clone_repository(hub.local_transport(TENANT, PUSH_REPO, TOKEN))
    if clone.branches.head(pipeline, "master") != repo.branches.head(pipeline, "master"):
        return "restarted hub serves a different head than the client pushed"
    if len(clone.graph) != len(repo.graph):
        return f"restarted hub has {len(clone.graph)} commits, client {len(repo.graph)}"
    if reachable_chunks(clone) != reachable_chunks(repo):
        return "restarted hub's reachable chunks differ from the client's"
    return None


def run_push(seconds: float, seed: int, workdir: str,
             recorder: SpanRecorder | None = None) -> WorkloadResult:
    result = WorkloadResult("push")
    cycles = max(1, round(seconds / PUSH_SECONDS_PER_CYCLE))
    result.sizes = {"pipeline": PUSH_PIPELINE[0], "scale": PUSH_PIPELINE[1],
                    "cycles": cycles, "pushes_per_cycle": PUSH_LENGTH}
    runner = OpRunner(result.log, recorder)
    for cycle in range(cycles):
        sub_seed = cycle_seed(seed, cycle)
        started = clocks()
        root = new_tempdir(workdir)
        hub = RepositoryHub(root=root)
        hub.add_tenant(TENANT, tokens=[TOKEN])
        server, thread = start_server(hub)
        transport = HttpTransport(server.repo_url(TENANT, PUSH_REPO), token=TOKEN)
        try:
            workload = _workload(PUSH_PIPELINE, sub_seed)
            repo = _new_repo(workload, sub_seed)
            remote = Remote(repo, transport)
            remote.push(workload.name)  # creates the hosted repository
            result.set_up(started)
            minter = VersionMinter(workload)
            with timed_loop(result, recorder):
                for step in range(1, PUSH_LENGTH + 1):
                    runner.run("commit", repo.commit, workload.name,
                               minter.linear_update(step))
                    runner.run("push", remote.push, workload.name,
                               check=lambda out: None if out.commits_sent == 1
                               else f"push sent {out.commits_sent} commits, expected 1")
                    if step % 4 == 0:
                        result.quiet_point()
            result.pushes += PUSH_LENGTH
        finally:
            transport.close()
            stop_server(server, thread)
        result.hub.update(hub_counters(hub))
        # What the hub stores against the logical bytes of the history pushed.
        result.physical_bytes += hub.backend.physical_bytes
        result.logical_bytes += repo.objects.stats.logical_bytes
        runner.run("restart_check", verify_restart, root, repo, workload.name,
                   check=lambda problem: problem, timed=False)
        shutil.rmtree(root, ignore_errors=True)
    return result


# ------------------------------------------------------------------ read
def repo_name(rank: int) -> str:
    return f"repo{rank:02d}"


def op_sequence(seed: int, count: int) -> list[tuple[str, int]]:
    """Seeded ``(op, repo rank)`` list: :data:`READ_OP_MIX` ops, Zipf ranks."""
    rng = random.Random(seed)
    ops = [op for op, _ in READ_OP_MIX]
    op_weights = [weight for _, weight in READ_OP_MIX]
    ranks = range(READ_REPOS)
    rank_weights = [1.0 / (rank + 1) ** READ_ZIPF for rank in ranks]
    return [
        (rng.choices(ops, op_weights)[0], rng.choices(ranks, rank_weights)[0])
        for _ in range(count)
    ]


def retarget(transport: HttpTransport, repo: str) -> None:
    """Point a hub transport's one connection at another hosted repo."""
    transport.path = f"/t/{TENANT}/{repo}/rpc"


def missing_chunks(transport, digests: list[str]) -> list[str]:
    """One raw ``missing_chunks`` RPC (push negotiation's content step)."""
    payload = protocol.encode_message({"op": "missing_chunks", "digests": digests})
    meta, _ = protocol.decode_message(transport.call(payload))
    protocol.raise_remote_error(meta)
    return meta.get("missing", [])


@dataclass
class ReadSetup:
    pipeline: str
    head: str
    commits: int
    probe: list
    replicas: list
    #: logical bytes of the history, once per hosted copy
    logical_bytes: int


def _seed_read_hub(root: str, seed: int) -> ReadSetup:
    """Push one history into :data:`READ_REPOS` repositories of a hub."""
    seeding = RepositoryHub(root=root)
    seeding.add_tenant(TENANT, tokens=[TOKEN])
    workload = _workload(READ_PIPELINE, seed)
    source = _new_repo(workload, seed)
    minter = VersionMinter(workload)
    for step in range(1, READ_HISTORY):
        source.commit(workload.name, minter.linear_update(step))
    for rank in range(READ_REPOS):
        transport = seeding.local_transport(TENANT, repo_name(rank), TOKEN)
        Remote(source, transport, name=repo_name(rank)).push(workload.name)
    head = source.head_commit(workload.name)
    replicas = [
        remote_client.clone_repository(seeding.local_transport(TENANT, repo_name(0), TOKEN))
        for _ in range(READ_CONNECTIONS)
    ]
    return ReadSetup(
        pipeline=workload.name,
        head=head.commit_id,
        commits=len(source.graph),
        probe=sorted(source.objects.reachable_chunks(head.stage_outputs.values())),
        replicas=replicas,
        logical_bytes=source.objects.stats.logical_bytes * READ_REPOS,
    )


def _read_client(url: str, setup: ReadSetup, replica, sequence, recorder) -> OpLog:
    log = OpLog()
    runner = OpRunner(log, recorder)
    transport = HttpTransport(url, token=TOKEN)
    pipeline, head = setup.pipeline, setup.head

    def head_problem(refs) -> str | None:
        got = refs.get(pipeline, {}).get("master")
        return None if got == head else f"served head {got} instead of {head}"

    try:
        for op, rank in sequence:
            retarget(transport, repo_name(rank))
            if op == "manifest":
                runner.run(op, Remote(None, transport).manifest,
                           check=lambda meta: head_problem(meta["refs"]))
            elif op == "fetch":
                runner.run(op, Remote(replica, transport).fetch, pipeline,
                           check=lambda out: head_problem(out.refs)
                           or (f"up-to-date fetch received {out.commits_received} commits"
                               if out.commits_received else None))
            elif op == "missing_chunks":
                runner.run(op, missing_chunks, transport, setup.probe,
                           check=lambda missing: f"hub misses {len(missing)} pushed chunks"
                           if missing else None)
            else:
                runner.run(op, remote_client.clone_repository, transport,
                           check=lambda repo: None
                           if len(repo.graph) == setup.commits
                           and repo.branches.head(pipeline, "master") == head
                           else "clone does not match the pushed history")
    finally:
        transport.close()
    return log


def run_read(seconds: float, seed: int, workdir: str,
             recorder: SpanRecorder | None = None) -> WorkloadResult:
    result = WorkloadResult("read")
    cycles = max(1, round(seconds / READ_SECONDS_PER_CYCLE))
    per_cycle = max(READ_CONNECTIONS, round(seconds * READ_OPS_PER_SECOND / cycles))
    result.sizes = {"pipeline": READ_PIPELINE[0], "scale": READ_PIPELINE[1],
                    "cycles": cycles, "ops_per_cycle": per_cycle,
                    "repos": READ_REPOS, "history": READ_HISTORY,
                    "connections": READ_CONNECTIONS, "zipf": READ_ZIPF}
    for cycle in range(cycles):
        sub_seed = cycle_seed(seed, cycle)
        started = clocks()
        root = new_tempdir(workdir)
        setup = _seed_read_hub(root, sub_seed)
        hub = RepositoryHub(root=root)  # every hosted repo starts cold on disk
        server, thread = start_server(hub)
        result.set_up(started)
        sequences = [
            op_sequence(sub_seed * READ_CONNECTIONS + conn, per_cycle // READ_CONNECTIONS)
            for conn in range(READ_CONNECTIONS)
        ]
        url = server.repo_url(TENANT, repo_name(0))
        try:
            with timed_loop(result, recorder), ThreadPoolExecutor(READ_CONNECTIONS) as pool:
                futures = [
                    pool.submit(_read_client, url, setup, setup.replicas[conn],
                                sequences[conn], recorder)
                    for conn in range(READ_CONNECTIONS)
                ]
                logs = [future.result() for future in futures]
        finally:
            stop_server(server, thread)
        for log in logs:
            result.log.absorb(log)
        result.probe.sample()  # no quiet point inside the two-client loop
        result.hub.update(hub_counters(hub))
        result.physical_bytes += hub.backend.physical_bytes
        result.logical_bytes += setup.logical_bytes
        shutil.rmtree(root, ignore_errors=True)
    return result
