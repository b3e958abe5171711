"""Repository benchmark: end-to-end metrics per workload, per-layer budget when traced.

Usage (from the repository root)::

    python3 perfbench/run.py --workload local --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 40

``--workload`` is ``local``, ``push``, ``read`` or ``all`` (the three in
one process). With ``--trace 0`` the workload runs untraced and the last
line of stdout is one JSON object whose ``metrics`` are the end-to-end
metrics of ``BENCHMARK.json``, their times scaled to a reference host
speed that is measured through the run (the lines above give them as
measured too). With ``--trace 1`` every workload runs
twice at a reduced size, untraced and then traced, and ``metrics`` are
the per-layer metrics; the lines above the JSON give the traced minus
untraced median of each end-to-end figure (the tracing overhead) and
the share of each op's time some layer claimed.

The program is imported from ``src/`` next to this directory; without
it the benchmark prints nothing on stdout and exits with status 2. Any
failed op or output check makes ``correct`` false and the exit status 1.
Scratch state (hub roots, reports, span dumps) lives under
``.perfbench-out/`` in the repository root.
"""

from __future__ import annotations

import argparse
import hashlib
import inspect
import json
import os
import platform
import resource
import shutil
import sys
import time
from pathlib import Path

# One BLAS thread, set before numpy is first imported. On a two-core box
# a second BLAS thread only spin-waits next to the client and hub threads:
# it doubles the CPU a commit burns without making it faster, and its
# scheduling noise swamps the figures.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench-out"
WORKLOADS = ("local", "push", "read")
#: Share of ``--seconds`` each of the two passes of a traced run gets.
TRACE_SHARE = 0.2

#: Per workload: the main op kinds, the tail percentile reported for
#: them, the second op whose median is reported, and the clock the op and
#: set-up figures are read from. ``push`` reads the process's CPU time
#: (client and hub threads together): its wall time is a third page-cache
#: and writeback waits, which on a shared disk spread past any usable
#: bound. Its wall figures are printed beside the gated ones.
MAIN_OPS = {
    "local": (("commit",), 90.0, "merge", "wall"),
    "push": (("push",), 90.0, "commit", "cpu"),
    "read": (("manifest", "fetch", "missing_chunks"), 99.0, "clone", "wall"),
}

#: The end-to-end metrics of ``BENCHMARK.json``: the figures the result
#: line carries. The others :func:`end_to_end` computes are only printed.
GATED = ("op_p50_ms", "op_tail_ms", "second_op_p50_ms", "storage_ratio",
         "peak_rss_mb", "ok_op_ratio", "setup_s")

#: The gated times, scaled to the reference host speed: each is multiplied
#: by ``REFERENCE_MS`` over the run's mean reference-task time (see
#: reference.py). Over runs of the same code on a shared two-core box the
#: raw times drift with the host by 0.12-0.21 IQR/median; scaled, by about
#: half that or less.
SCALED = ("op_p50_ms", "op_tail_ms", "second_op_p50_ms", "setup_s")

#: Per workload, the operation-specific name of each end-to-end figure printed
#: above the JSON line, as measured (not scaled). ``failed_op_ratio`` is
#: derived as 1 - ``ok_op_ratio``.
ALIASES = {
    "local": (("commit_p50_ms", "raw_op_p50_ms"), ("commit_p90_ms", "raw_op_tail_ms"),
              ("merge_p50_ms", "raw_second_op_p50_ms"), ("storage_ratio", "storage_ratio")),
    "push": (("push_cpu_p50_ms", "raw_op_p50_ms"), ("push_cpu_p90_ms", "raw_op_tail_ms"),
             ("commit_cpu_p50_ms", "raw_second_op_p50_ms"),
             ("push_p50_ms", "op_wall_p50_ms"), ("push_p90_ms", "op_wall_tail_ms"),
             ("storage_ratio", "storage_ratio")),
    "read": (("read_p50_ms", "raw_op_p50_ms"), ("read_p99_ms", "raw_op_tail_ms"),
             ("clone_p50_ms", "raw_second_op_p50_ms"), ("read_ops_per_s", "ops_per_s")),
}
COMMON_ALIASES = (("setup_s", "raw_setup_s"), ("peak_rss_mb", "peak_rss_mb"),
                  ("host_ref_ms", "host_ref_ms"))

_SERVING = (
    "storage.hashing.sha256_s", "storage.hashing.bytes",
    "storage.chunk_store.get_s", "storage.chunk_store.import_s",
    "storage.chunk_store.physical_bytes", "storage.chunk_store.dedup_ratio",
    "provenance.ledger.import_s", "provenance.ledger.rows",
    "core.persistence.write_s", "core.persistence.bytes_written",
    "remote.protocol.encode_s", "remote.protocol.decode_s", "remote.protocol.bytes",
    "remote.transport.call_s", "remote.transport.calls", "remote.transport.http_framing_s",
    "remote.client.self_s", "remote.client.overload_retries",
    "hub.hub.admission_s", "hub.hub.denied", "hub.hub.shed", "hub.hub.loads",
    "hub.hub.evictions",
    "remote.server.handle_s", "remote.server.cache_hit_ratio", "remote.server.lock_wait_s",
)

#: Per-layer metrics reported for each workload: the layers that do work
#: on it, so no reported time is a constant zero.
LAYER_METRICS = {
    "local": (
        "core.component.compute_s", "core.component.calls",
        "core.executor.self_s", "core.executor.stages_executed",
        "core.executor.stages_reused", "core.executor.reuse_ratio",
        "data.serialize.encode_s", "data.serialize.decode_s", "data.serialize.bytes",
        "storage.chunking.split_s", "storage.chunking.chunks",
        "storage.hashing.sha256_s", "storage.hashing.bytes",
        "storage.chunk_store.put_s", "storage.chunk_store.get_s",
        "storage.chunk_store.physical_bytes", "storage.chunk_store.dedup_ratio",
        "core.checkpoint.lookup_s", "core.checkpoint.lookups", "core.checkpoint.hit_ratio",
        "core.checkpoint.save_s", "core.checkpoint.load_s",
        "core.merge.self_s", "core.merge.candidates_total",
        "core.merge.candidates_pruned", "core.merge.candidates_evaluated",
        "provenance.ledger.record_s", "provenance.ledger.rows",
        "unattributed.commit_s", "unattributed.merge_s",
        "attributed_share.commit", "attributed_share.merge",
    ),
    "push": _SERVING + (
        "storage.chunk_store.put_s",
        "core.persistence.bytes_written_per_push", "remote.client.rpcs_per_push",
        "unattributed.push_s", "unattributed.commit_s",
        "attributed_share.push", "attributed_share.commit",
    ),
    "read": _SERVING + (
        "core.persistence.load_s",
        "unattributed.manifest_s", "unattributed.fetch_s",
        "unattributed.missing_chunks_s", "unattributed.clone_s",
        "attributed_share.manifest", "attributed_share.fetch",
        "attributed_share.missing_chunks", "attributed_share.clone",
    ),
}


def unit_of(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if "bytes" in metric:
        return "bytes"
    if metric.endswith("ratio") or metric.startswith("attributed_share."):
        return "ratio"
    if metric.endswith("rpcs_per_push"):
        return "rpc/push"
    return "count"


def _import_program():
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import numpy
    import repro

    if src.resolve() not in Path(repro.__file__).resolve().parents:
        raise ImportError(f"repro was imported from {repro.__file__}, not from {src}")
    return repro, numpy


def conditions(numpy_module, repro_module) -> dict:
    """The run conditions a figure depends on, measured where possible."""
    from repro.hub import RepositoryHub
    from repro.obs.metrics import MetricsRegistry
    from repro.obs.slo import SLOConfig

    defaults = inspect.signature(RepositoryHub.__init__).parameters
    fsync_sites = 0
    for path in (ROOT / "src" / "repro").rglob("*.py"):
        if "analysis" not in path.parts:
            fsync_sites += path.read_text().count("os.fsync(")
    return {
        "nproc": os.cpu_count(),
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "op_clock": {name: spec[3] for name, spec in MAIN_OPS.items()},
        "python": platform.python_version(),
        "numpy": numpy_module.__version__,
        "repro": repro_module.__version__,
        "tempdir_fs": filesystem_of(OUT_DIR),
        "flush_policy": "no fsync in the program" if not fsync_sites
        else f"fsync at {fsync_sites} call sites",
        "hub": {
            "max_loaded_repos": defaults["max_loaded_repos"].default,
            "cache_entries": defaults["cache_entries"].default,
            "slo_shedding": SLOConfig.default().shed_enabled,
            "registry": MetricsRegistry.__name__,
        },
    }


def filesystem_of(path: Path) -> str:
    """Type and super-block options of the mount holding ``path``.

    The options matter for the ``push`` figures: with ext4's default
    ``auto_da_alloc`` a rename over an existing file starts writeback of
    the new file, so atomic metadata rewrites reach the disk queue even
    though the program never calls fsync.
    """
    target = str(path.resolve())
    best, found = "", "unknown"
    try:
        with open("/proc/self/mountinfo") as fh:
            for line in fh:
                fields = line.split()
                mount = fields[4]
                sep = fields.index("-")
                inside = target == mount or target.startswith(mount.rstrip("/") + "/")
                if inside and len(mount) >= len(best):
                    best, found = mount, f"{fields[sep + 1]} ({fields[sep + 3]})"
    except (OSError, ValueError, IndexError):
        return "unknown"
    return found


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_workload(name: str, seconds: float, seed: int, recorder=None):
    import scenarios

    workdir = OUT_DIR / "tmp"
    workdir.mkdir(parents=True, exist_ok=True)
    if name == "local":
        return scenarios.run_local(seconds, seed, recorder)
    if name == "push":
        return scenarios.run_push(seconds, seed, str(workdir), recorder)
    return scenarios.run_read(seconds, seed, str(workdir), recorder)


def op_times(result) -> dict:
    """Per op kind, the samples of the workload's clock."""
    return result.log.cpu if MAIN_OPS[result.name][3] == "cpu" else result.log.samples


def setup_times(result) -> list:
    """Per cycle, the set-up time on the workload's clock."""
    return result.setup_cpu if MAIN_OPS[result.name][3] == "cpu" else result.setup_seconds


def end_to_end(result, rss_mb: float) -> dict:
    """The end-to-end figures of one workload run: the :data:`GATED`
    ones, with the :data:`SCALED` times at the reference host speed, plus
    figures that are only printed: each scaled time as measured
    (``raw_<name>``), main-op wall times, throughput and host speed."""
    from percentiles import median, percentile
    from reference import REFERENCE_MS

    main, tail, second, _ = MAIN_OPS[result.name]
    times = op_times(result)
    samples = [s for op in main for s in times[op]]
    wall = [s for op in main for s in result.log.samples[op]]
    attempted = sum(result.log.attempted.values())
    failed = sum(result.log.failed.values())
    timed_ops = sum(len(v) for v in result.log.samples.values())

    def metric(value, unit, n):
        return {"value": value, "unit": unit, "n": n}

    figures = {
        "op_p50_ms": metric(median(samples) * 1e3, "ms", len(samples)),
        "op_tail_ms": metric(percentile(samples, tail)[0] * 1e3, "ms", len(samples)),
        "second_op_p50_ms": metric(median(times[second]) * 1e3, "ms", len(times[second])),
        "op_wall_p50_ms": metric(median(wall) * 1e3, "ms", len(wall)),
        "op_wall_tail_ms": metric(percentile(wall, tail)[0] * 1e3, "ms", len(wall)),
        "host_ref_ms": metric(result.probe.task_ms(), "ms", result.probe.tasks),
        "ops_per_s": metric(timed_ops / result.loop_seconds, "1/s", timed_ops),
        "storage_ratio": metric(
            result.physical_bytes / result.logical_bytes, "ratio", result.logical_bytes
        ),
        "setup_s": metric(median(setup_times(result)), "s", len(result.setup_seconds)),
        "peak_rss_mb": metric(rss_mb, "MB", 1),
        "ok_op_ratio": metric((attempted - failed) / attempted, "ratio", attempted),
    }
    scale = REFERENCE_MS / result.probe.task_ms()
    for name in SCALED:
        figures[f"raw_{name}"] = figures[name]
        figures[name] = dict(figures[name], value=figures[name]["value"] * scale)
    return figures


def named_metrics(name: str, metrics: dict) -> list[tuple[str, float, str, int]]:
    """The operation-specific names (:data:`ALIASES`) of workload ``name``'s ``metrics``."""
    rows = [
        (alias, metrics[metric]["value"], metrics[metric]["unit"], metrics[metric]["n"])
        for alias, metric in ALIASES[name] + COMMON_ALIASES
    ]
    ok = metrics["ok_op_ratio"]
    rows.append(("failed_op_ratio", 1.0 - ok["value"], ok["unit"], ok["n"]))
    return rows


def run_problems(result, sized: bool = True) -> list[str]:
    """Run-level checks beyond the per-op ones.

    ``sized`` runs are full-size measurement runs, whose reported tail
    percentile must have enough samples beyond it.
    """
    from percentiles import MIN_BEYOND, percentile

    problems = [f"{op}: {n} failed" for op, n in sorted(result.log.failed.items()) if n]
    problems += result.log.errors[:5]
    for counter in ("shed", "denied"):
        if result.hub.get(counter):
            problems.append(f"hub {counter} {result.hub[counter]} requests")
    if result.name == "local":
        problems += check_signatures(result)
    main, tail, _, _ = MAIN_OPS[result.name]
    samples = [s for op in main for s in op_times(result)[op]]
    if sized and samples and percentile(samples, tail)[1] < MIN_BEYOND:
        problems.append(f"{result.name}: p{tail:g} of {len(samples)} samples is not "
                        f"supported by {MIN_BEYOND} samples beyond it")
    return problems


def code_digest() -> str:
    """Digest of the program's and the benchmark's sources."""
    digest = hashlib.sha256()
    for base in (ROOT / "src", HERE):
        for path in sorted(base.rglob("*.py")):
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def check_signatures(result) -> list[str]:
    """Merge outcomes must repeat exactly for a seed: compare with earlier
    runs of the same code (sources digested), never of other code."""
    path = OUT_DIR / f"local-merges-{code_digest()}.json"
    known = json.loads(path.read_text()) if path.exists() else {}
    problems = []
    for key, signature in result.signatures.items():
        if key in known and known[key] != signature:
            result.log.fail("merge", f"cycle seed {key}: merges differ from an earlier run")
            problems.append(f"local cycle seed {key}: merge results differ from an earlier run")
        known.setdefault(key, signature)
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(known, sort_keys=True))
    return problems


def accounting(result) -> dict:
    return {
        op: {
            "attempted": result.log.attempted[op],
            "succeeded": result.log.attempted[op] - result.log.failed[op],
            "failed": result.log.failed[op],
        }
        for op in sorted(result.log.attempted)
    }


def print_workload(result, metrics: dict, out) -> None:
    from percentiles import tail_percentile

    print(f"[{result.name}] sizes {json.dumps(result.sizes, sort_keys=True)}", file=out)
    for name, value, unit, n in named_metrics(result.name, metrics):
        print(f"[{result.name}] {name:<18} {value:12.4f} {unit:<6} n={n}", file=out)
    for op, counts in accounting(result).items():
        line = " ".join(f"{k}={v}" for k, v in counts.items())
        samples = result.log.samples.get(op)
        if samples:
            p, value, beyond = tail_percentile(samples)
            line += f" tail=p{p:g}:{value * 1e3:.3f}ms ({beyond} beyond, n={len(samples)})"
        print(f"[{result.name}] op {op:<14} {line}", file=out)
    if result.hub:
        print(f"[{result.name}] hub {dict(sorted(result.hub.items()))}", file=out)


def write_report(name: str, seed: int, trace: int, report: dict) -> None:
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    path = OUT_DIR / f"report-{name}-seed{seed}-trace{trace}.json"
    path.write_text(json.dumps(report, indent=1, sort_keys=True, default=str))


def untraced(names, seconds: float, seed: int, out) -> tuple[dict, dict]:
    results = {}
    for name in names:
        results[name] = run_workload(name, seconds, seed)
    rss = peak_rss_mb()
    metrics, problems = {}, {}
    for name, result in results.items():
        metrics[name] = end_to_end(result, rss)
        print_workload(result, metrics[name], out)
        problems[name] = run_problems(result)
    return results, {"metrics": metrics, "problems": problems}


def traced(seconds: float, seed: int, out) -> tuple[dict, dict]:
    """Each workload untraced, then traced: per-layer metrics and overhead."""
    from layers import LayerTracer, layer_metrics
    from spans import SpanRecorder

    share = seconds * TRACE_SHARE
    per_layer, overhead, problems, spans_out, logs = {}, {}, {}, {}, {}
    for name in WORKLOADS:
        plain = run_workload(name, share, seed)
        recorder = SpanRecorder()
        with LayerTracer(recorder) as tracer:
            result = run_workload(name, share, seed, recorder)
        spans = recorder.take()
        rss = peak_rss_mb()
        before, after = end_to_end(plain, rss), end_to_end(result, rss)
        print_workload(result, after, out)
        layers = layer_metrics(spans, pushes=result.pushes,
                               overload_retries=tracer.overload_errors)
        for counter in ("shed", "denied", "loads", "evictions"):
            layers[f"hub.hub.{counter}"] = result.hub[counter]
        per_layer[name] = layers
        problems[name] = run_problems(plain, sized=False) + run_problems(result, sized=False)
        logs[name] = (plain.log, result.log)
        if name == "local" and plain.signatures != result.signatures:
            problems[name].append("traced merges differ from untraced ones")
        if tracer.overload_errors:
            problems[name].append(f"{tracer.overload_errors} overload retries")
        overhead[name] = {
            metric: after[metric]["value"] - before[metric]["value"]
            for metric in GATED
            if metric not in ("peak_rss_mb", "setup_s")
        }
        for metric, delta in overhead[name].items():
            print(f"[{name}] trace overhead {metric:<18} {delta:+.4f} "
                  f"{before[metric]['unit']} (untraced {before[metric]['value']:.4f})", file=out)
        for key in sorted(layers):
            if key.startswith("attributed_share."):
                op = key.split(".", 1)[1]
                print(f"[{name}] coverage {op:<14} attributed {layers[key]:.3f} "
                      f"unattributed {layers[f'unattributed.{op}_s']:.4f}s", file=out)
        spans_out[name] = [
            [s.sid, s.parent, s.op, s.layer, s.kind, s.start, s.end] for s in spans
        ]
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    (OUT_DIR / f"spans-seed{seed}.json").write_text(json.dumps(spans_out))
    return {"per_layer": per_layer, "overhead": overhead, "problems": problems}, logs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        repro_module, numpy_module = _import_program()
    except ImportError as error:
        print(f"perfbench: cannot import the program from {ROOT / 'src'}: {error}",
              file=sys.stderr)
        return 2

    out = sys.stdout
    started = time.perf_counter()
    run_conditions = conditions(numpy_module, repro_module)
    print(f"perfbench workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}", file=out)
    print(f"conditions {json.dumps(run_conditions, sort_keys=True)}", file=out)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        if args.trace:
            report, logs = traced(args.seconds, args.seed, out)
            metrics = {
                f"{name}.{metric}": {"value": report["per_layer"][name][metric],
                                      "unit": unit_of(metric)}
                for name in WORKLOADS
                for metric in LAYER_METRICS[name]
            }
            logs = [log for pair in logs.values() for log in pair]
        else:
            results, report = untraced(names, args.seconds, args.seed, out)
            report["accounting"] = {name: accounting(r) for name, r in results.items()}
            logs = [r.log for r in results.values()]
            metrics = {}
            for name in names:
                for metric in GATED:
                    entry = report["metrics"][name][metric]
                    key = metric if len(names) == 1 else f"{name}.{metric}"
                    metrics[key] = {"value": entry["value"], "unit": entry["unit"]}
                    note = " (at reference host speed)" if metric in SCALED else ""
                    print(f"[{name}] {metric:<18} {entry['value']:12.4f} "
                          f"{entry['unit']:<6} n={entry['n']}{note}", file=out)
    finally:
        shutil.rmtree(OUT_DIR / "tmp", ignore_errors=True)

    problems = [p for name in report["problems"] for p in report["problems"][name]]
    for problem in problems:
        print(f"CHECK FAILED {problem}", file=out)
    attempted = sum(sum(log.attempted.values()) for log in logs)
    failed = sum(sum(log.failed.values()) for log in logs)
    correct = not problems
    report.update(conditions=run_conditions, workload=args.workload, seed=args.seed,
                  seconds=args.seconds, trace=args.trace,
                  wall_seconds=time.perf_counter() - started)
    write_report(args.workload, args.seed, args.trace, report)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}), file=out)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
