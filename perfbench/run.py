"""osmlint benchmark: one workload, one fresh process, one op at a time.

    python3 perfbench/run.py --workload country_report --seed 42 \\
        --seconds 12 --trace 0

Run from the repository root (or any cwd: paths are resolved from this
file).  The input is the synthetic Serbia extract generated for
``--seed``; the expected answer comes from the DuckDB oracles for that
input.  Both are cached under ``perfbench/.data`` and made before any
timing starts.  Every run keeps its checkpoints, temp files and Ray
session under a private directory that it deletes at exit.

``--trace 0`` measures the end-to-end metrics: set-up time, then ops in
a closed loop until ``--seconds`` have passed.  ``--trace 1`` runs a
warm-up, two untraced ops and one traced op and reports the per-layer
metrics.  The last stdout line is the JSON result; see README.md for
every metric.
"""

from __future__ import annotations

import time

PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
DATA_DIR = os.path.join(BENCH_DIR, ".data")
#: AF_UNIX socket paths are limited to 107 bytes, and Ray puts its sockets
#: about 64 bytes below its temp dir.
MAX_RAY_TEMP = 43
NUM_CPUS = 1
#: a run measures at least this many ops, so its median is never a single
#: sample even when one op outlasts ``--seconds`` (shard_relint)
MIN_OPS = 2


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True,
                   choices=["country_report", "shard_relint", "spatial_qa"])
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--seconds", type=float, default=12)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    # the smoke test runs the same code on a smaller input
    p.add_argument("--sf", type=float, default=None, help=argparse.SUPPRESS)
    return p.parse_args(argv)


def private_dirs() -> dict:
    """Per-run state: checkpoints, temp files, op outputs, Ray session.
    Nothing is shared with other runs or with the osmlint defaults under
    /tmp, so a stale eps-pair checkpoint can never warm a cold op."""
    run = tempfile.mkdtemp(prefix=f"run{os.getpid()}_",
                           dir=os.path.join(BENCH_DIR, ".runs"))
    dirs = {"run": run}
    for k in ("ckpt", "tmp", "work"):
        dirs[k] = os.path.join(run, k)
        os.makedirs(dirs[k])
    ray_root = os.path.join(BENCH_DIR, ".ray")
    if len(ray_root) + 10 > MAX_RAY_TEMP:
        # the checkout path is too deep for Ray's sockets
        ray_root = None
    else:
        os.makedirs(ray_root, exist_ok=True)
    dirs["ray"] = tempfile.mkdtemp(prefix="r", dir=ray_root)
    return dirs


def configure_env(dirs: dict) -> None:
    """Set before Ray starts, so the raylet and every worker inherit it.
    PYTHONPATH is what lets workers import osmlint from any cwd."""
    path = os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = ROOT + (os.pathsep + path if path else "")
    os.environ["OSMLINT_CKPT_DIR"] = dirs["ckpt"]
    os.environ["TMPDIR"] = dirs["tmp"]
    os.environ["RAY_USAGE_STATS_ENABLED"] = "0"
    tempfile.tempdir = dirs["tmp"]


def make_input(sf: float, seed: int) -> str:
    from osmlint import synth
    synth.SEED = seed
    return synth.generate(sf, base=os.path.join(DATA_DIR, f"seed{seed}"))


def prepare(workload: str, sf: float, seed: int) -> None:
    """Generate the input and its oracle answer (cached on disk)."""
    import oracles
    oracles.expected(workload, make_input(sf, seed))


def ensure_prepared(workload: str, sf: float, seed: int) -> None:
    """Run ``prepare`` in a child process, so that generating the input
    and running DuckDB leave no trace in this process's heap, peak RSS or
    timings: a run on a fresh seed and a run on a cached one measure the
    same thing.  A plain subprocess, not multiprocessing, whose spawn
    start method leaves a resource-tracker process behind."""
    import subprocess
    code = (f"import sys; sys.path[:0] = [{BENCH_DIR!r}, {ROOT!r}]; "
            f"import run; run.prepare({workload!r}, {sf!r}, {seed!r})")
    p = subprocess.run([sys.executable, "-c", code])
    if p.returncode != 0:
        raise RuntimeError(f"preparing the input failed ({p.returncode})")


def start_ray(ray_tmp: str) -> None:
    import logging

    import ray
    from ray.data import DataContext
    ray.init(address="local", num_cpus=NUM_CPUS, include_dashboard=False,
             logging_level="ERROR", log_to_driver=False,
             object_store_memory=256 * 1024 * 1024, _temp_dir=ray_tmp)
    DataContext.get_current().enable_progress_bars = False

    # Ray's sort-based groupby emits zero-column bundles for empty sort
    # partitions and the executor warns on the schema change; only that
    # exact message is filtered, as bench.py does
    class _EmptySortPartition(logging.Filter):
        def filter(self, rec: logging.LogRecord) -> bool:
            return "RefBundle with a different schema" not in rec.getMessage()

    logging.getLogger(
        "ray.data._internal.execution.streaming_executor_state"
    ).addFilter(_EmptySortPartition())


def become_subreaper() -> None:
    """Descendants orphaned by their parent's exit (Ray workers whose
    raylet is gone) are re-parented to this process instead of init, so
    ``stop_descendants`` still finds them."""
    import ctypes
    PR_SET_CHILD_SUBREAPER = 36
    ctypes.CDLL(None).prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)


def descendants() -> dict:
    """pid -> cmdline of every descendant of this process, zombies too."""
    me = os.getpid()
    parent = {}
    for pid in os.listdir("/proc"):
        if not pid.isdigit():
            continue
        try:
            with open(f"/proc/{pid}/stat") as f:
                parent[int(pid)] = int(f.read().rsplit(")", 1)[1].split()[1])
        except (OSError, IndexError, ValueError):
            continue
    found = {}
    for pid in parent:
        p, seen = parent[pid], 0
        while p in parent and p != me and seen < 64:
            p, seen = parent[p], seen + 1
        if p != me:
            continue
        try:
            with open(f"/proc/{pid}/cmdline", "rb") as f:
                cmd = f.read().replace(b"\0", b" ")
        except OSError:
            cmd = b""
        found[pid] = cmd
    return found


def stop_descendants(grace_s: float = 5.0, limit_s: float = 30.0) -> None:
    """Wait for every process this run started to end: ``grace_s`` for
    them to exit on their own after ``ray.shutdown``, then SIGTERM, then
    SIGKILL, reaping each one that is a child of this process."""
    import signal
    t0 = time.perf_counter()
    sent = None
    while True:
        try:
            while os.waitpid(-1, os.WNOHANG)[0] > 0:
                pass
        except ChildProcessError:
            pass
        left = descendants()
        if not left:
            return
        waited = time.perf_counter() - t0
        if waited > limit_s:
            print(f"processes still running: {sorted(left)}", file=sys.stderr)
            return
        sig = (signal.SIGKILL if waited > 2 * grace_s else
               signal.SIGTERM if waited > grace_s else None)
        if sig is not None and sig != sent:
            for pid in left:
                try:
                    os.kill(pid, sig)
                except ProcessLookupError:
                    pass
            sent = sig
        time.sleep(0.05)


def peak_rss_mb() -> float:
    """Largest VmHWM among this driver and its Ray worker processes."""
    procs = [os.getpid()] + [
        pid for pid, cmd in descendants().items()
        if b"default_worker" in cmd or cmd.startswith(b"ray::")]
    best = 0
    for pid in procs:
        try:
            with open(f"/proc/{pid}/status") as f:
                for line in f:
                    if line.startswith("VmHWM:"):
                        best = max(best, int(line.split()[1]))
        except OSError:
            continue
    return best / 1024.0


def run_e2e(w, args, setup_excluded: float) -> dict:
    """Wrong outputs count as failed ops but keep their times, since the
    op ran in full; ops that raise count as failed and have no time."""
    _, ok, _ = w.op()                          # warm-up op on the real input
    setup_s = time.perf_counter() - PROCESS_START - setup_excluded
    attempted, failed, errors, walls = 1, int(not ok), 0, []
    t0 = time.perf_counter()
    while len(walls) < MIN_OPS or time.perf_counter() - t0 < args.seconds:
        attempted += 1
        try:
            wall, ok, _ = w.op()
        except Exception:
            import traceback
            traceback.print_exc()
            failed, errors = failed + 1, errors + 1
            if errors > MIN_OPS:
                break
            continue
        walls.append(wall)
        failed += int(not ok)
    if not walls:
        raise RuntimeError("every measured op raised")
    op_p50 = statistics.median(walls)
    return {
        "attempted": attempted, "failed": failed,
        "metrics": {
            "setup_s": (setup_s, "s"),
            "op_p50_s": (op_p50, "s"),
            "docs_per_s": (w.docs() / op_p50, "docs/s"),
            "peak_rss_mb": (peak_rss_mb(), "MB"),
        },
        "info": {"ops": len(walls), "op_walls_s": walls},
    }


def run_traced(w, d: str) -> dict:
    import kernels
    import tracing
    # warm-up, untraced, traced, untraced: the two untraced ops bracket
    # the traced one in time, so drift of the machine's speed cancels
    plain = [w.op() for _ in range(2)]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced, ok1, rec = w.op(tracer)
    finally:
        tracer.uninstall()
    plain.append(w.op())
    untraced = statistics.median(p[0] for p in plain[1:])
    ray_ops = tracer.ray_ops()
    spans_path = os.path.join(BENCH_DIR, ".traces", f"{w.name}.spans.json")
    os.makedirs(os.path.dirname(spans_path), exist_ok=True)
    with open(spans_path, "w") as f:
        json.dump({"spans": tracer.spans, "ray_ops": ray_ops}, f)

    layers = {k: rec.get(k, 0) for k in LAYER_KEYS}
    ops = tracing.ray_op_metrics(ray_ops)
    task_wall = sum(o["wall_s"] for o in ray_ops)
    layers.update(kernels.measure(d, w.block_rows(), w.shard))
    m = {}
    for k, v in layers.items():
        m[k] = (v, UNITS[k])
    for cls, vals in ops.items():
        for field, v in vals.items():
            m[f"ray.op.{cls}.{field}"] = (v, "s" if field.endswith("_s")
                                          else "count")
    m["ray.task_wall_s"] = (task_wall, "s")
    m["ray.overhead_s"] = (traced - task_wall, "s")
    m["trace.op_wall_s"] = (traced, "s")
    m["trace.untraced_op_s"] = (untraced, "s")
    # the span tree accounts for the whole traced op by construction, so
    # the reconciliation that can fail is traced against untraced wall
    m["trace.reconcile_err"] = (abs(traced - untraced) / untraced, "ratio")
    return {"attempted": 4,
            "failed": sum(not p[1] for p in plain) + int(not ok1),
            "metrics": m, "info": {"spans_file": spans_path}}


LAYER_KEYS = [
    "pipeline.collision_keys_s", "pipeline.flags_pass_s",
    "pipeline.summary_per_map_s", "pipeline.per_check_type_s",
    "pipeline.merge_overall_s", "report.render_s",
    "lineage.crash_pass_s", "lineage.resume_pass_s",
    "lineage.small_partitions_s", "lineage.partitions_skipped",
    "lineage.bytes_written",
    "dupnames.pairs_s", "geocluster.eps_mine_s", "geocluster.ckpt_bytes",
    "geocluster.ckpt_hits", "geocluster.ckpt_misses",
    "geocluster.ckpt_read_s", "geocluster.geo_clusters_s",
    "geocluster.nn_stats_s",
]
UNITS = {k: "s" if k.endswith("_s") else "count" for k in LAYER_KEYS}
UNITS.update({
    "lineage.bytes_written": "bytes", "geocluster.ckpt_bytes": "bytes",
    "spans.decode_docs_per_s": "docs/s", "geo.pip_docs_per_s": "docs/s",
    "checks.flag_docs_per_s_block": "docs/s",
    "checks.flag_docs_per_s_4k": "docs/s",
    "pipeline.dedup_filter_docs_per_s": "docs/s",
    "pipeline.collision_rows": "count", "pipeline.dedup_keep_ratio": "ratio",
    "kernels.block_rows": "count",
})


def main(argv=None) -> int:
    args = parse_args(argv)
    sys.path.insert(0, BENCH_DIR)
    sys.path.insert(0, ROOT)
    import osmlint  # noqa: F401  fails here when the program is absent
    import workloads

    become_subreaper()
    os.makedirs(os.path.join(BENCH_DIR, ".runs"), exist_ok=True)
    dirs = private_dirs()
    configure_env(dirs)
    import ray
    try:
        # input and oracle are made outside timing and outside setup_s
        t_ex = time.perf_counter()
        sf = args.sf or workloads.SF
        ensure_prepared(args.workload, sf, args.seed)
        d = make_input(sf, args.seed)
        w = workloads.WORKLOADS[args.workload](d, dirs["work"], dirs["ckpt"])
        excluded = time.perf_counter() - t_ex
        start_ray(dirs["ray"])
        res = run_traced(w, d) if args.trace else run_e2e(w, args, excluded)
    finally:
        if ray.is_initialized():
            ray.shutdown()
        stop_descendants()
        shutil.rmtree(dirs["run"], ignore_errors=True)
        shutil.rmtree(dirs["ray"], ignore_errors=True)
    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "sf": args.sf or workloads.SF,
                      "cpus_usable": len(os.sched_getaffinity(0)),
                      "ray_num_cpus": NUM_CPUS, "docs": w.docs(),
                      **res["info"]}))
    print(json.dumps({
        "correct": res["failed"] == 0,
        "attempted": res["attempted"], "failed": res["failed"],
        "metrics": {k: {"value": float(v), "unit": u}
                    for k, (v, u) in res["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    # Every process of a run, driver and Ray workers alike, hashes strings
    # with the same seed.  With per-process random seeds, identical runs
    # differed by up to 30% in op time.  Workers inherit the variable.
    if os.environ.get("PYTHONHASHSEED") != "0":
        os.environ["PYTHONHASHSEED"] = "0"
        os.execv(sys.executable, [sys.executable] + sys.argv)
    sys.exit(main())
