"""The three workloads.  Each op calls osmlint only through its public
functions, starts from cleared caches, and returns (wall seconds, ok,
layer record).  The timer covers the op's calls into osmlint and nothing
of the output check that follows.
"""

from __future__ import annotations

import contextlib
import math
import os
import shutil
import statistics
import time

import pyarrow.parquet as pq

import oracles

#: Input size of every workload.  A full measurement is 4 + 22 x 3 runs
#: within 3420 s, so one run gets under 49 s including Ray start-up and a
#: warm-up op; sf0.005 (about 28k docs) is the largest input at which the
#: slowest workload, shard_relint, still fits.
SF = 0.005


def n_docs(d: str, shard: str | None = None) -> int:
    path = os.path.join(d, "docs", f"map={shard}") if shard \
        else os.path.join(d, "docs")
    return sum(pq.ParquetFile(os.path.join(root, f)).metadata.num_rows
               for root, _, files in os.walk(path)
               for f in files if f.endswith(".parquet"))


def dir_bytes(path: str) -> int:
    return sum(os.path.getsize(os.path.join(root, f))
               for root, _, files in os.walk(path) for f in files)


def span(tracer, name: str):
    return tracer.span(name) if tracer is not None else contextlib.nullcontext()


class Workload:
    name = ""
    #: the one map shard the op reads, or None for the whole table
    shard = None

    def __init__(self, d: str, work_dir: str, ckpt_dir: str):
        self.d, self.work_dir, self.ckpt_dir = d, work_dir, ckpt_dir
        self.expected = oracles.expected(self.name, d)

    def docs(self) -> int:
        return n_docs(self.d, self.shard)

    def block_rows(self) -> int:
        """Rows per block of the op's Ray reads: one block per file."""
        return self.docs()

    def op(self, tracer=None) -> tuple[float, bool, dict]:
        raise NotImplementedError


class CountryReport(Workload):
    name = "country_report"

    def block_rows(self) -> int:
        from osmlint import pipeline
        return math.ceil(self.docs() / pipeline.read_blocks())

    def op(self, tracer=None):
        import osmlint
        from osmlint import report
        out = os.path.join(self.work_dir, "report.html")
        osmlint.clear_caches()
        t0 = time.perf_counter()
        with span(tracer, "report.write_report"):
            report.write_report(self.d, out)
        wall = time.perf_counter() - t0
        with open(out) as f:
            got = oracles.parse_report(f.read())
        keys = ("dated", "maps", "checks", "errors", "error_order_ok",
                "error_sections")
        ok = all(got[k] == self.expected[k] for k in keys)
        rec = {}
        if tracer is not None:
            coll = tracer.total("pipeline.collision_keys")
            render = tracer.total("report.render_report")
            # merge_overall returns a lazy Dataset: A3 is building it plus
            # the execution render_report starts when it collects it
            a = [tracer.total("pipeline.summary_per_map"),
                 tracer.total("pipeline.per_check_type"),
                 tracer.total("pipeline.merge_overall")
                 + tracer.total("ray.execute", parent="report.render_report")]
            # write_report = collision pre-pass + flags pass (streamed into
            # the parquet checkpoint) + render_report; render_report =
            # A1 + A2 + A3 + the driver-side HTML assembly
            rec = {
                "pipeline.collision_keys_s": coll,
                "pipeline.flags_pass_s": wall - render - coll,
                "pipeline.summary_per_map_s": a[0],
                "pipeline.per_check_type_s": a[1],
                "pipeline.merge_overall_s": a[2],
                "report.render_s": render - sum(a),
            }
        return wall, ok, rec


class ShardRelint(Workload):
    name = "shard_relint"
    fail_after = 7

    def block_rows(self) -> int:
        from osmlint import lineage
        return int(statistics.median(n_docs(self.d, p)
                                     for p in lineage.partitions(self.d)))

    def op(self, tracer=None):
        import osmlint
        from osmlint import lineage
        out = os.path.join(self.work_dir, "relint")
        shutil.rmtree(out, ignore_errors=True)
        osmlint.clear_caches()
        crashed = False
        t0 = time.perf_counter()
        try:
            with span(tracer, "lineage.crash_pass"):
                lineage.run_resumable(self.d, out, fail_after=self.fail_after)
        except RuntimeError:
            crashed = True
        t1 = time.perf_counter()
        done_before = lineage.load_manifest(out)
        with span(tracer, "lineage.resume_pass"):
            manifest = lineage.run_resumable(self.d, out)
        t2 = time.perf_counter()
        wall = t2 - t0

        parts = lineage.partitions(self.d)
        frames = [pq.read_table(os.path.join(out, f"part={p}"),
                                columns=oracles.FLAG_COLUMNS).to_pandas()
                  for p in parts]
        import pandas as pd
        flags = pd.concat(frames, ignore_index=True)
        ok = (crashed and len(done_before) == self.fail_after
              and sorted(manifest) == sorted(parts)
              # a skipped partition keeps its manifest entry untouched
              and all(manifest[k] == v for k, v in done_before.items())
              and sum(v["flags"] for v in manifest.values()) == len(flags)
              and oracles.frame_digest(flags) == self.expected["flags"])
        rec = {}
        if tracer is not None:
            from osmlint import synth
            coll = tracer.total("pipeline.collision_keys")
            # each partition's manifest wall_s covers its collision
            # pre-pass and its flags pass streamed into parquet
            rec = {
                "pipeline.collision_keys_s": coll,
                "pipeline.flags_pass_s": sum(
                    v["wall_s"] for v in manifest.values()) - coll,
                "lineage.crash_pass_s": t1 - t0,
                "lineage.resume_pass_s": t2 - t1,
                "lineage.small_partitions_s": sum(
                    v["wall_s"] for k, v in manifest.items()
                    if k != synth.SERBIA_SLUG),
                "lineage.partitions_skipped": len(done_before),
                "lineage.bytes_written": dir_bytes(out),
            }
        shutil.rmtree(out, ignore_errors=True)
        return wall, ok, rec


class SpatialQA(Workload):
    name = "spatial_qa"

    shard = "serbia_pbf"

    def _ckpts(self) -> list[str]:
        return sorted(p for p in os.listdir(self.ckpt_dir)
                      if p.startswith("eps_pairs_") and os.path.exists(
                          os.path.join(self.ckpt_dir, p, "_SUCCESS")))

    def op(self, tracer=None):
        import osmlint
        from osmlint import dupnames, geocluster
        osmlint.clear_caches(purge_disk=True)
        before = self._ckpts()
        t0 = time.perf_counter()
        with span(tracer, "dupnames.dup_name_pairs"):
            pairs = dupnames.dup_name_pairs(self.d).to_pandas()
        t1 = time.perf_counter()
        with span(tracer, "geocluster.geo_clusters"):
            clusters = geocluster.geo_clusters(self.d).to_pandas()
        t2 = time.perf_counter()
        after_mine = self._ckpts()
        # the checkpoint root's mtime moves only if something is written
        # into it, so an unchanged mtime proves nn_stats only read
        root_mtime = os.stat(self.ckpt_dir).st_mtime_ns
        osmlint.clear_caches()
        with span(tracer, "geocluster.nn_stats"):
            nn = geocluster.nn_stats(self.d)
        t3 = time.perf_counter()
        wall = t3 - t0
        misses = len(after_mine) - len(before)
        hits = int(self._ckpts() == after_mine
                   and os.stat(self.ckpt_dir).st_mtime_ns == root_mtime)
        exp = self.expected
        got_nn = nn[exp["nn_columns"]].iloc[0].astype(float).tolist()
        ok = (before == [] and misses == 1 and hits == 1
              and oracles.frame_digest(pairs) == exp["pairs"]
              and oracles.frame_digest(clusters) == exp["clusters"]
              and all(math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-12)
                      for a, b in zip(got_nn, exp["nn"])))
        rec = {}
        if tracer is not None:
            rec = {
                "dupnames.pairs_s": t1 - t0,
                "geocluster.geo_clusters_s": t2 - t1,
                "geocluster.eps_mine_s": tracer.total(
                    "geocluster.mined_eps_pairs", within="geocluster.geo_clusters"),
                "geocluster.nn_stats_s": t3 - t2,
                "geocluster.ckpt_read_s": tracer.total(
                    "geocluster.mined_eps_pairs", within="geocluster.nn_stats"),
                "geocluster.ckpt_bytes": sum(
                    dir_bytes(os.path.join(self.ckpt_dir, p)) for p in after_mine),
                "geocluster.ckpt_hits": hits,
                "geocluster.ckpt_misses": misses,
            }
        return wall, ok, rec


WORKLOADS = {w.name: w for w in (CountryReport, ShardRelint, SpatialQA)}
