# -*- coding: utf-8 -*-
"""Per-partition lineage: resumable partitioned output + metrics manifest.

North-rule requirement: every lint pass is resumable from checkpoint.
The unit of work is one input shard — a ``map=<slug>`` directory of the
hive-partitioned document table (mirroring the reference's one-process-
per-map sharding, src/main.py:223-232, but each partition here is itself a
distributed Dataset run).

Layout under ``out_dir``::

    part=<slug>/*.parquet     flag rows for that map shard
    _manifest.json            {partition: {rows_in, flags, errors, wall_s,
                               finished_at_iso}}  — written atomically
                               (tmp + rename) after EACH partition

``run_resumable`` skips partitions already present in the manifest, so a
killed run continues where it stopped.  The manifest is the authority:
each partition it lacks is rewritten with ``caches.publish(...,
replace=True)``, which first removes whatever a crashed or earlier run
left under that slug (sealed or not, temp dirs included), then publishes
atomically, sealed with ``_SUCCESS``.  Readers take the partitions from
``partition_dirs`` (or their files from ``partition_files``), never from a
directory listing of ``out_dir``.  Lineage output is not a cache —
``clear_caches(purge_disk=True)`` never deletes it.  All partitions dedup
against one whole-table collision table, built once per process: the
first partition a process runs carries that pre-pass in its manifest
``wall_s``."""

from __future__ import annotations

import json
import os
import time

import pyarrow.parquet as pq

from . import caches, pipeline


def _manifest_path(out_dir: str) -> str:
    return os.path.join(out_dir, "_manifest.json")


def load_manifest(out_dir: str) -> dict:
    p = _manifest_path(out_dir)
    if os.path.exists(p):
        with open(p) as f:
            return json.load(f)
    return {}


def _save_manifest(out_dir: str, manifest: dict) -> None:
    p = _manifest_path(out_dir)
    tmp = p + ".tmp"
    with open(tmp, "w") as f:
        json.dump(manifest, f, indent=1, sort_keys=True)
    os.replace(tmp, p)


def partitions(data_dir: str) -> list[str]:
    return pipeline.doc_partitions(data_dir)


def partition_dirs(out_dir: str) -> list[str]:
    """The ``part=<slug>`` dir of every partition in the manifest: the
    output of a (possibly resumed) run, without the leftovers of a
    killed writer that may sit beside it."""
    return [os.path.join(out_dir, f"part={slug}")
            for slug in sorted(load_manifest(out_dir))]


def partition_files(out_dir: str) -> list[str]:
    """The parquet files of ``partition_dirs``, for readers such as
    ``rd.read_parquet`` that take a list of files but not a list of
    directories."""
    return [os.path.join(d, f) for d in partition_dirs(out_dir)
            for f in sorted(os.listdir(d)) if f.endswith(".parquet")]


def run_resumable(data_dir: str, out_dir: str, *,
                  fail_after: int | None = None) -> dict:
    """Run the lint pass partition-by-partition, skipping finished ones.

    ``fail_after`` (tests only): raise after N newly-completed partitions
    to simulate a mid-run crash."""
    os.makedirs(out_dir, exist_ok=True)
    manifest = load_manifest(out_dir)
    done_new = 0
    for slug in partitions(data_dir):
        if slug in manifest:
            continue
        t0 = time.time()
        part_dir = caches.publish(
            os.path.join(out_dir, f"part={slug}"),
            lambda tmp: pipeline.flags_dataset(
                data_dir, partition=slug).write_parquet(tmp),
            replace=True)
        flags = pq.read_table(part_dir, columns=["result"])
        n_err = flags.column("result").to_pandas().eq("CHECKED_ERROR").sum()
        manifest[slug] = {
            "flags": flags.num_rows,
            "errors": int(n_err),
            "wall_s": round(time.time() - t0, 3),
            "finished_at": time.strftime("%Y-%m-%dT%H:%M:%S"),
        }
        _save_manifest(out_dir, manifest)
        done_new += 1
        if fail_after is not None and done_new >= fail_after:
            raise RuntimeError(f"injected failure after {done_new} partitions")
    return manifest


def write_cell_sorted(data_dir: str, out_dir: str,
                      *, num_files: int | None = None) -> list[str]:
    """Tile-locality output layout (north-rule: range-partitioned sort on
    cell id): the decoded table globally sorted by Morton code — a Ray
    ``sort`` is a range-partition shuffle, so each output file covers a
    contiguous Z-order range and spatially close docs colocate."""
    ds = pipeline.decoded(data_dir).sort("morton")
    if num_files:
        ds = ds.repartition(num_files)
    os.makedirs(out_dir, exist_ok=True)
    ds.write_parquet(out_dir)
    return sorted(os.listdir(out_dir))
