# -*- coding: utf-8 -*-
"""The one parallelism-width policy: every read-block, shuffle-block,
reduce-bucket and join-partition count in the engine is decided here.

A width only shapes the Ray Data plan, never a result: every consumer
reduces within a bucket (or join partition) and combines across them
with exact-integer or per-row math, so changing a rule below is a
one-module performance change.  The CPU count is read once per call from
the running Ray session (``cpus``), which fails loudly when no session
is up instead of silently assuming a cluster size.

Call sites go through the module (``widths.cpus()``, not
``from .widths import cpus``) so one substitution changes every width.
"""

from __future__ import annotations

import os

import numpy as np
import pandas as pd
import ray

#: floor of the CPU-scaled block counts (read, collision read, shuffle)
MIN_BLOCKS = 16
#: floor of the coarse id-hash shuffle fan-out (``n_buckets``)
MIN_BUCKETS = 64
#: floor of a hash join's partition count
MIN_JOIN_PARTITIONS = 4

#: bucket count for every high-cardinality reduce.  Ray's
#: ``groupby().aggregate()`` and per-key ``map_groups`` pay per-GROUP
#: overhead in the sort-based finalizer — a 237k-group aggregate measured
#: ~100x slower than bounded bucket groups with a C-level pandas/numpy
#: combine inside ``map_groups``.  Each bucket materializes in ONE worker
#: task, so a cluster-scale corpus (1/256 of a deduped partial stream must
#: fit one worker's heap) needs this raised here.
REDUCE_BUCKETS = 256
#: fixed user/doc-hash bucket count of the per-key keyed shuffles
#: (event operators, the named-CTV doc dedup, the hot-name count)
KEY_BUCKETS = 64

#: 64-bit golden-ratio multiplier of the integer bucket hash
GOLDEN = np.uint64(0x9E3779B97F4A7C15)


def cpus() -> int:
    """The cluster's CPU count — the only cluster read in the engine."""
    if not ray.is_initialized():
        raise RuntimeError(
            "osmlint sizes its Ray Data stages from the cluster's CPU "
            "count, but no Ray session is running: call ray.init() "
            "before running an osmlint pipeline")
    return int(ray.cluster_resources()["CPU"])


def read_blocks() -> int:
    """Read-task coalescing target of the document read: the
    hive-partitioned doc table has thousands of small fragments, and one
    read task per fragment makes the narrow passes SCHEDULING-bound
    (measured 20.2s -> 7.4s for the collision pre-pass at 8 CPUs with ~2k
    fragments).  ~4 blocks per CPU keeps the pipeline busy without
    per-fragment task overhead."""
    return max(MIN_BLOCKS, 4 * cpus())


def collision_read_blocks() -> int:
    """Read target of the collision pre-pass: ~1 block per CPU, NOT the
    main pass's 4.  The projection emits ~100KB partial blocks, and the
    downstream sort over many tiny blocks is pure task overhead (measured
    9.2s pre-pass vs 2.3s main pass at 32 CPUs with 128 blocks; ~3s total
    at 32 blocks)."""
    return max(MIN_BLOCKS, cpus())


def shuffle_blocks() -> int:
    """Coalesce target before small keyed shuffles: a groupby over
    hundreds of KB-sized read blocks is dominated by per-block task
    overhead (measured 10.6s -> 0.4s at sf0.1), but the count grows with
    the cluster so reduce parallelism isn't capped on real deployments."""
    return max(MIN_BLOCKS, cpus())


def n_buckets() -> int:
    """Coarse shuffle fan-out of the id-hash bucket reduces: ~2 groups
    per CPU so every reducer has work while per-group overhead stays
    negligible."""
    return max(MIN_BUCKETS, 2 * cpus())


def join_partitions(n_rows: int, rows_per_partition: int) -> int:
    """Hash-join fan-out: ~1 partition per CPU (floor
    ``MIN_JOIN_PARTITIONS``) so a wide join isn't capped at a handful of
    reduce tasks on a wide cluster, bounded by row volume (at least
    ``rows_per_partition`` rows per partition) so tiny inputs don't pay
    empty-partition overhead (the sf1 DBSCAN closure measured 165-185 s
    per propagation round at a fixed 4 partitions on 32 CPUs)."""
    return max(1, min(max(MIN_JOIN_PARTITIONS, cpus()),
                      n_rows // rows_per_partition))


def byte_blocks(path: str) -> int:
    """Read blocks sized by bytes (~128 MB each, Ray's default target) for
    a file or a flat directory of files.  Sort-based consumers use it:
    sort output partitioning follows input block count, and a tiny input
    split into #CPU blocks yields empty zero-schema sort partitions.  At
    scale it converges to the default — never fewer blocks than the data
    needs."""
    if os.path.isdir(path):
        n_bytes = sum(os.path.getsize(os.path.join(path, f))
                      for f in os.listdir(path))
    else:
        n_bytes = os.path.getsize(path)
    return max(1, n_bytes >> 27)


def bucket_of(keys: np.ndarray, n: int = REDUCE_BUCKETS) -> np.ndarray:
    """Deterministic int64 bucket in ``[0, n)`` of every key, stable
    across processes: string keys (object/str arrays) through pandas'
    unsalted ``hash_array``, integer keys through the golden-ratio
    multiplicative hash (top bits, so sequential ids spread)."""
    keys = np.asarray(keys)
    if keys.dtype.kind in "OSU":
        return (pd.util.hash_array(keys.astype(object, copy=False))
                % np.uint64(n)).astype(np.int64)
    return ((keys.astype(np.uint64) * GOLDEN) >> np.uint64(40)) \
        .astype(np.int64) % n
