# -*- coding: utf-8 -*-
"""kNN duplicate-name detection via cell-groupby colocation.

The north-star operator the reference only hints at (its checks are
per-entity): find pairs of distinct populated places (place in
city/town/village) carrying the SAME name within ``DEFAULT_RADIUS_KM``
of each other — candidate duplicates/forks in the map data.

Ray-Data-idiomatic shape (no all-pairs shuffle):

1. decode + filter to named CTV entities (column-pruned, stateless);
2. per-doc dedup (groupby doc_id, last-wins by seq — mirrors the engine's
   A5 semantics so the pair universe is deterministic);
3. drop the stop-names (``MAX_NAME_FREQ``) and **replicate** each doc
   into its home cell + 8 neighbor cells at ``DEFAULT_RES``, whose cell
   size exceeds ``DEFAULT_RADIUS_KM`` (``geo.ring_copies``: every
   qualifying pair shares a cell);
4. shuffle on the FINE cell hashed into ``widths.REDUCE_BUCKETS`` buckets
   — hashing the fine cell scatters hot metros (Belgrade/Novi Sad
   density skew) across all buckets;
5. within each bucket, ``geo.ring_pairs`` with the exact (cell, name)
   code as run key: anchor x same-run copies in bounded chunks +
   haversine gate; a pair (a, b), ``doc_a < doc_b``, is emitted exactly
   once — in doc_a's home cell (doc_b is present there by replication).

Scale note: replication factor is a constant 9; the mining work of a
group is bounded by the same-name density of its fine cells, not by
global skew.  For 100 TB inputs raise ``DEFAULT_RES`` (smaller cells)
while the cell size still exceeds the radius.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import ray.data as rd

from . import caches, config, geo, widths
from .pipeline import decoded, to_arrow

#: the one map shard the spatial family reads
MAP_SLUG = config.SERBIA_SLUG
DEFAULT_RES = 12          # 2^12 grid: ~4.9 km cell height > radius 2 km
DEFAULT_RADIUS_KM = 2.0

NAMED_SCHEMA = pa.schema([("doc_id", pa.string()), ("seq", pa.int64()),
                          ("name", pa.string()), ("lat", pa.float64()),
                          ("lon", pa.float64()), ("_b", pa.int64())])
PAIRS_SCHEMA = pa.schema([("name", pa.string()), ("doc_a", pa.string()),
                          ("doc_b", pa.string())])
_COPY_SCHEMA = pa.schema([("_b", pa.int64()), ("cell", pa.int64()),
                          ("anchor", pa.bool_()), ("doc_id", pa.string()),
                          ("name", pa.string()), ("lat", pa.float64()),
                          ("lon", pa.float64())])


def _copies(df: pd.DataFrame, hot: frozenset) -> pa.Table:
    """Ring-1 copies (``geo.ring_copies``) of the docs whose name is not
    a stop-name, keyed for the fine-cell-hash shuffle."""
    df = df[~df["name"].isin(hot)]
    rows, cell, anchor = geo.ring_copies(df["lat"].to_numpy(),
                                         df["lon"].to_numpy(), DEFAULT_RES)
    cols = {c: df[c].to_numpy()[rows]
            for c in ("doc_id", "name", "lat", "lon")}
    return to_arrow(pd.DataFrame({"_b": widths.bucket_of(cell), "cell": cell,
                                  "anchor": anchor, **cols}), _COPY_SCHEMA)


def _pairs_group(g: pd.DataFrame) -> pa.Table:
    """Same-name pairs within the radius among one bucket's copies
    (``geo.ring_pairs``, run key = the (cell, name) code).  String doc
    ids order the pair, as in the oracle."""
    doc = g["doc_id"].to_numpy(dtype=object)
    a, b, _ = geo.ring_pairs(
        g.groupby(["cell", "name"], sort=False).ngroup().to_numpy(),
        g["anchor"].to_numpy(bool), doc, g["lat"].to_numpy(np.float64),
        g["lon"].to_numpy(np.float64), DEFAULT_RADIUS_KM)
    return pa.table({"name": g["name"].to_numpy(dtype=object)[a],
                     "doc_a": doc[a], "doc_b": doc[b]}, schema=PAIRS_SCHEMA)


MAX_NAME_FREQ = 64    # stop-name cap: names more frequent than this are
                      # "common names" (the reference domain's Zipf-hot street
                      # names), not duplicate candidates — and their pair
                      # count is quadratic, so the cap also bounds output size


def named_ctv_deduped(data_dir: str) -> rd.Dataset:
    """Deduped named-CTV point set of the ``MAP_SLUG`` shard: decode ->
    filter to named city/town/village entities -> per-doc last-wins
    dedup.  The shared point universe of the spatial pair/cluster
    operators (``dup_name_pairs``, ``geocluster.geo_clusters``).

    Per-doc dedup runs as a distributed keyed shuffle over the small
    named-CTV projection (6 narrow columns): a doc_id hash-bucket groupby
    colocates every row of a doc, the per-group kernel keeps EXACTLY one
    row — the max-seq row, seq ties broken deterministically by
    (name, lat, lon) (the oracle's row_number keeps one arbitrary tied
    row; ties cannot occur in well-formed input where seq is the source
    position).  Dedup runs BEFORE any frequency count, matching the
    oracle's deduped `named` CTE (ADVICE r1).  Nothing lands on the
    driver.  Returns the MATERIALIZED projection — a sliver of the input
    (5 narrow columns of the city/town/village subset), pinned so
    downstream passes don't re-run the decode+dedup lineage — memoized
    for the Ray session under a content fingerprint, so ``dup_name_pairs``
    and ``geocluster.geo_clusters``, which the driver runs back-to-back,
    share it."""
    import os
    shard = os.path.join(data_dir, "docs", f"map={MAP_SLUG}")
    return caches.memo(
        ("named_ctv_deduped", shard, caches.path_fingerprint(shard)),
        lambda: _named_ctv_deduped(data_dir))


def _named_ctv_deduped(data_dir: str) -> rd.Dataset:
    # read ONLY the target map shard (hive pruning at the read)
    ds = decoded(data_dir, partition=MAP_SLUG)

    def named_ctv(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        keep = (df["map_slug"] == MAP_SLUG) & df["place"].isin(
            ("city", "town", "village")) & df["name"].notna()
        out = df.loc[keep, ["doc_id", "seq", "name", "lat", "lon"]]
        out["_b"] = widths.bucket_of(out["doc_id"].to_numpy(dtype=object),
                                     widths.KEY_BUCKETS)
        return to_arrow(out, NAMED_SCHEMA)

    ds = ds.map_batches(named_ctv, batch_format="pyarrow")

    def dedup_group(g: pd.DataFrame) -> pa.Table:
        g = g.sort_values(["doc_id", "seq", "name", "lat", "lon"],
                          kind="stable")
        g = g.drop_duplicates("doc_id", keep="last")
        return to_arrow(g, NAMED_SCHEMA)

    return ds.repartition(widths.shuffle_blocks()).groupby("_b").map_groups(
        dedup_group, batch_format="pandas").materialize()


def dup_name_pairs(data_dir: str) -> rd.Dataset:
    deduped = named_ctv_deduped(data_dir)

    # hot ("stop") names over the DEDUPED stream: per-batch count partials,
    # name-hash-bucket groupby, per-group emit only names above the cap —
    # the driver sees O(#hot names)
    freq_schema = pa.schema([("name", pa.string()), ("c", pa.int64()),
                             ("_nb", pa.int64())])
    hot_schema = pa.schema([("name", pa.string())])

    def name_partial(df: pd.DataFrame) -> pa.Table:
        c = df.groupby("name", sort=False).size().reset_index(name="c")
        c["_nb"] = widths.bucket_of(c["name"].to_numpy(dtype=object),
                                    widths.KEY_BUCKETS)
        return to_arrow(c, freq_schema)

    def hot_in_bucket(g: pd.DataFrame) -> pa.Table:
        tot = g.groupby("name", sort=False)["c"].sum()
        return to_arrow(tot[tot > MAX_NAME_FREQ].reset_index()[["name"]],
                        hot_schema)

    hot = frozenset(deduped.map_batches(name_partial, batch_format="pandas")
                    .repartition(widths.shuffle_blocks()).groupby("_nb")
                    .map_groups(hot_in_bucket, batch_format="pandas")
                    .to_pandas()["name"])

    return deduped.map_batches(_copies, batch_format="pandas",
                               fn_kwargs={"hot": hot}) \
        .groupby("_b").map_groups(_pairs_group, batch_format="pandas")
