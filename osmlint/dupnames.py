# -*- coding: utf-8 -*-
"""kNN duplicate-name detection via cell-groupby colocation.

The north-star operator the reference only hints at (its checks are
per-entity): find pairs of distinct populated places (place in
city/town/village) carrying the SAME name within ``radius_km`` of each
other — candidate duplicates/forks in the map data.

Ray-Data-idiomatic shape (no all-pairs shuffle):

1. decode + filter to named CTV entities (column-pruned, stateless);
2. per-doc dedup (groupby doc_id, last-wins by seq — mirrors the engine's
   A5 semantics so the pair universe is deterministic);
3. **replicate** each doc into its home cell + 8 neighbor cells at a
   resolution whose cell size exceeds ``radius_km`` (guarantees every
   qualifying pair shares ≥1 group);
4. groupby (cell, name-hash bucket) — the bucket SALTS hot cells
   (Belgrade/Novi Sad density skew) while keeping same-name docs
   colocated, since the salt is a pure function of the join key;
5. within each group, an anchor-only vectorized name self-join + haversine
   gate; a pair (a, b), ``doc_a < doc_b``, is emitted exactly once — in
   doc_a's home cell (doc_b is present there by replication).

Scale note: replication factor is a constant 9; group size is bounded by
cell area × name-bucket fan-out, not by global skew.  For 100 TB inputs
raise ``res`` (smaller cells) and ``widths.NAME_BUCKETS`` together.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import ray.data as rd

from . import caches, geo, widths
from .pipeline import decoded, to_arrow

DEFAULT_RES = 12          # 2^12 grid: ~4.9 km cell height > radius 2 km
DEFAULT_RADIUS_KM = 2.0

NAMED_SCHEMA = pa.schema([("doc_id", pa.string()), ("seq", pa.int64()),
                          ("name", pa.string()), ("lat", pa.float64()),
                          ("lon", pa.float64()), ("_b", pa.int64())])


def replicate_to_cells(batch: pa.Table, *, res: int,
                       group_res: int) -> pa.Table:
    """Emit each doc into its home cell + ring-1 neighbors (anchor flag on
    the home copy).  ``gcell`` is the coarse ancestor cell at ``group_res``
    — the actual shuffle key, so groups stay few and fat (the per-group
    kernel joins on the fine ``cell``)."""
    df = batch.to_pandas()
    lat = df["lat"].to_numpy()
    lon = df["lon"].to_numpy()
    home = geo.cell_id(lat, lon, res)
    neigh = geo.cell_neighbors(home, res)            # (n, 8), -1 padded
    cells = np.concatenate([home[:, None], neigh], axis=1)   # (n, 9)
    n = len(df)
    rows = np.repeat(np.arange(n), 9)
    flat_cells = cells.reshape(-1)
    keep = flat_cells >= 0
    rows, flat_cells = rows[keep], flat_cells[keep]
    nfine = np.int64(1) << res
    shift = res - group_res
    ix, iy = flat_cells % nfine, flat_cells // nfine
    gcell = (iy >> shift) * (np.int64(1) << group_res) + (ix >> shift)
    out = pd.DataFrame({
        "gcell": gcell,
        "cell": flat_cells,
        "anchor": flat_cells == home[rows],
        "doc_id": df["doc_id"].to_numpy()[rows],
        "name": df["name"].to_numpy()[rows],
        "lat": lat[rows], "lon": lon[rows],
    })
    out["bucket"] = widths.bucket_of(out["name"].to_numpy(dtype=object),
                                     widths.NAME_BUCKETS)
    return to_arrow(out)


def pairs_in_group(g: pd.DataFrame, *, radius_km: float) -> pa.Table:
    """Anchor-driven same-(cell, name) pairs within one (gcell, bucket)
    group — one vectorized merge over thousands of docs, not a Python call
    per fine cell."""
    anchors = g[g["anchor"]]
    if not len(anchors):
        return _empty_pairs()
    m = anchors.merge(g, on=["cell", "name"], suffixes=("_a", "_b"))
    m = m[m["doc_id_a"] < m["doc_id_b"]]
    if not len(m):
        return _empty_pairs()
    d = geo.haversine_km(m["lat_a"].to_numpy(), m["lon_a"].to_numpy(),
                         m["lat_b"].to_numpy(), m["lon_b"].to_numpy())
    m = m[d <= radius_km]
    return to_arrow(
        pd.DataFrame({"name": m["name"].to_numpy(),
                      "doc_a": m["doc_id_a"].to_numpy(),
                      "doc_b": m["doc_id_b"].to_numpy()}), PAIRS_SCHEMA)


PAIRS_SCHEMA = pa.schema([("name", pa.string()), ("doc_a", pa.string()),
                          ("doc_b", pa.string())])


def _empty_pairs() -> pa.Table:
    return PAIRS_SCHEMA.empty_table()


MAX_NAME_FREQ = 64    # stop-name cap: names more frequent than this are
                      # "common names" (the reference domain's Zipf-hot street
                      # names), not duplicate candidates — and their pair
                      # count is quadratic, so the cap also bounds output size


def named_ctv_deduped(data_dir: str, *,
                      map_slug: str = "serbia_pbf") -> rd.Dataset:
    """Deduped named-CTV point set of one map shard: decode -> filter to
    named city/town/village entities -> per-doc last-wins dedup.  The
    shared point universe of the spatial pair/cluster operators
    (``dup_name_pairs``, ``geocluster.geo_clusters``).

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
    shard = os.path.join(data_dir, "docs", f"map={map_slug}")
    return caches.memo(
        ("named_ctv_deduped", shard, caches.path_fingerprint(shard)),
        lambda: _named_ctv_deduped(data_dir, map_slug))


def _named_ctv_deduped(data_dir: str, map_slug: str) -> rd.Dataset:
    # read ONLY the target map shard (hive pruning at the read)
    ds = decoded(data_dir, partition=map_slug)

    def named_ctv(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        keep = (df["map_slug"] == map_slug) & df["place"].isin(
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


def dup_name_pairs(data_dir: str, *, map_slug: str = "serbia_pbf",
                   radius_km: float = DEFAULT_RADIUS_KM,
                   res: int = DEFAULT_RES,
                   group_res: int = 8,
                   max_name_freq: int = MAX_NAME_FREQ) -> rd.Dataset:
    deduped = named_ctv_deduped(data_dir, map_slug=map_slug)

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
        return to_arrow(tot[tot > max_name_freq].reset_index()[["name"]],
                        hot_schema)

    hot = set(deduped.map_batches(name_partial, batch_format="pandas")
              .repartition(widths.shuffle_blocks()).groupby("_nb")
              .map_groups(hot_in_bucket, batch_format="pandas")
              .to_pandas()["name"])

    dedup_schema = pa.schema([f for f in NAMED_SCHEMA if f.name != "_b"])

    def drop_hot(df: pd.DataFrame) -> pa.Table:
        out = df[~df["name"].isin(hot)].drop(columns="_b")
        return to_arrow(out, dedup_schema)
    ds = deduped.map_batches(drop_hot, batch_format="pandas")

    ds = ds.map_batches(replicate_to_cells, batch_format="pyarrow",
                        fn_kwargs={"res": res, "group_res": group_res})
    return ds.groupby(["gcell", "bucket"]).map_groups(
        pairs_in_group, batch_format="pandas",
        fn_kwargs={"radius_km": radius_km})
