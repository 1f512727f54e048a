# -*- coding: utf-8 -*-
"""Grid-based spatial statistics over the quad-cell index.

Three classic geospatial-analysis operators a corpus-scale spatial
engine needs (north-rule scale extensions; the reference's per-entity
callback engine has no corpus-level spatial analytics at all — grid
conventions shared with ``queries.cell_index`` / ``cell_density_smooth``):

* ``moran_i`` — global Moran's I spatial autocorrelation of per-cell doc
  counts under queen (8-neighbor) binary weights, with the OCCUPIED
  cells as the study domain.
* ``gi_star`` — Getis-Ord Gi* hotspot z-score per occupied cell (Ord &
  Getis 1995), 3x3 window including self, occupied cells as the domain.
* ``kde_heatmap`` — quartic (biweight) kernel density at cell centers
  with a fixed distance cutoff — the QGIS-heatmap kernel.

Ray-Data shape: ONE corpus pass builds the grid-bounded per-cell count
table (``cell_counts``, which ``cell_index`` also reads); Moran/Gi*
then run constant x8/x9 neighbor spreads + bounded groupbys on that
CELL-bounded table (never the corpus), and the final closed forms run
on a table capped by the fixed grid (<= 4^res cells) — documented
driver-side like ``cell_density_smooth``'s occupied-cell join.  KDE is
a single corpus pass emitting <= 9 integer partial contributions per
point, pre-aggregated per batch, then one bounded groupby.  Nothing
all-to-all; nothing corpus-sized leaves the workers.

Float-parity strategy (the ``daily_trend`` lesson): every DISTRIBUTED
sum is over integers (counts, micro-weights) so summation order cannot
matter; the closed-form float division/sqrt happens once per output row
with the identical expression tree on both sides, then 6-dp floor
rounding.  The KDE kernel is polynomial — ``(1-u^2)^2`` — precisely so
no transcendental beyond the already-mirrored haversine is involved;
each per-point weight is quantized to an integer micro-weight BEFORE
the sum (``floor(w*1e6+0.5)``), making engine/oracle sums bit-equal.

Integer-width note for 100 TB: per-cell counts at res 8 can reach
~1e12; the Moran moments multiply two counts (<= 1e24), so the bounded
final reduction accumulates in Python ints (exact, unbounded) and the
oracle mirrors with HUGEINT — int64 would wrap silently.
"""

from __future__ import annotations

import math

import numpy as np
import pandas as pd
import pyarrow as pa
import ray.data as rd
from ray.data.aggregate import Sum

from . import geo, pipeline

CELL_RES = pipeline.CELL_RES
N_SIDE = 1 << CELL_RES
# dyadic rationals at res 8 (180/256, 360/256) — exactly representable,
# so engine and SQL literals are the same double.
LAT_STEP = 180.0 / N_SIDE
LON_STEP = 360.0 / N_SIDE
KDE_CUTOFF_KM = 60.0   # < 1.5 cell-heights (~117 km) => 3x3 cells cover
                       # every center within the cutoff (see kde_heatmap)


def _count_partial(batch: pa.Table) -> pa.Table:
    cells = batch["cell_id"].to_numpy(zero_copy_only=False)
    uniq, counts = np.unique(cells, return_counts=True)
    return pa.table({"cell_id": pa.array(uniq, type=pa.int64()),
                     "n": pa.array(counts, type=pa.int64())})


def cell_counts(ds: rd.Dataset) -> rd.Dataset:
    """Grid-bounded per-cell doc counts ``(cell_id, n)`` (the one corpus
    pass): the per-cell count every grid rollup reads."""
    return (ds.map_batches(_count_partial, batch_format="pyarrow")
            .groupby("cell_id").aggregate(Sum("n", alias_name="n")))


def _spread(batch: pa.Table, *, include_self: bool) -> pa.Table:
    """Each occupied cell emits (neighbor_cell, its count, 1) for the
    3x3 window (constant x8/x9 on the CELL-bounded table), edge-clipped."""
    c = batch["cell_id"].to_numpy(zero_copy_only=False).astype(np.int64)
    n = batch["n"].to_numpy(zero_copy_only=False).astype(np.int64)
    ix, iy = c % N_SIDE, c // N_SIDE
    outs = []
    for dy in (-1, 0, 1):
        for dx in (-1, 0, 1):
            if dx == 0 and dy == 0 and not include_self:
                continue
            jx, jy = ix + dx, iy + dy
            ok = (jx >= 0) & (jx < N_SIDE) & (jy >= 0) & (jy < N_SIDE)
            outs.append(pa.table({
                "cell_id": pa.array(jy[ok] * N_SIDE + jx[ok]),
                "t": pa.array(n[ok]),
                "w": pa.array(np.ones(int(ok.sum()), dtype=np.int64))}))
    return pa.concat_tables(outs)


def neighbor_sums(counts: rd.Dataset, *, include_self: bool) -> pd.DataFrame:
    """Occupied cells joined with their occupied-neighbor (sum, count)."""
    nbr = (counts.map_batches(_spread, batch_format="pyarrow",
                              fn_kwargs={"include_self": include_self})
           .groupby("cell_id")
           .aggregate(Sum("t", alias_name="t"), Sum("w", alias_name="w"))
           .to_pandas())
    occ = counts.to_pandas()
    df = occ.merge(nbr, on="cell_id", how="left")
    df["t"] = df["t"].fillna(0).astype(np.int64)
    df["w"] = df["w"].fillna(0).astype(np.int64)
    df["cell_id"] = df["cell_id"].astype(np.int64)
    df["n"] = df["n"].astype(np.int64)
    return df.sort_values("cell_id").reset_index(drop=True)


def _round6(x: float) -> float:
    return math.floor(x * 1e6 + 0.5) / 1e6


def moran_i(data_dir: str) -> pd.DataFrame:
    """Global Moran's I of per-cell doc counts, queen (8-neighbor)
    binary weights over occupied cells.

    I = (n/S0) * sum_ij w_ij z_i z_j / sum_i z_i^2 with z = n_i - mean,
    expanded into INTEGER moments so the distributed part sums exactly:
      A  = sum over directed neighbor pairs of n_i*n_j
      B  = sum over directed neighbor pairs of (n_i + n_j)
      S0 = number of directed neighbor pairs
      T, SQ = sum n_i, sum n_i^2;  m = T/n
      I = (n/S0) * ((A - m*B + m*m*S0) / (SQ - n*m*m))
    One corpus pass -> cell counts; one x8 spread + bounded groupby for
    (t_i, c_i); the moment reduction runs on the grid-bounded table in
    exact Python ints (see module docstring).  S0 = 0 (no adjacent
    occupied cells) or a zero variance yields an empty result — both
    sides agree."""
    counts = cell_counts(pipeline.decoded(data_dir)).materialize()
    df = neighbor_sums(counts, include_self=False)
    n = len(df)
    ns = [int(v) for v in df["n"].tolist()]
    ts = [int(v) for v in df["t"].tolist()]
    cs = [int(v) for v in df["w"].tolist()]
    T = sum(ns)
    SQ = sum(v * v for v in ns)
    A = sum(a * b for a, b in zip(ns, ts))
    B = sum(a * b for a, b in zip(ns, cs)) + sum(ts)
    S0 = sum(cs)
    if n == 0 or S0 == 0:
        return pd.DataFrame({"n_cells": pd.Series([], dtype=np.int64),
                             "s0": pd.Series([], dtype=np.int64),
                             "moran_i": pd.Series([], dtype=np.float64)})
    # float() conversions FIRST, mirroring the oracle's CAST(... AS
    # DOUBLE) on each integer moment — beyond 2^53 a bare int/int would
    # round from the exact rational while SQL rounds the operand first.
    m = float(T) / n
    den = float(SQ) - n * m * m
    if den == 0.0:
        return pd.DataFrame({"n_cells": pd.Series([], dtype=np.int64),
                             "s0": pd.Series([], dtype=np.int64),
                             "moran_i": pd.Series([], dtype=np.float64)})
    val = (n / S0) * ((float(A) - m * float(B) + m * m * S0) / den)
    return pd.DataFrame({"n_cells": pd.Series([n], dtype=np.int64),
                         "s0": pd.Series([S0], dtype=np.int64),
                         "moran_i": [_round6(val)]})


def gi_star(data_dir: str) -> pd.DataFrame:
    """Getis-Ord Gi* hotspot z-score per occupied cell: 3x3 binary
    window INCLUDING self, occupied cells as the study domain.

      t_i = sum of occupied 3x3 neighbor counts (incl. self)
      w_i = number of occupied 3x3 neighbors (incl. self)
      Gi* = (t_i - xbar*w_i) / (s * sqrt((n*w_i - w_i^2)/(n-1)))
    with xbar = T/n and s = sqrt(SQ/n - xbar^2).  Degenerate rows
    (zero variance, w_i = n, or n = 1) are filtered on BOTH sides
    rather than emitted as NULL.  Everything after the corpus pass is
    grid-bounded; z is 6-dp floor-rounded on both sides."""
    counts = cell_counts(pipeline.decoded(data_dir)).materialize()
    df = neighbor_sums(counts, include_self=True)
    n = len(df)
    out_empty = pd.DataFrame({
        "cell_id": pd.Series([], dtype=np.int64),
        "n_docs": pd.Series([], dtype=np.int64),
        "gi_z": pd.Series([], dtype=np.float64)})
    if n <= 1:
        return out_empty
    T = sum(int(v) for v in df["n"].tolist())
    SQ = sum(int(v) * int(v) for v in df["n"].tolist())
    xbar = float(T) / n
    svar = float(SQ) / n - xbar * xbar
    if svar <= 0.0:
        return out_empty
    s = math.sqrt(svar)
    t = df["t"].to_numpy(np.int64)
    w = df["w"].to_numpy(np.int64)
    inw = n * w - w * w                      # exact int64 (w <= n <= 4^res)
    keep = inw > 0
    denom = s * np.sqrt(inw[keep] / (n - 1.0))
    z = (t[keep] - xbar * w[keep]) / denom
    z = np.floor(z * 1e6 + 0.5) / 1e6
    return pd.DataFrame({
        "cell_id": df["cell_id"].to_numpy(np.int64)[keep],
        "n_docs": df["n"].to_numpy(np.int64)[keep],
        "gi_z": z}).sort_values("cell_id").reset_index(drop=True)


def kde_heatmap(data_dir: str) -> pd.DataFrame:
    """Quartic-kernel density at quad-cell centers: for every cell
    center within ``KDE_CUTOFF_KM`` of a point, the point contributes
    ``(1 - (d/cutoff)^2)^2`` (the QGIS-heatmap biweight kernel).

    Candidate restriction: with ``KDE_CUTOFF_KM`` < 1.5 cell-heights
    (res-8 cell height = 0.703125 deg ~ 78.2 km, so 1.5 cells ~ 117 km
    and the nearest center OUTSIDE a point's 3x3 window is at least
    that far), every center within the cutoff lies in the point's own
    3x3 neighborhood — so each point emits <= 9 candidate
    contributions, no all-pairs and no corpus-wide join.

    Determinism: distance is 6-dp floor-rounded BEFORE the cutoff gate
    (the ``geo_range_join`` rule, so trig ulps cannot flip a boundary
    point) and each weight is quantized to an integer micro-weight
    (``floor(w*1e6+0.5)``) BEFORE the sum, so the distributed sums are
    exact integers on both sides regardless of order.  Per-batch
    pre-aggregation keeps the shuffle grid-bounded."""
    cutoff_km = KDE_CUTOFF_KM
    ds = pipeline.decoded(data_dir)

    def partial(batch: pa.Table) -> pa.Table:
        lat = batch["lat"].to_numpy(zero_copy_only=False)
        lon = batch["lon"].to_numpy(zero_copy_only=False)
        c = batch["cell_id"].to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        ix, iy = c % N_SIDE, c // N_SIDE
        cells, micros = [], []
        for dy in (-1, 0, 1):
            for dx in (-1, 0, 1):
                jx, jy = ix + dx, iy + dy
                ok = (jx >= 0) & (jx < N_SIDE) & (jy >= 0) & (jy < N_SIDE)
                kx, ky = jx[ok], jy[ok]
                clat = 90.0 - (ky + 0.5) * LAT_STEP
                clon = (kx + 0.5) * LON_STEP - 180.0
                d = geo.haversine_km(lat[ok], lon[ok], clat, clon)
                d = np.floor(d * 1e6 + 0.5) / 1e6
                sel = d <= cutoff_km
                u = d[sel] / cutoff_km
                t = 1.0 - u * u
                micro = np.floor(t * t * 1000000.0 + 0.5).astype(np.int64)
                cells.append(ky[sel] * N_SIDE + kx[sel])
                micros.append(micro)
        cell_all = np.concatenate(cells) if cells else \
            np.array([], dtype=np.int64)
        micro_all = np.concatenate(micros) if micros else \
            np.array([], dtype=np.int64)
        g = pd.DataFrame({"cell_id": cell_all, "kde_micro": micro_all}) \
            .groupby("cell_id", sort=False) \
            .agg(kde_micro=("kde_micro", "sum"), n_pts=("kde_micro", "size")) \
            .reset_index()
        return pa.table({
            "cell_id": pa.array(g["cell_id"].to_numpy(np.int64)),
            "kde_micro": pa.array(g["kde_micro"].to_numpy(np.int64)),
            "n_pts": pa.array(g["n_pts"].to_numpy(np.int64))})

    agg = (ds.map_batches(partial, batch_format="pyarrow")
           .groupby("cell_id")
           .aggregate(Sum("kde_micro", alias_name="kde_micro"),
                      Sum("n_pts", alias_name="n_pts"))
           .to_pandas())
    for col in ("cell_id", "kde_micro", "n_pts"):
        agg[col] = agg[col].astype(np.int64)
    agg["kde"] = agg["kde_micro"].to_numpy(np.float64) / 1000000.0
    return agg[["cell_id", "n_pts", "kde_micro", "kde"]] \
        .sort_values("cell_id").reset_index(drop=True)


def kernel_surface(data_dir: str) -> pd.DataFrame:
    """Nadaraya-Watson kernel regression of name length at quad-cell
    centers — the attribute-interpolation companion to ``kde_heatmap``
    (an IDW-style surface WITHOUT the 1/d^2 singularity: the quartic
    kernel is bounded, so a point sitting exactly on a center cannot
    blow up the weight).  For each center within ``KDE_CUTOFF_KM`` of a
    named doc, the doc contributes weight ``(1 - (d/cutoff)^2)^2`` and
    weighted value ``w * len(name)``; the surface is the weighted mean.

    Same candidate restriction, rounding and quantization discipline as
    ``kde_heatmap`` (3x3 window provably covers the cutoff; distance
    6-dp floor-rounded BEFORE the gate; weight quantized to an integer
    micro-weight BEFORE the sum — and the VALUE-weighted sum is
    micro_w * val, a product of exact integers), so both distributed
    sums are order-independent integers and the one float division per
    output row mirrors the oracle's expression tree exactly.  Integer
    width: micro_w <= 1e6 and val is a name length, so a cell needs
    ~9e9 named contributions to stress int64 — beyond that the bounded
    final reduce switches to Python ints like ``moran_i``."""
    cutoff_km = KDE_CUTOFF_KM
    ds = pipeline.decoded(data_dir)

    def partial(batch: pa.Table) -> pa.Table:
        df_ok = batch.filter(batch["name"].is_valid())
        lat = df_ok["lat"].to_numpy(zero_copy_only=False)
        lon = df_ok["lon"].to_numpy(zero_copy_only=False)
        c = df_ok["cell_id"].to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        import pyarrow.compute as pc
        val = pc.utf8_length(df_ok["name"]).to_numpy(
            zero_copy_only=False).astype(np.int64)
        ix, iy = c % N_SIDE, c // N_SIDE
        cells, ws, wvs = [], [], []
        for dy in (-1, 0, 1):
            for dx in (-1, 0, 1):
                jx, jy = ix + dx, iy + dy
                ok = (jx >= 0) & (jx < N_SIDE) & (jy >= 0) & (jy < N_SIDE)
                kx, ky = jx[ok], jy[ok]
                clat = 90.0 - (ky + 0.5) * LAT_STEP
                clon = (kx + 0.5) * LON_STEP - 180.0
                d = geo.haversine_km(lat[ok], lon[ok], clat, clon)
                d = np.floor(d * 1e6 + 0.5) / 1e6
                sel = d <= cutoff_km
                u = d[sel] / cutoff_km
                t = 1.0 - u * u
                micro = np.floor(t * t * 1000000.0 + 0.5).astype(np.int64)
                cells.append(ky[sel] * N_SIDE + kx[sel])
                ws.append(micro)
                wvs.append(micro * val[ok][sel])
        cell_all = np.concatenate(cells) if cells else \
            np.array([], dtype=np.int64)
        w_all = np.concatenate(ws) if ws else \
            np.array([], dtype=np.int64)
        wv_all = np.concatenate(wvs) if wvs else \
            np.array([], dtype=np.int64)
        g = pd.DataFrame({"cell_id": cell_all, "w_micro": w_all,
                          "wv_micro": wv_all}) \
            .groupby("cell_id", sort=False) \
            .agg(w_micro=("w_micro", "sum"), wv_micro=("wv_micro", "sum"),
                 n_pts=("w_micro", "size")) \
            .reset_index()
        return pa.table({
            "cell_id": pa.array(g["cell_id"].to_numpy(np.int64)),
            "w_micro": pa.array(g["w_micro"].to_numpy(np.int64)),
            "wv_micro": pa.array(g["wv_micro"].to_numpy(np.int64)),
            "n_pts": pa.array(g["n_pts"].to_numpy(np.int64))})

    agg = (ds.map_batches(partial, batch_format="pyarrow")
           .groupby("cell_id")
           .aggregate(Sum("w_micro", alias_name="w_micro"),
                      Sum("wv_micro", alias_name="wv_micro"),
                      Sum("n_pts", alias_name="n_pts"))
           .to_pandas())
    for col in ("cell_id", "w_micro", "wv_micro", "n_pts"):
        agg[col] = agg[col].astype(np.int64)
    # a zero weight sum only happens when EVERY contribution rounded to
    # micro 0 (all points at the cutoff edge) — filtered on both sides
    agg = agg[agg["w_micro"] > 0]
    agg["surface"] = agg["wv_micro"].to_numpy(np.float64) \
        / agg["w_micro"].to_numpy(np.float64)
    return agg[["cell_id", "n_pts", "w_micro", "wv_micro", "surface"]] \
        .sort_values("cell_id").reset_index(drop=True)


def bearing_rose(data_dir: str) -> pd.DataFrame:
    """Orientation histogram (wind-rose) of the corpus around its admin
    tiles: every doc's initial great-circle bearing TO its nearest tile
    center (the ``nearest_tile`` argmin — 6-dp-rounded distance, ties to
    the lowest tile_id), bucketed into eight 45-degree sectors per tile.
    A tile whose docs cluster in one sector sits off-center in its
    catchment — the quick diagnostic a tiling engine ships beside the
    nearest-join itself.

    Determinism: the bearing is 6-dp floor-rounded BEFORE the sector
    floor-division (the rounded value 360.0 wraps to sector 0 on both
    sides), so atan2/trig ulps cannot flip a sector boundary.  Shape:
    tile centers broadcast once; each batch emits <= 30 x 8 integer
    partial counts keyed by tile_idx*8+sector; one bounded groupby."""
    import os

    import pyarrow.parquet as pq
    from ray.data.aggregate import Sum as _Sum

    tiles = pq.read_table(os.path.join(data_dir, "tiles.parquet")) \
        .to_pandas().sort_values("tile_id")
    clat = ((tiles["minlat"] + tiles["maxlat"]) / 2.0) \
        .to_numpy(np.float64)
    clon = ((tiles["minlon"] + tiles["maxlon"]) / 2.0) \
        .to_numpy(np.float64)
    names = tiles["tile_name"].astype(str).tolist()

    def partial(batch: pa.Table) -> pa.Table:
        lat = batch["lat"].to_numpy(zero_copy_only=False)
        lon = batch["lon"].to_numpy(zero_copy_only=False)
        dm = np.stack([geo.haversine_km(lat, lon, a, o)
                       for a, o in zip(clat, clon)], axis=1)
        dm = np.floor(dm * 1e6 + 0.5) / 1e6
        idx = np.argmin(dm, axis=1)
        tl, tn = clat[idx], clon[idx]
        dlam = np.radians(tn) - np.radians(lon)
        y = np.sin(dlam) * np.cos(np.radians(tl))
        x = np.cos(np.radians(lat)) * np.sin(np.radians(tl)) \
            - np.sin(np.radians(lat)) * np.cos(np.radians(tl)) \
            * np.cos(dlam)
        b = np.mod(np.degrees(np.arctan2(y, x)) + 360.0, 360.0)
        b = np.floor(b * 1e6 + 0.5) / 1e6
        sector = np.floor(b / 45.0).astype(np.int64)
        sector[sector == 8] = 0
        key = idx.astype(np.int64) * 8 + sector
        uniq, counts = np.unique(key, return_counts=True)
        return pa.table({"key": pa.array(uniq),
                         "n_docs": pa.array(counts.astype(np.int64))})

    agg = (pipeline.decoded(data_dir)
           .map_batches(partial, batch_format="pyarrow")
           .groupby("key").aggregate(_Sum("n_docs", alias_name="n_docs"))
           .to_pandas())
    key = agg["key"].to_numpy(np.int64)
    out = pd.DataFrame({
        "tile_name": pd.Series(names, dtype=object)
        .iloc[key // 8].to_numpy(),
        "sector": key % 8,
        "n_docs": agg["n_docs"].to_numpy(np.int64)})
    return out.sort_values(["tile_name", "sector"]) \
        .reset_index(drop=True)


def _hilbert_d(ix: np.ndarray, iy: np.ndarray, res: int) -> np.ndarray:
    """Vectorized xy -> Hilbert-curve distance on the 2^res grid (the
    classic bit-interleave walk; integer-only, so engine/oracle agree
    bit-for-bit with no rounding discipline needed)."""
    x = ix.astype(np.int64).copy()
    y = iy.astype(np.int64).copy()
    d = np.zeros_like(x)
    s = 1 << (res - 1)
    while s > 0:
        rx = ((x & s) > 0).astype(np.int64)
        ry = ((y & s) > 0).astype(np.int64)
        d += s * s * ((3 * rx) ^ ry)
        flip = (ry == 0) & (rx == 1)
        x[flip] = s - 1 - x[flip]
        y[flip] = s - 1 - y[flip]
        swap = ry == 0
        tmp = x[swap].copy()
        x[swap] = y[swap]
        y[swap] = tmp
        s >>= 1
    return d


def hilbert_index(data_dir: str) -> pd.DataFrame:
    """Hilbert space-filling-curve index of the occupied quad-cells:
    ``(cell_id, hilbert_d, n_docs)`` ordered by curve distance — the
    locality-preserving partition key a tiling engine range-partitions
    on (neighbors on the curve are neighbors on the map, unlike the
    row-major cell_id whose row seams scatter adjacent cells across
    partitions; see `lineage.write_cell_sorted` for the range-sorted
    writer this key feeds).

    Shape: ONE corpus pass builds the grid-bounded count table; the
    curve transform is res integer bit-steps on that bounded table —
    nothing corpus-sized is touched again."""
    counts = cell_counts(pipeline.decoded(data_dir)).to_pandas()
    c = counts["cell_id"].to_numpy(np.int64)
    n = counts["n"].to_numpy(np.int64)
    hd = _hilbert_d(c % N_SIDE, c // N_SIDE, CELL_RES)
    return pd.DataFrame({"cell_id": c, "hilbert_d": hd, "n_docs": n}) \
        .sort_values("hilbert_d").reset_index(drop=True)
