# -*- coding: utf-8 -*-
"""Geospatial kernels, from scratch in numpy (no shapely/h3/s2 in sandbox).

* ``haversine_km`` — vectorized great-circle distance, R=6371 km, matching the
  reference formula exactly (reference: src/haversine.py:10-34).
* Quad-cell hierarchical index (S2/H3 stand-in, public quadtree algorithm):
  an equirectangular quadtree over (lon, lat).  ``cell_id(lat, lon, res)``
  is SQL-expressible by design::

      ix = floor((lon + 180) / 360 * 2^res)        (clipped to [0, 2^res-1])
      iy = floor((90 - lat) / 180 * 2^res)
      cell = iy * 2^res + ix

  ``cell_parent`` (res-1), ``cell_neighbors`` (8-ring) and ``morton`` (bit
  interleave, for range-partitioned sort locality) complete the index.
* ``ring_copies`` / ``ring_pairs`` — the one ring-1 spatial range join
  (replicate each point into its 9-cell ring, shuffle on the fine cell,
  mine anchors against same-run copies); ``dupnames.dup_name_pairs`` and
  ``geocluster.mined_eps_pairs`` both run on it.
* ``point_in_polygon`` — vectorized even-odd ray casting.
* ``STRtree`` — sort-tile-recursive bulk-loaded R-tree over polygon bboxes
  (public algorithm: Leutenegger et al., 1997), numpy arrays only; used to
  prune PIP candidates when the polygon set is large.

The reference only ever does point-radius gating (20 km wiki gate at
src/checks.py:541; ``wikibase:around`` circles in sparql/*.sparql); the tile
join / cell index generalize that to the engine's north-star operators.
"""

from __future__ import annotations

import numpy as np

AVG_EARTH_RADIUS_KM = 6371.0


def haversine_km(lat1, lon1, lat2, lon2):
    """Vectorized haversine distance in km (same formula as the reference)."""
    lat1, lon1, lat2, lon2 = (np.radians(np.asarray(a, dtype=np.float64))
                              for a in (lat1, lon1, lat2, lon2))
    dlat = lat2 - lat1
    dlon = lon2 - lon1
    d = np.sin(dlat * 0.5) ** 2 + np.cos(lat1) * np.cos(lat2) * np.sin(dlon * 0.5) ** 2
    return 2 * AVG_EARTH_RADIUS_KM * np.arcsin(np.sqrt(d))


# ---------------------------------------------------------------------------
# Quad-cell index
# ---------------------------------------------------------------------------

def cell_ixy(lat, lon, res: int):
    """(ix, iy) cell coordinates at resolution ``res`` (2^res x 2^res grid)."""
    n = 1 << res
    lon = np.asarray(lon, dtype=np.float64)
    lat = np.asarray(lat, dtype=np.float64)
    ix = np.floor((lon + 180.0) / 360.0 * n).astype(np.int64)
    iy = np.floor((90.0 - lat) / 180.0 * n).astype(np.int64)
    return np.clip(ix, 0, n - 1), np.clip(iy, 0, n - 1)


def cell_id(lat, lon, res: int):
    """Row-major cell id at resolution ``res`` (SQL-expressible formula)."""
    ix, iy = cell_ixy(lat, lon, res)
    return iy * (1 << res) + ix


def cell_parent(cell, res: int):
    """Parent cell id at resolution ``res - 1``."""
    n = 1 << res
    cell = np.asarray(cell, dtype=np.int64)
    ix, iy = cell % n, cell // n
    return (iy // 2) * (n >> 1) + (ix // 2)


def cell_neighbors(cell, res: int) -> np.ndarray:
    """8-ring neighbor ids (clipped at grid edges; shape (len(cell), <=8)).

    Returns a 2-D int64 array with -1 padding for out-of-grid neighbors.
    """
    n = 1 << res
    cell = np.atleast_1d(np.asarray(cell, dtype=np.int64))
    ix, iy = cell % n, cell // n
    offs = np.array([(-1, -1), (-1, 0), (-1, 1), (0, -1),
                     (0, 1), (1, -1), (1, 0), (1, 1)], dtype=np.int64)
    nx = ix[:, None] + offs[None, :, 0]
    ny = iy[:, None] + offs[None, :, 1]
    valid = (nx >= 0) & (nx < n) & (ny >= 0) & (ny < n)
    out = np.where(valid, ny * n + nx, -1)
    return out


# ---------------------------------------------------------------------------
# Ring-1 spatial range join (partition-based spatial merge join)
# ---------------------------------------------------------------------------

#: candidate rows expanded per numpy chunk of ``ring_pairs`` (~320 MB of
#: working set at 5 int64/float64 columns)
_CAND_CHUNK = 1 << 23


def ring_copies(lat, lon, res: int):
    """Replicate step of the ring-1 range join: copy every point into its
    home cell (the anchor copy) and its ring-1 neighbours at ``res``
    (clipped at the grid edge).  When a cell is taller and wider than the
    join radius, every pair within the radius meets in the home cell of
    either point.  Returns ``(rows, cell, anchor)``: the source row, the
    fine cell and the anchor flag of each copy.

    Shuffle the copies on ``widths.bucket_of(cell)``: pairs are only mined
    within one fine cell, so any partition of fine cells is correct, and
    hashing the fine cell (not a coarse ancestor) scatters a dense metro's
    cells across all buckets instead of pinning it to one straggler
    group."""
    home = cell_id(lat, lon, res)
    cells = np.concatenate([home[:, None], cell_neighbors(home, res)], axis=1)
    rows = np.repeat(np.arange(len(home)), 9)
    cell = cells.reshape(-1)
    keep = cell >= 0
    rows, cell = rows[keep], cell[keep]
    return rows, cell, cell == home[rows]


def ring_pairs(run, anchor, ids, lat, lon, radius_km: float):
    """Mine step of the ring-1 range join over one shuffle group of
    copies: expand every anchor against every copy with the same ``run``
    key (the fine cell, or a finer key such as the (cell, name) code) and
    keep ``ids[a] < ids[b]`` with great-circle ``d <= radius_km``.  A pair
    is found exactly once, in the home cell of its lower-id point.

    Runs are located with ``searchsorted`` on the run-sorted group and
    (anchor, candidate) index pairs expanded with ``repeat``/``arange``
    arithmetic, ``_CAND_CHUNK`` candidates at a time, so memory stays
    bounded however dense a cell is.  Returns ``(a, b, d)``: row indices
    into the inputs and the unrounded distance in km."""
    order = np.argsort(run, kind="stable")
    run = run[order]
    ids, lat, lon = ids[order], lat[order], lon[order]
    apos = np.nonzero(anchor[order])[0]
    left = np.searchsorted(run, run[apos], "left")
    cnt = np.searchsorted(run, run[apos], "right") - left
    cuts = np.searchsorted(np.cumsum(cnt),
                           np.arange(_CAND_CHUNK, int(cnt.sum()),
                                     _CAND_CHUNK), "left") + 1
    bounds = np.concatenate([[0], cuts, [len(apos)]])
    outs = []
    for a0, a1 in zip(bounds[:-1], bounds[1:]):
        c = cnt[a0:a1]
        ai = np.repeat(apos[a0:a1], c)
        bi = np.repeat(left[a0:a1], c) + np.arange(len(ai), dtype=np.int64) \
            - np.repeat(np.cumsum(c) - c, c)
        m = ids[ai] < ids[bi]
        ai, bi = ai[m], bi[m]
        d = haversine_km(lat[ai], lon[ai], lat[bi], lon[bi])
        keep = d <= radius_km
        outs.append((ai[keep], bi[keep], d[keep]))
    a, b, d = (np.concatenate(x) for x in zip(*outs))
    return order[a], order[b], d


def morton(ix, iy, res: int):
    """Interleave bits of (ix, iy) -> Z-order curve position (locality sort)."""
    ix = np.asarray(ix, dtype=np.uint64)
    iy = np.asarray(iy, dtype=np.uint64)

    def _spread(v):
        v = v & np.uint64(0xFFFFFFFF)
        v = (v | (v << np.uint64(16))) & np.uint64(0x0000FFFF0000FFFF)
        v = (v | (v << np.uint64(8))) & np.uint64(0x00FF00FF00FF00FF)
        v = (v | (v << np.uint64(4))) & np.uint64(0x0F0F0F0F0F0F0F0F)
        v = (v | (v << np.uint64(2))) & np.uint64(0x3333333333333333)
        v = (v | (v << np.uint64(1))) & np.uint64(0x5555555555555555)
        return v

    return (_spread(ix) | (_spread(iy) << np.uint64(1))).astype(np.int64)


def morton_cell(lat, lon, res: int):
    ix, iy = cell_ixy(lat, lon, res)
    return morton(ix, iy, res)


# ---------------------------------------------------------------------------
# Point in polygon (even-odd ray casting), vectorized points x one polygon
# ---------------------------------------------------------------------------

def point_in_polygon(lat, lon, poly_lat: np.ndarray, poly_lon: np.ndarray) -> np.ndarray:
    """Even-odd rule PIP for many points against one polygon ring.

    ``poly_lat``/``poly_lon`` are the ring vertices (not necessarily closed).
    Points exactly on an edge are implementation-defined (synthetic data
    avoids boundary points).
    """
    x = np.asarray(lon, dtype=np.float64)
    y = np.asarray(lat, dtype=np.float64)
    px = np.asarray(poly_lon, dtype=np.float64)
    py = np.asarray(poly_lat, dtype=np.float64)
    n = len(px)
    inside = np.zeros(x.shape, dtype=bool)
    j = n - 1
    for i in range(n):  # loop over polygon VERTICES (small), not points
        cond = ((py[i] > y) != (py[j] > y))
        with np.errstate(divide="ignore", invalid="ignore"):
            xint = (px[j] - px[i]) * (y - py[i]) / (py[j] - py[i]) + px[i]
        inside ^= cond & (x < xint)
        j = i
    return inside


# ---------------------------------------------------------------------------
# STRtree (sort-tile-recursive bulk-loaded R-tree) over bboxes
# ---------------------------------------------------------------------------

class STRtree:
    """Static R-tree bulk-loaded with the STR algorithm, numpy only.

    Stores leaf bboxes (minx, miny, maxx, maxy) plus one level of internal
    node bboxes; with the polygon counts seen here (10s..1000s of admin
    polygons) two levels prune effectively and queries stay vectorized.
    """

    def __init__(self, bboxes: np.ndarray, node_capacity: int = 16):
        bboxes = np.asarray(bboxes, dtype=np.float64).reshape(-1, 4)
        self.n = len(bboxes)
        self.node_capacity = node_capacity
        cx = (bboxes[:, 0] + bboxes[:, 2]) * 0.5
        cy = (bboxes[:, 1] + bboxes[:, 3]) * 0.5
        # STR: sort by cx, slice into vertical strips, sort each strip by cy
        nslices = max(1, int(np.ceil(np.sqrt(self.n / node_capacity))))
        order = np.argsort(cx, kind="stable")
        strips = np.array_split(order, nslices)
        leaf_order = np.concatenate(
            [s[np.argsort(cy[s], kind="stable")] for s in strips if len(s)]
        ) if self.n else np.empty(0, dtype=np.int64)
        self.leaf_index = leaf_order.astype(np.int64)  # position -> original idx
        self.leaf_boxes = bboxes[self.leaf_index] if self.n else bboxes
        # group consecutive leaves into internal nodes
        ngroups = max(1, int(np.ceil(self.n / node_capacity)))
        bounds = np.linspace(0, self.n, ngroups + 1).astype(np.int64)
        self.node_slices = [(int(bounds[i]), int(bounds[i + 1]))
                            for i in range(ngroups) if bounds[i] < bounds[i + 1]]
        if self.node_slices:
            self.node_boxes = np.array([
                [self.leaf_boxes[a:b, 0].min(), self.leaf_boxes[a:b, 1].min(),
                 self.leaf_boxes[a:b, 2].max(), self.leaf_boxes[a:b, 3].max()]
                for a, b in self.node_slices])
        else:
            self.node_boxes = np.empty((0, 4))

    def query_points(self, x: np.ndarray, y: np.ndarray):
        """Candidate (point_idx, box_idx) pairs where the point is inside a
        leaf bbox.  Vectorized per internal node."""
        x = np.asarray(x, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        pts_idx, box_idx = [], []
        for (a, b), nb in zip(self.node_slices, self.node_boxes):
            inside_node = (x >= nb[0]) & (x <= nb[2]) & (y >= nb[1]) & (y <= nb[3])
            if not inside_node.any():
                continue
            pidx = np.nonzero(inside_node)[0]
            lb = self.leaf_boxes[a:b]
            hit = ((x[pidx, None] >= lb[None, :, 0]) & (x[pidx, None] <= lb[None, :, 2])
                   & (y[pidx, None] >= lb[None, :, 1]) & (y[pidx, None] <= lb[None, :, 3]))
            pi, li = np.nonzero(hit)
            pts_idx.append(pidx[pi])
            box_idx.append(self.leaf_index[a + li])
        if not pts_idx:
            return (np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64))
        return np.concatenate(pts_idx), np.concatenate(box_idx)


class PolygonIndex:
    """STRtree + ray-casting assignment of points to polygons.

    ``polys`` is a list of (name, lat_ring, lon_ring).  ``assign`` returns,
    per point, the index of the FIRST (lowest-index) containing polygon or -1
    — deterministic under overlap.
    """

    def __init__(self, polys):
        self.names = [p[0] for p in polys]
        self.rings = [(np.asarray(p[1], dtype=np.float64),
                       np.asarray(p[2], dtype=np.float64)) for p in polys]
        boxes = np.array([[lon.min(), lat.min(), lon.max(), lat.max()]
                          for lat, lon in self.rings]).reshape(-1, 4)
        self.tree = STRtree(boxes)

    def assign(self, lat, lon) -> np.ndarray:
        lat = np.asarray(lat, dtype=np.float64)
        lon = np.asarray(lon, dtype=np.float64)
        out = np.full(len(lat), -1, dtype=np.int64)
        pidx, bidx = self.tree.query_points(lon, lat)
        if len(pidx) == 0:
            return out
        # evaluate PIP per candidate polygon (few polygons, vectorized points)
        order = np.argsort(bidx, kind="stable")
        pidx, bidx = pidx[order], bidx[order]
        for b in np.unique(bidx):
            sel = pidx[bidx == b]
            plat, plon = self.rings[b]
            hit = point_in_polygon(lat[sel], lon[sel], plat, plon)
            won = sel[hit]
            # first (lowest poly index) wins: only fill where unassigned
            tofill = won[out[won] == -1]
            out[tofill] = b
        return out


def nearest_tile_batch(batch, centers_lat, centers_lon, tile_names):
    """Nearest-neighbor spatial join kernel: haversine from every doc to
    every (broadcast) tile center, 6-dp floor rounding BEFORE the argmin
    so numpy-vs-DuckDB trig ulps can't flip a tie; equal distances break
    to the lowest tile_id (columns are tile_id-ordered, np.argmin keeps
    the first minimum)."""
    import pandas as pd
    import pyarrow as pa
    df = batch.to_pandas()
    lat = df["lat"].to_numpy(np.float64)
    lon = df["lon"].to_numpy(np.float64)
    d = np.stack([haversine_km(lat, lon, clat, clon)
                  for clat, clon in zip(centers_lat, centers_lon)], axis=1)
    d = np.floor(d * 1e6 + 0.5) / 1e6
    idx = np.argmin(d, axis=1)
    return pa.table({
        "map_slug": pa.array(df["map_slug"].astype(str),
                             type=pa.string()),
        "osm_id": pa.array(df["osm_id"].to_numpy(np.int64)),
        "entity_type": pa.array(df["entity_type"].astype(str),
                                type=pa.string()),
        "seq": pa.array(df["seq"].to_numpy(np.int64)),
        "tile_name": pa.array(
            pd.Series(tile_names).iloc[idx].astype(str),
            type=pa.string()),
        "dist_km": pa.array(d[np.arange(len(idx)), idx])})
