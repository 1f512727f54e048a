# -*- coding: utf-8 -*-
"""The ring-1 spatial range join (``geo.ring_copies`` / ``geo.ring_pairs``)
and its two consumers, ``dupnames.dup_name_pairs`` and
``geocluster.mined_eps_pairs``.

The brute-force tests run each consumer's map stage and group function
in-process on a generated point set, with the Ray shuffle simulated by a
pandas groupby on the same ``_b`` key.  The points straddle cell borders
(pairs that meet only through replication) and pile up in one dense cell,
and ``_CAND_CHUNK`` is patched small so the mine's chunk loop runs many
times inside one group.

The source tripwire keeps the join in one place: no other ``osmlint``
module may call ``cell_neighbors`` or spell the 9-copy replication."""

import ast
import glob
import os

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

from osmlint import dupnames, geo, geocluster

PKG = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "osmlint")
CHUNK = 1000


def _corner(res: int):
    """(lat, lon) of a grid corner at ``res`` near Belgrade."""
    n = 1 << res
    ix, iy = geo.cell_ixy([44.8], [20.46], res)
    return 90.0 - int(iy[0]) * 180.0 / n, int(ix[0]) * 360.0 / n - 180.0


def _mine(copies: pd.DataFrame, group_fn, monkeypatch) -> pd.DataFrame:
    """Run ``group_fn`` per shuffle bucket with a small candidate chunk;
    asserts some group needed more than one chunk."""
    calls = []
    hav = geo.haversine_km
    monkeypatch.setattr(geo, "_CAND_CHUNK", CHUNK)
    monkeypatch.setattr(geo, "haversine_km",
                        lambda *a: calls.append(1) or hav(*a))
    groups = list(copies.groupby("_b"))
    out = pd.concat([group_fn(g).to_pandas() for _, g in groups],
                    ignore_index=True)
    assert len(calls) > len(groups)
    return out


def _sorted(df: pd.DataFrame) -> pd.DataFrame:
    return df.sort_values(list(df.columns)).reset_index(drop=True)


def test_dup_name_pairs_match_brute_force(monkeypatch):
    rng = np.random.default_rng(11)
    lat0, lon0 = _corner(dupnames.DEFAULT_RES)
    parts = []
    for name in ("Ada", "Bor", "Hot", "Čačak"):   # across four cells
        parts.append(pd.DataFrame({
            "name": name, "lat": lat0 + rng.uniform(-0.04, 0.04, 60),
            "lon": lon0 + rng.uniform(-0.05, 0.05, 60)}))
    parts.append(pd.DataFrame({                  # one dense same-name cell
        "name": "Selo", "lat": lat0 + 0.02 + rng.uniform(0, 0.01, 300),
        "lon": lon0 + 0.03 + rng.uniform(0, 0.01, 300)}))
    df = pd.concat(parts, ignore_index=True)
    # mixed digit counts, so string order differs from numeric order
    osm = rng.choice(np.arange(1, 10 ** 6), len(df), replace=False)
    df["doc_id"] = [f"serbia_pbf/node/{k}" for k in osm]
    hot = frozenset({"Hot"})

    got = _mine(dupnames._copies(df, hot).to_pandas(),
                dupnames._pairs_group, monkeypatch)

    doc = df["doc_id"].to_numpy(dtype=object)
    name = df["name"].to_numpy(dtype=object)
    d = geo.haversine_km(df["lat"].to_numpy()[:, None],
                         df["lon"].to_numpy()[:, None],
                         df["lat"].to_numpy()[None, :],
                         df["lon"].to_numpy()[None, :])
    keep = (name[:, None] == name[None, :]) & (doc[:, None] < doc[None, :]) \
        & (d <= dupnames.DEFAULT_RADIUS_KM) \
        & ~np.isin(name, list(hot))[:, None]
    i, j = np.nonzero(keep)
    want = pd.DataFrame({"name": name[i], "doc_a": doc[i], "doc_b": doc[j]})
    assert (got["name"] == "Selo").sum() == 300 * 299 // 2
    pd.testing.assert_frame_equal(_sorted(got), _sorted(want))


def test_eps_pairs_match_brute_force(monkeypatch):
    rng = np.random.default_rng(12)
    lat0, lon0 = _corner(geocluster.RES)
    lat = np.concatenate([lat0 + rng.uniform(-0.006, 0.006, 500),
                          lat0 + 0.001 + rng.uniform(0, 0.003, 300)])
    lon = np.concatenate([lon0 + rng.uniform(-0.008, 0.008, 500),
                          lon0 + 0.001 + rng.uniform(0, 0.003, 300)])
    node = rng.choice(np.arange(10 ** 6), len(lat), replace=False) * 4
    pts = pa.table({"node": node.astype(np.int64), "lat": lat, "lon": lon})

    got = _mine(geocluster._copies(pts).to_pandas(),
                geocluster._eps_pairs_group, monkeypatch)

    d = geo.haversine_km(lat[:, None], lon[:, None],
                         lat[None, :], lon[None, :])
    i, j = np.nonzero((node[:, None] < node[None, :])
                      & (d <= geocluster.EPS_KM + geocluster._ROUND_SLACK))
    dij = d[i, j]
    want = pd.DataFrame({"doc_a": node[i], "doc_b": node[j],
                         "dist_km": np.floor(dij * 1e6 + 0.5) / 1e6,
                         "raw_ok": dij <= geocluster.EPS_KM})
    assert len(want) > 300 * 299 // 2
    pd.testing.assert_frame_equal(_sorted(got), _sorted(want),
                                  check_dtype=False)


@pytest.mark.parametrize("n", [0, 1])
def test_ring_pairs_without_candidates(n):
    """No rows or a lone point: empty, correctly typed index arrays."""
    lat = np.full(n, 44.8)
    rows, cell, anchor = geo.ring_copies(lat, lat, 15)
    a, b, d = geo.ring_pairs(cell, anchor, rows, lat[rows], lat[rows], 1.0)
    assert len(a) == len(b) == len(d) == 0
    assert a.dtype == b.dtype == np.int64


# ---------------------------------------------------------------------------
# source tripwire: one implementation of the ring-1 replication
# ---------------------------------------------------------------------------

def _const(node) -> object:
    return node.value if isinstance(node, ast.Constant) else None


def ring_spellings(src: str) -> list[int]:
    """Line numbers of ``cell_neighbors(...)`` calls and of 9-copy
    ``repeat(..., 9)`` / ``repeat(..., repeats=9)`` calls."""
    hits = []
    for n in ast.walk(ast.parse(src)):
        if not isinstance(n, ast.Call):
            continue
        f = n.func
        name = f.attr if isinstance(f, ast.Attribute) else \
            getattr(f, "id", None)
        reps = [n.args[1]] if len(n.args) > 1 else []
        reps += [k.value for k in n.keywords if k.arg == "repeats"]
        if name == "cell_neighbors" or (
                name == "repeat" and any(_const(r) == 9 for r in reps)):
            hits.append(n.lineno)
    return sorted(hits)


def test_detector_sees_ring_spellings():
    src = ("nb = geo.cell_neighbors(home, res)\n"
           "rows = np.repeat(np.arange(n), 9)\n"
           "rows = numpy.repeat(x, repeats=9)\n"
           "rows = np.repeat(x, 8)\n"
           "nb = cell_neighbors(h, r)\n")
    assert ring_spellings(src) == [1, 2, 3, 5]


def test_only_geo_spells_the_ring_join():
    offenders = {}
    for path in sorted(glob.glob(os.path.join(PKG, "**", "*.py"),
                                 recursive=True)):
        if os.path.relpath(path, PKG) == "geo.py":
            continue
        with open(path, encoding="utf-8") as f:
            lines = ring_spellings(f.read())
        if lines:
            offenders[os.path.relpath(path, PKG)] = lines
    assert not offenders, (
        "replicate into the 9-cell ring only through geo.ring_copies and "
        f"mine through geo.ring_pairs; found: {offenders}")
