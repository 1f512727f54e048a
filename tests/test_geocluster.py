# -*- coding: utf-8 -*-
"""geo_clusters (DBSCAN) — oracle parity at gate scale + DBSCAN
invariants against a brute-force all-pairs reference."""

import os

import duckdb
import numpy as np
import pandas as pd
import pytest
import ray.data as rd

import osmlint
from osmlint import geo, geocluster, oracle_sql, synth

SF = "/root/testdata/sf0.001"
SF01 = "/root/testdata/sf0.01"


@pytest.fixture(scope="module")
def result(ray_session):
    d = synth.generate(SF)
    got = geocluster.geo_clusters(d).to_pandas()
    return d, got.sort_values(["osm_id", "entity_type"]) \
        .reset_index(drop=True)


@pytest.fixture(scope="module")
def brute(result):
    """All-pairs brute-force DBSCAN on the same deduped point set."""
    d, _ = result
    con = duckdb.connect()
    pts = con.execute(f"""
      SELECT osm_id*4 + CASE entity_type WHEN 'node' THEN 0
                        WHEN 'way' THEN 1 ELSE 2 END AS node, lat, lon
      FROM (SELECT f.*, row_number() OVER (PARTITION BY doc_id
                                           ORDER BY seq DESC) AS rn
            FROM read_parquet('{d}/flat.parquet') f
            WHERE map_slug='serbia_pbf'
              AND place IN ('city','town','village')
              AND name IS NOT NULL) WHERE rn=1""").df()
    node = pts["node"].to_numpy(np.int64)
    lat, lon = pts["lat"].to_numpy(), pts["lon"].to_numpy()
    dist = geo.haversine_km(lat[:, None], lon[:, None],
                            lat[None, :], lon[None, :])
    adj = (dist <= geocluster.EPS_KM) & ~np.eye(len(node), dtype=bool)
    return node, adj


def test_core_degree_invariant(result, brute):
    """is_core <=> eps-neighborhood (incl. self) >= MIN_PTS."""
    _, got = result
    node, adj = brute
    deg = adj.sum(axis=1)
    core_nodes = set(node[deg >= geocluster.MIN_PTS - 1].tolist())
    got_nodes = got["osm_id"].to_numpy(np.int64) * 4 + \
        got["entity_type"].map(geocluster._ETYPE_CODE).to_numpy(np.int64)
    for n, is_core in zip(got_nodes.tolist(), got["is_core"].tolist()):
        assert is_core == (n in core_nodes)
    # every core point is in the output
    assert core_nodes <= set(got_nodes.tolist())


def test_noise_and_border_rules(result, brute):
    """Output = cores + non-cores with >= 1 core neighbor; noise absent;
    border label = min core-neighbor cluster; cluster_id = min member."""
    _, got = result
    node, adj = brute
    deg = adj.sum(axis=1)
    is_core = deg >= geocluster.MIN_PTS - 1
    has_core_nb = (adj & is_core[None, :]).any(axis=1)
    expect = set(node[is_core | has_core_nb].tolist())
    got_nodes = got["osm_id"].to_numpy(np.int64) * 4 + \
        got["entity_type"].map(geocluster._ETYPE_CODE).to_numpy(np.int64)
    assert set(got_nodes.tolist()) == expect
    # cluster_id is the minimum CORE member node of its cluster (labels
    # come from the closure over cores; borders attach afterwards)
    gm = pd.DataFrame({"node": got_nodes,
                       "cluster_id": got["cluster_id"].to_numpy(np.int64),
                       "is_core": got["is_core"].to_numpy(bool)})
    mins = gm[gm["is_core"]].groupby("cluster_id")["node"].min()
    assert (mins == mins.index).all()
    # cluster_size is the member count
    sz = got.groupby("cluster_id")["cluster_id"].transform("size")
    assert (sz.to_numpy() == got["cluster_size"].to_numpy()).all()


def test_oracle_parity(result):
    d, got = result
    exp = duckdb.connect().execute(oracle_sql.geo_clusters_sql(
        d, geocluster.EPS_KM, geocluster.MIN_PTS)).df() \
        .sort_values(["osm_id", "entity_type"]).reset_index(drop=True)
    assert len(got) == len(exp) > 0
    pd.testing.assert_frame_equal(
        got[sorted(got.columns)], exp[sorted(exp.columns)],
        check_dtype=False)


def test_oracle_closure_reaches_fixpoint_seed207(ray_session, monkeypatch,
                                                tmp_path):
    """Seed 207 at sf0.005 holds a core cluster whose labels meet only
    after more than 48 propagate-and-jump rounds; the default oracle call
    must still give the engine's 92 clusters, not split that one."""
    monkeypatch.setattr(synth, "SEED", 207)
    d = synth.generate(0.005, base=str(tmp_path))
    keys = ["osm_id", "entity_type"]
    got = geocluster.geo_clusters(d).to_pandas() \
        .sort_values(keys).reset_index(drop=True)
    exp = duckdb.connect().execute(oracle_sql.geo_clusters_sql(
        d, geocluster.EPS_KM, geocluster.MIN_PTS)).df() \
        .sort_values(keys).reset_index(drop=True)
    assert got["cluster_id"].nunique() == 92
    pd.testing.assert_frame_equal(
        got[sorted(got.columns)], exp[sorted(exp.columns)],
        check_dtype=False)


def test_distributed_paths_agree(result, monkeypatch):
    """The default run takes the local vectorized tail; force the FULLY
    distributed tail (SMALL_PAIRS patched to 0) AND the JOIN-based core-flag
    path (broadcast ceiling dropped) and require identical output."""
    d, got = result
    old = geocluster.BROADCAST_MAX
    geocluster.BROADCAST_MAX = 0
    osmlint.clear_caches()      # knobs aren't in the cache key
    monkeypatch.setattr(geocluster, "SMALL_PAIRS", 0)
    try:
        got2 = geocluster.geo_clusters(d).to_pandas() \
            .sort_values(["osm_id", "entity_type"]).reset_index(drop=True)
    finally:
        geocluster.BROADCAST_MAX = old
    pd.testing.assert_frame_equal(got, got2, check_dtype=False)


def test_distributed_broadcast_path_agrees(result, monkeypatch):
    """Distributed tail with the BROADCAST core-flag path (ceiling
    intact) also matches the local kernel."""
    d, got = result
    osmlint.clear_caches()      # drop the forced-join entry
    monkeypatch.setattr(geocluster, "SMALL_PAIRS", 0)
    got2 = geocluster.geo_clusters(d).to_pandas() \
        .sort_values(["osm_id", "entity_type"]).reset_index(drop=True)
    pd.testing.assert_frame_equal(got, got2, check_dtype=False)


def test_geo_cluster_stats_invariants(result):
    """Stats rows aggregate the members exactly: counts match the
    member table, centroids sit inside the bbox, bbox spans <= 2*eps
    chains are not asserted (clusters chain arbitrarily) but every core
    count is positive (a cluster IS its core set)."""
    d, got = result
    stats = geocluster.geo_cluster_stats(d)
    bycl = got.groupby("cluster_id")
    assert set(stats["cluster_id"]) == set(got["cluster_id"].unique())
    for _, r in stats.iterrows():
        g = bycl.get_group(r["cluster_id"])
        assert r["n_points"] == len(g)
        assert r["n_core"] == int(g["is_core"].sum())
        assert r["n_core"] >= 1
        assert r["lat_min"] <= r["centroid_lat"] <= r["lat_max"]
        assert r["lon_min"] <= r["centroid_lon"] <= r["lon_max"]
    assert stats["n_points"].sum() == len(got)


@pytest.mark.skipif(not os.path.exists(SF01), reason="no sf0.01 data")
def test_stats_oracle_matches_engine_exactly(ray_session):
    """Centroids are 6-dp rounded means, and at sf0.01 one cluster's lat
    mean sits on a half-way point, so a double sum taken in the order a
    join delivers rounds either way.  The oracle must give the engine's
    centroids bit for bit on every run."""
    d = synth.generate(SF01)
    got = geocluster.geo_cluster_stats(d)
    sql = oracle_sql.geo_cluster_stats_sql(
        d, geocluster.EPS_KM, geocluster.MIN_PTS)
    con = duckdb.connect()
    for _ in range(8):
        pd.testing.assert_frame_equal(got, con.execute(sql).df(),
                                      check_dtype=False, check_exact=True)


def test_geo_cluster_diameter_brute(result):
    """Per-cluster max pairwise rounded haversine vs a brute force over
    the member coordinates; the reported pair attains it, the count
    matches the member table, and the diameter dominates the bbox
    edges' chord only loosely (no assertion — the pair identity IS the
    check)."""
    d, got = result
    con = duckdb.connect()
    pts = con.execute(f"""
      SELECT osm_id*4 + CASE entity_type WHEN 'node' THEN 0
                        WHEN 'way' THEN 1 ELSE 2 END AS node, lat, lon
      FROM (SELECT f.*, row_number() OVER (PARTITION BY doc_id
                                           ORDER BY seq DESC) AS rn
            FROM read_parquet('{d}/flat.parquet') f
            WHERE map_slug='serbia_pbf'
              AND place IN ('city','town','village')
              AND name IS NOT NULL) WHERE rn=1""").df()
    coords = {int(r.node): (r.lat, r.lon) for r in pts.itertuples()}
    diam = geocluster.geo_cluster_diameter(d)
    code = {"node": 0, "way": 1, "relation": 2}
    mem = got.assign(node=got["osm_id"].to_numpy(np.int64) * 4
                     + got["entity_type"].map(code).to_numpy(np.int64))
    assert len(diam) == mem["cluster_id"].nunique()
    for _, r in diam.iterrows():
        nodes = np.sort(mem.loc[mem["cluster_id"] == r["cluster_id"],
                                "node"].to_numpy(np.int64))
        assert r["n_points"] == len(nodes)
        lat = np.array([coords[n][0] for n in nodes])
        lon = np.array([coords[n][1] for n in nodes])
        dm = geo.haversine_km(lat[:, None], lon[:, None],
                              lat[None, :], lon[None, :])
        d6 = np.floor(dm * 1e6 + 0.5).astype(np.int64)
        iu = np.triu_indices(len(nodes), k=1)
        best = d6[iu].max()
        assert r["diam_km"] == float(best) / 1e6
        hits = np.argwhere(np.triu(d6 == best, k=1))
        na, nb = min((int(nodes[i]), int(nodes[j])) for i, j in hits)
        assert int(r["osm_id_a"]) * 4 + code[r["entity_type_a"]] == na
        assert int(r["osm_id_b"]) * 4 + code[r["entity_type_b"]] == nb


def test_eps_pair_checkpoint_resume(result):
    """The pair mine checkpoints to fingerprinted parquet: dropping the
    in-memory cache resumes from disk with the identical pair set, and
    purge_disk removes the dirs (cold-run contract)."""
    import os

    from osmlint import caches
    d, _ = result
    a = geocluster.mined_eps_pairs(d).to_pandas() \
        .sort_values(["doc_a", "doc_b"]).reset_index(drop=True)
    ckpts = [p for p in caches._CKPT_DIRS
             if os.path.basename(p).startswith("eps_pairs_")]
    assert len(ckpts) >= 1
    ckpt = ckpts[0]
    assert os.path.exists(os.path.join(ckpt, "_SUCCESS"))
    osmlint.clear_caches()          # simulate process restart: memory only
    b = geocluster.mined_eps_pairs(d).to_pandas() \
        .sort_values(["doc_a", "doc_b"]).reset_index(drop=True)
    pd.testing.assert_frame_equal(a, b)
    osmlint.clear_caches(purge_disk=True)
    assert not os.path.exists(ckpt)
    # and a cold mine rebuilds the identical set
    c = geocluster.mined_eps_pairs(d).to_pandas() \
        .sort_values(["doc_a", "doc_b"]).reset_index(drop=True)
    pd.testing.assert_frame_equal(a, c)


def _brute_diam(node, lat, lon):
    dm = geo.haversine_km(lat[:, None], lon[:, None],
                          lat[None, :], lon[None, :])
    d6 = np.floor(dm * 1e6 + 0.5).astype(np.int64)
    iu = np.triu_indices(len(node), k=1)
    best = d6[iu].max()
    hits = np.argwhere(np.triu(d6 == best, k=1))
    na, nb = min((int(node[i]), int(node[j])) for i, j in hits)
    return int(best), na, nb


@pytest.mark.parametrize("shape", ["blob", "circle", "ties", "line"])
def test_diam_hull_matches_brute(shape):
    """The convex-hull diameter prefilter returns the IDENTICAL
    (rounded max, lexmin pair) answer as the all-pairs kernel on
    adversarial shapes: a gaussian blob, co-circular points (every
    point is a hull vertex, max ties abound), mass-duplicated
    coordinates, and a collinear ridge."""
    rng = np.random.default_rng(42)
    n = 3000
    if shape == "blob":
        lat = 44.0 + rng.standard_normal(n) * 0.3
        lon = 20.5 + rng.standard_normal(n) * 0.4
    elif shape == "circle":
        th = rng.uniform(0, 2 * np.pi, n)
        lat = 44.0 + 0.5 * np.sin(th)
        lon = 20.5 + 0.5 * np.cos(th)
    elif shape == "ties":
        base_lat = np.array([44.0, 44.0, 45.0, 45.0])
        base_lon = np.array([20.0, 21.0, 20.0, 21.0])
        k = rng.integers(0, 4, n)
        lat = base_lat[k]
        lon = base_lon[k]
    else:  # line
        t = rng.uniform(0, 1, n)
        lat = 43.5 + t * 1.5
        lon = 20.0 + t * 1.5
    node = np.sort(rng.choice(10**7, size=n, replace=False).astype(
        np.int64))
    want = _brute_diam(node, lat, lon)
    got = geocluster._diam_hull(node, lat, lon)
    assert got is not None
    assert (int(got[0]), int(got[1]), int(got[2])) == want
    # and the dispatching group kernel agrees with itself across paths
    bf = geocluster._diam_pairs_exact(node, lat, lon)
    assert (int(bf[0]), int(bf[1]), int(bf[2])) == want


def test_diam_hull_hemisphere_fallback():
    """Points spread past the gnomonic gate make _diam_hull decline
    (None) so the caller falls back to brute force."""
    lat = np.array([0.0, 0.0, 30.0])
    lon = np.array([0.0, 60.0, 20.0])
    node = np.array([1, 2, 3], dtype=np.int64)
    assert geocluster._diam_hull(node, lat, lon) is None


def _ladder(n_nodes: int, base: int) -> list:
    """One core chain: node i linked to i+1, i+2 and i+3 (node ids are
    the ``osm_id*4 + etype`` encoding, all entity type ``node``)."""
    ids = (base + np.arange(n_nodes, dtype=np.int64)) * 4
    return [(ids[i], ids[j]) for i in range(n_nodes)
            for j in range(i + 1, min(i + 4, n_nodes))]


def _leaves(n_leaves: int, base: int, anchors: np.ndarray) -> list:
    """Border points: each leaf linked to one core node only."""
    return [(int(a), (base + k) * 4) for k, a in enumerate(anchors[:n_leaves])]


@pytest.mark.parametrize("shape", ["ladder3000_borders", "two700_borders"])
def test_distributed_sizes_match_local_on_wide_clusters(result, monkeypatch,
                                                        shape):
    """Few clusters with many members each: the distributed tail's
    cluster sizes equal the local tail's, with the broadcast core-flag
    path and with the join path.  A hash join of members against the
    per-cluster counts broke on these shapes (too few distinct clusters
    for its partitions)."""
    d, _ = result
    if shape == "ladder3000_borders":
        edges = _ladder(3000, 10_000) + _leaves(
            50, 100_000, (10_000 + np.arange(0, 3000, 60)) * 4)
    else:
        edges = []
        for c in range(2):
            edges += _ladder(700, 10_000 + 5_000 * c)
            edges += _leaves(20, 100_000 + 1_000 * c,
                             (10_000 + 5_000 * c + np.arange(0, 700, 35)) * 4)
    a, b = np.array(edges, dtype=np.int64).T
    pairs = pd.DataFrame({"doc_a": np.minimum(a, b),
                          "doc_b": np.maximum(a, b),
                          "dist_km": 0.1, "raw_ok": True})
    monkeypatch.setattr(geocluster, "mined_eps_pairs",
                        lambda *_a, **_k: rd.from_pandas(pairs))
    want = geocluster._local_members(pairs, geocluster.MIN_PTS)
    for ceiling in (geocluster.BROADCAST_MAX, 0):
        monkeypatch.setattr(geocluster, "BROADCAST_MAX", ceiling)
        osmlint.clear_caches()   # knobs aren't in the cache key
        monkeypatch.setattr(geocluster, "SMALL_PAIRS", 0)
        got = geocluster.geo_clusters(d).to_pandas() \
            .sort_values(["osm_id", "entity_type"]).reset_index(drop=True)
        pd.testing.assert_frame_equal(want, got, check_dtype=False)
    osmlint.clear_caches()
