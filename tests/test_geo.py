# -*- coding: utf-8 -*-
import numpy as np

from osmlint import geo


def test_haversine_known_pair():
    # reference docstring example (src/haversine.py): Lyon -> Paris
    d = geo.haversine_km(45.7597, 4.8422, 48.8567, 2.3508)
    assert abs(d - 392.2167178065962) < 1e-6


def test_haversine_vectorized():
    d = geo.haversine_km(np.array([0.0, 0.0]), np.array([0.0, 0.0]),
                         np.array([0.0, 1.0]), np.array([1.0, 0.0]))
    assert abs(d[0] - d[1]) < 1e-9
    assert abs(d[0] - 111.19) < 0.2


def test_cell_id_formula():
    # SQL-expressible formula: ix = floor((lon+180)/360*2^res), etc.
    res = 8
    lat, lon = np.array([44.8167]), np.array([20.4612])
    n = 1 << res
    ix = int((20.4612 + 180) / 360 * n)
    iy = int((90 - 44.8167) / 180 * n)
    assert geo.cell_id(lat, lon, res)[0] == iy * n + ix


def test_cell_scalar_matches_one_element_array():
    # scalar input, including points the grid-edge clip moves, is element
    # 0 of the same call on 1-element arrays
    for lat, lon in [(44.8, 20.46), (-90.0, 180.0), (95.0, -200.0)]:
        a_lat, a_lon = np.array([lat]), np.array([lon])
        for res in (8, 15):
            ix, iy = geo.cell_ixy(lat, lon, res)
            ax, ay = geo.cell_ixy(a_lat, a_lon, res)
            assert (ix, iy) == (ax[0], ay[0])
            assert geo.cell_id(lat, lon, res) == \
                geo.cell_id(a_lat, a_lon, res)[0]
        assert geo.morton_cell(lat, lon, 8) == \
            geo.morton_cell(a_lat, a_lon, 8)[0]


def test_cell_parent_containment():
    rng = np.random.default_rng(0)
    lat = rng.uniform(-89, 89, 1000)
    lon = rng.uniform(-179, 179, 1000)
    c9 = geo.cell_id(lat, lon, 9)
    c8 = geo.cell_id(lat, lon, 8)
    assert (geo.cell_parent(c9, 9) == c8).all()


def test_cell_neighbors():
    res = 4
    n = 1 << res
    cell = np.array([(n // 2) * n + n // 2])
    nb = geo.cell_neighbors(cell, res)[0]
    assert len(nb) == 8 and (nb >= 0).all()
    # corner cell has 3 valid neighbors
    nb0 = geo.cell_neighbors(np.array([0]), res)[0]
    assert (nb0 >= 0).sum() == 3


def test_morton_locality():
    ix = np.array([0, 1, 0, 1], dtype=np.int64)
    iy = np.array([0, 0, 1, 1], dtype=np.int64)
    m = geo.morton(ix, iy, 8)
    assert sorted(m.tolist()) == [0, 1, 2, 3]


def _brute_pip(lat, lon, plat, plon):
    import math
    n = len(plat)
    out = []
    for y, x in zip(lat, lon):
        inside = False
        j = n - 1
        for i in range(n):
            if ((plat[i] > y) != (plat[j] > y)) and \
               (x < (plon[j] - plon[i]) * (y - plat[i]) / (plat[j] - plat[i]) + plon[i]):
                inside = not inside
            j = i
        out.append(inside)
    return np.array(out)


def test_pip_vs_brute_force_concave():
    rng = np.random.default_rng(1)
    # concave "star" polygon
    ang = np.linspace(0, 2 * np.pi, 11)[:-1]
    r = np.where(np.arange(10) % 2 == 0, 1.0, 0.4)
    plat = 44 + r * np.sin(ang)
    plon = 20 + r * np.cos(ang)
    lat = rng.uniform(42.5, 45.5, 2000)
    lon = rng.uniform(18.5, 21.5, 2000)
    got = geo.point_in_polygon(lat, lon, plat, plon)
    exp = _brute_pip(lat, lon, plat, plon)
    assert (got == exp).all()
    assert got.any() and not got.all()


def test_polygon_index_first_wins_and_correct():
    rng = np.random.default_rng(2)
    polys = []
    for i in range(25):
        clat, clon = rng.uniform(40, 48), rng.uniform(16, 24)
        dl = rng.uniform(0.3, 1.2)
        polys.append((f"p{i}", [clat - dl, clat - dl, clat + dl, clat + dl],
                      [clon - dl, clon + dl, clon + dl, clon - dl]))
    idx = geo.PolygonIndex(polys)
    lat = rng.uniform(40, 48, 3000)
    lon = rng.uniform(16, 24, 3000)
    got = idx.assign(lat, lon)
    # brute force with first-wins
    exp = np.full(len(lat), -1, dtype=np.int64)
    for k in range(len(polys) - 1, -1, -1):
        hit = geo.point_in_polygon(lat, lon, np.array(polys[k][1]),
                                   np.array(polys[k][2]))
        exp[hit] = k
    assert (got == exp).all()


def test_strtree_query():
    rng = np.random.default_rng(3)
    boxes = []
    for _ in range(100):
        x0, y0 = rng.uniform(0, 10, 2)
        boxes.append([x0, y0, x0 + rng.uniform(0.1, 2), y0 + rng.uniform(0.1, 2)])
    boxes = np.array(boxes)
    tree = geo.STRtree(boxes)
    px = rng.uniform(0, 12, 500)
    py = rng.uniform(0, 12, 500)
    pi, bi = tree.query_points(px, py)
    got = set(zip(pi.tolist(), bi.tolist()))
    exp = set()
    for p in range(500):
        for b in range(100):
            if boxes[b, 0] <= px[p] <= boxes[b, 2] and boxes[b, 1] <= py[p] <= boxes[b, 3]:
                exp.add((p, b))
    assert got == exp


def test_nearest_tile_brute_force(ray_session):
    import numpy as np
    import pyarrow.parquet as pq

    from osmlint import geo, queries, synth
    sf = "/root/testdata/sf0.001"
    out = queries.nearest_tile(sf).to_pandas()
    d = synth.generate(sf)
    tiles = pq.read_table(d + "/tiles.parquet").to_pandas() \
        .sort_values("tile_id")
    flat = pq.read_table(
        d + "/flat.parquet",
        columns=["map_slug", "osm_id", "entity_type", "seq",
                 "lat", "lon"]).to_pandas()
    clat = ((tiles["minlat"] + tiles["maxlat"]) / 2).to_numpy()
    clon = ((tiles["minlon"] + tiles["maxlon"]) / 2).to_numpy()
    sample = flat.sample(50, random_state=7)
    m = out.set_index(["map_slug", "entity_type", "osm_id", "seq"])
    for r in sample.itertuples():
        dd = geo.haversine_km(np.full(len(clat), r.lat),
                              np.full(len(clat), r.lon), clat, clon)
        dd = np.floor(dd * 1e6 + 0.5) / 1e6
        best = int(np.argmin(dd))
        got = m.loc[(r.map_slug, r.entity_type, r.osm_id, r.seq)]
        assert got["tile_name"] == tiles["tile_name"].iloc[best]
        assert got["dist_km"] == dd[best]


def test_cell_density_smooth_box_filter(ray_session):
    from osmlint import queries
    sf = "/root/testdata/sf0.001"
    counts = queries.cell_index(sf).set_index("cell_id")["n_docs"]
    sm = queries.cell_density_smooth(sf)
    n = 1 << queries.CELL_RES
    for r in sm.itertuples():
        ix, iy = r.cell_id % n, r.cell_id // n
        exp = sum(counts.get((iy + dy) * n + (ix + dx), 0)
                  for dy in (-1, 0, 1) for dx in (-1, 0, 1)
                  if 0 <= ix + dx < n and 0 <= iy + dy < n)
        assert r.n_smooth == exp
        assert r.n_docs == counts[r.cell_id]
    assert set(sm["cell_id"]) == set(counts.index)
