# -*- coding: utf-8 -*-
"""Deterministic synthetic data: Serbia-extent OSM span-documents + reference
tables, seeded (seed=42), scale-parametric.  No external data.

Produces, under ``<base>/sf<sf>/`` (one atomic ``caches.publish``,
sealed with ``_SUCCESS``; idempotent):

* ``docs/map=<slug>/part-*.parquet`` — the driver-mandated document table
  (doc_id, spans), hive-partitioned per (group, map) pair exactly like the
  reference's map-check shards (reference config: config.json; Cartesian
  expansion src/main.py:172-182).
* ``flat.parquet`` — the same content as flat columns (oracle-SQL side).
* ``wiki_ref.parquet`` / ``wikidata_ref.parquet`` / ``wiki_links.parquet`` —
  deterministic stand-ins for the pywikibot-backed Wikipedia/Wikidata
  services the reference consults (src/checks.py:11-14, 498-661).
* ``tiles.parquet`` / ``countries.parquet`` — admin polygons (axis-aligned in
  the synthetic data so the tile join is SQL-verifiable; the engine runs the
  general STRtree+ray-cast path over them).

Entity mix reproduces the behavioral truth tables of the reference tests
(test/test_checks.py) plus Zipf-hot name reuse and Belgrade/Novi Sad
coordinate hotspots for shuffle-skew realism.
"""

from __future__ import annotations

import json
import os

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq

from . import caches, rules, spans, translit
from .config import NEIGHBORS, SERBIA_MAP, SERBIA_SLUG

SEED = 42
DEFAULT_BASE = os.environ.get("OSMLINT_DATA", "/tmp/osmlint_synth")

SERBIA_EXTENT = (42.2, 46.2, 18.8, 23.1)          # minlat, maxlat, minlon, maxlon
SERBIA_CORE = (42.3, 46.1, 19.5, 23.0)            # country rectangle
HOTSPOTS = [  # (lat, lon, sigma, share) — Belgrade / Novi Sad / Niš skew
    (44.8167, 20.4612, 0.06, 0.28),
    (45.2517, 19.8369, 0.04, 0.10),
    (43.3209, 21.8958, 0.04, 0.05),
]

EXTENDED_MAP = "Serbia extended checks (PBF)"       # engine-added suite

_CONS = list("бвгдзјклмнпрстфхцчшжђћљњџ")
_VOWS = list("аеиоу")


def n_rows_for_sf(sf: float) -> int:
    return max(2000, int(round(4_000_000 * sf)))


def sf_token(sf_dir_or_sf) -> str:
    """'/root/testdata/sf0.01' -> 'sf0.01'; 0.01 -> 'sf0.01'."""
    if isinstance(sf_dir_or_sf, (int, float)):
        return f"sf{sf_dir_or_sf:g}"
    base = os.path.basename(str(sf_dir_or_sf).rstrip("/"))
    return base if base.startswith("sf") else f"sf{base}"


def sf_value(token: str) -> float:
    return float(token[2:]) if token.startswith("sf") else float(token)


def synth_dir(sf_dir_or_sf, base: str | None = None) -> str:
    return os.path.join(base or DEFAULT_BASE, sf_token(sf_dir_or_sf))


def _make_pool(rng: np.random.Generator, size: int):
    """Cyrillic name pool + deterministic per-name variants (vectorized —
    the per-name Python loop made sf1 generation take minutes)."""
    n_syl = rng.integers(2, 4, size)
    two_word = rng.random(size) < 0.25

    def words(n, syls, max_syl):
        syl = np.char.add(rng.choice(_CONS, (n, max_syl)),
                          rng.choice(_VOWS, (n, max_syl)))
        w = np.full(n, "", dtype=f"U{2 * max_syl}")
        for i in range(max_syl):
            w = np.char.add(w, np.where(syls > i, syl[:, i], ""))
        return np.char.capitalize(w)

    first = words(size, n_syl, 3)
    second = words(size, np.full(size, 2), 2)
    names_u = np.where(two_word, np.char.add(np.char.add(first, " "), second),
                       first)
    names = pd.Series(names_u.astype(object))
    # titles must be unique (wiki_ref is keyed by title): disambiguate dups
    dup_k = names.groupby(names, sort=False).cumcount()
    names = names.where(dup_k == 0, names + " " + dup_k.astype(str))
    cyr = names.to_numpy(dtype=object)
    lat = translit.cyr2lat(pd.Series(cyr)).to_numpy(dtype=object)
    bad_lat = np.array([s + "2" for s in lat], dtype=object)          # cf. test 'foo2'
    lat_cyr_mix = np.array([(s.replace("a", "а", 1) if "a" in s else s + "а")
                            for s in lat], dtype=object)
    english = np.array([f"{w} {s}" for w, s in zip(
        rng.choice(["Query", "Xylo", "Willow", "York", "Quarry", "Wax"], size),
        rng.choice(["Street", "Way", "Road", "Lane", "Square"], size))], dtype=object)
    return cyr, lat, bad_lat, lat_cyr_mix, english


def _choice_mask(rng, n, p):
    return rng.random(n) < p


def _gen_entities(rng, n, extent, pool, id_offset, country_tags, map_slug):
    """One map's flat entity table (vectorized)."""
    cyr, lat, bad_lat, lat_cyr_mix, english = pool
    psize = len(cyr)
    minlat, maxlat, minlon, maxlon = extent

    # coordinates: hotspot mixture + uniform
    u = rng.random(n)
    lat_a = minlat + rng.random(n) * (maxlat - minlat)
    lon_a = minlon + rng.random(n) * (maxlon - minlon)
    if map_slug == SERBIA_SLUG:
        acc = 0.0
        for hlat, hlon, sig, share in HOTSPOTS:
            m = (u >= acc) & (u < acc + share)
            lat_a[m] = np.clip(hlat + rng.normal(0, sig, m.sum()), minlat, maxlat)
            lon_a[m] = np.clip(hlon + rng.normal(0, sig, m.sum()), minlon, maxlon)
            acc += share
    lat_a = np.round(lat_a, 7)
    lon_a = np.round(lon_a, 7)

    etype = rng.choice(["node", "way", "relation"], n, p=[0.78, 0.20, 0.02])
    place = rng.choice(
        np.array(["city", "town", "village", "hamlet", "suburb", None], dtype=object),
        n, p=[0.012, 0.05, 0.33, 0.06, 0.03, 0.518])
    highway = np.where(
        (place == None) & _choice_mask(rng, n, 0.38),  # noqa: E711
        rng.choice(np.array(["residential", "primary", "secondary", "tertiary",
                             "service"], dtype=object), n),
        None)

    name_idx = (rng.zipf(1.5, n) - 1) % psize
    r = rng.random(n)
    name = np.take(cyr, name_idx)
    name[(r >= 0.03) & (r < 0.13)] = np.take(lat, name_idx)[(r >= 0.03) & (r < 0.13)]
    name[(r >= 0.13) & (r < 0.15)] = np.take(english, name_idx)[(r >= 0.13) & (r < 0.15)]
    name[r < 0.03] = None  # missing name

    r = rng.random(n)
    name_sr = np.where(r < 0.47, np.take(cyr, name_idx),
                       np.where(r < 0.55, np.take(lat, name_idx), None))

    # name:sr-Latn: correct / mistransliterated / contains cyrillic / absent
    src_cyr = np.where(name_sr != None, name_sr, name)  # noqa: E711
    src_idx_ok = np.array([isinstance(s, str) for s in src_cyr])
    correct_latn = np.full(n, None, dtype=object)
    correct_latn[src_idx_ok] = translit.cyr2lat(
        pd.Series(src_cyr[src_idx_ok])).to_numpy(dtype=object)
    r = rng.random(n)
    name_sr_latn = np.full(n, None, dtype=object)
    m = (r < 0.36) & src_idx_ok
    name_sr_latn[m] = correct_latn[m]
    m = (r >= 0.36) & (r < 0.41)
    name_sr_latn[m] = np.take(bad_lat, name_idx)[m]
    m = (r >= 0.41) & (r < 0.45)
    name_sr_latn[m] = np.take(lat_cyr_mix, name_idx)[m]

    r = rng.random(n)
    own, p_own, p_absent = country_tags
    is_in = np.full(n, None, dtype=object)
    is_in[r < p_own] = own
    m = r >= p_own + p_absent
    others = np.array(["Serbia", "Croatia", "Hungary", "Montenegro"], dtype=object)
    if own == "Serbia":
        others = np.array(["Bosnia-Herzegovina", "Croatia", "Hungary", "Montenegro"],
                          dtype=object)
    is_in[m] = rng.choice(others, n)[m]

    r = rng.random(n)
    wikipedia = np.full(n, None, dtype=object)
    sr_titles = np.array(["sr:" + s for s in cyr], dtype=object)
    en_titles = np.array(["en:" + s for s in lat], dtype=object)
    de_titles = np.array(["de:" + s for s in lat], dtype=object)
    wikipedia[r < 0.45] = np.take(sr_titles, name_idx)[r < 0.45]
    wikipedia[(r >= 0.45) & (r < 0.53)] = np.take(en_titles, name_idx)[(r >= 0.45) & (r < 0.53)]
    wikipedia[(r >= 0.53) & (r < 0.55)] = np.take(de_titles, name_idx)[(r >= 0.53) & (r < 0.55)]

    r = rng.random(n)
    qids = np.array(["Q" + str(100000 + i) for i in range(psize)], dtype=object)
    bad_qids = np.array(["Q" + str(5000000 + i) for i in range(psize)], dtype=object)
    wikidata = np.full(n, None, dtype=object)
    wikidata[r < 0.45] = np.take(qids, name_idx)[r < 0.45]
    wikidata[(r >= 0.45) & (r < 0.55)] = np.take(bad_qids, name_idx)[(r >= 0.45) & (r < 0.55)]

    int_name = np.full(n, None, dtype=object)
    m = _choice_mask(rng, n, 0.08) & (name_sr_latn != None)  # noqa: E711
    if m.any():
        int_name[m] = translit.romanize(pd.Series(name_sr_latn[m])).to_numpy(dtype=object)

    osm_id = np.arange(id_offset, id_offset + n, dtype=np.int64)
    # id collisions across entity types (reference keys all_checks by bare id,
    # src/sources/osm_source.py:43 — last write wins)
    n_coll = max(1, int(n * 0.003))
    tgt = rng.integers(n // 2, n, n_coll)
    src = rng.integers(0, n // 2, n_coll)
    osm_id[tgt] = osm_id[src]
    etype = etype.astype(object)
    etype[tgt] = np.where(etype[src] == "node", "way", "node")

    media_img = np.full(n, None, dtype=object)
    m = _choice_mask(rng, n, 0.05)
    ids_str = osm_id.astype(str)
    media_img[m] = np.array([f"img://{map_slug}/{i}/photo.jpg" for i in ids_str[m]],
                            dtype=object)

    df = pd.DataFrame({
        "map_slug": map_slug,
        "entity_type": etype,
        "osm_id": osm_id,
        "seq": np.arange(n, dtype=np.int64),
        "lat": lat_a, "lon": lon_a,
        "origin": "pbf",
        "name": name, "name_sr": name_sr, "name_sr_latn": name_sr_latn,
        "place": place, "is_in_country": is_in,
        "wikipedia": wikipedia, "wikidata": wikidata,
        "highway": highway, "int_name": int_name,
        "comment": None, "check_description": None, "vote": None,
        "tag_1": None, "val_1": None, "media_img": media_img,
        "name_idx": name_idx,
    })
    df["doc_id"] = (map_slug + "/" + df["entity_type"] + "/"
                    + df["osm_id"].astype(str))
    return df


def _gen_wiki_ref(rng, pool, serbia_df):
    """wiki_ref / wikidata_ref / wiki_links, keyed by pool-name titles."""
    cyr, lat, *_ = pool
    psize = len(cyr)
    exists = rng.random(psize) < 0.85
    has_box = exists & (rng.random(psize) < 0.80)

    # box coords: first Serbia entity using sr:<title> + small noise; else uniform
    minlat, maxlat, minlon, maxlon = SERBIA_EXTENT
    wlat = minlat + rng.random(psize) * (maxlat - minlat)
    wlon = minlon + rng.random(psize) * (maxlon - minlon)
    wp = serbia_df[serbia_df["wikipedia"].fillna("").str.startswith("sr:")]
    first = wp.groupby("name_idx", sort=False).first()
    idx = first.index.to_numpy()
    wlat[idx] = first["lat"].to_numpy() + rng.normal(0, 0.05, len(idx))
    wlon[idx] = first["lon"].to_numpy() + rng.normal(0, 0.05, len(idx))
    wlat, wlon = np.round(wlat, 7), np.round(wlon, 7)

    qids = np.array(["Q" + str(100000 + i) for i in range(psize)], dtype=object)
    label_mismatch = rng.random(psize) < 0.10
    label_sr = cyr.copy()
    label_sr[label_mismatch] = np.array([s + " (град)" for s in cyr[label_mismatch]],
                                        dtype=object)

    # disambiguation pages + their targets (for the _guess_from_wikipedia
    # walk, reference src/checks.py:46-134).  Three generated shapes:
    #   plain   — depth-2 resolution (boxless dead-end river + boxed place);
    #   deep    — the river target (ord 0) is ITSELF a hub whose ordered
    #             links resolve at depth 3 (reference's recursion into
    #             linked / "друго значење" pages); its first child is a
    #             boxless dead end, its second the accepting boxed page —
    #             which wins DFS order (0,1) over the boxed depth-2 place
    #             at (1,-1);
    #   deep3only — the depth-2 place is boxless too: ONLY the depth-3
    #             child resolves (exercises the full depth bound).
    dis = rng.random(psize) < 0.04
    deep = rng.random(psize) < 0.5
    deep3only = rng.random(psize) < 0.5
    # a hub is only reachable when the direct page exists WITHOUT a box
    # (the walk's entry condition) — make every generated hub walkable
    exists[dis] = True
    has_box[dis] = False
    # ... and resolvable: pin the hub targets' box coords near the FIRST
    # entity carrying the name at all (the sr:-tag override above only
    # covers tagged names, but the walk fires for docs MISSING the tag)
    first_any = serbia_df.groupby("name_idx", sort=False).first()
    ia = first_any.index.to_numpy()
    sel = dis[ia]
    wlat[ia[sel]] = np.round(first_any["lat"].to_numpy()[sel]
                             + rng.normal(0, 0.05, int(sel.sum())), 7)
    wlon[ia[sel]] = np.round(first_any["lon"].to_numpy()[sel]
                             + rng.normal(0, 0.05, int(sel.sum())), 7)

    wiki_ref = pd.DataFrame({
        "title": cyr, "exists": exists, "has_box": has_box,
        "wiki_lat": np.where(has_box, wlat, np.nan),
        "wiki_lon": np.where(has_box, wlon, np.nan),
        "qid": qids, "is_disambig": False,
    })
    links = []
    extra = []
    for i in np.nonzero(dis)[0]:
        dtitle = cyr[i] + " (вишезначна одредница)"
        t1, t2 = cyr[i] + " (река)", cyr[i] + " (место)"
        extra.append((dtitle, True, False, np.nan, np.nan, None, True))
        extra.append((t1, True, False, np.nan, np.nan, None, False))
        links.append((dtitle, 0, t1))
        if deep[i] and deep3only[i]:
            # depth-2 place exists but is boxless — a dead end
            extra.append((t2, True, False, np.nan, np.nan, None, False))
        else:
            extra.append((t2, True, True, wlat[i], wlon[i], None, False))
        links.append((dtitle, 1, t2))
        if deep[i]:
            g1, g2 = cyr[i] + " (острво)", cyr[i] + " (планина)"
            extra.append((g1, True, False, np.nan, np.nan, None, False))
            extra.append((g2, True, True, wlat[i], wlon[i], None, False))
            links.append((t1, 0, g1))
            links.append((t1, 1, g2))
    if extra:
        wiki_ref = pd.concat([wiki_ref, pd.DataFrame(
            extra, columns=["title", "exists", "has_box", "wiki_lat", "wiki_lon",
                            "qid", "is_disambig"])], ignore_index=True)
    wiki_links = pd.DataFrame(links, columns=["title", "ord", "target"])

    wikidata_ref = pd.DataFrame({"qid": qids[exists], "label_sr": label_sr[exists]})
    return wiki_ref, wikidata_ref, wiki_links


def _gen_tiles(rng):
    minlat, maxlat, minlon, maxlon = SERBIA_CORE
    lat_cuts = np.concatenate([[minlat], np.sort(
        minlat + (maxlat - minlat) * rng.random(4)), [maxlat]])
    lon_cuts = np.concatenate([[minlon], np.sort(
        minlon + (maxlon - minlon) * rng.random(5)), [maxlon]])
    rows = []
    tid = 0
    for i in range(len(lat_cuts) - 1):
        for j in range(len(lon_cuts) - 1):
            rows.append((tid, f"okrug_{tid:02d}",
                         round(lat_cuts[i], 7), round(lat_cuts[i + 1], 7),
                         round(lon_cuts[j], 7), round(lon_cuts[j + 1], 7)))
            tid += 1
    return pd.DataFrame(rows, columns=["tile_id", "tile_name", "minlat", "maxlat",
                                       "minlon", "maxlon"])


def _gen_countries():
    rows = []
    for pri, (name, bbox) in enumerate(
            list(NEIGHBORS.items()) + [("Serbia", SERBIA_CORE)]):
        minlat, maxlat, minlon, maxlon = bbox
        rows.append((pri, name, minlat, maxlat, minlon, maxlon))
    return pd.DataFrame(rows, columns=["priority", "country", "minlat", "maxlat",
                                       "minlon", "maxlon"])


def _sophox_flat(serbia_df: pd.DataFrame) -> pd.DataFrame:
    """Apply all rules to the Serbia map -> sophox-origin flat rows."""
    out = []
    for rule in rules.RULES:
        b = rule.apply(serbia_df)
        if not len(b):
            continue
        df = pd.DataFrame({
            "map_slug": rule.slug,
            "entity_type": b["entity_type"].to_numpy(),
            "osm_id": b["osm_id"].to_numpy(),
            "seq": np.arange(len(b), dtype=np.int64),
            "lat": b["lat"].to_numpy(), "lon": b["lon"].to_numpy(),
            "origin": "sophox",
            "name": b["name"].to_numpy(), "name_sr": None, "name_sr_latn": None,
            "place": None, "is_in_country": None, "wikipedia": None,
            "wikidata": None, "highway": None, "int_name": None,
            "comment": rule.comment,
            "check_description": rule.check_description,
            "vote": "false",
            "tag_1": b["tag_1"].to_numpy(), "val_1": b["val_1"].to_numpy(),
            "media_img": None, "name_idx": -1,
        })
        df["doc_id"] = (rule.slug + "/" + df["entity_type"] + "/"
                        + df["osm_id"].astype(str))
        out.append(df)
    return pd.concat(out, ignore_index=True) if out else pd.DataFrame()


MAP_NAMES = {SERBIA_SLUG: SERBIA_MAP}
for _c in NEIGHBORS:
    MAP_NAMES[f"outside_{_c.lower().replace('-', '_')}"] = \
        f"Checks outside of Serbia ({_c})"
for _r in rules.RULES:
    MAP_NAMES[_r.slug] = _r.map_name


def generate(sf_dir_or_sf, base: str | None = None, force: bool = False) -> str:
    """Generate (or reuse cached) synthetic data; returns the sf directory."""
    out_dir = synth_dir(sf_dir_or_sf, base)
    if caches.sealed(out_dir) and not force:
        return out_dir
    sf = sf_value(sf_token(sf_dir_or_sf))
    return caches.publish(out_dir, lambda tmp: _write_tables(tmp, sf),
                          replace=True)


def _write_tables(tmp: str, sf: float) -> None:
    """Write every synthetic table for scale factor ``sf`` into ``tmp``."""
    n_total = n_rows_for_sf(sf)
    rng = np.random.default_rng(SEED)
    pool = _make_pool(rng, max(400, n_total // 10))

    os.makedirs(os.path.join(tmp, "docs"))

    n_serbia = int(n_total * 0.82)
    frames = [_gen_entities(rng, n_serbia, SERBIA_EXTENT, pool, 1_000_000,
                            ("Serbia", 0.58, 0.32), SERBIA_SLUG)]
    off = 1_000_000 + n_serbia
    for c, bbox in NEIGHBORS.items():
        slug = f"outside_{c.lower().replace('-', '_')}"
        nn = int(n_total * 0.03)
        frames.append(_gen_entities(rng, nn, bbox, pool, off,
                                    (c, 0.50, 0.40), slug))
        off += nn
    serbia_df = frames[0]

    wiki_ref, wikidata_ref, wiki_links = _gen_wiki_ref(rng, pool, serbia_df)
    tiles = _gen_tiles(rng)
    countries = _gen_countries()

    soph = _sophox_flat(serbia_df)
    flat = pd.concat(frames + ([soph] if len(soph) else []), ignore_index=True)
    flat["map_name"] = flat["map_slug"].map(MAP_NAMES)
    flat = flat.drop(columns=["name_idx"])

    pq.write_table(pa.Table.from_pandas(flat, preserve_index=False),
                   os.path.join(tmp, "flat.parquet"))
    for name, df in [("wiki_ref", wiki_ref), ("wikidata_ref", wikidata_ref),
                     ("wiki_links", wiki_links), ("tiles", tiles),
                     ("countries", countries)]:
        pq.write_table(pa.Table.from_pandas(df, preserve_index=False),
                       os.path.join(tmp, f"{name}.parquet"))

    # span-document table, partitioned per map, multiple files for read
    # parallelism (resumable layout: one directory per map shard)
    counts = {}
    from . import schema as _schema
    flat_cols = flat[[c for c in _schema.FLAT_COLUMNS]]
    for slug, grp in flat_cols.groupby(flat["map_slug"], sort=True):
        docs = spans.encode_table(pa.Table.from_pandas(grp, preserve_index=False))
        d = os.path.join(tmp, "docs", f"map={slug}")
        os.makedirs(d, exist_ok=True)
        rows_per_file = 32768
        nfiles = max(1, (docs.num_rows + rows_per_file - 1) // rows_per_file)
        for k in range(nfiles):
            part = docs.slice(k * rows_per_file,
                              min(rows_per_file, docs.num_rows - k * rows_per_file))
            pq.write_table(part, os.path.join(d, f"part-{k:04d}.parquet"))
        counts[slug] = docs.num_rows

    with open(os.path.join(tmp, "meta.json"), "w") as f:
        json.dump({"sf": sf, "n_total_requested": n_total, "rows_per_map": counts,
                   "seed": SEED}, f, indent=1)
