# -*- coding: utf-8 -*-
"""End-to-end Ray Data pipeline tests: read -> decode -> PIP -> checks ->
flags -> dedup -> aggregates, asserted against the oracle."""

import pandas as pd
import pyarrow.parquet as pq
import pytest

from osmlint import config, oracle, pipeline, schema, spans


@pytest.fixture(scope="module")
def flags_df(ray_session, synth_small):
    ds = pipeline.flags_dataset(synth_small)
    return ds.to_pandas()


def _oracle_flags(synth_small):
    wiki_d, wd_d = oracle.load_refs(synth_small)
    flat = spans.decode_batch(pq.read_table(synth_small + "/docs").select(
        ["doc_id", "spans"])).to_pandas()
    out = []
    for mc in config.default_map_checks():
        sub = flat[flat.map_slug == mc.slug].reset_index(drop=True)
        out.append(oracle.flags_for_map(sub, mc.map_name, list(mc.checks),
                                        wiki_d, wd_d))
    return pd.concat(out, ignore_index=True)


def test_flags_match_oracle(flags_df, synth_small):
    exp = _oracle_flags(synth_small)
    key = ["map_name", "doc_id", "check_name"]
    g = flags_df.sort_values(key).reset_index(drop=True)[list(exp.columns)]
    e = exp.sort_values(key).reset_index(drop=True)
    pd.testing.assert_frame_equal(g, e, check_dtype=False)


def test_summary_per_map(ray_session, flags_df, synth_small):
    import ray.data as rd
    got = pipeline.summary_per_map(rd.from_pandas(flags_df))
    exp = _oracle_flags(synth_small)
    # A1 oracle: per map, #entities / #errors / #fixable errors
    e = exp.groupby("map_name").apply(
        lambda g: pd.Series({
            "count_map_checks": g["osm_id"].nunique(),
            "count_map_errors": int((g["result"] == "CHECKED_ERROR").sum()),
            "count_map_fixable_errors": int(
                ((g["result"] == "CHECKED_ERROR") & g["fixable"]).sum()),
        }), include_groups=False).reset_index().sort_values("map_name")
    g = got.sort_values("map_name").reset_index(drop=True)
    pd.testing.assert_frame_equal(g, e.reset_index(drop=True), check_dtype=False)


def test_per_check_type(ray_session, flags_df, synth_small):
    import ray.data as rd
    got = pipeline.per_check_type(rd.from_pandas(flags_df))
    exp = _oracle_flags(synth_small)
    e = exp.groupby("check_name").apply(
        lambda g: pd.Series({
            "count_total_checks": len(g),
            "count_total_errors": int((g["result"] != "CHECKED_OK").sum()),
        }), include_groups=False).reset_index().sort_values("check_name")
    g = got[["check_name", "count_total_checks", "count_total_errors"]]
    pd.testing.assert_frame_equal(g.reset_index(drop=True),
                                  e.reset_index(drop=True), check_dtype=False)
    assert got["explanation"].notna().all()


def test_merge_overall(ray_session, flags_df):
    import ray.data as rd
    merged = pipeline.merge_overall(rd.from_pandas(flags_df)).to_pandas()
    # overall names are group names without the source suffix
    assert set(merged["map_overall"]) == {
        "Serbia checks", "Checks outside of Serbia", "Serbia checks extended"}
    # first-wins: at most one row per (overall, entity, check)
    dup = merged.groupby(["map_overall", "osm_id", "check_name"]).size()
    assert (dup == 1).all()
    # a serbia entity flagged by both PBF and a sophox map keeps distinct checks
    serbia = merged[merged["map_overall"] == "Serbia checks"]
    assert (serbia.groupby("osm_id")["check_name"].nunique() >= 1).all()


def test_bare_osm_id_tie(ray_session):
    """The merge keys on bare osm_id, as the reference does, so a node and
    a way that share an id in one map tie on map_order.  The merge still
    keeps one row per (map_overall, osm_id, check_name), with one display
    name per entity, and A1 counts the pair as one entity, as the
    oracle's count(DISTINCT osm_id) does."""
    import ray.data as rd
    pbf, sophox = "Serbia checks (PBF)", "Serbia checks (Sophox adding name)"
    exists, serbian = ("checks.WikipediaEntryExistsCheck",
                       "checks.WikipediaEntryIsInSerbianCheck")
    df = pd.DataFrame([
        ("n7", pbf, 7, 1, "Foo", "node", exists, "CHECKED_ERROR", "m1", True),
        ("w7", pbf, 7, 2, "Bar", "way", exists, "CHECKED_OK", "", False),
        ("w7", pbf, 7, 2, "Bar", "way", serbian, "CHECKED_ERROR", "m2", False),
        ("s7", sophox, 7, 3, "Baz", "node", exists, "CHECKED_ERROR", "m3",
         False),
        ("n8", pbf, 8, 4, "Qux", "node", exists, "CHECKED_OK", "", False),
    ], columns=schema.FLAGS.names)
    ds = rd.from_pandas(df)

    merged = pipeline.merge_overall(ds).to_pandas()
    assert sorted(zip(merged["map_overall"], merged["osm_id"],
                      merged["check_name"])) == [
        ("Serbia checks", 7, exists), ("Serbia checks", 7, serbian),
        ("Serbia checks", 8, exists)]
    seven = merged[merged["osm_id"] == 7]
    # the tie: display and type come from one of the two PBF rows
    assert seven[["display_name", "entity_type"]].drop_duplicates() \
        .apply(tuple, axis=1).tolist() in ([("Foo", "node")],
                                           [("Bar", "way")])
    assert set(seven["map_name"]) == {pbf}

    summary = pipeline.summary_per_map(ds)
    assert summary.values.tolist() == [[pbf, 2, 2, 1], [sophox, 1, 1, 0]]


def test_pip_assignment(ray_session, synth_small):
    ds = pipeline.read_documents(synth_small)
    ds = ds.map_batches(pipeline.decode_and_index, batch_format="pyarrow")
    refs = pipeline.broadcast_refs(synth_small)
    ds = ds.map_batches(pipeline.PipAssign, batch_format="pyarrow",
                        fn_constructor_kwargs={
                            "countries_ref": refs["countries"],
                            "tiles_ref": refs["tiles"]},
                        concurrency=1, batch_size=2048)
    df = ds.to_pandas()
    # oracle: priority-ordered bbox containment
    countries = pq.read_table(synth_small + "/countries.parquet").to_pandas()
    import numpy as np
    exp = np.full(len(df), None, dtype=object)
    for r in countries.sort_values("priority", ascending=False).itertuples():
        hit = (df["lat"].between(r.minlat, r.maxlat)
               & df["lon"].between(r.minlon, r.maxlon)).to_numpy()
        exp[hit] = r.country
    assert (pd.Series(exp).fillna("-") == df["country"].fillna("-")).all()
    # tiles: every serbia-core point got a tile
    tiles = pq.read_table(synth_small + "/tiles.parquet").to_pandas()
    in_core = (df["lat"].between(tiles.minlat.min(), tiles.maxlat.max())
               & df["lon"].between(tiles.minlon.min(), tiles.maxlon.max()))
    assert (df.loc[in_core, "tile_id"] >= 0).mean() > 0.999


def test_config_from_json(synth_small):
    """§2.7 user-extension surface: the reference config.json contract
    (groups x maps x check FQNs, Cartesian expansion, registry-resolved)."""
    from osmlint import config, pipeline
    import pyarrow as pa
    cfg = {
        "Serbia checks": {
            "maps": {"PBF": "serbia_pbf"},
            "checks": ["checks.NameMissingCheck", "checks.NameCyrillicCheck"],
        },
    }
    mcs = config.from_json(cfg)
    assert [m.map_name for m in mcs] == ["Serbia checks (PBF)"]
    assert mcs[0].serbia_mode and mcs[0].slug == "serbia_pbf"
    # the custom suite actually drives FlagStage
    ds = pipeline.read_documents(synth_small)
    ds = ds.map_batches(pipeline.decode_and_index, batch_format="pyarrow")
    batch = ds.take_batch(512, batch_format="pyarrow")
    stage = pipeline.FlagStage(map_checks=mcs)
    out = stage(batch).to_pandas()
    assert set(out["check_name"]) <= {"checks.NameMissingCheck",
                                      "checks.NameCyrillicCheck"}
    import pytest
    with pytest.raises(KeyError, match="unknown check FQNs"):
        config.from_json({"G": {"maps": {"m": "s"},
                                "checks": ["checks.NopeCheck"]}})


def test_media_dedup_keeper_semantics(ray_session):
    from osmlint import media, synth
    sf = "/root/testdata/sf0.001"
    d = synth.generate(sf)
    out = media.media_dedup(d).to_pandas()
    feats = media.media_features(d).to_pandas()
    # keeper is the lexicographic min doc_id of its phash group; copy
    # counts sum back to the full media row count
    grp = feats.groupby("phash")["doc_id"]
    assert out["n_copies"].sum() == len(feats)
    m = out.set_index("phash")
    for ph, g in list(grp)[:50]:
        assert m.loc[ph, "doc_id"] == g.min()
        assert m.loc[ph, "n_copies"] == len(g)


def test_lint_flags_by_tile_consistent(ray_session):
    """The tile rollup totals the flag table exactly: summed n_results
    equals the flag row count, summed n_errors equals the CHECKED_ERROR
    rows, and every check_name in the flags appears in the rollup."""
    from osmlint import queries as qmod
    sf = "/root/testdata/sf0.001"
    rolled = qmod.lint_flags_by_tile(sf)
    flags = qmod.ray_queries()["lint_flags"](sf).to_pandas()
    assert int(rolled["n_results"].sum()) == len(flags)
    assert int(rolled["n_errors"].sum()) == \
        int((flags["result"] == "CHECKED_ERROR").sum())
    assert int(rolled["n_fixable"].sum()) == \
        int(((flags["result"] == "CHECKED_ERROR")
             & flags["fixable"]).sum())
    assert set(flags["check_name"]) == set(rolled["check_name"])
    assert (rolled["n_errors"] <= rolled["n_results"]).all()
    assert (rolled["n_fixable"] <= rolled["n_errors"]).all()


def test_read_documents_lance_gate(tmp_path):
    """A docs.lance dataset routes the read through the Lance branch;
    with no lance wheel in this environment the gate raises the honest
    NotImplementedError instead of silently reading parquet."""
    import pytest as _pytest

    from osmlint import pipeline as pl
    (tmp_path / "docs.lance").mkdir()
    try:
        import lance  # noqa: F401
        has_lance = True
    except ImportError:
        has_lance = False
    if not has_lance:
        with _pytest.raises(NotImplementedError, match="lance"):
            pl.read_documents(str(tmp_path))


def test_worker_cache_keys_frames_by_identity(synth_small):
    """In-process stage calls pass lookup frames, not ObjectRefs.  Two
    wiki_ref frames longer than pandas' 60-row repr that differ only in
    a middle row print identically, so a cache keyed by ``str(ref)``
    would serve the first frame's FlagStage for the second."""
    d = synth_small
    docs = pq.read_table(d + "/docs/map=serbia_pbf",
                         columns=["doc_id", "spans"])
    batch = pipeline.PipAssign(pd.read_parquet(d + "/countries.parquet"),
                               pd.read_parquet(d + "/tiles.parquet"))(
        pipeline.decode_and_index(docs))
    wiki = pd.read_parquet(d + "/wiki_ref.parquet")
    wd = pd.read_parquet(d + "/wikidata_ref.parquet")
    flat = batch.to_pandas()
    wp = flat["wikipedia"].dropna()
    used = set(wp[wp.str.startswith("sr:")].str.slice(3))
    # a middle row (outside the repr's head and tail) whose title a doc
    # links to: marking it missing changes that doc's wikipedia flag
    mid = wiki.iloc[10:-10]
    row = mid.index[mid["title"].isin(used) & mid["exists"]][0]
    other = wiki.copy()
    other.loc[row, "exists"] = False
    assert len(wiki) > 60 and str(wiki) == str(other)

    want_a = pipeline.FlagStage(wiki, wd)(batch).to_pandas()
    want_b = pipeline.FlagStage(other, wd)(batch).to_pandas()
    assert not want_a.equals(want_b)
    got_a = pipeline.flag_batch(batch, wiki, wd).to_pandas()
    got_b = pipeline.flag_batch(batch, other, wd).to_pandas()
    pd.testing.assert_frame_equal(got_a, want_a)
    pd.testing.assert_frame_equal(got_b, want_b)
