# -*- coding: utf-8 -*-
"""The reference unit-test truth tables (test/test_checks.py,
test/test_applicability.py) as parametrized cases against the vectorized
kernels, under both map profiles."""

import numpy as np
import pandas as pd
import pytest

from osmlint import checks as C


def _batch(rows):
    cols = ["doc_id", "map_slug", "entity_type", "osm_id", "seq", "lat", "lon",
            "origin", "name", "name_sr", "name_sr_latn", "place",
            "is_in_country", "wikipedia", "wikidata", "highway", "int_name",
            "comment", "check_description", "vote", "tag_1", "val_1",
            "media_img"]
    data = {c: [] for c in cols}
    for i, r in enumerate(rows):
        for c in cols:
            if c == "doc_id":
                data[c].append(r.get(c, f"m/node/{i}"))
            elif c == "osm_id":
                data[c].append(r.get(c, i))
            elif c == "seq":
                data[c].append(i)
            elif c in ("lat", "lon"):
                data[c].append(r.get(c, 44.0))
            elif c == "entity_type":
                data[c].append(r.get(c, "node"))
            elif c == "origin":
                data[c].append(r.get(c, "pbf"))
            elif c == "map_slug":
                data[c].append("m")
            else:
                data[c].append(r.get(c))
    df = pd.DataFrame(data)
    df["osm_id"] = df["osm_id"].astype(np.int64)
    df["seq"] = df["seq"].astype(np.int64)
    return df


def run(check_fqn, rows, serbia_mode=True, wiki_ref=None, wikidata_ref=None):
    df = _batch(rows)
    if wikidata_ref is None:
        wikidata_ref = pd.DataFrame({"qid": [], "label_sr": []}).set_index("qid")
    ctx = C.Ctx(df, serbia_mode, wiki_ref, wikidata_ref)
    app, msg = C.CHECKS[check_fqn].run(ctx)
    return app, msg


# --- applicability (test/test_applicability.py) ---

def test_applicability_exact_case_sensitive():
    app, _ = run("checks.NameMissingCheck", [
        {"place": "city"}, {"place": "CiTy"}, {"place": "town"},
        {"place": "village"}, {"place": "hamlet"}, {}])
    assert app.tolist() == [True, False, True, True, False, False]


# --- NameMissingCheck (test/test_checks.py:22-34) ---

def test_name_missing():
    app, msg = run("checks.NameMissingCheck", [
        {"place": "city"},                         # absent -> error
        {"place": "city", "name": ""},             # empty -> error
        {"place": "city", "name": "Ниш"},          # present -> OK
    ])
    assert (msg != "").tolist() == [True, True, False]
    assert msg[0].startswith("Name missing for city with id 0")


# --- NameCyrillicCheck (test/test_checks.py:41-71) ---

def test_name_cyrillic_serbia_profile():
    app, msg = run("checks.NameCyrillicCheck", [
        {"place": "city", "name": "Ниш"},
        {"place": "city", "name": "Nis"},
        {"place": "city", "name": "Nis", "is_in_country": "Hungary"},  # excluded
        {"place": "city", "name": "Nis", "is_in_country": "Serbia"},
        {"place": "city"},                          # no name -> OK (skipped)
        {"place": "city", "name_sr": "Nis"},        # serbia profile ignores name:sr
    ], serbia_mode=True)
    assert (msg != "").tolist() == [False, True, False, True, False, False]
    assert msg[1] == 'Seems that city name is not in cyrillic for "Nis"'


def test_name_cyrillic_other_profile():
    app, msg = run("checks.NameCyrillicCheck", [
        {"place": "city", "name_sr": "Ниш"},
        {"place": "city", "name_sr": "Nis"},
        {"place": "city", "name": "Nis"},           # other profile ignores name
        # no is_in:country exclusion on the name:sr branch (reference :223-224)
        {"place": "city", "name_sr": "Nis", "is_in_country": "Hungary"},
    ], serbia_mode=False)
    assert (msg != "").tolist() == [False, True, False, True]


# --- LatinNameExistsCheck (test/test_checks.py:78-132) ---

def test_latin_exists_serbia_profile():
    app, msg = run("checks.LatinNameExistsCheck", [
        {"place": "city", "name": "Ниш"},                        # missing -> err
        {"place": "city", "name": "Ниш", "name_sr_latn": "Nis"},  # OK
        {"place": "city", "name": "Ниш", "name_sr_latn": ""},     # empty -> err
        {"place": "city"},                                        # still err
    ], serbia_mode=True)
    assert (msg != "").tolist() == [True, False, True, True]
    assert msg[0] == "Latin name missing for city Ниш"
    assert msg[3] == "Latin name missing for city 3"


def test_latin_exists_other_profile():
    app, msg = run("checks.LatinNameExistsCheck", [
        {"place": "city", "name": "Ниш"},                       # no name:sr -> OK
        {"place": "city", "name_sr": "Ниш"},                    # err
        {"place": "city", "name_sr": "Ниш", "name_sr_latn": "Nis"},  # OK
    ], serbia_mode=False)
    assert (msg != "").tolist() == [False, True, False]


# --- LatinNameSameAsCyrillicCheck (test/test_checks.py:139-155) ---

def test_latin_same_as_cyrillic():
    app, msg = run("checks.LatinNameSameAsCyrillicCheck", [
        {"place": "city", "name": "фоо", "name_sr_latn": "foo"},   # OK
        {"place": "city", "name": "фоо", "name_sr_latn": "foo2"},  # err
        {"place": "city", "name": "фоо"},                          # no latn -> OK
        {"place": "city", "name_sr_latn": "foo"},                  # no name -> OK
        {"place": "city", "name": "фоо", "name_sr_latn": "foo2",
         "is_in_country": "Hungary"},                              # excluded
    ], serbia_mode=True)
    assert (msg != "").tolist() == [False, True, False, False, False]
    assert msg[1] == "Latin name foo2 for city фоо is not properly transliterated"


# --- LatinNameNotInCyrillicCheck (test/test_checks.py:162-174) ---

def test_latin_not_in_cyrillic():
    app, msg = run("checks.LatinNameNotInCyrillicCheck", [
        {"place": "city", "name": "Ниш", "name_sr_latn": "Nis"},
        {"place": "city", "name": "Ниш", "name_sr_latn": "Niш"},   # cyr in latin
        {"place": "city", "name_sr_latn": "Niш"},                  # no name -> OK
    ])
    assert (msg != "").tolist() == [False, True, False]
    assert msg[1] == "There is cyrillic in city name Ниш for latin version Niш"


# --- wikipedia / wikidata checks with reference tables ---

def _wiki():
    wiki = pd.DataFrame({
        "title": ["Ниш", "Далеко", "Безбокса", "Безкоорд"],
        "exists": [True, True, True, True],
        "has_box": [True, True, False, True],
        "wiki_lat": [44.0, 10.0, np.nan, np.nan],
        "wiki_lon": [20.0, 10.0, np.nan, np.nan],
        "qid": ["Q1", "Q2", "Q3", "Q4"], "is_disambig": False})
    wd = pd.DataFrame({"qid": ["Q1", "Q2"],
                       "label_sr": ["Ниш", "Друго"]}).set_index("qid")
    return wiki, wd


def test_wikipedia_checks():
    wiki, wd = _wiki()
    rows = [
        {"place": "city", "name": "Ниш"},                             # missing
        {"place": "city", "name": "Ниш", "wikipedia": "en:Nis"},      # not sr
        {"place": "city", "name": "Ниш", "wikipedia": "sr:Ниш",
         "lat": 44.0, "lon": 20.0},                                   # valid
        {"place": "city", "name": "Ниш", "wikipedia": "sr:Далеко",
         "lat": 44.0, "lon": 20.0},                                   # >20km
        {"place": "city", "name": "Ниш", "wikipedia": "sr:Нема"},     # not exists
        {"place": "city", "name": "Ниш", "wikipedia": "sr:Безбокса"},  # no box
        {"place": "city", "name": "Ниш", "wikipedia": "sr:Безкоорд"},  # no coords
    ]
    _, m1 = run("checks.WikipediaEntryExistsCheck", rows, wiki_ref=wiki)
    assert (m1 != "").tolist() == [True, False, False, False, False, False, False]
    assert m1[0] == "Wikipedia missing for city Ниш"
    _, m2 = run("checks.WikipediaEntryIsInSerbianCheck", rows, wiki_ref=wiki)
    assert (m2 != "").tolist() == [False, True, False, False, False, False, False]
    assert m2[1] == "Wikipedia entry is en:Nis and is not in Serbian for city Ниш"
    _, m3 = run("checks.WikipediaEntryValidCheck", rows, wiki_ref=wiki)
    assert (m3 != "").tolist() == [False, False, False, True, True, True, True]
    assert "more than 20km apart" in m3[3] and m3[3].endswith("for place Ниш.")
    assert m3[4] == "Wikipedia entry Нема is not valid for city Ниш"
    assert m3[5].startswith("Cannot calculate distance as Wikipedia article "
                            "Безбокса does not contain any of valid boxes ")
    assert m3[6] == "Wikipedia entry Безкоорд is missing latitude or longitude"


def test_wikidata_checks():
    wiki, wd = _wiki()
    rows = [
        {"place": "city", "name": "Ниш"},                              # missing
        {"place": "city", "name": "Ниш", "wikidata": "Q1"},            # valid
        {"place": "city", "name": "Ниш", "wikidata": "Q99"},           # wrong
        {"place": "city", "name": "Ниш", "wikidata": "Q1",
         "wikipedia": "sr:Ниш"},                                       # in sync
        {"place": "city", "name": "Ниш", "wikidata": "Q2",
         "wikipedia": "sr:Ниш"},                                       # mismatch
        {"place": "city", "name": "Ниш", "wikidata": "Q99",
         "wikipedia": "sr:Ниш"},                       # invalid -> sync OK (div.)
    ]
    _, m1 = run("checks.WikidataEntryExistsCheck", rows, wikidata_ref=wd)
    assert (m1 != "").tolist() == [True, False, False, False, False, False]
    _, m2 = run("checks.WikidataEntryValidCheck", rows, wikidata_ref=wd)
    assert (m2 != "").tolist() == [False, False, True, False, False, True]
    assert m2[2] == "Wikidata entry Q99 for city Ниш wrong"
    _, m3 = run("checks.WikipediaAndWikidataInSyncCheck", rows, wikidata_ref=wd)
    assert (m3 != "").tolist() == [False, False, False, False, True, False]
    assert m3[4] == ("Wikidata entry Q2 for city Ниш doesn't match wikipedia "
                     "entry (sr:Ниш)for it")


def test_is_in_country_and_remove_latin():
    _, m1 = run("checks.IsInCountryCheck", [
        {"place": "city", "name": "Ниш"},
        {"place": "city", "name": "Ниш", "is_in_country": "Serbia"},
        {"place": "city", "name": "Ниш", "is_in_country": "Hungary"},  # no gate
    ])
    assert (m1 != "").tolist() == [True, False, False]
    assert m1[0] == "is_in:country missing for city Ниш"
    _, m2 = run("checks_extended.RemoveLatinName", [
        {"place": "city", "name": "Ниш", "name_sr_latn": "Nis"},
        {"place": "city", "name": "Ниш"},
    ])
    assert (m2 != "").tolist() == [True, False]
    assert m2[0] == "Latin name missing for city Ниш"


def test_generic_sophox():
    _, m = run("checks.GenericSophoxCheck", [
        {"origin": "sophox", "name": "Фоо",
         "check_description": "Entity {0} is missing name tag"},
        {"origin": "sophox", "check_description": "Entity {0} bad"},
        {"origin": "pbf", "name": "Фоо"},
    ])
    assert m[0] == "Entity Фоо is missing name tag"
    assert m[1] == "Entity 1 bad"
    app, _ = run("checks.GenericSophoxCheck", [{"origin": "pbf"}])
    assert app.tolist() == [False]


def test_generic_sophox_fix_mixed_actions_one_batch():
    """Regression: emit() must subset array-valued `tag` like value/message.
    A batch whose GenericSophox rows mix add/set/delete (action masks strict
    subsets of the group) used to raise 'All arrays must be of the same
    length' (ADVICE r1)."""
    import pyarrow as pa
    from osmlint import fixes
    wiki_ref = pd.DataFrame({
        "title": [], "exists": [], "has_box": [], "wiki_lat": [],
        "wiki_lon": [], "qid": [], "in_serbian": []}).set_index("title")
    wikidata_ref = pd.DataFrame({"qid": [], "label_sr": []}).set_index("qid")
    df = _batch([
        {"origin": "sophox", "name": "А", "tag_1": "name:sr", "val_1": "Ново",
         "check_description": "d {0}"},                       # add
        {"origin": "sophox", "name": "Б", "tag_1": "name:sr", "val_1": "Ново",
         "name_sr": "Старо", "check_description": "d {0}"},   # set
        {"origin": "sophox", "name": "В", "tag_1": "name:sr", "val_1": "false",
         "name_sr": "Старо", "check_description": "d {0}"},   # delete
    ])
    df["map_slug"] = "serbia_pbf"
    out = fixes.fix_plan_batch(pa.Table.from_pandas(df, preserve_index=False),
                               wiki_ref_ref=wiki_ref,
                               wikidata_ref_ref=wikidata_ref,
                               wiki_links_ref=None).to_pandas()
    gs = out[out["check_name"] == "checks.GenericSophoxCheck"]
    assert sorted(gs["action"]) == ["add", "delete", "set"]
    assert set(gs["tag"]) == {"name:sr"}


def test_fix_plan_state_built_once_per_worker(monkeypatch):
    """``fix_plan_batch`` builds its lookup state once per worker, as
    ``flag_batch`` does: a second batch with the same refs resolves no
    ref again (no per-batch ray.get, re-index or suite map)."""
    import pyarrow as pa
    from osmlint import fixes
    resolved = []
    resolve = fixes._resolve
    monkeypatch.setattr(fixes, "_resolve",
                        lambda ref: resolved.append(ref) or resolve(ref))
    wiki_ref = pd.DataFrame({
        "title": [], "exists": [], "has_box": [], "wiki_lat": [],
        "wiki_lon": [], "qid": [], "in_serbian": []}).set_index("title")
    wikidata_ref = pd.DataFrame({"qid": [], "label_sr": []}).set_index("qid")
    df = _batch([{"origin": "sophox", "name": "А", "tag_1": "name:sr",
                  "val_1": "Ново", "check_description": "d {0}"}])
    df["map_slug"] = "serbia_pbf"
    tbl = pa.Table.from_pandas(df, preserve_index=False)
    outs = [fixes.fix_plan_batch(tbl, wiki_ref_ref=wiki_ref,
                                 wikidata_ref_ref=wikidata_ref,
                                 wiki_links_ref=None).to_pandas()
            for _ in range(2)]
    assert len(resolved) == 3
    pd.testing.assert_frame_equal(outs[0], outs[1])
    assert list(outs[0]["action"]) == ["add"]


def test_guess_from_wiki_depth3_walk():
    """The bounded DFS of _guess_from_wikipedia (src/checks.py:46-134):
    direct accept, boxed-but-far stop, depth-2 target accept, depth-3
    hub recursion, DFS ordering (child subtree before next sibling)."""
    from osmlint import fixes
    wiki = pd.DataFrame({
        "title":   ["А", "Б", "В", "Г",
                    "Г (река)", "Г (место)", "Г (острво)", "Г (планина)"],
        "exists":  [True, True, True, True, True, True, True, True],
        "has_box": [True, True, False, False, False, True, False, True],
        "wiki_lat": [44.0, 50.0, None, None, None, 44.0, None, 44.0],
        "wiki_lon": [20.0, 30.0, None, None, None, 20.0, None, 20.0],
    }).set_index("title")
    links = pd.DataFrame({
        "title":  ["Г (вишезначна одредница)", "Г (вишезначна одредница)",
                   "Г (река)", "Г (река)"],
        "ord":    [0, 1, 0, 1],
        "target": ["Г (река)", "Г (место)", "Г (острво)", "Г (планина)"],
    })
    names = pd.Series(["А", "Б", "В", "Г", "Д"])
    lat = np.full(5, 44.0)
    lon = np.full(5, 20.0)
    got = fixes.guess_from_wiki(names, lat, lon, wiki, links).tolist()
    assert got[0] == "А"            # direct boxed hit within 20 km
    assert got[1] is None           # boxed but far: stop, no walk
    assert got[2] is None           # boxless, no hub: dead end
    # DFS: ord1=0 subtree ("Г (река)" -> boxless -> its children, where
    # "Г (планина)" accepts at (0,1)) wins over "Г (место)" at (1,-1)
    assert got[3] == "Г (планина)"
    assert got[4] is None           # page doesn't exist
