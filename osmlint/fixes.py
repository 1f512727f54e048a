# -*- coding: utf-8 -*-
"""Fix planning: the deterministic plan half of the reference's interactive
``--fix`` mode (plan/apply split, reference flow src/engine.py:26-47).

For every fixable check that errored, emit a row of the ``fixes`` table
``{doc_id, map_name, check_name, tag, action, new_value, message}`` iff the
reference's fix-guards pass (each guard cited below).  The reference's live
re-fetch (api.WayGet/NodeGet) + staleness re-check collapses in batch mode:
the decoded document IS the current state.  Confirmation prompts and the
actual write belong to the (out-of-scope-for-parity) interactive applier.

The Wikipedia guess walk (_guess_from_wikipedia, src/checks.py:46-134) is
re-expressed over the broadcast wiki reference tables as bounded join
rounds to DEPTH 3: direct title hit with box+20km gate, else the link
hub's ordered targets (ambiguous-page recursion + "друго значење"
other-meaning branch), else the targets' own hubs — first DFS-order
accept wins; no per-row Python, no unbounded recursion.

Engine divergence (north-star requirement): IsInCountryCheck's fix value is
the PIP-derived country (reference hard-codes 'Serbia', src/checks.py:687)
with 'Serbia' as fallback where no polygon contains the point.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import ray
import ray.data as rd

from . import checks as checks_mod
from . import config as config_mod
from . import translit
from .geo import haversine_km
from .pipeline import _cached, _resolve, broadcast_refs, decoded, to_arrow

FIXES_SCHEMA = pa.schema([
    ("doc_id", pa.string()), ("map_name", pa.string()),
    ("check_name", pa.string()), ("tag", pa.string()),
    ("action", pa.string()), ("new_value", pa.string()),
    ("message", pa.string()),
])

WN = {"way": "way", "node": "node"}     # relations excluded except C15f


def _wn(etype: pd.Series) -> np.ndarray:
    return etype.map(WN).fillna("").to_numpy(dtype=object)


def guess_from_wiki(names: pd.Series, lat: np.ndarray, lon: np.ndarray,
                    wiki_ref: pd.DataFrame, wiki_links: pd.DataFrame):
    """Vectorized _guess_from_wikipedia (src/checks.py:46-134), depth <= 3.

    Walk semantics (mirroring the reference's bounded DFS):

    * depth 1 — the direct article: accept iff it exists, carries a valid
      box and is within 20 km.  A boxed page failing the distance gate
      returns None WITHOUT walking (src/checks.py:124-134); an existing
      boxless page walks.
    * depth 2 — the ordered targets of the page's link hub (the sibling
      disambiguation page ``<name> (вишезначна одредница)``, covering both
      the ambiguous-page recursion src/checks.py:114-120 and the
      "друго значење" other-meaning else-branch src/checks.py:88-112 that
      probes ``'{0} (вишезначна_одредница)'``): each target is probed with
      the same accept rule.
    * depth 3 — a depth-2 target that exists WITHOUT a box may itself be a
      hub: its own ordered link targets are probed (the reference's
      recursion, ``depth > 3`` bails src/checks.py:68-70).

    The winner is the FIRST accepted candidate in DFS order — lexicographic
    (ord1, ord2) with the depth-2 node before its children.  The
    reference's ``visited_pages`` pruning is outcome-equivalent here:
    acceptance is a pure function of the title, so a re-encountered page
    can never become a first accept."""
    names_arr = names.to_numpy(dtype=object)
    n = len(names_arr)

    def _probe(titles: np.ndarray, plat: np.ndarray, plon: np.ndarray):
        """(exists, has_box, accept) for title[i] against point i."""
        e = wiki_ref.reindex(titles)
        exists = (e["exists"] == True).to_numpy()         # noqa: E712
        has_box = (e["has_box"] == True).to_numpy()       # noqa: E712
        ok = exists & has_box & e["wiki_lat"].notna().to_numpy()
        accept = np.zeros(len(titles), dtype=bool)
        if ok.any():
            dd = haversine_km(e["wiki_lat"].to_numpy()[ok],
                              e["wiki_lon"].to_numpy()[ok],
                              plat[ok], plon[ok])
            accept[np.nonzero(ok)[0]] = dd <= 20.0
        return exists, has_box, accept

    out = np.full(n, None, dtype=object)
    d_exists, d_box, d_acc = _probe(names_arr, lat, lon)
    out[d_acc] = names_arr[d_acc]
    need = np.nonzero(d_exists & ~d_box)[0]
    if len(need) == 0 or not len(wiki_links):
        return pd.Series(out, index=names.index, dtype=object)

    links = wiki_links[["title", "ord", "target"]]
    sub = pd.DataFrame({
        "row": need,
        "hub": [names_arr[i] + " (вишезначна одредница)" for i in need]})
    l1 = sub.merge(links, left_on="hub", right_on="title")
    if not len(l1):
        return pd.Series(out, index=names.index, dtype=object)
    rows1 = l1["row"].to_numpy()
    t1 = l1["target"].to_numpy(dtype=object)
    e1, b1, acc1 = _probe(t1, lat[rows1], lon[rows1])
    cands = [pd.DataFrame({"row": rows1[acc1], "ord1": l1["ord"].to_numpy()[acc1],
                           "ord2": -1, "cand": t1[acc1]})]
    rec = e1 & ~b1                      # boxless existing target: recurse
    if rec.any():
        l2 = pd.DataFrame({"row": rows1[rec], "ord1": l1["ord"].to_numpy()[rec],
                           "hub2": t1[rec]}) \
            .merge(links, left_on="hub2", right_on="title")
        if len(l2):
            rows2 = l2["row"].to_numpy()
            t2 = l2["target"].to_numpy(dtype=object)
            _, _, acc2 = _probe(t2, lat[rows2], lon[rows2])
            cands.append(pd.DataFrame({
                "row": rows2[acc2], "ord1": l2["ord1"].to_numpy()[acc2],
                "ord2": l2["ord"].to_numpy()[acc2], "cand": t2[acc2]}))
    allc = pd.concat(cands, ignore_index=True)
    if len(allc):
        win = allc.sort_values(["row", "ord1", "ord2"], kind="stable") \
            .drop_duplicates("row", keep="first")
        out[win["row"].to_numpy()] = win["cand"].to_numpy(dtype=object)
    return pd.Series(out, index=names.index, dtype=object)


def _fix_state(wiki_ref_ref, wikidata_ref_ref, wiki_links_ref) -> tuple:
    """``fix_plan_batch``'s per-worker lookup state (built once)."""
    wiki_ref = _resolve(wiki_ref_ref)
    if wiki_ref is not None and wiki_ref.index.name != "title":
        wiki_ref = wiki_ref.drop_duplicates("title").set_index("title")
    wikidata_ref = _resolve(wikidata_ref_ref)
    if wikidata_ref is not None and wikidata_ref.index.name != "qid":
        wikidata_ref = wikidata_ref.set_index("qid")
    by_slug = {}
    for mc in config_mod.default_map_checks():
        by_slug.setdefault(mc.slug, []).append(mc)
    return wiki_ref, wikidata_ref, _resolve(wiki_links_ref), by_slug


def fix_plan_batch(batch: pa.Table, wiki_ref_ref=None, wikidata_ref_ref=None,
                   wiki_links_ref=None) -> pa.Table:
    refs = (wiki_ref_ref, wikidata_ref_ref, wiki_links_ref)
    wiki_ref, wikidata_ref, wiki_links, by_slug = _cached(
        "fix_plan", refs, lambda: _fix_state(*refs))

    df = batch.to_pandas()
    rows = []

    def emit(mask, sub, check, tag, action, value, message):
        idx = np.nonzero(mask)[0]
        if len(idx) == 0:
            return
        rows.append(pd.DataFrame({
            "doc_id": sub["doc_id"].to_numpy()[idx],
            "map_name": mc.map_name,
            "check_name": check,
            # tag may be an array the full group length (GenericSophox passes
            # t_arr): subset it like value/message, else a batch where the
            # action mask is a strict subset raises a length mismatch
            "tag": np.asarray(tag, dtype=object)[idx]
            if not isinstance(tag, str) else tag,
            "action": action,
            "new_value": np.asarray(value, dtype=object)[idx]
            if not isinstance(value, str) else value,
            "message": np.asarray(message, dtype=object)[idx]
            if not isinstance(message, str) else message,
        }))

    for slug, grp in df.groupby("map_slug", sort=False):
        for mc in by_slug.get(slug, []):
            ctx = checks_mod.Ctx(grp, mc.serbia_mode, wiki_ref, wikidata_ref)
            err = {}
            for fqn in mc.checks:
                chk = checks_mod.CHECKS[fqn]
                if not chk.fixable:
                    continue
                app, msg = chk.run(ctx)
                err[fqn] = app & (msg != "")

            n = len(grp)
            etype = grp["entity_type"]
            is_wn = etype.isin(("way", "node")).to_numpy()
            name_prof = (grp["name"] if mc.serbia_mode else grp["name_sr"])
            have_name = ctx._have("name")
            have_sr = grp["name_sr"].notna().to_numpy()
            # C2-ok == NameCyrillicCheck.do_check == '' under this profile
            # (src/checks.py:208-231: country-excluded rows return OK)
            if mc.serbia_mode:
                c2_err = (have_name & ctx.country_ok
                          & ~translit.has_cyrillic(grp["name"]))
            else:
                c2_err = ctx._have("name_sr") & ~translit.has_cyrillic(
                    grp["name_sr"])
            c2_ok = ~c2_err
            latin = translit.cyr2lat(name_prof).fillna("")

            for fqn, e in err.items():
                if not e.any():
                    continue
                if fqn == "checks.LatinNameExistsCheck":
                    # guards src/checks.py:261-273: C1-ok (serbia) or
                    # name:sr present (other), then C2-ok
                    guard = (have_name if mc.serbia_mode else have_sr) & c2_ok
                    m = e & guard & is_wn
                    msg = ("name:sr-Latn for " + _wn(etype)
                           + " " + name_prof.fillna("").to_numpy(dtype=object)
                           + " didn't exists, added it as \""
                           + latin.to_numpy(dtype=object) + "\"")
                    emit(m, grp, fqn, "name:sr-Latn", "add",
                         latin.to_numpy(dtype=object), msg)
                elif fqn == "checks.LatinNameSameAsCyrillicCheck":
                    # src/checks.py:328-356 (staleness re-check is identity)
                    m = e & is_wn
                    msg = ("name:sr-Latn for " + _wn(etype) + " "
                           + name_prof.fillna("").to_numpy(dtype=object)
                           + " was different than in cyrillic, fixed it to "
                           + "be \"" + latin.to_numpy(dtype=object) + "\"")
                    emit(m, grp, fqn, "name:sr-Latn", "set",
                         latin.to_numpy(dtype=object), msg)
                elif fqn in ("checks.WikipediaEntryExistsCheck",
                             "checks.WikipediaEntryIsInSerbianCheck"):
                    # guards src/checks.py:401-412, 461-474: C1-ok, C2-ok,
                    # then the wikipedia guess walk
                    guard = have_name & c2_ok & is_wn
                    cand = e & guard
                    guessed = pd.Series([None] * n, index=grp.index,
                                        dtype=object)
                    if cand.any():
                        sub_names = name_prof[cand]
                        guessed[cand] = guess_from_wiki(
                            sub_names, grp["lat"].to_numpy()[cand],
                            grp["lon"].to_numpy()[cand],
                            wiki_ref, wiki_links).to_numpy()
                    found = guessed.notna().to_numpy()
                    m = cand & found
                    tagv = ("sr:" + guessed.fillna("")).to_numpy(dtype=object)
                    msg = ("Wikipedia tag for " + _wn(etype) + " \""
                           + name_prof.fillna("").to_numpy(dtype=object)
                           + "\" is updated to be \"" + tagv + "\"")
                    action = ("add" if fqn == "checks.WikipediaEntryExistsCheck"
                              else "set")
                    emit(m, grp, fqn, "wikipedia", action, tagv, msg)
                elif fqn == "checks.WikidataEntryExistsCheck":
                    # guard src/checks.py:575-607: WikipediaEntryValidCheck
                    # passed AND cached the page (fully valid incl. 20 km)
                    j = ctx.wiki_join
                    c8_valid = (ctx.place_ctv & have_name
                                & grp["wikipedia"].notna().to_numpy()
                                & j["title"].notna().to_numpy()
                                & ctx.country_ok
                                & (j["exists"] == True).to_numpy()     # noqa: E712
                                & (j["has_box"] == True).to_numpy()    # noqa: E712
                                & j["wiki_lat"].notna().to_numpy())
                    dist_ok = np.zeros(n, dtype=bool)
                    if c8_valid.any():
                        dd = haversine_km(
                            j["wiki_lat"].to_numpy()[c8_valid],
                            j["wiki_lon"].to_numpy()[c8_valid],
                            grp["lat"].to_numpy()[c8_valid],
                            grp["lon"].to_numpy()[c8_valid])
                        dist_ok[np.nonzero(c8_valid)[0]] = dd <= 20.0
                    qid = j["qid"].fillna("").to_numpy(dtype=object)
                    m = e & c8_valid & dist_ok & is_wn & (qid != "")
                    msg = ("Wikidata tag for " + _wn(etype) + " \""
                           + name_prof.fillna("").to_numpy(dtype=object)
                           + "\" is set to be \"" + qid + "\"")
                    emit(m, grp, fqn, "wikidata", "add", qid, msg)
                elif fqn == "checks.IsInCountryCheck":
                    # src/checks.py:681-698; value PIP-derived (divergence)
                    m = e & is_wn
                    country = (grp["country"].fillna("Serbia")
                               if "country" in grp.columns
                               else pd.Series(["Serbia"] * n, index=grp.index)
                               ).to_numpy(dtype=object)
                    noi = ctx.name_or_id.to_numpy(dtype=object)
                    msg = ("is_in:country for " + _wn(etype) + " " + noi
                           + " was missing, added it to be \"" + country + "\"")
                    emit(m, grp, fqn, "is_in:country", "add", country, msg)
                elif fqn == "checks.GenericSophoxCheck":
                    # src/checks.py:719-785: apply tag_1/val_1 suggestion by
                    # 3-way diff against the current tags (any entity type)
                    tag1 = grp["tag_1"].fillna("")
                    val1 = grp["val_1"].fillna("")
                    colmap = {"name": "name", "name:sr": "name_sr",
                              "name:sr-Latn": "name_sr_latn",
                              "int_name": "int_name"}
                    cur = pd.Series([None] * n, index=grp.index, dtype=object)
                    for t, c in colmap.items():
                        sel = (tag1 == t).to_numpy()
                        cur[sel] = grp[c][sel]
                    has_sugg = e & (tag1 != "").to_numpy()
                    is_del = (val1 == "false").to_numpy()
                    cur_na = cur.isna().to_numpy()
                    add_m = has_sugg & ~is_del & cur_na
                    set_m = (has_sugg & ~is_del & ~cur_na
                             & (cur.fillna("") != val1).to_numpy())
                    del_m = has_sugg & is_del & ~cur_na
                    t_arr = tag1.to_numpy(dtype=object)
                    v_arr = val1.to_numpy(dtype=object)
                    for m, action in ((add_m, "add"), (set_m, "set"),
                                      (del_m, "delete")):
                        emit(m, grp, fqn, t_arr, action, v_arr, "Fixes made")
                elif fqn == "checks_extended.RemoveLatinName":
                    # src/checks_extended.py:28-51 (message hard-codes 'way')
                    m = e & is_wn
                    noi = ctx.name_or_id.to_numpy(dtype=object)
                    msg = ("name:sr-Latn for way " + noi
                           + " existed, removed it")
                    emit(m, grp, fqn, "name:sr-Latn", "delete", "", msg)

    if not rows:
        return FIXES_SCHEMA.empty_table()
    out = pd.concat(rows, ignore_index=True)
    return to_arrow(out, FIXES_SCHEMA)


def fix_plan_dataset(data_dir: str) -> rd.Dataset:
    """Decoded + deduped + PIP-assigned stream -> fixes table."""
    refs = broadcast_refs(data_dir)
    import os
    import pyarrow.parquet as pq
    links = pq.read_table(os.path.join(data_dir, "wiki_links.parquet")) \
        .to_pandas()
    links_ref = ray.put(links)
    ds = decoded(data_dir, dedup=True, pip=True)
    return ds.map_batches(fix_plan_batch, batch_format="pyarrow",
                          fn_kwargs={"wiki_ref_ref": refs["wiki_ref"],
                                     "wikidata_ref_ref": refs["wikidata_ref"],
                                     "wiki_links_ref": links_ref})