# -*- coding: utf-8 -*-
"""Vectorized validate-and-flag check kernels (C1–C16).

Each reference check (src/checks.py, src/checks_extended.py) becomes a pure
batch kernel: ``(applicability mask) ∧ (predicate)`` → per-row error message,
with exact message-format parity.  Tri-state result semantics follow
src/engine.py:11-14,62-86: rows outside the applicability mask are
NOT_APPLICABLE and never materialized; inside the mask, empty message =
CHECKED_OK, non-empty = CHECKED_ERROR.

Check identity keys are the reference's fully-qualified class names
("checks.NameMissingCheck", src/engine.py:59).  ``explanation`` carries the
reference class docstring (rendered in the report, src/main.py:84-85).

Documented behavioral divergences from the reference (see also oracle.py):

* NameMissingCheck's message interpolates ``{2}`` with the entity object —
  in CPython that is ``<osm_lint_entity.OsmLintEntity object at 0x…>``, a
  memory address, non-deterministic by construction.  The engine substitutes
  the stable ``doc_id``.
* WikipediaAndWikidataInSyncCheck reads ``local_store['wikidata']``
  unconditionally (src/checks.py:654) and would raise KeyError whenever
  WikidataEntryValidCheck did not run+succeed before it (no shipped config
  orders them).  The engine makes the dependency explicit column dataflow:
  the sync check evaluates only where the wikidata entry is valid, else OK.
* Wiki/Wikidata live services (pywikibot, src/checks.py:11-14) are replaced
  by deterministic broadcast reference tables (synth.py).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np
import pandas as pd

from . import translit
from .geo import haversine_km

CTV = ("city", "town", "village")
VALID_BOXES = ["Насељено место у Србији", "Град у Србији", "Градска четврт"]
_BOXES_JOINED = ",".join(VALID_BOXES)


@dataclass
class Ctx:
    """Per-batch context shared by check kernels (precomputed once)."""
    df: pd.DataFrame
    serbia_mode: bool                 # 'Serbia checks' in map_name (F9)
    wiki_ref: pd.DataFrame | None = None       # indexed by title
    wikidata_ref: pd.DataFrame | None = None   # indexed by qid
    _cache: dict = field(default_factory=dict)

    def _have(self, col: str) -> np.ndarray:
        key = "have_" + col
        if key not in self._cache:
            s = self.df[col]
            self._cache[key] = (s.notna() & (s.fillna("") != "")).to_numpy()
        return self._cache[key]

    @property
    def place_ctv(self) -> np.ndarray:
        if "place_ctv" not in self._cache:
            self._cache["place_ctv"] = self.df["place"].isin(CTV).to_numpy()
        return self._cache["place_ctv"]

    @property
    def country_ok(self) -> np.ndarray:
        # F8: not ('is_in:country' in tags and != 'Serbia')
        if "country_ok" not in self._cache:
            c = self.df["is_in_country"]
            self._cache["country_ok"] = (c.isna() | (c == "Serbia")).to_numpy()
        return self._cache["country_ok"]

    @property
    def name_or_id(self) -> pd.Series:
        # entity.tags['name'] if present else entity.id (str() under format)
        if "name_or_id" not in self._cache:
            self._cache["name_or_id"] = self.df["name"].where(
                self._have("name"), self.df["osm_id"].astype(str))
        return self._cache["name_or_id"]

    @property
    def place_disp(self) -> pd.Series:
        if "place_disp" not in self._cache:
            self._cache["place_disp"] = self.df["place"].fillna("(unknown place type)")
        return self._cache["place_disp"]

    @property
    def profile_name(self) -> pd.Series:
        """F9: 'name' under the Serbia profile, 'name:sr' otherwise."""
        return self.df["name"] if self.serbia_mode else self.df["name_sr"]

    @property
    def wp_sr(self) -> np.ndarray:
        """wikipedia tag present and prefixed 'sr:' (computed once)."""
        if "wp_sr" not in self._cache:
            self._cache["wp_sr"] = self.df["wikipedia"].fillna("") \
                .str.startswith("sr:").to_numpy()
        return self._cache["wp_sr"]

    @property
    def wiki_join(self) -> pd.DataFrame:
        """Hash-probe of sr: wikipedia titles against the wiki_ref lookup.

        The reference table is indexed ONCE (per actor/worker via FlagStage;
        here only as a fallback for ad-hoc callers) and each batch is a
        ``reindex`` probe — never a per-batch merge that would re-hash the
        whole reference table."""
        if "wiki_join" not in self._cache:
            wp = self.df["wikipedia"]
            title = wp.str.slice(3).where(self.wp_sr)
            ref = self.wiki_ref
            if ref.index.name != "title":
                ref = ref.drop_duplicates("title").set_index("title")
            j = ref.reindex(title.to_numpy())
            j.index = self.df.index
            j["title"] = title
            self._cache["wiki_join"] = j
        return self._cache["wiki_join"]


def _blank(n: int) -> np.ndarray:
    return np.full(n, "", dtype=object)


def _fmt(mask: np.ndarray, pieces) -> np.ndarray:
    """Assemble messages for masked rows from str/Series pieces, vectorized."""
    out = _blank(len(mask))
    if not mask.any():
        return out
    acc = None
    for p in pieces:
        s = p[mask].astype(str).to_numpy(dtype=object) if isinstance(p, pd.Series) \
            else np.full(mask.sum(), p, dtype=object)
        acc = s if acc is None else acc + s
    out[mask] = acc
    return out


@dataclass
class Check:
    fqn: str
    fixable: bool
    explanation: str
    run: Callable[[Ctx], tuple[np.ndarray, np.ndarray]]
    """run(ctx) -> (applicable_mask, messages); messages=='' => OK."""


def _name_missing(ctx: Ctx):
    # src/checks.py:192-205
    app = ctx.place_ctv
    err = app & ~ctx._have("name")
    msg = _fmt(err, ["Name missing for ", ctx.place_disp, " with id ",
                     ctx.df["osm_id"], ": ", ctx.df["doc_id"]])
    return app, msg


def _name_cyrillic(ctx: Ctx):
    # src/checks.py:208-231
    app = ctx.place_ctv
    d = ctx.df
    if ctx.serbia_mode:
        checked = ctx._have("name") & ctx.country_ok
        name = d["name"]
    else:
        checked = ctx._have("name_sr")
        name = d["name_sr"]
    err = app & checked & ~translit.has_cyrillic(name)
    msg = _fmt(err, ['Seems that ', ctx.place_disp,
                     ' name is not in cyrillic for "', name, '"'])
    return app, msg


def _latin_name_exists(ctx: Ctx):
    # src/checks.py:234-259
    app = ctx.place_ctv
    have_latn = ctx._have("name_sr_latn")
    if ctx.serbia_mode:
        err = app & ~have_latn
    else:
        err = app & ~have_latn & ctx._have("name_sr")
    msg = _fmt(err, ["Latin name missing for ", ctx.place_disp, " ", ctx.name_or_id])
    return app, msg


def _latin_same_as_cyrillic(ctx: Ctx):
    # src/checks.py:299-326
    app = ctx.place_ctv
    cyr = ctx.profile_name
    # reference guards on key PRESENCE ('name' in tags), not emptiness
    have_cyr = cyr.notna().to_numpy()
    have_latn = ctx.df["name_sr_latn"].notna().to_numpy()
    checked = app & have_cyr & have_latn & ctx.country_ok
    latn = ctx.df["name_sr_latn"]
    translit_ok = np.ones(len(ctx.df), dtype=bool)
    if checked.any():
        sub = translit.cyr2lat(cyr[checked])
        translit_ok[checked] = (sub.fillna("") == latn[checked].fillna("")).to_numpy()
    err = checked & ~translit_ok
    msg = _fmt(err, ["Latin name ", latn, " for ", ctx.place_disp, " ", cyr,
                     " is not properly transliterated"])
    return app, msg


def _latin_not_in_cyrillic(ctx: Ctx):
    # src/checks.py:359-377 (guard: 'name' key present; no country gate)
    app = ctx.place_ctv
    have_name = ctx.df["name"].notna().to_numpy()
    latn = ctx.df["name_sr_latn"]
    err = app & have_name & latn.notna().to_numpy() & translit.has_cyrillic(latn)
    msg = _fmt(err, ["There is cyrillic in ", ctx.place_disp, " name ",
                     ctx.df["name"], " for latin version ", latn])
    return app, msg


def _wikipedia_exists(ctx: Ctx):
    # src/checks.py:380-399
    app = ctx.place_ctv
    err = app & ctx.country_ok & ~ctx.df["wikipedia"].notna().to_numpy()
    msg = _fmt(err, ["Wikipedia missing for ", ctx.df["place"], " ", ctx.name_or_id])
    return app, msg


def _wikipedia_in_serbian(ctx: Ctx):
    # src/checks.py:435-459
    app = ctx.place_ctv
    wp = ctx.df["wikipedia"]
    err = (app & wp.notna().to_numpy() & ctx.country_ok & ~ctx.wp_sr)
    msg = _fmt(err, ["Wikipedia entry is ", wp, " and is not in Serbian for ",
                     ctx.df["place"], " ", ctx.name_or_id])
    return app, msg


def _wikipedia_valid(ctx: Ctx):
    # src/checks.py:498-551; pywikibot page -> broadcast wiki_ref lookup
    d = ctx.df
    app = ctx.place_ctv
    wp = d["wikipedia"]
    checked = (app & d["name"].notna().to_numpy() & wp.notna().to_numpy()
               & ctx.wp_sr & ctx.country_ok)
    n = len(d)
    msg = _blank(n)
    if checked.any():
        j = ctx.wiki_join
        title = j["title"]
        invalid = checked & ~(j["exists"] == True).to_numpy()  # noqa: E712
        msg_invalid = _fmt(invalid, ["Wikipedia entry ", title, " is not valid for ",
                                     d["place"], " ", ctx.name_or_id])
        valid = checked & ~invalid
        no_box = valid & ~(j["has_box"] == True).to_numpy()  # noqa: E712
        msg_nobox = _fmt(no_box, ["Cannot calculate distance as Wikipedia article ",
                                  title, " does not contain any of valid boxes ",
                                  _BOXES_JOINED])
        no_coords = valid & ~no_box & j["wiki_lat"].isna().to_numpy()
        msg_nocoords = _fmt(no_coords, ["Wikipedia entry ", title,
                                        " is missing latitude or longitude"])
        with_coords = valid & ~no_box & ~no_coords
        dist = np.full(n, 0.0)
        if with_coords.any():
            dist[with_coords] = haversine_km(
                j["wiki_lat"].to_numpy()[with_coords],
                j["wiki_lon"].to_numpy()[with_coords],
                d["lat"].to_numpy()[with_coords], d["lon"].to_numpy()[with_coords])
        far = with_coords & (dist > 20.0)
        dist_s = pd.Series([f"{x:.2f}" for x in dist[far]], dtype=object,
                           index=d.index[far]).reindex(d.index)
        msg_far = _fmt(far, ["Wikipedia and OSM entries are more than 20km apart (",
                             dist_s, " km) for place ", ctx.name_or_id, "."])
        for m in (msg_invalid, msg_nobox, msg_nocoords, msg_far):
            sel = m != ""
            msg[sel] = m[sel]
    return app, msg


def _wikidata_exists(ctx: Ctx):
    # src/checks.py:554-573
    app = ctx.place_ctv
    err = app & ctx.country_ok & ~ctx.df["wikidata"].notna().to_numpy()
    msg = _fmt(err, ["Wikidata missing for ", ctx.df["place"], " ", ctx.name_or_id])
    return app, msg


def _wikidata_valid(ctx: Ctx):
    # src/checks.py:610-632; ItemPage lookup -> wikidata_ref
    d = ctx.df
    app = ctx.place_ctv
    wd = d["wikidata"]
    checked = app & wd.notna().to_numpy() & ctx.country_ok
    known = wd.isin(ctx.wikidata_ref.index).to_numpy()
    err = checked & ~known
    msg = _fmt(err, ["Wikidata entry ", wd, " for ", d["place"], " ",
                     ctx.name_or_id, " wrong"])
    return app, msg


def _wiki_wikidata_sync(ctx: Ctx):
    # src/checks.py:635-661 (dependency on WikidataEntryValidCheck made explicit:
    # evaluated only where the wikidata entry is valid — see module docstring)
    d = ctx.df
    app = ctx.place_ctv
    wd = d["wikidata"]
    wp = d["wikipedia"]
    checked = app & wp.notna().to_numpy() & wd.notna().to_numpy() & ctx.country_ok
    label = wd.map(ctx.wikidata_ref["label_sr"])
    valid = label.notna().to_numpy()
    title = wp.str.slice(3)
    err = checked & valid & (label.fillna("") != title.fillna("")).to_numpy()
    msg = _fmt(err, ["Wikidata entry ", wd, " for ", d["place"], " ",
                     ctx.name_or_id, " doesn't match wikipedia entry (", wp,
                     ")for it"])
    return app, msg


def _is_in_country(ctx: Ctx):
    # src/checks.py:664-679
    app = ctx.place_ctv
    err = app & ~ctx.df["is_in_country"].notna().to_numpy()
    msg = _fmt(err, ["is_in:country missing for ", ctx.df["place"], " ",
                     ctx.name_or_id])
    return app, msg


def _generic_sophox(ctx: Ctx):
    # src/checks.py:701-717: every sophox row is a finding; message is the
    # query metadata's check_description template with {0} = name
    d = ctx.df
    app = (d["origin"] == "sophox").to_numpy()
    n = len(d)
    msg = _blank(n)
    if app.any():
        desc = d["check_description"].fillna("no description")
        name = ctx.name_or_id
        sub = [t.format(v) for t, v in zip(desc[app], name[app])]
        msg[app] = np.array(sub, dtype=object)
    return app, msg


def _remove_latin_name(ctx: Ctx):
    # src/checks_extended.py:11-26 (message text faithfully says "missing"
    # although the finding is presence)
    app = ctx.place_ctv
    err = app & ctx._have("name_sr_latn")
    msg = _fmt(err, ["Latin name missing for ", ctx.place_disp, " ", ctx.name_or_id])
    return app, msg


CHECKS: dict[str, Check] = {c.fqn: c for c in [
    Check("checks.NameMissingCheck", False,
          "Checks that 'name' tag is present in entity.", _name_missing),
    Check("checks.NameCyrillicCheck", False,
          "Checks that name of the entity is in cyrillic script.", _name_cyrillic),
    Check("checks.LatinNameExistsCheck", True,
          "Checks that for entity exists name in sr-Latn too.", _latin_name_exists),
    Check("checks.LatinNameSameAsCyrillicCheck", True,
          "If cyrillic name and sr-Latn name tags exists, checks that cyrillic "
          "name is transliterated equivalently to sr-Latn.", _latin_same_as_cyrillic),
    Check("checks.LatinNameNotInCyrillicCheck", False,
          "Check that sr-Latn name in tags is not in cyrillic script.",
          _latin_not_in_cyrillic),
    Check("checks.WikipediaEntryExistsCheck", True,
          "Check that there exists Wikipedia entry for entity.", _wikipedia_exists),
    Check("checks.WikipediaEntryIsInSerbianCheck", True,
          "Check that Wikipedia entry for entity is in local Wikipedia, e.g. "
          "Serbian.", _wikipedia_in_serbian),
    Check("checks.WikipediaEntryValidCheck", False,
          "Checks that Wikipedia entry for a given entity actually exists in "
          "Wikipedia.", _wikipedia_valid),
    Check("checks.WikidataEntryExistsCheck", True,
          "Check that there exists Wikidata entry for entity.", _wikidata_exists),
    Check("checks.WikidataEntryValidCheck", False,
          "Checks that Wikidata entry for a given entity actually exists in "
          "Wikidata.", _wikidata_valid),
    Check("checks.WikipediaAndWikidataInSyncCheck", False,
          "If both Wikipedia and Wikidata entry do exist, checks that Wikidata "
          "entry links to Wikipedia entry.", _wiki_wikidata_sync),
    Check("checks.IsInCountryCheck", True,
          "Checks that there exists \"is_in:country\" tag", _is_in_country),
    Check("checks.GenericSophoxCheck", True,
          "Generic check using Sophox service with whatever SPARQL query is "
          "given.\n    Will also fix things if there are (tag_N, val_N) pairs.",
          _generic_sophox),
    Check("checks_extended.RemoveLatinName", True,
          "Checks that looks for name:sr-Latn tag and removes them if it "
          "exists. Not part of standard suite.", _remove_latin_name),
]}
