# -*- coding: utf-8 -*-
"""DuckDB oracle SQL generation for the driver's correctness gate.

Every SQL-expressible pipeline in ``osmlint.queries`` gets an equivalent
ANSI/DuckDB SQL string here, generated programmatically from the same
constants (check registry, map-check config, transliteration tables) but
re-expressed as SQL over the *flat* parquet table — an independent
formulation: the Ray side decodes the span-document table
(``docs/``), the SQL side reads ``flat.parquet`` directly, so span
encode/decode is cross-checked too.

Check semantics follow the reference (file:line cites in osmlint.checks);
the SQL mirrors the engine's arithmetic order exactly (e.g. the haversine
formula, reference src/haversine.py:10-34) so float-formatted messages
(`{0:.2f}` km distances, src/checks.py:30 region) hash-match.
"""

from __future__ import annotations

from functools import reduce

from . import config as config_mod
from .checks import CHECKS, VALID_BOXES
from .translit import CYR_TO_LAT, LAT2CYR_STEPS, ROMANIZE_STEPS

_BOXES_JOINED = ",".join(VALID_BOXES)
_CYR_CLASS = "".join(CYR_TO_LAT)


def q(s: str) -> str:
    """SQL single-quote a literal."""
    return "'" + s.replace("'", "''") + "'"


def replace_chain(expr: str, steps) -> str:
    return reduce(lambda e, kv: f"replace({e},{q(kv[0])},{q(kv[1])})", steps, expr)


def cyr2lat_sql(expr: str) -> str:
    """Char-wise Cyrillic->Latin (reference src/transliteration.py:20-27).

    Inputs are disjoint single chars and outputs are Latin (never Cyrillic),
    so a replace chain in any order equals the char-wise map."""
    return replace_chain(expr, list(CYR_TO_LAT.items()))


def lat2cyr_sql(expr: str) -> str:
    """Query-side Latin->Cyrillic REPLACE chain, exact sparql order (X5)."""
    return replace_chain(expr, LAT2CYR_STEPS)


def romanize_sql(expr: str) -> str:
    return replace_chain(expr, ROMANIZE_STEPS)


def has_cyr_sql(expr: str) -> str:
    return f"regexp_matches({expr}, '[{_CYR_CLASS}]')"


def haversine_sql(lat1: str, lon1: str, lat2: str, lon2: str) -> str:
    """Mirrors osmlint.geo.haversine_km term-for-term (radians per operand,
    squares as self-multiplication — numpy's x**2 fast path)."""
    sdlat = f"sin((radians({lat2})-radians({lat1}))*0.5)"
    sdlon = f"sin((radians({lon2})-radians({lon1}))*0.5)"
    d = (f"({sdlat}*{sdlat} + cos(radians({lat1}))*cos(radians({lat2}))"
         f"*{sdlon}*{sdlon})")
    return f"(2.0*6371.0*asin(sqrt({d})))"


def components_ctes(edges: str, nodes: str | None = None) -> str:
    """CTEs for a ``WITH RECURSIVE`` head ending in ``labels(node, l)``:
    each node's connected-component label, the minimum node id of its
    component.  ``edges`` is a query whose first two columns are an
    undirected edge; ``nodes`` a one-column query of the node set
    (default: the edge endpoints — pass it when isolated nodes count).

    Each recursive step of ``cc`` is one round: propagate the minimum
    label over the closed neighbourhood (``p``, computed once, read
    twice), then pointer-jump (l := p[p[node]]).  A step emits no rows
    once the round before it changed no label, so the last round
    certifies the fixpoint.  Labels never grow, so a node's final label
    is its minimum over all rounds.  ``ebi`` stays MATERIALIZED: inlined,
    DuckDB re-runs the edge query (a pair mine) in every round."""
    nodes = nodes or "SELECT DISTINCT src FROM ebi"
    return f"""
ebi AS MATERIALIZED (
  SELECT unnest([a, b]) AS src, unnest([b, a]) AS dst
  FROM ({edges}) e(a, b)),
cc(node, l, changed) AS (
  SELECT node, node, TRUE FROM ({nodes}) n(node)
  UNION ALL
  SELECT * FROM (
    WITH prev AS (SELECT node, l FROM cc
                  WHERE (SELECT bool_or(changed) FROM cc)),
    p AS MATERIALIZED (
      SELECT x.node, min(x.l) AS l FROM (
        SELECT e.dst AS node, c.l FROM ebi e JOIN prev c ON c.node = e.src
        UNION ALL SELECT node, l FROM prev) x GROUP BY x.node)
    SELECT c.node, b.l, b.l <> c.l
    FROM prev c JOIN p a ON a.node = c.node JOIN p b ON b.node = a.l)),
labels AS MATERIALIZED (SELECT node, min(l) AS l FROM cc GROUP BY node)"""


# ---------------------------------------------------------------------------
# base CTEs over the synthetic data directory
# ---------------------------------------------------------------------------

def base_ctes(d: str) -> str:
    """CTEs: flat + wiki/wikidata joins + derived guard columns."""
    return f"""
flat AS (SELECT * FROM read_parquet({q(d + '/flat.parquet')})),
wiki AS (SELECT * FROM read_parquet({q(d + '/wiki_ref.parquet')})),
wdref AS (SELECT * FROM read_parquet({q(d + '/wikidata_ref.parquet')})),
countries AS (SELECT * FROM read_parquet({q(d + '/countries.parquet')})),
tiles AS (SELECT * FROM read_parquet({q(d + '/tiles.parquet')})),
base AS (
  SELECT f.*,
    coalesce(f.place, '(unknown place type)') AS place_disp,
    CASE WHEN f.name IS NOT NULL AND f.name <> '' THEN f.name
         ELSE CAST(f.osm_id AS VARCHAR) END AS name_or_id,
    (f.place IN ('city','town','village')) AS ctv,
    (f.is_in_country IS NULL OR f.is_in_country = 'Serbia') AS country_ok,
    (f.name IS NOT NULL AND f.name <> '') AS have_name,
    (f.name_sr IS NOT NULL AND f.name_sr <> '') AS have_sr,
    (f.name_sr_latn IS NOT NULL AND f.name_sr_latn <> '') AS have_latn,
    CASE WHEN f.wikipedia LIKE 'sr:%' THEN f.wikipedia[4:] END AS sr_title,
    w."exists" AS wiki_exists, w.has_box AS wiki_has_box,
    w.wiki_lat AS wiki_lat, w.wiki_lon AS wiki_lon,
    wd.label_sr AS wd_label,
    w.qid AS wiki_qid,
    (CASE WHEN f.name IS NOT NULL AND f.name <> '' THEN f.name
          ELSE CAST(f.osm_id AS VARCHAR) END
     || CASE WHEN f.name_sr IS NOT NULL THEN ' / ' || f.name_sr ELSE '' END)
      AS display_name
  FROM flat f
  LEFT JOIN wiki w
    ON w.title = CASE WHEN f.wikipedia LIKE 'sr:%' THEN f.wikipedia[4:] END
  LEFT JOIN wdref wd ON wd.qid = f.wikidata
)"""


# ---------------------------------------------------------------------------
# per-check (applicability, message) SQL expressions
# ---------------------------------------------------------------------------

def _msg(err: str, *pieces: str) -> str:
    cat = " || ".join(f"coalesce({p}, '')" if not p.startswith("'") else p
                      for p in pieces)
    return f"CASE WHEN {err} THEN {cat} ELSE '' END"


def check_exprs(fqn: str, serbia_mode: bool) -> tuple[str, str]:
    """(applicable_expr, message_expr) over alias-free ``base`` columns."""
    if fqn == "checks.NameMissingCheck":
        return "ctv", _msg("NOT have_name", "'Name missing for '", "place_disp",
                           "' with id '", "CAST(osm_id AS VARCHAR)", "': '",
                           "doc_id")
    if fqn == "checks.NameCyrillicCheck":
        if serbia_mode:
            checked, nm = "(have_name AND country_ok)", "name"
        else:
            checked, nm = "have_sr", "name_sr"
        err = f"({checked} AND NOT {has_cyr_sql(nm)})"
        return "ctv", _msg(err, "'Seems that '", "place_disp",
                           "' name is not in cyrillic for \"'", nm, "'\"'")
    if fqn == "checks.LatinNameExistsCheck":
        err = "(NOT have_latn)" if serbia_mode else "(NOT have_latn AND have_sr)"
        return "ctv", _msg(err, "'Latin name missing for '", "place_disp", "' '",
                           "name_or_id")
    if fqn == "checks.LatinNameSameAsCyrillicCheck":
        cyr = "name" if serbia_mode else "name_sr"
        err = (f"({cyr} IS NOT NULL AND name_sr_latn IS NOT NULL AND country_ok"
               f" AND {cyr2lat_sql(cyr)} <> name_sr_latn)")
        return "ctv", _msg(err, "'Latin name '", "name_sr_latn", "' for '",
                           "place_disp", "' '", cyr,
                           "' is not properly transliterated'")
    if fqn == "checks.LatinNameNotInCyrillicCheck":
        err = (f"(name IS NOT NULL AND name_sr_latn IS NOT NULL AND "
               f"{has_cyr_sql('name_sr_latn')})")
        return "ctv", _msg(err, "'There is cyrillic in '", "place_disp",
                           "' name '", "name", "' for latin version '",
                           "name_sr_latn")
    if fqn == "checks.WikipediaEntryExistsCheck":
        err = "(country_ok AND wikipedia IS NULL)"
        return "ctv", _msg(err, "'Wikipedia missing for '", "place", "' '",
                           "name_or_id")
    if fqn == "checks.WikipediaEntryIsInSerbianCheck":
        err = ("(wikipedia IS NOT NULL AND country_ok AND "
               "wikipedia NOT LIKE 'sr:%')")
        return "ctv", _msg(err, "'Wikipedia entry is '", "wikipedia",
                           "' and is not in Serbian for '", "place", "' '",
                           "name_or_id")
    if fqn == "checks.WikipediaEntryValidCheck":
        checked = ("(name IS NOT NULL AND wikipedia IS NOT NULL AND "
                   "sr_title IS NOT NULL AND country_ok)")
        hav = haversine_sql("wiki_lat", "wiki_lon", "lat", "lon")
        msg = f"""CASE
  WHEN NOT {checked} THEN ''
  WHEN wiki_exists IS DISTINCT FROM TRUE THEN
    'Wikipedia entry ' || sr_title || ' is not valid for ' || place || ' ' || name_or_id
  WHEN wiki_has_box IS DISTINCT FROM TRUE THEN
    'Cannot calculate distance as Wikipedia article ' || sr_title ||
    ' does not contain any of valid boxes ' || {q(_BOXES_JOINED)}
  WHEN wiki_lat IS NULL THEN
    'Wikipedia entry ' || sr_title || ' is missing latitude or longitude'
  WHEN {hav} > 20.0 THEN
    'Wikipedia and OSM entries are more than 20km apart (' ||
    printf('%.2f', {hav}) || ' km) for place ' || name_or_id || '.'
  ELSE '' END"""
        return "ctv", msg
    if fqn == "checks.WikidataEntryExistsCheck":
        err = "(country_ok AND wikidata IS NULL)"
        return "ctv", _msg(err, "'Wikidata missing for '", "place", "' '",
                           "name_or_id")
    if fqn == "checks.WikidataEntryValidCheck":
        err = "(wikidata IS NOT NULL AND country_ok AND wd_label IS NULL)"
        return "ctv", _msg(err, "'Wikidata entry '", "wikidata", "' for '",
                           "place", "' '", "name_or_id", "' wrong'")
    if fqn == "checks.WikipediaAndWikidataInSyncCheck":
        err = ("(wikipedia IS NOT NULL AND wikidata IS NOT NULL AND country_ok"
               " AND wd_label IS NOT NULL"
               " AND wd_label <> coalesce(wikipedia[4:], ''))")
        return "ctv", _msg(err, "'Wikidata entry '", "wikidata", "' for '",
                           "place", "' '", "name_or_id",
                           "' doesn''t match wikipedia entry ('", "wikipedia",
                           "')for it'")
    if fqn == "checks.IsInCountryCheck":
        err = "(is_in_country IS NULL)"
        return "ctv", _msg(err, "'is_in:country missing for '", "place", "' '",
                           "name_or_id")
    if fqn == "checks.GenericSophoxCheck":
        app = "(origin = 'sophox')"
        msg = ("replace(coalesce(check_description, 'no description'), '{0}', "
               "name_or_id)")
        return app, f"CASE WHEN {app} THEN {msg} ELSE '' END"
    if fqn == "checks_extended.RemoveLatinName":
        return "ctv", _msg("have_latn", "'Latin name missing for '",
                           "place_disp", "' '", "name_or_id")
    raise KeyError(fqn)


def flags_cte(d: str) -> str:
    """allflags + dedup CTEs (last-wins per (map_name, osm_id) by seq —
    reference src/sources/osm_source.py:43)."""
    selects = []
    for mc in config_mod.default_map_checks():
        for fqn in mc.checks:
            app, msg = check_exprs(fqn, mc.serbia_mode)
            fixable = "TRUE" if CHECKS[fqn].fixable else "FALSE"
            selects.append(f"""
SELECT doc_id, {q(mc.map_name)} AS map_name, osm_id, seq, display_name,
       entity_type, {q(fqn)} AS check_name,
       CASE WHEN msg <> '' THEN 'CHECKED_ERROR' ELSE 'CHECKED_OK' END AS result,
       msg AS message, (msg <> '' AND {fixable}) AS fixable
FROM (SELECT *, {msg} AS msg FROM base
      WHERE map_slug = {q(mc.slug)} AND {app})""")
    union = "\nUNION ALL\n".join(selects)
    return f"""{base_ctes(d)},
allflags AS ({union}),
dedup AS (
  SELECT doc_id, map_name, osm_id, seq, display_name, entity_type,
         check_name, result, message, fixable
  FROM (SELECT a.*, max(seq) OVER (PARTITION BY map_name, osm_id) AS mxseq
        FROM allflags a)
  WHERE seq = mxseq
)"""


# ---------------------------------------------------------------------------
# full oracle statements
# ---------------------------------------------------------------------------

def lint_flags_sql(d: str) -> str:
    return f"WITH {flags_cte(d)} SELECT * FROM dedup"


def lint_summary_per_map_sql(d: str) -> str:
    # A1, reference src/main.py:52-76
    return f"""WITH {flags_cte(d)}
SELECT map_name,
       CAST(count(DISTINCT osm_id) AS BIGINT) AS count_map_checks,
       CAST(sum(CASE WHEN result = 'CHECKED_ERROR' THEN 1 ELSE 0 END) AS BIGINT)
         AS count_map_errors,
       CAST(sum(CASE WHEN result = 'CHECKED_ERROR' AND fixable THEN 1 ELSE 0 END)
         AS BIGINT) AS count_map_fixable_errors
FROM dedup GROUP BY map_name ORDER BY map_name"""


def lint_per_check_type_sql(d: str) -> str:
    # A2, reference src/main.py:79-92
    expl = " ".join(
        f"WHEN {q(fqn)} THEN {q(c.explanation)}" for fqn, c in CHECKS.items())
    return f"""WITH {flags_cte(d)}
SELECT check_name, CASE check_name {expl} END AS explanation,
       CAST(count(*) AS BIGINT) AS count_total_checks,
       CAST(sum(CASE WHEN result <> 'CHECKED_OK' THEN 1 ELSE 0 END) AS BIGINT)
         AS count_total_errors
FROM dedup GROUP BY check_name ORDER BY check_name"""


def lint_merge_overall_sql(d: str) -> str:
    # A3, reference src/main.py:95-112 (first-wins in deterministic config order)
    order_case = " ".join(
        f"WHEN {q(m)} THEN {i}" for m, i in
        ((mc.map_name, i) for i, mc in enumerate(config_mod.default_map_checks())))
    return f"""WITH {flags_cte(d)},
mo AS (
  SELECT d.*, str_split(map_name, ' (')[1] AS map_overall,
         CASE map_name {order_case} END AS map_order
  FROM dedup d
),
firsts AS (
  SELECT map_overall, osm_id,
         arg_min(display_name, map_order) AS first_display,
         arg_min(entity_type, map_order) AS first_etype
  FROM mo GROUP BY map_overall, osm_id
)
SELECT m.doc_id, m.map_name, m.osm_id, m.seq,
       f.first_display AS display_name, f.first_etype AS entity_type,
       m.check_name, m.result, m.message, m.fixable, m.map_overall
FROM (SELECT *, row_number() OVER (
        PARTITION BY map_overall, osm_id, check_name ORDER BY map_order) AS rn
      FROM mo) m
JOIN firsts f USING (map_overall, osm_id)
WHERE m.rn = 1"""


def pip_assign_cte(d: str) -> str:
    """country (priority first-wins) + tile assignment per flat row.

    The synthetic admin polygons are axis-aligned rectangles by construction
    (synth.py) so the oracle is a bbox join; the engine runs the general
    STRtree + ray-cast path over the same polygons."""
    return f"""{base_ctes(d)},
{_pip_body()}"""


def _pip_body() -> str:
    """cassign + pip CTEs WITHOUT the base prefix, for composition with
    other base-carrying CTE chains (``lint_flags_by_tile_sql``)."""
    return """cassign AS (
  SELECT b.map_slug, b.seq, b.doc_id, c.country,
         row_number() OVER (PARTITION BY b.map_slug, b.seq
                            ORDER BY c.priority) AS rn
  FROM base b JOIN countries c
    ON b.lat >= c.minlat AND b.lat < c.maxlat
   AND b.lon >= c.minlon AND b.lon < c.maxlon
),
pip AS (
  SELECT b.*, ca.country AS pip_country, t.tile_id AS pip_tile_id,
         t.tile_name AS pip_tile_name
  FROM base b
  LEFT JOIN (SELECT * FROM cassign WHERE rn = 1) ca
    ON ca.map_slug = b.map_slug AND ca.seq = b.seq
  LEFT JOIN tiles t
    ON b.lat >= t.minlat AND b.lat < t.maxlat
   AND b.lon >= t.minlon AND b.lon < t.maxlon
)"""


def pip_tile_join_sql(d: str) -> str:
    return f"""WITH {pip_assign_cte(d)}
SELECT coalesce(pip_country, '(none)') AS country,
       coalesce(pip_tile_name, '(none)') AS tile_name,
       CAST(count(*) AS BIGINT) AS n_docs
FROM pip GROUP BY 1, 2 ORDER BY 1, 2"""


def lint_flags_by_tile_sql(d: str) -> str:
    """Lint results rolled up per (okrug tile, check): the deduped flag
    rows joined back to their own row's tile assignment on (doc_id,
    seq) — the A+B composition (validate-and-flag x spatial tiling) in
    one statement."""
    return f"""WITH {flags_cte(d)},
{_pip_body()}
SELECT coalesce(p.pip_tile_name, '(none)') AS tile_name, f.check_name,
       CAST(count(*) AS BIGINT) AS n_results,
       CAST(sum(CASE WHEN f.result = 'CHECKED_ERROR' THEN 1 ELSE 0 END)
            AS BIGINT) AS n_errors,
       CAST(sum(CASE WHEN f.result = 'CHECKED_ERROR' AND f.fixable
                     THEN 1 ELSE 0 END) AS BIGINT) AS n_fixable
FROM dedup f JOIN pip p ON p.doc_id = f.doc_id AND p.seq = f.seq
GROUP BY 1, 2 ORDER BY 1, 2"""


def cell_sql(res: int, lat: str = "lat", lon: str = "lon") -> str:
    n = 1 << res
    ix = f"least(greatest(CAST(floor(({lon} + 180.0) / 360.0 * {n}) AS BIGINT), 0), {n - 1})"
    iy = f"least(greatest(CAST(floor((90.0 - {lat}) / 180.0 * {n}) AS BIGINT), 0), {n - 1})"
    return f"({iy} * {n} + {ix})"


def pip_gaps_sql(d: str, res: int) -> str:
    """Per-cell count of docs outside every okrug tile: the
    ``pip_assign_cte`` anti side grouped on the quad-cell key."""
    return f"""WITH {pip_assign_cte(d)}
SELECT {cell_sql(res)} AS cell_id, CAST(count(*) AS BIGINT) AS n_gap
FROM pip WHERE pip_tile_name IS NULL GROUP BY 1 ORDER BY 1"""


def hilbert_index_sql(d: str, res: int) -> str:
    """Hilbert distance per occupied cell: the xy2d bit walk unrolled
    to ``res`` integer CTE steps over the grid-bounded count table —
    all-integer, so equality needs no rounding discipline."""
    n = 1 << res
    parts = [f"""{base_ctes(d)},
counts AS (
  SELECT {cell_sql(res)} AS cell_id, CAST(count(*) AS BIGINT) AS n
  FROM base GROUP BY 1),
h{res} AS (
  SELECT cell_id, n, cell_id % {n} AS x, cell_id // {n} AS y,
         CAST(0 AS BIGINT) AS d
  FROM counts)"""]
    for t in range(res - 1, -1, -1):
        s = 1 << t
        parts.append(f"""
h{t} AS (
  SELECT cell_id, n,
         CASE WHEN ry = 0 AND rx = 1 THEN {s - 1} - y
              WHEN ry = 0 THEN y ELSE x END AS x,
         CASE WHEN ry = 0 AND rx = 1 THEN {s - 1} - x
              WHEN ry = 0 THEN x ELSE y END AS y,
         d + {s * s} * xor(3 * rx, ry) AS d
  FROM (SELECT *,
          CASE WHEN (x & {s}) > 0 THEN 1 ELSE 0 END AS rx,
          CASE WHEN (y & {s}) > 0 THEN 1 ELSE 0 END AS ry
        FROM h{t + 1}))""")
    return ("WITH " + ",".join(parts) + f"""
SELECT cell_id, d AS hilbert_d, n AS n_docs
FROM h0 ORDER BY hilbert_d""")


def cell_index_sql(d: str, res: int) -> str:
    return f"""WITH {base_ctes(d)}
SELECT {cell_sql(res)} AS cell_id, CAST(count(*) AS BIGINT) AS n_docs
FROM base GROUP BY 1 ORDER BY 1"""


# ---------------------------------------------------------------------------
# driver-table oracles (pre-registered DuckDB views: documents, embeddings,
# events)
# ---------------------------------------------------------------------------

TEXT_STATS_SQL = r"""
WITH t AS (
  SELECT doc_id, coalesce(text, '') AS tx FROM documents
), c AS (
  SELECT doc_id, tx,
    CAST(len(regexp_extract_all(tx, '\S+')) AS BIGINT) AS n_tokens,
    CAST(len(regexp_extract_all(tx, ' ?[A-Za-z]+| ?[0-9]+| ?[^A-Za-z0-9\s]+|\s+')) AS BIGINT) AS bpe_tokens,
    CAST(len(regexp_extract_all(tx, '[.,;:!?]')) AS BIGINT) AS punct_cnt,
    CAST(len(regexp_extract_all(tx, '\b(the|and|with|for|an|of|in|to|is|on|a)\b')) AS BIGINT) AS stop_cnt,
    CAST(length(tx) AS BIGINT) AS n_chars
  FROM t
)
SELECT doc_id, n_tokens, bpe_tokens, punct_cnt, stop_cnt,
  CAST(punct_cnt AS DOUBLE) / greatest(n_chars, 1) AS punct_ratio,
  CAST(stop_cnt AS DOUBLE) / greatest(n_tokens, 1) AS stop_ratio,
  0.4 * least(1.0, CAST(n_tokens AS DOUBLE) / 100.0)
    + 0.3 * (1.0 - CAST(punct_cnt AS DOUBLE) / greatest(n_chars, 1))
    + 0.3 * least(1.0, 5.0 * (CAST(stop_cnt AS DOUBLE) / greatest(n_tokens, 1)))
    AS quality,
  CASE WHEN stop_cnt > 0 THEN 'en' ELSE 'unknown' END AS lang_pred,
  md5(tx) AS fingerprint
FROM c ORDER BY doc_id"""

def lang_id_sql() -> str:
    """Trigram-profile language ID: enumerate every character position,
    join the trigram starting there against the SAME profile table the
    Ray kernel uses (``textops.LANG_PROFILES``, rendered as VALUES), sum
    matches per language, keep the best (score DESC, lang ASC — the
    kernel's first-argmax over lang-sorted columns).  Position
    enumeration counts OVERLAPPING occurrences, matching the kernel's
    zero-width-lookahead counting."""
    from .textops import LANG_PROFILES
    rows = ",".join(f"({q(lang)},{q(g)})"
                    for lang in sorted(LANG_PROFILES)
                    for g in LANG_PROFILES[lang])
    return f"""
WITH t AS (
  SELECT doc_id, lower(coalesce(text, '')) AS tx FROM documents
), tg AS (
  SELECT doc_id, substr(tx, CAST(i AS BIGINT) + 1, 3) AS g
  FROM t, unnest(range(greatest(length(tx) - 2, 0))) AS u(i)
), prof(lang, g) AS (VALUES {rows}),
sc AS (
  SELECT tg.doc_id, prof.lang, CAST(count(*) AS BIGINT) AS score
  FROM tg JOIN prof ON prof.g = tg.g GROUP BY 1, 2
), best AS (
  SELECT doc_id, lang, score,
         row_number() OVER (PARTITION BY doc_id
                            ORDER BY score DESC, lang ASC) AS rn
  FROM sc
)
SELECT d.doc_id, coalesce(b.lang, 'unknown') AS lang_pred,
       CAST(coalesce(b.score, 0) AS BIGINT) AS score
FROM documents d LEFT JOIN best b ON b.doc_id = d.doc_id AND b.rn = 1
ORDER BY d.doc_id"""


DEDUP_EXACT_SQL = """
SELECT CAST(min(doc_id) AS BIGINT) AS doc_id,
       CAST(count(*) AS BIGINT) AS n_copies
FROM documents GROUP BY text ORDER BY 1"""


def ngram_jaccard_sql(tau: float, n: int = 3) -> str:
    """Exact word-n-gram Jaccard pairs >= tau.  Mirrors textops padding:
    fewer than n tokens are padded with '' so every doc has >=1 n-gram.
    (The Ray path compares 64-bit blake2b hashes of the n-grams; Jaccard
    over the hash sets equals Jaccard over the string sets up to collision
    odds ~1e-10 at gate scale.)"""
    return rf"""
WITH toks AS (
  SELECT doc_id,
         list_filter(regexp_split_to_array(coalesce(text, ''), '\s+'),
                     x -> x <> '') AS t
  FROM documents
), padded AS (
  SELECT doc_id,
         list_concat(t, list_transform(range(greatest(0, {n} - len(t))),
                                       x -> '')) AS t
  FROM toks
), ng AS (
  SELECT doc_id,
         list_distinct(list_transform(range(1, len(t) - {n} + 2),
           i -> array_to_string(t[i:i+{n - 1}], ' '))) AS gs
  FROM padded
), ex AS (
  SELECT doc_id, unnest(gs) AS g, len(gs) AS sz FROM ng
), inter AS (
  SELECT a.doc_id AS doc_a, b.doc_id AS doc_b,
         count(*) AS i, any_value(a.sz) AS sza, any_value(b.sz) AS szb
  FROM ex a JOIN ex b ON a.g = b.g AND a.doc_id < b.doc_id
  GROUP BY 1, 2
)
SELECT doc_a, doc_b,
       CAST(i AS DOUBLE) / (sza + szb - i) AS jaccard
FROM inter
WHERE CAST(i AS DOUBLE) / (sza + szb - i) >= {tau}
ORDER BY doc_a, doc_b"""


def ann_topk_sql(k: int, n_queries: int) -> str:
    return f"""
WITH q AS (SELECT vec_id AS qid, embedding AS qe FROM embeddings
           WHERE vec_id < {n_queries}),
s AS (SELECT q.qid AS query_id, e.vec_id AS neighbor_id,
             list_cosine_similarity(e.embedding, q.qe) AS sim
      FROM embeddings e CROSS JOIN q WHERE e.vec_id <> q.qid)
SELECT query_id, neighbor_id, CAST(rn AS BIGINT) AS rank
FROM (SELECT *, row_number() OVER (
        PARTITION BY query_id ORDER BY sim DESC, neighbor_id) AS rn FROM s)
WHERE rn <= {k} ORDER BY query_id, rank"""


def cosine_pairs_sql(tau: float) -> str:
    return f"""
SELECT a.vec_id AS vec_a, b.vec_id AS vec_b
FROM embeddings a JOIN embeddings b ON a.vec_id < b.vec_id
WHERE list_cosine_similarity(a.embedding, b.embedding) >= {tau!r}
ORDER BY 1, 2"""


EVENTS_WINDOW_SQL = """
SELECT date_trunc('hour', ts) AS "window", event_type,
       CAST(count(*) AS BIGINT) AS n_events,
       round(sum(value), 6) AS sum_value
FROM events GROUP BY 1, 2 ORDER BY 1, 2"""

EVENTS_SESSIONIZE_SQL = """
WITH d AS (
  SELECT user_id, ts,
    CASE WHEN lag(ts) OVER w IS NULL
              OR ts - lag(ts) OVER w > INTERVAL 30 MINUTE
         THEN 1 ELSE 0 END AS new_sess
  FROM events WINDOW w AS (PARTITION BY user_id ORDER BY ts)
), s AS (
  SELECT user_id, ts, sum(new_sess) OVER (
    PARTITION BY user_id ORDER BY ts ROWS UNBOUNDED PRECEDING) AS sid
  FROM d
)
SELECT user_id, CAST(sid AS BIGINT) AS session_id,
       CAST(count(*) AS BIGINT) AS n_events,
       min(ts) AS start_ts,
       CAST(date_diff('microsecond', min(ts), max(ts)) AS BIGINT) AS duration_us
FROM s GROUP BY user_id, sid ORDER BY user_id, sid"""


def media_features_sql(d: str) -> str:
    return f"""
SELECT doc_id, media_img AS media_ref,
       CAST(320 + (osm_id % 7) * 80 AS BIGINT) AS width,
       CAST(240 + (osm_id % 5) * 60 AS BIGINT) AS height,
       CAST((320 + (osm_id % 7) * 80) * (240 + (osm_id % 5) * 60) * 3
            AS BIGINT) AS n_bytes,
       CAST((osm_id * 2654435761) % 2147483648 AS BIGINT) AS phash
FROM read_parquet({q(d + '/flat.parquet')})
WHERE media_img IS NOT NULL ORDER BY doc_id"""


def media_resize_sql(d: str, max_w: int = 256, max_h: int = 256) -> str:
    """Aspect-preserving fit (integer arithmetic mirrors
    ``media.resize_batch``)."""
    return f"""
WITH m AS (
  SELECT doc_id,
         CAST(320 + (osm_id % 7) * 80 AS BIGINT) AS w,
         CAST(240 + (osm_id % 5) * 60 AS BIGINT) AS h
  FROM read_parquet({q(d + '/flat.parquet')})
  WHERE media_img IS NOT NULL
)
SELECT doc_id, w AS width, h AS height,
  CASE WHEN w <= {max_w} AND h <= {max_h} THEN w
       WHEN {max_w} * h <= {max_h} * w THEN least({max_w}, w)
       ELSE CAST(floor(w * {max_h} * 1.0 / h) AS BIGINT) END AS out_w,
  CASE WHEN w <= {max_w} AND h <= {max_h} THEN h
       WHEN {max_w} * h <= {max_h} * w THEN CAST(floor(h * {max_w} * 1.0 / w) AS BIGINT)
       ELSE least({max_h}, h) END AS out_h,
  (CASE WHEN w <= {max_w} AND h <= {max_h} THEN w
       WHEN {max_w} * h <= {max_h} * w THEN least({max_w}, w)
       ELSE CAST(floor(w * {max_h} * 1.0 / h) AS BIGINT) END
   * CASE WHEN w <= {max_w} AND h <= {max_h} THEN h
       WHEN {max_w} * h <= {max_h} * w THEN CAST(floor(h * {max_w} * 1.0 / w) AS BIGINT)
       ELSE least({max_h}, h) END * 3) AS out_bytes
FROM m ORDER BY doc_id"""


def media_frame_sample_sql(d: str, every_s: int = 5) -> str:
    return f"""
WITH m AS (
  SELECT doc_id, CAST(5 + (osm_id % 30) AS BIGINT) AS duration_s
  FROM read_parquet({q(d + '/flat.parquet')})
  WHERE media_img IS NOT NULL
)
SELECT doc_id, duration_s,
       CAST(u.i AS BIGINT) AS frame_idx,
       CAST(u.i * {every_s} AS BIGINT) AS ts_s
FROM m, unnest(range(0, duration_s // {every_s} + 1)) AS u(i)
ORDER BY doc_id, frame_idx"""


def knn_dup_names_sql(d: str, radius_km: float, max_name_freq: int) -> str:
    """Duplicate-name pairs: same name, both CTV, within radius, serbia map,
    excluding stop-names (global frequency > max_name_freq).

    Brute-force self-join oracle; the engine does the cell-groupby + neighbor
    replication path."""
    hav = haversine_sql("a.lat", "a.lon", "b.lat", "b.lon")
    return f"""WITH {base_ctes(d)},
named AS (
  SELECT doc_id, name, lat, lon
  FROM (SELECT b.*, row_number() OVER (PARTITION BY doc_id
                                       ORDER BY seq DESC) AS rn
        FROM base b
        WHERE map_slug = 'serbia_pbf' AND ctv AND name IS NOT NULL)
  WHERE rn = 1
),
eligible AS (
  SELECT n.* FROM named n
  JOIN (SELECT name FROM named GROUP BY name
        HAVING count(*) <= {max_name_freq}) f USING (name)
)
SELECT a.name AS name, a.doc_id AS doc_a, b.doc_id AS doc_b
FROM eligible a JOIN eligible b
  ON a.name = b.name AND a.doc_id < b.doc_id
WHERE {hav} <= {radius_km!r}
ORDER BY 1, 2, 3"""


# ---------------------------------------------------------------------------
# fix-plan oracle (plan side of the reference's --fix mode, §2.6)
# ---------------------------------------------------------------------------

def fix_plan_sql(d: str) -> str:
    """Union of fixable-check plan rows per map-check; guards cited in
    osmlint.fixes.  Runs on the deduped row set (last-wins among
    result-producing docs)."""
    hav_w = haversine_sql("wiki_lat", "wiki_lon", "lat", "lon")
    hav_g = haversine_sql("w.wiki_lat", "w.wiki_lon", "f.lat", "f.lon")
    hav_t = haversine_sql("t.wiki_lat", "t.wiki_lon", "f.lat", "f.lon")
    hav_t3 = haversine_sql("t.wiki_lat", "t.wiki_lon", "c.lat", "c.lon")
    ctes = f"""{base_ctes(d)},
links AS (SELECT * FROM read_parquet({q(d + '/wiki_links.parquet')})),
resdocs AS (
  SELECT map_slug, osm_id, max(seq) AS mx, count(*) AS c
  FROM base WHERE origin = 'sophox' OR ctv GROUP BY 1, 2
),
base2 AS (
  SELECT b.* FROM base b
  LEFT JOIN resdocs r ON r.map_slug = b.map_slug AND r.osm_id = b.osm_id
  WHERE r.c IS NULL OR r.c = 1 OR b.seq = r.mx
),
cassign AS (
  SELECT b.map_slug, b.seq, c.country,
         row_number() OVER (PARTITION BY b.map_slug, b.seq
                            ORDER BY c.priority) AS rn
  FROM base2 b JOIN countries c
    ON b.lat >= c.minlat AND b.lat < c.maxlat
   AND b.lon >= c.minlon AND b.lon < c.maxlon
),
gdir AS (
  SELECT f.map_slug, f.seq,
         (w."exists" IS TRUE) AS d_exists, (w.has_box IS TRUE) AS d_box,
         (w."exists" IS TRUE AND w.has_box IS TRUE
          AND w.wiki_lat IS NOT NULL AND {hav_g} <= 20.0) AS d_ok
  FROM base2 f LEFT JOIN wiki w ON w.title = f.name
),
gcand2 AS (
  -- depth 2: ordered targets of the name's link hub
  SELECT f.map_slug, f.seq, f.lat, f.lon, l.ord AS ord1, -1 AS ord2,
         l.target AS cand,
         (t."exists" IS TRUE AND t.has_box IS TRUE
          AND t.wiki_lat IS NOT NULL AND {hav_t} <= 20.0) AS ok,
         (t."exists" IS TRUE AND t.has_box IS NOT TRUE) AS rec
  FROM base2 f
  JOIN links l ON l.title = f.name || ' (вишезначна одредница)'
  LEFT JOIN wiki t ON t.title = l.target
),
gcand3 AS (
  -- depth 3: a boxless existing depth-2 target may itself be a hub
  SELECT c.map_slug, c.seq, c.lat, c.lon, c.ord1, l2.ord AS ord2,
         l2.target AS cand,
         (t."exists" IS TRUE AND t.has_box IS TRUE
          AND t.wiki_lat IS NOT NULL AND {hav_t3} <= 20.0) AS ok,
         FALSE AS rec
  FROM gcand2 c
  JOIN links l2 ON c.rec AND l2.title = c.cand
  LEFT JOIN wiki t ON t.title = l2.target
),
gdis AS (
  -- first DFS-order accepted candidate: lexicographic (ord1, ord2)
  SELECT map_slug, seq, cand AS target FROM (
    SELECT map_slug, seq, cand,
           row_number() OVER (PARTITION BY map_slug, seq
                              ORDER BY ord1, ord2) AS rn
    FROM (SELECT * FROM gcand2 UNION ALL SELECT * FROM gcand3)
    WHERE ok
  ) WHERE rn = 1
),
guessx AS (
  SELECT b.map_slug, b.seq,
         CASE WHEN g.d_ok THEN b.name
              WHEN g.d_exists AND NOT g.d_box THEN gd.target END AS guessed
  FROM base2 b
  LEFT JOIN gdir g ON g.map_slug = b.map_slug AND g.seq = b.seq
  LEFT JOIN gdis gd ON gd.map_slug = b.map_slug AND gd.seq = b.seq
)"""

    import textwrap
    from . import config as _cfg

    def wn(expr="entity_type"):
        return expr

    selects = []
    for mc in _cfg.default_map_checks():
        sm = mc.serbia_mode
        pname = "name" if sm else "name_sr"
        c2_ok = (f"NOT (have_name AND country_ok AND NOT {has_cyr_sql('name')})"
                 if sm else
                 f"NOT (have_sr AND NOT {has_cyr_sql('name_sr')})")
        latin = cyr2lat_sql(pname)
        is_wn = "entity_type IN ('way','node')"
        mslug = q(mc.slug)
        mname = q(mc.map_name)
        for fqn in mc.checks:
            if not CHECKS[fqn].fixable:
                continue
            if fqn == "checks.LatinNameExistsCheck":
                err = ("(ctv AND NOT have_latn)" if sm else
                       "(ctv AND NOT have_latn AND have_sr)")
                guard = ("have_name" if sm else "have_sr") + f" AND {c2_ok}"
                selects.append(f"""
SELECT doc_id, {mname} AS map_name, {q(fqn)} AS check_name,
 'name:sr-Latn' AS tag, 'add' AS action, {latin} AS new_value,
 'name:sr-Latn for ' || entity_type || ' ' || coalesce({pname}, '')
   || ' didn''t exists, added it as "' || {latin} || '"' AS message
FROM base2 WHERE map_slug = {mslug} AND {err} AND {guard} AND {is_wn}""")
            elif fqn == "checks.LatinNameSameAsCyrillicCheck":
                err = (f"(ctv AND {pname} IS NOT NULL AND name_sr_latn IS NOT "
                       f"NULL AND country_ok AND {latin} <> name_sr_latn)")
                selects.append(f"""
SELECT doc_id, {mname}, {q(fqn)}, 'name:sr-Latn', 'set', {latin},
 'name:sr-Latn for ' || entity_type || ' ' || coalesce({pname}, '')
   || ' was different than in cyrillic, fixed it to be "' || {latin} || '"'
FROM base2 WHERE map_slug = {mslug} AND {err} AND {is_wn}""")
            elif fqn in ("checks.WikipediaEntryExistsCheck",
                         "checks.WikipediaEntryIsInSerbianCheck"):
                err = ("(ctv AND country_ok AND wikipedia IS NULL)"
                       if fqn == "checks.WikipediaEntryExistsCheck" else
                       "(ctv AND wikipedia IS NOT NULL AND country_ok AND "
                       "wikipedia NOT LIKE 'sr:%')")
                action = ("'add'" if fqn == "checks.WikipediaEntryExistsCheck"
                          else "'set'")
                selects.append(f"""
SELECT b.doc_id, {mname}, {q(fqn)}, 'wikipedia', {action},
 'sr:' || gx.guessed,
 'Wikipedia tag for ' || b.entity_type || ' "' || coalesce(b.{pname}, '')
   || '" is updated to be "sr:' || gx.guessed || '"'
FROM base2 b JOIN guessx gx ON gx.map_slug = b.map_slug AND gx.seq = b.seq
WHERE b.map_slug = {mslug} AND {err} AND have_name AND {c2_ok}
  AND b.entity_type IN ('way','node') AND gx.guessed IS NOT NULL""")
            elif fqn == "checks.WikidataEntryExistsCheck":
                err = "(ctv AND country_ok AND wikidata IS NULL)"
                c8 = (f"(ctv AND name IS NOT NULL AND wikipedia IS NOT NULL "
                      f"AND sr_title IS NOT NULL AND country_ok AND "
                      f"wiki_exists IS TRUE AND wiki_has_box IS TRUE AND "
                      f"wiki_lat IS NOT NULL AND {hav_w} <= 20.0 AND "
                      f"wiki_qid IS NOT NULL AND wiki_qid <> '')")
                selects.append(f"""
SELECT doc_id, {mname}, {q(fqn)}, 'wikidata', 'add', wiki_qid,
 'Wikidata tag for ' || entity_type || ' "' || coalesce({pname}, '')
   || '" is set to be "' || wiki_qid || '"'
FROM base2 WHERE map_slug = {mslug} AND {err} AND {c8} AND {is_wn}""")
            elif fqn == "checks.IsInCountryCheck":
                err = "(ctv AND is_in_country IS NULL)"
                selects.append(f"""
SELECT b.doc_id, {mname}, {q(fqn)}, 'is_in:country', 'add',
 coalesce(ca.country, 'Serbia'),
 'is_in:country for ' || b.entity_type || ' ' || b.name_or_id
   || ' was missing, added it to be "' || coalesce(ca.country, 'Serbia')
   || '"'
FROM base2 b LEFT JOIN (SELECT * FROM cassign WHERE rn = 1) ca
  ON ca.map_slug = b.map_slug AND ca.seq = b.seq
WHERE b.map_slug = {mslug} AND {err} AND b.entity_type IN ('way','node')""")
            elif fqn == "checks.GenericSophoxCheck":
                cur = ("CASE tag_1 WHEN 'name' THEN name WHEN 'name:sr' THEN "
                       "name_sr WHEN 'name:sr-Latn' THEN name_sr_latn "
                       "WHEN 'int_name' THEN int_name END")
                selects.append(f"""
SELECT doc_id, {mname}, {q(fqn)}, tag_1,
 CASE WHEN coalesce(val_1,'') = 'false' THEN 'delete'
      WHEN {cur} IS NULL THEN 'add' ELSE 'set' END,
 coalesce(val_1, ''), 'Fixes made'
FROM base2 WHERE map_slug = {mslug} AND origin = 'sophox'
  AND coalesce(tag_1, '') <> ''
  AND ((coalesce(val_1,'') = 'false' AND {cur} IS NOT NULL)
       OR (coalesce(val_1,'') <> 'false' AND
           ({cur} IS NULL OR coalesce({cur}, '') <> coalesce(val_1, ''))))""")
            elif fqn == "checks_extended.RemoveLatinName":
                err = "(ctv AND have_latn)"
                selects.append(f"""
SELECT doc_id, {mname}, {q(fqn)}, 'name:sr-Latn', 'delete', '',
 'name:sr-Latn for way ' || name_or_id || ' existed, removed it'
FROM base2 WHERE map_slug = {mslug} AND {err} AND {is_wn}""")
    union = "\nUNION ALL\n".join(s.strip() for s in selects)
    return (f"WITH {ctes},\n"
            f"unioned(doc_id, map_name, check_name, tag, action, new_value, "
            f"message) AS (\n{union}\n)\n"
            f"SELECT * FROM unioned")


# ---------------------------------------------------------------------------
# data-driven rule oracles (the reference's sparql/*.sparql re-expressions,
# X5-X9: transliteration chains, latin heuristics, point-radius geofences)
# ---------------------------------------------------------------------------

_SERBIAN_LATIN_SQL = ("regexp_matches({e}, '(?i)(a|b|c|č|ć|d|đ|e|f|g|h|j|k|l"
                      "|m|n|o|p|r|s|š|t|u|z|ž)')")
_ENGLISH_SQL = "regexp_matches({e}, '(?i)(x|y|w|q)')"
_NAME_CYR_SQL = ("regexp_matches({e}, '(?i)(а|б|в|г|д|ђ|е|ж|з|и|ј|к|л|љ|м|н"
                 "|њ|о|п|р|с|т|ћ|у|ф|х|ц|ч|џ|ш)')")


def _within_sql(center, radius) -> str:
    (clat, clon) = center
    return f"{haversine_sql('lat', 'lon', repr(clat), repr(clon))} <= {radius!r}"


def _ne(col: str) -> str:
    return f"({col} IS NOT NULL AND {col} <> '')"


def rule_sql(d: str, slug: str) -> str:
    """Binding rows (osm_id, entity_type, lat, lon, name, tag_1, val_1) of
    one data-driven rule over the serbia_pbf rows."""
    from .rules import CENTERS
    if slug == "sophox_adding_name":
        mask = (f"{_ne('name_sr')} AND NOT {_ne('name')} AND "
                f"({_ne('place')} OR {_ne('highway')}) AND "
                f"{_within_sql(*CENTERS['serbia'])}")
        name, tag1, val = "name_sr", "'name'", "name_sr"
    elif slug.startswith("sophox_adding_namesr_"):
        region = slug.removeprefix("sophox_adding_namesr_")
        mask = (f"{_ne('name')} AND {_ne('highway')} AND "
                + _SERBIAN_LATIN_SQL.format(e="name") + " AND NOT "
                + _ENGLISH_SQL.format(e="name") + " AND "
                + _within_sql(*CENTERS["adding_" + region]))
        name, tag1, val = "name", "'name:sr'", lat2cyr_sql("name")
    elif slug.startswith("sophox_checking_namesr_latn_"):
        region = slug.removeprefix("sophox_checking_namesr_latn_")
        correct = cyr2lat_sql("name_sr")
        mask = (f"{_ne('name')} AND {_ne('name_sr')} AND "
                f"{_within_sql(*CENTERS['checking_' + region])} AND "
                f"(({_ne('name_sr_latn')} AND coalesce({correct}, '') <> "
                f"coalesce(name_sr_latn, '')) OR (NOT {_ne('name_sr_latn')}"
                f" AND " + _NAME_CYR_SQL.format(e="name") + "))")
        name, tag1, val = "name", "'name:sr-Latn'", correct
    elif slug == "sophox_changing_namesr_to_cyrillic":
        # sparql/changing_namesr_to_cyrillic.sparql: name:sr exists, (place
        # OR highway), latin heuristic on name:sr (the english filter is
        # commented out in the reference query), whole-Serbia circle
        mask = (f"{_ne('name_sr')} AND ({_ne('place')} OR {_ne('highway')})"
                f" AND " + _SERBIAN_LATIN_SQL.format(e="name_sr") + " AND "
                + _within_sql(*CENTERS["serbia"]))
        name, tag1, val = "name_sr", "'name:sr'", lat2cyr_sql("name_sr")
    elif slug == "sophox_adding_int_name":
        mask = (f"{_ne('name_sr_latn')} AND "
                f"regexp_matches(name_sr_latn, '(?i)đ') AND "
                f"NOT {_ne('int_name')} AND {_within_sql(*CENTERS['serbia'])}")
        name, tag1, val = "name_sr_latn", "'int_name'", romanize_sql("name_sr_latn")
    else:
        raise KeyError(slug)
    return f"""WITH flat AS (SELECT * FROM read_parquet({q(d + '/flat.parquet')}))
SELECT osm_id, entity_type, lat, lon, {name} AS name,
       {tag1} AS tag_1, {val} AS val_1
FROM flat WHERE map_slug = 'serbia_pbf' AND {mask}
ORDER BY osm_id"""


# ---------------------------------------------------------------------------
# raster <-> vector oracles (density band over the quad-cell grid)
# ---------------------------------------------------------------------------

def raster_sample_sql(d: str, res: int) -> str:
    cell = cell_sql(res)
    return f"""WITH {base_ctes(d)},
cellc AS (SELECT {cell} AS cell_id, CAST(count(*) AS BIGINT) AS density
          FROM base GROUP BY 1)
SELECT b.doc_id, {cell} AS cell_id, c.density
FROM base b JOIN cellc c ON c.cell_id = {cell}
ORDER BY b.doc_id"""


def raster_zonal_stats_sql(d: str, res: int) -> str:
    cell = cell_sql(res)
    return f"""WITH {pip_assign_cte(d)},
cellc AS (SELECT {cell} AS cell_id, CAST(count(*) AS BIGINT) AS density
          FROM base GROUP BY 1)
SELECT coalesce(p.pip_tile_name, '(none)') AS tile_name,
       CAST(count(*) AS BIGINT) AS n_docs,
       CAST(sum(c.density) AS DOUBLE) / count(*) AS mean_density
FROM pip p JOIN cellc c ON c.cell_id = {cell_sql(res, 'p.lat', 'p.lon')}
GROUP BY 1 ORDER BY 1"""


EVENTS_ASOF_SQL = """
SELECT p.event_id, p.user_id, p.ts,
       s.event_id AS src_event_id, s.event_type AS src_type
FROM (SELECT * FROM events WHERE event_type = 'purchase') p
ASOF LEFT JOIN (SELECT * FROM events
                WHERE event_type IN ('view', 'click')) s
  ON p.user_id = s.user_id AND s.ts < p.ts
ORDER BY p.event_id"""


CORPUS_FILTER_SQL = r"""
WITH t AS (
  SELECT doc_id, coalesce(text, '') AS tx FROM documents
), c AS (
  SELECT doc_id,
    CAST(len(regexp_extract_all(tx, '\S+')) AS BIGINT) AS n_tokens,
    CAST(len(regexp_extract_all(tx, '[.,;:!?]')) AS BIGINT) AS punct_cnt,
    CAST(len(regexp_extract_all(tx, '\b(the|and|with|for|an|of|in|to|is|on|a)\b')) AS BIGINT) AS stop_cnt,
    CAST(length(tx) AS BIGINT) AS n_chars
  FROM t
)
SELECT doc_id, n_tokens,
  0.4 * least(1.0, CAST(n_tokens AS DOUBLE) / 100.0)
    + 0.3 * (1.0 - CAST(punct_cnt AS DOUBLE) / greatest(n_chars, 1))
    + 0.3 * least(1.0, 5.0 * (CAST(stop_cnt AS DOUBLE) / greatest(n_tokens, 1)))
    AS quality
FROM c
WHERE stop_cnt > 0
  AND 0.4 * least(1.0, CAST(n_tokens AS DOUBLE) / 100.0)
    + 0.3 * (1.0 - CAST(punct_cnt AS DOUBLE) / greatest(n_chars, 1))
    + 0.3 * least(1.0, 5.0 * (CAST(stop_cnt AS DOUBLE) / greatest(n_tokens, 1)))
    >= 0.5
ORDER BY doc_id"""


CORPUS_STATS_SQL = r"""
WITH t AS (
  SELECT doc_id, source, coalesce(text, '') AS tx FROM documents
), c AS (
  SELECT doc_id, source,
    CAST(len(regexp_extract_all(tx, '\S+')) AS BIGINT) AS n_tokens,
    CAST(len(regexp_extract_all(tx, ' ?[A-Za-z]+| ?[0-9]+| ?[^A-Za-z0-9\s]+|\s+')) AS BIGINT) AS bpe_tokens,
    CAST(len(regexp_extract_all(tx, '[.,;:!?]')) AS BIGINT) AS punct_cnt,
    CAST(len(regexp_extract_all(tx, '\b(the|and|with|for|an|of|in|to|is|on|a)\b')) AS BIGINT) AS stop_cnt,
    CAST(length(tx) AS BIGINT) AS n_chars
  FROM t
)
SELECT CASE WHEN stop_cnt > 0 THEN 'en' ELSE 'unknown' END AS lang_pred,
       source,
       CAST(count(*) AS BIGINT) AS n_docs,
       CAST(sum(n_tokens) AS BIGINT) AS sum_tokens,
       CAST(sum(bpe_tokens) AS BIGINT) AS sum_bpe_tokens,
       round(avg(0.4 * least(1.0, CAST(n_tokens AS DOUBLE) / 100.0)
         + 0.3 * (1.0 - CAST(punct_cnt AS DOUBLE) / greatest(n_chars, 1))
         + 0.3 * least(1.0, 5.0 * (CAST(stop_cnt AS DOUBLE)
                                   / greatest(n_tokens, 1)))), 6)
         AS mean_quality
FROM c GROUP BY 1, 2 ORDER BY 1, 2"""


EMBEDDING_QUANTIZE_SQL = """
WITH e AS (
  SELECT vec_id, embedding,
         greatest(CAST(list_max(list_transform(embedding, x -> abs(x)))
                       AS DOUBLE) / 127.0, 1e-30) AS scale
  FROM embeddings
)
SELECT vec_id,
       CAST(u.i - 1 AS BIGINT) AS dim_idx,
       CAST(floor(CAST(e.embedding[u.i] AS DOUBLE) / scale + 0.5) AS BIGINT)
         AS q,
       CAST(scale AS DOUBLE) AS scale
FROM e, unnest(range(1, len(e.embedding) + 1)) AS u(i)
ORDER BY vec_id, dim_idx"""


# ---------------------------------------------------------------------------
# simhash soundness oracles (VERDICT r2 next-round #2)
# ---------------------------------------------------------------------------

def simhash_reference_table(d: str, sf_dir: str) -> str:
    """Write an INDEPENDENT simhash reference for the driver ``documents``
    table into the synth dir and return its path.

    Deliberately naive per-doc implementation (no shared code with
    ``textops._shingle_core``'s batched segment reduces): tokenize, pad to
    3 tokens with '', unique word-3-grams, blake2b-64 little-endian hash,
    per-bit majority vote.  The SQL oracles for ``simhash_docs`` and
    ``dedup_simhash`` read this table, so the distributed kernel and the
    pigeonhole pair miner are both checked against an independent
    definition — not against themselves."""
    import hashlib
    import os

    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq

    from . import caches
    src = os.path.join(sf_dir, "documents.parquet")
    # content fingerprint in the filename: an in-place regeneration of the
    # source table can never serve a stale reference
    fp = hashlib.md5(repr(caches.path_fingerprint(src)).encode()) \
        .hexdigest()[:12]
    out = os.path.join(d, f"simhash_ref_{fp}.parquet")
    if os.path.exists(out):
        return out
    tbl = pq.read_table(src, columns=["doc_id", "text"])
    ids, sims = tbl["doc_id"].to_pylist(), []
    shifts = np.arange(64, dtype=np.uint64)
    for t in tbl["text"].to_pylist():
        toks = (t or "").split()
        if len(toks) < 3:
            toks = toks + [""] * (3 - len(toks))
        grams = {" ".join(toks[j:j + 3])
                 for j in range(max(1, len(toks) - 2))}
        h = np.array([int.from_bytes(
            hashlib.blake2b(g.encode("utf-8"), digest_size=8).digest(),
            "little") for g in sorted(grams)], dtype=np.uint64)
        bits = ((h[:, None] >> shifts[None, :]) & np.uint64(1)).astype(np.int64)
        votes = (2 * bits - 1).sum(axis=0)
        s = int(((votes > 0).astype(np.uint64) << shifts).sum())
        sims.append(s - (1 << 64) if s >= (1 << 63) else s)
    pq.write_table(pa.table({"doc_id": pa.array(ids, type=pa.int64()),
                             "simhash": pa.array(sims, type=pa.int64())}),
                   out)
    return out


def simhash_docs_sql(d: str, sf_dir: str) -> str:
    """doc_id -> simhash from the independent reference table."""
    ref = simhash_reference_table(d, sf_dir)
    return f"""
SELECT doc_id, simhash FROM read_parquet('{ref}') ORDER BY doc_id"""


def dedup_simhash_sql(d: str, sf_dir: str, max_hamming: int) -> str:
    """Brute-force all-pairs hamming over the independent simhash table:
    DuckDB bit_count(xor()) on BIGINT matches numpy uint64 popcount
    (two's complement, 64 bits).  The Ray side's block-key bucketing is
    pigeonhole-EXACT, so equality holds by construction, not empirically
    (up to the counted hot-bucket cap, asserted untripped in pytest)."""
    ref = simhash_reference_table(d, sf_dir)
    return f"""
WITH sh AS (SELECT doc_id, simhash FROM read_parquet('{ref}'))
SELECT a.doc_id AS doc_a, b.doc_id AS doc_b,
       CAST(bit_count(xor(a.simhash, b.simhash)) AS BIGINT) AS hamming
FROM sh a JOIN sh b ON a.doc_id < b.doc_id
WHERE bit_count(xor(a.simhash, b.simhash)) <= {max_hamming}
ORDER BY doc_a, doc_b"""


# ---------------------------------------------------------------------------
# round-3 training-data extensions: clusters / vocab / split / decontaminate
# ---------------------------------------------------------------------------

def dedup_clusters_sql(tau: float) -> str:
    """Connected components over the exact word-3-gram Jaccard pair set
    (``components_ctes``), then a window count for the per-cluster size
    — the independent check on the Ray side's iterated label
    propagation."""
    return f"""
WITH RECURSIVE {components_ctes(ngram_jaccard_sql(tau))}
SELECT node AS doc_id, l AS cluster_id,
       CAST(count(*) OVER (PARTITION BY l) AS BIGINT) AS cluster_size
FROM labels ORDER BY doc_id"""


def vocab_topk_sql(k: int) -> str:
    """Global token frequency top-k; ties at the k boundary break on the
    token string, mirroring the Ray sort key (n DESC, token ASC)."""
    return rf"""
WITH toks AS (
  SELECT unnest(list_filter(
           regexp_split_to_array(lower(coalesce(text, '')), '\s+'),
           x -> x <> '')) AS token
  FROM documents
)
SELECT token, CAST(count(*) AS BIGINT) AS n
FROM toks GROUP BY token
ORDER BY n DESC, token
LIMIT {k}"""


def winnow_sql(k: int, w: int, base: int = 131,
               modulus: int = 1 << 32) -> str:
    """Winnowing fingerprints, position-enumerated: the rolling
    polynomial hash is re-derived per k-gram position as an explicit
    k-term sum (code point % 256, base^((k-1)-j)), every window of ``w``
    consecutive positions (plus the whole-sequence window when a doc has
    fewer than ``w`` k-grams) picks its rightmost minimum via
    row_number, and the distinct selections are the fingerprint set.
    255 * base^(k-1) * k stays under 2^63 so the BIGINT sum is exact."""
    terms = " + ".join(
        f"CAST(ascii(substr(tx, CAST(i AS BIGINT) + {j + 1}, 1)) % 256 "
        f"AS BIGINT) * CAST({base ** (k - 1 - j)} AS BIGINT)"
        for j in range(k))
    return f"""
WITH t AS (
  SELECT doc_id, coalesce(text, '') AS tx FROM documents
), h AS (
  SELECT doc_id, CAST(i AS BIGINT) AS i,
         CAST(length(tx) AS BIGINT) - {k} + 1 AS m,
         ({terms}) % {modulus} AS fp
  FROM t, unnest(range(greatest(length(tx) - {k} + 1, 0))) AS u(i)
), wins AS (
  SELECT doc_id, i AS t FROM h WHERE i >= {w} - 1 OR i = m - 1
), cand AS (
  SELECT wins.doc_id, wins.t, h.i, h.fp,
         row_number() OVER (PARTITION BY wins.doc_id, wins.t
                            ORDER BY h.fp ASC, h.i DESC) AS rn
  FROM wins JOIN h ON h.doc_id = wins.doc_id
        AND h.i BETWEEN greatest(wins.t - {w} + 1, 0) AND wins.t
)
SELECT DISTINCT doc_id, i AS pos, fp
FROM cand WHERE rn = 1
ORDER BY doc_id, pos"""


def unigram_logprob_sql(v: int) -> str:
    """Per-doc average negative log-likelihood under the corpus unigram
    distribution: model = top-``v`` tokens by (count DESC, token ASC)
    with an out-of-vocab floor of count 1; N is the EXACT total token
    count over the whole corpus (not just the kept vocabulary).  avg_nll
    is rounded to 6 dp with floor(x+0.5) exactly like the Ray kernel —
    summation-order ulps can't flip the hash."""
    return rf"""
WITH tok AS (
  SELECT doc_id,
         unnest(list_filter(
           regexp_split_to_array(lower(coalesce(text, '')), '\s+'),
           x -> x <> '')) AS token
  FROM documents
), cnt AS (
  SELECT token, CAST(count(*) AS BIGINT) AS n FROM tok GROUP BY token
), tot AS (
  SELECT CAST(coalesce(sum(n), 0) AS DOUBLE) AS big_n FROM cnt
), vocab AS (
  SELECT token, n FROM cnt ORDER BY n DESC, token ASC LIMIT {v}
), sc AS (
  SELECT tok.doc_id,
         sum(ln((SELECT greatest(big_n, 1) FROM tot))
             - ln(CAST(coalesce(vocab.n, 1) AS DOUBLE))) AS s,
         CAST(count(*) AS BIGINT) AS m
  FROM tok LEFT JOIN vocab ON vocab.token = tok.token
  GROUP BY tok.doc_id
)
SELECT d.doc_id,
       coalesce(sc.m, 0) AS n_tokens,
       floor(coalesce(sc.s / sc.m, 0.0) * 1000000 + 0.5) / 1000000
         AS avg_nll
FROM documents d LEFT JOIN sc ON sc.doc_id = d.doc_id
ORDER BY d.doc_id"""


def corpus_split_sql(train_hex: str, val_hex: str) -> str:
    """Deterministic 80/10/10 split: first 8 md5 hex chars of the decimal
    doc_id, compared lexicographically (fixed-width lowercase hex orders
    identically to the u32 value, so no hex parsing on either side)."""
    return f"""
SELECT doc_id,
       CASE WHEN h < '{train_hex}' THEN 'train'
            WHEN h < '{val_hex}' THEN 'val'
            ELSE 'test' END AS split
FROM (SELECT doc_id, substr(md5(CAST(doc_id AS VARCHAR)), 1, 8) AS h
      FROM documents)
ORDER BY doc_id"""


def decontaminate_sql(eval_sources: tuple, n: int = 3) -> str:
    """Eval-side docs sharing >=1 word-n-gram with any train-side doc.
    Gram construction mirrors ``ngram_jaccard_sql`` (pad to n tokens,
    distinct grams); the Ray side compares 64-bit gram hashes, the SQL
    compares gram strings — equal up to ~1e-10 collision odds."""
    src_list = ", ".join(f"'{s}'" for s in eval_sources)
    return rf"""
WITH toks AS (
  SELECT doc_id, source,
         list_filter(regexp_split_to_array(coalesce(text, ''), '\s+'),
                     x -> x <> '') AS t
  FROM documents
), padded AS (
  SELECT doc_id, source,
         list_concat(t, list_transform(range(greatest(0, {n} - len(t))),
                                       x -> '')) AS t
  FROM toks
), ng AS (
  SELECT doc_id, source,
         list_distinct(list_transform(range(1, len(t) - {n} + 2),
           i -> array_to_string(t[i:i+{n - 1}], ' '))) AS gs
  FROM padded
), ex AS (
  SELECT doc_id, source, unnest(gs) AS g, len(gs) AS sz FROM ng
), tr AS (
  SELECT DISTINCT g FROM ex WHERE source NOT IN ({src_list})
), ev AS (
  SELECT doc_id, g, sz FROM ex WHERE source IN ({src_list})
)
SELECT ev.doc_id,
       CAST(any_value(ev.sz) AS BIGINT) AS n_grams,
       CAST(count(*) AS BIGINT) AS n_contaminated,
       CAST(count(*) AS DOUBLE) / any_value(ev.sz) AS contamination
FROM ev JOIN tr ON ev.g = tr.g
GROUP BY ev.doc_id ORDER BY ev.doc_id"""


def repetition_stats_sql() -> str:
    """Duplicate word-n-gram fractions (n=2,3); padding per n mirrors the
    shingle rule, so totals are max(1, n_tokens-n+1)."""
    def grams(n: int) -> str:
        return (f"list_transform(range(1, len(t{n}) - {n} + 2), "
                f"i -> array_to_string(t{n}[i:i+{n - 1}], ' '))")
    return rf"""
WITH toks AS (
  SELECT doc_id,
         list_filter(regexp_split_to_array(coalesce(text, ''), '\s+'),
                     x -> x <> '') AS t
  FROM documents
), padded AS (
  SELECT doc_id,
         list_concat(t, list_transform(range(greatest(0, 2 - len(t))),
                                       x -> '')) AS t2,
         list_concat(t, list_transform(range(greatest(0, 3 - len(t))),
                                       x -> '')) AS t3
  FROM toks
), g AS (
  SELECT doc_id, {grams(2)} AS g2, {grams(3)} AS g3 FROM padded
)
SELECT doc_id,
       CAST(len(g2) AS BIGINT) AS n2_total,
       CAST(len(list_distinct(g2)) AS BIGINT) AS n2_distinct,
       CAST(len(g2) - len(list_distinct(g2)) AS DOUBLE) / len(g2)
           AS dup2_fraction,
       CAST(len(g3) AS BIGINT) AS n3_total,
       CAST(len(list_distinct(g3)) AS BIGINT) AS n3_distinct,
       CAST(len(g3) - len(list_distinct(g3)) AS DOUBLE) / len(g3)
           AS dup3_fraction
FROM g ORDER BY doc_id"""


def token_quantiles_sql(qs: tuple) -> str:
    """Per-language discrete quantiles of the doc token count
    (``quantile_disc``: sorted element at index max(ceil(q*n),1)-1)."""
    qlist = "[" + ", ".join(str(float(q)) for q in qs) + "]"
    return rf"""
WITH t AS (
  SELECT lang,
         CAST(len(regexp_extract_all(coalesce(text, ''), '\S+')) AS BIGINT)
             AS n_tokens
  FROM documents
)
SELECT lang, unnest({qlist}) AS q,
       unnest(quantile_disc(n_tokens, {qlist})) AS n_tokens
FROM t GROUP BY lang ORDER BY lang, q"""


def corpus_weighted_sample_sql(k: int) -> str:
    """Efraimidis-Spirakis priority sample, priorities recomputed from
    the same md5-derived u32 (``'0x' || hex`` cast), ln(u)/weight
    floor-rounded to 6 dp before ranking, ties doc_id asc."""
    return f"""
WITH t AS (
  SELECT doc_id, CAST(greatest(n_chars, 1) AS BIGINT) AS weight,
         (CAST(concat('0x', substr(md5('w:' || CAST(doc_id AS VARCHAR)),
                                   1, 8)) AS UBIGINT) + 1)
           / 4294967296.0 AS u
  FROM documents
), keyed AS (
  SELECT doc_id, weight,
         floor(ln(u) / weight * 1e6 + 0.5) / 1e6 AS skey
  FROM t
)
SELECT doc_id, weight, skey, CAST(rn AS BIGINT) AS rank
FROM (SELECT *, row_number() OVER (ORDER BY skey DESC, doc_id) AS rn
      FROM keyed)
WHERE rn <= {k} ORDER BY rank"""


def corpus_redact_sql(patterns: tuple) -> str:
    """Chained regexp_replace mirroring the Ray-side pattern order; each
    pattern's match count is taken on the PREVIOUS pattern's output."""
    # stage-unique column names (tx0 -> tx1 -> ...) so the count and the
    # replace in one SELECT can never resolve to each other's alias
    sql = "WITH r0 AS (SELECT doc_id, coalesce(text, '') AS tx0, 0 AS c0 " \
          "FROM documents)"
    for i, (pat, repl) in enumerate(patterns, 1):
        sql += (f",\nr{i} AS (SELECT doc_id, "
                f"regexp_replace(tx{i - 1}, '{pat}', '{repl}', 'g') "
                f"AS tx{i}, "
                f"c{i - 1} + len(regexp_extract_all(tx{i - 1}, '{pat}')) "
                f"AS c{i} FROM r{i - 1})")
    n = len(patterns)
    sql += (f"\nSELECT doc_id, tx{n} AS text_redacted, "
            f"CAST(c{n} AS BIGINT) AS n_redactions FROM r{n} "
            "ORDER BY doc_id")
    return sql


def corpus_sample_sql(rate_hex: dict, default_hex: str) -> str:
    """Stratified deterministic sample: md5('s:' || doc_id) first-8-hex
    compared against the per-language rate threshold (fixed-width hex ==
    u32 ordering, same trick as the split)."""
    when = "\n            ".join(
        f"WHEN '{lang}' THEN '{hx}'" for lang, hx in rate_hex.items())
    return f"""
WITH t AS (
  SELECT doc_id, lang,
         substr(md5('s:' || CAST(doc_id AS VARCHAR)), 1, 8) AS h,
         CASE lang
            {when}
            ELSE '{default_hex}' END AS thr
  FROM documents
)
SELECT doc_id, lang FROM t WHERE h < thr ORDER BY doc_id"""


def doc_chunks_sql(chunk_tokens: int) -> str:
    """Fixed-window token chunks; list slices are 1-based inclusive in
    DuckDB, chunk count = ceil(n_tokens / w), zero-token docs emit no
    rows (range(0) is empty)."""
    w = chunk_tokens
    return rf"""
WITH toks AS (
  SELECT doc_id,
         list_filter(regexp_split_to_array(coalesce(text, ''), '\s+'),
                     x -> x <> '') AS t
  FROM documents
)
SELECT doc_id,
       CAST(i AS BIGINT) AS chunk_idx,
       CAST(least({w}, len(t) - i * {w}) AS BIGINT) AS n_tokens,
       array_to_string(t[i * {w} + 1 : i * {w} + {w}], ' ') AS chunk_text
FROM toks,
     unnest(range(CAST(ceil(len(t) / {w}.0) AS BIGINT))) AS u(i)
ORDER BY doc_id, chunk_idx"""


def dedup_apply_sql(tau: float) -> str:
    """Retained corpus after near-dup clustering: drop every cluster
    member except the canonical minimum (clusters from
    ``dedup_clusters_sql``)."""
    return f"""
WITH clusters AS ({dedup_clusters_sql(tau)})
SELECT d.doc_id FROM documents d
WHERE d.doc_id NOT IN (SELECT doc_id FROM clusters
                       WHERE doc_id != cluster_id)
ORDER BY d.doc_id"""


def dedup_apply_quality_sql(tau: float) -> str:
    """Retained corpus when each near-dup cluster keeps its
    highest-quality member (quality re-derived with the TEXT_STATS
    arithmetic — no transcendentals, doubles bit-identical to the Ray
    kernel; ties to the lowest doc_id)."""
    return rf"""
WITH clusters AS ({dedup_clusters_sql(tau)}),
c AS (
  SELECT doc_id,
    CAST(len(regexp_extract_all(coalesce(text, ''), '\S+')) AS BIGINT)
        AS n_tokens,
    CAST(len(regexp_extract_all(coalesce(text, ''), '[.,;:!?]')) AS BIGINT)
        AS punct_cnt,
    CAST(len(regexp_extract_all(coalesce(text, ''),
        '\b(the|and|with|for|an|of|in|to|is|on|a)\b')) AS BIGINT)
        AS stop_cnt,
    CAST(length(coalesce(text, '')) AS BIGINT) AS n_chars
  FROM documents
), scored AS (
  SELECT doc_id,
    0.4 * least(1.0, CAST(n_tokens AS DOUBLE) / 100.0)
      + 0.3 * (1.0 - CAST(punct_cnt AS DOUBLE) / greatest(n_chars, 1))
      + 0.3 * least(1.0, 5.0 * (CAST(stop_cnt AS DOUBLE)
                                / greatest(n_tokens, 1)))
      AS quality
  FROM c
), ranked AS (
  SELECT cl.doc_id,
         row_number() OVER (PARTITION BY cl.cluster_id
                            ORDER BY s.quality DESC, cl.doc_id) AS rn
  FROM clusters cl JOIN scored s ON s.doc_id = cl.doc_id
)
SELECT d.doc_id FROM documents d
WHERE d.doc_id NOT IN (SELECT doc_id FROM ranked WHERE rn > 1)
ORDER BY d.doc_id"""


def quality_quantiles_sql(qs: tuple) -> str:
    """Exact per-lang quality quantiles (quantile_disc — the sorted
    element at max(ceil(q*n),1)-1, the engine's rank rule); quality
    re-derived transcendental-free, so doubles are bit-identical.  The
    sketch query's driver-scale equality to THIS exact statement is
    certificate-gated (no compaction at driver scale)."""
    sel = "\nUNION ALL\n".join(
        f"""SELECT lang, CAST({q!r} AS DOUBLE) AS q,
       quantile_disc(quality, {q!r}) AS quality
FROM scored GROUP BY lang""" for q in qs)
    return rf"""
WITH c AS (
  SELECT doc_id, lang,
    CAST(len(regexp_extract_all(coalesce(text, ''), '\S+')) AS BIGINT)
        AS n_tokens,
    CAST(len(regexp_extract_all(coalesce(text, ''), '[.,;:!?]')) AS BIGINT)
        AS punct_cnt,
    CAST(len(regexp_extract_all(coalesce(text, ''),
        '\b(the|and|with|for|an|of|in|to|is|on|a)\b')) AS BIGINT)
        AS stop_cnt,
    CAST(length(coalesce(text, '')) AS BIGINT) AS n_chars
  FROM documents
), scored AS (
  SELECT doc_id, lang,
    0.4 * least(1.0, CAST(n_tokens AS DOUBLE) / 100.0)
      + 0.3 * (1.0 - CAST(punct_cnt AS DOUBLE) / greatest(n_chars, 1))
      + 0.3 * least(1.0, 5.0 * (CAST(stop_cnt AS DOUBLE)
                                / greatest(n_tokens, 1)))
      AS quality
  FROM c
)
SELECT * FROM ({sel}) ORDER BY lang, q"""


def top_quality_docs_sql(n: int) -> str:
    """row_number() OVER (PARTITION BY lang ORDER BY quality DESC,
    doc_id) — quality re-derived with the TEXT_STATS arithmetic (no
    transcendentals, so doubles are bit-identical to the Ray kernel)."""
    return rf"""
WITH c AS (
  SELECT doc_id, lang,
    CAST(len(regexp_extract_all(coalesce(text, ''), '\S+')) AS BIGINT)
        AS n_tokens,
    CAST(len(regexp_extract_all(coalesce(text, ''), '[.,;:!?]')) AS BIGINT)
        AS punct_cnt,
    CAST(len(regexp_extract_all(coalesce(text, ''),
        '\b(the|and|with|for|an|of|in|to|is|on|a)\b')) AS BIGINT)
        AS stop_cnt,
    CAST(length(coalesce(text, '')) AS BIGINT) AS n_chars
  FROM documents
), scored AS (
  SELECT doc_id, lang,
    0.4 * least(1.0, CAST(n_tokens AS DOUBLE) / 100.0)
      + 0.3 * (1.0 - CAST(punct_cnt AS DOUBLE) / greatest(n_chars, 1))
      + 0.3 * least(1.0, 5.0 * (CAST(stop_cnt AS DOUBLE)
                                / greatest(n_tokens, 1)))
      AS quality
  FROM c
), ranked AS (
  SELECT lang, doc_id, quality,
         row_number() OVER (PARTITION BY lang
                            ORDER BY quality DESC, doc_id) AS r
  FROM scored
)
SELECT lang, doc_id, quality, CAST(r AS BIGINT) AS rank
FROM ranked WHERE r <= {n} ORDER BY lang, rank"""


def tfidf_keywords_sql(top: int, min_df: int) -> str:
    """Per-doc top TF-IDF keywords; scores rounded to 6 decimals with
    floor(x*1e6+0.5)/1e6 BEFORE ranking (matches the Ray side, avoids
    DuckDB-vs-numpy half-rounding differences)."""
    return rf"""
WITH toks AS (
  SELECT doc_id,
         unnest(list_filter(
           regexp_split_to_array(lower(coalesce(text, '')), '\s+'),
           x -> x <> '')) AS token
  FROM documents
), tf AS (
  SELECT doc_id, token, CAST(count(*) AS BIGINT) AS tf
  FROM toks GROUP BY doc_id, token
), df AS (
  SELECT token, CAST(count(*) AS BIGINT) AS df
  FROM (SELECT DISTINCT doc_id, token FROM toks)
  GROUP BY token HAVING count(*) >= {min_df}
), n AS (SELECT CAST(count(*) AS DOUBLE) AS n_docs FROM documents),
scored AS (
  SELECT tf.doc_id, tf.token,
         floor(tf.tf * ln(n.n_docs / df.df) * 1e6 + 0.5) / 1e6 AS s
  FROM tf JOIN df USING (token) CROSS JOIN n
), ranked AS (
  SELECT doc_id, token, s,
         row_number() OVER (PARTITION BY doc_id
                            ORDER BY s DESC, token) AS r
  FROM scored
)
SELECT doc_id, token, s AS tfidf, CAST(r AS BIGINT) AS rank
FROM ranked WHERE r <= {top} ORDER BY doc_id, rank"""


def bm25_topk_sql(queries: dict, k1: float, b: float, top: int) -> str:
    """Okapi BM25 top-k per query, the exact corpus statistics (df over
    query terms, N, avgdl) and the smoothed-idf scoring formula mirrored
    term-for-term against the Ray kernel; scores floor-rounded to 6 dp
    BEFORE ranking, ties doc_id asc."""
    qvals = ", ".join(f"({qid}, '{t}')"
                      for qid, ts in sorted(queries.items()) for t in ts)
    return rf"""
WITH q(query_id, token) AS (VALUES {qvals}),
toks AS (
  SELECT doc_id, unnest(list_filter(
           regexp_split_to_array(lower(coalesce(text, '')), '\s+'),
           x -> x <> '')) AS token
  FROM documents
), dl AS (
  SELECT doc_id, CAST(count(*) AS BIGINT) AS dl FROM toks GROUP BY 1
), n AS (
  SELECT CAST((SELECT count(*) FROM documents) AS DOUBLE) AS n_docs,
         CAST((SELECT count(*) FROM toks) AS DOUBLE)
           / (SELECT count(*) FROM documents) AS avgdl
), tf AS (
  SELECT t.doc_id, q.query_id, t.token, CAST(count(*) AS DOUBLE) AS tf
  FROM toks t JOIN q ON q.token = t.token
  GROUP BY 1, 2, 3
), df AS (
  SELECT token, CAST(count(DISTINCT doc_id) AS DOUBLE) AS df
  FROM toks WHERE token IN (SELECT DISTINCT token FROM q) GROUP BY 1
), scored AS (
  SELECT tf.query_id, tf.doc_id,
         floor(sum(ln(1 + (n.n_docs - df.df + 0.5) / (df.df + 0.5))
                   * tf.tf * {k1 + 1.0!r}
                   / (tf.tf + {k1!r} * (1 - {b!r} + {b!r}
                      * (dl.dl / n.avgdl)))) * 1e6 + 0.5) / 1e6 AS score
  FROM tf JOIN df USING (token) JOIN dl ON dl.doc_id = tf.doc_id
  CROSS JOIN n GROUP BY 1, 2
)
SELECT CAST(query_id AS BIGINT) AS query_id, doc_id, score,
       CAST(rn AS BIGINT) AS rank
FROM (SELECT *, row_number() OVER (PARTITION BY query_id
                                   ORDER BY score DESC, doc_id) AS rn
      FROM scored)
WHERE rn <= {top} ORDER BY query_id, rank"""


def dup_spans_sql(k: int) -> str:
    """Cross-document duplicated k-gram spans: grams grouped by STRING
    (the ground truth the Ray side's 128-bit blake2b keys stand in for),
    duplicated iff min(doc_id) <> max(doc_id); interval union via the
    classic gaps-and-islands window (equal-length intervals sorted by
    start ⇒ running max-end = lag(pos) + k)."""
    return rf"""
WITH toks AS (
  SELECT doc_id,
         list_filter(regexp_split_to_array(coalesce(text, ''), '\s+'),
                     x -> x <> '') AS t
  FROM documents
), g AS (
  SELECT doc_id, CAST(i - 1 AS BIGINT) AS pos,
         array_to_string(t[i:i + {k - 1}], ' ') AS gram
  FROM toks, unnest(range(1, len(t) - {k} + 2)) AS u(i)
), dup AS (
  SELECT gram FROM g GROUP BY gram HAVING min(doc_id) <> max(doc_id)
), hits AS (
  SELECT g.doc_id, g.pos FROM g JOIN dup USING (gram)
), flagged AS (
  SELECT doc_id, pos,
         CASE WHEN lag(pos) OVER w IS NULL
                   OR pos > lag(pos) OVER w + {k} THEN 1 ELSE 0 END AS brk
  FROM hits WINDOW w AS (PARTITION BY doc_id ORDER BY pos)
), spans AS (
  SELECT doc_id, pos,
         sum(brk) OVER (PARTITION BY doc_id ORDER BY pos) AS sid
  FROM flagged
)
SELECT doc_id,
       min(pos) AS span_start,
       max(pos) + {k} AS span_end,
       max(pos) + {k} - min(pos) AS n_tokens,
       CAST(count(*) AS BIGINT) AS n_grams
FROM spans GROUP BY doc_id, sid ORDER BY doc_id, span_start"""


def pmi_bigrams_sql(top: int, min_cnt: int) -> str:
    """Top bigrams by PMI with a support floor; the ln argument is
    structured exactly like the numpy expression ((cxy*N*N)/(cx*cy*B))
    and rounded to 6 decimals BEFORE ranking, so double ulps can't flip
    the order; ties break on (w1, w2)."""
    return rf"""
WITH toks AS (
  SELECT doc_id,
         list_filter(regexp_split_to_array(lower(coalesce(text, '')),
                                           '\s+'), x -> x <> '') AS t
  FROM documents
), uni AS (
  SELECT u.w AS w, CAST(count(*) AS BIGINT) AS c
  FROM toks, unnest(t) AS u(w) GROUP BY u.w
), big AS (
  SELECT t[i] AS w1, t[i + 1] AS w2, CAST(count(*) AS BIGINT) AS c
  FROM toks, unnest(range(1, len(t))) AS r(i) GROUP BY 1, 2
), n AS (SELECT CAST(sum(c) AS DOUBLE) AS n FROM uni),
b AS (SELECT CAST(sum(c) AS DOUBLE) AS b FROM big),
scored AS (
  SELECT big.w1, big.w2, big.c AS cnt,
         floor(ln((CAST(big.c AS DOUBLE) * n.n * n.n)
                  / (CAST(u1.c AS DOUBLE) * CAST(u2.c AS DOUBLE) * b.b))
               * 1e6 + 0.5) / 1e6 AS pmi
  FROM big
  JOIN uni u1 ON big.w1 = u1.w
  JOIN uni u2 ON big.w2 = u2.w
  CROSS JOIN n CROSS JOIN b
  WHERE big.c >= {min_cnt}
), ranked AS (
  SELECT *, row_number() OVER (ORDER BY pmi DESC, w1, w2) AS r FROM scored
)
SELECT w1, w2, cnt, pmi, CAST(r AS BIGINT) AS rank
FROM ranked WHERE r <= {top} ORDER BY rank"""


_QUALITY_SCORED_CTE = r"""
c AS (
  SELECT doc_id, lang,
    CAST(len(regexp_extract_all(coalesce(text, ''), '\S+')) AS BIGINT)
        AS n_tokens,
    CAST(len(regexp_extract_all(coalesce(text, ''), '[.,;:!?]')) AS BIGINT)
        AS punct_cnt,
    CAST(len(regexp_extract_all(coalesce(text, ''),
        '\b(the|and|with|for|an|of|in|to|is|on|a)\b')) AS BIGINT)
        AS stop_cnt,
    CAST(length(coalesce(text, '')) AS BIGINT) AS n_chars
  FROM documents
), scored AS (
  SELECT doc_id, lang,
    0.4 * least(1.0, CAST(n_tokens AS DOUBLE) / 100.0)
      + 0.3 * (1.0 - CAST(punct_cnt AS DOUBLE) / greatest(n_chars, 1))
      + 0.3 * least(1.0, 5.0 * (CAST(stop_cnt AS DOUBLE)
                                / greatest(n_tokens, 1)))
      AS quality
  FROM c
)"""


def quality_percentile_filter_sql(keep_frac: float) -> str:
    """Per-language relative quality gate on 4-dp quality bins: the
    threshold is ``quantile_disc(qbin, 1 - keep_frac)`` (same discrete
    definition the Ray histogram walk uses); ties at the threshold kept.
    Quality arithmetic is the TEXT_STATS expression (no transcendentals,
    doubles bit-identical to numpy)."""
    return rf"""
WITH {_QUALITY_SCORED_CTE},
qb AS (
  SELECT doc_id, lang,
         CAST(floor(quality * 1e4 + 0.5) AS BIGINT) AS qbin
  FROM scored
), thr AS (
  SELECT lang, quantile_disc(qbin, {1.0 - keep_frac}) AS t
  FROM qb GROUP BY lang
)
SELECT qb.doc_id, qb.lang, CAST(qb.qbin AS DOUBLE) / 1e4 AS quality_r
FROM qb JOIN thr USING (lang)
WHERE qb.qbin >= thr.t ORDER BY qb.doc_id"""


DISTINCT_TOKEN_COUNTS_SQL = r"""
WITH toks AS (
  SELECT lang,
         unnest(list_filter(
           regexp_split_to_array(lower(coalesce(text, '')), '\s+'),
           x -> x <> '')) AS token
  FROM documents
)
SELECT lang, CAST(count(DISTINCT token) AS BIGINT) AS n_distinct
FROM toks GROUP BY lang ORDER BY lang"""


def events_funnel_sql(step_a: str, step_b: str, window_days: int) -> str:
    """Two-step funnel: first step-A per user, step-B count/first inside
    the closed window; non-converters keep NULL purchase columns."""
    return f"""
WITH s AS (
  SELECT user_id, min(ts) AS signup_ts FROM events
  WHERE event_type = '{step_a}' GROUP BY user_id
), conv AS (
  SELECT s.user_id, CAST(count(*) AS BIGINT) AS n_purchases_w,
         min(e.ts) AS first_purchase_ts
  FROM s JOIN events e ON e.user_id = s.user_id
  WHERE e.event_type = '{step_b}'
    AND e.ts >= s.signup_ts
    AND e.ts <= s.signup_ts + INTERVAL {window_days} DAY
  GROUP BY s.user_id
)
SELECT s.user_id, s.signup_ts,
       CAST(coalesce(conv.n_purchases_w, 0) AS BIGINT) AS n_purchases_w,
       conv.first_purchase_ts,
       CAST(epoch_us(conv.first_purchase_ts)
            - epoch_us(s.signup_ts) AS BIGINT) AS delay_us
FROM s LEFT JOIN conv USING (user_id)
ORDER BY s.user_id"""


def dup_span_stats_sql(k: int) -> str:
    """Per-doc rollup of the dup-span SQL: span count, duplicated tokens,
    doc token total, 6-dp duplicated fraction (flagged docs only)."""
    return rf"""
WITH spans AS ({dup_spans_sql(k)}),
tot AS (
  SELECT doc_id,
         CAST(len(list_filter(regexp_split_to_array(coalesce(text, ''),
                                                    '\s+'),
                              x -> x <> '')) AS BIGINT) AS total_tokens
  FROM documents
)
SELECT s.doc_id,
       CAST(count(*) AS BIGINT) AS n_spans,
       CAST(sum(s.n_tokens) AS BIGINT) AS dup_tokens,
       t.total_tokens,
       floor(CAST(sum(s.n_tokens) AS DOUBLE) / t.total_tokens * 1e6
             + 0.5) / 1e6 AS dup_fraction
FROM spans s JOIN tot t USING (doc_id)
GROUP BY s.doc_id, t.total_tokens ORDER BY s.doc_id"""


TOKEN_ENTROPY_SQL = r"""
WITH toks AS (
  SELECT doc_id,
         unnest(list_filter(regexp_split_to_array(coalesce(text, ''),
                                                  '\s+'),
                            x -> x <> '')) AS token
  FROM documents
), tf AS (
  SELECT doc_id, token, CAST(count(*) AS DOUBLE) AS tf
  FROM toks GROUP BY doc_id, token
), nn AS (
  SELECT doc_id, sum(tf) AS n, CAST(count(*) AS BIGINT) AS n_distinct
  FROM tf GROUP BY doc_id
), h AS (
  SELECT tf.doc_id, sum(-(tf.tf / nn.n) * ln(tf.tf / nn.n)) AS h
  FROM tf JOIN nn USING (doc_id) GROUP BY tf.doc_id
)
SELECT d.doc_id,
       CAST(coalesce(nn.n, 0) AS BIGINT) AS n_tokens,
       coalesce(nn.n_distinct, 0) AS n_distinct,
       floor(coalesce(nn.n_distinct / greatest(nn.n, 1), 0.0) * 1e6 + 0.5)
           / 1e6 AS ttr,
       floor(coalesce(h.h, 0.0) * 1e6 + 0.5) / 1e6 AS entropy
FROM documents d LEFT JOIN nn USING (doc_id) LEFT JOIN h USING (doc_id)
ORDER BY d.doc_id"""


def events_range_join_sql(sources: tuple, gap_min: int) -> str:
    """Interval join: purchases to the containing browse session
    (view/click sessionized at the gap rule); BETWEEN is inclusive on
    both ends, sessions are disjoint per user."""
    srcs = ", ".join(f"'{s}'" for s in sources)
    return f"""
WITH src AS (
  SELECT user_id, ts FROM events WHERE event_type IN ({srcs})
), d AS (
  SELECT user_id, ts,
    CASE WHEN lag(ts) OVER w IS NULL
              OR ts - lag(ts) OVER w > INTERVAL {gap_min} MINUTE
         THEN 1 ELSE 0 END AS new_sess
  FROM src WINDOW w AS (PARTITION BY user_id ORDER BY ts)
), s AS (
  SELECT user_id, ts, sum(new_sess) OVER (
    PARTITION BY user_id ORDER BY ts ROWS UNBOUNDED PRECEDING) AS sid
  FROM d
), sess AS (
  SELECT user_id, min(ts) AS sess_start, max(ts) AS sess_end
  FROM s GROUP BY user_id, sid
)
SELECT p.event_id, p.user_id, p.ts, sess.sess_start, sess.sess_end
FROM events p
JOIN sess ON p.user_id = sess.user_id
         AND p.ts BETWEEN sess.sess_start AND sess.sess_end
WHERE p.event_type = 'purchase'
ORDER BY p.event_id"""


def corpus_mix_sql(weights: dict, default_w: float) -> str:
    """Mixture downsampling with data-derived rates: the threshold is
    computed in SQL with the SAME double arithmetic as the Ray side
    ((T * w) / n, T = min(n / w)); rates >= 1 map to 'g' (the
    corpus_sample rule: 'g' > every hex digit keeps all docs)."""
    when = " ".join(f"WHEN '{s}' THEN {w!r}" for s, w in weights.items())
    return f"""
WITH cnt AS (
  SELECT source, CAST(count(*) AS DOUBLE) AS n
  FROM documents GROUP BY source
), w AS (
  SELECT source, n,
         CASE source {when} ELSE {default_w!r} END AS w
  FROM cnt
), t AS (SELECT min(n / w) AS t FROM w),
thr AS (
  SELECT source,
         CASE WHEN (t.t * w) / n >= 1.0 THEN 'g'
              ELSE printf('%08x',
                          CAST(floor(((t.t * w) / n) * 4294967296.0)
                               AS BIGINT)) END AS hex
  FROM w CROSS JOIN t
)
SELECT d.doc_id, d.source FROM documents d
JOIN thr USING (source)
WHERE substr(md5('m:' || CAST(d.doc_id AS VARCHAR)), 1, 8) < thr.hex
ORDER BY d.doc_id"""


def bigram_logprob_sql(v: int, b: int, alpha: float) -> str:
    """Bigram LM with stupid backoff, same model-selection ties as the
    Ray side (count DESC, token/pair ASC), OOV floor 1, ln-structured
    exactly like the numpy kernel, 6-dp floor rounding."""
    return rf"""
WITH toks AS (
  SELECT doc_id,
         list_filter(regexp_split_to_array(lower(coalesce(text, '')),
                                           '\s+'), x -> x <> '') AS t
  FROM documents
), tok AS (
  SELECT doc_id, unnest(t) AS token FROM toks
), cnt AS (
  SELECT token, CAST(count(*) AS BIGINT) AS n FROM tok GROUP BY token
), tot AS (
  SELECT CAST(coalesce(sum(n), 0) AS DOUBLE) AS big_n FROM cnt
), vocab AS (
  SELECT token, n FROM cnt ORDER BY n DESC, token ASC LIMIT {v}
), big_all AS (
  SELECT t[i] AS w1, t[i + 1] AS w2, CAST(count(*) AS BIGINT) AS n
  FROM toks, unnest(range(1, len(t))) AS r(i) GROUP BY 1, 2
), bmod AS (
  SELECT ba.w1, ba.w2, ba.n
  FROM big_all ba
  JOIN vocab v1 ON ba.w1 = v1.token
  JOIN vocab v2 ON ba.w2 = v2.token
  ORDER BY ba.n DESC, ba.w1 ASC, ba.w2 ASC LIMIT {b}
), pos AS (
  SELECT doc_id, t[i] AS v, t[i + 1] AS w
  FROM toks, unnest(range(1, len(t))) AS r(i)
), sc AS (
  SELECT pos.doc_id,
         sum(CASE WHEN bm.n IS NOT NULL
                  THEN ln(CAST(vv.n AS DOUBLE)) - ln(CAST(bm.n AS DOUBLE))
                  ELSE ln((SELECT greatest(big_n, 1) FROM tot))
                       - ln(CAST(coalesce(vw.n, 1) AS DOUBLE))
                       - ln({alpha!r}) END) AS s,
         CAST(count(*) AS BIGINT) AS m
  FROM pos
  LEFT JOIN bmod bm ON pos.v = bm.w1 AND pos.w = bm.w2
  LEFT JOIN vocab vv ON pos.v = vv.token
  LEFT JOIN vocab vw ON pos.w = vw.token
  GROUP BY pos.doc_id
)
SELECT d.doc_id,
       coalesce(sc.m, 0) AS n_positions,
       floor(coalesce(sc.s / sc.m, 0.0) * 1000000 + 0.5) / 1000000
         AS avg_nll2
FROM documents d LEFT JOIN sc ON sc.doc_id = d.doc_id
ORDER BY d.doc_id"""


EMBEDDING_CENTROIDS_SQL = """
SELECT label,
       CAST(u.i - 1 AS BIGINT) AS dim_idx,
       floor(avg(CAST(embedding[u.i] AS DOUBLE)) * 1e6 + 0.5) / 1e6
         AS centroid,
       CAST(count(*) AS BIGINT) AS n_vecs
FROM embeddings, unnest(range(1, len(embedding) + 1)) AS u(i)
GROUP BY label, u.i
ORDER BY label, dim_idx"""


def pack_sequences_sql(budget: int, chunk_tokens: int, rng: int) -> str:
    """Next-fit packing as a recursive walk: every doc-id range advances
    one chunk per recursion level (lockstep across ranges), carrying the
    running fill and 1-based sequence id; identical boundary rule to the
    Ray kernel (fill + next > budget starts a new sequence)."""
    ct = chunk_tokens
    return rf"""
WITH RECURSIVE toks AS (
  SELECT doc_id,
         CAST(len(regexp_extract_all(coalesce(text, ''), '\S+'))
              AS BIGINT) AS n
  FROM documents
), chunks AS (
  SELECT doc_id // {rng} AS grp, doc_id,
         CAST(i AS BIGINT) AS chunk_idx,
         CAST(least({ct}, n - i * {ct}) AS BIGINT) AS n_tokens
  FROM toks, unnest(range(CAST(ceil(n / {ct}.0) AS BIGINT))) AS u(i)
), numbered AS (
  SELECT *, row_number() OVER (PARTITION BY grp
                               ORDER BY doc_id, chunk_idx) AS rn
  FROM chunks
), walk AS (
  SELECT grp, rn, n_tokens AS acc, CAST(1 AS BIGINT) AS seq
  FROM numbered WHERE rn = 1
  UNION ALL
  SELECT c.grp, c.rn,
         CASE WHEN w.acc + c.n_tokens > {budget}
              THEN c.n_tokens ELSE w.acc + c.n_tokens END,
         CASE WHEN w.acc + c.n_tokens > {budget}
              THEN w.seq + 1 ELSE w.seq END
  FROM walk w JOIN numbered c ON c.grp = w.grp AND c.rn = w.rn + 1
)
SELECT c.grp, w.seq AS seq_id, c.doc_id, c.chunk_idx, c.n_tokens
FROM walk w JOIN numbered c USING (grp, rn)
ORDER BY c.grp, c.doc_id, c.chunk_idx"""


EVENTS_RETENTION_SQL = """
WITH d AS (
  SELECT DISTINCT user_id, CAST(date_trunc('day', ts) AS TIMESTAMP) AS day
  FROM events
), f AS (
  SELECT user_id, min(day) AS cohort_day FROM d GROUP BY user_id
)
SELECT f.cohort_day,
       CAST(date_diff('day', f.cohort_day, d.day) AS BIGINT) AS day_offset,
       CAST(count(DISTINCT d.user_id) AS BIGINT) AS n_users
FROM d JOIN f USING (user_id)
GROUP BY f.cohort_day, day_offset
ORDER BY f.cohort_day, day_offset"""


def nearest_tile_sql(d: str) -> str:
    """Nearest tile center per doc: cross join against the ~30-row tile
    table, haversine mirrored term-for-term, 6-dp floor rounding BEFORE
    the rank (ties to the lowest tile_id — the kernel's first-argmin)."""
    hav = haversine_sql("(t.minlat + t.maxlat) / 2.0",
                        "(t.minlon + t.maxlon) / 2.0", "f.lat", "f.lon")
    return f"""
WITH flat AS (SELECT * FROM read_parquet({q(d + '/flat.parquet')})),
tiles AS (SELECT * FROM read_parquet({q(d + '/tiles.parquet')})),
dist AS (
  SELECT f.map_slug, f.osm_id, f.entity_type, f.seq,
         t.tile_id, t.tile_name,
         floor(({hav}) * 1e6 + 0.5) / 1e6 AS dist_km
  FROM flat f CROSS JOIN tiles t
), ranked AS (
  SELECT *, row_number() OVER (
      PARTITION BY map_slug, entity_type, osm_id, seq
      ORDER BY dist_km, tile_id) AS r
  FROM dist
)
SELECT map_slug, osm_id, entity_type, seq, tile_name, dist_km
FROM ranked WHERE r = 1 ORDER BY map_slug, entity_type, osm_id, seq"""


def bearing_rose_sql(d: str) -> str:
    """Eight-sector bearing histogram per nearest tile: the
    ``nearest_tile_sql`` argmin (rounded distance, lowest tile_id tie),
    then the initial-bearing atan2 mirrored term-for-term against the
    numpy kernel, 6-dp floor-rounded BEFORE the sector floor-division,
    360.0 wrapping to sector 0 on both sides."""
    hav = haversine_sql("f.lat", "f.lon", "t.clat", "t.clon")
    bear = ("degrees(atan2("
            "sin(radians(clon) - radians(lon)) * cos(radians(clat)), "
            "cos(radians(lat)) * sin(radians(clat)) "
            "- sin(radians(lat)) * cos(radians(clat)) "
            "* cos(radians(clon) - radians(lon))))")
    return f"""
WITH flat AS (SELECT * FROM read_parquet({q(d + '/flat.parquet')})),
tiles AS (SELECT tile_id, tile_name,
                 (minlat + maxlat) / 2.0 AS clat,
                 (minlon + maxlon) / 2.0 AS clon
          FROM read_parquet({q(d + '/tiles.parquet')})),
dist AS (
  SELECT f.map_slug, f.osm_id, f.entity_type, f.seq, f.lat, f.lon,
         t.tile_id, t.tile_name, t.clat, t.clon,
         floor(({hav}) * 1e6 + 0.5) / 1e6 AS dist_km
  FROM flat f CROSS JOIN tiles t
), nearest AS (
  SELECT * FROM (
    SELECT *, row_number() OVER (
        PARTITION BY map_slug, entity_type, osm_id, seq
        ORDER BY dist_km, tile_id) AS r
    FROM dist) WHERE r = 1
), bear AS (
  SELECT tile_name,
         floor(fmod({bear} + 360.0, 360.0) * 1e6 + 0.5) / 1e6 AS b
  FROM nearest
), sect AS (
  SELECT tile_name,
         CASE WHEN CAST(floor(b / 45.0) AS BIGINT) = 8 THEN 0
              ELSE CAST(floor(b / 45.0) AS BIGINT) END AS sector
  FROM bear
)
SELECT tile_name, sector, CAST(count(*) AS BIGINT) AS n_docs
FROM sect GROUP BY 1, 2 ORDER BY 1, 2"""


def cell_density_smooth_sql(d: str, res: int) -> str:
    """3x3 neighborhood doc counts over the quad-cell grid: per-cell
    counts cross-joined with the 9 offsets, clamped at grid edges,
    reported for occupied cells only."""
    n = 1 << res
    return f"""
WITH {base_ctes(d)},
counts AS (
  SELECT {cell_sql(res)} AS cell_id, CAST(count(*) AS BIGINT) AS n
  FROM base GROUP BY 1
), offs AS (
  SELECT dx.x AS dx, dy.y AS dy
  FROM (VALUES (-1), (0), (1)) dx(x), (VALUES (-1), (0), (1)) dy(y)
), spread AS (
  SELECT ((c.cell_id // {n}) + o.dy) * {n}
           + ((c.cell_id % {n}) + o.dx) AS cell_id,
         c.n
  FROM counts c CROSS JOIN offs o
  WHERE (c.cell_id % {n}) + o.dx >= 0 AND (c.cell_id % {n}) + o.dx < {n}
    AND (c.cell_id // {n}) + o.dy >= 0 AND (c.cell_id // {n}) + o.dy < {n}
), smooth AS (
  SELECT cell_id, CAST(sum(n) AS BIGINT) AS n_smooth
  FROM spread GROUP BY cell_id
)
SELECT c.cell_id, c.n AS n_docs, s.n_smooth
FROM counts c JOIN smooth s USING (cell_id)
ORDER BY c.cell_id"""


def winnow_dup_pairs_sql(k: int, w: int, tau: float) -> str:
    """Fingerprint-overlap pairs from the winnow SQL: distinct per-doc
    fingerprint sets, shared count via fp self-join, exact Jaccard
    against per-doc set sizes (same c / (sa + sb - c) double division
    as the Ray kernel)."""
    return f"""
WITH fps AS ({winnow_sql(k, w)}),
d AS (SELECT DISTINCT doc_id, fp FROM fps),
sz AS (SELECT doc_id, CAST(count(*) AS BIGINT) AS s FROM d
       GROUP BY doc_id),
shared AS (
  SELECT a.doc_id AS doc_a, b.doc_id AS doc_b,
         CAST(count(*) AS BIGINT) AS c
  FROM d a JOIN d b ON a.fp = b.fp AND a.doc_id < b.doc_id
  GROUP BY 1, 2
)
SELECT shared.doc_a, shared.doc_b,
       CAST(c AS DOUBLE) / greatest(sa.s + sb.s - c, 1) AS fp_jaccard
FROM shared
JOIN sz sa ON sa.doc_id = shared.doc_a
JOIN sz sb ON sb.doc_id = shared.doc_b
WHERE CAST(c AS DOUBLE) / greatest(sa.s + sb.s - c, 1) >= {tau!r}
ORDER BY shared.doc_a, shared.doc_b"""


def media_dedup_sql(d: str) -> str:
    """One keeper (lexicographic min doc_id) per fake-codec phash."""
    return f"""
SELECT CAST((osm_id * 2654435761) % 2147483648 AS BIGINT) AS phash,
       min(doc_id) AS doc_id,
       CAST(count(*) AS BIGINT) AS n_copies
FROM read_parquet({q(d + '/flat.parquet')})
WHERE media_img IS NOT NULL
GROUP BY 1 ORDER BY 1"""


def knn_graph_sql(k: int) -> str:
    """Exact k-NN graph: all-pairs cosine rank per vector, self excluded,
    ties to the lower neighbor id (the kernel's stable sort order)."""
    return f"""
WITH s AS (
  SELECT a.vec_id, b.vec_id AS neighbor_id,
         list_cosine_similarity(a.embedding, b.embedding) AS sim
  FROM embeddings a JOIN embeddings b ON a.vec_id <> b.vec_id
)
SELECT vec_id, neighbor_id, CAST(rn AS BIGINT) AS rank
FROM (SELECT *, row_number() OVER (
        PARTITION BY vec_id ORDER BY sim DESC, neighbor_id) AS rn FROM s)
WHERE rn <= {k} ORDER BY vec_id, rank"""


SOURCE_EMBEDDING_NORMS_SQL = """
WITH n AS (
  SELECT vec_id, sqrt(list_sum(list_transform(embedding,
           x -> CAST(x AS DOUBLE) * CAST(x AS DOUBLE)))) AS nrm
  FROM embeddings
)
SELECT d.source, CAST(count(*) AS BIGINT) AS n_docs,
       floor(sum(n.nrm) / count(*) * 1e6 + 0.5) / 1e6 AS mean_norm,
       floor(max(n.nrm) * 1e6 + 0.5) / 1e6 AS max_norm
FROM n JOIN documents d ON d.doc_id = n.vec_id
GROUP BY 1 ORDER BY 1"""


def knn_pagerank_sql(k: int, damping: float, iters: int) -> str:
    """Fixed-iteration PageRank over the exact k-NN graph: the power
    update as a materialized CTE chain (one round per iteration, the
    geo_clusters pattern), base/init/contribution terms mirrored against
    the engine, scores floor-rounded to 6 dp at the end only."""
    base = f"{1.0 - damping!r} / nn.n"
    parts = [f"""
s AS (
  SELECT a.vec_id, b.vec_id AS neighbor_id,
         list_cosine_similarity(a.embedding, b.embedding) AS sim
  FROM embeddings a JOIN embeddings b ON a.vec_id <> b.vec_id),
edges AS MATERIALIZED (
  SELECT vec_id AS src, neighbor_id AS dst
  FROM (SELECT *, row_number() OVER (
          PARTITION BY vec_id ORDER BY sim DESC, neighbor_id) AS rn
        FROM s)
  WHERE rn <= {k}),
deg AS (SELECT src, CAST(count(*) AS BIGINT) AS outdeg
        FROM edges GROUP BY 1),
nodes AS (SELECT DISTINCT node FROM
          (SELECT src AS node FROM edges
           UNION ALL SELECT dst FROM edges)),
nn AS (SELECT CAST(count(*) AS DOUBLE) AS n FROM nodes),
r0 AS (SELECT node, 1.0 / nn.n AS val FROM nodes CROSS JOIN nn)"""]
    for t in range(1, iters + 1):
        parts.append(f"""
c{t} AS (SELECT e.dst AS node,
                sum({damping!r} * r.val / deg.outdeg) AS s
         FROM edges e JOIN r{t - 1} r ON r.node = e.src
         JOIN deg ON deg.src = e.src GROUP BY 1),
r{t} AS MATERIALIZED (
  SELECT n.node, {base} + coalesce(c.s, 0.0) AS val
  FROM nodes n CROSS JOIN nn LEFT JOIN c{t} c ON c.node = n.node)""")
    return "WITH " + ",".join(parts) + f"""
SELECT node AS vec_id, floor(val * 1e6 + 0.5) / 1e6 AS pagerank
FROM r{iters} ORDER BY vec_id"""


def events_anomalies_sql(z_thresh: float) -> str:
    """Per-type z-score outliers, population moments mirrored
    term-for-term (mean = s/n, std = sqrt(max(ss/n - mean^2, 0)) with
    the 1e-30 floor), z rounded to 6 dp before the threshold."""
    return f"""
WITH m AS (
  SELECT event_type,
         sum(value) / count(*) AS mean,
         greatest(sqrt(greatest(sum(value * value) / count(*)
                                - (sum(value) / count(*))
                                  * (sum(value) / count(*)), 0.0)),
                  1e-30) AS std
  FROM events GROUP BY event_type
), z AS (
  SELECT e.event_id, e.event_type, e.value,
         floor((e.value - m.mean) / m.std * 1e6 + 0.5) / 1e6 AS z
  FROM events e JOIN m USING (event_type)
)
SELECT event_id, event_type, value, z FROM z
WHERE abs(z) >= {z_thresh!r} ORDER BY event_id"""


def events_daily_trend_sql(x0: int) -> str:
    """Per-type OLS trend of daily event counts.  The sufficient
    statistics (n, sx, sy, sxy, sxx over the centered day index) are
    INTEGER-exact on both sides, so reduction order is irrelevant; the
    closed-form slope/intercept divisions are mirrored term-for-term
    (single-day types: slope 0, intercept = day mean) and floor-rounded
    to 6 dp."""
    return f"""
WITH daily AS (
  SELECT event_type,
         datediff('day', DATE '1970-01-01', CAST(ts AS DATE))
           - {x0} AS x,
         CAST(count(*) AS BIGINT) AS y
  FROM events GROUP BY 1, 2
), s AS (
  SELECT event_type,
         CAST(count(*) AS BIGINT) AS n_days,
         CAST(sum(y) AS BIGINT) AS sy,
         CAST(sum(x) AS BIGINT) AS sx,
         CAST(sum(x * y) AS BIGINT) AS sxy,
         CAST(sum(x * x) AS BIGINT) AS sxx
  FROM daily GROUP BY 1
), fit AS (
  SELECT event_type, n_days, sy, sx,
         CASE WHEN n_days * sxx - sx * sx > 0
              THEN CAST(n_days * sxy - sx * sy AS DOUBLE)
                   / CAST(n_days * sxx - sx * sx AS DOUBLE)
              ELSE 0.0 END AS slope_raw
  FROM s
)
SELECT event_type, n_days, sy AS n_events,
       floor(slope_raw * 1e6 + 0.5) / 1e6 AS slope,
       floor((CAST(sy AS DOUBLE) - slope_raw * CAST(sx AS DOUBLE))
             / n_days * 1e6 + 0.5) / 1e6 AS intercept
FROM fit ORDER BY event_type"""


def kmeans_1iter_sql(k: int) -> str:
    """One Lloyd iteration from fixed seeds (the k lowest vec_ids'
    normalized vectors): nearest-seed assignment (max cosine == min
    squared distance on unit vectors, ties to the lowest cluster index,
    the kernel's argmin order) then the per-(cluster, dim) mean of the
    NORMALIZED components, 6-dp floor rounding on both sides."""
    return f"""
WITH seeds AS (
  SELECT CAST(row_number() OVER (ORDER BY vec_id) - 1 AS BIGINT) AS cluster,
         embedding AS se
  FROM embeddings WHERE vec_id < {k}
), assign AS (
  SELECT vec_id, cluster FROM (
    SELECT e.vec_id, s.cluster,
           row_number() OVER (
             PARTITION BY e.vec_id
             ORDER BY list_cosine_similarity(e.embedding, s.se) DESC,
                      s.cluster) AS rn
    FROM embeddings e CROSS JOIN seeds s)
  WHERE rn = 1
), comp AS (
  SELECT e.vec_id, CAST(u.i - 1 AS BIGINT) AS dim_idx,
         CAST(e.embedding[u.i] AS DOUBLE)
           / greatest(sqrt(list_sum(list_transform(
                 e.embedding, x -> CAST(x AS DOUBLE) * CAST(x AS DOUBLE)))),
               1e-30) AS xn
  FROM embeddings e, unnest(range(1, len(e.embedding) + 1)) AS u(i)
)
SELECT a.cluster, c.dim_idx,
       floor(sum(c.xn) / count(*) * 1e6 + 0.5) / 1e6 AS centroid,
       CAST(count(*) AS BIGINT) AS n_vecs
FROM assign a JOIN comp c USING (vec_id)
GROUP BY a.cluster, c.dim_idx
ORDER BY cluster, dim_idx"""


def _pq_cte(m: int, ksub: int, dsub: int) -> str:
    """Shared CTE fragment: sampled codebook (centroid j of subspace s =
    raw subvector of vec_id j — the engine's data-derived convention) and
    squared-L2 argmin codes, ties to the lowest centroid index."""
    return f"""
cb AS (SELECT vec_id AS j, embedding AS ce FROM embeddings
       WHERE vec_id < {ksub}),
cdiffs AS (
  SELECT e.vec_id, u.s AS sub, cb.j,
         CAST(e.embedding[CAST(u.s * {dsub} + t.i + 1 AS BIGINT)] AS DOUBLE)
         - CAST(cb.ce[CAST(u.s * {dsub} + t.i + 1 AS BIGINT)] AS DOUBLE)
           AS df
  FROM embeddings e
  CROSS JOIN cb
  CROSS JOIN unnest(range({m})) AS u(s)
  CROSS JOIN unnest(range({dsub})) AS t(i)),
cdist AS (SELECT vec_id, CAST(sub AS BIGINT) AS sub, j,
                 sum(df * df) AS d2
          FROM cdiffs GROUP BY 1, 2, 3),
codes AS (
  SELECT vec_id, sub, CAST(j AS BIGINT) AS code
  FROM (SELECT *, row_number() OVER (PARTITION BY vec_id, sub
                                     ORDER BY d2, j) AS rn FROM cdist)
  WHERE rn = 1)"""


def diversity_sample_sql(k: int, dim: int = 64) -> str:
    """Gonzalez k-center greedy unrolled to k-1 fixed rounds (the
    ``knn_pagerank`` fixed-iteration CTE-chain pattern): per round, the
    squared-L2 distance of every unchosen vector to every chosen one —
    6-dp floor-rounded per (vector, center) BEFORE the min, exactly the
    engine's order of operations — min'd, then the argmax by (mind
    DESC, vec_id) joins the chosen set."""
    parts = [f"""
ch0 AS (SELECT min(vec_id) AS cid FROM embeddings),
sel0 AS (SELECT CAST(0 AS BIGINT) AS step, cid AS vec_id,
                0.0 AS min_d2 FROM ch0)"""]
    for t in range(1, k):
        parts.append(f"""
pd{t} AS MATERIALIZED (
  SELECT e.vec_id AS vid, c.cid AS cid,
         floor(sum((CAST(e.embedding[u.i + 1] AS DOUBLE)
                    - CAST(ce.embedding[u.i + 1] AS DOUBLE))
                   * (CAST(e.embedding[u.i + 1] AS DOUBLE)
                      - CAST(ce.embedding[u.i + 1] AS DOUBLE)))
               * 1e6 + 0.5) / 1e6 AS d2
  FROM embeddings e
  CROSS JOIN ch{t - 1} c
  JOIN embeddings ce ON ce.vec_id = c.cid
  CROSS JOIN unnest(range({dim})) AS u(i)
  WHERE e.vec_id NOT IN (SELECT cid FROM ch{t - 1})
  GROUP BY 1, 2),
new{t} AS MATERIALIZED (
  SELECT vid, min(d2) AS mind FROM pd{t} GROUP BY 1
  ORDER BY mind DESC, vid LIMIT 1),
ch{t} AS MATERIALIZED (SELECT cid FROM ch{t - 1}
                       UNION ALL SELECT vid FROM new{t}),
sel{t} AS (SELECT CAST({t} AS BIGINT) AS step, vid AS vec_id,
                  mind AS min_d2 FROM new{t})""")
    sels = " UNION ALL ".join(f"SELECT * FROM sel{t}" for t in range(k))
    return "WITH " + ",".join(parts) + f"""
SELECT step, vec_id, min_d2 FROM ({sels}) ORDER BY step"""


def pq_encode_sql(m: int, ksub: int, dim: int = 64) -> str:
    """PQ codes, one row per (vec, subspace)."""
    return ("WITH " + _pq_cte(m, ksub, dim // m)
            + "\nSELECT vec_id, sub, code FROM codes ORDER BY vec_id, sub")


def pq_topk_adc_sql(k: int, n_queries: int, m: int, ksub: int,
                    dim: int = 64) -> str:
    """Asymmetric-distance top-k: exact per-query LUT of subspace
    distances to the codebook, summed over each database vector's codes,
    6-dp floor-rounded before ranking (ties neighbor asc, self
    excluded)."""
    dsub = dim // m
    return "WITH " + _pq_cte(m, ksub, dsub) + f""",
q AS (SELECT vec_id AS qid, embedding AS qe FROM embeddings
      WHERE vec_id < {n_queries}),
ldiffs AS (
  SELECT q.qid, u.s AS sub, cb.j,
         CAST(q.qe[CAST(u.s * {dsub} + t.i + 1 AS BIGINT)] AS DOUBLE)
         - CAST(cb.ce[CAST(u.s * {dsub} + t.i + 1 AS BIGINT)] AS DOUBLE)
           AS df
  FROM q CROSS JOIN cb
  CROSS JOIN unnest(range({m})) AS u(s)
  CROSS JOIN unnest(range({dsub})) AS t(i)),
lut AS (SELECT qid, CAST(sub AS BIGINT) AS sub, j, sum(df * df) AS d2
        FROM ldiffs GROUP BY 1, 2, 3),
scored AS (
  SELECT l.qid AS query_id, c.vec_id AS neighbor_id,
         floor(sum(l.d2) * 1e6 + 0.5) / 1e6 AS adist
  FROM codes c JOIN lut l ON l.sub = c.sub AND l.j = c.code
  GROUP BY 1, 2)
SELECT query_id, neighbor_id, adist, CAST(rn AS BIGINT) AS rank
FROM (SELECT *, row_number() OVER (PARTITION BY query_id
                                   ORDER BY adist, neighbor_id) AS rn
      FROM scored WHERE neighbor_id <> query_id)
WHERE rn <= {k} ORDER BY query_id, rank"""


# ---------------------------------------------------------------------------
# geo_clusters oracle (DBSCAN over named-CTV points)
# ---------------------------------------------------------------------------

def _geo_clusters_members_with(d: str, eps_km: float, min_pts: int) -> str:
    """Shared WITH-body through the ``members``/``named`` CTEs —
    ``geo_clusters_sql`` decodes members, ``geo_cluster_stats_sql``
    aggregates them per cluster."""
    hav = haversine_sql("a.lat", "a.lon", "b.lat", "b.lon")
    band = eps_km / 111.0
    closure = components_ctes("""SELECT na, nb FROM pairs
  WHERE na IN (SELECT node FROM core) AND nb IN (SELECT node FROM core)""",
                              "SELECT node FROM core")
    return f"""WITH RECURSIVE
flat AS (SELECT * FROM read_parquet({q(d + '/flat.parquet')})),
named AS (
  SELECT osm_id*4 + CASE entity_type WHEN 'node' THEN 0
                                     WHEN 'way' THEN 1 ELSE 2 END AS node,
         lat, lon
  FROM (SELECT f.*, row_number() OVER (PARTITION BY doc_id
                                       ORDER BY seq DESC) AS rn
        FROM flat f
        WHERE map_slug = 'serbia_pbf'
          AND place IN ('city','town','village') AND name IS NOT NULL)
  WHERE rn = 1),
pairs AS MATERIALIZED (
  SELECT a.node AS na, b.node AS nb FROM named a JOIN named b
  ON b.lat BETWEEN a.lat - {band!r} AND a.lat + {band!r}
  WHERE a.node < b.node AND {hav} <= {eps_km!r}),
deg AS (SELECT node, count(*) AS c FROM
        (SELECT na AS node FROM pairs UNION ALL SELECT nb FROM pairs)
        GROUP BY 1),
core AS MATERIALIZED (SELECT node FROM deg WHERE c >= {min_pts - 1}),
{closure},
mixed AS (
  SELECT nb AS x, na AS c FROM pairs
  WHERE na IN (SELECT node FROM core)
    AND nb NOT IN (SELECT node FROM core)
  UNION ALL
  SELECT na AS x, nb AS c FROM pairs
  WHERE nb IN (SELECT node FROM core)
    AND na NOT IN (SELECT node FROM core)),
border AS (SELECT m.x AS node, min(j.l) AS cl FROM mixed m
           JOIN labels j ON j.node = m.c GROUP BY m.x),
members AS (SELECT node, l AS cluster_id, TRUE AS is_core FROM labels
            UNION ALL
            SELECT node, cl AS cluster_id, FALSE AS is_core FROM border)"""


def geo_clusters_sql(d: str, eps_km: float, min_pts: int,
                     rounds: int = 48) -> str:
    """DBSCAN: eps-pairs via a lat-band IEJoin prefilter (|dlat deg| <=
    eps/111.0 is a strict superset of hav <= eps, since 1 deg lat >=
    111.195 km) + exact haversine gate; degree -> core set; connected
    components of the core-core graph (``components_ctes``); border
    points take the MINIMUM core-neighbor label (the deterministic
    variant the engine implements)."""
    # ``rounds`` is ignored: the closure stops at its own fixpoint
    return _geo_clusters_members_with(d, eps_km, min_pts) + """
SELECT CAST(node // 4 AS BIGINT) AS osm_id,
       CASE node % 4 WHEN 0 THEN 'node' WHEN 1 THEN 'way'
            ELSE 'relation' END AS entity_type,
       cluster_id, is_core,
       CAST(count(*) OVER (PARTITION BY cluster_id) AS BIGINT)
           AS cluster_size
FROM members ORDER BY osm_id, entity_type"""


def geo_cluster_stats_sql(d: str, eps_km: float, min_pts: int) -> str:
    """Per-cluster aggregation of the DBSCAN members: point/core counts,
    exact bounding box (min/max pass coordinates through untouched) and
    the centroid as sum/count mirrored against the engine's moment
    reduce, 6-dp floor-rounded.  The sums are Kahan-compensated in
    member-node order (``fsum ... ORDER BY``), like the engine's pandas
    groupby sum: a plain double sum follows whatever row order the join
    delivers, and a mean on a 6-dp half-way point flips with it."""
    return _geo_clusters_members_with(d, eps_km, min_pts) + """
SELECT m.cluster_id,
       CAST(count(*) AS BIGINT) AS n_points,
       CAST(sum(CASE WHEN m.is_core THEN 1 ELSE 0 END) AS BIGINT)
           AS n_core,
       floor(fsum(p.lat ORDER BY m.node) / count(*) * 1e6 + 0.5)
           / 1e6 AS centroid_lat,
       floor(fsum(p.lon ORDER BY m.node) / count(*) * 1e6 + 0.5)
           / 1e6 AS centroid_lon,
       min(p.lat) AS lat_min, max(p.lat) AS lat_max,
       min(p.lon) AS lon_min, max(p.lon) AS lon_max
FROM members m JOIN named p ON p.node = m.node
GROUP BY 1 ORDER BY 1"""


def geo_cluster_diameter_sql(d: str, eps_km: float, min_pts: int) -> str:
    """Exact per-cluster diameter: within-cluster self-join (node_a <
    node_b), haversine 6-dp floor-rounded BEFORE the argmax (so ties
    are well-defined across engines), winner by row_number over
    (dist DESC, node_a, node_b) — the engine's lexicographic
    tie-break."""
    hav = haversine_sql("pa.lat", "pa.lon", "pb.lat", "pb.lon")
    return _geo_clusters_members_with(d, eps_km, min_pts) + f""",
dpairs AS (
  SELECT m1.cluster_id,
         floor({hav} * 1e6 + 0.5) / 1e6 AS dist,
         m1.node AS na, m2.node AS nb
  FROM members m1 JOIN members m2
    ON m2.cluster_id = m1.cluster_id AND m1.node < m2.node
  JOIN named pa ON pa.node = m1.node
  JOIN named pb ON pb.node = m2.node),
best AS (
  SELECT cluster_id, dist, na, nb,
         row_number() OVER (PARTITION BY cluster_id
                            ORDER BY dist DESC, na, nb) AS rn
  FROM dpairs),
sizes AS (SELECT cluster_id, CAST(count(*) AS BIGINT) AS n_points
          FROM members GROUP BY 1)
SELECT b.cluster_id, s.n_points, b.dist AS diam_km,
       b.na // 4 AS osm_id_a,
       CASE b.na % 4 WHEN 0 THEN 'node' WHEN 1 THEN 'way'
            ELSE 'relation' END AS entity_type_a,
       b.nb // 4 AS osm_id_b,
       CASE b.nb % 4 WHEN 0 THEN 'node' WHEN 1 THEN 'way'
            ELSE 'relation' END AS entity_type_b
FROM best b JOIN sizes s ON s.cluster_id = b.cluster_id
WHERE b.rn = 1 ORDER BY b.cluster_id"""


def geo_range_join_sql(d: str, eps_km: float) -> str:
    """Distance-band self-join over the named-CTV points: the same
    lat-band IEJoin prefilter as ``geo_clusters_sql`` (|dlat deg| <=
    eps/111.0 strictly covers hav <= eps + the 5e-7 km rounding slack,
    since 1 deg lat >= 111.195 km), then the exact haversine 6-dp
    floor-rounded BEFORE the eps gate — mirroring the engine kernel so
    trig ulps cannot flip a boundary pair."""
    hav = haversine_sql("a.lat", "a.lon", "b.lat", "b.lon")
    band = eps_km / 111.0
    etype = ("CASE {n} % 4 WHEN 0 THEN 'node' WHEN 1 THEN 'way' "
             "ELSE 'relation' END")
    return f"""
WITH flat AS (SELECT * FROM read_parquet({q(d + '/flat.parquet')})),
named AS (
  SELECT osm_id*4 + CASE entity_type WHEN 'node' THEN 0
                                     WHEN 'way' THEN 1 ELSE 2 END AS node,
         lat, lon
  FROM (SELECT f.*, row_number() OVER (PARTITION BY doc_id
                                       ORDER BY seq DESC) AS rn
        FROM flat f
        WHERE map_slug = 'serbia_pbf'
          AND place IN ('city','town','village') AND name IS NOT NULL)
  WHERE rn = 1)
SELECT CAST(a.node // 4 AS BIGINT) AS osm_id_a,
       {etype.format(n='a.node')} AS entity_type_a,
       CAST(b.node // 4 AS BIGINT) AS osm_id_b,
       {etype.format(n='b.node')} AS entity_type_b,
       floor({hav} * 1e6 + 0.5) / 1e6 AS dist_km
FROM named a JOIN named b
  ON b.lat BETWEEN a.lat - {band!r} AND a.lat + {band!r}
WHERE a.node < b.node AND floor({hav} * 1e6 + 0.5) / 1e6 <= {eps_km!r}
ORDER BY 1, 2, 3, 4"""


def cell_pyramid_sql(d: str, res: int) -> str:
    """Multi-res tile pyramid: per-res direct cell formula — equal to
    the engine's parent rollup since floor(floor(2y)/2) == floor(y) and
    the edge clips commute with the halving."""
    sels = [f"""SELECT CAST({r} AS BIGINT) AS res,
       {cell_sql(r)} AS cell_id, CAST(count(*) AS BIGINT) AS n_docs
FROM base GROUP BY 2""" for r in (res, res - 1, res - 2)]
    return (f"WITH {base_ctes(d)}\n" + "\nUNION ALL\n".join(sels)
            + "\nORDER BY res, cell_id")


def raster_polygonize_sql(d: str, res: int, k: int) -> str:
    """4-connected regions of the above-threshold band cells:
    exact-integer threshold (density * n_occupied >= k * total),
    grid-step edges, and the connected components of
    ``components_ctes``."""
    n = 1 << res
    closure = components_ctes(f"""
  SELECT a.cell, b.cell FROM sel a
  JOIN sel b ON b.cell = a.cell + 1 WHERE a.cell % {n} <> {n - 1}
  UNION ALL
  SELECT a.cell, b.cell FROM sel a JOIN sel b ON b.cell = a.cell + {n}""",
                              "SELECT cell FROM sel")
    return f"""WITH RECURSIVE {base_ctes(d)},
band AS (SELECT {cell_sql(res)} AS cell, CAST(count(*) AS BIGINT)
             AS density FROM base GROUP BY 1),
tot AS (SELECT sum(density) AS total, count(*) AS m FROM band),
sel AS MATERIALIZED (SELECT b.cell, b.density FROM band b, tot
                     WHERE b.density * tot.m >= {k} * tot.total),
{closure}
SELECT j.l AS region_id, CAST(count(*) AS BIGINT) AS n_cells,
       CAST(sum(s.density) AS BIGINT) AS total_density,
       CAST(min(s.cell % {n}) AS BIGINT) AS ix_min,
       CAST(max(s.cell % {n}) AS BIGINT) AS ix_max,
       CAST(min(s.cell // {n}) AS BIGINT) AS iy_min,
       CAST(max(s.cell // {n}) AS BIGINT) AS iy_max
FROM labels j JOIN sel s ON s.cell = j.node
GROUP BY 1 ORDER BY 1"""


def dedup_cosine_clusters_sql(tau: float) -> str:
    """Connected components over the exact cosine pair set
    (``components_ctes``)."""
    return f"""
WITH RECURSIVE {components_ctes(cosine_pairs_sql(tau))}
SELECT node AS vec_id, l AS cluster_id,
       CAST(count(*) OVER (PARTITION BY l) AS BIGINT) AS cluster_size
FROM labels ORDER BY vec_id"""


def embedding_project_sql(r) -> str:
    """JL projection oracle: the +-1 Rademacher matrix rides in as an
    integer VALUES table (exact); the projected component is
    SUM(x_i * r_ij) / sqrt(out_dim) with out_dim a power of two, floored
    at 6 dp on both sides."""
    import numpy as np
    dim, out_dim = r.shape
    assert float(np.sqrt(out_dim)).is_integer(), "out_dim must be square"
    s = int(np.sqrt(out_dim))
    vals = ",".join(f"({i},{j},{int(r[i, j])})"
                    for i in range(dim) for j in range(out_dim))
    return f"""
WITH r(i, j, v) AS (VALUES {vals}),
comp AS (
  SELECT e.vec_id, CAST(u.i - 1 AS BIGINT) AS i,
         CAST(e.embedding[u.i] AS DOUBLE) AS x
  FROM embeddings e, unnest(range(1, len(e.embedding) + 1)) AS u(i))
SELECT c.vec_id, CAST(r.j AS BIGINT) AS dim_idx,
       floor(sum(c.x * r.v) / {s} * 1e6 + 0.5) / 1e6 AS value
FROM comp c JOIN r ON r.i = c.i
GROUP BY 1, 2 ORDER BY 1, 2"""


# ---------------------------------------------------------------------------
# grid spatial statistics (osmlint/geostats.py)
# ---------------------------------------------------------------------------

def _counts_cte(res: int) -> str:
    return (f"counts AS (\n  SELECT {cell_sql(res)} AS cell_id,"
            " CAST(count(*) AS BIGINT) AS n\n  FROM base GROUP BY 1\n)")


def _queen_join(res: int, include_self: bool) -> str:
    """3x3 adjacency between occupied cells on (ix, iy) deltas."""
    n = 1 << res
    cond = (f"abs((a.cell_id % {n}) - (b.cell_id % {n})) <= 1\n"
            f"   AND abs((a.cell_id // {n}) - (b.cell_id // {n})) <= 1")
    if not include_self:
        cond += "\n   AND a.cell_id <> b.cell_id"
    return cond


def moran_i_sql(d: str, res: int) -> str:
    """Global Moran's I from exact-integer moments over directed queen
    neighbor pairs of occupied cells — HUGEINT accumulation (a BIGINT
    product of two per-cell counts can wrap), then the identical
    closed-form expression tree as ``geostats.moran_i`` and 6-dp floor
    rounding.  Empty when S0 = 0 or the count variance is zero."""
    return f"""
WITH {base_ctes(d)},
{_counts_cte(res)},
pairs AS (
  SELECT a.n AS na, b.n AS nb
  FROM counts a JOIN counts b
    ON {_queen_join(res, include_self=False)}
),
mom AS (
  SELECT CAST(coalesce(sum(CAST(na AS HUGEINT) * nb), 0) AS DOUBLE) AS am,
         CAST(coalesce(sum(CAST(na AS HUGEINT) + nb), 0) AS DOUBLE) AS bm,
         CAST(count(*) AS BIGINT) AS s0
  FROM pairs
),
gmom AS (
  SELECT CAST(count(*) AS BIGINT) AS n,
         CAST(sum(CAST(n AS HUGEINT)) AS DOUBLE) AS td,
         CAST(sum(CAST(n AS HUGEINT) * n) AS DOUBLE) AS sqd
  FROM counts
)
SELECT g.n AS n_cells, m.s0 AS s0,
       floor(((CAST(g.n AS DOUBLE) / m.s0)
              * ((m.am - (g.td / g.n) * m.bm
                  + (g.td / g.n) * (g.td / g.n) * m.s0)
                 / (g.sqd - g.n * (g.td / g.n) * (g.td / g.n))))
             * 1e6 + 0.5) / 1e6 AS moran_i
FROM gmom g, mom m
WHERE g.n > 0 AND m.s0 > 0
  AND (g.sqd - g.n * (g.td / g.n) * (g.td / g.n)) <> 0"""


def gi_star_sql(d: str, res: int) -> str:
    """Getis-Ord Gi* per occupied cell (3x3 incl. self over occupied
    cells): integer (t, w) from the queen self-join, global moments in
    HUGEINT->DOUBLE, the same z expression tree as ``geostats.gi_star``
    (degenerate rows filtered, not NULLed), 6-dp floor rounding."""
    return f"""
WITH {base_ctes(d)},
{_counts_cte(res)},
nbr AS (
  SELECT a.cell_id, a.n,
         CAST(sum(b.n) AS BIGINT) AS t, CAST(count(*) AS BIGINT) AS w
  FROM counts a JOIN counts b
    ON {_queen_join(res, include_self=True)}
  GROUP BY 1, 2
),
gmom AS (
  SELECT CAST(count(*) AS BIGINT) AS n,
         CAST(sum(CAST(n AS HUGEINT)) AS DOUBLE) AS td,
         CAST(sum(CAST(n AS HUGEINT) * n) AS DOUBLE) AS sqd
  FROM counts
)
SELECT nbr.cell_id, nbr.n AS n_docs,
       floor(((CAST(nbr.t AS DOUBLE) - (g.td / g.n) * nbr.w)
              / (sqrt(g.sqd / g.n - (g.td / g.n) * (g.td / g.n))
                 * sqrt(CAST(g.n * nbr.w - nbr.w * nbr.w AS DOUBLE)
                        / (g.n - 1.0))))
             * 1e6 + 0.5) / 1e6 AS gi_z
FROM nbr, gmom g
WHERE g.n > 1
  AND (g.sqd / g.n - (g.td / g.n) * (g.td / g.n)) > 0
  AND g.n * nbr.w - nbr.w * nbr.w > 0
ORDER BY nbr.cell_id"""


def kde_heatmap_sql(d: str, res: int, cutoff_km: float,
                    lat_step: float, lon_step: float) -> str:
    """Quartic-kernel density at cell centers: each point's 9 candidate
    neighbor cells (the 3x3 window covers every center within the
    cutoff — see ``geostats.kde_heatmap``), haversine 6-dp floor-rounded
    BEFORE the cutoff gate, weight quantized to an integer micro-weight
    BEFORE the sum — so engine/oracle sums are exact-integer-equal."""
    n = 1 << res
    clat = f"(90.0 - (jy + 0.5) * {lat_step!r})"
    clon = f"((jx + 0.5) * {lon_step!r} - 180.0)"
    hav = haversine_sql("lat", "lon", clat, clon)
    return f"""
WITH {base_ctes(d)},
pts AS (
  SELECT lat, lon,
         {cell_sql(res)} % {n} AS ix, {cell_sql(res)} // {n} AS iy
  FROM base
),
offs AS (
  SELECT dx.x AS dx, dy.y AS dy
  FROM (VALUES (-1), (0), (1)) dx(x), (VALUES (-1), (0), (1)) dy(y)
),
cand AS (
  SELECT p.lat, p.lon, p.ix + o.dx AS jx, p.iy + o.dy AS jy
  FROM pts p CROSS JOIN offs o
  WHERE p.ix + o.dx >= 0 AND p.ix + o.dx < {n}
    AND p.iy + o.dy >= 0 AND p.iy + o.dy < {n}
),
dd AS (
  SELECT jy * {n} + jx AS cell_id,
         floor({hav} * 1e6 + 0.5) / 1e6 AS dist
  FROM cand
),
wts AS (
  SELECT cell_id,
         (1.0 - (dist / {cutoff_km!r}) * (dist / {cutoff_km!r})) AS t
  FROM dd WHERE dist <= {cutoff_km!r}
),
micro AS (
  SELECT cell_id,
         CAST(floor(t * t * 1000000.0 + 0.5) AS BIGINT) AS m
  FROM wts
)
SELECT cell_id, CAST(count(*) AS BIGINT) AS n_pts,
       CAST(sum(m) AS BIGINT) AS kde_micro,
       CAST(CAST(sum(m) AS BIGINT) AS DOUBLE) / 1000000.0 AS kde
FROM micro GROUP BY 1 ORDER BY 1"""


def kernel_surface_sql(d: str, res: int, cutoff_km: float,
                       lat_step: float, lon_step: float) -> str:
    """Nadaraya-Watson quartic-kernel regression of name length at cell
    centers — same 3x3 candidate window, 6-dp-before-gate rounding and
    integer micro-weight quantization as ``kde_heatmap_sql``; the
    value-weighted sum is the exact integer product m * val, so both
    sums are bit-equal and only the final division is float."""
    n = 1 << res
    clat = f"(90.0 - (jy + 0.5) * {lat_step!r})"
    clon = f"((jx + 0.5) * {lon_step!r} - 180.0)"
    hav = haversine_sql("lat", "lon", clat, clon)
    return f"""
WITH {base_ctes(d)},
pts AS (
  SELECT lat, lon, CAST(length(name) AS BIGINT) AS val,
         {cell_sql(res)} % {n} AS ix, {cell_sql(res)} // {n} AS iy
  FROM base WHERE name IS NOT NULL
),
offs AS (
  SELECT dx.x AS dx, dy.y AS dy
  FROM (VALUES (-1), (0), (1)) dx(x), (VALUES (-1), (0), (1)) dy(y)
),
cand AS (
  SELECT p.lat, p.lon, p.val, p.ix + o.dx AS jx, p.iy + o.dy AS jy
  FROM pts p CROSS JOIN offs o
  WHERE p.ix + o.dx >= 0 AND p.ix + o.dx < {n}
    AND p.iy + o.dy >= 0 AND p.iy + o.dy < {n}
),
dd AS (
  SELECT jy * {n} + jx AS cell_id, val,
         floor({hav} * 1e6 + 0.5) / 1e6 AS dist
  FROM cand
),
wts AS (
  SELECT cell_id, val,
         (1.0 - (dist / {cutoff_km!r}) * (dist / {cutoff_km!r})) AS t
  FROM dd WHERE dist <= {cutoff_km!r}
),
micro AS (
  SELECT cell_id, val,
         CAST(floor(t * t * 1000000.0 + 0.5) AS BIGINT) AS m
  FROM wts
),
s AS (
  SELECT cell_id, CAST(count(*) AS BIGINT) AS n_pts,
         CAST(sum(m) AS BIGINT) AS w_micro,
         CAST(sum(m * val) AS BIGINT) AS wv_micro
  FROM micro GROUP BY 1
)
SELECT cell_id, n_pts, w_micro, wv_micro,
       CAST(wv_micro AS DOUBLE) / CAST(w_micro AS DOUBLE) AS surface
FROM s WHERE w_micro > 0 ORDER BY cell_id"""


def ripley_k_sql(d: str, eps_km: float, bins: tuple) -> str:
    """Ripley's K bins over the same deduped named-CTV pair set as
    ``geo_range_join_sql`` (lat-band prefilter, haversine 6-dp
    floor-rounded BEFORE every gate); per-bin cumulative pair counts
    via a bins x pairs <= join, zero bins kept, and the identical
    (2.0*cnt)/(n*n) normalizer — all-integer sums, no float rounding
    needed."""
    hav = haversine_sql("a.lat", "a.lon", "b.lat", "b.lon")
    band = eps_km / 111.0
    vals = ", ".join(f"(CAST({b!r} AS DOUBLE))" for b in bins)
    return f"""
WITH flat AS (SELECT * FROM read_parquet({q(d + '/flat.parquet')})),
named AS (
  SELECT osm_id*4 + CASE entity_type WHEN 'node' THEN 0
                                     WHEN 'way' THEN 1 ELSE 2 END AS node,
         lat, lon
  FROM (SELECT f.*, row_number() OVER (PARTITION BY doc_id
                                       ORDER BY seq DESC) AS rn
        FROM flat f
        WHERE map_slug = 'serbia_pbf'
          AND place IN ('city','town','village') AND name IS NOT NULL)
  WHERE rn = 1),
pairs AS (
  SELECT floor({hav} * 1e6 + 0.5) / 1e6 AS dist
  FROM named a JOIN named b
    ON b.lat BETWEEN a.lat - {band!r} AND a.lat + {band!r}
  WHERE a.node < b.node
    AND floor({hav} * 1e6 + 0.5) / 1e6 <= {eps_km!r}),
bins(r_km) AS (VALUES {vals}),
cnt AS (
  SELECT bins.r_km,
         CAST(count(pairs.dist) AS BIGINT) AS n_pairs
  FROM bins LEFT JOIN pairs ON pairs.dist <= bins.r_km
  GROUP BY 1),
np AS (SELECT CAST(count(*) AS BIGINT) AS n FROM named)
SELECT c.r_km, c.n_pairs,
       (2.0 * CAST(c.n_pairs AS DOUBLE)) / (np.n * np.n) AS k_over_a
FROM cnt c, np ORDER BY c.r_km"""


def _named_ctv_cte(d: str, *, with_val: bool = False) -> str:
    """Deduped named-CTV `named` CTE shared by the eps-pair oracles
    (mirrors ``dupnames.named_ctv_deduped`` + ``geocluster._to_nodes``);
    ``with_val`` adds the character-length attribute the semivariogram
    measures (DuckDB ``length(varchar)`` counts code points — the same
    count ``pyarrow.compute.utf8_length`` returns)."""
    val = ",\n         CAST(length(name) AS BIGINT) AS val" if with_val \
        else ""
    return f"""flat AS (SELECT * FROM read_parquet({q(d + '/flat.parquet')})),
named AS (
  SELECT osm_id*4 + CASE entity_type WHEN 'node' THEN 0
                                     WHEN 'way' THEN 1 ELSE 2 END AS node,
         lat, lon{val}
  FROM (SELECT f.*, row_number() OVER (PARTITION BY doc_id
                                       ORDER BY seq DESC) AS rn
        FROM flat f
        WHERE map_slug = 'serbia_pbf'
          AND place IN ('city','town','village') AND name IS NOT NULL)
  WHERE rn = 1)"""


def semivariogram_sql(d: str, eps_km: float, bins: tuple) -> str:
    """Matheron semivariogram of name length over the same deduped
    named-CTV pair set as ``ripley_k_sql`` (lat-band prefilter,
    haversine 6-dp floor-rounded BEFORE the gate); each pair lands in
    the smallest bin edge >= dist (the engine's ``searchsorted``
    side='left'), only non-empty bins survive (rows come FROM pairs),
    and gamma is the identical expression tree
    CAST(sq_sum AS DOUBLE) / (2.0 * CAST(n_pairs AS DOUBLE)) over
    exact-integer sums — no float rounding needed."""
    hav = haversine_sql("a.lat", "a.lon", "b.lat", "b.lon")
    band = eps_km / 111.0
    vals = ", ".join(f"(CAST({b!r} AS DOUBLE))" for b in bins)
    return f"""
WITH {_named_ctv_cte(d, with_val=True)},
pairs AS (
  SELECT floor({hav} * 1e6 + 0.5) / 1e6 AS dist,
         (a.val - b.val) * (a.val - b.val) AS sq
  FROM named a JOIN named b
    ON b.lat BETWEEN a.lat - {band!r} AND a.lat + {band!r}
  WHERE a.node < b.node
    AND floor({hav} * 1e6 + 0.5) / 1e6 <= {max(bins)!r}),
bins(r_km) AS (VALUES {vals}),
binned AS (
  SELECT (SELECT min(bn.r_km) FROM bins bn WHERE bn.r_km >= p.dist)
           AS r_km,
         p.sq
  FROM pairs p)
SELECT r_km, CAST(count(*) AS BIGINT) AS n_pairs,
       CAST(sum(sq) AS BIGINT) AS sq_sum,
       CAST(sum(sq) AS DOUBLE) / (2.0 * CAST(count(*) AS DOUBLE)) AS gamma
FROM binned GROUP BY 1 ORDER BY 1"""


def nn_stats_sql(d: str, eps_km: float) -> str:
    """Nearest-neighbor stats within the eps band: per-node min of the
    integer micro-km distance over BOTH directions of the (rounded-gate)
    eps-pair set, then one aggregate row — counts stay integers, the
    float conversions mirror the engine's single final-row expression
    tree (``/ 1e6`` then ``/ cnt``), and the no-pairs degenerate case
    coalesces to the engine's zeros."""
    hav = haversine_sql("a.lat", "a.lon", "b.lat", "b.lon")
    band = eps_km / 111.0
    return f"""
WITH {_named_ctv_cte(d)},
pairs AS (
  SELECT a.node AS na, b.node AS nb,
         CAST(floor((floor({hav} * 1e6 + 0.5) / 1e6) * 1e6 + 0.5)
              AS BIGINT) AS dm
  FROM named a JOIN named b
    ON b.lat BETWEEN a.lat - {band!r} AND a.lat + {band!r}
  WHERE a.node < b.node
    AND floor({hav} * 1e6 + 0.5) / 1e6 <= {eps_km!r}),
dirs AS (SELECT na AS node, dm FROM pairs
         UNION ALL SELECT nb AS node, dm FROM pairs),
nn AS (SELECT node, min(dm) AS dm FROM dirs GROUP BY node),
np AS (SELECT CAST(count(*) AS BIGINT) AS n FROM named),
agg AS (SELECT CAST(count(*) AS BIGINT) AS cnt,
               CAST(coalesce(sum(dm), 0) AS BIGINT) AS s,
               CAST(coalesce(min(dm), 0) AS BIGINT) AS mn,
               CAST(coalesce(max(dm), 0) AS BIGINT) AS mx
        FROM nn)
SELECT np.n AS n_points, agg.cnt AS n_with_nn,
       np.n - agg.cnt AS n_isolated,
       CAST(agg.mn AS DOUBLE) / 1e6 AS nn_min_km,
       CAST(agg.mx AS DOUBLE) / 1e6 AS nn_max_km,
       CASE WHEN agg.cnt > 0
            THEN (CAST(agg.s AS DOUBLE) / 1e6) / CAST(agg.cnt AS DOUBLE)
            ELSE 0.0 END AS nn_mean_km
FROM np, agg"""


def heavy_users_sql(k: int) -> str:
    """Exact per-type top-k users by event count; ties break to the
    lowest user_id (the engine's total ranking)."""
    return f"""
WITH c AS (
  SELECT event_type, user_id, CAST(count(*) AS BIGINT) AS n_events
  FROM events GROUP BY 1, 2
), r AS (
  SELECT *, row_number() OVER (PARTITION BY event_type
                               ORDER BY n_events DESC, user_id) AS rn
  FROM c
)
SELECT event_type, user_id, n_events, CAST(rn AS BIGINT) AS rank
FROM r WHERE rn <= {k} ORDER BY event_type, rank"""


def props_extract_sql() -> str:
    """Integer ``k`` pulled from the JSON props payload with the SAME
    regex the engine compiles (``eventops.PROPS_K_RE``) — regexp
    no-match yields NULL, excluded from every aggregate; the closed-form
    avg mirrors the engine's double division."""
    return r"""
WITH ext AS (
  SELECT event_type,
         CAST(nullif(regexp_extract(props, '"k"\s*:\s*(-?\d+)', 1), '')
              AS BIGINT) AS k
  FROM events
)
SELECT event_type,
       CAST(count(k) AS BIGINT) AS n_with_k,
       CAST(sum(k) AS BIGINT) AS k_sum,
       CAST(min(k) AS BIGINT) AS k_min,
       CAST(max(k) AS BIGINT) AS k_max,
       CAST(sum(k) AS DOUBLE) / CAST(count(k) AS DOUBLE) AS k_avg
FROM ext
WHERE k IS NOT NULL
GROUP BY event_type ORDER BY event_type"""


def corpus_split_leakfree_sql(tau: float, train_hex: str,
                              val_hex: str) -> str:
    """Cluster-aware split: the ``dedup_clusters_sql`` components supply
    each clustered doc's representative; the split key is
    coalesce(rep, doc_id) pushed through the identical md5-hex
    thresholds as ``corpus_split_sql``."""
    return f"""
WITH RECURSIVE {components_ctes(ngram_jaccard_sql(tau))},
keyed AS (
  SELECT d.doc_id, coalesce(lab.l, d.doc_id) AS split_key
  FROM documents d LEFT JOIN labels lab ON lab.node = d.doc_id)
SELECT doc_id, split_key,
       CASE WHEN h < '{train_hex}' THEN 'train'
            WHEN h < '{val_hex}' THEN 'val'
            ELSE 'test' END AS split
FROM (SELECT doc_id, split_key,
             substr(md5(CAST(split_key AS VARCHAR)), 1, 8) AS h
      FROM keyed)
ORDER BY doc_id"""
