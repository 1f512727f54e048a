"""Expected outputs, computed once per input with the DuckDB oracles.

Every op's output is compared against these.  They come from
``osmlint.oracle_sql`` over the flat table, an independent formulation of
the same queries, and are cached as JSON next to the generated input so
neither timing nor ``setup_s`` pays for them.
"""

from __future__ import annotations

import html
import json
import os
import re

import numpy as np
import pandas as pd

FLAG_COLUMNS = ["doc_id", "map_name", "osm_id", "seq", "display_name",
                "entity_type", "check_name", "result", "message", "fixable"]


def frame_digest(df: pd.DataFrame) -> list:
    """Order-independent digest of a frame: row count plus the wrapping sum
    of per-row hashes over its columns in name order.  Values are
    normalized first, so engine and oracle dtypes (object vs string,
    None vs NaN, bool vs BOOLEAN) hash alike."""
    cols = {}
    for c in sorted(df.columns):
        s = df[c]
        if pd.api.types.is_bool_dtype(s):
            cols[c] = s.astype(np.int64)
        elif pd.api.types.is_integer_dtype(s):
            cols[c] = s.astype(np.int64)
        else:
            cols[c] = s.astype(object).where(s.notna(), None).map(
                lambda v: "\x00" if v is None else str(v))
    norm = pd.DataFrame(cols)
    h = pd.util.hash_pandas_object(norm, index=False).to_numpy(np.uint64)
    return [int(len(norm)), int(h.sum(dtype=np.uint64))]


# --- country_report ------------------------------------------------------

_DATE = re.compile(r"report for \d\d\.\d\d\.\d{4}\.")
_MAP_ROW = re.compile(r"<tr class='b'><td>(.*?)</td><td>(\d+)</td>"
                      r"<td>(\d+)</td><td>(\d+)</td></tr>", re.S)
_CHECK_ROW = re.compile(r"<tr class='b'><td>(.*?)</td><td>(.*?)</td>"
                        r"<td>(\d+)</td><td>(\d+)</td></tr>", re.S)
_ERR_ROW = re.compile(r"<tr class='b'><td><a href='https://www\.openstreetmap"
                      r"\.org/(.*?)/(\d+)'>(.*?)</a></td><td>(.*?)</td>"
                      r"<td>(.*?)</td></tr>", re.S)
_ERR_SECTION = re.compile(r"<div class='section'><h3 id='(.*?)'>", re.S)


def parse_report(text: str) -> dict:
    """The report's content in comparable form.  The date is masked;
    error rows are compared as a sorted list per section, because rows
    that tie on (display name, check) may come in any order."""
    un = html.unescape
    head, rest = text.split("<a name='Countries'>", 1)
    maps, rest = rest.split("<a name='Rules'>", 1)
    checks, errs = rest.split("<a name='Errors'>", 1)
    out = {"dated": bool(_DATE.search(head)),
           "maps": [[un(m[1])] + [int(x) for x in m.groups()[1:]]
                    for m in _MAP_ROW.finditer(maps)],
           "checks": [[un(m[1]), un(m[2]), int(m[3]), int(m[4])]
                      for m in _CHECK_ROW.finditer(checks)],
           "errors": {}, "error_order_ok": True}
    secs = _ERR_SECTION.split(errs)
    for name, body in zip(secs[1::2], secs[2::2]):
        rows = [[un(m[1]), int(m[2]), un(m[3]), un(m[4]), un(m[5])]
                for m in _ERR_ROW.finditer(body)]
        disp = [r[2] for r in rows]
        out["error_order_ok"] &= disp == sorted(disp)
        out["errors"][un(name)] = sorted(rows)
    out["error_sections"] = list(out["errors"])
    return out


def _report_expected(con, d: str) -> dict:
    from osmlint import oracle_sql
    a1 = con.execute(oracle_sql.lint_summary_per_map_sql(d)).df()
    a2 = con.execute(oracle_sql.lint_per_check_type_sql(d)).df()
    a3 = con.execute(oracle_sql.lint_merge_overall_sql(d)).df()
    err = a3[a3["result"] == "CHECKED_ERROR"]
    errors = {}
    for overall, g in err.groupby("map_overall", sort=True):
        errors[overall] = sorted(
            [str(r.entity_type), int(r.osm_id), str(r.display_name),
             str(r.check_name), str(r.message)] for r in g.itertuples())
    return {
        "dated": True,
        "maps": [[str(r.map_name), int(r.count_map_checks),
                  int(r.count_map_errors), int(r.count_map_fixable_errors)]
                 for r in a1.itertuples()],
        "checks": [[str(r.check_name), str(r.explanation),
                    int(r.count_total_checks), int(r.count_total_errors)]
                   for r in a2.itertuples()],
        "errors": errors,
        "error_order_ok": True,
        "error_sections": sorted(errors),
    }


# --- shard_relint --------------------------------------------------------

def _relint_expected(con, d: str) -> dict:
    from osmlint import oracle_sql
    flags = con.execute(oracle_sql.lint_flags_sql(d)).df()
    return {"flags": frame_digest(flags[FLAG_COLUMNS])}


# --- spatial_qa ----------------------------------------------------------

def _clusters_fixpoint(con, d: str) -> list:
    """``geo_clusters_sql`` labels components with a fixed number of
    min-propagation rounds, 48 by default, and on some inputs that stops
    short of the fixpoint: two clusters that share a core-core path keep
    two labels (seed 207 at sf0.005 needs more than 48).  Double the rounds
    until two successive answers agree; rounds past the fixpoint change
    nothing, so agreement means the labels are final."""
    from osmlint import geocluster, oracle_sql

    def run(rounds: int) -> list:
        return frame_digest(con.execute(oracle_sql.geo_clusters_sql(
            d, geocluster.EPS_KM, geocluster.MIN_PTS, rounds=rounds)).df())
    rounds, prev = 48, run(48)
    while True:
        rounds *= 2
        cur = run(rounds)
        if cur == prev:
            return cur
        prev = cur


def _spatial_expected(con, d: str) -> dict:
    from osmlint import dupnames, geocluster, oracle_sql
    pairs = con.execute(oracle_sql.knn_dup_names_sql(
        d, dupnames.DEFAULT_RADIUS_KM, dupnames.MAX_NAME_FREQ)).df()
    nn = con.execute(oracle_sql.nn_stats_sql(d, geocluster.EPS_KM)).df()
    return {"pairs": frame_digest(pairs), "clusters": _clusters_fixpoint(con, d),
            "nn": nn.iloc[0].astype(float).tolist(),
            "nn_columns": list(nn.columns)}


EXPECTED = {"country_report": _report_expected,
            "shard_relint": _relint_expected,
            "spatial_qa": _spatial_expected}


def expected(workload: str, d: str) -> dict:
    """Oracle answer for ``workload`` on input dir ``d``, from the JSON
    cache beside (not inside) the input dir when present."""
    path = os.path.join(os.path.dirname(d),
                        f"expected_{workload}_{os.path.basename(d)}.json")
    if os.path.exists(path):
        with open(path) as f:
            return json.load(f)
    import duckdb
    con = duckdb.connect()
    try:
        con.execute("SET threads TO 1")
        exp = EXPECTED[workload](con, d)
    finally:
        con.close()
    tmp = f"{path}.tmp.{os.getpid()}"
    with open(tmp, "w") as f:
        json.dump(exp, f)
    os.replace(tmp, path)
    return exp
