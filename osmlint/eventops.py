# -*- coding: utf-8 -*-
"""Streaming-style event operators over the driver ``events`` table
(event_id, ts:timestamp, user_id, event_type, value:double, props:json).

* ``window_agg`` — tumbling 1-hour window aggregate per event_type:
  per-batch Arrow partials (floor ts to hour, local groupby) → small global
  groupby.  ``sum_value`` is rounded to 6 decimals on both the Ray and the
  SQL side: parallel reduction order differs, so raw float bit-equality is
  not a meaningful contract.
* ``sessionize`` — per-user sessions split at >30 min gaps: the windowed /
  ordered custom operator Ray Data lacks natively, expressed as a
  (user-hash-bucket) groupby with a VECTORIZED in-group sessionization
  (sort + diff + cumsum — no per-event Python).
"""

from __future__ import annotations

import os

import numpy as np
import pandas as pd
import pyarrow as pa
import ray.data as rd
from ray.data.aggregate import Sum

from . import widths
from .pipeline import to_arrow

GAP_MIN = 30


# columns: window_agg reads ts/event_type/value, sessionize ts/user_id
def read_events(sf_dir: str, columns=None) -> rd.Dataset:
    return rd.read_parquet(os.path.join(sf_dir, "events.parquet"),
                           columns=columns)


def _with_user_bucket(batch: pa.Table) -> pa.Table:
    """Append ``_b``, the user-hash bucket the per-user shuffles key on.
    Strips the parquet-read pandas metadata: every block entering the
    shuffle then shares one hashable schema (no schema-dedup warnings)."""
    uid = batch["user_id"].to_numpy(zero_copy_only=False)
    return batch.append_column(
        "_b", pa.array(widths.bucket_of(uid, widths.KEY_BUCKETS),
                       type=pa.int64())).replace_schema_metadata(None)


def window_agg(sf_dir: str) -> pd.DataFrame:
    ds = read_events(sf_dir, columns=["ts", "event_type", "value"])

    def partial(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc
        win = pc.floor_temporal(batch["ts"], unit="hour")
        df = pd.DataFrame({
            "window": win.to_pandas(),
            "event_type": batch["event_type"].to_pandas(),
            "value": batch["value"].to_pandas()})
        g = df.groupby(["window", "event_type"], sort=False, as_index=False) \
              .agg(n=("value", "size"), v=("value", "sum"))
        return to_arrow(g)

    agg = (ds.map_batches(partial, batch_format="pyarrow")
           .groupby(["window", "event_type"])
           .aggregate(Sum("n", alias_name="n_events"),
                      Sum("v", alias_name="sum_value")))
    df = agg.to_pandas()
    df["n_events"] = df["n_events"].astype(np.int64)
    df["sum_value"] = df["sum_value"].round(6)
    return df.sort_values(["window", "event_type"]).reset_index(drop=True)


def sessionize(sf_dir: str) -> pd.DataFrame:
    """Sessions per user (gap > 30 min ⇒ new session).

    Output: user_id, session_id (1-based per user, ordered by start),
    n_events, start_ts, duration_us."""
    ds = read_events(sf_dir, columns=["ts", "user_id"])

    gap = np.timedelta64(GAP_MIN, "m")

    def sessions(g: pd.DataFrame) -> pa.Table:
        g = g.sort_values(["user_id", "ts"], kind="stable")
        ts = g["ts"].to_numpy()
        uid = g["user_id"].to_numpy()
        new_user = np.r_[True, uid[1:] != uid[:-1]]
        big_gap = np.r_[True, (ts[1:] - ts[:-1]) > gap]
        new_sess = new_user | big_gap
        sess_idx = np.cumsum(new_sess) - 1              # global within bucket
        df = pd.DataFrame({"user_id": uid, "ts": ts, "sess": sess_idx})
        agg = df.groupby("sess", sort=True).agg(
            user_id=("user_id", "first"), n_events=("ts", "size"),
            start_ts=("ts", "min"), end_ts=("ts", "max"))
        agg["session_id"] = agg.groupby("user_id").cumcount() + 1
        agg["duration_us"] = ((agg["end_ts"] - agg["start_ts"])
                              .to_numpy().astype("timedelta64[us]")
                              .astype(np.int64))
        out = agg[["user_id", "session_id", "n_events", "start_ts",
                   "duration_us"]].reset_index(drop=True)
        out["n_events"] = out["n_events"].astype(np.int64)
        out["session_id"] = out["session_id"].astype(np.int64)
        return to_arrow(out)

    res = (ds.map_batches(_with_user_bucket, batch_format="pyarrow")
           .groupby("_b").map_groups(sessions, batch_format="pandas"))
    df = res.to_pandas()
    return df.sort_values(["user_id", "session_id"]).reset_index(drop=True)


ASOF_SOURCES = ("view", "click")


def asof_attribution(sf_dir: str) -> pd.DataFrame:
    """As-of join (the windowed/ordered custom operator Ray Data lacks):
    each purchase attributed to the user's most recent STRICTLY-prior
    view/click.  user-hash-bucket groupby colocates each user's events;
    inside a group one vectorized ``pandas.merge_asof`` does the ordered
    backward search — no per-event Python, no global sort."""
    ds = read_events(sf_dir, columns=["event_id", "ts", "user_id",
                                      "event_type"])

    def join(g: pd.DataFrame) -> pa.Table:
        p = g[g["event_type"] == "purchase"].sort_values("ts", kind="stable")
        s = g[g["event_type"].isin(ASOF_SOURCES)].sort_values("ts",
                                                              kind="stable")
        m = pd.merge_asof(
            p, s, on="ts", by="user_id", direction="backward",
            allow_exact_matches=False, suffixes=("", "_src"))
        out = pd.DataFrame({
            "event_id": m["event_id"].to_numpy(np.int64),
            "user_id": m["user_id"].to_numpy(np.int64),
            "ts": m["ts"],
            "src_event_id": m["event_id_src"],
            "src_type": m["event_type_src"],
        })
        return to_arrow(out, pa.schema([
            ("event_id", pa.int64()), ("user_id", pa.int64()),
            ("ts", pa.timestamp("us")), ("src_event_id", pa.int64()),
            ("src_type", pa.string())]))

    res = (ds.map_batches(_with_user_bucket, batch_format="pyarrow")
           .groupby("_b").map_groups(join, batch_format="pandas"))
    df = res.to_pandas()
    if df.empty:
        df = pd.DataFrame({"event_id": pd.Series(dtype=np.int64),
                           "user_id": pd.Series(dtype=np.int64),
                           "ts": pd.Series(dtype="datetime64[us]"),
                           "src_event_id": pd.Series(dtype="Int64"),
                           "src_type": pd.Series(dtype=object)})
    return df.sort_values("event_id").reset_index(drop=True)


FUNNEL_STEP_A = "signup"
FUNNEL_STEP_B = "purchase"
FUNNEL_WINDOW_DAYS = 7


def funnel(sf_dir: str) -> pd.DataFrame:
    """Two-step conversion funnel: for every user with a ``signup``,
    count ``purchase`` events inside ``[first_signup, first_signup +
    window]`` and report the first converting purchase + delay.

    Same 100 TB shape as ``sessionize``/``asof_attribution``: the two
    step types are filtered out of the stream per batch (everything else
    never rides the shuffle), a user-hash-bucket groupby colocates each
    user's steps, and the in-group funnel is one vectorized
    transform-merge — no per-user Python, no global sort.  Non-converting
    signups are kept (NULL purchase columns), so the op reports both
    funnel levels."""
    ds = read_events(sf_dir, columns=["ts", "user_id", "event_type"])

    def bucket(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc
        return _with_user_bucket(batch.filter(pc.is_in(
            batch["event_type"],
            value_set=pa.array([FUNNEL_STEP_A, FUNNEL_STEP_B]))))

    win = np.timedelta64(FUNNEL_WINDOW_DAYS, "D")
    out_schema = pa.schema([
        ("user_id", pa.int64()), ("signup_ts", pa.timestamp("us")),
        ("n_purchases_w", pa.int64()),
        ("first_purchase_ts", pa.timestamp("us")),
        ("delay_us", pa.int64())])

    def step(g: pd.DataFrame) -> pa.Table:
        s = g[g["event_type"] == FUNNEL_STEP_A] \
            .groupby("user_id")["ts"].min()
        if not len(s):
            return out_schema.empty_table()
        p = g[g["event_type"] == FUNNEL_STEP_B].copy()
        p["t0"] = p["user_id"].map(s)
        p = p[p["t0"].notna()]
        m = (p["ts"] >= p["t0"]) & (p["ts"] <= p["t0"] + win)
        conv = p[m].groupby("user_id")["ts"].agg(["count", "min"])
        res = pd.DataFrame({"user_id": s.index.to_numpy(np.int64),
                            "signup_ts": s.to_numpy()})
        res = res.merge(conv, left_on="user_id", right_index=True,
                        how="left")
        res["n_purchases_w"] = res["count"].fillna(0).astype(np.int64)
        res["first_purchase_ts"] = res["min"]
        res["delay_us"] = ((res["min"] - res["signup_ts"])
                           / pd.Timedelta(microseconds=1)).astype("Int64")
        return to_arrow(res[["user_id", "signup_ts", "n_purchases_w",
                             "first_purchase_ts", "delay_us"]], out_schema)

    res = (ds.map_batches(bucket, batch_format="pyarrow")
           .groupby("_b").map_groups(step, batch_format="pandas"))
    df = res.to_pandas()
    if df.empty:
        df = pd.DataFrame({"user_id": pd.Series(dtype=np.int64),
                           "signup_ts": pd.Series(dtype="datetime64[us]"),
                           "n_purchases_w": pd.Series(dtype=np.int64),
                           "first_purchase_ts":
                               pd.Series(dtype="datetime64[us]"),
                           "delay_us": pd.Series(dtype="Int64")})
    return df.sort_values("user_id").reset_index(drop=True)


RANGE_JOIN_SOURCES = ("view", "click")
#: browse-window granularity for the range join — wider than the 30-min
#: sessionize gap on purpose: attribution windows, not activity sessions
RANGE_GAP_MIN = 240


def range_join(sf_dir: str) -> pd.DataFrame:
    """Interval/range join (the second ordered custom operator Ray Data
    lacks natively, next to the as-of join): each ``purchase`` is joined
    to the user's BROWSE session — view/click events sessionized with the
    30-min gap rule — whose ``[start_ts, end_ts]`` interval contains it
    (inclusive; browse sessions are disjoint per user, so at most one
    match).  Purchases outside any browse window are dropped.

    Same 100 TB shape as the as-of join: non-participating event types
    are filtered per batch before the shuffle, a user-hash-bucket groupby
    colocates each user's events, and the in-group probe is one
    ``searchsorted`` against the session-start array — no per-event
    Python, no global sort."""
    ds = read_events(sf_dir, columns=["event_id", "ts", "user_id",
                                      "event_type"])
    gap = np.timedelta64(RANGE_GAP_MIN, "m")
    wanted = RANGE_JOIN_SOURCES + ("purchase",)

    def bucket(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc
        return _with_user_bucket(batch.filter(pc.is_in(
            batch["event_type"], value_set=pa.array(list(wanted)))))

    out_schema = pa.schema([
        ("event_id", pa.int64()), ("user_id", pa.int64()),
        ("ts", pa.timestamp("us")), ("sess_start", pa.timestamp("us")),
        ("sess_end", pa.timestamp("us"))])

    def probe(g: pd.DataFrame) -> pa.Table:
        src = g[g["event_type"].isin(RANGE_JOIN_SOURCES)] \
            .sort_values(["user_id", "ts"], kind="stable")
        p = g[g["event_type"] == "purchase"]
        if not len(src) or not len(p):
            return out_schema.empty_table()
        ts = src["ts"].to_numpy()
        uid = src["user_id"].to_numpy()
        new_sess = np.r_[True, (uid[1:] != uid[:-1])
                         | ((ts[1:] - ts[:-1]) > gap)]
        sid = np.cumsum(new_sess) - 1
        starts = ts[new_sess]
        last = np.r_[np.flatnonzero(new_sess)[1:] - 1, len(ts) - 1]
        ends = ts[last]
        sess_uid = uid[new_sess]
        # probe per user: sessions sorted by (user, start) globally;
        # restrict the searchsorted to each user's slice via the session
        # owner array (sessions are disjoint within a user)
        order = np.lexsort((p["ts"].to_numpy(), p["user_id"].to_numpy()))
        pe = p.iloc[order]
        pts = pe["ts"].to_numpy()
        puid = pe["user_id"].to_numpy(np.int64)
        # lexicographic (user, start) probe via the structured-dtype
        # searchsorted (exact int64 comparisons — no float key mixing)
        key_u = sess_uid.astype(np.int64)
        kb = np.ascontiguousarray(np.column_stack(
            [key_u, starts.astype("datetime64[us]").astype(np.int64)])) \
            .view([("u", "<i8"), ("t", "<i8")]).ravel()
        qb = np.ascontiguousarray(np.column_stack(
            [puid, pts.astype("datetime64[us]").astype(np.int64)])) \
            .view([("u", "<i8"), ("t", "<i8")]).ravel()
        idx = np.searchsorted(kb, qb, side="right") - 1
        ok = idx >= 0
        idx = np.maximum(idx, 0)
        ok &= (key_u[idx] == puid) & (pts <= ends[idx])
        return pa.table({
            "event_id": pa.array(pe["event_id"].to_numpy(np.int64)[ok]),
            "user_id": pa.array(puid[ok]),
            "ts": pa.array(pts[ok].astype("datetime64[us]")),
            "sess_start": pa.array(starts[idx[ok]]
                                   .astype("datetime64[us]")),
            "sess_end": pa.array(ends[idx[ok]].astype("datetime64[us]"))},
            schema=out_schema)

    res = (ds.map_batches(bucket, batch_format="pyarrow")
           .groupby("_b").map_groups(probe, batch_format="pandas"))
    df = res.to_pandas()
    if df.empty:
        df = pd.DataFrame({"event_id": pd.Series(dtype=np.int64),
                           "user_id": pd.Series(dtype=np.int64),
                           "ts": pd.Series(dtype="datetime64[us]"),
                           "sess_start": pd.Series(dtype="datetime64[us]"),
                           "sess_end": pd.Series(dtype="datetime64[us]")})
    return df.sort_values("event_id").reset_index(drop=True)


def retention(sf_dir: str) -> pd.DataFrame:
    """Cohort retention: users cohorted by FIRST-event day; for each
    (cohort_day, day_offset) count the distinct users active that many
    days later — the classic retention triangle.

    100 TB shape: users colocate by hash bucket, so each group computes
    its users' first day AND their distinct active days in one vectorized
    pass, emitting (cohort_day, day_offset, partial_count) rows; the
    global reduce is a small groupby (#days^2 upper bound, data-bounded
    in practice) — per-user rows never leave the bucket."""
    ds = read_events(sf_dir, columns=["ts", "user_id"])

    def cohort(g: pd.DataFrame) -> pa.Table:
        day = g["ts"].to_numpy().astype("datetime64[D]")
        uid = g["user_id"].to_numpy(np.int64)
        d = pd.DataFrame({"u": uid, "d": day}).drop_duplicates()
        first = d.groupby("u")["d"].transform("min")
        off = (d["d"] - first).dt.days.to_numpy(np.int64)
        out = pd.DataFrame({"cohort_day": first.to_numpy(),
                            "day_offset": off}) \
            .groupby(["cohort_day", "day_offset"], sort=False) \
            .size().reset_index(name="n")
        return pa.table({
            "cohort_day": pa.array(out["cohort_day"].to_numpy()
                                   .astype("datetime64[us]")),
            "day_offset": pa.array(out["day_offset"].to_numpy(np.int64)),
            "n": pa.array(out["n"].to_numpy(np.int64))})

    agg = (ds.map_batches(_with_user_bucket, batch_format="pyarrow")
           .groupby("_b").map_groups(cohort, batch_format="pandas")
           .groupby(["cohort_day", "day_offset"])
           .aggregate(Sum("n", alias_name="n_users")))
    df = agg.to_pandas()
    df["n_users"] = df["n_users"].astype(np.int64)
    df["day_offset"] = df["day_offset"].astype(np.int64)
    return df.sort_values(["cohort_day", "day_offset"]) \
        .reset_index(drop=True)


ANOMALY_Z = 3.0


def anomalies(sf_dir: str) -> pd.DataFrame:
    """Per-event-type value outliers: |z| >= ``ANOMALY_Z`` against the type's
    own population mean/std — the streaming-metrics anomaly gate.

    Two bounded passes: (sum, sumsq, n) partials -> a #types groupby
    gives the moments; the second pass filters with the tiny broadcast
    stats map.  z is rounded to 6 dp with the engine's floor convention
    (population std, sqrt(max(E[x^2] - mean^2, 0)))."""
    z_thresh = ANOMALY_Z
    ds = read_events(sf_dir, columns=["event_id", "event_type", "value"])

    def moments(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        g = df.groupby("event_type", sort=False)["value"] \
            .agg(s="sum", ss=lambda x: float((x.to_numpy() ** 2).sum()),
                 n="size").reset_index()
        return pa.table({"event_type": pa.array(g["event_type"]
                                                .astype(str)),
                         "s": pa.array(g["s"].to_numpy(np.float64)),
                         "ss": pa.array(g["ss"].to_numpy(np.float64)),
                         "n": pa.array(g["n"].to_numpy(np.int64))})

    agg = (ds.map_batches(moments, batch_format="pyarrow")
           .groupby("event_type")
           .aggregate(Sum("s", alias_name="s"), Sum("ss", alias_name="ss"),
                      Sum("n", alias_name="n")).to_pandas())
    stats = {}
    for r in agg.itertuples():
        mean = r.s / r.n
        std = float(np.sqrt(max(r.ss / r.n - mean * mean, 0.0)))
        stats[str(r.event_type)] = (mean, max(std, 1e-30))

    def flag(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        mean = df["event_type"].astype(str).map(
            {k: v[0] for k, v in stats.items()}).to_numpy(np.float64)
        std = df["event_type"].astype(str).map(
            {k: v[1] for k, v in stats.items()}).to_numpy(np.float64)
        z = (df["value"].to_numpy(np.float64) - mean) / std
        z = np.floor(z * 1e6 + 0.5) / 1e6
        m = np.abs(z) >= z_thresh
        return pa.table({
            "event_id": pa.array(df["event_id"].to_numpy(np.int64)[m]),
            "event_type": pa.array(df["event_type"].astype(str)[m],
                                   type=pa.string()),
            "value": pa.array(df["value"].to_numpy(np.float64)[m]),
            "z": pa.array(z[m])})

    df = ds.map_batches(flag, batch_format="pyarrow").to_pandas()
    if df.empty:
        df = pd.DataFrame({"event_id": pd.Series(dtype=np.int64),
                           "event_type": pd.Series(dtype=str),
                           "value": pd.Series(dtype=np.float64),
                           "z": pd.Series(dtype=np.float64)})
    return df.sort_values("event_id").reset_index(drop=True)


# --- daily volume trend (distributed OLS via exact integer moments) -------

#: fixed x-origin (2024-01-01 as days since epoch) — centering the day
#: index keeps every OLS sufficient statistic small enough to stay EXACT
#: in int64 on both the Ray and the SQL side (no float cancellation, no
#: reduction-order sensitivity; only the final two divisions are float).
TREND_X0 = 19723


def daily_trend(sf_dir: str) -> pd.DataFrame:
    """Per-event-type least-squares trend of daily event volume —
    the capacity-planning regression over an event stream
    (``y = slope * (epoch_day - TREND_X0) + intercept``).

    Shape: per-batch (event_type, day) partial counts -> one bounded
    groupby (#types x #days rows) -> per-type integer moment partials
    (sx, sy, sxy, sxx over days) -> a #types-row aggregate; the driver
    only ever sees #types rows.  All moments are integer-exact, so the
    distributed reduction order cannot perturb the result; ``slope`` /
    ``intercept`` are the textbook closed forms rounded to 6 dp with the
    engine's floor convention.  A single-day type (denominator 0) reports
    slope 0 and the day's mean as intercept."""
    ds = read_events(sf_dir, columns=["event_type", "ts"])

    def daily_partial(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        day = df["ts"].to_numpy().astype("datetime64[D]") \
            .astype(np.int64) - TREND_X0
        g = pd.DataFrame({"event_type": df["event_type"].astype(str),
                          "x": day}) \
            .groupby(["event_type", "x"], sort=False) \
            .size().reset_index(name="y")
        return pa.table({"event_type": pa.array(g["event_type"],
                                                type=pa.string()),
                         "x": pa.array(g["x"].to_numpy(np.int64)),
                         "y": pa.array(g["y"].to_numpy(np.int64))})

    daily = (ds.map_batches(daily_partial, batch_format="pyarrow")
             .groupby(["event_type", "x"])
             .aggregate(Sum("y", alias_name="y")))

    def moments(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        x = df["x"].to_numpy(np.int64)
        y = df["y"].to_numpy(np.int64)
        g = pd.DataFrame({"event_type": df["event_type"].astype(str),
                          "n_days": np.ones(len(df), dtype=np.int64),
                          "sy": y, "sx": x, "sxy": x * y, "sxx": x * x}) \
            .groupby("event_type", sort=False).sum().reset_index()
        return to_arrow(g)

    agg = (daily.map_batches(moments, batch_format="pyarrow")
           .groupby("event_type")
           .aggregate(*[Sum(c, alias_name=c)
                        for c in ("n_days", "sy", "sx", "sxy", "sxx")])
           .to_pandas())
    n = agg["n_days"].to_numpy(np.int64)
    sx = agg["sx"].to_numpy(np.int64)
    sy = agg["sy"].to_numpy(np.int64)
    a_num = (n * agg["sxy"].to_numpy(np.int64) - sx * sy).astype(np.float64)
    b_den = (n * agg["sxx"].to_numpy(np.int64) - sx * sx).astype(np.float64)
    slope = np.where(b_den > 0, a_num / np.where(b_den > 0, b_den, 1.0), 0.0)
    intercept = (sy.astype(np.float64) - slope * sx.astype(np.float64)) / n
    out = pd.DataFrame({
        "event_type": agg["event_type"].astype(str),
        "n_days": n,
        "n_events": sy,
        "slope": np.floor(slope * 1e6 + 0.5) / 1e6,
        "intercept": np.floor(intercept * 1e6 + 0.5) / 1e6})
    return out.sort_values("event_type").reset_index(drop=True)


# ---------------------------------------------------------------------------
# semi-structured payload extraction (JSON props column)
# ---------------------------------------------------------------------------

#: compiled once at import; pandas .str.extract runs it in C per block —
#: no per-row json.loads in the hot path.  The pattern is deliberately
#: the SAME regex the oracle runs (DuckDB regexp_extract), so the
#: extraction semantics are mirrored, not merely equivalent: only an
#: unquoted integer value of a top-level-looking "k" key is extracted.
PROPS_K_RE = r'"k"\s*:\s*(-?\d+)'


def props_extract(sf_dir: str) -> pd.DataFrame:
    """Per-event-type stats of the integer ``k`` field parsed out of the
    JSON ``props`` payload — the semi-structured-extraction stage every
    event pipeline needs before typed analytics.

    Shape: one streaming pass; a compiled vectorized regex pulls ``k``
    per block (C regex over the string column, never ``json.loads`` per
    row), a per-batch groupby folds each block to <= #event_types rows
    of integer partials (n, sum, min, max), and the global reduce is a
    bounded groupby.  Rows whose props lack an integer ``k`` are
    excluded from the stats (and from ``n_with_k``), mirrored by the
    oracle's regexp NULL semantics."""
    from ray.data.aggregate import Max, Min
    ds = read_events(sf_dir, columns=["event_type", "props"])

    def partial(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        k = pd.to_numeric(
            df["props"].str.extract(PROPS_K_RE, expand=False),
            errors="coerce")
        df = df.assign(k=k)[k.notna()]
        if not len(df):
            return pa.table({
                "event_type": pa.array([], type=pa.string()),
                "n_with_k": pa.array([], type=pa.int64()),
                "k_sum": pa.array([], type=pa.int64()),
                "k_min": pa.array([], type=pa.int64()),
                "k_max": pa.array([], type=pa.int64())})
        g = df.groupby("event_type", sort=False)["k"] \
            .agg(n_with_k="size", k_sum="sum", k_min="min", k_max="max") \
            .reset_index()
        return pa.table({
            "event_type": pa.array(g["event_type"], type=pa.string()),
            "n_with_k": pa.array(g["n_with_k"].to_numpy(np.int64)),
            "k_sum": pa.array(g["k_sum"].to_numpy(np.int64)),
            "k_min": pa.array(g["k_min"].to_numpy(np.int64)),
            "k_max": pa.array(g["k_max"].to_numpy(np.int64))})

    agg = (ds.map_batches(partial, batch_format="pyarrow")
           .groupby("event_type")
           .aggregate(Sum("n_with_k", alias_name="n_with_k"),
                      Sum("k_sum", alias_name="k_sum"),
                      Min("k_min", alias_name="k_min"),
                      Max("k_max", alias_name="k_max"))
           .to_pandas())
    for c in ("n_with_k", "k_sum", "k_min", "k_max"):
        agg[c] = agg[c].astype(np.int64)
    # one closed-form float per bounded output row, mirrored in SQL
    agg["k_avg"] = agg["k_sum"].to_numpy(np.float64) \
        / agg["n_with_k"].to_numpy(np.float64)
    return agg[["event_type", "n_with_k", "k_sum", "k_min", "k_max",
                "k_avg"]].sort_values("event_type").reset_index(drop=True)


# ---------------------------------------------------------------------------
# heavy users: exact top-k users per event type (windowed rank, no window
# engine)
# ---------------------------------------------------------------------------

HEAVY_TOP = 5


def heavy_users(sf_dir: str) -> pd.DataFrame:
    """Exact top-``HEAVY_TOP`` users by event count per event type — the
    heavy-hitter report an events pipeline ships per activity class.
    Ranking is total: ties break to the lowest user_id.

    Shape: per-batch (user, type) count partials; a user-hash bucket
    groupby colocates every count of a user (so in-bucket sums are
    FINAL — the per-type top-k cut inside a bucket is therefore a valid
    candidate cut: the global top-k per type is a subset of the union
    of per-bucket top-ks); the final rank runs per event type over
    <= ``widths.KEY_BUCKETS`` x k surviving rows.  Counts are integers
    end-to-end; nothing user-cardinality-sized reaches the driver."""
    k = HEAVY_TOP
    ds = read_events(sf_dir, columns=["user_id", "event_type"])

    def partial(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        g = df.groupby(["user_id", "event_type"], sort=False) \
            .size().reset_index(name="n")
        u = g["user_id"].to_numpy(np.int64)
        g["_b"] = widths.bucket_of(u, widths.KEY_BUCKETS)
        return to_arrow(g)

    def bucket_top(g: pd.DataFrame) -> pa.Table:
        d = g.groupby(["user_id", "event_type"], sort=False)["n"] \
            .sum().reset_index()
        top = d.sort_values(["n", "user_id"], ascending=[False, True],
                            kind="stable") \
            .groupby("event_type", sort=False).head(k)
        return pa.table({
            "event_type": pa.array(top["event_type"].astype(str),
                                   type=pa.string()),
            "user_id": pa.array(top["user_id"].to_numpy(np.int64)),
            "n": pa.array(top["n"].to_numpy(np.int64))})

    def final_rank(g: pd.DataFrame) -> pa.Table:
        g = g.sort_values(["n", "user_id"], ascending=[False, True],
                          kind="stable").head(k)
        return pa.table({
            "event_type": pa.array(g["event_type"].astype(str),
                                   type=pa.string()),
            "user_id": pa.array(g["user_id"].to_numpy(np.int64)),
            "n_events": pa.array(g["n"].to_numpy(np.int64)),
            "rank": pa.array(np.arange(1, len(g) + 1, dtype=np.int64))})

    df = (ds.map_batches(partial, batch_format="pyarrow")
          .groupby("_b").map_groups(bucket_top, batch_format="pandas")
          .groupby("event_type").map_groups(final_rank,
                                            batch_format="pandas")
          .to_pandas())
    return df.sort_values(["event_type", "rank"]).reset_index(drop=True)
