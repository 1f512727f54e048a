# -*- coding: utf-8 -*-
"""Local stand-in for the driver's correctness gate: run every queries()
entry and its oracle_sql() side-by-side at a given sf and diff row counts,
schemas (column name sets) and order-insensitive values.

Usage: python scripts/verify_queries.py [sf_dir] [query ...]
"""

from __future__ import annotations

import os
import sys
import time

import duckdb
import pandas as pd
import ray

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def to_pandas(x):
    if isinstance(x, pd.DataFrame):
        return x
    if hasattr(x, "to_pandas"):
        df = x.to_pandas()
        if not len(df.columns) and hasattr(x, "schema"):
            # Ray quirk: a 0-row Dataset loses its columns in to_pandas();
            # rebuild the typed empty frame from the Dataset schema
            sch = x.schema()
            if sch is not None:
                df = pd.DataFrame({n: pd.Series(dtype=t.to_pandas_dtype())
                                   for n, t in zip(sch.names, sch.types)})
        return df
    raise TypeError(type(x))


def canon(df: pd.DataFrame) -> pd.DataFrame:
    df = df[sorted(df.columns)].copy()
    for c in df.columns:
        if df[c].dtype == object or str(df[c].dtype) == "string":
            df[c] = df[c].astype(object).where(pd.notna(df[c]), None)
        elif str(df[c].dtype).startswith(("int", "uint", "Int")):
            df[c] = df[c].astype("int64")
        elif df[c].dtype == bool:
            df[c] = df[c].astype(bool)
    return df.sort_values(list(df.columns), kind="stable").reset_index(drop=True)


def check_window() -> None:
    """Assert the registry's driver-window invariants (VERDICT r4 #3):
    every never-driver-verified query sits inside the first-``_WINDOW``
    entries (it gets a row next round), the flagship pins are inside, and
    nothing OUTSIDE the window has evidence older than latest-1 rounds
    (i.e. after the upcoming round every query's newest driver row is at
    most 2 rounds old).  Runs without Ray."""
    from osmlint import queries as qmod
    reg = list(qmod.ray_queries())
    win = set(reg[:qmod._WINDOW])
    ev = qmod._driver_evidence()
    latest = max(ev.values()) if ev else 0
    problems = []
    for p in qmod._FLAGSHIP_PINS:
        if p not in win:
            problems.append(f"flagship pin {p!r} outside the window")
    for n in reg:
        if n in win:
            continue
        if n not in ev:
            problems.append(f"{n!r} has no driver row and is outside the window")
        elif ev[n] < latest - 1:
            problems.append(f"{n!r} evidence is r{ev[n]} (< r{latest - 1}) "
                            "and it is outside the window")
    if problems:
        print("WINDOW VIOLATIONS:")
        for p in problems:
            print("  -", p)
        sys.exit(1)
    n_never = sum(1 for n in reg if n not in ev)
    print(f"window OK: {len(reg)} queries, {n_never} never-verified "
          f"(all inside the first {qmod._WINDOW}), latest evidence r{latest}")


def main():
    if "--check-window" in sys.argv:
        check_window()
        return
    sf_dir = sys.argv[1] if len(sys.argv) > 1 else "/root/testdata/sf0.01"
    only = set(sys.argv[2:])
    import osmlint
    if not ray.is_initialized():
        ray.init(address="local", num_cpus=8, include_dashboard=False,
                 logging_level="ERROR", runtime_env=osmlint.runtime_env())
    import __ray_entry__ as e
    from osmlint import queries as qmod
    qs = e.queries()
    oracles = qmod.oracle_queries(sf_dir)
    con = duckdb.connect()
    for t in ("region", "nation", "customer", "supplier", "part", "orders",
              "lineitem", "events", "documents", "embeddings"):
        con.execute(f"CREATE VIEW {t} AS SELECT * FROM "
                    f"read_parquet('{sf_dir}/{t}.parquet')")
    failures = []
    for name, fn in qs.items():
        if only and name not in only:
            continue
        t0 = time.time()
        got = canon(to_pandas(fn(sf_dir)))
        t1 = time.time()
        if name not in oracles:
            print(f"{name:28s} rows={len(got):7d}  ray={t1-t0:6.1f}s  (rows-only, no oracle)")
            continue
        exp = canon(con.execute(oracles[name]).df())
        t2 = time.time()
        status = "OK"
        if list(got.columns) != list(exp.columns):
            status = f"SCHEMA got={list(got.columns)} exp={list(exp.columns)}"
        elif len(got) != len(exp):
            status = f"ROWS got={len(got)} exp={len(exp)}"
        else:
            try:
                pd.testing.assert_frame_equal(got, exp, check_dtype=False,
                                              check_exact=True)
            except AssertionError as ex:
                status = "VALUES " + str(ex).split("\n")[0]
                # show a few mismatching rows
                neq = (got != exp) & ~(got.isna() & exp.isna())
                bad = neq.any(axis=1)
                print(got[bad].head(3).to_string())
                print(exp[bad].head(3).to_string())
        print(f"{name:28s} rows={len(got):7d}  ray={t1-t0:6.1f}s  "
              f"sql={t2-t1:5.1f}s  {status}")
        if status != "OK":
            failures.append(name)
    ray.shutdown()
    if failures:
        print("FAILED:", failures)
        sys.exit(1)
    print("all queries match")


if __name__ == "__main__":
    main()
