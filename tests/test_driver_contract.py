# -*- coding: utf-8 -*-
"""Driver-contract regression net: __ray_entry__ exactly as the driver
drives it (Ray already initialised; entry / queries / oracle_sql)."""

import os
import sys

import duckdb
import pandas as pd
import pytest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

SF = "/root/testdata/sf0.001"


@pytest.fixture(scope="module")
def entrymod(ray_session):
    import __ray_entry__ as e
    return e


def _canon(df: pd.DataFrame) -> pd.DataFrame:
    df = df[sorted(df.columns)].copy()
    return df.sort_values(list(df.columns), kind="stable").reset_index(drop=True)


def _to_pandas(x):
    return x.to_pandas() if hasattr(x, "to_pandas") else x


def test_entry_smoke(entrymod):
    res = _to_pandas(entrymod.entry())
    assert len(res) > 0
    assert set(res.columns) >= {"doc_id", "map_name", "check_name", "result",
                                "message", "fixable"}


def test_registry_contract(entrymod):
    qs = entrymod.queries()
    osql = entrymod.oracle_sql()
    assert len(qs) >= 20
    # every oracle key is a query; non-SQL ops may omit the oracle
    assert set(osql) <= set(qs)
    assert all(isinstance(v, str) and "SELECT" in v.upper()
               for v in osql.values())


@pytest.mark.parametrize("name", [
    "lint_summary_per_map", "lint_per_check_type", "lint_merge_overall",
    "pip_tile_join", "events_window", "dedup_exact"])
def test_query_oracle_sidebyside(entrymod, name):
    from osmlint import queries as qmod
    got = _canon(_to_pandas(entrymod.queries()[name](SF)))
    con = duckdb.connect()
    for t in ("events", "documents", "embeddings"):
        con.execute(f"CREATE VIEW {t} AS SELECT * FROM "
                    f"read_parquet('{SF}/{t}.parquet')")
    exp = _canon(con.execute(qmod.oracle_queries(SF)[name]).df())
    assert list(got.columns) == list(exp.columns)
    pd.testing.assert_frame_equal(got, exp, check_dtype=False)
