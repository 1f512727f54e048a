# -*- coding: utf-8 -*-
"""corpus_split_leakfree (no near-dup pair straddles a split boundary)
and events props_extract (vectorized JSON field extraction)."""

import duckdb
import numpy as np
import pandas as pd
import pytest

from osmlint import eventops, textops

SF = "/root/testdata/sf0.001"


@pytest.fixture(scope="module")
def leakfree(ray_session):
    return textops.corpus_split_leakfree(SF)


def test_leakfree_no_cluster_straddles(leakfree):
    """THE guarantee: every verified near-dup pair lands in one split."""
    labels = textops.dedup_clusters(SF)
    assert len(labels) > 0, "gate data must exercise the cluster path"
    split_of = dict(zip(leakfree["doc_id"], leakfree["split"]))
    for cid, grp in labels.groupby("cluster_id"):
        splits = {split_of[d] for d in grp["doc_id"]}
        assert len(splits) == 1, f"cluster {cid} straddles {splits}"


def test_leakfree_degrades_to_corpus_split(leakfree):
    """Unclustered docs get exactly the corpus_split assignment, and a
    clustered doc gets its representative's corpus_split assignment."""
    plain = textops.corpus_split(SF).set_index("doc_id")["split"]
    labels = textops.dedup_clusters(SF)
    clustered = set(labels["doc_id"])
    for _, row in leakfree.iterrows():
        if row["doc_id"] in clustered:
            assert row["split"] == plain.loc[row["split_key"]]
        else:
            assert row["split_key"] == row["doc_id"]
            assert row["split"] == plain.loc[row["doc_id"]]


def test_leakfree_covers_all_docs(leakfree):
    con = duckdb.connect()
    n = con.execute(
        f"SELECT count(*) FROM read_parquet('{SF}/documents.parquet')"
    ).fetchone()[0]
    assert len(leakfree) == n
    assert leakfree["doc_id"].is_unique
    assert set(leakfree["split"]) <= {"train", "val", "test"}


def test_props_extract_brute(ray_session):
    got = eventops.props_extract(SF)
    con = duckdb.connect()
    exp = con.execute(f"""
      SELECT event_type, count(*) AS n, sum(k) AS s, min(k) AS lo,
             max(k) AS hi
      FROM (SELECT event_type,
                   CAST(regexp_extract(props, '"k"\\s*:\\s*(-?\\d+)', 1)
                        AS BIGINT) AS k
            FROM read_parquet('{SF}/events.parquet'))
      WHERE k IS NOT NULL GROUP BY 1 ORDER BY 1""").df()
    assert got["event_type"].tolist() == exp["event_type"].tolist()
    assert got["n_with_k"].tolist() == exp["n"].tolist()
    assert got["k_sum"].tolist() == exp["s"].tolist()
    assert got["k_min"].tolist() == exp["lo"].tolist()
    assert got["k_max"].tolist() == exp["hi"].tolist()
    np.testing.assert_allclose(
        got["k_avg"], exp["s"].to_numpy(float) / exp["n"].to_numpy(float))


def test_props_regex_excludes_malformed():
    """The mirrored extraction semantics: quoted or missing k must NOT
    extract; a float value extracts its integer prefix (the same
    truncation DuckDB's regexp_extract applies to the same pattern)."""
    s = pd.Series(['{"k": 7}', '{"k": "7"}', '{"j": 7}', '{"k": 7.5}',
                   '{"k": -3}', 'not json', None])
    k = pd.to_numeric(s.str.extract(eventops.PROPS_K_RE, expand=False),
                      errors="coerce")
    assert k.notna().tolist() == [True, False, False, True, True,
                                  False, False]
    assert k[0] == 7 and k[4] == -3


def test_leakfree_join_path_matches_broadcast(ray_session, leakfree,
                                              monkeypatch):
    """DROP_BROADCAST_MAX=0 forces the distributed left-join remap; the
    assignment must be identical to the broadcast path."""
    monkeypatch.setattr(textops, "DROP_BROADCAST_MAX", 0)
    joined = textops.corpus_split_leakfree(SF)
    pd.testing.assert_frame_equal(joined, leakfree)
