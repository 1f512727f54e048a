# -*- coding: utf-8 -*-
"""Round-3 corpus operators: connected-component dedup clusters (local +
distributed closure paths), vocabulary top-k, deterministic split, and
train/eval n-gram decontamination."""

import hashlib
import os

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest
import ray.data as rd

from osmlint import graph, textops


# ---------------------------------------------------------------------------
# connected components
# ---------------------------------------------------------------------------

def test_local_cc_mid_round_counterexample():
    """Edge order (1,2),(0,2): a mid-round fixpoint check would stop with
    node 1 still labeled 1 (processed before node 2 was lowered)."""
    df = graph._local_components(np.array([1, 0]), np.array([2, 2]))
    assert df["cluster_id"].tolist() == [0, 0, 0]
    assert df["cluster_size"].tolist() == [3, 3, 3]


def test_local_cc_chain_and_islands():
    # chain 10-11-12-13, pair (20,21), self-contained triangle 30-31-32
    a = np.array([10, 11, 12, 20, 30, 31, 30])
    b = np.array([11, 12, 13, 21, 31, 32, 32])
    df = graph._local_components(a, b).set_index("doc_id")
    assert df.loc[[10, 11, 12, 13], "cluster_id"].tolist() == [10] * 4
    assert df.loc[[20, 21], "cluster_id"].tolist() == [20] * 2
    assert df.loc[[30, 31, 32], "cluster_size"].tolist() == [3] * 3


def test_distributed_cc_matches_local(ray_session, monkeypatch):
    """Force the distributed min-label path and compare against the local
    closure on a graph with a long chain (multiple propagation rounds)."""
    rng = np.random.default_rng(3)
    a = rng.integers(0, 60, 120)
    b = rng.integers(0, 60, 120)
    keep = a != b
    edges = pd.DataFrame({"doc_a": np.r_[a[keep], np.arange(100, 107)],
                          "doc_b": np.r_[b[keep], np.arange(101, 108)]})
    loc = graph.cluster_labels(rd.from_pandas(edges))
    monkeypatch.setattr(graph, "SMALL_EDGES", 0)
    dist = graph.cluster_labels(rd.from_pandas(edges))
    pd.testing.assert_frame_equal(loc, dist)
    # the appended chain 100-...-107 is one component of size 8
    assert (loc.set_index("doc_id").loc[np.arange(100, 108),
                                        "cluster_size"] == 8).all()


def test_distributed_cc_fewer_clusters_than_partitions(ray_session,
                                                      monkeypatch):
    """One 2,000-leaf star: the closure is wide enough for several join
    partitions but has a single cluster, so a join keyed on the cluster
    set would leave partitions with only schema-less empty blocks."""
    edges = pd.DataFrame({"doc_a": np.zeros(2_000, dtype=np.int64),
                          "doc_b": np.arange(1, 2_001)})
    monkeypatch.setattr(graph, "SMALL_EDGES", 0)
    out = graph.cluster_labels(rd.from_pandas(edges))
    assert out["doc_id"].tolist() == list(range(2_001))
    assert (out["cluster_id"] == 0).all()
    assert (out["cluster_size"] == 2_001).all()


def test_cluster_labels_empty(ray_session):
    out = graph.cluster_labels(rd.from_pandas(
        pd.DataFrame({"doc_a": pd.Series(dtype=np.int64),
                      "doc_b": pd.Series(dtype=np.int64)})))
    assert out.empty and list(out.columns) == ["doc_id", "cluster_id",
                                               "cluster_size"]


@pytest.fixture(scope="module")
def dup_docs_dir(tmp_path_factory, ray_session):
    """Two groups of identical docs (sizes 3 and 2) + distinct fillers."""
    d = tmp_path_factory.mktemp("dupdocs")
    rows = [(i, "identical text body shared by the first duplicate group",
             "en", "srcA") for i in range(3)]
    rows += [(10 + i, "second group of matching documents right here now",
              "en", "srcA") for i in range(2)]
    rows += [(20 + i, f"unique filler number {i} with tokens {i * 7}",
              "en", "srcA") for i in range(4)]
    df = pd.DataFrame(rows, columns=["doc_id", "text", "lang", "source"])
    df["n_chars"] = df["text"].str.len()
    pq.write_table(pa.Table.from_pandas(df, preserve_index=False),
                   os.path.join(d, "documents.parquet"))
    return str(d)


def test_dedup_clusters_end_to_end(dup_docs_dir, monkeypatch):
    monkeypatch.setattr(textops, "MINHASH_TAU", 0.5)
    cl = textops.dedup_clusters(dup_docs_dir)
    assert cl["doc_id"].tolist() == [0, 1, 2, 10, 11]
    assert cl["cluster_id"].tolist() == [0, 0, 0, 10, 10]
    assert cl["cluster_size"].tolist() == [3, 3, 3, 2, 2]


# ---------------------------------------------------------------------------
# vocab_topk
# ---------------------------------------------------------------------------

def test_vocab_topk(tmp_path, ray_session, monkeypatch):
    d = str(tmp_path)
    texts = ["Alpha beta beta GAMMA", "alpha beta  gamma\tdelta", "ALPHA"]
    df = pd.DataFrame({"doc_id": np.arange(3, dtype=np.int64),
                       "text": texts, "lang": "en", "source": "s",
                       "n_chars": [len(t) for t in texts]})
    pq.write_table(pa.Table.from_pandas(df, preserve_index=False),
                   os.path.join(d, "documents.parquet"))
    monkeypatch.setattr(textops, "VOCAB_K", 3)
    top = textops.vocab_topk(d)
    # alpha 3, beta 3 (tie broken by token asc), gamma 2
    assert top["token"].tolist() == ["alpha", "beta", "gamma"]
    assert top["n"].tolist() == [3, 3, 2]


def test_mg_compress_bound():
    """Dropped tokens always had count <= the returned decrement d."""
    counts = pd.Series({f"t{i}": i + 1 for i in range(100)})
    s, d = textops._mg_compress(counts, 10)
    assert len(s) <= 10
    dropped = counts.index.difference(s.index)
    assert (counts[dropped] <= d).all()
    # surviving estimates undercount by exactly d
    assert (counts[s.index] - s == d).all()


def test_vocab_topk_mg_equals_exact(ray_session):
    sf = "/root/testdata/sf0.001"
    exact = textops.vocab_topk(sf)
    mg = textops.vocab_topk_mg(sf)
    pd.testing.assert_frame_equal(mg, exact)
    m = textops.LAST_METRICS["vocab_topk_mg"]
    assert m["certified"] in (True, False)  # recorded either way


def test_vocab_topk_mg_fallback_on_failed_certificate(ray_session,
                                                       monkeypatch):
    """A 3-counter budget on a flat distribution cannot certify: the
    exact fallback must kick in and still match the exact path."""
    sf = "/root/testdata/sf0.001"
    exact = textops.vocab_topk(sf)
    monkeypatch.setattr(textops, "MG_COUNTERS", 3)
    mg = textops.vocab_topk_mg(sf)
    pd.testing.assert_frame_equal(mg, exact)
    assert textops.LAST_METRICS["vocab_topk_mg"]["certified"] is False


# ---------------------------------------------------------------------------
# corpus_split
# ---------------------------------------------------------------------------

def test_corpus_split_deterministic_and_balanced(ray_session):
    sf = "/root/testdata/sf0.001"
    if not os.path.exists(sf):
        pytest.skip("no driver data")
    s1 = textops.corpus_split(sf)
    s2 = textops.corpus_split(sf)
    pd.testing.assert_frame_equal(s1, s2)
    frac = s1["split"].value_counts(normalize=True)
    assert 0.7 < frac["train"] < 0.9
    assert set(s1["split"]) == {"train", "val", "test"}
    # independent reimplementation of the assignment rule per row
    for _, row in s1.head(20).iterrows():
        h8 = hashlib.md5(str(row["doc_id"]).encode()).hexdigest()[:8]
        exp = ("train" if h8 < textops._SPLIT_TRAIN_HEX
               else "val" if h8 < textops._SPLIT_VAL_HEX else "test")
        assert row["split"] == exp


# ---------------------------------------------------------------------------
# decontaminate
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def contam_dir(tmp_path_factory, ray_session):
    """One eval doc copies a train doc (full contamination), one shares a
    prefix (partial), one is clean."""
    d = tmp_path_factory.mktemp("contam")
    train = [(0, "the quick brown fox jumps over the lazy dog", "train_src"),
             (1, "completely different training material here", "train_src")]
    evals = [(10, "the quick brown fox jumps over the lazy dog", "eval_src"),
             (11, "the quick brown fox sat somewhere else entirely today",
              "eval_src"),
             (12, "nothing in common with training data at all", "eval_src")]
    rows = [(i, t, "en", s) for i, t, s in train + evals]
    df = pd.DataFrame(rows, columns=["doc_id", "text", "lang", "source"])
    df["n_chars"] = df["text"].str.len()
    pq.write_table(pa.Table.from_pandas(df, preserve_index=False),
                   os.path.join(d, "documents.parquet"))
    return str(d)


def _grams(text, n=3):
    toks = text.split()
    return {" ".join(toks[i:i + n]) for i in range(max(1, len(toks) - n + 1))}


def test_decontaminate(contam_dir, monkeypatch):
    monkeypatch.setattr(textops, "EVAL_SOURCES", ("eval_src",))
    rep = textops.decontaminate(contam_dir)
    rep = rep.set_index("doc_id")
    assert 12 not in rep.index                       # clean doc not reported
    assert rep.loc[10, "contamination"] == 1.0       # exact copy
    # partial doc: expected overlap computed independently
    tr_grams = _grams("the quick brown fox jumps over the lazy dog") | \
        _grams("completely different training material here")
    ev_grams = _grams("the quick brown fox sat somewhere else entirely today")
    exp = len(ev_grams & tr_grams)
    assert rep.loc[11, "n_contaminated"] == exp
    assert rep.loc[11, "n_grams"] == len(ev_grams)
    assert 0 < rep.loc[11, "contamination"] < 1


def test_decontaminate_no_eval_side(contam_dir, monkeypatch):
    monkeypatch.setattr(textops, "EVAL_SOURCES", ("absent_src",))
    rep = textops.decontaminate(contam_dir)
    assert rep.empty


def test_decontaminate_bloom_identical(contam_dir, monkeypatch):
    """Bloom prefilter + exact verify == exact path, and the prefilter
    metrics are recorded."""
    monkeypatch.setattr(textops, "EVAL_SOURCES", ("eval_src",))
    exact = textops.decontaminate(contam_dir)
    bloom = textops.decontaminate(contam_dir, bloom_prefilter=True)
    pd.testing.assert_frame_equal(exact, bloom)
    m = textops.LAST_METRICS["decontaminate_bloom"]
    assert m["bloom_survivors"] <= m["eval_postings"]
    assert 0 < m["pass_rate"] <= 1


def test_decontaminate_bloom_tiny_filter_still_exact(contam_dir,
                                                     monkeypatch):
    """Force a saturated 8-KiB Bloom (every probe passes): the verify
    join must still remove every false positive."""
    monkeypatch.setattr(textops, "BLOOM_BITS_PER_KEY", 1)
    monkeypatch.setattr(textops, "EVAL_SOURCES", ("eval_src",))
    exact = textops.decontaminate(contam_dir)
    bloom = textops.decontaminate(contam_dir, bloom_prefilter=True)
    pd.testing.assert_frame_equal(exact, bloom)


def test_bloom_no_false_negatives():
    """Every inserted key must probe positive (Bloom soundness)."""
    rng = np.random.default_rng(7)
    keys = rng.integers(-2**62, 2**62, size=5000, dtype=np.int64)
    import ray.data as rd
    ds = rd.from_pandas(pd.DataFrame({"ngram": keys}))
    bits = textops._build_bloom(ds, len(keys))
    assert textops._bloom_probe(keys, bits).all()
    # and the FP rate on fresh keys is in the expected ~1% ballpark
    probe = rng.integers(-2**62, 2**62, size=20000, dtype=np.int64)
    fresh = probe[~np.isin(probe, keys)]
    fp = textops._bloom_probe(fresh, bits).mean()
    assert fp < 0.05


# ---------------------------------------------------------------------------
# repetition_stats / token_quantiles / corpus_redact
# ---------------------------------------------------------------------------

def test_repetition_stats(tmp_path, ray_session):
    d = str(tmp_path)
    texts = ["a b a b a b",             # heavy 2-gram repetition
             "one two three four five"]  # no repetition
    df = pd.DataFrame({"doc_id": np.arange(2, dtype=np.int64),
                       "text": texts, "lang": "en", "source": "s",
                       "n_chars": [len(t) for t in texts]})
    pq.write_table(pa.Table.from_pandas(df, preserve_index=False),
                   os.path.join(d, "documents.parquet"))
    out = textops.repetition_stats(d).to_pandas().set_index("doc_id")
    # "a b a b a b": 5 bigrams total, 2 distinct ("a b", "b a")
    assert out.loc[0, "n2_total"] == 5 and out.loc[0, "n2_distinct"] == 2
    assert out.loc[0, "dup2_fraction"] == pytest.approx(3 / 5)
    assert out.loc[1, "dup2_fraction"] == 0.0
    # trigrams of doc 0: 4 total, 2 distinct
    assert out.loc[0, "n3_total"] == 4 and out.loc[0, "n3_distinct"] == 2


def test_token_quantiles_matches_duckdb_def(ray_session):
    sf = "/root/testdata/sf0.001"
    if not os.path.exists(sf):
        pytest.skip("no driver data")
    import duckdb
    from osmlint import oracle_sql
    got = textops.token_quantiles(sf)
    con = duckdb.connect()
    con.execute(f"CREATE VIEW documents AS SELECT * FROM "
                f"read_parquet('{sf}/documents.parquet')")
    exp = con.execute(oracle_sql.token_quantiles_sql(
        textops.TOKEN_QUANTILES)).df()
    pd.testing.assert_frame_equal(
        got.reset_index(drop=True), exp.reset_index(drop=True),
        check_dtype=False)


def test_corpus_redact_live_patterns(tmp_path, ray_session):
    d = str(tmp_path)
    texts = ["contact bob@example.com or +381 11 2345678 now",
             "serial 123456789 and a@b.co end",
             "nothing to redact here"]
    df = pd.DataFrame({"doc_id": np.arange(3, dtype=np.int64),
                       "text": texts, "lang": "en", "source": "s",
                       "n_chars": [len(t) for t in texts]})
    pq.write_table(pa.Table.from_pandas(df, preserve_index=False),
                   os.path.join(d, "documents.parquet"))
    out = textops.corpus_redact(d).to_pandas().set_index("doc_id")
    assert out.loc[0, "text_redacted"] == "contact <EMAIL> or <PHONE> now"
    assert out.loc[0, "n_redactions"] == 2
    assert out.loc[1, "text_redacted"] == "serial <PHONE> and <EMAIL> end"
    assert out.loc[2, "text_redacted"] == "nothing to redact here"
    assert out.loc[2, "n_redactions"] == 0
    # DuckDB oracle agrees on live patterns, not just the identity path
    import duckdb
    from osmlint import oracle_sql
    con = duckdb.connect()
    con.execute(f"CREATE VIEW documents AS SELECT * FROM "
                f"read_parquet('{d}/documents.parquet')")
    exp = con.execute(oracle_sql.corpus_redact_sql(
        textops.REDACT_PATTERNS)).df()
    pd.testing.assert_frame_equal(
        out.reset_index().sort_values("doc_id").reset_index(drop=True),
        exp.sort_values("doc_id").reset_index(drop=True),
        check_dtype=False)


# ---------------------------------------------------------------------------
# corpus_sample / doc_chunks / dedup_apply
# ---------------------------------------------------------------------------

def test_corpus_sample_nested_and_decorrelated(ray_session, monkeypatch):
    sf = "/root/testdata/sf0.001"
    if not os.path.exists(sf):
        pytest.skip("no driver data")
    monkeypatch.setattr(textops, "SAMPLE_RATES", {})
    monkeypatch.setattr(textops, "SAMPLE_DEFAULT_RATE", 0.2)
    s_small = textops.corpus_sample(sf)
    monkeypatch.setattr(textops, "SAMPLE_DEFAULT_RATE", 0.5)
    s_big = textops.corpus_sample(sf)
    # nested samples: raising the rate only ADDS docs
    assert set(s_small["doc_id"]) <= set(s_big["doc_id"])
    assert 0.1 < len(s_small) / 500 < 0.3
    # per-lang override really changes only that stratum
    monkeypatch.setattr(textops, "SAMPLE_RATES", {"en": 0.5})
    monkeypatch.setattr(textops, "SAMPLE_DEFAULT_RATE", 0.2)
    s_en = textops.corpus_sample(sf)
    merged = s_en.merge(s_small, on="doc_id", how="outer", indicator=True,
                        suffixes=("", "_s"))
    only_new = merged[merged["_merge"] == "left_only"]
    assert (only_new["lang"] == "en").all()
    # decorrelated from the split: the 's:' prefix means the sample is not
    # just a subset of one split bucket
    sp = textops.corpus_split(sf).set_index("doc_id")["split"]
    assert sp.loc[s_small["doc_id"]].nunique() > 1


def test_doc_chunks_semantics(tmp_path, ray_session, monkeypatch):
    d = str(tmp_path)
    texts = [" ".join(f"t{i}" for i in range(10)),   # 10 tokens -> 3 chunks @4
             "one two",                               # 1 chunk
             ""]                                      # 0 chunks
    df = pd.DataFrame({"doc_id": np.arange(3, dtype=np.int64),
                       "text": texts, "lang": "en", "source": "s",
                       "n_chars": [len(t) for t in texts]})
    pq.write_table(pa.Table.from_pandas(df, preserve_index=False),
                   os.path.join(d, "documents.parquet"))
    monkeypatch.setattr(textops, "CHUNK_TOKENS", 4)
    out = textops.doc_chunks(d).to_pandas() \
        .sort_values(["doc_id", "chunk_idx"]).reset_index(drop=True)
    assert out[out["doc_id"] == 0]["n_tokens"].tolist() == [4, 4, 2]
    assert out[out["doc_id"] == 0]["chunk_text"].iloc[2] == "t8 t9"
    assert out[out["doc_id"] == 1]["chunk_text"].tolist() == ["one two"]
    assert (out["doc_id"] != 2).all()
    # every token survives, in order
    rejoined = " ".join(out[out["doc_id"] == 0]["chunk_text"])
    assert rejoined == texts[0]


def test_dedup_apply_consistent_with_clusters(dup_docs_dir, monkeypatch):
    monkeypatch.setattr(textops, "MINHASH_TAU", 0.5)
    kept = textops.dedup_apply(dup_docs_dir)
    cl = textops.dedup_clusters(dup_docs_dir)
    dropped = set(cl.loc[cl["doc_id"] != cl["cluster_id"], "doc_id"])
    all_ids = set(range(3)) | {10, 11} | {20, 21, 22, 23}
    assert set(kept["doc_id"]) == all_ids - dropped
    # canonical member of every cluster is retained
    assert set(cl["cluster_id"]) <= set(kept["doc_id"])


def test_dedup_apply_antijoin_path_matches_broadcast(dup_docs_dir,
                                                    monkeypatch):
    """DROP_BROADCAST_MAX=0 forces the distributed left-outer anti-join;
    both paths must retain the identical doc set."""
    monkeypatch.setattr(textops, "MINHASH_TAU", 0.5)
    fast = textops.dedup_apply(dup_docs_dir)
    monkeypatch.setattr(textops, "DROP_BROADCAST_MAX", 0)
    slow = textops.dedup_apply(dup_docs_dir)
    pd.testing.assert_frame_equal(fast, slow)


def test_dedup_clusters_dataset_contract(dup_docs_dir, monkeypatch):
    monkeypatch.setattr(textops, "MINHASH_TAU", 0.5)
    ds = textops.dedup_clusters(dup_docs_dir, as_dataset=True)
    df = ds.to_pandas().sort_values("doc_id").reset_index(drop=True)
    pd.testing.assert_frame_equal(
        df, textops.dedup_clusters(dup_docs_dir))


# ---------------------------------------------------------------------------
# top_quality_docs / tfidf_keywords
# ---------------------------------------------------------------------------

def test_top_quality_docs_rank_semantics(ray_session, monkeypatch):
    sf = "/root/testdata/sf0.001"
    if not os.path.exists(sf):
        pytest.skip("no driver data")
    monkeypatch.setattr(textops, "TOP_QUALITY_N", 3)
    out = textops.top_quality_docs(sf)
    assert set(out.groupby("lang")["rank"].apply(list)
               .map(tuple)) == {(1, 2, 3)}
    for _, g in out.groupby("lang"):
        q = g.sort_values("rank")["quality"].to_numpy()
        assert (q[:-1] >= q[1:]).all()           # non-increasing by rank


def test_tfidf_keywords_hapax_pruned_and_ranked(tmp_path, ray_session,
                                                monkeypatch):
    d = str(tmp_path)
    texts = ["apple banana apple cherry",
             "banana cherry cherry durian",
             "apple banana unique"]
    df = pd.DataFrame({"doc_id": np.arange(3, dtype=np.int64),
                       "text": texts, "lang": "en", "source": "s",
                       "n_chars": [len(t) for t in texts]})
    pq.write_table(pa.Table.from_pandas(df, preserve_index=False),
                   os.path.join(d, "documents.parquet"))
    monkeypatch.setattr(textops, "TFIDF_TOP", 2)
    monkeypatch.setattr(textops, "TFIDF_MIN_DF", 2)
    out = textops.tfidf_keywords(d)
    # hapaxes (durian df=1, unique df=1) never appear
    assert not set(out["token"]) & {"durian", "unique"}
    # doc 0: apple tf=2 idf=ln(3/2) > banana/cherry tf=1 -> apple rank 1
    d0 = out[out["doc_id"] == 0].sort_values("rank")
    assert d0["token"].iloc[0] == "apple"
    exp = np.floor(2 * np.log(3 / 2) * 1e6 + 0.5) / 1e6
    assert d0["tfidf"].iloc[0] == exp
    # ranks are 1..top per doc
    assert (out.groupby("doc_id")["rank"].min() == 1).all()
    assert (out.groupby("doc_id")["rank"].max() <= 2).all()


def test_distributed_cc_nonconvergence_is_loud(ray_session, caplog,
                                               monkeypatch):
    """MAX_ROUNDS too small for a chain: labels are an over-segmentation,
    and the truncation must be surfaced (warning + LAST_INFO)."""
    import logging
    chain = pd.DataFrame({"doc_a": np.arange(0, 12),
                          "doc_b": np.arange(1, 13)})
    monkeypatch.setattr(graph, "SMALL_EDGES", 0)
    with caplog.at_level(logging.WARNING, logger="osmlint.graph"), \
            monkeypatch.context() as m:
        m.setattr(graph, "MAX_ROUNDS", 1)
        graph.cluster_labels(rd.from_pandas(chain))
    assert graph.LAST_INFO == {"rounds": 1, "converged": False}
    assert any("did NOT converge" in r.message for r in caplog.records)
    # and with enough rounds the same graph converges
    out = graph.cluster_labels(rd.from_pandas(chain))
    assert graph.LAST_INFO["converged"]
    assert (out["cluster_id"] == 0).all()


def test_negative_doc_id_rejected_loudly(tmp_path, ray_session):
    d = str(tmp_path)
    df = pd.DataFrame({"doc_id": np.array([-1, 2], dtype=np.int64),
                       "text": ["a b c", "d e f"], "lang": "en",
                       "source": "s", "n_chars": [5, 5]})
    pq.write_table(pa.Table.from_pandas(df, preserve_index=False),
                   os.path.join(d, "documents.parquet"))
    with pytest.raises(Exception, match="negative doc_id"):
        textops.minhash_dup_pairs(d)


def test_sample_rate_one_keeps_everything(ray_session, monkeypatch):
    sf = "/root/testdata/sf0.001"
    if not os.path.exists(sf):
        pytest.skip("no driver data")
    monkeypatch.setattr(textops, "SAMPLE_RATES", {})
    monkeypatch.setattr(textops, "SAMPLE_DEFAULT_RATE", 1.0)
    s = textops.corpus_sample(sf)
    assert len(s) == 500                      # every doc retained


def test_dedup_apply_quality_keeps_best(tmp_path, ray_session, monkeypatch):
    """The quality keeper differs from the canonical-min keeper when a
    HIGHER doc_id has higher quality: doc 1 is doc 0 plus stopword-rich
    tokens (word-3-gram Jaccard 10/15 >= 0.5, quality strictly higher),
    so dedup_apply keeps 0 but dedup_apply_quality keeps 1.  Both apply
    paths (broadcast and forced anti-join) agree."""
    d = str(tmp_path)
    base = ("zebra quark lumen boxer delta vesta orion nimbu salix "
            "corvo talon umbra")
    texts = [base, base + " the and of in to", "unique filler body x"]
    df = pd.DataFrame({"doc_id": np.array([0, 1, 5], dtype=np.int64),
                       "text": texts, "lang": "en", "source": "srcA"})
    df["n_chars"] = df["text"].str.len()
    pq.write_table(pa.Table.from_pandas(df, preserve_index=False),
                   os.path.join(d, "documents.parquet"))
    monkeypatch.setattr(textops, "MINHASH_TAU", 0.5)
    plain = textops.dedup_apply(d)
    best = textops.dedup_apply_quality(d)
    assert plain["doc_id"].tolist() == [0, 5]
    assert best["doc_id"].tolist() == [1, 5]
    monkeypatch.setattr(textops, "DROP_BROADCAST_MAX", 0)
    forced = textops.dedup_apply_quality(d)
    pd.testing.assert_frame_equal(best, forced)
