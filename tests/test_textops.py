# -*- coding: utf-8 -*-
"""Unit tests for the training-data text/dedup operators: constructed
fixtures with REAL duplicates and near-duplicates (the driver tables have
none), run through the same Ray pipelines."""

import os

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from osmlint import textops


@pytest.fixture(scope="module")
def doc_dir(tmp_path_factory, ray_session):
    d = tmp_path_factory.mktemp("docs")
    base = ("the quick brown fox jumps over the lazy dog and runs far away "
            "into the deep green forest tonight with a happy friend of mine")
    near = base.replace("happy", "cheerful")          # 1-word change
    far = "completely different words about database engines and shuffles"
    rows = []
    for i in range(40):
        rows.append((i, f"unique document number {i} "
                        f"with some filler tokens {i * 7} {i * 13}",
                     "en", "srcA", 0))
    rows += [(100, base, "en", "srcA", 0), (101, base, "en", "srcB", 0),
             (102, near, "en", "srcA", 0), (103, far, "en", "srcA", 0)]
    df = pd.DataFrame(rows, columns=["doc_id", "text", "lang", "source",
                                     "n_chars"])
    df["n_chars"] = df["text"].str.len()
    pq.write_table(pa.Table.from_pandas(df, preserve_index=False),
                   os.path.join(d, "documents.parquet"))
    return str(d)


def test_exact_dedup(doc_dir):
    out = textops.dedup_exact(doc_dir)
    assert len(out) == 43                        # 44 docs, one exact dup pair
    kept = out.set_index("doc_id")["n_copies"]
    assert kept.loc[100] == 2                    # 100/101 same text, min wins
    assert 101 not in kept.index
    assert (kept.drop(100) == 1).all()


def test_minhash_near_dup(doc_dir, monkeypatch):
    monkeypatch.setattr(textops, "MINHASH_TAU", 0.5)
    pairs = textops.minhash_dup_pairs(doc_dir)
    assert (100, 101) in set(zip(pairs.doc_a, pairs.doc_b))
    assert {(100, 102), (101, 102)} & set(zip(pairs.doc_a, pairs.doc_b))
    # exact-duplicate jaccard is 1.0
    j = pairs.set_index(["doc_a", "doc_b"])["jaccard"]
    assert j.loc[(100, 101)] == 1.0
    # the unrelated doc never pairs
    assert 103 not in set(pairs.doc_a) | set(pairs.doc_b)


def test_simhash_properties(doc_dir):
    sh = textops.simhash_docs(doc_dir).to_pandas().set_index("doc_id")["simhash"]
    assert sh.loc[100] == sh.loc[101]            # identical text, same hash
    ham_near = bin(int(sh.loc[100]) ^ int(sh.loc[102])).count("1")
    ham_far = bin(int(sh.loc[100]) ^ int(sh.loc[103])).count("1")
    assert ham_near < ham_far                    # near-dup closer than far doc
    assert ham_near <= 16


def test_text_stats_kernel(doc_dir):
    stats = textops.text_stats(doc_dir).to_pandas().set_index("doc_id")
    row = stats.loc[100]
    t_base = ("the quick brown fox jumps over the lazy dog and runs far away "
              "into the deep green forest tonight with a happy friend of mine")
    assert row["n_tokens"] == len(t_base.split())
    assert row["lang_pred"] == "en"
    assert 0.0 <= row["quality"] <= 1.0
    import hashlib
    t = ("the quick brown fox jumps over the lazy dog and runs far away "
         "into the deep green forest tonight with a happy friend of mine")
    assert row["fingerprint"] == hashlib.md5(t.encode()).hexdigest()
    assert stats.loc[100, "stop_cnt"] >= 4       # the/and/with/a/of


def test_ngram_jaccard_lower_tau(doc_dir, monkeypatch):
    monkeypatch.setattr(textops, "NGRAM_TAU", 0.3)
    pairs = textops.ngram_jaccard_pairs(doc_dir)
    got = set(zip(pairs.doc_a, pairs.doc_b))
    assert (100, 101) in got and (100, 102) in got


def test_ngram_jaccard_equals_brute_force(doc_dir, monkeypatch):
    """The inverted-index candidate generation has EXACT recall: the
    operator must equal a brute-force all-pairs Jaccard on the fixture."""
    monkeypatch.setattr(textops, "NGRAM_TAU", 0.3)
    pairs = textops.ngram_jaccard_pairs(doc_dir)
    docs = pq.read_table(os.path.join(doc_dir, "documents.parquet")) \
        .to_pandas()
    h, off = textops._doc_shingles(docs["text"].fillna(""))
    ids = docs["doc_id"].to_numpy()
    exp = []
    for i in range(len(ids)):
        si = h[off[i]:off[i + 1]]
        for j in range(i + 1, len(ids)):
            sj = h[off[j]:off[j + 1]]
            inter = np.intersect1d(si, sj, assume_unique=True).size
            union = si.size + sj.size - inter
            jac = inter / union if union else 0.0
            if jac >= 0.3:
                a, b = sorted((ids[i], ids[j]))
                exp.append((a, b, jac))
    exp_df = pd.DataFrame(exp, columns=["doc_a", "doc_b", "jaccard"]) \
        .sort_values(["doc_a", "doc_b"]).reset_index(drop=True)
    pd.testing.assert_frame_equal(pairs, exp_df)


def test_minhash_subset_of_exact(doc_dir, monkeypatch):
    """LSH banding output is always a subset of the exact tau-pair set
    (verify is exact Jaccard on the full shingle sets)."""
    monkeypatch.setattr(textops, "MINHASH_TAU", 0.5)
    monkeypatch.setattr(textops, "NGRAM_TAU", 0.5)
    pairs = textops.minhash_dup_pairs(doc_dir)
    allp = textops.ngram_jaccard_pairs(doc_dir)
    assert set(zip(pairs.doc_a, pairs.doc_b)) <= \
        set(zip(allp.doc_a, allp.doc_b))


def test_simhash_dup_pairs(doc_dir, monkeypatch):
    """Block-key bucketing finds every pair within SIMHASH_MAX_HAMMING bits —
    the identical pair at hamming 0, and nothing outside the bound."""
    monkeypatch.setattr(textops, "SIMHASH_MAX_HAMMING", 3)
    pairs = textops.simhash_dup_pairs(doc_dir)
    got = dict(zip(zip(pairs.doc_a, pairs.doc_b), pairs.hamming))
    assert got.get((100, 101)) == 0              # identical text
    # verify bound + exactness vs brute force over all simhashes
    sh = textops.simhash_docs(doc_dir).to_pandas() \
        .set_index("doc_id")["simhash"]
    ids = sorted(sh.index)
    exp = {}
    for i, a in enumerate(ids):
        for b in ids[i + 1:]:
            h = bin(int(sh[a]) ^ int(sh[b])).count("1")
            if h <= 3:
                exp[(a, b)] = h
    assert got == exp


# ---------------------------------------------------------------------------
# language-ID (trigram profiles)
# ---------------------------------------------------------------------------

def test_lang_id_real_language_snippets(tmp_path, ray_session):
    d = str(tmp_path)
    rows = [
        (0, "The weather was fine and the children were playing in the "
            "garden of the old house", "en"),
        (1, "Ich habe einen schoenen Tag in der Stadt verbracht und die "
            "Sonne schien ueber dem Fluss", "de"),
        (2, "Les enfants jouaient dans les jardins et la lumiere du soir "
            "tombait sur les toits de la ville", "fr"),
        (3, "Los ninos estaban jugando en el parque como siempre y que "
            "bien lo pasaron aquella tarde", "es"),
        (4, "Deca su se igrala u parku i bilo je lepo vreme da se ostane "
            "napolju jer je sunce sijalo ceo dan", "sr"),
        (5, "", "unknown"),                       # empty -> no trigrams
        (6, "zq", "unknown"),                     # shorter than a trigram
    ]
    df = pd.DataFrame(rows, columns=["doc_id", "text", "expect"])
    df["lang"] = "xx"
    df["source"] = "s"
    df["n_chars"] = df["text"].str.len()
    pq.write_table(
        pa.Table.from_pandas(df[["doc_id", "text", "lang", "source",
                                 "n_chars"]], preserve_index=False),
        os.path.join(d, "documents.parquet"))
    out = textops.lang_id(d).to_pandas().set_index("doc_id")
    for _, r in df.iterrows():
        assert out.loc[r.doc_id, "lang_pred"] == r.expect, r.text
    assert (out.loc[[5, 6], "score"] == 0).all()
    assert (out.loc[[0, 1, 2, 3, 4], "score"] > 0).all()


def test_lang_id_overlap_counting_and_tiebreak():
    # overlapping occurrences both count: "ij(e)ije" has "ije" at 2 offsets
    b = pa.table({"doc_id": pa.array([0, 1], type=pa.int64()),
                  "text": pa.array(["ijeije", "der les"]),
                  "lang": pa.array(["x", "x"]),
                  "source": pa.array(["s", "s"]),
                  "n_chars": pa.array([6, 7], type=pa.int64())})
    out = textops.langid_batch(b).to_pandas().set_index("doc_id")
    assert out.loc[0, "lang_pred"] == "sr"
    assert out.loc[0, "score"] == 2              # "ije" at offsets 0 and 3
    # "der les" scores de=1 ("der") and fr=2 ("les" + " le") -> fr wins;
    # swap to equal evidence and the tie breaks lexicographically
    assert out.loc[1, "lang_pred"] == "fr"
    b2 = pa.table({"doc_id": pa.array([2], type=pa.int64()),
                   "text": pa.array(["derles"]),   # de=1 ("der"), fr=1 ("les")
                   "lang": pa.array(["x"]), "source": pa.array(["s"]),
                   "n_chars": pa.array([6], type=pa.int64())})
    out2 = textops.langid_batch(b2).to_pandas()
    assert out2.loc[0, "lang_pred"] == "de"      # tie -> lang asc


def test_lang_id_matches_duckdb_oracle(doc_dir, ray_session):
    import duckdb
    from osmlint import oracle_sql
    ray_df = (textops.lang_id(doc_dir).to_pandas()
              .sort_values("doc_id").reset_index(drop=True))
    con = duckdb.connect()
    con.execute(f"CREATE VIEW documents AS SELECT * FROM read_parquet("
                f"'{os.path.join(doc_dir, 'documents.parquet')}')")
    sql_df = con.execute(oracle_sql.lang_id_sql()).df()
    sql_df["doc_id"] = sql_df["doc_id"].astype(np.int64)
    sql_df["score"] = sql_df["score"].astype(np.int64)
    pd.testing.assert_frame_equal(ray_df, sql_df)


# ---------------------------------------------------------------------------
# unigram LM scoring
# ---------------------------------------------------------------------------

def test_unigram_logprob_signal_and_edges(tmp_path, ray_session):
    d = str(tmp_path)
    common = "alpha " * 50               # one very common token
    rare = "zeta omega sigma kappa "     # tokens seen once each
    rows = [(0, common.strip()), (1, (common + rare).strip()),
            (2, rare.strip()), (3, "")]
    df = pd.DataFrame(rows, columns=["doc_id", "text"])
    df["lang"] = "en"; df["source"] = "s"
    df["n_chars"] = df["text"].str.len()
    pq.write_table(pa.Table.from_pandas(df, preserve_index=False),
                   os.path.join(d, "documents.parquet"))
    out = textops.unigram_logprob(d).to_pandas().set_index("doc_id")
    # rare-token soup scores strictly worse (higher NLL) than common text
    assert out.loc[0, "avg_nll"] < out.loc[1, "avg_nll"] \
        < out.loc[2, "avg_nll"]
    # empty doc: zero tokens, zero score
    assert out.loc[3, "n_tokens"] == 0 and out.loc[3, "avg_nll"] == 0.0
    # exact value for the pure-common doc: -ln(p) = ln(N/n_alpha)
    n_total = 100 + 8                     # 50+54 alphas... recompute below
    n_alpha = 50 + 50
    n_total = n_alpha + 8
    import math
    expect = math.floor(math.log(n_total / n_alpha) * 1e6 + 0.5) / 1e6
    assert out.loc[0, "avg_nll"] == expect


def test_unigram_logprob_oov_floor(tmp_path, ray_session, monkeypatch):
    """LOGPROB_VOCAB=1 keeps only the top token: everything else hits the
    1/N floor, scoring ln(N) regardless of its true frequency."""
    d = str(tmp_path)
    rows = [(0, "a a a a"), (1, "b b b"), (2, "c")]
    df = pd.DataFrame(rows, columns=["doc_id", "text"])
    df["lang"] = "en"; df["source"] = "s"
    df["n_chars"] = df["text"].str.len()
    pq.write_table(pa.Table.from_pandas(df, preserve_index=False),
                   os.path.join(d, "documents.parquet"))
    monkeypatch.setattr(textops, "LOGPROB_VOCAB", 1)
    out = textops.unigram_logprob(d).to_pandas().set_index("doc_id")
    import math
    ln_n = math.floor(math.log(8) * 1e6 + 0.5) / 1e6
    assert out.loc[1, "avg_nll"] == ln_n     # OOV b: count floor 1
    assert out.loc[2, "avg_nll"] == ln_n     # OOV c: same floor
    assert out.loc[0, "avg_nll"] < ln_n      # in-vocab a: true p=4/8


# ---------------------------------------------------------------------------
# winnowing fingerprints (rolling hash)
# ---------------------------------------------------------------------------

def _winnow_df(rows, tmp):
    df = pd.DataFrame(rows, columns=["doc_id", "text"])
    df["lang"] = "en"; df["source"] = "s"
    df["n_chars"] = df["text"].str.len()
    pq.write_table(pa.Table.from_pandas(df, preserve_index=False),
                   os.path.join(tmp, "documents.parquet"))
    return textops.winnow_fingerprints(tmp).to_pandas()


def test_winnow_properties(tmp_path, ray_session):
    base = "the quick brown fox jumps over the lazy dog again and again"
    shared = "this exact shared passage is long enough to guarantee overlap"
    rows = [(0, base), (1, base),                       # identical docs
            (2, "AAA " + shared + " BBB"),              # share `shared`
            (3, "xyz " + shared + " qrs"),
            (4, "tiny"),                                # < k chars: no fps
            (5, "exactly8")]                            # == k: one fp, pos 0
    out = _winnow_df(rows, str(tmp_path))
    g = {d: set(map(tuple, v[["pos", "fp"]].to_numpy()))
         for d, v in out.groupby("doc_id")}
    assert g[0] == g[1]                                 # determinism
    # copy detection: common substring >= k+w-1 shares >=1 fingerprint VALUE
    assert set(out[out.doc_id == 2].fp) & set(out[out.doc_id == 3].fp)
    assert 4 not in g                                   # too short
    assert g[5] == {(0, out[out.doc_id == 5].fp.iat[0])}
    # winnowing density guarantee: consecutive selected positions within
    # a doc are at most w apart (every window selects something)
    for d, v in out.groupby("doc_id"):
        p = np.sort(v["pos"].to_numpy())
        assert (np.diff(p) <= textops.WINNOW_W).all()
        assert (v["fp"] >= 0).all() and (v["fp"] < (1 << 32)).all()


def test_winnow_rightmost_tie_and_oracle(tmp_path, ray_session):
    # constant text: every k-gram hashes identically, so every window's
    # rightmost-min is its own END position -> every t in [w-1, m-1]
    rows = [(0, "a" * 20)]
    out = _winnow_df(rows, str(tmp_path))
    m = 20 - textops.WINNOW_K + 1                       # 13 k-gram positions
    w = textops.WINNOW_W
    assert sorted(out["pos"]) == list(range(w - 1, m))
    # and the DuckDB oracle agrees on an adversarial mixed fixture
    # (repetitive text, empty doc, non-ASCII code points)
    import duckdb
    from osmlint import oracle_sql
    d2 = os.path.join(str(tmp_path), "w2")
    os.makedirs(d2, exist_ok=True)
    rows = [(0, "a" * 20), (1, "abcabcabcabcabc"), (2, ""),
            (3, "unicode: \u0107\u0446\u4e2d text here")]
    ray_df = _winnow_df(rows, d2) \
        .sort_values(["doc_id", "pos"]).reset_index(drop=True)
    con = duckdb.connect()
    con.execute(f"CREATE VIEW documents AS SELECT * FROM read_parquet("
                f"'{os.path.join(d2, 'documents.parquet')}')")
    sql_df = con.execute(oracle_sql.winnow_sql(
        textops.WINNOW_K, textops.WINNOW_W)).df()
    for c in sql_df.columns:
        sql_df[c] = sql_df[c].astype(np.int64)
    pd.testing.assert_frame_equal(ray_df, sql_df)


# ---------------------------------------------------------------------------
# dup_spans: cross-document duplicated k-gram spans
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def span_dir(tmp_path_factory, ray_session):
    d = tmp_path_factory.mktemp("spans")
    rows = [
        # 8-token shared run at pos 0 (doc 1) / pos 3 (doc 2)
        (1, "a b c d e f g h x1 y1 z1", "en", "s", 0),
        (2, "p q r a b c d e f g h s t", "en", "s", 0),
        # within-doc-only repeat of a 5-gram: must NOT be flagged
        (3, "w1 w2 w3 w4 w5 w1 w2 w3 w4 w5", "en", "s", 0),
        # shorter than k: emits no grams at all
        (4, "tiny doc", "en", "s", 0),
        # exact 6-token duplicates
        (5, "e1 e2 e3 e4 e5 e6", "en", "s", 0),
        (6, "e1 e2 e3 e4 e5 e6", "en", "s", 0),
    ] + [(10 + i, f"unique filler {i} tokens {i*3} {i*7} {i*11} end{i}",
          "en", "s", 0) for i in range(20)]
    df = pd.DataFrame(rows, columns=["doc_id", "text", "lang", "source",
                                     "n_chars"])
    df["n_chars"] = df["text"].str.len()
    pq.write_table(pa.Table.from_pandas(df, preserve_index=False),
                   os.path.join(d, "documents.parquet"))
    return str(d)


def _spans_df(out):
    return out.to_pandas().sort_values(["doc_id", "span_start"]) \
        .reset_index(drop=True)


def test_dup_spans_semantics(span_dir):
    df = _spans_df(textops.dup_spans(span_dir))
    got = {(r.doc_id, r.span_start, r.span_end, r.n_tokens, r.n_grams)
           for r in df.itertuples()}
    assert got == {
        (1, 0, 8, 8, 4),     # 4 shared 5-grams merged into one 8-token span
        (2, 3, 11, 8, 4),    # same run shifted by the p/q/r prefix
        (5, 0, 6, 6, 2),     # exact dup pair: whole doc covered
        (6, 0, 6, 6, 2),
    }
    # doc 3's within-doc repeat and doc 4's short text never flagged
    assert not set(df.doc_id) & {3, 4}


def test_dup_spans_join_path_equality(span_dir, monkeypatch):
    # DUPSPAN_BROADCAST_MAX=0 forces the distributed-join fallback
    a = _spans_df(textops.dup_spans(span_dir))
    monkeypatch.setattr(textops, "DUPSPAN_BROADCAST_MAX", 0)
    b = _spans_df(textops.dup_spans(span_dir))
    pd.testing.assert_frame_equal(a, b)


def test_dup_spans_matches_duckdb_oracle(span_dir):
    import duckdb

    from osmlint import oracle_sql
    df = _spans_df(textops.dup_spans(span_dir)) \
        .astype({"doc_id": "int64", "span_start": "int64",
                 "span_end": "int64", "n_tokens": "int64",
                 "n_grams": "int64"})
    con = duckdb.connect()
    con.execute(f"CREATE VIEW documents AS SELECT * FROM "
                f"read_parquet('{span_dir}/documents.parquet')")
    exp = con.execute(oracle_sql.dup_spans_sql(textops.DUPSPAN_K)) \
        .fetchdf().astype({c: "int64" for c in
                           ["doc_id", "span_start", "span_end",
                            "n_tokens", "n_grams"]})
    pd.testing.assert_frame_equal(df, exp.reset_index(drop=True))


# ---------------------------------------------------------------------------
# pmi_bigrams: collocation mining
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def pmi_dir(tmp_path_factory, ray_session):
    d = tmp_path_factory.mktemp("pmi")
    rows = [
        # "new york" always adjacent (strong collocation, cnt=4)
        (1, "new york is big and new york is far from here", "en", "s", 0),
        (2, "we flew to new york and back to new york today", "en", "s", 0),
        # "the the" frequent but both words frequent everywhere (low PMI)
        (3, "the cat and the dog and the bird and the fish", "en", "s", 0),
        (4, "the sun and the moon and the star and the sky", "en", "s", 0),
        (5, "rare words here", "en", "s", 0),
    ]
    df = pd.DataFrame(rows, columns=["doc_id", "text", "lang", "source",
                                     "n_chars"])
    df["n_chars"] = df["text"].str.len()
    pq.write_table(pa.Table.from_pandas(df, preserve_index=False),
                   os.path.join(d, "documents.parquet"))
    return str(d)


def test_pmi_bigrams_collocation_signal(pmi_dir, monkeypatch):
    monkeypatch.setattr(textops, "PMI_TOP", 10)
    monkeypatch.setattr(textops, "PMI_MIN_CNT", 3)
    df = textops.pmi_bigrams(pmi_dir)
    assert list(df.columns) == ["w1", "w2", "cnt", "pmi", "rank"]
    top = df.set_index(["w1", "w2"])
    assert ("new", "york") in top.index
    ny = top.loc[("new", "york")]
    assert ny["cnt"] == 4
    # always-adjacent pair: pmi = ln(N^2 * cxy / (cx * cy * B)), all of
    # "new"/"york" occurrences are in the bigram
    n_tok = sum(len(t.split()) for t in [
        "new york is big and new york is far from here",
        "we flew to new york and back to new york today",
        "the cat and the dog and the bird and the fish",
        "the sun and the moon and the star and the sky",
        "rare words here"])
    n_big = n_tok - 5
    exp = np.log((4 * n_tok * n_tok) / (4 * 4 * n_big))
    assert abs(ny["pmi"] - exp) < 1e-5
    # "and the" has high support but low PMI: ranked below "new york"
    if ("and", "the") in top.index:
        assert top.loc[("and", "the"), "pmi"] < ny["pmi"]
    # ranks are 1..n dense
    assert list(df["rank"]) == list(range(1, len(df) + 1))


def test_pmi_bigrams_min_count_floor(pmi_dir, monkeypatch):
    monkeypatch.setattr(textops, "PMI_TOP", 50)
    monkeypatch.setattr(textops, "PMI_MIN_CNT", 3)
    df = textops.pmi_bigrams(pmi_dir)
    assert (df["cnt"] >= 3).all()
    # no bigram clears a support floor above the max count
    monkeypatch.setattr(textops, "PMI_TOP", 10)
    monkeypatch.setattr(textops, "PMI_MIN_CNT", 99)
    assert textops.pmi_bigrams(pmi_dir).empty


def test_pmi_bigrams_matches_duckdb_oracle(pmi_dir):
    import duckdb

    from osmlint import oracle_sql
    df = textops.pmi_bigrams(pmi_dir)
    con = duckdb.connect()
    con.execute(f"CREATE VIEW documents AS SELECT * FROM "
                f"read_parquet('{pmi_dir}/documents.parquet')")
    exp = con.execute(oracle_sql.pmi_bigrams_sql(
        textops.PMI_TOP, textops.PMI_MIN_CNT)).fetchdf()
    exp["cnt"] = exp["cnt"].astype("int64")
    exp["rank"] = exp["rank"].astype("int64")
    pd.testing.assert_frame_equal(df.reset_index(drop=True),
                                  exp.reset_index(drop=True))


# ---------------------------------------------------------------------------
# quality_percentile_filter + distinct_token_counts
# ---------------------------------------------------------------------------

def test_quality_percentile_filter_keeps_top_fraction(doc_dir, monkeypatch):
    monkeypatch.setattr(textops, "QUALITY_KEEP_FRAC", 0.25)
    kept = textops.quality_percentile_filter(doc_dir) \
        .to_pandas()
    stats = textops.text_stats(doc_dir).to_pandas()
    docs = pd.read_parquet(os.path.join(doc_dir, "documents.parquet"))
    stats = stats.merge(docs[["doc_id", "lang"]], on="doc_id")
    stats["qbin"] = np.floor(stats["quality"] * 1e4 + 0.5).astype(np.int64)
    for lang, g in stats.groupby("lang"):
        got = set(kept[kept["lang"] == lang]["doc_id"])
        n = len(g)
        k = max(int(np.ceil(0.75 * n)), 1)
        thr = np.sort(g["qbin"].to_numpy())[k - 1]
        exp = set(g[g["qbin"] >= thr]["doc_id"])
        assert got == exp
        assert len(got) >= int(np.ceil(0.25 * n)) or len(got) == len(exp)
    # reported quality_r is the rounded bin value
    m = kept.merge(stats, on="doc_id")
    assert np.allclose(m["quality_r"], m["qbin"] / 1e4)


def test_quality_percentile_filter_tie_semantics(tmp_path, ray_session,
                                                 monkeypatch):
    # every doc identical => all tie at the threshold => ALL kept
    d = tmp_path / "ties"
    d.mkdir()
    df = pd.DataFrame({"doc_id": range(8),
                       "text": ["same text here ok"] * 8,
                       "lang": ["en"] * 8, "source": ["s"] * 8,
                       "n_chars": [17] * 8})
    pq.write_table(pa.Table.from_pandas(df, preserve_index=False),
                   str(d / "documents.parquet"))
    monkeypatch.setattr(textops, "QUALITY_KEEP_FRAC", 0.25)
    kept = textops.quality_percentile_filter(str(d)) \
        .to_pandas()
    assert set(kept["doc_id"]) == set(range(8))


def test_distinct_token_counts_exact(tmp_path, ray_session):
    d = tmp_path / "dtc"
    d.mkdir()
    df = pd.DataFrame({
        "doc_id": [1, 2, 3],
        "text": ["A a b c", "b c d", "x y"],
        "lang": ["en", "en", "sr"],
        "source": ["s"] * 3, "n_chars": [7, 5, 3]})
    pq.write_table(pa.Table.from_pandas(df, preserve_index=False),
                   str(d / "documents.parquet"))
    out = textops.distinct_token_counts(str(d))
    # lowercased: en has {a, b, c, d}, sr has {x, y}
    assert dict(zip(out["lang"], out["n_distinct"])) == {"en": 4, "sr": 2}


def test_hll_unit_accuracy():
    """Estimator accuracy on a known cardinality, pure numpy."""
    rng = np.random.default_rng(3)
    # full 64-bit range: the register index is the TOP 14 bits, so a
    # [0, 2^63) draw would leave half the registers permanently zero
    h = rng.integers(-2**63, 2**63, size=200_000, dtype=np.int64) \
        .astype(np.uint64)
    h = np.unique(h)
    regs = np.zeros(1 << textops.HLL_P, dtype=np.uint8)
    textops._hll_update(regs, h)
    est = textops._hll_estimate(regs)
    assert abs(est - len(h)) / len(h) < 0.03
    # merge property: two half-sketches max-merge to the full sketch
    r1 = np.zeros_like(regs)
    r2 = np.zeros_like(regs)
    textops._hll_update(r1, h[: len(h) // 2])
    textops._hll_update(r2, h[len(h) // 2:])
    assert (np.maximum(r1, r2) == regs).all()


def test_distinct_token_counts_hll_vs_exact(ray_session):
    sf = "/root/testdata/sf0.001"
    exact = textops.distinct_token_counts(sf).set_index("lang")["n_distinct"]
    est = textops.distinct_token_counts_hll(sf) \
        .set_index("lang")["n_distinct_est"]
    assert set(est.index) == set(exact.index)
    for lang in exact.index:
        err = abs(est[lang] - exact[lang]) / max(exact[lang], 1)
        assert err < 0.03, (lang, est[lang], exact[lang])
    # determinism: the sketch is a pure function of the input
    est2 = textops.distinct_token_counts_hll(sf) \
        .set_index("lang")["n_distinct_est"]
    assert (est == est2).all()


def test_dup_span_stats_rollup(span_dir):
    df = textops.dup_span_stats(span_dir).to_pandas() \
        .set_index("doc_id").sort_index()
    # doc 1: one 8-token span of an 11-token doc
    assert df.loc[1, "n_spans"] == 1
    assert df.loc[1, "dup_tokens"] == 8
    assert df.loc[1, "total_tokens"] == 11
    assert abs(df.loc[1, "dup_fraction"] - 8 / 11) < 1e-6
    # docs 5/6: fully duplicated
    assert df.loc[5, "dup_fraction"] == 1.0
    assert df.loc[6, "total_tokens"] == 6
    # unflagged docs are absent
    assert not set(df.index) & {3, 4, 10}


def test_token_entropy_signals(tmp_path, ray_session):
    d = tmp_path / "ent"
    d.mkdir()
    df = pd.DataFrame({
        "doc_id": [1, 2, 3],
        "text": ["a a a a", "a b c d", ""],
        "lang": ["en"] * 3, "source": ["s"] * 3, "n_chars": [7, 7, 0]})
    pq.write_table(pa.Table.from_pandas(df, preserve_index=False),
                   str(d / "documents.parquet"))
    out = textops.token_entropy(str(d)).to_pandas().set_index("doc_id")
    assert out.loc[1, "entropy"] == 0.0          # single repeated token
    assert abs(out.loc[2, "entropy"] - np.log(4)) < 1e-6   # uniform
    assert out.loc[2, "ttr"] == 1.0
    assert out.loc[1, "ttr"] == 0.25
    assert out.loc[3, "n_tokens"] == 0 and out.loc[3, "entropy"] == 0.0


def test_corpus_mix_shares_and_determinism(tmp_path, ray_session, monkeypatch):
    d = tmp_path / "mix"
    d.mkdir()
    rows = []
    i = 0
    for src, n in [("a", 300), ("b", 100), ("c", 100)]:
        for _ in range(n):
            rows.append((i, f"doc {i}", "en", src, 5))
            i += 1
    df = pd.DataFrame(rows, columns=["doc_id", "text", "lang", "source",
                                     "n_chars"])
    pq.write_table(pa.Table.from_pandas(df, preserve_index=False),
                   str(d / "documents.parquet"))
    # target 1:1:1 over (300, 100, 100) docs: T = 100, rates a=1/3 b=c=1
    monkeypatch.setattr(textops, "MIX_WEIGHTS", {})
    monkeypatch.setattr(textops, "MIX_DEFAULT_WEIGHT", 1.0)
    out = textops.corpus_mix(str(d)).to_pandas()
    by = out.groupby("source").size()
    assert by["b"] == 100 and by["c"] == 100       # rate 1 keeps everything
    assert abs(by["a"] - 100) < 35                 # hash-sampled ~1/3
    # deterministic
    out2 = textops.corpus_mix(str(d)).to_pandas()
    pd.testing.assert_frame_equal(
        out.sort_values("doc_id").reset_index(drop=True),
        out2.sort_values("doc_id").reset_index(drop=True))
    # upweighting a source keeps MORE of it (nested thresholds)
    monkeypatch.setattr(textops, "MIX_WEIGHTS", {"a": 2.0})
    out3 = textops.corpus_mix(str(d)).to_pandas()
    a3 = set(out3[out3["source"] == "a"]["doc_id"])
    a1 = set(out[out["source"] == "a"]["doc_id"])
    assert a1 <= a3 and len(a3) > len(a1)


def test_bigram_logprob_fluency_signal(tmp_path, ray_session):
    d = tmp_path / "blm"
    d.mkdir()
    # "the quick fox" repeated: its bigrams dominate the model
    common = "the quick fox jumps high"
    rows = [(i, common, "en", "s", len(common)) for i in range(10)]
    rows.append((100, "fox the jumps quick high", "en", "s", 24))  # scrambled
    rows.append((101, "zz", "en", "s", 2))                         # 1 token
    rows.append((102, "", "en", "s", 0))                           # empty
    df = pd.DataFrame(rows, columns=["doc_id", "text", "lang", "source",
                                     "n_chars"])
    pq.write_table(pa.Table.from_pandas(df, preserve_index=False),
                   str(d / "documents.parquet"))
    out = textops.bigram_logprob(str(d)).to_pandas().set_index("doc_id")
    # fluent repeats score better (lower NLL) than the scrambled doc
    assert out.loc[0, "avg_nll2"] < out.loc[100, "avg_nll2"]
    # in-model bigrams of the repeated doc are near-deterministic
    assert out.loc[0, "avg_nll2"] < 0.5
    assert out.loc[101, "n_positions"] == 0
    assert out.loc[101, "avg_nll2"] == 0.0
    assert out.loc[102, "avg_nll2"] == 0.0


def test_bigram_logprob_matches_duckdb_oracle(tmp_path, ray_session):
    import duckdb

    from osmlint import oracle_sql
    d = tmp_path / "blmo"
    d.mkdir()
    rows = [(i, f"alpha beta gamma {i % 3} delta alpha beta", "en", "s", 0)
            for i in range(12)]
    df = pd.DataFrame(rows, columns=["doc_id", "text", "lang", "source",
                                     "n_chars"])
    pq.write_table(pa.Table.from_pandas(df, preserve_index=False),
                   str(d / "documents.parquet"))
    got = textops.bigram_logprob(str(d)).to_pandas() \
        .sort_values("doc_id").reset_index(drop=True)
    con = duckdb.connect()
    con.execute(f"CREATE VIEW documents AS SELECT * FROM "
                f"read_parquet('{d}/documents.parquet')")
    exp = con.execute(oracle_sql.bigram_logprob_sql(
        textops.BIGRAM_VOCAB, textops.BIGRAM_MODEL,
        textops.BACKOFF_ALPHA)).fetchdf()
    exp["n_positions"] = exp["n_positions"].astype("int64")
    pd.testing.assert_frame_equal(got, exp.reset_index(drop=True))


def test_pack_sequences_semantics(tmp_path, ray_session):
    d = tmp_path / "pack"
    d.mkdir()
    # doc 0: 100 tokens -> chunks 64+36; doc 1: 200 -> 64+64+64+8;
    # doc 300 (next range at rng=256): 10 tokens -> one chunk
    rows = [(0, " ".join(f"t{i}" for i in range(100)), "en", "s", 0),
            (1, " ".join(f"u{i}" for i in range(200)), "en", "s", 0),
            (300, " ".join(f"v{i}" for i in range(10)), "en", "s", 0),
            (301, "", "en", "s", 0)]
    df = pd.DataFrame(rows, columns=["doc_id", "text", "lang", "source",
                                     "n_chars"])
    pq.write_table(pa.Table.from_pandas(df, preserve_index=False),
                   str(d / "documents.parquet"))
    out = textops.pack_sequences(str(d)).to_pandas() \
        .sort_values(["grp", "doc_id", "chunk_idx"]).reset_index(drop=True)
    # chunk stream grp 0: 64,36,64,64,64,8 -> next-fit at 256:
    # seq1 = 64+36+64+64 = 228 (next 64 would hit 292) ; seq2 = 64+8
    g0 = out[out["grp"] == 0]
    assert list(g0["n_tokens"]) == [64, 36, 64, 64, 64, 8]
    assert list(g0["seq_id"]) == [1, 1, 1, 1, 2, 2]
    # range boundary: doc 300 starts seq 1 of ITS range, never joins grp 0
    g1 = out[out["grp"] == 1]
    assert list(g1["doc_id"]) == [300] and list(g1["seq_id"]) == [1]
    # empty docs emit nothing
    assert 301 not in set(out["doc_id"])
    # per-sequence fill never exceeds the budget
    fills = out.groupby(["grp", "seq_id"])["n_tokens"].sum()
    assert (fills <= textops.PACK_BUDGET).all()


def test_pack_sequences_oversize_chunk_rides_alone(tmp_path, ray_session,
                                                   monkeypatch):
    d = tmp_path / "pack2"
    d.mkdir()
    df = pd.DataFrame([(0, " ".join(f"t{i}" for i in range(128)),
                        "en", "s", 0)],
                      columns=["doc_id", "text", "lang", "source",
                               "n_chars"])
    pq.write_table(pa.Table.from_pandas(df, preserve_index=False),
                   str(d / "documents.parquet"))
    # budget below the chunk size: every chunk becomes its own sequence
    monkeypatch.setattr(textops, "PACK_BUDGET", 32)
    out = textops.pack_sequences(str(d)).to_pandas() \
        .sort_values("chunk_idx")
    assert list(out["seq_id"]) == [1, 2]


def test_winnow_dup_pairs_copy_detection(doc_dir, monkeypatch):
    # doc_dir: 100/101 exact dups, 102 near-dup (1 word), 103 unrelated
    monkeypatch.setattr(textops, "WINNOW_PAIR_TAU", 0.5)
    pairs = textops.winnow_dup_pairs(doc_dir)
    got = set(zip(pairs.doc_a, pairs.doc_b))
    assert (100, 101) in got
    j = pairs.set_index(["doc_a", "doc_b"])["fp_jaccard"]
    assert j.loc[(100, 101)] == 1.0          # identical fingerprint sets
    # near-dup shares most character runs
    assert {(100, 102), (101, 102)} <= got
    assert j.loc[(100, 102)] < 1.0
    # the unrelated doc never pairs at tau=0.5
    assert 103 not in set(pairs.doc_a) | set(pairs.doc_b)


def test_winnow_dup_pairs_cap_counted(doc_dir, monkeypatch):
    monkeypatch.setattr(textops, "WINNOW_PAIR_TAU", 0.5)
    textops.winnow_dup_pairs(doc_dir)
    assert textops.LAST_METRICS["winnow_dup_pairs"] == {
        "skipped_buckets": 0, "skipped_docs": 0}
    monkeypatch.setattr(textops, "MAX_POSTING", 2)
    capped = textops.winnow_dup_pairs(doc_dir)
    m = textops.LAST_METRICS["winnow_dup_pairs"]
    assert m["skipped_buckets"] > 0


def test_bm25_topk_hand_computed(tmp_path, ray_session, monkeypatch):
    """BM25 against a 3-doc corpus small enough to score by hand:
    higher tf wins, longer docs are penalized, absent-term docs drop."""
    import numpy as np
    d = str(tmp_path)
    docs = pd.DataFrame({
        "doc_id": [0, 1, 2],
        "text": ["apple apple pear",                  # tf=2, dl=3
                 "apple pear pear pear pear pear",    # tf=1, dl=6
                 "banana banana banana"],             # tf=0
        "lang": "en", "source": "s", "n_chars": 1})
    pq.write_table(pa.Table.from_pandas(docs, preserve_index=False),
                   os.path.join(d, "documents.parquet"))
    monkeypatch.setattr(textops, "BM25_QUERIES", {7: ("apple",)})
    monkeypatch.setattr(textops, "BM25_TOP", 5)
    out = textops.bm25_topk(d)
    # only the two docs containing 'apple' appear, tf=2/dl=3 first
    assert list(out["query_id"].unique()) == [7]
    assert list(out["doc_id"]) == [0, 1]
    assert list(out["rank"]) == [1, 2]
    N, df_t, avgdl = 3.0, 2.0, (3 + 6 + 3) / 3.0
    idf = np.log(1 + (N - df_t + 0.5) / (df_t + 0.5))
    k1, b = textops.BM25_K1, textops.BM25_B

    def s(tf, dl):
        raw = idf * tf * (k1 + 1) / (tf + k1 * (1 - b + b * (dl / avgdl)))
        return np.floor(raw * 1e6 + 0.5) / 1e6

    assert out["score"].iloc[0] == s(2, 3)
    assert out["score"].iloc[1] == s(1, 6)


def test_bm25_topk_tie_and_k_cut(tmp_path, ray_session, monkeypatch):
    """Identical docs tie on score and break doc_id asc; top cuts."""
    d = str(tmp_path)
    docs = pd.DataFrame({
        "doc_id": [5, 3, 9, 1],
        "text": ["x y", "x y", "x y", "x y"],
        "lang": "en", "source": "s", "n_chars": 1})
    pq.write_table(pa.Table.from_pandas(docs, preserve_index=False),
                   os.path.join(d, "documents.parquet"))
    monkeypatch.setattr(textops, "BM25_QUERIES", {0: ("x",)})
    monkeypatch.setattr(textops, "BM25_TOP", 3)
    out = textops.bm25_topk(d)
    assert list(out["doc_id"]) == [1, 3, 5]
    assert out["score"].nunique() == 1


def test_corpus_weighted_sample_brute_force(ray_session, monkeypatch):
    """The distributed per-block top-k merge equals the brute-force
    priority ranking computed in one flat pass; k > n returns all."""
    import hashlib

    import numpy as np
    sf = "/root/testdata/sf0.001"
    docs = pq.read_table(os.path.join(sf, "documents.parquet"),
                         columns=["doc_id", "n_chars"]).to_pandas()
    w = np.maximum(docs["n_chars"].to_numpy(np.int64), 1)
    u32 = np.array([int(hashlib.md5(f"w:{i}".encode()).hexdigest()[:8], 16)
                    for i in docs["doc_id"]], dtype=np.float64)
    skey = np.floor(np.log((u32 + 1) / 2**32) / w * 1e6 + 0.5) / 1e6
    order = np.lexsort((docs["doc_id"].to_numpy(), -skey))
    monkeypatch.setattr(textops, "WEIGHTED_SAMPLE_K", 20)
    out = textops.corpus_weighted_sample(sf)
    assert list(out["doc_id"]) == list(docs["doc_id"].to_numpy()[order][:20])
    assert list(out["rank"]) == list(range(1, 21))
    monkeypatch.setattr(textops, "WEIGHTED_SAMPLE_K", 10**9)
    everything = textops.corpus_weighted_sample(sf)
    assert len(everything) == len(docs)


def test_q_compact_weight_exact_and_bound():
    """Compaction preserves total weight EXACTLY and moves any rank
    query by < W/cap per level (the certificate's error model)."""
    rng = np.random.default_rng(7)
    v = np.sort(rng.standard_normal(50_000))
    w = np.ones(len(v), np.int64)
    v2, w2, c = textops._q_compact(v, w, 256)
    assert c and len(v2) <= 256
    assert int(w2.sum()) == 50_000
    cw = np.cumsum(w2)
    for q in (0.01, 0.25, 0.5, 0.75, 0.99):
        r = max(int(np.ceil(q * 50_000)), 1)
        got = v2[np.searchsorted(cw, r, "left")]
        rank_got = int(np.searchsorted(v, got, "right"))
        assert abs(rank_got - r) <= 50_000 // 256 + 1
    # double compaction: bound doubles, weight still exact
    v3, w3, _ = textops._q_compact(v2, w2, 64)
    assert int(w3.sum()) == 50_000


def test_quality_quantiles_sketch_certificate(ray_session, monkeypatch):
    """Driver-scale run: certificate reports NO compaction and the
    result is deterministic across runs; forcing a tiny cap flips the
    certificate and every quantile stays within the rank bound of the
    exact answer."""
    sf = "/root/testdata/sf0.001"
    a = textops.quality_quantiles_sketch(sf)
    assert textops.LAST_METRICS["quality_quantiles_sketch"][
        "compacted"] is False
    b = textops.quality_quantiles_sketch(sf)
    pd.testing.assert_frame_equal(a, b)
    monkeypatch.setattr(textops, "SKETCH_EXACT_FALLBACK", False)
    forced = textops.quality_quantiles_sketch(sf, cap=8)
    assert textops.LAST_METRICS["quality_quantiles_sketch"][
        "compacted"] is True
    # per lang: compare against the exact in-memory quantiles
    import duckdb
    con = duckdb.connect()
    docs = con.execute(
        f"SELECT lang, text FROM "
        f"read_parquet('{sf}/documents.parquet')").df()
    for lang, g in docs.groupby("lang"):
        qv = np.sort(textops._quality_cols(
            g["text"].fillna(""))["quality"])
        n = len(qv)
        fsub = forced[forced["lang"] == lang]
        # levels: block partials + one merge, each < W/cap rank error;
        # blocks for 500 docs are few — allow 4 levels of slack
        bound = 4 * (n // 8 + 1)
        for _, r in fsub.iterrows():
            rank_exact = max(int(np.ceil(r["q"] * n)), 1)
            rank_got = int(np.searchsorted(qv, r["quality"], "right"))
            assert abs(rank_got - rank_exact) <= bound
