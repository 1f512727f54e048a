# -*- coding: utf-8 -*-
"""Round-3 guards: counted skew caps (no silent recall loss), IVF rank
soundness, the one in-process memo (bench --scaling cold-measurement
regression tripwire, Ray-session scoping), and content-fingerprint
invalidation."""

import os

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from osmlint import ann, caches, textops


@pytest.fixture(scope="module")
def hot_doc_dir(tmp_path_factory, ray_session):
    """Five identical docs (every band bucket holds all 5) + distinct
    filler docs — a constructed hot bucket for the cap tests."""
    d = tmp_path_factory.mktemp("hotdocs")
    rows = [(i, "all these documents share the very same text body here",
             "en", "srcA", 0) for i in range(5)]
    rows += [(10 + i, f"unrelated filler document number {i} "
                      f"tokens {i * 3} {i * 11}", "en", "srcA", 0)
             for i in range(6)]
    df = pd.DataFrame(rows, columns=["doc_id", "text", "lang", "source",
                                     "n_chars"])
    df["n_chars"] = df["text"].str.len()
    pq.write_table(pa.Table.from_pandas(df, preserve_index=False),
                   os.path.join(d, "documents.parquet"))
    return str(d)


def test_minhash_cap_counted(hot_doc_dir, monkeypatch):
    monkeypatch.setattr(textops, "MINHASH_TAU", 0.5)
    full = textops.minhash_dup_pairs(hot_doc_dir)
    assert textops.LAST_METRICS["dedup_minhash"] == {
        "skipped_buckets": 0, "skipped_docs": 0}
    assert len(full) == 10                       # C(5,2) identical-doc pairs
    monkeypatch.setattr(textops, "MAX_POSTING", 4)
    capped = textops.minhash_dup_pairs(hot_doc_dir)
    m = textops.LAST_METRICS["dedup_minhash"]
    assert m["skipped_buckets"] > 0 and m["skipped_docs"] >= 5
    assert len(capped) < len(full)               # the cap really dropped work


def test_ngram_cap_counted(hot_doc_dir, monkeypatch):
    monkeypatch.setattr(textops, "NGRAM_TAU", 0.5)
    full = textops.ngram_jaccard_pairs(hot_doc_dir)
    assert textops.LAST_METRICS["dedup_ngram_jaccard"]["skipped_buckets"] == 0
    monkeypatch.setattr(textops, "MAX_POSTING", 4)
    capped = textops.ngram_jaccard_pairs(hot_doc_dir)
    m = textops.LAST_METRICS["dedup_ngram_jaccard"]
    assert m["skipped_buckets"] > 0 and m["skipped_docs"] >= 5
    assert len(capped) < len(full)


def test_simhash_cap_counted(hot_doc_dir, monkeypatch):
    full = textops.simhash_dup_pairs(hot_doc_dir)
    assert textops.LAST_METRICS["dedup_simhash"]["skipped_buckets"] == 0
    monkeypatch.setattr(textops, "MAX_POSTING", 4)
    capped = textops.simhash_dup_pairs(hot_doc_dir)
    m = textops.LAST_METRICS["dedup_simhash"]
    assert m["skipped_buckets"] > 0 and m["skipped_docs"] >= 5
    assert len(capped) < len(full)


@pytest.fixture(scope="module")
def dense_emb_dir(tmp_path_factory, ray_session):
    """60 vectors in 3 tight clusters — every LSH bucket is hot when the
    cap is tiny; also the IVF rank-bound fixture."""
    d = tmp_path_factory.mktemp("denseemb")
    rng = np.random.default_rng(9)
    centers = rng.standard_normal((3, 16))
    base = np.concatenate([
        c + 0.01 * rng.standard_normal((20, 16)) for c in centers])
    df = pd.DataFrame({"vec_id": np.arange(60, dtype=np.int64),
                       "embedding": list(base.astype(np.float32)),
                       "label": np.zeros(60, dtype=np.int32)})
    pq.write_table(pa.Table.from_pandas(df, preserve_index=False),
                   os.path.join(d, "embeddings.parquet"))
    return str(d)


def test_cosine_lsh_cap_counted(dense_emb_dir, monkeypatch):
    monkeypatch.setattr(ann, "COS_TAU", 0.9)
    monkeypatch.setattr(ann, "EMB_DIM", 16)
    full = ann.cosine_pairs_lsh(dense_emb_dir)
    assert ann.LAST_METRICS["cosine_pairs_lsh"] == {
        "skipped_buckets": 0, "skipped_docs": 0}
    assert len(full) > 0
    monkeypatch.setattr(ann, "MAX_BUCKET", 10)
    capped = ann.cosine_pairs_lsh(dense_emb_dir)
    m = ann.LAST_METRICS["cosine_pairs_lsh"]
    assert m["skipped_buckets"] > 0 and m["skipped_docs"] > 10
    assert len(capped) < len(full)


def test_ivf_rank_never_beats_exact(dense_emb_dir, monkeypatch):
    """Soundness bound for the rows-only IVF query (VERDICT r2 #2): IVF
    ranks each neighbor among the PROBED subset, so the count of better
    vectors it sees is a lower bound on the true count — for every
    reported neighbor, exact_rank >= ivf_rank.  Two invariants:
    (1) reported neighbors are sorted by exact cosine sim descending;
    (2) each reported neighbor's EXACT rank (1-based, full corpus) is
        >= its reported IVF rank — IVF can never claim a better rank
        than the exact ordering allows."""
    k = 5
    monkeypatch.setattr(ann, "K_NEIGHBORS", k)
    monkeypatch.setattr(ann, "N_QUERIES", 3)
    out = ann.topk_neighbors_ivf(dense_emb_dir)
    tbl = pq.read_table(os.path.join(dense_emb_dir, "embeddings.parquet"))
    ids = np.array(tbl["vec_id"].to_pylist())
    m = np.stack([np.asarray(v, dtype=np.float64)
                  for v in tbl["embedding"].to_pylist()])
    mn = m / np.linalg.norm(m, axis=1, keepdims=True)
    for q in out["query_id"].unique():
        sims_all = mn @ mn[ids == q].T[:, 0]
        order = np.argsort(-sims_all, kind="stable")
        exact_rank = {int(ids[v]): r + 1 for r, v in
                      enumerate(ids[order][ids[order] != q])}
        sub = out[out["query_id"] == q].sort_values("rank")
        s = [float(sims_all[ids == n][0]) for n in sub["neighbor_id"]]
        assert all(a >= b - 1e-12 for a, b in zip(s, s[1:]))       # (1)
        for n, r in zip(sub["neighbor_id"], sub["rank"]):
            assert exact_rank[int(n)] >= int(r)                    # (2)


# ---------------------------------------------------------------------------
# the one in-process memo: the bench --scaling cold-measurement guard
# (VERDICT r2 #8) and its Ray-session scoping
# ---------------------------------------------------------------------------

def _import_all_osmlint_modules():
    import importlib
    import pkgutil

    import osmlint
    for mi in pkgutil.iter_modules(osmlint.__path__):
        importlib.import_module(f"osmlint.{mi.name}")


def test_no_module_cache_outside_the_memo():
    """Tripwire: no module but ``caches`` holds a module-level dict whose
    name looks like a cache.  Every in-process cache is an entry of
    ``caches.memo``, so bench --scaling's clear_caches() reaches all of
    them and trial 2 cannot measure a warm (inflated) run, and none can
    serve an ObjectRef or Dataset of an ended Ray session."""
    import sys
    _import_all_osmlint_modules()
    found = []
    for name, mod in list(sys.modules.items()):
        if not name.startswith("osmlint") or name == "osmlint.caches":
            continue
        for gname, g in vars(mod).items():
            if not isinstance(g, dict) or gname in ("LAST_METRICS",):
                continue
            if "CACHE" in gname.upper() or "CKPT" in gname.upper():
                found.append(f"{name}.{gname}")
    assert not found, f"module caches outside caches.memo: {found}"


def test_clear_caches_empties_everything(hot_doc_dir):
    textops.shingle_checkpoint(hot_doc_dir)      # populate at least one
    textops.pmi_bigrams(hot_doc_dir)
    assert caches._MEMO
    caches.clear_caches()
    assert not caches._MEMO


def test_memo_is_scoped_to_the_ray_session(synth_small, tmp_path):
    """A second local session in one process serves no entry of the
    first: the job id alone repeats across ``ray.shutdown`` + ``ray.init``,
    so a cache keyed on it lets every ObjectRef and materialized Dataset
    outlive its session.  Runs two sessions in a subprocess; each lints,
    builds the named-CTV projection and clusters it (the eps-pair mine
    is checkpointed in the first and read back in the second), and both
    must give the same answers."""
    import json
    import subprocess
    import sys

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    script = """
import json, sys
import ray
from osmlint import dupnames, geocluster, pipeline
d = sys.argv[1]
out = []
for _ in range(2):
    ray.init(address="local", num_cpus=2, include_dashboard=False,
             logging_level="ERROR")
    named = dupnames.named_ctv_deduped(d).to_pandas()
    clusters = geocluster.geo_clusters(d).to_pandas()
    out.append({
        "flags": pipeline.flags_dataset(d).count(),
        "named": sorted(named["doc_id"]),
        "clusters": sorted(map(list, clusters.itertuples(index=False)))})
    ray.shutdown()
print(json.dumps(out, default=int))
"""
    env = {k: v for k, v in os.environ.items() if k != "RAY_ADDRESS"}
    env["PYTHONPATH"] = root
    env["OSMLINT_CKPT_DIR"] = str(tmp_path / "ckpt")
    res = subprocess.run([sys.executable, "-c", script, synth_small],
                         cwd=root, env=env, capture_output=True, text=True,
                         timeout=900)
    assert res.returncode == 0, res.stderr[-3000:]
    first, second = json.loads(res.stdout.strip().splitlines()[-1])
    assert first["flags"] > 0 and first["named"]
    assert first == second


def test_bench_scaling_trials_run_cold():
    """Regression tripwire: the --scaling trial loop must empty the memo
    between trials (cold collision pre-pass every trial).  Combined with
    test_no_module_cache_outside_the_memo this makes a quietly-warm trial
    impossible."""
    import inspect
    import sys
    sys.path.insert(0, os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))))
    import bench
    src = inspect.getsource(bench._scaling_inner)
    body = src.split("for _ in range(2):", 1)[1]
    assert "clear_caches()" in body


def test_fingerprint_invalidates_shingle_checkpoint(tmp_path, ray_session):
    """Rewriting the input in-place (same path) must yield a DIFFERENT
    checkpoint — the ADVICE r2 stale-cache scenario."""
    d = str(tmp_path)
    def write(texts):
        df = pd.DataFrame({
            "doc_id": np.arange(len(texts), dtype=np.int64),
            "text": texts, "lang": "en", "source": "s",
            "n_chars": [len(t) for t in texts]})
        pq.write_table(pa.Table.from_pandas(df, preserve_index=False),
                       os.path.join(d, "documents.parquet"))
    write(["alpha beta gamma delta", "epsilon zeta eta theta"])
    p1 = textops.shingle_checkpoint(d)
    os.utime(os.path.join(d, "documents.parquet"), (1, 1))  # force new mtime
    write(["totally different corpus now here", "another text entirely sir"])
    p2 = textops.shingle_checkpoint(d)
    assert p1 != p2
    sh = pq.read_table(p2, columns=["doc_id"])
    assert sh.num_rows == 2


# ---------------------------------------------------------------------------
# driver-table gate tests: the empirical-equality oracles must hold at the
# sf the driver compares at, asserted IN-REPO before any driver run
# ---------------------------------------------------------------------------

DRIVER_SF = "/root/testdata/sf0.01"


@pytest.mark.skipif(not os.path.exists(DRIVER_SF), reason="no driver data")
def test_minhash_oracle_gate_driver_tables(ray_session, monkeypatch):
    """dedup_minhash's oracle is the EXACT word-3-gram Jaccard SQL at
    tau=0.5; LSH recall must therefore be exact on the driver tables."""
    monkeypatch.setattr(textops, "MINHASH_TAU", 0.5)
    monkeypatch.setattr(textops, "NGRAM_TAU", 0.5)
    mh = textops.minhash_dup_pairs(DRIVER_SF)
    ex = textops.ngram_jaccard_pairs(DRIVER_SF)
    pd.testing.assert_frame_equal(mh.reset_index(drop=True),
                                  ex.reset_index(drop=True))


@pytest.mark.skipif(not os.path.exists(DRIVER_SF), reason="no driver data")
def test_cosine_lsh_oracle_gate_driver_tables(ray_session):
    """embedding_cosine_pairs_lsh's oracle is the exact cosine SQL; the
    multiprobe result must equal the exact result on the driver tables."""
    lsh = ann.cosine_pairs_lsh(DRIVER_SF)
    ex = ann.cosine_pairs(DRIVER_SF)
    pd.testing.assert_frame_equal(lsh.reset_index(drop=True),
                                  ex.reset_index(drop=True))


def test_purge_disk_removes_shingle_checkpoint(hot_doc_dir):
    p1 = textops.shingle_checkpoint(hot_doc_dir)
    assert os.path.exists(os.path.join(p1, "_SUCCESS"))
    caches.clear_caches()                    # in-memory only: dir survives
    assert os.path.exists(os.path.join(p1, "_SUCCESS"))
    caches.clear_caches(purge_disk=True)     # purger deletes the dir
    assert not os.path.exists(p1)
    p2 = textops.shingle_checkpoint(hot_doc_dir)   # rebuilds cleanly
    assert os.path.exists(os.path.join(p2, "_SUCCESS"))
