# -*- coding: utf-8 -*-
"""Unit tests for ANN similarity search and event-window operators, with
constructed fixtures containing known neighbors and sessions."""

import os

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from osmlint import ann, eventops


@pytest.fixture(scope="module")
def emb_dir(tmp_path_factory, ray_session):
    d = tmp_path_factory.mktemp("emb")
    rng = np.random.default_rng(5)
    base = rng.standard_normal((30, 16)).astype(np.float32)
    base[1] = base[0] + rng.standard_normal(16).astype(np.float32) * 0.05
    base[2] = base[0] * 2.0                      # exact direction dup of 0
    df = pd.DataFrame({"vec_id": np.arange(30, dtype=np.int64),
                       "embedding": list(base),
                       "label": np.zeros(30, dtype=np.int32)})
    pq.write_table(pa.Table.from_pandas(df, preserve_index=False),
                   os.path.join(d, "embeddings.parquet"))
    return str(d)


def test_topk_exact(emb_dir, monkeypatch):
    monkeypatch.setattr(ann, "K_NEIGHBORS", 3)
    monkeypatch.setattr(ann, "N_QUERIES", 2)
    out = ann.topk_neighbors(emb_dir)
    q0 = out[out.query_id == 0]
    assert list(q0["rank"]) == [1, 2, 3]
    assert q0.iloc[0]["neighbor_id"] == 2        # cos=1 beats the noisy copy
    assert q0.iloc[1]["neighbor_id"] == 1
    # oracle: brute force numpy
    tbl = pq.read_table(os.path.join(emb_dir, "embeddings.parquet"))
    m = np.stack(tbl["embedding"].to_pandas()).astype(np.float64)
    mn = m / np.linalg.norm(m, axis=1, keepdims=True)
    sims = mn @ mn[0]
    sims[0] = -2
    exp = set(np.argsort(-sims)[:3])
    assert set(q0["neighbor_id"]) == exp


def test_cosine_pairs_brute_vs_lsh(emb_dir, monkeypatch):
    monkeypatch.setattr(ann, "COS_TAU", 0.9)
    monkeypatch.setattr(ann, "EMB_DIM", 16)
    brute = ann.cosine_pairs(emb_dir)
    got = set(zip(brute.vec_a, brute.vec_b))
    assert (0, 2) in got and (0, 1) in got
    lsh = ann.cosine_pairs_lsh(emb_dir)
    # LSH is approximate but must find the exact-direction duplicate
    assert (0, 2) in set(zip(lsh.vec_a, lsh.vec_b))
    assert set(zip(lsh.vec_a, lsh.vec_b)) <= got


@pytest.fixture(scope="module")
def ev_dir(tmp_path_factory, ray_session):
    d = tmp_path_factory.mktemp("ev")
    ts = pd.to_datetime([
        "2024-01-01 10:00:00", "2024-01-01 10:10:00", "2024-01-01 10:50:00",
        "2024-01-01 12:00:00",                     # gap > 30min: new session
        "2024-01-01 10:05:00",                     # user 2
    ])
    df = pd.DataFrame({
        "event_id": np.arange(5, dtype=np.int64),
        "ts": ts,
        "user_id": np.array([1, 1, 1, 1, 2], dtype=np.int64),
        "event_type": ["view", "click", "view", "view", "click"],
        "value": [1.0, 2.0, 3.0, 4.0, 5.0],
        "props": ["{}"] * 5,
    })
    pq.write_table(pa.Table.from_pandas(df, preserve_index=False),
                   os.path.join(d, "events.parquet"))
    return str(d)


def test_window_agg(ev_dir):
    out = eventops.window_agg(ev_dir)
    w10 = out[(out["window"] == pd.Timestamp("2024-01-01 10:00:00"))]
    assert int(w10[w10.event_type == "view"]["n_events"].iloc[0]) == 2
    assert float(w10[w10.event_type == "view"]["sum_value"].iloc[0]) == 4.0
    assert int(w10[w10.event_type == "click"]["n_events"].iloc[0]) == 2
    assert len(out) == 3                         # 10h view, 10h click, 12h view


def test_sessionize(ev_dir):
    out = eventops.sessionize(ev_dir)
    u1 = out[out.user_id == 1]
    # 10:00+10:10 together; 10:50 is a 40-min gap; 12:00 another
    assert list(u1["session_id"]) == [1, 2, 3]
    assert list(u1["n_events"]) == [2, 1, 1]
    assert int(u1.iloc[0]["duration_us"]) == 10 * 60 * 1_000_000
    u2 = out[out.user_id == 2]
    assert len(u2) == 1 and int(u2.iloc[0]["n_events"]) == 1


def test_topk_ivf_recall(emb_dir, monkeypatch):
    monkeypatch.setattr(ann, "K_NEIGHBORS", 3)
    monkeypatch.setattr(ann, "N_QUERIES", 2)
    monkeypatch.setattr(ann, "IVF_K", 4)
    exact = ann.topk_neighbors(emb_dir)
    approx = ann.topk_neighbors_ivf(emb_dir, nprobe=4)
    # full probe (nprobe == n_lists) must equal the exact result
    pd_exact = set(map(tuple, exact.values))
    pd_apx = set(map(tuple, approx.values))
    assert pd_exact == pd_apx
    # reduced probe still finds the exact-direction duplicate as rank 1
    monkeypatch.setattr(ann, "N_QUERIES", 1)
    apx1 = ann.topk_neighbors_ivf(emb_dir, nprobe=1)
    assert apx1.iloc[0]["neighbor_id"] == 2


def test_asof_attribution(ev_dir):
    out = eventops.asof_attribution(ev_dir)
    # purchases fixture has none -> empty but typed
    assert list(out.columns) == ["event_id", "user_id", "ts",
                                 "src_event_id", "src_type"]
    # constructed case: purchase after view+click picks the LATEST prior
    import numpy as np, pandas as pd, pyarrow as pa, pyarrow.parquet as pq, os
    d = os.path.dirname(ev_dir) + "/ev_asof"
    os.makedirs(d, exist_ok=True)
    df = pd.DataFrame({
        "event_id": np.arange(4, dtype=np.int64),
        "ts": pd.to_datetime(["2024-01-01 10:00", "2024-01-01 10:20",
                              "2024-01-01 10:30", "2024-01-01 09:00"]),
        "user_id": np.array([1, 1, 1, 2], dtype=np.int64),
        "event_type": ["view", "click", "purchase", "purchase"],
        "value": [0.0] * 4, "props": ["{}"] * 4})
    pq.write_table(pa.Table.from_pandas(df, preserve_index=False),
                   os.path.join(d, "events.parquet"))
    out = eventops.asof_attribution(d)
    p1 = out[out.event_id == 2].iloc[0]
    assert p1["src_event_id"] == 1 and p1["src_type"] == "click"
    p2 = out[out.event_id == 3].iloc[0]      # user 2: no prior source
    assert pd.isna(p2["src_event_id"])


def test_cosine_lsh_recall_gate(emb_dir, monkeypatch):
    """Recall gate (VERDICT r1): the multiprobe LSH pair set must recover
    >= 90% of the exact pair set at the operating tau, and stay a subset."""
    monkeypatch.setattr(ann, "COS_TAU", 0.5)
    monkeypatch.setattr(ann, "EMB_DIM", 16)
    brute = ann.cosine_pairs(emb_dir)
    lsh = ann.cosine_pairs_lsh(emb_dir)
    exact = set(zip(brute.vec_a, brute.vec_b))
    got = set(zip(lsh.vec_a, lsh.vec_b))
    assert got <= exact
    assert len(exact) > 0
    assert len(got) / len(exact) >= 0.9


def test_cosine_lsh_deterministic(emb_dir, monkeypatch):
    """Hyperplanes are re-seeded per call: two runs in one process agree
    (ADVICE r1: the old module-level rng drifted between calls)."""
    monkeypatch.setattr(ann, "COS_TAU", 0.9)
    monkeypatch.setattr(ann, "EMB_DIM", 16)
    a = ann.cosine_pairs_lsh(emb_dir)
    b = ann.cosine_pairs_lsh(emb_dir)
    assert a.equals(b)


def test_events_funnel_semantics(tmp_path, ray_session):
    import pyarrow.parquet as pq

    from osmlint import eventops
    d = tmp_path / "funnel"
    d.mkdir()
    t0 = pd.Timestamp("2024-01-01")
    rows = [
        # user 1: signup then purchase inside the window -> converts
        (1, t0, 1, "signup"), (2, t0 + pd.Timedelta(days=2), 1, "purchase"),
        (3, t0 + pd.Timedelta(days=3), 1, "purchase"),
        # user 2: purchase BEFORE signup only -> no conversion
        (4, t0, 2, "purchase"), (5, t0 + pd.Timedelta(hours=1), 2, "signup"),
        # user 3: purchase outside the 7-day window -> no conversion
        (6, t0, 3, "signup"), (7, t0 + pd.Timedelta(days=8), 3, "purchase"),
        # user 4: two signups; window anchors on the FIRST
        (8, t0, 4, "signup"), (9, t0 + pd.Timedelta(days=6), 4, "signup"),
        (10, t0 + pd.Timedelta(days=7), 4, "purchase"),
        # user 5: purchase only, never signed up -> absent from output
        (11, t0, 5, "purchase"),
    ]
    df = pd.DataFrame(rows, columns=["event_id", "ts", "user_id",
                                     "event_type"])
    df["ts"] = df["ts"].astype("datetime64[us]")
    df["value"] = 1.0
    df["props"] = "{}"
    pq.write_table(pa.Table.from_pandas(df, preserve_index=False),
                   str(d / "events.parquet"))
    out = eventops.funnel(str(d)).set_index("user_id")
    assert set(out.index) == {1, 2, 3, 4}
    assert out.loc[1, "n_purchases_w"] == 2
    assert out.loc[1, "delay_us"] == 2 * 86400 * 10**6
    assert out.loc[2, "n_purchases_w"] == 0
    assert pd.isna(out.loc[2, "first_purchase_ts"])
    assert out.loc[3, "n_purchases_w"] == 0
    # day-7 purchase is INSIDE the closed window anchored on the first signup
    assert out.loc[4, "n_purchases_w"] == 1
    assert out.loc[4, "signup_ts"] == t0


def test_ivf_fullprobe_equals_exact(ray_session, monkeypatch):
    """Probing every list disables the approximation: the IVF machinery
    must reproduce the exact brute-force top-k bit-for-bit."""
    from osmlint import ann
    sf = "/root/testdata/sf0.001"
    monkeypatch.setattr(ann, "K_NEIGHBORS", 5)
    monkeypatch.setattr(ann, "N_QUERIES", 4)
    exact = ann.topk_neighbors(sf)
    full = ann.topk_neighbors_ivf(sf, nprobe=ann.IVF_K)
    pd.testing.assert_frame_equal(
        exact.reset_index(drop=True)[["query_id", "neighbor_id", "rank"]],
        full.reset_index(drop=True)[["query_id", "neighbor_id", "rank"]])


def test_events_range_join_semantics(tmp_path, ray_session):
    import pyarrow.parquet as pq

    from osmlint import eventops
    d = tmp_path / "rj"
    d.mkdir()
    t0 = pd.Timestamp("2024-01-01")
    mins = pd.Timedelta(minutes=1)
    rows = [
        # user 1: browse window [t0, t0+10min]
        (1, t0, 1, "view"), (2, t0 + 10 * mins, 1, "click"),
        (3, t0 + 5 * mins, 1, "purchase"),        # inside
        (4, t0 + 10 * mins, 1, "purchase"),       # boundary: inclusive
        (5, t0 + 1000 * mins, 1, "purchase"),     # far outside
        # user 2: purchase, no browse events at all
        (6, t0, 2, "purchase"),
        # user 3: two windows split by a > RANGE_GAP_MIN gap
        (7, t0, 3, "view"),
        (8, t0 + (eventops.RANGE_GAP_MIN + 10) * mins, 3, "view"),
        (9, t0 + (eventops.RANGE_GAP_MIN + 10) * mins, 3, "purchase"),
    ]
    df = pd.DataFrame(rows, columns=["event_id", "ts", "user_id",
                                     "event_type"])
    df["ts"] = df["ts"].astype("datetime64[us]")
    df["value"] = 1.0
    df["props"] = "{}"
    pq.write_table(pa.Table.from_pandas(df, preserve_index=False),
                   str(d / "events.parquet"))
    out = eventops.range_join(str(d))
    assert list(out["event_id"]) == [3, 4, 9]
    # event 9 lands in user 3's SECOND (single-event) window
    row9 = out.set_index("event_id").loc[9]
    assert row9["sess_start"] == row9["ts"] == row9["sess_end"]


def test_embedding_centroids_exact(ray_session):
    import pyarrow.parquet as pq

    from osmlint import ann
    sf = "/root/testdata/sf0.001"
    out = ann.embedding_centroids(sf)
    t = pq.read_table(sf + "/embeddings.parquet").to_pandas()
    import numpy as np
    m = np.stack(t["embedding"].to_numpy()).astype(np.float64)
    for lab in (0, 7):
        sel = m[t["label"].to_numpy() == lab]
        exp = np.floor(sel.mean(axis=0) * 1e6 + 0.5) / 1e6
        got = out[out["label"] == lab].sort_values("dim_idx")["centroid"] \
            .to_numpy()
        assert np.allclose(got, exp, atol=2e-6)
        assert (out[out["label"] == lab]["n_vecs"] == len(sel)).all()


def test_events_retention_triangle(tmp_path, ray_session):
    import pyarrow.parquet as pq

    from osmlint import eventops
    d = tmp_path / "ret"
    d.mkdir()
    t0 = pd.Timestamp("2024-01-01")
    day = pd.Timedelta(days=1)
    rows = [
        # user 1: active day 0, 1, 3 (two events day 0 count once)
        (1, t0, 1), (2, t0 + pd.Timedelta(hours=2), 1),
        (3, t0 + day, 1), (4, t0 + 3 * day, 1),
        # user 2: same cohort, active day 0 only
        (5, t0 + pd.Timedelta(hours=5), 2),
        # user 3: later cohort (day 1), active day 1 and 2
        (6, t0 + day, 3), (7, t0 + 2 * day, 3),
    ]
    df = pd.DataFrame(rows, columns=["event_id", "ts", "user_id"])
    df["ts"] = df["ts"].astype("datetime64[us]")
    df["event_type"] = "view"
    df["value"] = 1.0
    df["props"] = "{}"
    pq.write_table(pa.Table.from_pandas(df, preserve_index=False),
                   str(d / "events.parquet"))
    out = eventops.retention(str(d))
    tri = {(str(r.cohort_day)[:10], r.day_offset): r.n_users
           for r in out.itertuples()}
    assert tri == {("2024-01-01", 0): 2, ("2024-01-01", 1): 1,
                   ("2024-01-01", 3): 1,
                   ("2024-01-02", 0): 1, ("2024-01-02", 1): 1}


def test_knn_graph_exact_and_guard(ray_session, monkeypatch):
    import numpy as np
    import pyarrow.parquet as pq
    import pytest

    from osmlint import ann
    sf = "/root/testdata/sf0.001"
    monkeypatch.setattr(ann, "K_NEIGHBORS", 3)
    g = ann.knn_graph(sf)
    t = pq.read_table(sf + "/embeddings.parquet").to_pandas()
    m = np.stack(t["embedding"].to_numpy()).astype(np.float64)
    mn = m / np.maximum(np.sqrt((m * m).sum(1, keepdims=True)), 1e-30)
    sims = mn @ mn.T
    np.fill_diagonal(sims, -np.inf)
    ids = t["vec_id"].to_numpy()
    byv = g.groupby("vec_id")
    for vid in ids[:25]:
        row = sims[vid]
        order = np.lexsort((ids, -row))[:3]
        assert list(byv.get_group(vid).sort_values("rank")
                    ["neighbor_id"]) == list(ids[order])
    # the O(N^2) guard refuses oversized inputs
    old = ann.MAX_EXACT_PAIR_ROWS
    ann.MAX_EXACT_PAIR_ROWS = 10
    try:
        with pytest.raises(ValueError, match="refuses inputs"):
            ann.knn_graph(sf)
    finally:
        ann.MAX_EXACT_PAIR_ROWS = old


def test_events_anomalies_zscore(tmp_path, ray_session):
    import pyarrow.parquet as pq

    from osmlint import eventops
    d = tmp_path / "anom"
    d.mkdir()
    vals = [10.0] * 50 + [1000.0]          # one wild outlier
    df = pd.DataFrame({
        "event_id": range(51), "ts": pd.Timestamp("2024-01-01"),
        "user_id": 1, "event_type": "click", "value": vals,
        "props": "{}"})
    df["ts"] = df["ts"].astype("datetime64[us]")
    pq.write_table(pa.Table.from_pandas(df, preserve_index=False),
                   str(d / "events.parquet"))
    out = eventops.anomalies(str(d))
    assert list(out["event_id"]) == [50]
    assert out["z"].iloc[0] > 3


def test_pagerank_distributed_equals_local(ray_session, monkeypatch):
    """The per-iteration join+bucket-sum path reproduces the vectorized
    local power loop to 6-dp (the comparison grain the operator
    documents), and basic mass invariants hold."""
    import numpy as np

    from osmlint import ann, graph
    sf = "/root/testdata/sf0.001"
    local = ann.knn_pagerank(sf)
    monkeypatch.setattr(graph, "SMALL_EDGES", 0)
    dist = ann.knn_pagerank(sf)
    assert list(local["vec_id"]) == list(dist["vec_id"])
    assert np.array_equal(local["pagerank"].to_numpy(),
                          dist["pagerank"].to_numpy())
    n = len(local)
    pr = local["pagerank"].to_numpy()
    assert (pr >= (1 - 0.85) / n - 1e-6).all()   # baseline floor
    # dangling mass only leaks; each 6-dp rounding adds up to 5e-7
    assert pr.sum() <= 1.0 + n * 5e-7


def test_pagerank_star_graph_closed_form(ray_session, monkeypatch):
    """On a star (every leaf -> hub, hub -> one leaf), leaf and hub
    ranks follow the closed-form recurrence."""
    import numpy as np
    import ray.data as rd

    from osmlint import graph
    leaves = list(range(1, 6))
    edges = pd.DataFrame({"src": leaves + [0],
                          "dst": [0] * len(leaves) + [1]})
    monkeypatch.setattr(graph, "PR_ITERS", 10)
    out = graph.pagerank(rd.from_pandas(edges)) \
        .set_index("node")["pagerank"]
    n, d = 6, 0.85
    r = {v: 1 / n for v in range(n)}
    for _ in range(10):
        hub = (1 - d) / n + d * sum(r[v] for v in leaves)
        leaf1 = (1 - d) / n + d * r[0]
        r = {0: hub, 1: leaf1, **{v: (1 - d) / n for v in leaves[1:]}}
    for v in range(n):
        assert abs(out.loc[v] - r[v]) < 1e-9


def test_pq_encode_and_adc_invariants(ray_session, monkeypatch):
    """Codes stay in [0, KSUB); a codebook vector encodes to itself in
    every subspace (zero quantization error), so its ADC distance to any
    query equals the EXACT squared L2 distance (up to 6-dp rounding)."""
    import numpy as np
    import pyarrow.parquet as pq

    from osmlint import ann
    sf = "/root/testdata/sf0.001"
    codes = ann.pq_encode(sf).to_pandas()
    assert codes["code"].between(0, ann.PQ_KSUB - 1).all()
    assert codes["sub"].between(0, ann.PQ_M - 1).all()
    n_vecs = codes["vec_id"].nunique()
    assert len(codes) == n_vecs * ann.PQ_M
    # self-encoding: vec j < KSUB picks centroid j in every subspace
    own = codes[codes["vec_id"] < ann.PQ_KSUB]
    assert (own["code"] == own["vec_id"]).all()
    # ADC == exact distance for zero-error (codebook) database vectors
    monkeypatch.setattr(ann, "K_NEIGHBORS", 10_000)
    monkeypatch.setattr(ann, "N_QUERIES", 2)
    top = ann.pq_topk_adc(sf)
    t = pq.read_table(sf + "/embeddings.parquet").to_pandas()
    emb = {int(r["vec_id"]): np.asarray(r["embedding"], dtype=np.float64)
           for _, r in t.iterrows()}
    checked = 0
    for _, r in top.iterrows():
        if r["neighbor_id"] < ann.PQ_KSUB:
            exact = ((emb[int(r["query_id"])]
                      - emb[int(r["neighbor_id"])]) ** 2).sum()
            assert abs(r["adist"] - exact) < 1e-5
            checked += 1
    assert checked > 0


def test_events_daily_trend_closed_form(tmp_path, ray_session):
    """A perfectly linear daily volume recovers its exact slope and
    intercept; a single-day type reports slope 0 and the day's count."""
    import pyarrow.parquet as pq

    from osmlint import eventops
    d = tmp_path / "trend"
    d.mkdir()
    rows = []
    eid = 0
    # type 'lin': y = 2x + 3 events on days x = 0..4 (from TREND_X0)
    base = pd.Timestamp("1970-01-01") + pd.Timedelta(days=eventops.TREND_X0)
    for x in range(5):
        for _ in range(2 * x + 3):
            rows.append((eid, base + pd.Timedelta(days=x, minutes=eid % 7),
                         1, "lin", 1.0))
            eid += 1
    # type 'one': a single day with 4 events
    for _ in range(4):
        rows.append((eid, base + pd.Timedelta(days=2, seconds=eid), 2,
                     "one", 1.0))
        eid += 1
    df = pd.DataFrame(rows, columns=["event_id", "ts", "user_id",
                                     "event_type", "value"])
    df["props"] = "{}"
    df["ts"] = df["ts"].astype("datetime64[us]")
    pq.write_table(pa.Table.from_pandas(df, preserve_index=False),
                   str(d / "events.parquet"))
    out = eventops.daily_trend(str(d)).set_index("event_type")
    assert out.loc["lin", "slope"] == 2.0
    assert out.loc["lin", "intercept"] == 3.0
    assert out.loc["lin", "n_days"] == 5
    assert out.loc["lin", "n_events"] == sum(2 * x + 3 for x in range(5))
    assert out.loc["one", "slope"] == 0.0
    assert out.loc["one", "intercept"] == 4.0
    assert out.loc["one", "n_days"] == 1


def test_embedding_kmeans_invariants(ray_session):
    import numpy as np
    import pyarrow.parquet as pq

    from osmlint import ann
    sf = "/root/testdata/sf0.001"
    a1 = ann.embedding_kmeans(sf)
    assert ann.KMEANS_LAST_INFO["converged"]
    # determinism across runs
    a2 = ann.embedding_kmeans(sf)
    pd.testing.assert_frame_equal(a1, a2)
    # totality: every vector assigned exactly once
    t = pq.read_table(sf + "/embeddings.parquet").to_pandas()
    assert sorted(a1["vec_id"]) == sorted(t["vec_id"])
    # assignment optimality: each vec sits in its NEAREST final centroid
    # (recompute centroids from the reported assignment — at a Lloyd's
    # fixpoint the means reproduce the assignment)
    m = np.stack(t.sort_values("vec_id")["embedding"].to_numpy()) \
        .astype(np.float64)
    mn = m / np.maximum(np.sqrt((m * m).sum(1, keepdims=True)), 1e-30)
    lab = a1.sort_values("vec_id")["cluster"].to_numpy()
    cents = np.stack([mn[lab == c].mean(axis=0)
                      for c in range(ann.KMEANS_K)])
    d = ((mn[:, None, :] - cents[None, :, :]) ** 2).sum(axis=2)
    assert (d.argmin(axis=1) == lab).mean() > 0.99   # fixpoint (ties aside)


def test_knn_graph_ivf_fullprobe_equals_exact(ray_session, monkeypatch):
    """nprobe == n_lists scores every (vector, candidate) pair exactly
    once (each candidate is a member of ONE list), so the IVF graph must
    reproduce the exact graph bit-for-bit — the hard-oracle
    configuration the driver also checks."""
    from osmlint import ann
    sf = "/root/testdata/sf0.001"
    monkeypatch.setattr(ann, "K_NEIGHBORS", 3)
    ex = ann.knn_graph(sf)
    fp = ann.knn_graph_ivf_fullprobe(sf)
    pd.testing.assert_frame_equal(fp.reset_index(drop=True),
                                  ex.reset_index(drop=True))


def test_knn_graph_ivf_recall_and_determinism(ray_session, monkeypatch):
    """The approximate graph (nprobe < n_lists) is rows-only in the
    driver; in-repo it must (a) cover every vector, (b) keep a recall
    floor vs the exact graph (0.61 measured on the fixed synth seeds;
    gate at 0.5), (c) be deterministic across runs."""
    from osmlint import ann
    sf = "/root/testdata/sf0.001"
    monkeypatch.setattr(ann, "K_NEIGHBORS", 3)
    ex = ann.knn_graph(sf)
    a1 = ann.knn_graph_ivf(sf)
    a2 = ann.knn_graph_ivf(sf)
    pd.testing.assert_frame_equal(a1, a2)
    assert set(a1["vec_id"]) == set(ex["vec_id"])
    assert (a1.groupby("vec_id")["rank"].max() <= 3).all()
    got = set(map(tuple, a1[["vec_id", "neighbor_id"]].values))
    exp = set(map(tuple, ex[["vec_id", "neighbor_id"]].values))
    assert len(got & exp) / len(exp) >= 0.5


def test_kmeans_1iter_matches_numpy(ray_session, monkeypatch):
    """One Lloyd step from the k lowest vec_ids' normalized vectors,
    recomputed in numpy: same assignment (argmin squared distance, ties
    to the lowest cluster), same per-(cluster, dim) mean of NORMALIZED
    components at 6-dp floor rounding."""
    import numpy as np
    import pyarrow.parquet as pq

    from osmlint import ann
    sf = "/root/testdata/sf0.001"
    monkeypatch.setattr(ann, "KMEANS_K", 4)
    out = ann.embedding_kmeans_1iter(sf)
    t = pq.read_table(sf + "/embeddings.parquet").to_pandas() \
        .sort_values("vec_id").reset_index(drop=True)
    m = np.stack(t["embedding"].to_numpy()).astype(np.float64)
    mn = m / np.maximum(np.sqrt((m * m).sum(1, keepdims=True)), 1e-30)
    seeds = mn[t["vec_id"].to_numpy() < 4]
    d = ((mn[:, None, :] - seeds[None, :, :]) ** 2).sum(axis=2)
    lab = d.argmin(axis=1)
    for c in sorted(set(lab)):
        sel = mn[lab == c]
        exp = np.floor(sel.mean(axis=0) * 1e6 + 0.5) / 1e6
        g = out[out.cluster == c].sort_values("dim_idx")
        assert (g["n_vecs"] == len(sel)).all()
        np.testing.assert_allclose(g["centroid"].to_numpy(), exp,
                                   rtol=0, atol=1.01e-6)
    assert out["n_vecs"].iloc[::m.shape[1]].sum() == len(t) \
        or out.groupby("cluster")["n_vecs"].first().sum() == len(t)


def test_dedup_cosine_clusters(ray_session, monkeypatch):
    """Clusters from the LSH pair miner close the exact-cosine pair
    graph: recompute pairs brute-force, union-find, compare labels."""
    import numpy as np
    import pandas as pd
    import pyarrow.parquet as pq

    from osmlint import ann
    sf = "/root/testdata/sf0.001"
    tau = 0.45    # sf0.001 max pairwise cosine is ~0.479 (7 pairs here);
                  # the registered query keeps the registry tau
    monkeypatch.setattr(ann, "COS_TAU", tau)
    out = ann.dedup_cosine_clusters(sf)
    t = pq.read_table(sf + "/embeddings.parquet").to_pandas()
    m = np.stack(t["embedding"].to_numpy()).astype(np.float64)
    mn = m / np.maximum(np.sqrt((m * m).sum(1, keepdims=True)), 1e-30)
    sims = mn @ mn.T
    ids = t["vec_id"].to_numpy(np.int64)
    ii, jj = np.nonzero(np.triu(sims >= tau, k=1))
    a, b = ids[ii], ids[jj]
    assert len(a) > 0, "fixture should contain at least one near-dup pair"
    nodes, inv = np.unique(np.concatenate([a, b]), return_inverse=True)
    lab = np.arange(len(nodes))
    ia, ib = inv[:len(a)], inv[len(a):]
    while True:
        s = lab.copy()
        mm = np.minimum(lab[ia], lab[ib])
        np.minimum.at(lab, ia, mm)
        np.minimum.at(lab, ib, mm)
        lab = lab[lab]
        if np.array_equal(lab, s):
            break
    exp = pd.DataFrame({"vec_id": nodes, "cluster_id": nodes[lab]})
    exp["cluster_size"] = exp.groupby("cluster_id")["cluster_id"] \
        .transform("size").astype(np.int64)
    exp = exp.sort_values("vec_id").reset_index(drop=True)
    pd.testing.assert_frame_equal(out, exp, check_dtype=False)


def test_embedding_project_jl_property(ray_session):
    """Projection is deterministic and roughly distance-preserving
    (JL with 16 dims is coarse — gate at a loose, seed-pinned band)."""
    import numpy as np
    import pyarrow.parquet as pq

    from osmlint import ann
    sf = "/root/testdata/sf0.001"
    out = ann.embedding_project(sf).to_pandas()
    t = pq.read_table(sf + "/embeddings.parquet").to_pandas() \
        .sort_values("vec_id").reset_index(drop=True)
    m = np.stack(t["embedding"].to_numpy()).astype(np.float64)
    k = ann.JL_OUT_DIM
    assert len(out) == len(t) * k
    p = out.sort_values(["vec_id", "dim_idx"])["value"] \
        .to_numpy().reshape(len(t), k)
    # exact recompute (same matrix, same rounding)
    exp = (m @ ann.jl_matrix()) / np.sqrt(k)
    exp = np.floor(exp * 1e6 + 0.5) / 1e6
    np.testing.assert_array_equal(p, exp)
    # JL: median pairwise distance ratio near 1 on a sample
    rng = np.random.default_rng(0)
    idx = rng.choice(len(t), size=(200, 2))
    idx = idx[idx[:, 0] != idx[:, 1]]
    d0 = np.linalg.norm(m[idx[:, 0]] - m[idx[:, 1]], axis=1)
    d1 = np.linalg.norm(p[idx[:, 0]] - p[idx[:, 1]], axis=1)
    ratio = d1 / np.maximum(d0, 1e-30)
    assert 0.8 < np.median(ratio) < 1.2


def test_r4_ops_tiny_and_empty_edges(tmp_path, ray_session, monkeypatch):
    """Degenerate inputs: no query-term hits (BM25), sub-codebook-size
    embeddings (PQ refuses loudly), single-row joins and single-event
    trends all keep their schemas instead of crashing."""
    import pyarrow.parquet as pq

    from osmlint import ann, eventops, textops
    d = tmp_path / "edge"
    d.mkdir()
    docs = pd.DataFrame({"doc_id": [1], "text": ["zzz qqq"],
                         "lang": "en", "source": "s", "n_chars": 7})
    pq.write_table(pa.Table.from_pandas(docs, preserve_index=False),
                   str(d / "documents.parquet"))
    monkeypatch.setattr(textops, "BM25_QUERIES", {0: ("missingword",)})
    out = textops.bm25_topk(str(d))
    assert len(out) == 0
    assert list(out.columns) == ["query_id", "doc_id", "score", "rank"]
    monkeypatch.setattr(textops, "WEIGHTED_SAMPLE_K", 3)
    one = textops.corpus_weighted_sample(str(d))
    assert list(one["doc_id"]) == [1] and list(one["rank"]) == [1]

    emb = pd.DataFrame({"vec_id": [1],
                        "embedding": [np.arange(64, dtype=np.float32)],
                        "label": np.int32(0)})
    pq.write_table(pa.Table.from_pandas(emb, preserve_index=False),
                   str(d / "embeddings.parquet"))
    with pytest.raises(ValueError, match="codebook needs"):
        ann.pq_encode(str(d))
    norms = ann.source_embedding_norms(str(d))
    assert list(norms["source"]) == ["s"] and norms["n_docs"].iloc[0] == 1

    ev = pd.DataFrame({"event_id": [0], "ts": [pd.Timestamp("2024-01-05")],
                       "user_id": [1], "event_type": ["click"],
                       "value": [1.0], "props": ["{}"]})
    ev["ts"] = ev["ts"].astype("datetime64[us]")
    pq.write_table(pa.Table.from_pandas(ev, preserve_index=False),
                   str(d / "events.parquet"))
    tr = eventops.daily_trend(str(d))
    assert tr["slope"].iloc[0] == 0.0 and tr["intercept"].iloc[0] == 1.0


def test_diversity_sample_brute(emb_dir):
    """Greedy farthest-point selection vs a numpy brute force with the
    identical rounding/tie rules; the min_d2 sequence is non-increasing
    after step 1 (the k-center invariant: covering radius shrinks)."""
    t = pq.read_table(os.path.join(emb_dir, "embeddings.parquet"),
                      columns=["vec_id", "embedding"])
    ids = t["vec_id"].to_numpy().astype(np.int64)
    mat = np.stack(t["embedding"].to_pylist()).astype(np.float64)
    order = np.argsort(ids)
    ids, mat = ids[order], mat[order]
    chosen = [0]                               # lowest vec_id is seed
    expect = [(0, int(ids[0]), 0.0)]
    for step in range(1, ann.DIVERSITY_K):
        d2 = ((mat[:, None, :] - mat[chosen][None, :, :]) ** 2) \
            .sum(axis=2)
        d2 = np.floor(d2 * 1e6 + 0.5) / 1e6
        mind = d2.min(axis=1)
        mind[chosen] = -1.0
        best = int(np.lexsort((ids, -mind))[0])
        chosen.append(best)
        expect.append((step, int(ids[best]), float(mind[best])))
    got = ann.diversity_sample(emb_dir)
    exp = pd.DataFrame({"step": [e[0] for e in expect],
                        "vec_id": [e[1] for e in expect],
                        "min_d2": [e[2] for e in expect]})
    pd.testing.assert_frame_equal(got, exp, check_dtype=False)
    seq = got["min_d2"].to_numpy()[1:]
    assert (np.diff(seq) <= 0).all()


def test_heavy_users_brute(tmp_path, ray_session, monkeypatch):
    """Top-k per type vs a pandas brute force on a table engineered so
    the top-k boundary carries a count TIE (ranking must break to the
    lowest user_id) and a user is heavy in one type only."""
    d = str(tmp_path)
    rows = []
    # type A: user 3 -> 7 events, users 5 and 4 -> 6 each (tie), others 1
    rows += [(3, "A")] * 7 + [(5, "A")] * 6 + [(4, "A")] * 6
    rows += [(u, "A") for u in range(10, 16)]
    # type B: user 5 dominates
    rows += [(5, "B")] * 4 + [(9, "B")] * 2
    df = pd.DataFrame(rows, columns=["user_id", "event_type"])
    df["user_id"] = df["user_id"].astype(np.int64)
    df["event_id"] = np.arange(len(df), dtype=np.int64)
    df["ts"] = pd.Timestamp("2026-01-01")
    df["value"] = 1.0
    df["source"] = "s"
    df["props"] = "{}"
    pq.write_table(pa.Table.from_pandas(df, preserve_index=False),
                   os.path.join(d, "events.parquet"))
    monkeypatch.setattr(eventops, "HEAVY_TOP", 3)
    got = eventops.heavy_users(d)
    a = got[got["event_type"] == "A"]
    assert a["user_id"].tolist() == [3, 4, 5]      # tie 4 vs 5 -> 4 first
    assert a["n_events"].tolist() == [7, 6, 6]
    assert a["rank"].tolist() == [1, 2, 3]
    b = got[got["event_type"] == "B"]
    assert b["user_id"].tolist() == [5, 9]
    exp = df.groupby(["event_type", "user_id"]).size().reset_index(name="n")
    for et, grp in exp.groupby("event_type"):
        top = grp.sort_values(["n", "user_id"],
                              ascending=[False, True]).head(3)
        sub = got[got["event_type"] == et]
        assert sub["user_id"].tolist() == top["user_id"].tolist()
        assert sub["n_events"].tolist() == top["n"].tolist()
