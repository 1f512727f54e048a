# -*- coding: utf-8 -*-
"""Similarity search over the driver ``embeddings`` table
(vec_id:int64, embedding:list<float>, label:int32).

* ``topk_neighbors`` — brute-force cosine top-k per query: the query matrix
  is broadcast once (``ray.put``), each batch does one numpy matmul and
  emits a PER-BATCH top-k partial; the driver reduces the tiny partials.
* ``cosine_pairs`` — all-pairs cosine ≥ τ with the full (normalized) matrix
  broadcast; each batch computes batch×all sims blockwise.  This is the
  exact baseline the SQL oracle checks.
* ``cosine_pairs_lsh`` — the scale path: random-hyperplane signatures,
  groupby (table, signature) buckets, exact verify inside buckets.
  Multiprobe recall is probabilistic in general but deterministic for
  fixed input + seeds; it is oracle-checked against the exact SQL, with
  an in-repo gate test asserting exact-set equality on the driver tables
  so drift is caught before a driver run (ADVICE r2 #2).
"""

from __future__ import annotations

import os

import numpy as np
import pandas as pd
import pyarrow as pa
import ray
import ray.data as rd

from . import widths
from .metrics import split_cap_sentinels

#: neighbors per query vector / graph node (top-k, k-NN graph, PQ ADC)
K_NEIGHBORS = 5
#: the query set of the top-k searches: vectors ``vec_id < N_QUERIES``
N_QUERIES = 4
#: embedding width of the driver ``embeddings`` table
EMB_DIM = 64
#: cosine threshold of the pair miners: the synthetic embeddings' max
#: pairwise cosine is ~0.51, so 0.5 matches a small non-trivial set
COS_TAU = 0.5


# coalesce: False in topk_neighbors, True in topk_neighbors_ivf (IVF groupby)
def read_embeddings(sf_dir: str, *, coalesce: bool = False) -> rd.Dataset:
    """``coalesce=True`` sizes read blocks by bytes (~128 MB each, the
    Ray default target) instead of letting tiny files split to
    parallelism.  Sort-based consumers (IVF's groupby) use it: sort
    output partitioning follows input block count, and a tiny input
    split into #CPU blocks yields empty zero-schema sort partitions
    (cosmetic executor warnings).  At scale byte-sizing converges to the
    default — never fewer blocks than the data needs."""
    path = os.path.join(sf_dir, "embeddings.parquet")
    kw = {}
    if coalesce:
        kw["override_num_blocks"] = widths.byte_blocks(path)
    return rd.read_parquet(path, columns=["vec_id", "embedding"], **kw)


def _batch_matrix(batch: pa.Table) -> tuple[np.ndarray, np.ndarray]:
    ids = batch["vec_id"].to_numpy(zero_copy_only=False).astype(np.int64)
    emb = batch["embedding"]
    if isinstance(emb, pa.ChunkedArray):
        emb = emb.combine_chunks()
    flat = emb.flatten().to_numpy(zero_copy_only=False)
    dim = len(flat) // max(1, len(ids))
    return ids, flat.reshape(len(ids), dim).astype(np.float64)


def _normalize(m: np.ndarray) -> np.ndarray:
    n = np.sqrt((m * m).sum(axis=1, keepdims=True))
    return m / np.maximum(n, 1e-30)


def _query_vectors(sf_dir: str, n_queries: int) -> pa.Table:
    """Row-group-pruned fetch of the query vectors: the parquet filter
    pushes down to row groups, so the driver reads O(n_queries) rows —
    never the full embeddings table."""
    import pyarrow.parquet as pq
    return pq.read_table(os.path.join(sf_dir, "embeddings.parquet"),
                         columns=["vec_id", "embedding"],
                         filters=[("vec_id", "<", n_queries)])


def topk_neighbors(sf_dir: str) -> pd.DataFrame:
    """Exact top-``K_NEIGHBORS`` cosine neighbors of the first N_QUERIES."""
    k, n_queries = K_NEIGHBORS, N_QUERIES
    q_ids, q_mat = _batch_matrix(_query_vectors(sf_dir, n_queries))
    q_ref = ray.put((q_ids, _normalize(q_mat)))

    def partial(batch: pa.Table) -> pa.Table:
        qi, qm = ray.get(q_ref)
        ids, m = _batch_matrix(batch)
        sims = _normalize(m) @ qm.T                      # (batch, nq)
        kk = min(k + 1, len(ids))                        # +1: self may be here
        top = np.argpartition(-sims, kk - 1, axis=0)[:kk]
        rows, qcols, s = [], [], []
        for c in range(sims.shape[1]):
            rows.append(ids[top[:, c]])
            qcols.append(np.full(kk, qi[c], dtype=np.int64))
            s.append(sims[top[:, c], c])
        return pa.table({
            "query_id": pa.array(np.concatenate(qcols)),
            "neighbor_id": pa.array(np.concatenate(rows)),
            "sim": pa.array(np.concatenate(s), type=pa.float64())})

    parts = read_embeddings(sf_dir).map_batches(
        partial, batch_format="pyarrow").to_pandas()
    parts = parts[parts["query_id"] != parts["neighbor_id"]]
    parts = parts.sort_values(["query_id", "sim", "neighbor_id"],
                              ascending=[True, False, True], kind="stable")
    top = parts.groupby("query_id", sort=True).head(k).copy()
    top["rank"] = top.groupby("query_id").cumcount().astype(np.int64) + 1
    out = top[["query_id", "neighbor_id", "rank"]].reset_index(drop=True)
    return out


MAX_EXACT_PAIR_ROWS = 200_000   # hard guard on the O(N^2) exact baseline


def cosine_pairs(sf_dir: str) -> pd.DataFrame:
    """Exact near-duplicate pairs: cosine ≥ COS_TAU, vec_a < vec_b (brute
    baseline; full normalized matrix broadcast once, batch×all matmul).

    This is the O(N^2) ORACLE ANCHOR, not a scale path: it refuses inputs
    above ``MAX_EXACT_PAIR_ROWS`` so it cannot be pointed at a 100 TB table
    by accident — use ``cosine_pairs_lsh`` there."""
    import pyarrow.parquet as pq
    tau = COS_TAU
    path = os.path.join(sf_dir, "embeddings.parquet")
    n_rows = pq.ParquetFile(path).metadata.num_rows
    if n_rows > MAX_EXACT_PAIR_ROWS:
        raise ValueError(
            f"cosine_pairs is the exact O(N^2) baseline and refuses inputs "
            f"over {MAX_EXACT_PAIR_ROWS} rows (got {n_rows}); use "
            f"cosine_pairs_lsh for the bucketed scale path")
    tbl = pq.read_table(path, columns=["vec_id", "embedding"])
    all_ids, all_mat = _batch_matrix(tbl)
    ref = ray.put((all_ids, _normalize(all_mat)))

    def partial(batch: pa.Table) -> pa.Table:
        aids, am = ray.get(ref)
        ids, m = _batch_matrix(batch)
        sims = _normalize(m) @ am.T
        bi, aj = np.nonzero(sims >= tau)
        a = ids[bi]; b = aids[aj]
        keep = a < b
        return pa.table({"vec_a": pa.array(a[keep], type=pa.int64()),
                         "vec_b": pa.array(b[keep], type=pa.int64())})

    df = read_embeddings(sf_dir).map_batches(
        partial, batch_format="pyarrow").to_pandas()
    if df.empty:
        df = pd.DataFrame({"vec_a": pd.Series(dtype=np.int64),
                           "vec_b": pd.Series(dtype=np.int64)})
    return df.sort_values(["vec_a", "vec_b"]).reset_index(drop=True)


N_TABLES = 8
N_BITS = 8          # floor; _n_bits_for raises it with log2(n) at scale
LSH_SEED = 77
_PAIR_SCHEMA = pa.schema([("vec_a", pa.int64()), ("vec_b", pa.int64())])
MAX_BUCKET = 4096   # skip guard against degenerate buckets (counted, logged)
#: broadcast-verify ceiling: a 200k x 64 f32 normalized matrix is ~51 MB
#: per worker — above it the verify degrades to the blob hash join.
LSH_BROADCAST_MAX_ROWS = 200_000

#: per-query metrics of the last call (the "no silent caps" surface):
#: skipped_buckets / skipped_docs record what the MAX_BUCKET guard dropped.
LAST_METRICS: dict[str, dict] = {}


def _n_bits_for(n_rows: int) -> int:
    """Signature width scales with log2(n) so the EXPECTED bucket
    occupancy — INCLUDING the x(n_bits+1) both-sides multiprobe
    inflation, solved to a fixed point since probes grow with the width
    itself — stays ~1024, well under MAX_BUCKET.  With occupancy
    pinned, candidate volume stays LINEAR in n (buckets x occ^2/2 =
    n x occ x T / 2), a uniformly loaded table can never silently trip
    the skip guard, and the driver scales (<= a few thousand rows) keep
    the same 8-bit setting the oracle equality was gated at."""
    import math
    bits = N_BITS
    for _ in range(4):           # fixed point of bits -> probes(bits)
        nxt = max(N_BITS, math.ceil(math.log2(
            max(n_rows, 2) * (bits + 1) / 1024.0)))
        if nxt == bits:
            break
        bits = nxt
    return bits


def cosine_pairs_lsh(sf_dir: str) -> pd.DataFrame:
    """Scale path for near-duplicate pair mining: random-hyperplane LSH.

    Shuffle shape (the 100 TB story): the signature pass emits ONLY
    ``(table, sig, vec_id)`` — 24-byte rows, never the vector payload — with
    multiprobe (each of the n_bits single-bit flips is also emitted, both
    sides, so any pair within Hamming distance 2 in some table collides:
    per-table hit P(d<=2), recall ~0.994 at tau=0.5 / 8 bits x 8 tables).
    Buckets yield candidate id pairs, deduped by a distributed groupby, and
    the exact-cosine verify joins the embeddings back per side with Ray
    Data's hash join — candidate volume, not input volume, drives the
    verify cost.  Hyperplanes are freshly seeded per call (deterministic
    across calls and retries).

    Skew safety: ``n_bits`` grows with log2(n_rows) (parquet metadata —
    no data read) so uniform load can't exceed MAX_BUCKET; buckets that
    still do (pathological skew) are SKIPPED and surfaced — count and
    dropped-doc total land in ``LAST_METRICS['cosine_pairs_lsh']`` and a
    warning is logged.  Recall collapse can't be silent."""
    import pyarrow.parquet as pq
    tau, dim, max_bucket = COS_TAU, EMB_DIM, MAX_BUCKET
    n_rows = pq.ParquetFile(
        os.path.join(sf_dir, "embeddings.parquet")).metadata.num_rows
    n_bits = _n_bits_for(n_rows)
    planes = np.random.default_rng(LSH_SEED).standard_normal(
        (N_TABLES, n_bits, dim))
    planes_ref = ray.put(planes)
    bit_flips = (np.uint64(1) << np.arange(n_bits, dtype=np.uint64))

    def sign_batch(batch: pa.Table) -> pa.Table:
        pl = ray.get(planes_ref)
        ids, m = _batch_matrix(batch)
        mn = _normalize(m)
        n = len(ids)
        out_t, out_id = [], []
        for t in range(N_TABLES):
            bits = (mn @ pl[t].T) > 0                          # (n, n_bits)
            sig = (bits.astype(np.uint64)
                   << np.arange(n_bits, dtype=np.uint64)).sum(axis=1)
            # exact sig + every 1-bit flip (multiprobe, both sides => d<=2)
            probes = np.concatenate([sig[:, None], sig[:, None] ^ bit_flips],
                                    axis=1)                    # (n, 1+bits)
            gk = (probes.reshape(-1)
                  * np.uint64(0x9E3779B97F4A7C15)
                  + np.uint64(t)).astype(np.int64)
            out_t.append(gk)
            out_id.append(np.repeat(ids, n_bits + 1))
        gk_all = np.concatenate(out_t)
        return pa.table({
            "gk": pa.array(gk_all),
            "vec_id": pa.array(np.concatenate(out_id)),
            "mb": pa.array(widths.bucket_of(gk_all))})

    def mine(g: pd.DataFrame) -> pa.Table:
        # all-pairs per (table, sig) bucket inside one META-bucket (the
        # widths.REDUCE_BUCKETS rule); shared miner, cosine column names
        from .textops import _mine_bucket_pairs
        return _mine_bucket_pairs(g["gk"].to_numpy(np.int64),
                                  g["vec_id"].to_numpy(np.int64),
                                  max_bucket, "cosine-LSH bucket",
                                  schema=_PAIR_SCHEMA)

    def dedup(g: pd.DataFrame) -> pa.Table:
        d = g.drop_duplicates(["vec_a", "vec_b"])
        return pa.table({"vec_a": pa.array(d["vec_a"].to_numpy(np.int64)),
                         "vec_b": pa.array(d["vec_b"].to_numpy(np.int64))})

    def bucketize_pairs(b: pa.Table) -> pa.Table:
        from .textops import _pair_mb
        return _pair_mb(b, a="vec_a", b="vec_b")

    sigs = read_embeddings(sf_dir).map_batches(sign_batch,
                                               batch_format="pyarrow")
    cand = sigs.groupby("mb").map_groups(mine, batch_format="pandas") \
        .map_batches(bucketize_pairs, batch_format="pyarrow") \
        .groupby("_mb").map_groups(dedup, batch_format="pandas")
    cand = split_cap_sentinels(cand, LAST_METRICS, "cosine_pairs_lsh",
                               "vec_a", _PAIR_SCHEMA)
    # Ray's join finalizer crashes on an EMPTY left dataset (empty
    # partitions are fine — verified incl. hub keys): bail on zero
    # candidates; the partition-count scaling is small-scale perf tuning
    # (cand is materialized, count() is free)
    n_cand = cand.count()
    if n_cand == 0:
        return pd.DataFrame({"vec_a": pd.Series(dtype=np.int64),
                             "vec_b": pd.Series(dtype=np.int64)})

    def pack(batch: pa.Table) -> pa.Table:
        # acero (the join kernel) rejects list<float> non-key payloads:
        # carry the normalized vector as a fixed-width binary blob instead
        ids, m = _batch_matrix(batch)
        mn = _normalize(m).astype(np.float32)
        blobs = pa.array([r.tobytes() for r in mn], type=pa.binary())
        return pa.table({"vec_id": pa.array(ids, type=pa.int64()),
                         "emb": blobs})

    if n_rows <= LSH_BROADCAST_MAX_ROWS:
        # the normalized f32 matrix fits one broadcast (<= ~50 MB): verify
        # candidates by direct index lookup — no blob replication, no join
        # aggregator actors (the join path replicates BOTH 256-byte blobs
        # per candidate pair, which dominates wall time when candidate
        # volume is high relative to n)
        import pyarrow.parquet as pq2
        tbl = pq2.read_table(os.path.join(sf_dir, "embeddings.parquet"),
                             columns=["vec_id", "embedding"])
        all_ids, all_m = _batch_matrix(tbl)
        order = np.argsort(all_ids)
        mat_ref = ray.put((all_ids[order],
                           _normalize(all_m)[order].astype(np.float32)))

        def bverify(batch: pa.Table) -> pa.Table:
            if batch.num_rows == 0:
                return _PAIR_SCHEMA.empty_table()
            ids_s, mn = ray.get(mat_ref)
            a = batch["vec_a"].to_numpy(zero_copy_only=False)
            b = batch["vec_b"].to_numpy(zero_copy_only=False)
            ia = np.searchsorted(ids_s, a)
            ib = np.searchsorted(ids_s, b)
            sims = (mn[ia].astype(np.float64)
                    * mn[ib].astype(np.float64)).sum(axis=1)
            keep = sims >= tau
            return pa.table({"vec_a": pa.array(a[keep], type=pa.int64()),
                             "vec_b": pa.array(b[keep], type=pa.int64())})

        df = cand.map_batches(bverify, batch_format="pyarrow").to_pandas()
        if df.empty:
            df = pd.DataFrame({"vec_a": pd.Series(dtype=np.int64),
                               "vec_b": pd.Series(dtype=np.int64)})
        return df.sort_values(["vec_a", "vec_b"]).reset_index(drop=True)

    emb = read_embeddings(sf_dir).map_batches(pack, batch_format="pyarrow")
    # ~50k pairs per partition: each pair drags both blobs through the join
    num_partitions = widths.join_partitions(n_cand, 50_000)
    joined = cand.join(emb, "inner", num_partitions,
                       on=("vec_a",), right_on=("vec_id",))
    joined = joined.join(emb, "inner", num_partitions,
                         on=("vec_b",), right_on=("vec_id",),
                         left_suffix="_l", right_suffix="_r")

    def verify(batch: pa.Table, tau: float) -> pa.Table:
        if batch.num_rows == 0:
            return _PAIR_SCHEMA.empty_table()
        cols = batch.column_names
        ea = "emb_l" if "emb_l" in cols else "emb"
        eb = "emb_r" if "emb_r" in cols else "emb"
        a = batch["vec_a"].to_numpy(zero_copy_only=False)
        b = batch["vec_b"].to_numpy(zero_copy_only=False)
        ma = np.stack([np.frombuffer(x, dtype=np.float32)
                       for x in batch[ea].to_pylist()]).astype(np.float64)
        mb = np.stack([np.frombuffer(x, dtype=np.float32)
                       for x in batch[eb].to_pylist()]).astype(np.float64)
        sims = (ma * mb).sum(axis=1)
        keep = sims >= tau
        return pa.table({"vec_a": pa.array(a[keep], type=pa.int64()),
                         "vec_b": pa.array(b[keep], type=pa.int64())})

    df = joined.map_batches(verify, batch_format="pyarrow",
                            fn_kwargs={"tau": tau}).to_pandas()
    if df.empty:
        df = pd.DataFrame({"vec_a": pd.Series(dtype=np.int64),
                           "vec_b": pd.Series(dtype=np.int64)})
    return df.sort_values(["vec_a", "vec_b"]).reset_index(drop=True)


# ---------------------------------------------------------------------------
# IVF (inverted-file) top-k: the coarse-quantizer scale path
# ---------------------------------------------------------------------------

IVF_K = 16
IVF_NPROBE = 4
IVF_ITERS = 8
IVF_SAMPLE = 4096


def _kmeans(sample: np.ndarray, k: int, iters: int, seed: int = 11):
    """Tiny seeded Lloyd's k-means on a driver-side sample (numpy only)."""
    rng = np.random.default_rng(seed)
    cent = sample[rng.choice(len(sample), size=min(k, len(sample)),
                             replace=False)]
    for _ in range(iters):
        d = ((sample[:, None, :] - cent[None, :, :]) ** 2).sum(axis=2)
        assign = d.argmin(axis=1)
        for c in range(len(cent)):
            m = assign == c
            if m.any():
                cent[c] = sample[m].mean(axis=0)
    return cent


# nprobe: IVF_NPROBE for ann_topk_ivf, IVF_K for ann_topk_ivf_fullprobe
def topk_neighbors_ivf(sf_dir: str,
                       nprobe: int = IVF_NPROBE) -> pd.DataFrame:
    """Approximate top-k via an IVF index: k-means coarse centroids built
    from a driver-side sample, vectors routed to their nearest list by a
    broadcast centroid matrix, queries probed against their ``nprobe``
    nearest lists only.  groupby(list) colocates each list's vectors; the
    per-list kernel is one matmul.  Approximate (rows-only check) —
    ``topk_neighbors`` is the exact baseline.

    No driver-side full-table read: the k-means training sample is a
    ``limit(IVF_SAMPLE)`` slice of the streamed Dataset (only the needed
    blocks are pulled) and the query vectors come from a row-group-pruned
    parquet read filtered to ``vec_id < N_QUERIES``."""
    k, n_queries, n_lists = K_NEIGHBORS, N_QUERIES, IVF_K
    sample_df = read_embeddings(sf_dir).limit(IVF_SAMPLE).to_pandas()
    s_mat = np.stack(sample_df["embedding"].to_numpy()).astype(np.float64)
    sample = _normalize(s_mat)
    cent = _kmeans(sample, n_lists, IVF_ITERS)
    q_ids, q_raw = _batch_matrix(_query_vectors(sf_dir, n_queries))
    order = np.argsort(q_ids)
    q_ids = q_ids[order]
    q_mat = _normalize(q_raw[order])
    # queries probe their nprobe nearest lists
    qd = ((q_mat[:, None, :] - cent[None, :, :]) ** 2).sum(axis=2)
    probe_lists = np.argsort(qd, axis=1)[:, :nprobe]          # (nq, nprobe)
    cent_ref = ray.put(cent)
    q_ref = ray.put((q_ids, q_mat, probe_lists))

    def route(batch: pa.Table) -> pa.Table:
        c = ray.get(cent_ref)
        ids, m = _batch_matrix(batch)
        mn = _normalize(m)
        d = ((mn[:, None, :] - c[None, :, :]) ** 2).sum(axis=2)
        lst = d.argmin(axis=1).astype(np.int64)
        # zero-copy columnar list build — no per-row Python conversion
        vec = pa.FixedSizeListArray.from_arrays(
            pa.array(mn.reshape(-1), type=pa.float64()), mn.shape[1])
        return pa.table({"list": pa.array(lst),
                         "vec_id": pa.array(ids),
                         "vec": vec})

    def search(g: pd.DataFrame) -> pa.Table:
        qi, qm, probes = ray.get(q_ref)
        lst = int(g["list"].iat[0])
        qsel = np.nonzero((probes == lst).any(axis=1))[0]
        if not len(qsel):
            return pa.table({"query_id": pa.array([], type=pa.int64()),
                             "neighbor_id": pa.array([], type=pa.int64()),
                             "sim": pa.array([], type=pa.float64())})
        ids = g["vec_id"].to_numpy()
        m = np.stack(g["vec"].to_numpy())
        sims = m @ qm[qsel].T                                  # (n, nqsel)
        kk = min(k + 1, len(ids))
        top = np.argpartition(-sims, kk - 1, axis=0)[:kk]
        out_q, out_n, out_s = [], [], []
        for j, qidx in enumerate(qsel):
            out_q.append(np.full(kk, qi[qidx], dtype=np.int64))
            out_n.append(ids[top[:, j]])
            out_s.append(sims[top[:, j], j])
        return pa.table({"query_id": pa.array(np.concatenate(out_q)),
                         "neighbor_id": pa.array(np.concatenate(out_n)),
                         "sim": pa.array(np.concatenate(out_s),
                                         type=pa.float64())})

    ds = read_embeddings(sf_dir, coalesce=True) \
        .map_batches(route, batch_format="pyarrow")
    parts = ds.groupby("list").map_groups(search, batch_format="pandas") \
        .to_pandas()
    if parts.empty:
        return pd.DataFrame({"query_id": pd.Series(dtype=np.int64),
                             "neighbor_id": pd.Series(dtype=np.int64),
                             "rank": pd.Series(dtype=np.int64)})
    parts = parts[parts["query_id"] != parts["neighbor_id"]]
    parts = parts.sort_values(["query_id", "sim", "neighbor_id"],
                              ascending=[True, False, True], kind="stable")
    top = parts.groupby("query_id", sort=True).head(k).copy()
    top["rank"] = top.groupby("query_id").cumcount().astype(np.int64) + 1
    return top[["query_id", "neighbor_id", "rank"]].reset_index(drop=True)


# ---------------------------------------------------------------------------
# int8 embedding quantization (training-data compression stage)
# ---------------------------------------------------------------------------

def quantize_embeddings(sf_dir: str) -> rd.Dataset:
    """Symmetric per-vector int8 quantization: scale = max|x| / 127,
    q_d = floor(x_d / scale + 0.5).  Output is LONG form (vec_id, dim_idx,
    q, scale) so the oracle compares scalar columns, and floor(x+0.5) is
    used instead of round() on both sides (numpy round is banker's,
    DuckDB's is half-away — floor+0.5 is identical everywhere)."""
    def quant(batch: pa.Table) -> pa.Table:
        ids, m = _batch_matrix(batch)
        n, dim = m.shape
        scale = np.maximum(np.abs(m).max(axis=1) / 127.0, 1e-30)
        q = np.floor(m / scale[:, None] + 0.5).astype(np.int64)
        return pa.table({
            "vec_id": pa.array(np.repeat(ids, dim), type=pa.int64()),
            "dim_idx": pa.array(np.tile(np.arange(dim, dtype=np.int64), n)),
            "q": pa.array(q.reshape(-1), type=pa.int64()),
            "scale": pa.array(np.repeat(scale, dim), type=pa.float64())})
    return read_embeddings(sf_dir).map_batches(quant, batch_format="pyarrow")


# ---------------------------------------------------------------------------
# per-label embedding centroids (mean-pool by group)
# ---------------------------------------------------------------------------

def embedding_centroids(sf_dir: str) -> pd.DataFrame:
    """Per-label mean embedding (the class-centroid building block of
    nearest-centroid classification / diversity balancing): per-batch
    vectorized (label, dim) partial sums -> a BOUNDED groupby (#labels x
    dim rows) -> mean.  Long-form output (label, dim_idx, centroid,
    n_vecs) so the oracle compares scalar columns; 6-dp floor rounding
    absorbs summation-order ulps."""
    from ray.data.aggregate import Sum

    def partial(batch: pa.Table) -> pa.Table:
        m = np.stack(batch["embedding"].to_pandas().to_numpy()) \
            .astype(np.float64)
        lab = batch["label"].to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        uniq, inv = np.unique(lab, return_inverse=True)
        dim = m.shape[1]
        sums = np.zeros((len(uniq), dim), dtype=np.float64)
        np.add.at(sums, inv, m)
        counts = np.bincount(inv, minlength=len(uniq)).astype(np.int64)
        return pa.table({
            "label": pa.array(np.repeat(uniq, dim)),
            "dim_idx": pa.array(np.tile(np.arange(dim, dtype=np.int64),
                                        len(uniq))),
            "s": pa.array(sums.reshape(-1)),
            "n": pa.array(np.repeat(counts, dim))})

    agg = rd.read_parquet(os.path.join(sf_dir, "embeddings.parquet"),
                          columns=["label", "embedding"]) \
        .map_batches(partial, batch_format="pyarrow") \
        .groupby(["label", "dim_idx"]) \
        .aggregate(Sum("s", alias_name="s"), Sum("n", alias_name="n")) \
        .to_pandas()
    agg["centroid"] = np.floor(
        agg["s"].to_numpy(np.float64) / agg["n"].to_numpy(np.float64)
        * 1e6 + 0.5) / 1e6
    agg["n_vecs"] = agg["n"].astype(np.int64)
    out = agg[["label", "dim_idx", "centroid", "n_vecs"]] \
        .astype({"label": np.int64, "dim_idx": np.int64})
    return out.sort_values(["label", "dim_idx"]).reset_index(drop=True)


def knn_graph(sf_dir: str) -> pd.DataFrame:
    """Exact k-NN graph over ALL vectors (the backbone structure for
    embedding clustering / diversity pruning): per batch one matmul
    against the broadcast normalized matrix, per-row top-k partials,
    self excluded, ties to the lower neighbor id.

    O(N^2) compute with an O(N) broadcast — guarded by
    ``MAX_EXACT_PAIR_ROWS`` exactly like ``cosine_pairs`` (the scale
    path for neighbor structure is the IVF index / LSH pair miner;
    this is the exact baseline they are judged against)."""
    import pyarrow.parquet as pq
    k = K_NEIGHBORS
    path = os.path.join(sf_dir, "embeddings.parquet")
    n_rows = pq.ParquetFile(path).metadata.num_rows
    if n_rows > MAX_EXACT_PAIR_ROWS:
        raise ValueError(
            f"knn_graph is the exact O(N^2) baseline and refuses inputs "
            f"over {MAX_EXACT_PAIR_ROWS} rows (got {n_rows}); build the "
            f"neighbor structure with topk_neighbors_ivf at scale")
    tbl = pq.read_table(path, columns=["vec_id", "embedding"])
    all_ids, all_mat = _batch_matrix(tbl)
    order = np.argsort(all_ids)
    ref = ray.put((all_ids[order], _normalize(all_mat)[order]))

    def partial(batch: pa.Table) -> pa.Table:
        aids, am = ray.get(ref)
        ids, m = _batch_matrix(batch)
        sims = _normalize(m) @ am.T                      # (batch, N)
        self_col = np.searchsorted(aids, ids)
        sims[np.arange(len(ids)), self_col] = -np.inf    # exclude self
        kk = min(k, sims.shape[1] - 1)
        top = np.argpartition(-sims, kk - 1, axis=1)[:, :kk]
        rows = np.repeat(ids, kk)
        cols = aids[top.reshape(-1)]
        s = np.take_along_axis(sims, top, axis=1).reshape(-1)
        return pa.table({
            "vec_id": pa.array(rows, type=pa.int64()),
            "neighbor_id": pa.array(cols, type=pa.int64()),
            "sim": pa.array(s, type=pa.float64())})

    df = read_embeddings(sf_dir).map_batches(
        partial, batch_format="pyarrow").to_pandas()
    df = df.sort_values(["vec_id", "sim", "neighbor_id"],
                        ascending=[True, False, True], kind="stable")
    df["rank"] = df.groupby("vec_id").cumcount().astype(np.int64) + 1
    df = df[df["rank"] <= k]
    return df[["vec_id", "neighbor_id", "rank"]].reset_index(drop=True)


# ---------------------------------------------------------------------------
# distributed k-means over the embeddings table (iterative algorithm)
# ---------------------------------------------------------------------------

KMEANS_K = 8
KMEANS_MAX_ITERS = 20
KMEANS_TOL = 1e-6

#: exposed after every run: iterations used + whether centroids converged
#: (the "no silent caps" surface for the iteration bound).
KMEANS_LAST_INFO: dict = {}


def embedding_kmeans(sf_dir: str) -> pd.DataFrame:
    """Full distributed Lloyd's k-means over ALL embeddings — the
    engine's iterative-algorithm representative (IVF uses a driver-side
    sample; this one never materializes the table).

    Per iteration: centroids broadcast once (``ray.put``), one
    map_batches pass emits per-batch (cluster, partial_sum, count) rows
    (k x dim x #blocks — block-bounded, never row-bounded), one BOUNDED
    groupby reduces them, and the driver updates k x dim floats.
    Deterministic: init is the k lowest vec_ids' vectors, ties in the
    assignment argmin break to the lowest cluster index.  Iteration
    count and convergence land in ``KMEANS_LAST_INFO`` (never silent).
    Rows-only check by design: an iterative fixpoint is not
    SQL-expressible — invariants are pytest-asserted instead."""
    from ray.data.aggregate import Sum
    k, max_iters, tol = KMEANS_K, KMEANS_MAX_ITERS, KMEANS_TOL
    q_ids, q_mat = _batch_matrix(_query_vectors(sf_dir, k))
    order = np.argsort(q_ids)
    cent = _normalize(q_mat[order]).astype(np.float64)
    dim = cent.shape[1]

    def assign_partial(batch: pa.Table, cent_ref) -> pa.Table:
        c = ray.get(cent_ref)
        ids, m = _batch_matrix(batch)
        mn = _normalize(m)
        d = ((mn[:, None, :] - c[None, :, :]) ** 2).sum(axis=2)
        a = d.argmin(axis=1)
        uniq, inv = np.unique(a, return_inverse=True)
        sums = np.zeros((len(uniq), dim), dtype=np.float64)
        np.add.at(sums, inv, mn)
        counts = np.bincount(inv, minlength=len(uniq)).astype(np.int64)
        return pa.table({
            "cluster": pa.array(np.repeat(uniq.astype(np.int64), dim)),
            "dim_idx": pa.array(np.tile(np.arange(dim, dtype=np.int64),
                                        len(uniq))),
            "s": pa.array(sums.reshape(-1)),
            "n": pa.array(np.repeat(counts, dim))})

    ds = read_embeddings(sf_dir, coalesce=True)
    converged, it = False, 0
    for it in range(1, max_iters + 1):
        cent_ref = ray.put(cent)
        agg = ds.map_batches(assign_partial, batch_format="pyarrow",
                             fn_kwargs={"cent_ref": cent_ref}) \
            .groupby(["cluster", "dim_idx"]) \
            .aggregate(Sum("s", alias_name="s"), Sum("n", alias_name="n")) \
            .to_pandas()
        new = cent.copy()
        for cl, g in agg.groupby("cluster"):
            g = g.sort_values("dim_idx")
            new[int(cl)] = (g["s"].to_numpy(np.float64)
                            / np.maximum(g["n"].to_numpy(np.float64), 1))
        shift = float(np.abs(new - cent).max())
        cent = new
        if shift < tol:
            converged = True
            break
    KMEANS_LAST_INFO.update({"iters": it, "converged": converged})
    if not converged:
        import logging
        logging.getLogger(__name__).warning(
            "embedding_kmeans stopped at max_iters=%d (last shift > %g) "
            "— assignments reflect the LAST centroids", max_iters, tol)
    final_ref = ray.put(cent)

    def assign(batch: pa.Table) -> pa.Table:
        c = ray.get(final_ref)
        ids, m = _batch_matrix(batch)
        mn = _normalize(m)
        d = ((mn[:, None, :] - c[None, :, :]) ** 2).sum(axis=2)
        a = d.argmin(axis=1).astype(np.int64)
        dist = np.floor(np.sqrt(d[np.arange(len(a)), a]) * 1e6 + 0.5) / 1e6
        return pa.table({"vec_id": pa.array(ids, type=pa.int64()),
                         "cluster": pa.array(a),
                         "dist": pa.array(dist)})

    df = ds.map_batches(assign, batch_format="pyarrow").to_pandas()
    return df.sort_values("vec_id").reset_index(drop=True)


# ---------------------------------------------------------------------------
# approximate k-NN graph via the IVF index (the scale path knn_graph lacks)
# ---------------------------------------------------------------------------

def _empty_knn_parts() -> pa.Table:
    return pa.table({"vec_id": pa.array([], type=pa.int64()),
                     "neighbor_id": pa.array([], type=pa.int64()),
                     "sim": pa.array([], type=pa.float64())})


# nprobe, as_dataset: knn_graph_ivf entry vs knn_pagerank (IVF_K, Dataset)
def knn_graph_ivf(sf_dir: str, nprobe: int = IVF_NPROBE,
                  as_dataset: bool = False):
    """Approximate k-NN graph over ALL vectors through the IVF index —
    the scale path ``knn_graph`` (exact, O(N^2)-guarded at
    ``MAX_EXACT_PAIR_ROWS``) deliberately refuses to be.

    Shape: coarse centroids from a streamed ``limit(IVF_SAMPLE)`` sample
    (never a full read); ONE routing pass replicates each vector into its
    ``nprobe`` nearest lists as a PROBER and marks the single nearest
    list as its MEMBER list (replication factor nprobe — bounded, known);
    ``groupby(list)`` colocates each list; the per-list kernel is one
    probers x members matmul with per-prober top-(k+1) partials; a
    BOUNDED meta-bucket groupby (vec_id hash, not vec_id itself — Ray
    pays per-group overhead) reduces the <= N*nprobe*(k+1) partials to
    the final N*k edges.  No all-pairs, no full-table broadcast, no
    driver-side reduce.

    Approximate when nprobe < n_lists (a true neighbor in an unprobed
    list is missed) — registered rows-only; ``knn_graph_ivf_fullprobe``
    (nprobe == n_lists, every list scanned) is exact BY CONSTRUCTION and
    carries the hard ``knn_graph`` SQL oracle, same pattern as
    ``ann_topk_ivf_fullprobe``."""
    k = K_NEIGHBORS
    sample_df = read_embeddings(sf_dir).limit(IVF_SAMPLE).to_pandas()
    s_mat = np.stack(sample_df["embedding"].to_numpy()).astype(np.float64)
    cent = _kmeans(_normalize(s_mat), IVF_K, IVF_ITERS)
    nprobe = min(nprobe, len(cent))
    cent_ref = ray.put(cent)

    def route(batch: pa.Table) -> pa.Table:
        c = ray.get(cent_ref)
        ids, m = _batch_matrix(batch)
        mn = _normalize(m)
        d = ((mn[:, None, :] - c[None, :, :]) ** 2).sum(axis=2)
        # nprobe nearest lists per vector; column 0 is the member list
        probes = np.argsort(d, axis=1, kind="stable")[:, :nprobe]
        n, dim = mn.shape
        rep = np.repeat(mn, nprobe, axis=0)
        vec = pa.FixedSizeListArray.from_arrays(
            pa.array(rep.reshape(-1), type=pa.float64()), dim)
        member = np.zeros((n, nprobe), dtype=bool)
        member[:, 0] = True
        return pa.table({
            "list": pa.array(probes.reshape(-1).astype(np.int64)),
            "vec_id": pa.array(np.repeat(ids, nprobe), type=pa.int64()),
            "member": pa.array(member.reshape(-1)),
            "vec": vec})

    def search(g: pd.DataFrame) -> pa.Table:
        ids = g["vec_id"].to_numpy().astype(np.int64)
        mem = g["member"].to_numpy().astype(bool)
        if not mem.any():
            return _empty_knn_parts()
        m = np.stack(g["vec"].to_numpy())
        mem_ids, mem_m = ids[mem], m[mem]
        sims = m @ mem_m.T                           # (probers, members)
        sims[ids[:, None] == mem_ids[None, :]] = -np.inf   # self
        kk = min(k, sims.shape[1] - 1) + 1
        kk = min(kk, sims.shape[1])
        if kk <= 0:
            return _empty_knn_parts()
        top = np.argpartition(-sims, kk - 1, axis=1)[:, :kk]
        s = np.take_along_axis(sims, top, axis=1).reshape(-1)
        keep = np.isfinite(s)
        return pa.table({
            "vec_id": pa.array(np.repeat(ids, kk)[keep], type=pa.int64()),
            "neighbor_id": pa.array(mem_ids[top.reshape(-1)][keep],
                                    type=pa.int64()),
            "sim": pa.array(s[keep], type=pa.float64())})

    def bucketize(batch: pa.Table) -> pa.Table:
        v = batch["vec_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        return batch.append_column("mb", pa.array(widths.bucket_of(v),
                                                  type=pa.int64()))

    def reduce_topk(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["vec_id", "sim", "neighbor_id"],
                          ascending=[True, False, True], kind="stable")
        out = g.groupby("vec_id", sort=True).head(k).copy()
        out["rank"] = out.groupby("vec_id").cumcount().astype(np.int64) + 1
        return out[["vec_id", "neighbor_id", "rank"]]

    df = read_embeddings(sf_dir, coalesce=True) \
        .map_batches(route, batch_format="pyarrow") \
        .groupby("list").map_groups(search, batch_format="pandas") \
        .map_batches(bucketize, batch_format="pyarrow") \
        .groupby("mb").map_groups(reduce_topk, batch_format="pandas")
    if as_dataset:
        # downstream graph consumers (knn_pagerank) keep the N*k edge
        # table distributed — it never visits the driver
        return df
    df = df.to_pandas()
    if df.empty:
        return pd.DataFrame({"vec_id": pd.Series(dtype=np.int64),
                             "neighbor_id": pd.Series(dtype=np.int64),
                             "rank": pd.Series(dtype=np.int64)})
    return df.sort_values(["vec_id", "rank"]).reset_index(drop=True)


def knn_graph_ivf_fullprobe(sf_dir: str) -> pd.DataFrame:
    """nprobe == n_lists: every vector probes every list, so every
    (vector, candidate) pair is scored exactly once (each candidate is a
    member of exactly one list) — the result equals the exact
    ``knn_graph`` BY CONSTRUCTION and carries its hard SQL oracle,
    exercising the full IVF routing/replication/per-list/reduce
    machinery with the approximation switched off."""
    return knn_graph_ivf(sf_dir, nprobe=IVF_K)


def embedding_kmeans_1iter(sf_dir: str) -> pd.DataFrame:
    """ONE Lloyd iteration from the fixed seed centroids (the k lowest
    vec_ids' normalized vectors — the same init as ``embedding_kmeans``)
    — a single assign + mean step IS SQL-expressible (argmin join + AVG
    groupby), so this configuration gives the iterative k-means engine a
    HARD oracle: same broadcast, same assignment kernel, same bounded
    (cluster, dim) moment reduce as one loop turn of
    ``embedding_kmeans`` (which stays rows-only as a fixpoint).

    Output is long-form (cluster, dim_idx, centroid, n_vecs) with 6-dp
    floor rounding (summation-order ulps absorbed, the
    ``embedding_centroids`` precedent).  Every seed is a data vector
    (distance 0 to itself), so no cluster is ever empty."""
    from ray.data.aggregate import Sum
    q_ids, q_mat = _batch_matrix(_query_vectors(sf_dir, KMEANS_K))
    order = np.argsort(q_ids)
    cent = _normalize(q_mat[order]).astype(np.float64)
    dim = cent.shape[1]
    cent_ref = ray.put(cent)

    def assign_partial(batch: pa.Table) -> pa.Table:
        c = ray.get(cent_ref)
        ids, m = _batch_matrix(batch)
        mn = _normalize(m)
        d = ((mn[:, None, :] - c[None, :, :]) ** 2).sum(axis=2)
        a = d.argmin(axis=1)
        uniq, inv = np.unique(a, return_inverse=True)
        sums = np.zeros((len(uniq), dim), dtype=np.float64)
        np.add.at(sums, inv, mn)
        counts = np.bincount(inv, minlength=len(uniq)).astype(np.int64)
        return pa.table({
            "cluster": pa.array(np.repeat(uniq.astype(np.int64), dim)),
            "dim_idx": pa.array(np.tile(np.arange(dim, dtype=np.int64),
                                        len(uniq))),
            "s": pa.array(sums.reshape(-1)),
            "n": pa.array(np.repeat(counts, dim))})

    agg = read_embeddings(sf_dir, coalesce=True) \
        .map_batches(assign_partial, batch_format="pyarrow") \
        .groupby(["cluster", "dim_idx"]) \
        .aggregate(Sum("s", alias_name="s"), Sum("n", alias_name="n")) \
        .to_pandas()
    agg["centroid"] = np.floor(
        agg["s"].to_numpy(np.float64) / agg["n"].to_numpy(np.float64)
        * 1e6 + 0.5) / 1e6
    agg["n_vecs"] = agg["n"].astype(np.int64)
    out = agg[["cluster", "dim_idx", "centroid", "n_vecs"]] \
        .astype({"cluster": np.int64, "dim_idx": np.int64})
    return out.sort_values(["cluster", "dim_idx"]).reset_index(drop=True)


def dedup_cosine_clusters(sf_dir: str) -> pd.DataFrame:
    """Embedding near-duplicate CLUSTERS: cosine pairs from the LSH scale
    miner -> transitive closure (``graph.cluster_labels``) ->
    ``(vec_id, cluster_id, cluster_size)``, cluster_id = minimum member
    vec_id — the embedding-signal sibling of ``textops.dedup_clusters``.

    Pair mining is ``cosine_pairs_lsh`` (payload-free band shuffle +
    exact-cosine verify), so the pair set equals the exact SQL at gate
    scale (seed-pinned, same caveat as ``embedding_cosine_pairs_lsh``);
    the oracle is ``oracle_sql.components_ctes`` over the exact cosine
    pair SQL."""
    from . import graph
    pairs = cosine_pairs_lsh(sf_dir)
    if pairs.empty:
        return pd.DataFrame({"vec_id": pd.Series(dtype=np.int64),
                             "cluster_id": pd.Series(dtype=np.int64),
                             "cluster_size": pd.Series(dtype=np.int64)})
    edges = rd.from_pandas(pairs.rename(columns={"vec_a": "doc_a",
                                                 "vec_b": "doc_b"}))
    out = graph.cluster_labels(edges)
    return out.rename(columns={"doc_id": "vec_id"}) \
        .sort_values("vec_id").reset_index(drop=True)


# ---------------------------------------------------------------------------
# dimensionality reduction: Johnson-Lindenstrauss random projection
# ---------------------------------------------------------------------------

JL_OUT_DIM = 16
JL_SEED = 1234


def jl_matrix() -> np.ndarray:
    """Deterministic Rademacher projection matrix (+-1 entries; Achlioptas
    2003 — database-friendly JL): integer entries embed EXACTLY into the
    oracle's SQL VALUES table, and the 1/sqrt(out_dim)=1/4 scale is a
    power of two, so engine and oracle compute bit-identical products up
    to summation order."""
    rng = np.random.default_rng(JL_SEED)
    return rng.choice(np.array([-1.0, 1.0]), size=(EMB_DIM, JL_OUT_DIM))


def embedding_project(sf_dir: str) -> rd.Dataset:
    """Project every embedding to JL_OUT_DIM dims: one broadcast of the
    ``jl_matrix``, per-batch float64 matmul, 6-dp floor rounding
    (the engine-wide pre-compare convention).  Long output layout
    ``(vec_id, dim_idx, value)`` — the same shape ``embedding_quantize``
    ships.  Streaming: no aggregate, no shuffle, cost is one pass."""
    r = jl_matrix()
    scale = 1.0 / np.sqrt(r.shape[1])
    ref = ray.put(r)

    def partial(batch: pa.Table) -> pa.Table:
        ids, m = _batch_matrix(batch)
        p = (m @ ray.get(ref)) * scale
        p = np.floor(p * 1e6 + 0.5) / 1e6
        n, k = p.shape
        return pa.table({
            "vec_id": pa.array(np.repeat(ids, k)),
            "dim_idx": pa.array(np.tile(np.arange(k, dtype=np.int64), n)),
            "value": pa.array(p.reshape(-1))})

    return read_embeddings(sf_dir, coalesce=True) \
        .map_batches(partial, batch_format="pyarrow")


# ---------------------------------------------------------------------------
# product quantization: PQ encode + asymmetric-distance (ADC) top-k
# ---------------------------------------------------------------------------

PQ_M = 8       # subspaces: 64-dim -> 8 subvectors of 8
PQ_KSUB = 16   # centroids per subspace -> 4-bit codes, 8 x 4 = 32 bits/vec


def _pq_codebook(sf_dir: str, m: int, ksub: int) -> np.ndarray:
    """Deterministic sampled codebook (Jegou et al., "Product
    Quantization for Nearest Neighbor Search", TPAMI'11 — one k-means
    init step): centroid ``j`` of subspace ``s`` is the raw subvector of
    the database vector ``vec_id == j``.  Data-derived AND
    SQL-expressible, the same convention as the k-means seed oracle;
    shape (m, ksub, dim/m)."""
    ids, mat = _batch_matrix(_query_vectors(sf_dir, ksub))
    order = np.argsort(ids)
    mat = mat[order]
    if len(mat) < ksub:
        raise ValueError(f"PQ codebook needs >= {ksub} vectors, "
                         f"got {len(mat)}")
    dsub = mat.shape[1] // m
    return mat.reshape(ksub, m, dsub).transpose(1, 0, 2).copy()


def _pq_assign(mat: np.ndarray, cb: np.ndarray) -> np.ndarray:
    """(n, dim) x (m, ksub, dsub) -> (n, m) int64 codes; squared-L2
    argmin per subspace, ties to the lowest centroid index (numpy argmin
    == the oracle's row_number ORDER BY dist, j)."""
    n, dim = mat.shape
    m, ksub, dsub = cb.shape
    sub = mat.reshape(n, m, dsub)
    codes = np.empty((n, m), dtype=np.int64)
    for s in range(m):
        d2 = ((sub[:, s, None, :] - cb[s][None, :, :]) ** 2).sum(axis=2)
        codes[:, s] = np.argmin(d2, axis=1)
    return codes


def pq_encode(sf_dir: str) -> rd.Dataset:
    """PQ-encode every embedding against the broadcast codebook — the
    compression stage of a billion-scale ANN index (64 floats -> m
    4-bit codes).  One streaming pass, no shuffle; long layout
    ``(vec_id, sub, code)`` so the oracle can diff every cell."""
    cb_ref = ray.put(_pq_codebook(sf_dir, PQ_M, PQ_KSUB))

    def partial(batch: pa.Table) -> pa.Table:
        ids, mat = _batch_matrix(batch)
        codes = _pq_assign(mat, ray.get(cb_ref))
        n, mm = codes.shape
        return pa.table({
            "vec_id": pa.array(np.repeat(ids, mm)),
            "sub": pa.array(np.tile(np.arange(mm, dtype=np.int64), n)),
            "code": pa.array(codes.reshape(-1))})

    return read_embeddings(sf_dir, coalesce=True) \
        .map_batches(partial, batch_format="pyarrow")


def pq_topk_adc(sf_dir: str) -> pd.DataFrame:
    """Asymmetric-distance top-k: each query precomputes its
    (m x ksub) lookup table of exact subspace distances to the
    codebook; a database vector's approximate distance is the sum of
    its codes' LUT entries.  The scan fuses encode + LUT-gather +
    per-batch per-query top-k (distances 6-dp floor-rounded BEFORE
    ranking, ties neighbor asc), so the driver merges
    #blocks x n_queries x k rows — the PQ search path that replaces
    the O(n * dim) exact scan with O(n * m) byte lookups at 100 TB."""
    k, n_queries, m = K_NEIGHBORS, N_QUERIES, PQ_M
    cb = _pq_codebook(sf_dir, m, PQ_KSUB)
    q_ids, q_mat = _batch_matrix(_query_vectors(sf_dir, n_queries))
    order = np.argsort(q_ids)
    q_ids, q_mat = q_ids[order], q_mat[order]
    dsub = q_mat.shape[1] // m
    qsub = q_mat.reshape(len(q_ids), m, dsub)
    # lut[q, s, j] = ||q_sub_s - cb[s][j]||^2
    lut = ((qsub[:, :, None, :] - cb[None, :, :, :]) ** 2).sum(axis=3)
    ref = ray.put((q_ids, lut, cb))

    def partial(batch: pa.Table) -> pa.Table:
        qi, lt, cbk = ray.get(ref)
        ids, mat = _batch_matrix(batch)
        codes = _pq_assign(mat, cbk)
        subs = np.arange(codes.shape[1])
        out_q, out_n, out_d = [], [], []
        for c in range(len(qi)):
            adist = lt[c][subs[None, :], codes].sum(axis=1)
            adist = np.floor(adist * 1e6 + 0.5) / 1e6
            keep = ids != qi[c]
            dd, aa = ids[keep], adist[keep]
            head = np.lexsort((dd, aa))[:k]
            out_q.append(np.full(len(head), qi[c], dtype=np.int64))
            out_n.append(dd[head])
            out_d.append(aa[head])
        return pa.table({
            "query_id": pa.array(np.concatenate(out_q)),
            "neighbor_id": pa.array(np.concatenate(out_n)),
            "adist": pa.array(np.concatenate(out_d), type=pa.float64())})

    cand = read_embeddings(sf_dir).map_batches(
        partial, batch_format="pyarrow").to_pandas()
    cand = cand.sort_values(["query_id", "adist", "neighbor_id"],
                            ascending=[True, True, True], kind="stable")
    top = cand.groupby("query_id", sort=True).head(k).copy()
    top["rank"] = top.groupby("query_id").cumcount().astype(np.int64) + 1
    return top[["query_id", "neighbor_id", "adist", "rank"]] \
        .reset_index(drop=True)


def knn_pagerank(sf_dir: str) -> pd.DataFrame:
    """Vector-centrality scores: fixed-iteration PageRank over the exact
    k-NN graph (hub embeddings score high — the classic graph-based
    quality/representativeness signal over a corpus embedding space).
    Edges come from the IVF fullprobe graph (exact by construction), the
    closure from ``graph.pagerank``; scores are 6-dp floor-rounded at
    the END (per-node in-sums are float, so intermediate rounding would
    bake in reduction order)."""
    from . import graph
    # fullprobe (nprobe == n_lists) == exact graph; as_dataset keeps the
    # N*k edge table distributed — it never visits the driver
    e = knn_graph_ivf(sf_dir, nprobe=IVF_K, as_dataset=True)
    edges = e.map_batches(
        lambda b: pa.table({"src": b["vec_id"].cast(pa.int64()),
                            "dst": b["neighbor_id"].cast(pa.int64())}),
        batch_format="pyarrow")
    pr = graph.pagerank(edges)
    pr["pagerank"] = np.floor(pr["pagerank"].to_numpy() * 1e6 + 0.5) / 1e6
    return pr.rename(columns={"node": "vec_id"}).reset_index(drop=True)


def source_embedding_norms(sf_dir: str) -> pd.DataFrame:
    """Cross-table quality rollup: per document source, the count, mean
    and max L2 norm of its docs' embeddings — the large x large
    distributed equi-join at the query surface (embedding norms join
    document metadata on ``doc_id == vec_id``).

    Shape: both sides are pruned to two narrow columns at the read —
    (vec_id, norm) and (doc_id, source) — before a distributed hash
    join (NO broadcast: at 10^12 rows both sides are big), then one
    bounded source-hash bucket reduce; the driver sees #sources rows.
    mean is sum/count 6-dp floor-rounded; max passes the norm through
    (rounded the same way for a stable compare)."""
    import pyarrow.parquet as pq
    path = os.path.join(sf_dir, "embeddings.parquet")
    n_vecs = pq.read_metadata(path).num_rows

    def norm_batch(batch: pa.Table) -> pa.Table:
        ids, m = _batch_matrix(batch)
        return pa.table({"vec_id": pa.array(ids),
                         "nrm": pa.array(np.sqrt((m * m).sum(axis=1)))})

    norms = read_embeddings(sf_dir).map_batches(norm_batch,
                                                batch_format="pyarrow")
    docs = rd.read_parquet(os.path.join(sf_dir, "documents.parquet"),
                           columns=["doc_id", "source"])
    j = norms.join(docs, "inner", widths.join_partitions(n_vecs, 200_000),
                   on=("vec_id",), right_on=("doc_id",))

    def bucketize(b: pa.Table) -> pa.Table:
        s = b["source"].to_pandas().to_numpy(dtype=object)
        return pa.table({"source": b["source"].cast(pa.string()),
                         "nrm": b["nrm"].cast(pa.float64()),
                         "_mb": pa.array(widths.bucket_of(s))})

    def combine(g: pd.DataFrame) -> pa.Table:
        d = g.groupby("source", sort=False)["nrm"] \
            .agg(n_docs="size", s="sum", mx="max").reset_index()
        n = d["n_docs"].to_numpy(np.int64)
        return pa.table({
            "source": pa.array(d["source"].astype(str),
                               type=pa.string()),
            "n_docs": pa.array(n),
            "mean_norm": pa.array(np.floor(
                d["s"].to_numpy() / n * 1e6 + 0.5) / 1e6),
            "max_norm": pa.array(np.floor(
                d["mx"].to_numpy() * 1e6 + 0.5) / 1e6)})

    out = j.map_batches(bucketize, batch_format="pyarrow") \
        .groupby("_mb").map_groups(combine, batch_format="pandas") \
        .to_pandas()
    return out.sort_values("source").reset_index(drop=True)


# ---------------------------------------------------------------------------
# k-center greedy diversity sampling (farthest-point coreset selection)
# ---------------------------------------------------------------------------

DIVERSITY_K = 8

_FAR_SCHEMA = pa.schema([("vec_id", pa.int64()),
                         ("mind", pa.float64()),
                         ("emb", pa.binary())])


def diversity_sample(sf_dir: str) -> pd.DataFrame:
    """Gonzalez k-center greedy (farthest-point) selection over the
    embeddings — the classic coreset / diversity-sampling pass a
    training-data pipeline runs to pick maximally-spread exemplars.
    Seed = lowest vec_id; each round adds the point maximizing its
    min squared-L2 distance to the chosen set (distance 6-dp
    floor-rounded BEFORE the min/argmax — the ``pq_topk_adc`` rule, so
    numpy-vs-SQL summation ulps cannot flip a tie — ties to the lowest
    vec_id).  Returns ``(step, vec_id, min_d2)``, step 0 = seed.

    Shape: the chosen set (<= k rows) broadcasts via ``ray.put`` each
    round; every batch computes its distances vectorized and emits ONE
    winner row, so the driver reduces #blocks partials per round — k
    streaming passes total, no shuffle, no N x N matrix anywhere.  Work
    is O(k * N * dim); for k beyond ~64 switch the per-batch kernel to
    an incremental min (cache the previous round's per-point min and
    only score the ONE new center — same passes, O(N * dim) each)."""
    k = DIVERSITY_K
    ds = read_embeddings(sf_dir, coalesce=True).materialize()

    def seed_partial(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return _FAR_SCHEMA.empty_table()
        ids, mat = _batch_matrix(batch)
        i = int(np.argmin(ids))
        return pa.table({"vec_id": pa.array([ids[i]]),
                         "mind": pa.array([0.0]),
                         "emb": pa.array([mat[i].tobytes()])})

    parts = ds.map_batches(seed_partial,
                           batch_format="pyarrow").to_pandas()
    j = int(parts["vec_id"].to_numpy(np.int64).argmin())
    chosen_ids = [int(parts["vec_id"].iloc[j])]
    chosen = [np.frombuffer(parts["emb"].iloc[j], np.float64)]
    rows = [(0, chosen_ids[0], 0.0)]

    def far_partial(batch: pa.Table, *, ref) -> pa.Table:
        if batch.num_rows == 0:
            return _FAR_SCHEMA.empty_table()
        cids, cmat = ray.get(ref)
        ids, mat = _batch_matrix(batch)
        keep = ~np.isin(ids, cids)
        if not keep.any():
            return _FAR_SCHEMA.empty_table()
        ids, mat = ids[keep], mat[keep]
        d2 = ((mat[:, None, :] - cmat[None, :, :]) ** 2).sum(axis=2)
        d2 = np.floor(d2 * 1e6 + 0.5) / 1e6
        mind = d2.min(axis=1)
        best = int(np.lexsort((ids, -mind))[0])
        return pa.table({"vec_id": pa.array([ids[best]]),
                         "mind": pa.array([mind[best]]),
                         "emb": pa.array([mat[best].tobytes()])})

    for t in range(1, k):
        ref = ray.put((np.array(chosen_ids, dtype=np.int64),
                       np.stack(chosen)))
        p = ds.map_batches(far_partial, batch_format="pyarrow",
                           fn_kwargs={"ref": ref}).to_pandas()
        if p.empty:
            break                      # fewer than k points exist
        o = int(np.lexsort((p["vec_id"].to_numpy(np.int64),
                            -p["mind"].to_numpy(np.float64)))[0])
        vid = int(p["vec_id"].iloc[o])
        chosen_ids.append(vid)
        chosen.append(np.frombuffer(p["emb"].iloc[o], np.float64))
        rows.append((t, vid, float(p["mind"].iloc[o])))
    return pd.DataFrame({
        "step": pd.array([r[0] for r in rows], dtype="int64"),
        "vec_id": pd.array([r[1] for r in rows], dtype="int64"),
        "min_d2": [r[2] for r in rows]})
