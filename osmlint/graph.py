# -*- coding: utf-8 -*-
"""Distributed graph primitives: connected components over an edge Dataset.

The dedup family (``minhash_dup_pairs`` / ``ngram_jaccard_pairs`` /
``simhash_dup_pairs``) mines near-duplicate PAIRS; turning pairs into
dedup decisions needs the transitive closure — every doc labeled with its
duplicate-cluster representative (the minimum doc_id in the component).

Two paths, picked by edge volume:

* **local** (edges <= ``SMALL_EDGES``): the near-dup pair set is OUTPUT
  data, bounded by candidate volume — the same frame the pair queries
  already hand the driver.  One vectorized numpy min-label kernel with
  pointer jumping (O(E) per round, O(log n) rounds) closes it without
  paying ~6 Ray join/groupby fixed costs per propagation round.
* **distributed** (above the threshold; a test forces it by patching
  ``SMALL_EDGES`` to 0): iterated min-label propagation over Datasets —
  a (src, dst) both-directions edge table is materialized once, every
  round joins it
  against the current labels and takes ``groupby(node).min(label)``.
  Labels only decrease, so the label SUM is the fixpoint detector
  (strictly decreases iff any label changed; one scalar to the driver
  per round, no old-vs-new join).  At 10^12-node scale the int64 sum
  wraps mod 2^64 — still valid under monotonicity unless a round
  decreases the sum by an exact multiple of 2^64 (vanishing odds).

Round count is the eccentricity of each component from its minimum node
(<= diameter); duplicate clusters are near-cliques, so 2-4 rounds in
practice and ``MAX_ROUNDS`` bounds pathological chains.  At 10^12-edge
scale, swap the propagation for alternating large-star/small-star
(Kiveris et al., "Connected Components in MapReduce and Beyond",
SoCC'14) to bound rounds by O(log n) — same join/groupby shapes, so the
shuffle story is unchanged.

Shuffle shape (the 100 TB story): every distributed round moves
(node, label) pairs — 16-byte rows — through one hash join plus one hash
aggregate; edges are re-joined from their materialized blocks, never
collected to the driver above the threshold.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import ray.data as rd

from . import widths

# Node/label-cardinality reduces (min-label, cluster size, PageRank sums)
# never use groupby().aggregate(), which pays per-GROUP overhead: they
# hash nodes into ``widths.REDUCE_BUCKETS`` buckets and combine with a
# C-level pandas groupby inside map_groups.


def _min_label_reduce(ds: rd.Dataset) -> rd.Dataset:
    """groupby(node).min(label) via bounded node-hash buckets."""
    def bucketize(b: pa.Table) -> pa.Table:
        n = b["node"].to_numpy(zero_copy_only=False).astype(np.int64)
        lb = b["label"].to_numpy(zero_copy_only=False).astype(np.int64)
        # per-batch combiner: local min per node BEFORE the shuffle —
        # min is associative, so the bucket combine still yields the
        # global min; a dense near-clique batch (duplicate clusters,
        # metro DBSCAN cells) collapses many rows per node to one, so
        # the sort ships node-cardinality rows, not edge-cardinality
        order = np.argsort(n, kind="stable")
        ns, ls = n[order], lb[order]
        starts = np.flatnonzero(np.r_[True, ns[1:] != ns[:-1]])
        un, mins = ns[starts], np.minimum.reduceat(ls, starts)
        return pa.table({"node": pa.array(un),
                         "label": pa.array(mins),
                         "_mb": pa.array(widths.bucket_of(un))})

    def combine(g: pd.DataFrame) -> pa.Table:
        d = g.groupby("node", sort=False)["label"].min().reset_index()
        return pa.table({"node": pa.array(d["node"].to_numpy(np.int64)),
                         "label": pa.array(d["label"]
                                           .to_numpy(np.int64))})

    return ds.map_batches(bucketize, batch_format="pyarrow") \
        .groupby("_mb").map_groups(combine, batch_format="pandas")


#: local-closure ceiling: ~4M edges = 64 MB of int64 pairs on the driver —
#: the same order as the pair-query output the driver already receives.
SMALL_EDGES = 1 << 22
#: propagation-round bound of the distributed closure (duplicate
#: clusters converge in 2-4 rounds; ``LAST_INFO`` reports a cut)
MAX_ROUNDS = 50

_LABEL_SCHEMA = pa.schema([("node", pa.int64()), ("label", pa.int64())])


def _local_components(a: np.ndarray, b: np.ndarray) -> pd.DataFrame:
    """Vectorized min-label closure with pointer jumping.

    Nodes are compacted to sorted indices, so the converged minimum INDEX
    per component maps back to the minimum doc_id.  Each round is O(E)
    numpy; pointer jumping (``lab = lab[lab]``) halves chain depth, so
    rounds ~ O(log n)."""
    nodes, inv = np.unique(np.concatenate([a, b]), return_inverse=True)
    ia, ib = inv[: len(a)], inv[len(a):]
    lab = np.arange(len(nodes), dtype=np.int64)
    rounds = 0
    while True:
        rounds += 1
        # the fixpoint check must span the WHOLE round: an edge processed
        # before a later in-round lowering can be left label-inconsistent
        # yet jump-stable, so comparing against a mid-round snapshot
        # would stop early
        start = lab.copy()
        m = np.minimum(lab[ia], lab[ib])
        np.minimum.at(lab, ia, m)
        np.minimum.at(lab, ib, m)
        lab = lab[lab]                       # pointer jump
        if np.array_equal(lab, start):
            break
    LAST_INFO.update({"rounds": rounds, "converged": True})
    sizes = np.bincount(lab, minlength=len(nodes))
    return pd.DataFrame({"doc_id": nodes,
                         "cluster_id": nodes[lab],
                         "cluster_size": sizes[lab].astype(np.int64)})


def _both_directions(batch: pa.Table) -> pa.Table:
    a = batch["doc_a"].cast(pa.int64()).combine_chunks()
    b = batch["doc_b"].cast(pa.int64()).combine_chunks()
    return pa.table({"src": pa.concat_arrays([a, b]),
                     "dst": pa.concat_arrays([b, a])})


def _endpoints(batch: pa.Table) -> pa.Table:
    a = batch["doc_a"].cast(pa.int64()).combine_chunks()
    b = batch["doc_b"].cast(pa.int64()).combine_chunks()
    n = pa.concat_arrays([a, b])
    return pa.table({"node": n, "label": n})


#: exposed after every closure: rounds used + whether the propagation
#: converged (the "no silent caps" surface for the MAX_ROUNDS bound).
LAST_INFO: dict = {}


def _distributed_components(edges: rd.Dataset, n_edges: int,
                            max_rounds: int) -> rd.Dataset:
    # partitions scale with the both-directions edge volume (fewer
    # shuffle actors for tiny edge sets); empty partitions are safe — only
    # an empty left DATASET breaks Ray's join, and n_edges > 0 here
    num_partitions = widths.join_partitions(2 * n_edges, 256)
    eboth = edges.map_batches(_both_directions,
                              batch_format="pyarrow").materialize()
    labels = _min_label_reduce(
        edges.map_batches(_endpoints, batch_format="pyarrow")) \
        .materialize()
    prev_sum = labels.sum("label")
    converged, rounds = False, 0
    for rounds in range(1, max_rounds + 1):
        prop = eboth.join(labels, "inner", num_partitions,
                          on=("src",), right_on=("node",)) \
            .map_batches(
                lambda t: pa.table({"node": t["dst"].cast(pa.int64()),
                                    "label": t["label"].cast(pa.int64())}),
                batch_format="pyarrow")
        new = _min_label_reduce(labels.union(prop)).materialize()
        new_sum = new.sum("label")
        labels = new
        if new_sum == prev_sum:
            converged = True
            break
        prev_sum = new_sum
    LAST_INFO.update({"rounds": rounds, "converged": converged})
    if not converged:
        # no silent caps: a truncated closure splits true components
        import logging
        logging.getLogger(__name__).warning(
            "connected_components did NOT converge in %d rounds — labels "
            "are an over-segmentation; raise MAX_ROUNDS (or switch to "
            "large-star/small-star for log-bounded rounds)", max_rounds)
    return labels


_CLUSTER_SCHEMA = pa.schema([("doc_id", pa.int64()),
                             ("cluster_id", pa.int64()),
                             ("cluster_size", pa.int64())])


# as_dataset: False in ann.dedup_cosine_clusters, True in geocluster DBSCAN
def cluster_labels(edges: rd.Dataset, *, as_dataset: bool = False):
    """Edges ``(doc_a, doc_b)`` -> ``(doc_id, cluster_id, cluster_size)``
    sorted by ``doc_id`` (as pandas), where ``cluster_id`` is the
    component's minimum doc_id.  Hybrid local/distributed closure (module
    docstring); a test that patches ``SMALL_EDGES`` to 0 forces the
    distributed path.

    ``as_dataset=True`` returns an (unsorted) Ray Dataset instead —
    downstream consumers (``dedup_apply``'s anti-join) keep the labels
    distributed; above the threshold they never visit the driver."""
    empty = pd.DataFrame({"doc_id": pd.Series(dtype=np.int64),
                          "cluster_id": pd.Series(dtype=np.int64),
                          "cluster_size": pd.Series(dtype=np.int64)})
    edges = edges.materialize()
    n_edges = edges.count()
    if n_edges == 0:
        return rd.from_arrow(_CLUSTER_SCHEMA.empty_table()) \
            if as_dataset else empty
    if n_edges <= SMALL_EDGES:
        df = edges.to_pandas()
        out = _local_components(
            df["doc_a"].to_numpy(np.int64),
            df["doc_b"].to_numpy(np.int64)) \
            .sort_values("doc_id").reset_index(drop=True)
        return rd.from_pandas(out) if as_dataset else out
    labels = _distributed_components(edges, n_edges, MAX_ROUNDS)

    # per-cluster size: bucket the (node, label) rows by label hash — every
    # row of a label lands in one bucket, so the in-bucket count is final
    # and joins its rows right there.  No hash join keyed on the clusters:
    # with fewer distinct clusters than join partitions, a partition gets
    # only zero-column empty blocks, which acero rejects.
    def label_bucketize(b: pa.Table) -> pa.Table:
        lab = b["label"].to_numpy(zero_copy_only=False)
        return pa.table({"doc_id": b["node"].cast(pa.int64()),
                         "cluster_id": b["label"].cast(pa.int64()),
                         "_sb": pa.array(widths.bucket_of(lab))})

    def with_size(g: pd.DataFrame) -> pa.Table:
        size = g.groupby("cluster_id", sort=False)["doc_id"].transform("size")
        return pa.table({
            "doc_id": pa.array(g["doc_id"].to_numpy(np.int64)),
            "cluster_id": pa.array(g["cluster_id"].to_numpy(np.int64)),
            "cluster_size": pa.array(size.to_numpy(np.int64))},
            schema=_CLUSTER_SCHEMA)

    out = labels.map_batches(label_bucketize, batch_format="pyarrow") \
        .groupby("_sb").map_groups(with_size, batch_format="pandas")
    if as_dataset:
        return out
    df = out.to_pandas()
    return df.sort_values("doc_id").reset_index(drop=True)


# ---------------------------------------------------------------------------
# PageRank over an edge Dataset (fixed-iteration power method)
# ---------------------------------------------------------------------------

PR_DAMPING = 0.85
PR_ITERS = 10


def _pr_local(src: np.ndarray, dst: np.ndarray, damping: float,
              iters: int) -> pd.DataFrame:
    """Vectorized power iteration on compacted node indices."""
    nodes, inv = np.unique(np.concatenate([src, dst]), return_inverse=True)
    si, di = inv[: len(src)], inv[len(src):]
    n = len(nodes)
    outdeg = np.bincount(si, minlength=n).astype(np.float64)
    r = np.full(n, 1.0 / n)
    base = (1.0 - damping) / n
    for _ in range(iters):
        contrib = damping * r[si] / outdeg[si]
        acc = np.zeros(n)
        np.add.at(acc, di, contrib)
        r = base + acc
    return pd.DataFrame({"node": nodes, "pagerank": r})


def _sum_reduce(ds: rd.Dataset) -> rd.Dataset:
    """groupby(node).sum(val) via bounded node-hash buckets."""
    def bucketize(b: pa.Table) -> pa.Table:
        n = b["node"].to_numpy(zero_copy_only=False)
        return pa.table({"node": b["node"].cast(pa.int64()),
                         "val": b["val"].cast(pa.float64()),
                         "_mb": pa.array(widths.bucket_of(n))})

    def combine(g: pd.DataFrame) -> pa.Table:
        d = g.groupby("node", sort=False)["val"].sum().reset_index()
        return pa.table({"node": pa.array(d["node"].to_numpy(np.int64)),
                         "val": pa.array(d["val"].to_numpy(np.float64))})

    return ds.map_batches(bucketize, batch_format="pyarrow") \
        .groupby("_mb").map_groups(combine, batch_format="pandas")


def _pr_distributed(edges: rd.Dataset, n_edges: int, damping: float,
                    iters: int) -> rd.Dataset:
    # not widths.join_partitions: float rank sums depend on partitioning
    num_partitions = max(1, min(4, (n_edges // 256) + 1))

    # out-degree per source via a bounded bucket count
    def src_rows(b: pa.Table) -> pa.Table:
        return pa.table({"node": b["src"].cast(pa.int64()),
                         "val": pa.array(np.ones(b.num_rows))})

    deg = _sum_reduce(edges.map_batches(src_rows, batch_format="pyarrow")) \
        .map_batches(lambda b: pa.table(
            {"dnode": b["node"], "outdeg": b["val"]}),
            batch_format="pyarrow")
    ed = edges.join(deg, "inner", num_partitions,
                    on=("src",), right_on=("dnode",)).materialize()

    # node universe = distinct endpoints (min-label reduce on identity
    # labels is a distinct)
    def endpoints(b: pa.Table) -> pa.Table:
        n = pa.concat_arrays([b["src"].cast(pa.int64()).combine_chunks(),
                              b["dst"].cast(pa.int64()).combine_chunks()])
        return pa.table({"node": n, "label": n})

    nodes = _min_label_reduce(
        edges.map_batches(endpoints, batch_format="pyarrow")) \
        .map_batches(lambda b: pa.table({"node": b["node"]}),
                     batch_format="pyarrow").materialize()
    n_nodes = nodes.count()
    init = 1.0 / n_nodes
    base = (1.0 - damping) / n_nodes
    ranks = nodes.map_batches(
        lambda b: pa.table({"node": b["node"],
                            "val": pa.array(np.full(b.num_rows, init))}),
        batch_format="pyarrow").materialize()
    baseline = nodes.map_batches(
        lambda b: pa.table({"node": b["node"],
                            "val": pa.array(np.full(b.num_rows, base))}),
        batch_format="pyarrow").materialize()
    for _ in range(iters):
        prop = ed.join(ranks, "inner", num_partitions,
                       on=("src",), right_on=("node",)) \
            .map_batches(
                lambda t: pa.table({
                    "node": t["dst"].cast(pa.int64()),
                    "val": pa.array(
                        damping
                        * t["val"].to_numpy(zero_copy_only=False)
                        / t["outdeg"].to_numpy(zero_copy_only=False))}),
                batch_format="pyarrow")
        ranks = _sum_reduce(prop.union(baseline)).materialize()
    return ranks.map_batches(
        lambda b: pa.table({"node": b["node"],
                            "pagerank": b["val"].cast(pa.float64())}),
        batch_format="pyarrow")


def pagerank(edges: rd.Dataset) -> pd.DataFrame:
    """Fixed-``PR_ITERS`` PageRank (Page et al., 1999 power method) over a
    ``(src, dst)`` edge Dataset: ``r'(v) = (1-d)/N + d * sum r(u)/out(u)``
    over in-edges, d = PR_DAMPING.  A FIXED iteration count makes the
    operator a pure deterministic function of the edge set —
    SQL-expressible as a materialized CTE chain, the ``geo_clusters``
    closure pattern — rather than a tolerance-terminated fixpoint.
    Dangling mass is dropped, not redistributed (the k-NN graphs this
    serves have out-degree k everywhere).

    Hybrid shape, same thresholds as ``cluster_labels``: a bounded edge
    set runs one vectorized numpy power loop on the driver; above
    ``SMALL_EDGES`` every iteration is one hash join (edges x ranks
    on src — 24-byte rows) plus one bounded bucket-sum, edges re-joined
    from their materialized blocks.  Per-node in-sums are float, so the
    two paths (and the SQL oracle) agree to reduction order — compare
    after 6-dp rounding."""
    damping, iters = PR_DAMPING, PR_ITERS
    edges = edges.materialize()
    n_edges = edges.count()
    if n_edges == 0:
        return pd.DataFrame({"node": pd.Series(dtype=np.int64),
                             "pagerank": pd.Series(dtype=np.float64)})
    if n_edges <= SMALL_EDGES:
        df = edges.to_pandas()
        return _pr_local(df["src"].to_numpy(np.int64),
                         df["dst"].to_numpy(np.int64), damping, iters) \
            .sort_values("node").reset_index(drop=True)
    ranks = _pr_distributed(edges, n_edges, damping, iters)
    return ranks.to_pandas().sort_values("node").reset_index(drop=True)
