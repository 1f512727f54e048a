# -*- coding: utf-8 -*-
"""Driver-facing query registry: Ray pipelines + matching DuckDB oracle SQL.

Each entry is one pipeline/operator from SURVEY.md §2 (plus the engine's
scale extensions).  The callable takes ``sf_dir`` (the driver's testdata
directory, e.g. ``/root/testdata/sf0.01``); lint queries run over the
deterministic synthetic span-document tables generated (and cached) for the
matching scale token, training-data queries run directly over the driver's
``documents`` / ``embeddings`` / ``events`` parquet tables.

Column names are identical between the Ray result and the oracle SQL by
construction (the driver hash-compares value sets after sorting columns by
name).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray.data as rd
from ray.data.aggregate import Sum

from . import dupnames, geostats, oracle_sql, pipeline, synth

CELL_RES = pipeline.CELL_RES
KNN_RADIUS_KM = dupnames.DEFAULT_RADIUS_KM


def _synth(sf_dir: str) -> str:
    """Deterministic synthetic lint tables for this scale (cached)."""
    return synth.generate(sf_dir)


# ---------------------------------------------------------------------------
# lint family (synthetic Serbia-extent span docs)
# ---------------------------------------------------------------------------

def lint_flags(sf_dir: str) -> rd.Dataset:
    return pipeline.flags_dataset(_synth(sf_dir))


_TILE_FLAGS_SCHEMA = pa.schema([
    ("tile_name", pa.string()), ("check_name", pa.string()),
    ("n_results", pa.int64()), ("n_errors", pa.int64()),
    ("n_fixable", pa.int64())])


def lint_flags_by_tile(sf_dir: str) -> pd.DataFrame:
    """Lint results rolled up per (okrug tile, check) — the A+B
    composition: the flagship validate-and-flag chain with the PIP tile
    assignment carried through.  NO join stage: flag rows merge back to
    their own batch's pip-assigned source rows on (doc_id, seq) INSIDE
    the kernel (the assignment and the flags come from the same block),
    then per-batch partials reduce through one bounded
    (tile, check) groupby — the corpus stream never shuffles."""
    d = _synth(sf_dir)
    refs = pipeline.broadcast_refs(d)
    ds = pipeline.decoded(d, dedup=True, pip=True)
    wref, wdref = refs["wiki_ref"], refs["wikidata_ref"]

    def partial(batch: pa.Table) -> pa.Table:
        flags = pipeline.flag_batch(batch, wref, wdref).to_pandas()
        if flags.empty:
            return _TILE_FLAGS_SCHEMA.empty_table()
        src = batch.select(["doc_id", "seq", "tile_name"]).to_pandas()
        m = flags.merge(src, on=["doc_id", "seq"], how="left")
        err = (m["result"] == "CHECKED_ERROR")
        g = pd.DataFrame({
            "tile_name": m["tile_name"].fillna("(none)").astype(str),
            "check_name": m["check_name"].astype(str),
            "e": err.to_numpy(np.int64),
            "fx": (err & m["fixable"]).to_numpy(np.int64)}) \
            .groupby(["tile_name", "check_name"], sort=False) \
            .agg(n_results=("e", "size"), n_errors=("e", "sum"),
                 n_fixable=("fx", "sum")).reset_index()
        return pipeline.to_arrow(g, _TILE_FLAGS_SCHEMA)

    agg = (ds.map_batches(partial, batch_format="pyarrow")
           .groupby(["tile_name", "check_name"])
           .aggregate(Sum("n_results", alias_name="n_results"),
                      Sum("n_errors", alias_name="n_errors"),
                      Sum("n_fixable", alias_name="n_fixable"))
           .to_pandas())
    for c in ("n_results", "n_errors", "n_fixable"):
        agg[c] = agg[c].astype(np.int64)
    return agg.sort_values(["tile_name", "check_name"]) \
        .reset_index(drop=True)


def lint_summary_per_map(sf_dir: str) -> pd.DataFrame:
    return pipeline.summary_per_map(pipeline.flags_dataset(_synth(sf_dir)))


def lint_per_check_type(sf_dir: str) -> pd.DataFrame:
    return pipeline.per_check_type(pipeline.flags_dataset(_synth(sf_dir)))


def lint_merge_overall(sf_dir: str) -> rd.Dataset:
    return pipeline.merge_overall(pipeline.flags_dataset(_synth(sf_dir)))


def pip_tile_join(sf_dir: str) -> pd.DataFrame:
    """Docs per (country, okrug tile): STRtree PIP assignment + pre-aggregated
    count (combine inside map_batches, tiny global groupby)."""
    ds = pipeline.decoded(_synth(sf_dir), pip=True)

    def partial(batch: pa.Table) -> pa.Table:
        df = batch.select(["country", "tile_name"]).to_pandas()
        df = df.fillna("(none)")
        out = df.groupby(["country", "tile_name"], sort=False).size()
        return pipeline.to_arrow(out.reset_index(name="n"))

    agg = (ds.map_batches(partial, batch_format="pyarrow")
           .groupby(["country", "tile_name"])
           .aggregate(Sum("n", alias_name="n_docs")))
    df = agg.to_pandas()
    df["n_docs"] = df["n_docs"].astype(np.int64)
    return df.sort_values(["country", "tile_name"]).reset_index(drop=True)


def geo_pip_gaps(sf_dir: str) -> pd.DataFrame:
    """Tiling coverage gaps localized on the grid: per quad-cell count
    of docs that fall inside NO okrug tile (the PIP anti-join) — where
    ``pip_tile_join`` reports '(none)' in aggregate, this says WHERE.
    Same one-pass shape as ``cell_index``: the PIP stage flags rows
    in-batch, the anti side pre-aggregates per cell, one grid-bounded
    groupby."""
    ds = pipeline.decoded(_synth(sf_dir), pip=True)

    def partial(batch: pa.Table) -> pa.Table:
        t = batch.filter(pc.is_null(batch["tile_name"]))
        cells = t["cell_id"].to_numpy(zero_copy_only=False)
        uniq, counts = np.unique(cells, return_counts=True)
        return pa.table({"cell_id": pa.array(uniq, type=pa.int64()),
                         "n": pa.array(counts, type=pa.int64())})

    agg = (ds.map_batches(partial, batch_format="pyarrow")
           .groupby("cell_id").aggregate(Sum("n", alias_name="n_gap")))
    df = agg.to_pandas()
    df["cell_id"] = df["cell_id"].astype(np.int64)
    df["n_gap"] = df["n_gap"].astype(np.int64)
    return df.sort_values("cell_id").reset_index(drop=True)


def cell_index(sf_dir: str) -> pd.DataFrame:
    """Docs per quad-cell at res 8 (the locality/shuffle key)."""
    ds = pipeline.decoded(_synth(sf_dir))

    def partial(batch: pa.Table) -> pa.Table:
        cells = batch["cell_id"].to_numpy(zero_copy_only=False)
        uniq, counts = np.unique(cells, return_counts=True)
        return pa.table({"cell_id": pa.array(uniq, type=pa.int64()),
                         "n": pa.array(counts, type=pa.int64())})

    agg = (ds.map_batches(partial, batch_format="pyarrow")
           .groupby("cell_id").aggregate(Sum("n", alias_name="n_docs")))
    df = agg.to_pandas()
    df["cell_id"] = df["cell_id"].astype(np.int64)
    df["n_docs"] = df["n_docs"].astype(np.int64)
    return df.sort_values("cell_id").reset_index(drop=True)


def cell_density_smooth(sf_dir: str) -> pd.DataFrame:
    """Kernel-density-style smoothing over the res-8 quad-cell grid:
    each occupied cell's 3x3-neighborhood doc count (grid-edge cells
    just see fewer neighbors).  Shape: the bounded per-cell count
    aggregate (same partials as ``cell_index``) -> each count emits its
    9 neighbor contributions (constant x9 on a CELL-bounded table, not
    the corpus) -> one more bounded groupby; reported for occupied
    cells only (a semi-join back against the count table)."""
    n_side = 1 << CELL_RES
    ds = pipeline.decoded(_synth(sf_dir))

    def partial(batch: pa.Table) -> pa.Table:
        cells = batch["cell_id"].to_numpy(zero_copy_only=False)
        uniq, counts = np.unique(cells, return_counts=True)
        return pa.table({"cell_id": pa.array(uniq, type=pa.int64()),
                         "n": pa.array(counts, type=pa.int64())})

    counts = (ds.map_batches(partial, batch_format="pyarrow")
              .groupby("cell_id").aggregate(Sum("n", alias_name="n"))
              .materialize())          # bounded by the fixed grid

    def spread(batch: pa.Table) -> pa.Table:
        c = batch["cell_id"].to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        n = batch["n"].to_numpy(zero_copy_only=False).astype(np.int64)
        ix, iy = c % n_side, c // n_side
        outs = []
        for dy in (-1, 0, 1):
            for dx in (-1, 0, 1):
                jx, jy = ix + dx, iy + dy
                ok = (jx >= 0) & (jx < n_side) & (jy >= 0) & (jy < n_side)
                outs.append(pa.table({
                    "cell_id": pa.array(jy[ok] * n_side + jx[ok]),
                    "n": pa.array(n[ok])}))
        return pa.concat_tables(outs)

    smooth = (counts.map_batches(spread, batch_format="pyarrow")
              .groupby("cell_id")
              .aggregate(Sum("n", alias_name="n_smooth")).to_pandas())
    occ = counts.to_pandas()
    df = occ.merge(smooth, on="cell_id")
    df["cell_id"] = df["cell_id"].astype(np.int64)
    df["n_docs"] = df["n"].astype(np.int64)
    df["n_smooth"] = df["n_smooth"].astype(np.int64)
    return df[["cell_id", "n_docs", "n_smooth"]] \
        .sort_values("cell_id").reset_index(drop=True)


def cell_pyramid(sf_dir: str) -> pd.DataFrame:
    """H3-style multi-resolution tile pyramid (the north rule's
    "res 7-9" hierarchy on the quad-cell stand-in): doc counts per cell
    at CELL_RES, CELL_RES-1 and CELL_RES-2, the coarser levels derived
    by parent rollup (``geo.cell_parent`` halves (ix, iy) — exactly the
    direct cell formula at the coarser res, since
    floor(floor(2y)/2) == floor(y) and the edge clips commute).

    Shape: the bounded per-cell count aggregate (same partials as
    ``cell_index``) → each res-8 count emits its 3 (res, ancestor)
    rows (constant ×3 on the GRID-bounded table, not the corpus) →
    one more bounded groupby.  At 100 TB only the first pass sees the
    corpus, and its output is capped by the fixed grid."""
    from . import geo
    res0 = CELL_RES
    ds = pipeline.decoded(_synth(sf_dir))

    def partial(batch: pa.Table) -> pa.Table:
        cells = batch["cell_id"].to_numpy(zero_copy_only=False)
        uniq, counts = np.unique(cells, return_counts=True)
        return pa.table({"cell_id": pa.array(uniq, type=pa.int64()),
                         "n": pa.array(counts, type=pa.int64())})

    counts = (ds.map_batches(partial, batch_format="pyarrow")
              .groupby("cell_id").aggregate(Sum("n", alias_name="n")))

    def spread(batch: pa.Table) -> pa.Table:
        c = batch["cell_id"].to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        n = batch["n"].to_numpy(zero_copy_only=False).astype(np.int64)
        outs, cur = [], c
        for r in range(res0, res0 - 3, -1):
            outs.append(pa.table({
                "res": pa.array(np.full(len(cur), r, dtype=np.int64)),
                "cell_id": pa.array(cur), "n": pa.array(n)}))
            cur = geo.cell_parent(cur, r)
        return pa.concat_tables(outs)

    pyr = (counts.map_batches(spread, batch_format="pyarrow")
           .groupby(["res", "cell_id"])
           .aggregate(Sum("n", alias_name="n_docs")).to_pandas())
    for c in ("res", "cell_id", "n_docs"):
        pyr[c] = pyr[c].astype(np.int64)
    return pyr[["res", "cell_id", "n_docs"]] \
        .sort_values(["res", "cell_id"]).reset_index(drop=True)


def geo_moran_i(sf_dir: str) -> pd.DataFrame:
    """Global Moran's I of per-cell doc counts (queen weights)."""
    return geostats.moran_i(_synth(sf_dir))


def geo_gi_star(sf_dir: str) -> pd.DataFrame:
    """Getis-Ord Gi* hotspot z-score per occupied quad-cell."""
    return geostats.gi_star(_synth(sf_dir))


def geo_kde_heatmap(sf_dir: str) -> pd.DataFrame:
    """Quartic-kernel density at quad-cell centers (60 km cutoff)."""
    return geostats.kde_heatmap(_synth(sf_dir))


def geo_ripley_k(sf_dir: str) -> pd.DataFrame:
    """Ripley's K clustering curve over the named-CTV points."""
    return _geocluster().ripley_k(_synth(sf_dir))


def geo_kernel_surface(sf_dir: str) -> pd.DataFrame:
    """Nadaraya-Watson quartic-kernel regression of name length at
    quad-cell centers (attribute interpolation surface)."""
    return geostats.kernel_surface(_synth(sf_dir))


def geo_bearing_rose(sf_dir: str) -> pd.DataFrame:
    """Eight-sector wind-rose of doc->nearest-tile-center bearings
    (per-tile orientation histogram)."""
    return geostats.bearing_rose(_synth(sf_dir))


def geo_hilbert_index(sf_dir: str) -> pd.DataFrame:
    """Hilbert space-filling-curve index of the occupied quad-cells
    (the locality-preserving range-partition key)."""
    return geostats.hilbert_index(_synth(sf_dir))


def geo_semivariogram(sf_dir: str) -> pd.DataFrame:
    """Matheron semivariogram of name length over the named-CTV
    points (attribute-valued spatial-dependence companion to K)."""
    return _geocluster().semivariogram(_synth(sf_dir))


def geo_nn_stats(sf_dir: str) -> pd.DataFrame:
    """Nearest-neighbor distance stats within the eps band (Clark-Evans
    style aggregate, isolated points counted not hidden)."""
    return _geocluster().nn_stats(_synth(sf_dir))


def geo_cluster_diameter(sf_dir: str) -> pd.DataFrame:
    """Exact great-circle diameter + contributing pair per DBSCAN
    cluster (rides the cached member table)."""
    return _geocluster().geo_cluster_diameter(_synth(sf_dir))


def knn_dup_names(sf_dir: str) -> rd.Dataset:
    return dupnames.dup_name_pairs(_synth(sf_dir))


def nearest_tile(sf_dir: str) -> rd.Dataset:
    """Nearest-neighbor spatial join: every doc to its closest okrug
    tile CENTER (haversine argmin over the ~30-row broadcast tile
    table; 6-dp rounding before the argmin, ties to the lowest
    tile_id)."""
    import os

    import pyarrow.parquet as pq

    from . import geo
    d = _synth(sf_dir)
    tiles = pq.read_table(os.path.join(d, "tiles.parquet")).to_pandas() \
        .sort_values("tile_id")
    clat = ((tiles["minlat"] + tiles["maxlat"]) / 2.0) \
        .to_numpy(np.float64)
    clon = ((tiles["minlon"] + tiles["maxlon"]) / 2.0) \
        .to_numpy(np.float64)
    names = tiles["tile_name"].astype(str).tolist()
    ds = pipeline.decoded(d)
    return ds.map_batches(
        geo.nearest_tile_batch, batch_format="pyarrow",
        fn_kwargs={"centers_lat": clat, "centers_lon": clon,
                   "tile_names": names})


# ---------------------------------------------------------------------------
# training-data extensions (driver documents / embeddings / events tables)
# ---------------------------------------------------------------------------

ANN_K = 5
ANN_NQ = 4
COS_TAU = 0.5    # max pairwise cosine in the synthetic embeddings is ~0.51
                 # — 0.5 yields a small non-trivial matched set at sf0.01


def text_stats(sf_dir: str):
    from . import textops
    return textops.text_stats(sf_dir)


def lang_id(sf_dir: str):
    from . import textops
    return textops.lang_id(sf_dir)


def unigram_logprob(sf_dir: str):
    from . import textops
    return textops.unigram_logprob(sf_dir)


def bigram_logprob(sf_dir: str):
    from . import textops
    return textops.bigram_logprob(sf_dir)


def winnow_fingerprints(sf_dir: str):
    from . import textops
    return textops.winnow_fingerprints(sf_dir)


def winnow_dup_pairs(sf_dir: str):
    from . import textops
    return textops.winnow_dup_pairs(sf_dir)


def dedup_exact(sf_dir: str):
    from . import textops
    return textops.dedup_exact(sf_dir)


def dup_spans(sf_dir: str):
    from . import textops
    return textops.dup_spans(sf_dir)


def pmi_bigrams(sf_dir: str):
    from . import textops
    return textops.pmi_bigrams(sf_dir)


def dup_span_stats(sf_dir: str):
    from . import textops
    return textops.dup_span_stats(sf_dir)


def token_entropy(sf_dir: str):
    from . import textops
    return textops.token_entropy(sf_dir)


def quality_percentile_filter(sf_dir: str):
    from . import textops
    return textops.quality_percentile_filter(sf_dir)


def quality_quantiles_sketch(sf_dir: str):
    """Per-lang quality quantiles via the deterministic mergeable rank
    sketch (certificate-exact when nothing compacts).  The driver path
    enables the exact fallback so the registered exact-quantile oracle
    holds even if a block ever exceeds the sketch cap."""
    from . import textops
    return textops.quality_quantiles_sketch(sf_dir, exact_fallback=True)


def distinct_token_counts(sf_dir: str):
    from . import textops
    return textops.distinct_token_counts(sf_dir)


def simhash_docs(sf_dir: str):
    from . import textops
    return textops.simhash_docs(sf_dir)


def dedup_minhash(sf_dir: str):
    from . import textops
    return textops.minhash_dup_pairs(sf_dir)


def dedup_simhash(sf_dir: str):
    from . import textops
    return textops.simhash_dup_pairs(sf_dir)


def dedup_ngram_jaccard(sf_dir: str):
    from . import textops
    return textops.ngram_jaccard_pairs(sf_dir)


def dedup_clusters(sf_dir: str):
    from . import textops
    return textops.dedup_clusters(sf_dir)


def vocab_topk(sf_dir: str):
    from . import textops
    return textops.vocab_topk(sf_dir)


def corpus_split(sf_dir: str):
    from . import textops
    return textops.corpus_split(sf_dir)


def corpus_split_leakfree(sf_dir: str):
    from . import textops
    return textops.corpus_split_leakfree(sf_dir)


def events_props_extract(sf_dir: str):
    from . import eventops
    return eventops.props_extract(sf_dir)


def events_heavy_users(sf_dir: str):
    """Exact top-k users by event count per type (ties to lowest id)."""
    from . import eventops
    return eventops.heavy_users(sf_dir)


def decontaminate(sf_dir: str):
    from . import textops
    return textops.decontaminate(sf_dir)


def decontaminate_bloom(sf_dir: str):
    """Bloom-prefilter scale path; exact-verify join makes the result
    IDENTICAL to ``decontaminate`` (same hard oracle)."""
    from . import textops
    return textops.decontaminate(sf_dir, bloom_prefilter=True)


def distinct_token_counts_hll(sf_dir: str):
    """HyperLogLog sketch path beside the exact distinct counts —
    rows-only by design (approximate estimator); pytest pins <3%
    relative error vs the exact operator."""
    from . import textops
    return textops.distinct_token_counts_hll(sf_dir)


def vocab_topk_mg(sf_dir: str):
    """Misra-Gries heavy-hitter top-k with an exactness certificate
    (kth recounted count > tracked offset D) and a counted exact
    fallback — equals the exact top-k whenever it answers, so it
    carries the same hard oracle as ``vocab_topk``."""
    from . import textops
    return textops.vocab_topk_mg(sf_dir)


def dedup_cosine_clusters(sf_dir: str):
    """Embedding near-dup clusters (LSH pair miner -> closure); oracle
    is a recursive CTE over the exact cosine pair SQL (seed-pinned pair
    equality, same caveat as embedding_cosine_pairs_lsh)."""
    from . import ann
    return ann.dedup_cosine_clusters(sf_dir, tau=COS_TAU)


def embedding_project(sf_dir: str):
    """Johnson-Lindenstrauss Rademacher projection to 16 dims (one
    broadcast matrix, per-batch matmul, streaming — no shuffle)."""
    from . import ann
    return ann.embedding_project(sf_dir)


def pq_encode(sf_dir: str):
    from . import ann
    return ann.pq_encode(sf_dir)


def pq_topk_adc(sf_dir: str):
    from . import ann
    return ann.pq_topk_adc(sf_dir)


def knn_pagerank(sf_dir: str):
    from . import ann
    return ann.knn_pagerank(sf_dir)


def source_embedding_norms(sf_dir: str):
    """Cross-table rollup: distributed embeddings x documents hash join
    (no broadcast) -> per-source norm moments."""
    from . import ann
    return ann.source_embedding_norms(sf_dir)


def repetition_stats(sf_dir: str):
    from . import textops
    return textops.repetition_stats(sf_dir)


def token_quantiles(sf_dir: str):
    from . import textops
    return textops.token_quantiles(sf_dir)


def corpus_redact(sf_dir: str):
    from . import textops
    return textops.corpus_redact(sf_dir)


def corpus_sample(sf_dir: str):
    from . import textops
    return textops.corpus_sample(sf_dir)


def corpus_mix(sf_dir: str):
    from . import textops
    return textops.corpus_mix(sf_dir)


def doc_chunks(sf_dir: str):
    from . import textops
    return textops.doc_chunks(sf_dir)


def pack_sequences(sf_dir: str):
    from . import textops
    return textops.pack_sequences(sf_dir)


def dedup_apply(sf_dir: str):
    from . import textops
    return textops.dedup_apply(sf_dir)


def dedup_apply_quality(sf_dir: str):
    """Quality-aware dedup apply: each near-dup cluster keeps its
    highest-quality member (ties to the lowest doc_id)."""
    from . import textops
    return textops.dedup_apply_quality(sf_dir)


def top_quality_docs(sf_dir: str):
    from . import textops
    return textops.top_quality_docs(sf_dir)


def tfidf_keywords(sf_dir: str):
    from . import textops
    return textops.tfidf_keywords(sf_dir)


def bm25_topk(sf_dir: str):
    from . import textops
    return textops.bm25_topk(sf_dir)


def corpus_weighted_sample(sf_dir: str):
    from . import textops
    return textops.corpus_weighted_sample(sf_dir)


def corpus_filter(sf_dir: str):
    from . import textops
    return textops.corpus_filter(sf_dir)


def corpus_stats(sf_dir: str):
    from . import textops
    return textops.corpus_stats(sf_dir)


def embedding_quantize(sf_dir: str):
    from . import ann
    return ann.quantize_embeddings(sf_dir)


def ann_topk(sf_dir: str):
    from . import ann
    return ann.topk_neighbors(sf_dir, k=ANN_K, n_queries=ANN_NQ)


def diversity_sample(sf_dir: str):
    """Gonzalez k-center greedy diversity sample (farthest-point
    coreset selection) over the embeddings table."""
    from . import ann
    return ann.diversity_sample(sf_dir)


def embedding_cosine_pairs(sf_dir: str):
    from . import ann
    return ann.cosine_pairs(sf_dir, tau=COS_TAU)


def embedding_centroids(sf_dir: str):
    from . import ann
    return ann.embedding_centroids(sf_dir)


def knn_graph(sf_dir: str):
    from . import ann
    return ann.knn_graph(sf_dir, k=ANN_K)


def knn_graph_ivf(sf_dir: str):
    """Approximate k-NN graph through the IVF index — the scale path the
    O(N^2)-guarded exact ``knn_graph`` refuses to be.  Rows-only check
    (nprobe truncation is genuinely approximate); the recall gate is
    pytest-asserted and ``knn_graph_ivf_fullprobe`` is its hard oracle."""
    from . import ann
    return ann.knn_graph_ivf(sf_dir, k=ANN_K)


def knn_graph_ivf_fullprobe(sf_dir: str):
    """nprobe == n_lists: every candidate scored exactly once, equals the
    exact graph BY CONSTRUCTION — hard ``knn_graph`` SQL oracle for the
    full IVF routing/replication/per-list/meta-bucket-reduce machinery."""
    from . import ann
    return ann.knn_graph_ivf_fullprobe(sf_dir, k=ANN_K)


def embedding_kmeans_1iter(sf_dir: str):
    """One Lloyd step from the fixed seeds — SQL-expressible (argmin join
    + AVG groupby), giving the k-means assign/reduce machinery a hard
    oracle while the iterative ``embedding_kmeans`` stays rows-only."""
    from . import ann
    return ann.embedding_kmeans_1iter(sf_dir)


def embedding_kmeans(sf_dir: str):
    from . import ann
    return ann.embedding_kmeans(sf_dir)


def geo_clusters(sf_dir: str) -> rd.Dataset:
    """DBSCAN settlement agglomerations over the deduped named-CTV
    points (eps-pair mining via 9-cell replication, bucketed degree,
    distributed closure; osmlint.geocluster module docstring)."""
    from . import geocluster
    return geocluster.geo_clusters(_synth(sf_dir))


def geo_cluster_stats(sf_dir: str):
    """Per-cluster digest of the DBSCAN agglomerations: counts, centroid
    and exact bbox via one cluster-bucketed moment reduce."""
    from . import geocluster
    return geocluster.geo_cluster_stats(_synth(sf_dir))


def ann_topk_ivf(sf_dir: str):
    from . import ann
    return ann.topk_neighbors_ivf(sf_dir, k=ANN_K, n_queries=ANN_NQ)


def ann_topk_ivf_fullprobe(sf_dir: str):
    """Machinery-parity configuration of the IVF index: probing ALL
    lists must reproduce the exact top-k bit-for-bit, so the routing,
    per-list matmul and distributed rank reduction get a hard oracle —
    while ``ann_topk_ivf`` keeps its honest approximate (rows-only)
    setting with the pytest recall gate."""
    from . import ann
    return ann.topk_neighbors_ivf(sf_dir, k=ANN_K, n_queries=ANN_NQ,
                                  nprobe=ann.IVF_K)


def embedding_cosine_pairs_lsh(sf_dir: str):
    from . import ann
    return ann.cosine_pairs_lsh(sf_dir, tau=COS_TAU)


def events_window(sf_dir: str):
    from . import eventops
    return eventops.window_agg(sf_dir)


def events_asof_attribution(sf_dir: str):
    from . import eventops
    return eventops.asof_attribution(sf_dir)


def events_sessionize(sf_dir: str):
    from . import eventops
    return eventops.sessionize(sf_dir)


def events_funnel(sf_dir: str):
    from . import eventops
    return eventops.funnel(sf_dir)


def events_range_join(sf_dir: str):
    from . import eventops
    return eventops.range_join(sf_dir)


def events_retention(sf_dir: str):
    from . import eventops
    return eventops.retention(sf_dir)


def events_anomalies(sf_dir: str):
    from . import eventops
    return eventops.anomalies(sf_dir)


def events_daily_trend(sf_dir: str):
    from . import eventops
    return eventops.daily_trend(sf_dir)


def media_features(sf_dir: str):
    from . import media
    return media.media_features(_synth(sf_dir))


def media_resize(sf_dir: str):
    from . import media
    return media.media_resize(_synth(sf_dir))


def media_frame_sample(sf_dir: str):
    from . import media
    return media.media_frame_sample(_synth(sf_dir))


def media_dedup(sf_dir: str):
    from . import media
    return media.media_dedup(_synth(sf_dir))


def raster_sample(sf_dir: str):
    from . import raster
    return raster.sample(_synth(sf_dir))


def raster_zonal_stats(sf_dir: str):
    from . import raster
    return raster.zonal_stats(_synth(sf_dir))


def raster_polygonize(sf_dir: str):
    from . import raster
    return raster.polygonize(_synth(sf_dir))


def geo_range_join(sf_dir: str):
    from . import geocluster
    return geocluster.geo_range_join(_synth(sf_dir))


def fix_plan(sf_dir: str):
    from . import fixes
    return fixes.fix_plan_dataset(_synth(sf_dir))


def _rule_query(slug: str):
    """Data-driven rule (sparql re-expression) over the serbia shard:
    decode -> vectorized rule kernel (mask + transliteration projection)."""
    def run(sf_dir: str) -> rd.Dataset:
        from . import rules
        d = _synth(sf_dir)
        rule = rules.RULES_BY_SLUG[slug]
        ds = pipeline.decoded(d, partition="serbia_pbf")

        def apply(batch: pa.Table) -> pa.Table:
            out = rule.apply(batch.to_pandas())
            return pipeline.to_arrow(out, pa.schema([
                ("osm_id", pa.int64()), ("entity_type", pa.string()),
                ("lat", pa.float64()), ("lon", pa.float64()),
                ("name", pa.string()), ("tag_1", pa.string()),
                ("val_1", pa.string())]))
        return ds.map_batches(apply, batch_format="pyarrow")
    return run


RULE_QUERY_SLUGS = ("sophox_adding_name",
                    "sophox_adding_namesr_north",
                    "sophox_adding_namesr_central",
                    "sophox_adding_namesr_west",
                    "sophox_adding_namesr_east",
                    "sophox_adding_namesr_south",
                    "sophox_checking_namesr_latn_north",
                    "sophox_checking_namesr_latn_south",
                    "sophox_changing_namesr_to_cyrillic",
                    "sophox_adding_int_name")


def _SIMHASH_MAX_HAMMING() -> int:
    from .textops import SIMHASH_MAX_HAMMING
    return SIMHASH_MAX_HAMMING


def _ann():
    from . import ann
    return ann


def _textops():
    from . import textops
    return textops


def _eventops():
    from . import eventops
    return eventops


def _geocluster():
    from . import geocluster
    return geocluster


def _raster():
    from . import raster
    return raster


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

#: the driver's correctness harness verifies the FIRST ``_WINDOW`` registry
#: entries in dict order each round.
_WINDOW = 50

#: flagship north-metric pipelines that stay inside the verified window
#: every round regardless of evidence age.
_FLAGSHIP_PINS = ("lint_flags", "pip_tile_join")


def _driver_evidence() -> dict[str, int]:
    """query name -> newest round with a driver correctness row, read from
    the checked-in ``CORRECTNESS_r*.json`` evidence manifests at the repo
    root.  These files ARE the authoritative record of what the driver has
    verified — the registry orders itself from them instead of hand-laid
    tiers (VERDICT r4 #3), so the 50-entry window can never silently drop
    coverage again."""
    import glob as _glob
    import json as _json
    import os as _os
    import re as _re
    root = _os.path.dirname(_os.path.dirname(_os.path.abspath(__file__)))
    ev: dict[str, int] = {}
    for p in sorted(_glob.glob(_os.path.join(root, "CORRECTNESS_r*.json"))):
        m = _re.search(r"CORRECTNESS_r(\d+)\.json$", p)
        if not m:
            continue
        rnd = int(m.group(1))
        try:
            with open(p) as f:
                rows = _json.load(f)
        except (OSError, ValueError):
            continue
        for name in rows:
            ev[name] = max(ev.get(name, 0), rnd)
    return ev


def _order_by_staleness(base: dict) -> dict:
    """Reorder the registry by driver-evidence staleness so the first
    ``_WINDOW`` entries are always the ones that most need a fresh
    correctness row: flagship pins first (in the window every round),
    then queries with NO driver row in any round, then everything else
    oldest-evidence-first (registration order breaks ties
    deterministically)."""
    ev = _driver_evidence()
    pos = {n: i for i, n in enumerate(base)}
    pins = [n for n in _FLAGSHIP_PINS if n in base]
    never = [n for n in base if n not in ev and n not in pins]
    rest = [n for n in base if n in ev and n not in pins]
    rest.sort(key=lambda n: (ev[n], pos[n]))
    return {n: base[n] for n in pins + never + rest}


def ray_queries() -> dict:
    """The full query registry, ordered for the driver: the ``base``
    literal below is registration order (grouped by family, a stable
    tiebreak only); the returned dict is staleness-ordered by
    ``_order_by_staleness`` from the checked-in CORRECTNESS manifests."""
    base = {
        "lint_flags_by_tile": lint_flags_by_tile,
        "geo_gi_star": geo_gi_star,
        "geo_ripley_k": geo_ripley_k,
        "geo_semivariogram": geo_semivariogram,
        "geo_nn_stats": geo_nn_stats,
        "geo_cluster_diameter": geo_cluster_diameter,
        "geo_kernel_surface": geo_kernel_surface,
        "geo_bearing_rose": geo_bearing_rose,
        "geo_pip_gaps": geo_pip_gaps,
        "geo_hilbert_index": geo_hilbert_index,
        "events_props_extract": events_props_extract,
        "events_heavy_users": events_heavy_users,
        "diversity_sample": diversity_sample,
        "dedup_apply_quality": dedup_apply_quality,
        "quality_quantiles_sketch": quality_quantiles_sketch,
        "lint_flags": lint_flags,
        "pip_tile_join": pip_tile_join,
        "lint_summary_per_map": lint_summary_per_map,
        "lint_per_check_type": lint_per_check_type,
        "lint_merge_overall": lint_merge_overall,
        "cell_index": cell_index,
        "cell_density_smooth": cell_density_smooth,
        "embedding_quantize": embedding_quantize,
        "simhash_docs": simhash_docs,
        "text_stats": text_stats,
        "lang_id": lang_id,
        "unigram_logprob": unigram_logprob,
        "bigram_logprob": bigram_logprob,
        "winnow_fingerprints": winnow_fingerprints,
        "winnow_dup_pairs": winnow_dup_pairs,
        "dup_spans": dup_spans,
        "pmi_bigrams": pmi_bigrams,
        "dup_span_stats": dup_span_stats,
        "token_entropy": token_entropy,
        "quality_percentile_filter": quality_percentile_filter,
        "distinct_token_counts": distinct_token_counts,
        "vocab_topk": vocab_topk,
        "corpus_split": corpus_split,
        "decontaminate": decontaminate,
        "repetition_stats": repetition_stats,
        "token_quantiles": token_quantiles,
        "corpus_redact": corpus_redact,
        "corpus_sample": corpus_sample,
        "corpus_mix": corpus_mix,
        "doc_chunks": doc_chunks,
        "pack_sequences": pack_sequences,
        "top_quality_docs": top_quality_docs,
        "tfidf_keywords": tfidf_keywords,
        "corpus_filter": corpus_filter,
        "corpus_stats": corpus_stats,
        **{f"rule_{sl.removeprefix('sophox_')}": _rule_query(sl)
           for sl in RULE_QUERY_SLUGS},
        "events_window": events_window,
        "events_sessionize": events_sessionize,
        "events_asof_attribution": events_asof_attribution,
        "events_funnel": events_funnel,
        "events_range_join": events_range_join,
        "events_retention": events_retention,
        "events_anomalies": events_anomalies,
        "media_features": media_features,
        "media_resize": media_resize,
        "media_frame_sample": media_frame_sample,
        "media_dedup": media_dedup,
        "fix_plan": fix_plan,
        "raster_sample": raster_sample,
        "raster_zonal_stats": raster_zonal_stats,
        "embedding_cosine_pairs_lsh": embedding_cosine_pairs_lsh,
        "knn_graph_ivf": knn_graph_ivf,
        "knn_graph_ivf_fullprobe": knn_graph_ivf_fullprobe,
        "embedding_kmeans_1iter": embedding_kmeans_1iter,
        "geo_clusters": geo_clusters,
        "decontaminate_bloom": decontaminate_bloom,
        "distinct_token_counts_hll": distinct_token_counts_hll,
        "vocab_topk_mg": vocab_topk_mg,
        "dedup_cosine_clusters": dedup_cosine_clusters,
        "embedding_project": embedding_project,
        "events_daily_trend": events_daily_trend,
        "bm25_topk": bm25_topk,
        "pq_encode": pq_encode,
        "pq_topk_adc": pq_topk_adc,
        "corpus_weighted_sample": corpus_weighted_sample,
        "knn_pagerank": knn_pagerank,
        "geo_cluster_stats": geo_cluster_stats,
        "source_embedding_norms": source_embedding_norms,
        "cell_pyramid": cell_pyramid,
        "geo_range_join": geo_range_join,
        "raster_polygonize": raster_polygonize,
        "geo_moran_i": geo_moran_i,
        "geo_kde_heatmap": geo_kde_heatmap,
        "corpus_split_leakfree": corpus_split_leakfree,
        "knn_dup_names": knn_dup_names,
        "nearest_tile": nearest_tile,
        "ann_topk": ann_topk,
        "ann_topk_ivf": ann_topk_ivf,
        "ann_topk_ivf_fullprobe": ann_topk_ivf_fullprobe,
        "embedding_cosine_pairs": embedding_cosine_pairs,
        "knn_graph": knn_graph,
        "embedding_kmeans": embedding_kmeans,
        "embedding_centroids": embedding_centroids,
        "dedup_exact": dedup_exact,
        "dedup_minhash": dedup_minhash,
        "dedup_simhash": dedup_simhash,
        "dedup_ngram_jaccard": dedup_ngram_jaccard,
        "dedup_clusters": dedup_clusters,
        "dedup_apply": dedup_apply,
    }
    return _order_by_staleness(base)


def oracle_queries(sf_dir: str = "/root/testdata/sf0.01") -> dict[str, str]:
    """Oracle SQL strings for the driver's sf0.01 comparison.  Generating
    here also materializes the synthetic tables the lint SQL reads (plus
    the independent simhash reference table).

    Oracle taxonomy for the approximate family:
    * ``simhash_docs`` / ``dedup_simhash`` — sound BY CONSTRUCTION: the
      values come from an independent reference implementation
      (``oracle_sql.simhash_reference_table``) and the pair miner is
      pigeonhole-exact, so equality is guaranteed, not empirical.
    * ``dedup_minhash`` / ``embedding_cosine_pairs_lsh`` — checked against
      the EXACT SQL (word-3-gram Jaccard / exact cosine).  **The equality
      claim is SEED-PINNED, not general**: LSH recall is probabilistic,
      but for the FIXED driver tables + FIXED seeds (``LSH_SEED``,
      ``synth.py`` generators) the candidate set is deterministic and
      verified exhaustive.  The in-repo gate tests
      (tests/test_metrics_caches.py::test_cosine_lsh_oracle_gate_driver_tables
      and ::test_minhash_oracle_gate_driver_tables) assert exact-set
      equality AT THE DRIVER'S sf (0.01) on every CI
      run, so any synth/seed/tau change fails in-repo BEFORE a driver
      run can misattribute the drift to the engine.  If the gate ever
      fails after an intentional parameter change, the correct fix is to
      re-pin or demote the entry to rows-only — never to weaken the
      miner.
    * ``ann_topk_ivf`` / ``knn_graph_ivf`` — rows-only (nprobe truncation
      is genuinely approximate); soundness (reported rank never beats the
      exact rank / recall floor) is pytest-asserted, and each has a
      fullprobe sibling with a HARD exact oracle
      (``ann_topk_ivf_fullprobe``, ``knn_graph_ivf_fullprobe``).
    * ``embedding_kmeans`` — rows-only: an iterative fixpoint is not
      SQL-expressible; assignment optimality, partition totality and
      determinism are pytest-asserted instead.  Its assign/reduce
      machinery carries the hard ``embedding_kmeans_1iter`` oracle (one
      Lloyd step IS SQL-expressible).
    * ``distinct_token_counts_hll`` — rows-only: HyperLogLog is
      genuinely approximate; the <3% error band, merge associativity
      and determinism are pytest-asserted, and the exact sibling
      ``distinct_token_counts`` carries the hard COUNT(DISTINCT)
      oracle.  The other sketch paths (``vocab_topk_mg`` Misra-Gries,
      ``decontaminate_bloom``) are certificate-/verify-exact and keep
      their hard oracles."""
    d = _synth(sf_dir)
    return {
        "lint_flags": oracle_sql.lint_flags_sql(d),
        "lint_summary_per_map": oracle_sql.lint_summary_per_map_sql(d),
        "lint_per_check_type": oracle_sql.lint_per_check_type_sql(d),
        "lint_merge_overall": oracle_sql.lint_merge_overall_sql(d),
        "pip_tile_join": oracle_sql.pip_tile_join_sql(d),
        "cell_index": oracle_sql.cell_index_sql(d, CELL_RES),
        "cell_density_smooth":
            oracle_sql.cell_density_smooth_sql(d, CELL_RES),
        "knn_dup_names": oracle_sql.knn_dup_names_sql(
            d, KNN_RADIUS_KM, dupnames.MAX_NAME_FREQ),
        "nearest_tile": oracle_sql.nearest_tile_sql(d),
        "text_stats": oracle_sql.TEXT_STATS_SQL,
        "lang_id": oracle_sql.lang_id_sql(),
        "unigram_logprob": oracle_sql.unigram_logprob_sql(
            _textops().LOGPROB_VOCAB),
        "bigram_logprob": oracle_sql.bigram_logprob_sql(
            _textops().BIGRAM_VOCAB, _textops().BIGRAM_MODEL,
            _textops().BACKOFF_ALPHA),
        "winnow_fingerprints": oracle_sql.winnow_sql(
            _textops().WINNOW_K, _textops().WINNOW_W),
        "winnow_dup_pairs": oracle_sql.winnow_dup_pairs_sql(
            _textops().WINNOW_K, _textops().WINNOW_W,
            _textops().WINNOW_PAIR_TAU),
        "dedup_exact": oracle_sql.DEDUP_EXACT_SQL,
        # grams grouped by STRING in SQL vs 128-bit blake2b keys in Ray —
        # equality is the collision-safety check itself
        "dup_spans": oracle_sql.dup_spans_sql(_textops().DUPSPAN_K),
        "pmi_bigrams": oracle_sql.pmi_bigrams_sql(
            _textops().PMI_TOP, _textops().PMI_MIN_CNT),
        "dup_span_stats": oracle_sql.dup_span_stats_sql(
            _textops().DUPSPAN_K),
        "token_entropy": oracle_sql.TOKEN_ENTROPY_SQL,
        "quality_percentile_filter":
            oracle_sql.quality_percentile_filter_sql(
                _textops().QUALITY_KEEP_FRAC),
        "distinct_token_counts": oracle_sql.DISTINCT_TOKEN_COUNTS_SQL,
        # exact recall by construction (inverted-index candidates) — SQL
        # computes the same word-3-gram Jaccard
        "dedup_ngram_jaccard": oracle_sql.ngram_jaccard_sql(0.3),
        # soundness oracle: every reported pair carries the EXACT Jaccard,
        # so the exact SQL at the same tau is the full expected set (LSH
        # recall at the driver scale is exact — gate-tested in-repo)
        "dedup_minhash": oracle_sql.ngram_jaccard_sql(0.5),
        # independent-reference oracles (sound by construction)
        "simhash_docs": oracle_sql.simhash_docs_sql(d, sf_dir),
        "dedup_simhash": oracle_sql.dedup_simhash_sql(
            d, sf_dir, _SIMHASH_MAX_HAMMING()),
        # transitive closure of the (oracle-equal) minhash pair set —
        # recursive CTE vs distributed min-label propagation
        "dedup_clusters": oracle_sql.dedup_clusters_sql(0.5),
        "vocab_topk": oracle_sql.vocab_topk_sql(_textops().VOCAB_K),
        # certificate-gated exact top-k (falls back to the exact path on
        # certificate failure) — same hard oracle
        "vocab_topk_mg": oracle_sql.vocab_topk_sql(_textops().VOCAB_K),
        "corpus_split": oracle_sql.corpus_split_sql(
            _textops()._SPLIT_TRAIN_HEX, _textops()._SPLIT_VAL_HEX),
        "decontaminate": oracle_sql.decontaminate_sql(
            _textops().EVAL_SOURCES),
        # Bloom prefilter + exact verify == the exact semi-join, so the
        # scale path carries the same hard oracle (no recall caveat)
        "decontaminate_bloom": oracle_sql.decontaminate_sql(
            _textops().EVAL_SOURCES),
        "repetition_stats": oracle_sql.repetition_stats_sql(),
        "token_quantiles": oracle_sql.token_quantiles_sql(
            _textops().TOKEN_QUANTILES),
        "corpus_redact": oracle_sql.corpus_redact_sql(
            _textops().REDACT_PATTERNS),
        "corpus_sample": oracle_sql.corpus_sample_sql(
            {k: _textops()._rate_hex(v)
             for k, v in _textops().SAMPLE_RATES.items()},
            _textops()._rate_hex(_textops().SAMPLE_DEFAULT_RATE)),
        "doc_chunks": oracle_sql.doc_chunks_sql(_textops().CHUNK_TOKENS),
        "pack_sequences": oracle_sql.pack_sequences_sql(
            _textops().PACK_BUDGET, _textops().CHUNK_TOKENS,
            _textops().PACK_RANGE),
        "corpus_mix": oracle_sql.corpus_mix_sql(
            _textops().MIX_WEIGHTS, _textops().MIX_DEFAULT_WEIGHT),
        "dedup_apply": oracle_sql.dedup_apply_sql(0.5),
        "top_quality_docs": oracle_sql.top_quality_docs_sql(
            _textops().TOP_QUALITY_N),
        "tfidf_keywords": oracle_sql.tfidf_keywords_sql(
            _textops().TFIDF_TOP, _textops().TFIDF_MIN_DF),
        "bm25_topk": oracle_sql.bm25_topk_sql(
            _textops().BM25_QUERIES, _textops().BM25_K1,
            _textops().BM25_B, _textops().BM25_TOP),
        "corpus_weighted_sample": oracle_sql.corpus_weighted_sample_sql(
            _textops().WEIGHTED_SAMPLE_K),
        "corpus_filter": oracle_sql.CORPUS_FILTER_SQL,
        "corpus_stats": oracle_sql.CORPUS_STATS_SQL,
        "embedding_quantize": oracle_sql.EMBEDDING_QUANTIZE_SQL,
        "embedding_centroids": oracle_sql.EMBEDDING_CENTROIDS_SQL,
        "knn_graph": oracle_sql.knn_graph_sql(ANN_K),
        # full-probe IVF graph == exact graph by construction (every
        # candidate scored exactly once); hard oracle for the IVF
        # routing/replication/per-list/meta-bucket-reduce machinery.
        # knn_graph_ivf itself stays rows-only (nprobe truncation is a
        # real approximation; recall gate in pytest).
        "knn_graph_ivf_fullprobe": oracle_sql.knn_graph_sql(ANN_K),
        # one Lloyd step IS SQL-expressible — hard oracle for the k-means
        # assign/reduce kernels; the iterative fixpoint stays rows-only.
        "embedding_kmeans_1iter": oracle_sql.kmeans_1iter_sql(
            _ann().KMEANS_K),
        "geo_clusters": oracle_sql.geo_clusters_sql(
            d, _geocluster().EPS_KM, _geocluster().MIN_PTS),
        "geo_cluster_stats": oracle_sql.geo_cluster_stats_sql(
            d, _geocluster().EPS_KM, _geocluster().MIN_PTS),
        "ann_topk": oracle_sql.ann_topk_sql(ANN_K, ANN_NQ),
        # full-probe IVF == exact top-k by construction: every list is
        # scanned, so the approximation is off and the index machinery
        # (routing, per-list matmul, rank reduction) gets a hard oracle
        "ann_topk_ivf_fullprobe": oracle_sql.ann_topk_sql(ANN_K, ANN_NQ),
        "embedding_cosine_pairs": oracle_sql.cosine_pairs_sql(COS_TAU),
        # LSH multiprobe recall verified == exact at gate scale (pytest
        # guards the subset property; equality checked empirically)
        "embedding_cosine_pairs_lsh": oracle_sql.cosine_pairs_sql(COS_TAU),
        "dedup_cosine_clusters":
            oracle_sql.dedup_cosine_clusters_sql(COS_TAU),
        "embedding_project": oracle_sql.embedding_project_sql(
            _ann().jl_matrix()),
        "pq_encode": oracle_sql.pq_encode_sql(
            _ann().PQ_M, _ann().PQ_KSUB),
        "pq_topk_adc": oracle_sql.pq_topk_adc_sql(
            5, 4, _ann().PQ_M, _ann().PQ_KSUB),
        "knn_pagerank": oracle_sql.knn_pagerank_sql(5, 0.85, 10),
        "source_embedding_norms": oracle_sql.SOURCE_EMBEDDING_NORMS_SQL,
        "events_window": oracle_sql.EVENTS_WINDOW_SQL,
        "events_sessionize": oracle_sql.EVENTS_SESSIONIZE_SQL,
        "events_asof_attribution": oracle_sql.EVENTS_ASOF_SQL,
        "events_funnel": oracle_sql.events_funnel_sql(
            _eventops().FUNNEL_STEP_A, _eventops().FUNNEL_STEP_B,
            _eventops().FUNNEL_WINDOW_DAYS),
        "events_range_join": oracle_sql.events_range_join_sql(
            _eventops().RANGE_JOIN_SOURCES, _eventops().RANGE_GAP_MIN),
        "events_retention": oracle_sql.EVENTS_RETENTION_SQL,
        "events_anomalies": oracle_sql.events_anomalies_sql(
            _eventops().ANOMALY_Z),
        "events_daily_trend": oracle_sql.events_daily_trend_sql(
            _eventops().TREND_X0),
        "media_features": oracle_sql.media_features_sql(d),
        "media_resize": oracle_sql.media_resize_sql(d),
        "media_frame_sample": oracle_sql.media_frame_sample_sql(d),
        "media_dedup": oracle_sql.media_dedup_sql(d),
        "fix_plan": oracle_sql.fix_plan_sql(d),
        "raster_sample": oracle_sql.raster_sample_sql(d, CELL_RES),
        "raster_zonal_stats": oracle_sql.raster_zonal_stats_sql(d, CELL_RES),
        "raster_polygonize": oracle_sql.raster_polygonize_sql(
            d, _raster().POLY_RES, _raster().POLY_K),
        "cell_pyramid": oracle_sql.cell_pyramid_sql(d, CELL_RES),
        "geo_range_join": oracle_sql.geo_range_join_sql(
            d, _geocluster().RANGE_EPS_KM),
        "geo_moran_i": oracle_sql.moran_i_sql(d, CELL_RES),
        "geo_gi_star": oracle_sql.gi_star_sql(d, CELL_RES),
        "geo_kde_heatmap": oracle_sql.kde_heatmap_sql(
            d, CELL_RES, geostats.KDE_CUTOFF_KM,
            geostats.LAT_STEP, geostats.LON_STEP),
        "geo_ripley_k": oracle_sql.ripley_k_sql(
            d, _geocluster().EPS_KM, _geocluster().RIPLEY_BINS),
        "corpus_split_leakfree": oracle_sql.corpus_split_leakfree_sql(
            0.5, _textops()._SPLIT_TRAIN_HEX, _textops()._SPLIT_VAL_HEX),
        "events_props_extract": oracle_sql.props_extract_sql(),
        "geo_semivariogram": oracle_sql.semivariogram_sql(
            d, _geocluster().EPS_KM, _geocluster().VARIO_BINS),
        "geo_nn_stats": oracle_sql.nn_stats_sql(d, _geocluster().EPS_KM),
        "geo_cluster_diameter": oracle_sql.geo_cluster_diameter_sql(
            d, _geocluster().EPS_KM, _geocluster().MIN_PTS),
        "geo_kernel_surface": oracle_sql.kernel_surface_sql(
            d, CELL_RES, geostats.KDE_CUTOFF_KM,
            geostats.LAT_STEP, geostats.LON_STEP),
        "diversity_sample": oracle_sql.diversity_sample_sql(
            _ann().DIVERSITY_K),
        "dedup_apply_quality": oracle_sql.dedup_apply_quality_sql(0.5),
        "geo_bearing_rose": oracle_sql.bearing_rose_sql(d),
        "geo_pip_gaps": oracle_sql.pip_gaps_sql(d, CELL_RES),
        "geo_hilbert_index": oracle_sql.hilbert_index_sql(d, CELL_RES),
        "lint_flags_by_tile": oracle_sql.lint_flags_by_tile_sql(d),
        "events_heavy_users": oracle_sql.heavy_users_sql(
            _eventops().HEAVY_TOP),
        # certificate-gated exact at driver scale (no compaction — the
        # whole per-lang multiset fits SKETCH_CAP); compaction-path
        # error bound is pytest-gated
        "quality_quantiles_sketch": oracle_sql.quality_quantiles_sql(
            _textops().TOKEN_QUANTILES),
        **{f"rule_{sl.removeprefix('sophox_')}": oracle_sql.rule_sql(d, sl)
           for sl in RULE_QUERY_SLUGS},
    }
