"""Kernel-only throughput of the flagship chain, in-process, without Ray.

The workload's own input is cut into blocks of the size its Ray pipeline
reads, and each kernel runs over every block: decode, last-wins dedup
filter, point-in-polygon, checks.  The checks also run at 4k-row blocks,
the size 32 CPUs produce.  Each figure is docs per second on one core,
the median of three passes.
"""

from __future__ import annotations

import os
import statistics
import time

import pyarrow as pa
import pyarrow.parquet as pq

PASSES = 3


def _blocks(t: pa.Table, rows: int) -> list[pa.Table]:
    return [t.slice(i, rows) for i in range(0, t.num_rows, rows)]


def _rate(fn, blocks: list) -> tuple[float, list]:
    """Median docs/s of ``fn`` over ``blocks``, and its outputs."""
    fn(blocks[0])          # first call builds per-process state
    rates, outs = [], None
    for _ in range(PASSES):
        t0 = time.perf_counter()
        outs = [fn(b) for b in blocks]
        rates.append(sum(b.num_rows for b in blocks)
                     / (time.perf_counter() - t0))
    return statistics.median(rates), outs


def measure(d: str, block_rows: int, shard: str | None = None) -> dict:
    from osmlint import pipeline, spans
    path = os.path.join(d, "docs", f"map={shard}") if shard \
        else os.path.join(d, "docs")
    docs = pq.read_table(path, columns=["doc_id", "spans"])
    coll = pipeline.collision_keys(d, pipeline.doc_partitions(d))
    ref = {n: pq.read_table(os.path.join(d, f"{n}.parquet")).to_pandas()
           for n in ("wiki_ref", "wikidata_ref", "tiles", "countries")}
    pip = pipeline.PipAssign(ref["countries"], ref["tiles"])
    flag = pipeline.FlagStage(ref["wiki_ref"], ref["wikidata_ref"])

    decode_rate, decoded = _rate(spans.decode_batch, _blocks(docs, block_rows))
    dedup_rate, kept = _rate(lambda b: pipeline.dedup_filter(b, coll), decoded)
    pip_rate, located = _rate(pip, kept)
    flag_rate, _ = _rate(flag, located)
    # an all-null column reads back as null type in small blocks
    whole = pa.concat_tables(located, promote_options="default")
    flag_4k, _ = _rate(flag, _blocks(whole, 4096))
    n_kept = sum(b.num_rows for b in kept)
    return {
        "spans.decode_docs_per_s": decode_rate,
        "pipeline.dedup_filter_docs_per_s": dedup_rate,
        "geo.pip_docs_per_s": pip_rate,
        "checks.flag_docs_per_s_block": flag_rate,
        "checks.flag_docs_per_s_4k": flag_4k,
        "pipeline.collision_rows": len(coll),
        "pipeline.dedup_keep_ratio": n_kept / max(docs.num_rows, 1),
        "kernels.block_rows": block_rows,
    }
